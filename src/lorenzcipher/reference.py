"""Deterministic synthetic test image.

A 256x256 grayscale texture built from a few incommensurate sinusoids plus
a gentle gradient. It is photo-like in the ways that matter for cipher
evaluation (entropy well below 8, adjacent-pixel correlations near 1, a
lumpy histogram) while avoiding any licensing baggage from shipping a
photograph in the repository.
"""

from __future__ import annotations

from .cipher import GrayImage

__all__ = ["reference_image"]


def reference_image(rows: int = 256, cols: int = 256) -> GrayImage:
    """Build the reference texture at the given size."""
    import numpy as np
    i = np.arange(rows, dtype=np.float64)[:, None]
    j = np.arange(cols, dtype=np.float64)[None, :]
    tau = 2.0 * np.pi
    v = (96.0
         + 55.0 * np.sin(tau * i / 97.0) * np.cos(tau * j / 61.0)
         + 40.0 * np.sin(tau * (i + j) / 149.0)
         + 25.0 * np.cos(tau * (2.0 * i - j) / 211.0)
         + 18.0 * np.sin(tau * i * j / (rows * cols / 3.0))
         + 0.12 * i + 0.08 * j)
    pixels = np.clip(np.rint(v), 0.0, 255.0).astype(np.uint8)
    return GrayImage.from_array(pixels)
