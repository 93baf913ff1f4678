"""Cipher quality metrics: adjacent-pixel correlation, Shannon entropy,
histogram, chi-square uniformity, and the cross-work efficiency index."""

from __future__ import annotations

from dataclasses import dataclass

from .cipher import GrayImage
from .errors import DomainError

__all__ = [
    "DIRECTIONS",
    "WorkScores",
    "adjacent_correlation",
    "shannon_entropy",
    "histogram",
    "chi_square_uniform",
    "efficiency_index",
]

DIRECTIONS = ("horizontal", "vertical", "diagonal")


@dataclass(frozen=True)
class WorkScores:
    """One work's published quality numbers, as fed to the efficiency index."""

    label: str
    corr_h: float
    corr_v: float
    corr_d: float
    entropy: float

    def __post_init__(self):
        for name, lo, hi in (("corr_h", -1, 1), ("corr_v", -1, 1),
                             ("corr_d", -1, 1), ("entropy", 0, 8)):
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise DomainError(f"{name} must be in [{lo}, {hi}], got {value!r}")


# The (row, col) offset from each pixel to its neighbour, per direction.
_OFFSETS = dict(zip(DIRECTIONS, ((0, 1), (1, 0), (1, 1))))


def _pair_series(image: GrayImage, direction: str) -> tuple[np.ndarray, np.ndarray]:
    if direction not in DIRECTIONS:
        raise DomainError(f"unknown direction {direction!r}, expected one of {DIRECTIONS}")
    dr, dc = _OFFSETS[direction]
    p = image.pixels
    rows, cols = p.shape
    if rows <= dr or cols <= dc:
        raise DomainError(f"{direction} pairs need an image of at least "
                          f"{dr + 1}x{dc + 1}, got {rows}x{cols}")
    return p[:rows - dr, :cols - dc], p[dr:, dc:]


def adjacent_correlation(image: GrayImage, direction: str) -> float:
    """Correlation between each pixel and its neighbor in `direction`.

    All adjacent pairs are used (no sampling): horizontal pairs are
    (i,j)-(i,j+1), vertical (i,j)-(i+1,j), diagonal (i,j)-(i+1,j+1).
    Population (divide-by-m) moments over the m pairs: each mean is an exact
    integer sum divided once, and each moment one pairwise float64 sum in
    row-major order: bit-identical to the oracle in tests/test_metrics.py.
    """
    import numpy as np
    x, y = _pair_series(image, direction)
    m = x.size
    a = np.subtract(x, float(x.sum(dtype=np.int64)) / m, dtype=np.float64)
    b = np.multiply(a, a)
    sx = np.sqrt(b.sum() / m)
    np.subtract(y, float(y.sum(dtype=np.int64)) / m, out=b, dtype=np.float64)
    a *= b
    b *= b
    sy = np.sqrt(b.sum() / m)
    if sx == 0.0 or sy == 0.0:
        raise DomainError(
            "correlation undefined: a series has zero standard deviation")
    r = float(a.sum() / m / (sx * sy))
    # One rounding step can push |r| a few ulp past 1; the result is a
    # correlation and must stay in [-1, 1].
    return min(1.0, max(-1.0, r))


def histogram(image: GrayImage) -> np.ndarray:
    """Count of each intensity 0..255; counts sum to the pixel count."""
    import numpy as np
    return np.bincount(image.pixels.ravel(), minlength=256).astype(np.int64)


def shannon_entropy(image: GrayImage) -> float:
    """H = sum of P_i * log2(1/P_i) over intensity levels, in [0, 8] bits.

    Levels with zero probability contribute zero.
    """
    import numpy as np
    counts = histogram(image)
    total = counts.sum()
    p = counts[counts > 0] / total
    # + 0.0 turns the -0.0 of single-level images into +0.0
    return float(-(p * np.log2(p)).sum() + 0.0)


def chi_square_uniform(counts: np.ndarray) -> float:
    """Chi-square statistic of `counts` against a uniform distribution."""
    import numpy as np
    counts = np.asarray(counts, dtype=np.float64)
    if not (np.isfinite(counts) & (counts >= 0)).all():
        raise DomainError("chi-square counts must be finite and non-negative")
    if counts.size < 2 or counts.sum() <= 0:
        raise DomainError("chi-square needs >= 2 bins with a positive total")
    expected = counts.sum() / counts.size
    return float(((counts - expected) ** 2 / expected).sum())


def efficiency_index(scores: list[WorkScores]) -> list[float]:
    """Mean best-value ratio over the four categories, one Ic per work.

    For each correlation category the best value M is the smallest magnitude
    across works and a work's ratio is M / |V|; for entropy the best value is
    the largest and the ratio is V / M. Every ratio is in (0, 1], the best
    work in a category scores exactly 1 there, and Ic is the arithmetic mean
    of the four ratios.
    """
    if not scores:
        raise DomainError("efficiency_index needs at least one work")
    for s in scores:
        for field in ("corr_h", "corr_v", "corr_d"):
            if getattr(s, field) == 0.0:
                raise DomainError(
                    f"work {s.label!r} has a zero {field}; a literally zero "
                    f"correlation would dominate the index and is surfaced, "
                    f"not clamped")
        if s.entropy <= 0.0:
            raise DomainError(f"work {s.label!r} has non-positive entropy")
    import numpy as np
    ch = np.array([abs(s.corr_h) for s in scores])
    cv = np.array([abs(s.corr_v) for s in scores])
    cd = np.array([abs(s.corr_d) for s in scores])
    en = np.array([s.entropy for s in scores])
    ratios = (ch.min() / ch + cv.min() / cv + cd.min() / cd + en / en.max())
    return [float(r) / 4.0 for r in ratios]
