"""XOR image cipher, whose encryption and decryption are the same
involution, and the deterministic texture the scripts and tests encrypt."""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import DomainError, _allocation_error, _check_count, _require_type
from .keystream import (_IS_CONFIG, Keystream, KeystreamConfig, _read_only,
                        generate_keystream)
from .lorenz import LorenzParams, LorenzState

__all__ = ["GrayImage", "reference_image", "xor_apply", "encrypt", "decrypt"]

# The refusal of anything but a GrayImage where an image is expected.
_IS_IMAGE = "image must be a GrayImage"


@dataclass(frozen=True, eq=False)
class GrayImage:
    """An 8-bit grayscale image stored as a read-only, C-contiguous (rows,
    cols) array; a writable or strided `pixels` array is copied first.
    Equality and hash are identity, as for the array: compare `pixels`."""

    pixels: np.ndarray

    def __post_init__(self):
        import numpy as np
        pixels = _read_only(self.pixels, "pixels")
        if pixels.ndim != 2 or 0 in pixels.shape:
            raise DomainError(f"pixels must be a non-empty 2-d array, got shape {pixels.shape}")
        if pixels.dtype != np.uint8:
            raise DomainError(f"pixels must be uint8, got {pixels.dtype}")
        object.__setattr__(self, "pixels", pixels)

    @property
    def rows(self) -> int:
        return self.pixels.shape[0]

    @property
    def cols(self) -> int:
        return self.pixels.shape[1]

    @classmethod
    def from_array(cls, pixels: np.ndarray) -> "GrayImage":
        import numpy as np
        try:
            arr = np.asarray(pixels)
        except ValueError:  # a ragged nesting of sequences
            raise DomainError("pixels must be a rectangular array of integers") from None
        if arr.dtype != np.uint8:
            if arr.dtype.kind not in "iu":
                raise DomainError(f"pixels must be integers, got dtype {arr.dtype}")
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise DomainError("pixel values must lie in [0, 255]")
            arr = arr.astype(np.uint8, order="C")
            arr.setflags(write=False)  # a fresh array, so the constructor keeps it
        return cls(arr)


def reference_image(rows: int = 256, cols: int = 256) -> GrayImage:
    """A rows x cols grayscale texture of a few incommensurate sinusoids
    plus a gentle gradient: photo-like where cipher evaluation cares
    (entropy well below 8, adjacent-pixel correlations near 1, a lumpy
    histogram), without shipping a photograph."""
    _check_count("rows", rows, 1)
    _check_count("cols", cols, 1)
    # numpy sizes an array past sys.maxsize bytes as empty or refuses it
    # with a ValueError, and a smaller one it cannot allocate with a
    # MemoryError; each is the same refusal here.
    failed = _allocation_error("the texture", rows * cols, "8-byte floats per pixel", "pixels")
    if 8 * rows * cols > sys.maxsize:
        raise failed
    import numpy as np
    try:
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
    except MemoryError:
        raise failed from None
    return GrayImage.from_array(pixels)


def xor_apply(image: GrayImage, key: Keystream) -> GrayImage:
    """XOR each pixel with the matching key byte, row-major."""
    _require_type(image, GrayImage, _IS_IMAGE)
    _require_type(key, Keystream, "key must be a Keystream")
    kc = key.config
    if (kc.rows, kc.cols) != (image.rows, image.cols):
        raise DomainError(
            f"key is {kc.rows}x{kc.cols} but image is {image.rows}x{image.cols}")
    out = image.pixels ^ key.data.reshape(image.rows, image.cols)
    out.setflags(write=False)  # a fresh uint8 array, so GrayImage keeps it uncopied
    return GrayImage(out)


def encrypt(image: GrayImage, params: LorenzParams, initial: LorenzState,
            config: KeystreamConfig) -> GrayImage:
    """Generate the keystream for `config` and XOR `image` into it.

    Applying the same call to the ciphertext restores the plaintext. The
    keystream never leaves this call, so its buffer becomes the ciphertext:
    one image-sized buffer besides the input. The key comes from this
    module's `generate_keystream`, not from `_xor_keystream(..., payload)` in
    one pass, because `perfbench/selftest.py` flips a key byte through that
    name to check that the benchmark notices; ROADMAP item 1a moves it.
    """
    _require_type(image, GrayImage, _IS_IMAGE)
    _require_type(config, KeystreamConfig, _IS_CONFIG)
    if (config.rows, config.cols) != (image.rows, image.cols):
        raise DomainError(
            f"config is {config.rows}x{config.cols} but image is "
            f"{image.rows}x{image.cols}")
    import numpy as np
    out = generate_keystream(params, initial, config).data
    out.setflags(write=True)
    np.bitwise_xor(out, image.pixels.reshape(-1), out=out)
    out.setflags(write=False)
    return GrayImage(out.reshape(image.rows, image.cols))


def decrypt(image: GrayImage, params: LorenzParams, initial: LorenzState,
            config: KeystreamConfig) -> GrayImage:
    """Alias of encrypt: XOR with the regenerated keystream is an involution."""
    return encrypt(image, params, initial, config)
