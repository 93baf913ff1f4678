"""XOR image cipher. Encryption and decryption are the same involution."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .keystream import Keystream, KeystreamConfig, _read_only, generate_keystream
from .lorenz import LorenzParams, LorenzState

__all__ = ["GrayImage", "xor_apply", "encrypt", "decrypt"]


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
        arr = np.asarray(pixels)
        if arr.dtype != np.uint8:
            if arr.dtype.kind not in "iu":
                raise DomainError(f"pixels must be integers, got dtype {arr.dtype}")
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise DomainError("pixel values must lie in [0, 255]")
            arr = arr.astype(np.uint8, order="C")
            arr.setflags(write=False)  # a fresh array, so the constructor keeps it
        return cls(arr)


def xor_apply(image: GrayImage, key: Keystream) -> GrayImage:
    """XOR each pixel with the matching key byte, row-major."""
    kc = key.config
    if (kc.rows, kc.cols) != (image.rows, image.cols):
        raise DomainError(
            f"key is {kc.rows}x{kc.cols} but image is {image.rows}x{image.cols}")
    out = image.pixels ^ key.data.reshape(image.rows, image.cols)
    out.setflags(write=False)  # a fresh uint8 array, so GrayImage keeps it uncopied
    return GrayImage(out)


def encrypt(image: GrayImage, params: LorenzParams, initial: LorenzState,
            config: KeystreamConfig) -> GrayImage:
    """Generate the keystream for `config` and XOR it onto `image`.

    Applying the same call to the ciphertext restores the plaintext.
    """
    if (config.rows, config.cols) != (image.rows, image.cols):
        raise DomainError(
            f"config is {config.rows}x{config.cols} but image is "
            f"{image.rows}x{image.cols}")
    key = generate_keystream(params, initial, config)
    return xor_apply(image, key)


def decrypt(image: GrayImage, params: LorenzParams, initial: LorenzState,
            config: KeystreamConfig) -> GrayImage:
    """Alias of encrypt: XOR with the regenerated keystream is an involution."""
    return encrypt(image, params, initial, config)
