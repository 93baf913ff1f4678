"""Keystream derivation from the lower bound error of an orbit pair.

Pipeline: integrate both variants and keep one state component, take
delta[n] = |a_n - b_n| / 2, discard a transient prefix, then map the
retained window to bytes under one of two strategies:

  mantissa-lsb   low 8 bits of the binary64 significand field of delta
  minmax-scale   floor((delta - min) / (max - min) * 255) over the window
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lorenz import (COMPONENTS, LorenzParams, LorenzState, _check_count,
                     integrate_pair)

__all__ = [
    "STRATEGIES",
    "KeystreamConfig",
    "Keystream",
    "KeystreamQualityWarning",
    "lower_bound_error",
    "extract_bytes",
    "generate_keystream",
]

STRATEGIES = ("mantissa-lsb", "minmax-scale")

# Zero delta samples yield byte 0 under both strategies; a keystream made
# mostly of zeros XORs to near-identity, so it is worth a loud warning.
ZERO_FRACTION_WARN = 0.02


class KeystreamQualityWarning(UserWarning):
    """The generated keystream looks degenerate (e.g. too many zero bytes)."""


@dataclass(frozen=True)
class KeystreamConfig:
    """Shape and extraction settings for one keystream."""

    rows: int
    cols: int
    transient: int = 2000
    strategy: str = "mantissa-lsb"
    component: str = "y"

    def __post_init__(self):
        for name, least in (("rows", 1), ("cols", 1), ("transient", 0)):
            _check_count(name, getattr(self, name), least)
        if self.strategy not in STRATEGIES:
            raise DomainError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if self.component not in COMPONENTS:
            raise DomainError(f"unknown component {self.component!r}, expected one of {COMPONENTS}")

    @property
    def n_samples(self) -> int:
        """Samples to integrate: the discarded transient plus one per key byte."""
        return self.transient + self.rows * self.cols


@dataclass(frozen=True)
class Keystream:
    """rows*cols key bytes, stored read-only (a writable `data` array is
    copied first), and the config that shapes them."""

    data: np.ndarray
    config: KeystreamConfig

    def __post_init__(self):
        expected = self.config.rows * self.config.cols
        if self.data.dtype != np.uint8 or self.data.shape != (expected,):
            raise DomainError(
                f"keystream must be {expected} uint8 values, got "
                f"{self.data.dtype} array of shape {self.data.shape}")
        if self.data.flags.writeable:
            data = self.data.copy()
            data.setflags(write=False)
            object.__setattr__(self, "data", data)

    def hex(self) -> str:
        return self.data.tobytes().hex()


def lower_bound_error(pair: np.ndarray) -> np.ndarray:
    """delta[n] = |a_n - b_n| / 2, for every sample.

    `pair` is laid out as integrate_pair returns it: shape (n, 2), indexed
    [sample, variant A=0 / B=1], one state component.
    """
    if pair.ndim != 2 or pair.shape[1] != 2 or pair.shape[0] < 1:
        raise DomainError(f"pair must have shape (n, 2) with n >= 1, got {pair.shape}")
    delta = np.subtract(pair[:, 0], pair[:, 1], dtype=np.float64)
    np.abs(delta, out=delta)
    delta *= 0.5  # the same bits as / 2.0 for every double, in about half the time
    if not np.isfinite(delta).all():
        raise DomainError("pair contains non-finite samples")
    return delta


def extract_bytes(delta: np.ndarray, config: KeystreamConfig) -> np.ndarray:
    """Discard the transient prefix and map the key window to bytes."""
    delta = np.asarray(delta, dtype=np.float64)
    needed = config.n_samples
    if delta.shape[0] < needed:
        raise DomainError(
            f"need {needed} delta samples (transient {config.transient} + "
            f"{config.rows}x{config.cols} key), have {delta.shape[0]}")
    window = delta[config.transient:needed]
    if config.strategy == "mantissa-lsb":
        # An unsigned narrowing cast keeps the low byte.
        return window.view(np.uint64).astype(np.uint8)
    lo = window.min()
    hi = window.max()
    if hi == lo:
        return np.zeros(window.shape[0], dtype=np.uint8)
    scaled = window - lo
    scaled /= hi - lo
    scaled *= 255.0
    return np.floor(scaled, out=scaled).astype(np.uint8)


def generate_keystream(params: LorenzParams, initial: LorenzState,
                       config: KeystreamConfig) -> Keystream:
    """Integrate, difference, and extract a rows*cols byte keystream.

    Integrates config.n_samples samples. Bit-reproducible in all arguments.
    Warns (never raises) when the zero-byte fraction exceeds
    ZERO_FRACTION_WARN.
    """
    delta = lower_bound_error(integrate_pair(initial, params, config.n_samples,
                                             config.component))
    data = extract_bytes(delta, config)
    zero_fraction = float(np.count_nonzero(data == 0)) / data.shape[0]
    if zero_fraction > ZERO_FRACTION_WARN:
        warnings.warn(
            f"keystream zero-byte fraction {zero_fraction:.2%} exceeds "
            f"{ZERO_FRACTION_WARN:.0%}; the cipher is close to an identity "
            f"map (try a larger step h or more iterations)",
            KeystreamQualityWarning, stacklevel=2)
    data.setflags(write=False)
    return Keystream(data=data, config=config)
