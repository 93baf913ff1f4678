"""Keystream derivation from the lower bound error of an orbit pair.

Pipeline: integrate both variants and keep one state component, take
delta[n] = |a_n - b_n| / 2, discard a transient prefix, then map the
retained window to bytes under one of two strategies:

  mantissa-lsb   low 8 bits of the binary64 significand field of delta
  minmax-scale   floor((delta - min) / (max - min) * 255) over the window

`generate_keystream` and the CLI share one route, `_xor_keystream`: the key
kernel `lorenz` loaded turns each sample into a key byte, so no orbit pair
or delta array is stored. `lower_bound_error` and `extract_bytes` over the
pure-Python oracle `lorenz.integrate_pair` are the numpy reference the
tests hold it to; no keystream runs them, so they are not exported.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

from . import lorenz
from .errors import (_NON_FINITE_PAIR, DomainError, _allocation_error, _check_count,
                     _require_choice, _require_type)
from .lorenz import COMPONENTS, LorenzParams, LorenzState

__all__ = [
    "STRATEGIES",
    "KeystreamConfig",
    "Keystream",
    "KeystreamQualityWarning",
    "generate_keystream",
]

STRATEGIES = ("mantissa-lsb", "minmax-scale")
_PACKAGE = __name__.partition(".")[0] + "."

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
        _require_choice(self.strategy, STRATEGIES, "strategy")
        _require_choice(self.component, COMPONENTS, "component")

    @property
    def n_samples(self) -> int:
        """Samples to integrate: the discarded transient plus one per key byte."""
        return self.transient + self.rows * self.cols


# The refusal of anything but a KeystreamConfig where a config is expected.
_IS_CONFIG = "config must be a KeystreamConfig"


def _read_only(value, name: str) -> np.ndarray:
    """`value` as a read-only, C-contiguous array, copying a writable or strided one."""
    import numpy as np
    _require_type(value, np.ndarray, f"{name} must be a numpy array")
    if value.flags.writeable or not value.flags.c_contiguous:
        value = np.array(value, order="C")
        value.setflags(write=False)
    return value


@dataclass(frozen=True, eq=False)
class Keystream:
    """rows*cols key bytes, stored read-only and C-contiguous (a writable or
    strided `data` array is copied first), and the config that shapes them.
    Equality and hash are identity, as for the array: compare `data`."""

    data: np.ndarray
    config: KeystreamConfig

    def __post_init__(self):
        import numpy as np
        data = _read_only(self.data, "keystream data")
        _require_type(self.config, KeystreamConfig, _IS_CONFIG)
        expected = self.config.rows * self.config.cols
        if data.dtype != np.uint8 or data.shape != (expected,):
            raise DomainError(
                f"keystream must be {expected} uint8 values, got "
                f"{data.dtype} array of shape {data.shape}")
        object.__setattr__(self, "data", data)

    def hex(self) -> str:
        return self.data.tobytes().hex()


def lower_bound_error(pair: np.ndarray) -> np.ndarray:
    """delta[n] = |a_n - b_n| / 2, for every sample.

    `pair` is laid out as integrate_pair returns it: shape (n, 2), indexed
    [sample, variant A=0 / B=1], one state component.
    """
    import numpy as np
    if pair.ndim != 2 or pair.shape[1] != 2 or pair.shape[0] < 1:
        raise DomainError(f"pair must have shape (n, 2) with n >= 1, got {pair.shape}")
    delta = np.subtract(pair[:, 0], pair[:, 1], dtype=np.float64)
    np.abs(delta, out=delta)
    delta *= 0.5  # the same bits as / 2.0 for every double, in about half the time
    if not np.isfinite(delta).all():
        raise DomainError(_NON_FINITE_PAIR)
    return delta


def extract_bytes(delta: np.ndarray, config: KeystreamConfig) -> np.ndarray:
    """Discard the transient prefix and map the key window to bytes."""
    import numpy as np
    delta = np.asarray(delta, dtype=np.float64)
    needed = config.n_samples
    if delta.ndim != 1 or delta.shape[0] < needed:
        raise DomainError(
            f"need a 1-d delta of {needed} samples (transient {config.transient} + "
            f"{config.rows}x{config.cols} key), got shape {delta.shape}")
    window = delta[config.transient:needed]
    if config.strategy == "mantissa-lsb":
        # An unsigned narrowing cast keeps the low byte.
        return window.view(np.uint64).astype(np.uint8)
    lo = window.min()
    hi = window.max()
    if not np.isfinite(float(hi) - float(lo)):  # also a range past the largest float
        raise DomainError(f"minmax-scale needs a finite window and range, got {lo} to {hi}")
    if hi == lo:
        return np.zeros(window.shape[0], dtype=np.uint8)
    scaled = window - lo
    scaled /= hi - lo
    scaled *= 255.0
    return np.floor(scaled, out=scaled).astype(np.uint8)


def _warn_if_degenerate(zeros: int, n: int) -> None:
    """Warn when more than ZERO_FRACTION_WARN of the n key bytes are zero,
    naming the first line outside this package on the stack: the one that
    called generate_keystream, encrypt, decrypt or the CLI's command."""
    zero_fraction = zeros / n
    if zero_fraction > ZERO_FRACTION_WARN:
        # What skip_file_prefixes (Python 3.12) does. The stacklevel is
        # counted rather than passed down, because encrypt calls
        # generate_keystream with the key alone.
        frame, stacklevel = sys._getframe(1), 2
        while frame is not None and frame.f_globals.get("__name__", "").startswith(_PACKAGE):
            frame, stacklevel = frame.f_back, stacklevel + 1
        warnings.warn(
            f"keystream zero-byte fraction {zero_fraction:.2%} exceeds "
            f"{ZERO_FRACTION_WARN:.0%}; the cipher is close to an identity "
            f"map (try a larger step h or more iterations)",
            KeystreamQualityWarning, stacklevel=stacklevel)


def generate_keystream(params: LorenzParams, initial: LorenzState,
                       config: KeystreamConfig) -> Keystream:
    """Integrate, difference, and extract a rows*cols byte keystream.

    Integrates config.n_samples samples in the key kernel, which stores no
    orbit pair: the bytes are extract_bytes(lower_bound_error(integrate_pair(
    ...)), config), the reference. Bit-reproducible in all arguments.
    Warns (never raises) when the zero-byte fraction exceeds ZERO_FRACTION_WARN.
    """
    _require_type(params, LorenzParams, "params must be a LorenzParams")
    _require_type(initial, LorenzState, "initial must be a LorenzState")
    _require_type(config, KeystreamConfig, _IS_CONFIG)
    import numpy as np
    data = np.frombuffer(_xor_keystream(params, initial, config), dtype=np.uint8)
    data.setflags(write=False)
    return Keystream(data=data, config=config)


def _xor_keystream(params: LorenzParams, initial: LorenzState,
                   config: KeystreamConfig, payload=None):
    """`payload` (rows*cols bytes, any bytes-like object) XOR the keystream
    of `config`, or the keystream itself when payload is None, in a bytearray.

    The bytes, errors and warning are the reference pipeline's; nothing here
    imports numpy. A sample count whose orbit pair (16 bytes per step) would
    not fit in the address space is refused, as the reference refuses it, but
    below that either key kernel, which stores no pair, runs any transient in
    linear time.
    """
    if 16 * config.n_samples > sys.maxsize:  # also keeps the kernel's int64 counts exact
        raise _allocation_error("the orbit pair", config.n_samples, "16 bytes per step")
    minmax = config.strategy == "minmax-scale"
    try:
        out = bytearray(config.rows * config.cols if payload is None else payload)
        window = bytearray(8 * len(out)) if minmax else None
    except (MemoryError, OverflowError):  # OverflowError: a size past sys.maxsize
        raise _allocation_error("the key", config.n_samples, "9 bytes per key byte"
                                if minmax else "1 byte per key byte") from None
    zeros = lorenz._load_kernel()[0](
        out, window, config.transient, COMPONENTS.index(config.component),
        [initial.x, initial.y, initial.z] * 2, params.sigma, params.rho, params.beta, params.h)
    _warn_if_degenerate(zeros, len(out))
    return out
