"""Lorenz pseudo-orbit pairs under two interval extensions of the y-derivative.

The whole scheme rests on evaluating the y-derivative in two algebraically
equivalent but floating-point-distinct forms:

    variant A:  x*(rho - z) - y
    variant B:  x*rho - x*z - y     (left to right: (x*rho) - (x*z), then - y)

CPython executes each binary float operation as one IEEE-754 binary64
round-to-nearest-even operation, strictly left to right, with no fused
multiply-add and no reassociation, so writing the two expressions as plain
Python is itself the evaluation-order guarantee. Do not reorder, fuse or
reassociate the kernels below: an optimizer that collapses the two forms
into one destroys the keystream.

The pure-Python `_deriv`/`_rk4` are the bit-level specification, and
`_integrate_python` runs them for both variants in lockstep, storing one
component into a pair buffer of shape (n_steps, 2), [sample, variant A=0 /
B=1]. `integrate_pair`, the only function here that imports numpy, always
runs it: it is the oracle the tests hold every keystream to.

Every keystream, in the library and the CLI, comes from one key kernel,
chosen once per process: `_kernel.c`'s `lorenz_key`, which mirrors `_rk4`
operation for operation with variants A and B in the two lanes of one SIMD
vector, if it passes a self-check against `_key_python`; else
`_key_python` itself, whose oracle pair goes to `_xor_key`, the one Python
extraction. Both take the six-double state of A then B and, on success,
leave the final state in it.
"""

from __future__ import annotations

import array
import ctypes
import enum
import functools
import itertools
import math
import operator
import os
import sys
import threading
import zlib
from dataclasses import dataclass

from .errors import DomainError, IntegrationBlowupError

__all__ = [
    "COMPONENTS",
    "ExtensionVariant",
    "LorenzParams",
    "LorenzState",
    "DEFAULT_PARAMS",
    "DEFAULT_INITIAL",
    "rk4_step",
    "integrate_pair",
    "kernel_backend",
]


COMPONENTS = ("x", "y", "z")


class ExtensionVariant(enum.Enum):
    """The two evaluation orders for dy/dt."""

    A = "a"
    B = "b"


def _store_floats(key, what: str, names: tuple[str, ...]) -> None:
    """Store each named field of `key` as a finite binary64 float, the one
    arithmetic the cipher is defined in; refuse anything not a real number."""
    for name in names:
        value = getattr(key, name)
        if type(value) is not float:
            import numbers
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"{what} {name} is a {type(value).__name__}, not a real number")
            try:
                value = float(value)
            except OverflowError:  # not echoed: an int over 4300 digits cannot be printed
                raise DomainError(f"{what} {name} is too large for a binary64 float") from None
            object.__setattr__(key, name, value)
        if not math.isfinite(value):
            raise DomainError(f"{what} {name} must be finite, got {value!r}")


def _check_count(name: str, value, least: int) -> None:
    """Refuse anything but a plain int >= least (a bool is not a count). The
    message never echoes an int that str() could refuse (over 4300 digits)."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an int, got {type(value).__name__}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got "
                          f"{value if value > -2**63 else 'a huge negative int'}")


@dataclass(frozen=True)
class LorenzParams:
    """System parameters and integration step, all dimensionless."""

    sigma: float
    rho: float
    beta: float
    h: float

    def __post_init__(self):
        _store_floats(self, "parameter", ("sigma", "rho", "beta", "h"))
        if self.h <= 0:
            raise DomainError(f"integration step h must be positive, got {self.h!r}")


@dataclass(frozen=True)
class LorenzState:
    """A point (x, y, z) of the system."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _store_floats(self, "state component", ("x", "y", "z"))


DEFAULT_PARAMS = LorenzParams(sigma=16.0, rho=45.92, beta=4.0, h=1e-6)
DEFAULT_INITIAL = LorenzState(x=1.0, y=0.5, z=0.9)

def _deriv(x, y, z, sigma, rho, beta, expanded):
    # The two dy lines are the entire difference between the variants; dx and
    # dz share one fixed evaluation order.
    dx = sigma * (y - x)
    if expanded:
        dy = x * rho - x * z - y
    else:
        dy = x * (rho - z) - y
    dz = x * y - beta * z
    return dx, dy, dz


def _rk4(x, y, z, sigma, rho, beta, h, expanded):
    h2 = h * 0.5
    k1x, k1y, k1z = _deriv(x, y, z, sigma, rho, beta, expanded)
    k2x, k2y, k2z = _deriv(x + h2 * k1x, y + h2 * k1y, z + h2 * k1z,
                           sigma, rho, beta, expanded)
    k3x, k3y, k3z = _deriv(x + h2 * k2x, y + h2 * k2y, z + h2 * k2z,
                           sigma, rho, beta, expanded)
    k4x, k4y, k4z = _deriv(x + h * k3x, y + h * k3y, z + h * k3z,
                           sigma, rho, beta, expanded)
    h6 = h / 6.0
    return (x + h6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            y + h6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
            z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z))


def rk4_step(state: LorenzState, params: LorenzParams,
             variant: ExtensionVariant) -> LorenzState:
    """Advance `state` by one classical RK4 step of size params.h.

    Stage combination is k1 + 2*k2 + 2*k3 + k4, left to right, then
    scaled by h/6.
    """
    if not isinstance(variant, ExtensionVariant):
        raise DomainError(f"variant must be an ExtensionVariant, got {type(variant).__name__}")
    nx, ny, nz = _rk4(state.x, state.y, state.z,
                      params.sigma, params.rho, params.beta, params.h,
                      variant is ExtensionVariant.B)
    if not (math.isfinite(nx) and math.isfinite(ny) and math.isfinite(nz)):
        raise IntegrationBlowupError(
            f"RK4 step produced a non-finite state from {state}",
            variant=variant.value)
    return LorenzState(nx, ny, nz)


def _blowup(variant: str, n: int) -> IntegrationBlowupError:
    return IntegrationBlowupError(
        f"variant {variant.upper()} produced a non-finite state at step {n}",
        variant=variant, step_index=n)


# lower_bound_error's refusal; the compiled key kernel gives the same one.
_NON_FINITE_PAIR = "pair contains non-finite samples"


def _allocation_error(what: str, n_steps: int, per_step: str) -> DomainError:
    # A power of two, because str() refuses an int past 4300 digits.
    return DomainError(f"cannot allocate {what} for n_steps = "
                       f"2**{math.log2(n_steps):.2f} ({per_step})")


def _integrate_python(out, c, state, sigma, rho, beta, h):
    """Fill `out`, an (n, 2) float64 buffer, with component c of variants A
    and B from `state` (A's x, y, z, then B's) and return their final state."""
    xa, ya, za, xb, yb, zb = state
    isfinite = math.isfinite
    for n in range(out.shape[0]):
        xa, ya, za = _rk4(xa, ya, za, sigma, rho, beta, h, False)
        if not (isfinite(xa) and isfinite(ya) and isfinite(za)):
            raise _blowup("a", n)
        xb, yb, zb = _rk4(xb, yb, zb, sigma, rho, beta, h, True)
        if not (isfinite(xb) and isfinite(yb) and isfinite(zb)):
            raise _blowup("b", n)
        out[n, 0] = (xa, ya, za)[c]
        out[n, 1] = (xb, yb, zb)[c]
    return xa, ya, za, xb, yb, zb


_HERE = os.path.dirname(os.path.abspath(__file__))
_KERNEL_SOURCE = os.path.join(_HERE, "_kernel.c")
_KERNEL_CACHE = os.path.join(_HERE, "__pycache__")
# -ffp-contract=off: GCC defaults to =fast in GNU C modes and fuses a*b + c
# into one FMA wherever the target has it (every aarch64 CPU), which rounds
# once instead of twice. -fno-fast-math keeps reassociation and
# flush-to-zero off. No -march=native, so the cached .so never depends on
# the CPU that built it.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")
# The paper key at h = 0.05, not 1e-6. From its one start the variants
# first differ at steps 4-7, inside the check's 16, so swapped or merged dy
# forms change the final state; from a second start for B, delta is far from
# zero at once, so its low mantissa bytes vary.
_CHECK_PARAMS = (DEFAULT_PARAMS.sigma, DEFAULT_PARAMS.rho, DEFAULT_PARAMS.beta, 0.05)
_CHECK_START = (DEFAULT_INITIAL.x, DEFAULT_INITIAL.y, DEFAULT_INITIAL.z)
_CHECK_APART = _CHECK_START + (0.9, 0.5, 1.0)
_CHECK_TRANSIENT, _CHECK_WINDOW = 8, 8
_CHUNK = 4096  # samples per step of _xor_key's loops
_load_lock = threading.Lock()


def _pair_buffer(n: int) -> memoryview:
    """A zeroed, writable (n, 2) float64 buffer, made without numpy."""
    return memoryview(bytearray(16 * n)).cast("d", (n, 2))


def _address(buffer):
    """A pointer argument to a writable, C-contiguous buffer, kept alive for the call."""
    return ctypes.byref(ctypes.c_char.from_buffer(buffer))


def _build_kernel():
    """_kernel.c's key kernel, called like _key_python; OSError says why not."""
    import shutil
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("cc not found")
    with open(_KERNEL_SOURCE, "rb") as fh:
        source = fh.read()
    tag = zlib.crc32(b"\0".join([source, " ".join(_CFLAGS).encode(),
                                 f"{sys.platform}-{os.uname().machine}".encode(),
                                 os.path.realpath(cc).encode()]))
    library = os.path.join(_KERNEL_CACHE, f"_kernel-{tag:08x}.so")
    if not os.path.exists(library):
        import subprocess
        os.makedirs(_KERNEL_CACHE, exist_ok=True)
        # Build under a private name and rename into place, so a concurrent
        # process never loads a half-written library.
        tmp = f"{library}.{os.getpid()}.tmp"
        try:
            proc = subprocess.run([cc, *_CFLAGS, "-o", tmp, _KERNEL_SOURCE],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                lines = proc.stderr.strip().splitlines()
                raise OSError(lines[0] if lines else f"cc exited with status {proc.returncode}")
            os.replace(tmp, library)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    key = ctypes.CDLL(library).lorenz_key
    key.argtypes = [ctypes.POINTER(ctypes.c_double)] + [ctypes.c_double] * 4 + [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.POINTER(ctypes.c_int64)]
    key.restype = ctypes.c_int

    def key_compiled(out, window, transient, c, state, sigma, rho, beta, h):
        """XOR len(out) key bytes into the bytearray `out` and return how many
        are zero. `window` is None for mantissa-lsb, else 8 bytes per key byte;
        `state`, a list of six floats, ends as the final state."""
        count, orbit = ctypes.c_int64(), (ctypes.c_double * 6)(*state)
        status = key(orbit, sigma, rho, beta, h, transient, len(out), c, _address(out),
                     None if window is None else _address(window), ctypes.byref(count))
        if status == 3:
            raise DomainError(_NON_FINITE_PAIR)
        if status:
            raise _blowup("ab"[status - 1], count.value)
        state[:] = orbit
        return count.value
    return key_compiled


def _xor_key(out: bytearray, pair, window) -> int:
    """lorenz_key's extraction: XOR into `out` the key bytes of the last
    len(out) samples of `pair` and return how many are zero. `window` is, as
    for lorenz_key, None under mantissa-lsb, else 8 bytes per key byte under
    minmax-scale. Every delta = |a - b| * 0.5 must be finite. A key byte is
    delta's low byte, or under minmax floor((delta - lo) / (hi - lo) * 255.0)
    over the window (0 if hi == lo). The window's deltas go to `window`, or to
    a buffer of that size; the rest it stores is a few chunks of _CHUNK."""
    flat = pair.cast("B").cast("d")
    start = len(flat) - 2 * len(out)
    # a - b is finite exactly where |a - b| * 0.5 is.
    if not all(map(math.isfinite, map(operator.sub, flat[:start:2], flat[1:start:2]))):
        raise DomainError(_NON_FINITE_PAIR)
    deltas = memoryview(bytearray(8 * len(out)) if window is None else window).cast("d")
    values = map(operator.mul, map(abs, map(operator.sub, flat[start::2], flat[start + 1::2])),
                 itertools.repeat(0.5))
    for i in range(0, len(out), _CHUNK):
        deltas[i:i + _CHUNK] = array.array("d", itertools.islice(values, _CHUNK))
    if not all(map(math.isfinite, deltas)):
        raise DomainError(_NON_FINITE_PAIR)
    if window is None:
        key = iter(deltas.cast("B")[0 if sys.byteorder == "little" else 7::8])
    else:
        lo, hi = min(deltas), max(deltas)
        key = (math.floor((d - lo) / (hi - lo) * 255.0) if hi > lo else 0 for d in deltas)
    zeros = 0
    for i in range(0, len(out), _CHUNK):
        part = bytes(itertools.islice(key, _CHUNK))
        j = i + len(part)
        # XORed as two integers, in one C loop per chunk.
        out[i:j] = (int.from_bytes(out[i:j], "little") ^
                    int.from_bytes(part, "little")).to_bytes(len(part), "little")
        zeros += part.count(0)
    return zeros


def _key_python(out, window, transient, c, state, *params):
    """key_compiled without a compiler: the oracle's stored pair through _xor_key."""
    n = transient + len(out)
    try:
        pair = _pair_buffer(n)
    except MemoryError:
        raise _allocation_error("the orbit pair", n, "16 bytes per step") from None
    final = _integrate_python(pair, c, state, *params)
    zeros = _xor_key(out, pair, window)
    state[:] = final
    return zeros


def _self_check(key) -> bool:
    """Compare `key` with _key_python on every component, under mantissa-lsb
    from two starts apart and minmax-scale from one shared start: the key
    bytes, XORed onto nonzero bytes, the zero count and the final state, bit
    for bit."""
    for c in range(len(COMPONENTS)):
        for start, window in ((_CHECK_APART, None),
                              (_CHECK_START * 2, bytearray(8 * _CHECK_WINDOW))):
            results = []
            for kernel in (key, _key_python):
                out, state = bytearray(range(1, _CHECK_WINDOW + 1)), list(start)
                zeros = kernel(out, window, _CHECK_TRANSIENT, c, state, *_CHECK_PARAMS)
                results.append((zeros, out, array.array("d", state).tobytes()))
            if results[0] != results[1]:
                return False
    return True


def _load_kernel():
    """Return (compiled key kernel, None), or (_key_python, cause).

    Compiles _kernel.c with `cc` on first use into __pycache__ next to
    this file, under a checksum of source, flags, sys.platform,
    os.uname().machine and the path `cc` resolves to, and loads it with
    ctypes. No `cc` or os.uname, a build or load failure, or any difference
    from the pure-Python kernel on a short self-check, an exception inside
    it included, logs one WARNING naming the cause, however many threads
    call this first at once.
    """
    with _load_lock:
        return _choose_kernel()


@functools.cache
def _choose_kernel():
    try:
        key = _build_kernel()
    except (OSError, AttributeError) as e:
        cause = str(e)
    else:
        try:
            if _self_check(key):
                return key, None
            cause = "self-check mismatch"
        except Exception as e:  # whatever the candidate raises, it fails the check
            cause = f"self-check raised {type(e).__name__}: {e}"
    import logging
    logging.getLogger("lorenzcipher").warning(
        "compiled RK4 kernel unavailable (%s); using the pure-Python kernel", cause)
    return _key_python, cause


def kernel_backend() -> str:
    """Which key kernel every keystream runs: "c" or "pure-python"."""
    return "c" if _load_kernel()[1] is None else "pure-python"


def integrate_pair(initial: LorenzState, params: LorenzParams,
                   n_steps: int, component: str) -> np.ndarray:
    """Integrate both variants from `initial` in lockstep for n_steps steps.

    Returns a read-only, C-contiguous float64 array of shape (n_steps, 2):
    pair[n, v] is `component` ("x", "y" or "z") of variant v (0 = A, 1 = B)
    after n+1 steps; the shared initial state is not a sample. All three
    components are integrated and checked for blow-up either way.
    Bit-exact reproducible: identical arguments yield identical bit patterns.
    Always the pure-Python oracle, at a few microseconds per step.
    """
    if component not in COMPONENTS:
        raise DomainError(f"unknown component {component!r}, expected one of {COMPONENTS}")
    _check_count("n_steps", n_steps, 1)
    import numpy as np
    try:
        pair = np.empty((n_steps, 2), dtype=np.float64)
    except (MemoryError, ValueError):  # ValueError: a size numpy cannot represent
        raise _allocation_error("the orbit pair", n_steps, "16 bytes per step") from None
    _integrate_python(pair, COMPONENTS.index(component), (initial.x, initial.y, initial.z) * 2,
                      params.sigma, params.rho, params.beta, params.h)
    pair.setflags(write=False)
    return pair
