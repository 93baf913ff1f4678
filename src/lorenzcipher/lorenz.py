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
`_orbit` runs them for both variants in lockstep, yielding the state of
both after each step. `integrate_pair`, the only function here that imports
numpy, stores one component of it in a pair of shape (n_steps, 2),
[sample, variant A=0 / B=1]. No keystream runs through it, so it is not
exported: it is the oracle the tests hold every keystream to, kept here
by name because perfbench's tracer wraps it in this module.

Every keystream, in the library and the CLI, comes from one key kernel,
chosen once per process: `_kernel.c`'s `lorenz_key`, which mirrors `_rk4`
operation for operation with variants A and B in the two lanes of one SIMD
vector, if it passes a self-check against `_key_python`; else
`_key_python` itself, which mirrors `lorenz_key` statement for statement
over `_orbit`'s states. Neither stores the orbit: each turns every sample
into a key byte as it goes. Both take the six-double state of A then B and,
on success, leave the final state in it.
"""

from __future__ import annotations

import array
import ctypes
import enum
import functools
import itertools
import math
import os
import struct
import sys
import threading
import zlib
from dataclasses import dataclass

from .errors import (_NON_FINITE_PAIR, DomainError, IntegrationBlowupError, _allocation_error,
                     _check_count, _require_choice, _require_type, _store_floats)

__all__ = [
    "COMPONENTS",
    "ExtensionVariant",
    "LorenzParams",
    "LorenzState",
    "DEFAULT_PARAMS",
    "DEFAULT_INITIAL",
    "rk4_step",
    "kernel_backend",
]


COMPONENTS = ("x", "y", "z")


class ExtensionVariant(enum.Enum):
    """The two evaluation orders for dy/dt."""

    A = "a"
    B = "b"


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
    _require_type(state, LorenzState, "state must be a LorenzState")
    _require_type(params, LorenzParams, "params must be a LorenzParams")
    _require_type(variant, ExtensionVariant, "variant must be an ExtensionVariant")
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


def _orbit(state, sigma, rho, beta, h):
    """Yield the state of variants A and B (A's x, y, z, then B's) after each
    RK4 step from `state`, without end; raise at the first non-finite one."""
    xa, ya, za, xb, yb, zb = state
    isfinite = math.isfinite
    for n in itertools.count():
        xa, ya, za = _rk4(xa, ya, za, sigma, rho, beta, h, False)
        if not (isfinite(xa) and isfinite(ya) and isfinite(za)):
            raise _blowup("a", n)
        xb, yb, zb = _rk4(xb, yb, zb, sigma, rho, beta, h, True)
        if not (isfinite(xb) and isfinite(yb) and isfinite(zb)):
            raise _blowup("b", n)
        yield xa, ya, za, xb, yb, zb


_HERE = os.path.dirname(os.path.abspath(__file__))
_KERNEL_SOURCE = os.path.join(_HERE, "_kernel.c")
_KERNEL_CACHE = os.path.join(_HERE, "__pycache__")
# -ffp-contract=off: GCC defaults to =fast in GNU C modes and fuses a*b + c
# into one FMA wherever the target has it (every aarch64 CPU), which rounds
# once instead of twice. -fno-fast-math keeps reassociation and
# flush-to-zero off. No -march=native, so the cached .so never depends on
# the CPU that built it.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")
# Not the paper key: its sigma and beta are powers of two, so no regrouping
# of a product with them changes a result, and neither does h * (1 / 6) for
# h / 6 at h = 0.05. These are not, and at h = 0.03 the two differ. From the
# one start the variants differ from step 0, so swapped or merged dy forms
# change the final state; from a second start for B, delta is far from zero
# at once, so its low mantissa bytes vary.
_CHECK_PARAMS = (15.3, 44.1, 3.7, 0.03)
_CHECK_START = (DEFAULT_INITIAL.x, DEFAULT_INITIAL.y, DEFAULT_INITIAL.z)
_CHECK_APART = _CHECK_START + (0.9, 0.5, 1.0)
_CHECK_TRANSIENT, _CHECK_WINDOW = 8, 8
_load_lock = threading.Lock()


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


def _key_python(out, window, transient, c, state, *params):
    """key_compiled without a compiler: lorenz_key, statement for statement,
    over _orbit's states."""
    low_byte = struct.Struct("<d").pack  # byte 0 of the little-endian bits
    deltas = None if window is None else memoryview(window).cast("d")
    finite, zeros, point = True, 0, state
    for i, point in zip(range(-transient, len(out)), _orbit(state, *params)):
        delta = abs(point[c] - point[c + 3]) * 0.5
        if not math.isfinite(delta):
            finite = False
        if i < 0:
            continue
        if deltas is not None:
            deltas[i] = delta
        else:
            key = low_byte(delta)[0]
            out[i] ^= key
            zeros += key == 0
    if not finite:
        raise DomainError(_NON_FINITE_PAIR)
    if deltas is not None:
        lo, hi = min(deltas), max(deltas)
        for i, delta in enumerate(deltas):
            key = 0 if hi == lo else math.floor((delta - lo) / (hi - lo) * 255.0)
            out[i] ^= key
            zeros += key == 0
    state[:] = point
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
    _require_choice(component, COMPONENTS, "component")
    _check_count("n_steps", n_steps, 1)
    import numpy as np
    try:
        pair = np.empty((n_steps, 2), dtype=np.float64)
    except (MemoryError, ValueError):  # ValueError: a size numpy cannot represent
        raise _allocation_error("the orbit pair", n_steps, "16 bytes per step") from None
    c = COMPONENTS.index(component)
    for n, state in zip(range(n_steps), _orbit((initial.x, initial.y, initial.z) * 2,
                                               params.sigma, params.rho, params.beta, params.h)):
        pair[n, 0], pair[n, 1] = state[c], state[c + 3]
    pair.setflags(write=False)
    return pair
