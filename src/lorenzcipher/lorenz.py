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

The pure-Python `_deriv`/`_rk4` are the bit-level specification.
`_kernel.c` mirrors them operation for operation, with variants A and B
in the two lanes of one SIMD vector, each lane an independent orbit;
`integrate_pair` runs that compiled mirror when it is available and
passes a self-check against them, and the pure-Python loop otherwise.
Both kernels integrate all three components and store only the requested
one, into one pair buffer of shape (n_steps, 2), indexed
[sample, variant A=0 / B=1].
"""

from __future__ import annotations

import ctypes
import enum
import functools
import math
import numbers
import os
import platform
import sys
import threading
import zlib
from dataclasses import dataclass

import numpy as np

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


def _integrate_python(out, c, x, y, z, sigma, rho, beta, h):
    xa = xb = x
    ya = yb = y
    za = zb = z
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


def _integrate_compiled(kernel, out, c, x, y, z, sigma, rho, beta, h):
    # out comes from np.empty((n, 2)): C-contiguous float64.
    bad_step = ctypes.c_int64()
    status = kernel(x, y, z, sigma, rho, beta, h, out.shape[0], c,
                    out.ctypes.data, ctypes.byref(bad_step))
    if status:
        raise _blowup("ab"[status - 1], bad_step.value)


_HERE = os.path.dirname(os.path.abspath(__file__))
_KERNEL_SOURCE = os.path.join(_HERE, "_kernel.c")
_KERNEL_CACHE = os.path.join(_HERE, "__pycache__")
# -ffp-contract=off: GCC defaults to =fast in GNU C modes and fuses a*b + c
# into one FMA wherever the target has it (every aarch64 CPU), which rounds
# once instead of twice. -fno-fast-math keeps reassociation and
# flush-to-zero off. No -march=native, so the cached .so never depends on
# the CPU that built it.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")
# The paper key at h = 0.01 rather than its 1e-6: the variants first differ
# at sample 8 there, so a kernel that swapped or merged the dy forms fails.
_SELF_CHECK_KEY = (DEFAULT_INITIAL.x, DEFAULT_INITIAL.y, DEFAULT_INITIAL.z,
                   DEFAULT_PARAMS.sigma, DEFAULT_PARAMS.rho, DEFAULT_PARAMS.beta,
                   0.01)
_SELF_CHECK_STEPS = 64
_load_lock = threading.Lock()


class _KernelUnavailable(Exception):
    """The compiled kernel cannot be built or loaded; the message says why."""


def _build_kernel():
    import shutil
    cc = shutil.which("cc")
    if cc is None:
        raise _KernelUnavailable("cc not found")
    with open(_KERNEL_SOURCE, "rb") as fh:
        source = fh.read()
    tag = zlib.crc32(b"\0".join([source, " ".join(_CFLAGS).encode(),
                                 f"{sys.platform}-{platform.machine()}".encode(),
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
                raise _KernelUnavailable(
                    lines[0] if lines else f"cc exited with status {proc.returncode}")
            os.replace(tmp, library)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    kernel = ctypes.CDLL(library).lorenz_pair
    kernel.argtypes = [ctypes.c_double] * 7 + [
        ctypes.c_int64, ctypes.c_int, ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64)]
    kernel.restype = ctypes.c_int
    return kernel


def _self_check(kernel) -> bool:
    # One pair per component, so a wrong component select is caught too.
    want = np.empty((len(COMPONENTS), _SELF_CHECK_STEPS, 2))
    got = np.empty_like(want)
    for c in range(len(COMPONENTS)):
        _integrate_python(want[c], c, *_SELF_CHECK_KEY)
        _integrate_compiled(kernel, got[c], c, *_SELF_CHECK_KEY)
    return want.tobytes() == got.tobytes()


@functools.cache
def _load_kernel():
    """Return (compiled kernel, None), or (None, why it is unavailable).

    Compiles _kernel.c with `cc` on first use into __pycache__ next to
    this file, under a checksum of source, flags, platform and the path `cc`
    resolves to, and loads it with ctypes. No `cc`, a build or load failure,
    or any difference from the pure-Python kernel on a short self-check
    logs one WARNING naming the cause.
    """
    with _load_lock:
        try:
            kernel = _build_kernel()
        except (_KernelUnavailable, OSError, AttributeError) as e:
            cause = str(e)
        else:
            if _self_check(kernel):
                return kernel, None
            cause = "self-check mismatch"
    import logging
    logging.getLogger("lorenzcipher").warning(
        "compiled RK4 kernel unavailable (%s); using the pure-Python kernel", cause)
    return None, cause


def kernel_backend() -> str:
    """Which kernel integrate_pair runs: "c" or "pure-python"."""
    return "pure-python" if _load_kernel()[0] is None else "c"


def integrate_pair(initial: LorenzState, params: LorenzParams,
                   n_steps: int, component: str) -> np.ndarray:
    """Integrate both variants from `initial` in lockstep for n_steps steps.

    Returns a read-only, C-contiguous float64 array of shape (n_steps, 2):
    pair[n, v] is `component` ("x", "y" or "z") of variant v (0 = A, 1 = B)
    after n+1 steps; the shared initial state is not a sample. All three
    components are integrated and checked for blow-up either way.
    Bit-exact reproducible: identical arguments yield identical bit patterns,
    whichever kernel runs (see kernel_backend).
    """
    if component not in COMPONENTS:
        raise DomainError(f"unknown component {component!r}, expected one of {COMPONENTS}")
    _check_count("n_steps", n_steps, 1)
    key = (COMPONENTS.index(component), initial.x, initial.y, initial.z,
           params.sigma, params.rho, params.beta, params.h)
    try:
        pair = np.empty((n_steps, 2), dtype=np.float64)
    except (MemoryError, ValueError):  # ValueError: a size numpy cannot represent
        # A power of two, because str() refuses an int past 4300 digits.
        raise DomainError(
            f"cannot allocate the orbit pair for n_steps = 2**{math.log2(n_steps):.2f} "
            f"(16 bytes per step)") from None
    kernel = _load_kernel()[0]
    if kernel is None:
        _integrate_python(pair, *key)
    else:
        _integrate_compiled(kernel, pair, *key)
    pair.setflags(write=False)
    return pair
