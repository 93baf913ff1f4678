"""The compiled key kernel against the pure-Python one, and the fallback of
the compiled library."""

import array
import itertools
import logging
import os
import platform
import shutil
import sys
import threading
import warnings
import zlib
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (BLOWUP_STEPS, RK4_Y, WORKING_PARAMS, make_image, needs_c, needs_cc,
                      observe, quiet_keystream, reference_keystream, run_python, write_mutant)
from lorenzcipher import (DEFAULT_INITIAL, DEFAULT_PARAMS, DIRECTIONS, KeystreamConfig,
                          KeystreamQualityWarning, LorenzParams, LorenzState,
                          adjacent_correlation, histogram, kernel_backend, lorenz)
from lorenzcipher.keystream import STRATEGIES
from lorenzcipher.lorenz import COMPONENTS
from test_metrics import reference_correlation
import test_key_route

# Each link of a chain starts from the state the one before it ended in.
CHAIN = (1, 2, 8, 64, 3000)


def x86_fma():
    """Whether this is an x86-64 CPU with FMA, so an -mfma build runs here."""
    if platform.machine() != "x86_64":
        return False
    try:
        with open("/proc/cpuinfo") as fh:
            return "fma" in fh.read().split()
    except OSError:
        return False


def run_key(kernel, state, params, n, component, strategy, transient=0):
    """`kernel`'s n key bytes XORed onto nonzero bytes, its zero count and
    the bits of the final state, left in the list `state`; or, as observe
    gives it, the error's type, message, variant and step index."""
    out = bytearray(i % 255 + 1 for i in range(n))
    window = bytearray(8 * n) if strategy == "minmax-scale" else None
    zeros = []

    def key():
        zeros.append(kernel(out, window, transient, COMPONENTS.index(component), state,
                            params.sigma, params.rho, params.beta, params.h))
        return out
    got, _ = observe(key)
    # The state is left defined only on success.
    return (got, *zeros, array.array("d", state).tobytes()) if zeros else got


def assert_matches_oracle(initial, params, steps, component, strategy="mantissa-lsb",
                          transient=0):
    """Run the loaded key kernel and _key_python along the chain `steps`
    from `initial` in both lanes and return what the last link gave, which
    must be the same for both at every link."""
    got, want = [[initial.x, initial.y, initial.z] * 2 for _ in range(2)]
    for n in steps:
        outcome = run_key(lorenz._load_kernel()[0], got, params, n, component, strategy,
                          transient)
        assert outcome == run_key(lorenz._key_python, want, params, n, component, strategy,
                                  transient)
    return outcome


def lorenz_warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "lorenzcipher" and r.levelno == logging.WARNING]


@needs_c
class TestDifferential:
    # What only the bare kernels show: the final state, chaining and the
    # 256x256 window. Keystreams and blow-ups are TestKeyBytes' and the
    # known-answer vectors'.
    @given(st.floats(15.2, 16.8), st.floats(43.6, 48.2), st.floats(3.8, 4.2),
           st.floats(0.5, 1.5), st.floats(0.0, 1.0), st.floats(0.4, 1.4),
           st.floats(1e-6, 3e-2), st.integers(1, 3000), st.sampled_from(COMPONENTS),
           st.sampled_from(STRATEGIES))
    @example(16.0, 45.92, 4.0, 0.0, 0.0, 0.0, 0.01, 500, "x", "mantissa-lsb")
    @example(16.0, 45.92, 4.0, 1.0, 0.5, 0.9, 0.01, 500, "z", "minmax-scale")
    def test_jittered_keys(self, sigma, rho, beta, x0, y0, z0, h, n, component, strategy):
        assert_matches_oracle(LorenzState(x0, y0, z0), LorenzParams(sigma, rho, beta, h),
                              [n], component, strategy)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("component", COMPONENTS)
    def test_chained_step_counts(self, component, strategy):
        # A fault that moves both orbits alike leaves delta, and so the key
        # bytes, unchanged for a while; the final state shows it at once.
        chained = assert_matches_oracle(DEFAULT_INITIAL, WORKING_PARAMS, CHAIN,
                                        component, strategy)
        # A chain ends where one call of its total length does.
        whole = [DEFAULT_INITIAL.x, DEFAULT_INITIAL.y, DEFAULT_INITIAL.z] * 2
        run_key(lorenz._load_kernel()[0], whole, WORKING_PARAMS, sum(CHAIN), component, strategy)
        assert array.array("d", whole).tobytes() == chained[2]

    @pytest.mark.parametrize("h", [DEFAULT_PARAMS.h, WORKING_PARAMS.h])
    def test_default_key_256x256_window(self, h):
        params = LorenzParams(16.0, 45.92, 4.0, h)
        for component in COMPONENTS:
            key, _, _ = assert_matches_oracle(DEFAULT_INITIAL, params, [256 * 256], component,
                                              transient=2000)
            assert len(key) == 256 * 256


@needs_c
@pytest.mark.parametrize("key", [
    (16, 46, 4, 1, 0, 1, 0.01),
    (*map(np.int64, (16, 46, 4, 1, 0, 1)), 0.01),
    tuple(map(np.float64, (16.0, 45.92, 4.0, 1.0, 0.5, 0.9, 0.01))),
    tuple(map(np.float32, (16.0, 45.92, 4.0, 1.0, 0.5, 0.9, 0.01))),
    tuple(map(Fraction, ("16", "45.92", "4", "1", "1/2", "9/10", "1/100"))),
], ids=["int", "np.int64", "np.float64", "np.float32", "Fraction"])
def test_every_real_key_takes_compiled_path(monkeypatch, key):
    def keystream(sigma, rho, beta, x, y, z, h):
        return quiet_keystream(LorenzParams(sigma, rho, beta, h), LorenzState(x, y, z),
                               KeystreamConfig(16, 16)).data.tobytes()
    want = keystream(*map(float, key))
    compiled = lorenz._load_kernel()[0]
    assert compiled is not lorenz._key_python
    calls = []

    def spy(out, window, transient, c, state, *params):
        calls.append((*state, *params))
        return compiled(out, window, transient, c, state, *params)
    monkeypatch.setattr(lorenz, "_load_kernel", lambda: (spy, None, None, None))
    assert keystream(*key) == want
    [floats] = calls
    assert all(type(v) is float for v in floats)
    assert any(want)


@needs_c
def test_cached_load_imports_neither_hashlib_nor_subprocess():
    # Nor numpy: the self-check compares bytearrays, the final states'
    # array.array("d").tobytes() and array.array("q") counts. Nor platform:
    # the cache name reads the machine from os.uname().
    code = ("import sys, lorenzcipher; print(lorenzcipher.kernel_backend(), *(name in sys.modules "
            "for name in ('hashlib', 'subprocess', 'numpy', 'platform')))")
    assert run_python("-c", code)[:2] == (0, "c False False False False\n")


class TestFallback:
    CONFIG = KeystreamConfig(16, 16, 3000)

    @pytest.fixture(scope="class")
    def reference(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KeystreamQualityWarning)
            return reference_keystream(WORKING_PARAMS, DEFAULT_INITIAL, self.CONFIG).tobytes()

    @pytest.fixture
    def cache(self, monkeypatch, tmp_path):
        """An empty kernel cache and a loader that has not run yet."""
        monkeypatch.setattr(lorenz, "_KERNEL_CACHE", str(tmp_path / "cache"))
        lorenz._choose_kernel.cache_clear()
        yield tmp_path / "cache"
        lorenz._choose_kernel.cache_clear()

    def check_fallback(self, caplog, reference, cause):
        with caplog.at_level(logging.WARNING, logger="lorenzcipher"):
            for _ in range(2):
                got = quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL, self.CONFIG)
                assert got.data.tobytes() == reference
            assert kernel_backend() == "pure-python"
        [message] = lorenz_warnings(caplog)
        assert cause in message

    def test_no_compiler(self, cache, monkeypatch, caplog, reference):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        self.check_fallback(caplog, reference, "cc not found")

    @needs_c
    def test_no_compiler_with_a_cached_library(self, cache, monkeypatch, caplog, reference):
        assert kernel_backend() == "c"
        lorenz._choose_kernel.cache_clear()
        monkeypatch.setattr(shutil, "which", lambda name: None)
        self.check_fallback(caplog, reference, "cc not found")

    @needs_c
    def test_cache_is_keyed_by_compiler(self, cache, monkeypatch, caplog, reference, tmp_path):
        # The real cc fills the cache, then cc names a compiler that fails:
        # the library the first one built must not be loaded for it.
        assert kernel_backend() == "c"
        lorenz._choose_kernel.cache_clear()
        shim = tmp_path / "bin" / "cc"
        shim.parent.mkdir()
        shim.write_text('#!/bin/sh\necho "shim compiler: broken" >&2\nexit 1\n')
        shim.chmod(0o755)
        monkeypatch.setenv("PATH", f"{shim.parent}{os.pathsep}{os.environ['PATH']}")
        self.check_fallback(caplog, reference, "shim compiler: broken")

    def test_failed_build_leaves_no_temporary_file(self, cache, monkeypatch, caplog,
                                                   reference, tmp_path):
        # A compiler that writes its -o file and then fails: the loader falls
        # back and removes the half-built library from the cache.
        shim = tmp_path / "bin" / "cc"
        shim.parent.mkdir()
        shim.write_text('#!/bin/sh\nwhile [ "$#" -gt 0 ]; do\n'
                        '  if [ "$1" = -o ]; then shift; echo partial > "$1"; fi; shift\n'
                        'done\necho "shim compiler: wrote and failed" >&2\nexit 1\n')
        shim.chmod(0o755)
        monkeypatch.setenv("PATH", f"{shim.parent}{os.pathsep}{os.environ['PATH']}")
        self.check_fallback(caplog, reference, "shim compiler: wrote and failed")
        assert list(cache.glob("*.tmp")) == [] and cache.is_dir()

    @needs_cc
    def test_compile_error(self, cache, monkeypatch, caplog, reference, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text('#error "broken kernel"\n')
        monkeypatch.setattr(lorenz, "_KERNEL_SOURCE", str(broken))
        self.check_fallback(caplog, reference, "broken kernel")
        assert not any(cache.iterdir())

    @needs_cc
    def test_self_check_mismatch(self, cache, monkeypatch, caplog, reference, tmp_path):
        # Lane B computes dy in variant A's form.
        write_mutant(monkeypatch, tmp_path, "v2d b = x * rho - x * z - y;",
                     "v2d b = x * (rho - z) - y;")
        self.check_fallback(caplog, reference, "self-check mismatch")

    @needs_cc
    def test_self_check_catches_a_swapped_lane_select(
            self, cache, monkeypatch, caplog, reference, tmp_path):
        # Lane A keeps variant B's dy and lane B keeps A's.
        write_mutant(monkeypatch, tmp_path, "(v2d){a[0], b[1]}", "(v2d){b[0], a[1]}")
        self.check_fallback(caplog, reference, "self-check mismatch")

    @needs_cc
    @pytest.mark.parametrize("right, wrong", [
        # The key kernel reads x where z is asked for.
        ("v2d v = c == 0 ? x : c == 1 ? y : z;", "v2d v = c == 0 ? x : c == 1 ? y : x;"),
        # It skips one step too few before the window.
        ("for (int64_t i = -transient; i < n; i++)", "for (int64_t i = 1 - transient; i < n; i++)"),
        # mantissa-lsb takes the second byte, or a key byte is stored, not XORed.
        ("xor_key(out + i, (unsigned char)bits)", "xor_key(out + i, (unsigned char)(bits >> 8))"),
        ("*p ^= k;", "*p = k;"),
        # minmax-scale scales onto 0..254, or zero bytes are miscounted.
        ("/ range * 255.0", "/ range * 254.0"),
        ("return k == 0;", "return k == 1;"),
        # RK4 sums y's stages in another order, which moves both lanes alike.
        (RK4_Y, RK4_Y.replace("two * k2y + two * k3y", "two * (k2y + k3y)")),
        # dx distributes sigma, or h / 6 becomes h times a reciprocal.
        ("*dx = sigma * (y - x);", "*dx = sigma * y - sigma * x;"),
        ("v2d h6 = h / six;", "v2d h6 = h * (1.0 / six);"),
    ], ids=["component", "transient", "mantissa-byte", "store", "scale", "zero-count", "rk4-y",
            "dx-distributed", "h6-reciprocal"])
    def test_self_check_catches_a_wrong_key_byte(
            self, cache, monkeypatch, caplog, reference, tmp_path, right, wrong):
        write_mutant(monkeypatch, tmp_path, right, wrong)
        self.check_fallback(caplog, reference, "self-check mismatch")

    @needs_cc
    @pytest.mark.parametrize("right, wrong", [
        # The byte counter leaves value 255 uncounted, or the last byte.
        ("for (int v = 0; v < 256; v++)", "for (int v = 0; v < 255; v++)"),
        ("for (; i < n; i++)", "for (; i < n - 1; i++)"),
        # It overwrites the caller's counts, or drops one of its four tables.
        ("counts[v] += ", "counts[v] = "),
        ("t[2][v] + t[3][v]", "t[2][v]"),
    ], ids=["value-255", "last-byte", "store", "table"])
    def test_self_check_catches_a_wrong_byte_count(
            self, cache, monkeypatch, caplog, reference, tmp_path, right, wrong):
        # The fallback takes the histogram too, and counts with np.bincount.
        write_mutant(monkeypatch, tmp_path, right, wrong)
        self.check_fallback(caplog, reference, "self-check mismatch")
        pixels = np.frombuffer(lorenz._CHECK_BYTES, np.uint8).reshape(1, -1)
        assert histogram(make_image(pixels)).tolist() == np.bincount(
            pixels.ravel(), minlength=256).tolist()

    @needs_cc
    @pytest.mark.parametrize("right, wrong", [
        # A leaf fuses each product into its accumulator.
        ("xy[j] = i ? xy[j] + a * b : a * b;",
         "xy[j] = i ? (v2d){__builtin_fma(a[0], b[0], xy[j][0]), "
         "__builtin_fma(a[1], b[1], xy[j][1])} : a * b;"),
        # A leaf adds two of its eight accumulators in the wrong pairs.
        ("(r[0][0] + r[0][1]) + (r[1][0] + r[1][1])",
         "(r[0][0] + r[1][0]) + (r[0][1] + r[1][1])"),
        # A mean multiplies by a reciprocal.
        ("return (double)sum / (double)(rows * cols);",
         "return (double)sum * (1.0 / (double)(rows * cols));"),
    ], ids=["fma", "combine", "mean-reciprocal"])
    def test_self_check_catches_wrong_moment_sums(
            self, cache, monkeypatch, caplog, reference, tmp_path, right, wrong):
        # The fallback takes the correlations too, and sums them with numpy.
        write_mutant(monkeypatch, tmp_path, right, wrong)
        self.check_fallback(caplog, reference, "self-check mismatch")
        image = make_image(np.frombuffer(lorenz._CHECK_BYTES, np.uint8)
                           .reshape(lorenz._CHECK_SHAPE))
        for direction in DIRECTIONS:
            assert adjacent_correlation(image, direction) == reference_correlation(
                image, direction)

    @needs_cc
    @pytest.mark.parametrize("flags", [
        ("-freciprocal-math",),
        pytest.param(("-mfma", "-ffp-contract=fast"), marks=pytest.mark.skipif(
            not x86_fma(), reason="needs an x86-64 CPU with FMA")),
    ], ids=["reciprocal-math", "fma"])
    def test_self_check_catches_a_wrong_build(self, cache, monkeypatch, caplog, reference, flags):
        # The right source built to divide by reciprocals, or to fuse a*b + c
        # into one rounding.
        monkeypatch.setattr(lorenz, "_CFLAGS", lorenz._CFLAGS + flags)
        self.check_fallback(caplog, reference, "self-check mismatch")

    def test_self_check_that_raises_falls_back(self, cache, monkeypatch, caplog, reference):
        # A candidate that reports a blow-up on the self-check key fails the
        # check like one that differs, and the fallback is cached.
        builds = []

        def build():
            builds.append(1)

            def key(*args):
                raise lorenz._blowup("a", 0)
            return key, None, None
        monkeypatch.setattr(lorenz, "_build_kernel", build)
        self.check_fallback(caplog, reference, "self-check raised IntegrationBlowupError: "
                                               "variant A produced a non-finite state at step 0")
        assert builds == [1]

    def test_concurrent_first_load_warns_once(self, cache, monkeypatch, caplog):
        # Threads that call the loader together choose one kernel between them.
        monkeypatch.setattr(shutil, "which", lambda name: None)
        barrier, results = threading.Barrier(4, timeout=30), []

        def load():
            barrier.wait()
            results.append(lorenz._load_kernel())
        threads = [threading.Thread(target=load) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with caplog.at_level(logging.WARNING, logger="lorenzcipher"):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(lorenz_warnings(caplog)) == 1
        assert len(results) == 4 and all(r is results[0] for r in results)
        assert results[0] == (lorenz._key_python, None, None, "cc not found")

    @needs_cc
    def test_blowup_tests_catch_lane_b_checked_first(self, cache, monkeypatch, tmp_path):
        # The self-check key never blows up, so this mutant loads. At the
        # paper key both lanes overflow in the same step, where the oracle
        # names variant A and the mutant names B.
        write_mutant(monkeypatch, tmp_path, "for (int v = 0; v < 2; v++)",
                     "for (int v = 1; v >= 0; v--)")
        assert kernel_backend() == "c"
        for case in itertools.product(test_key_route.BLOWUP_TRANSIENTS, BLOWUP_STEPS, STRATEGIES):
            with pytest.raises(AssertionError):
                test_key_route.TestKeyBytes().test_blowup_at_paper_key(*case)

    @needs_cc
    def test_no_uname(self, cache, monkeypatch, caplog, reference):
        # Without os.uname there is no machine to name the cache by.
        monkeypatch.delattr(os, "uname")
        self.check_fallback(caplog, reference, "'uname'")

    @needs_c
    def test_cache_name_is_tagged_with_the_machine(self, cache, monkeypatch):
        # The name platform.machine() gave the cache, so a library built
        # under it is still found; another machine string is another name.
        def name(machine):
            with open(lorenz._KERNEL_SOURCE, "rb") as fh:
                source = fh.read()
            tag = zlib.crc32(b"\0".join([source, " ".join(lorenz._CFLAGS).encode(),
                                         f"{sys.platform}-{machine}".encode(),
                                         os.path.realpath(shutil.which("cc")).encode()]))
            return f"_kernel-{tag:08x}.so"
        want = [name(platform.machine()), name("elsewhere")]
        assert kernel_backend() == "c"
        assert [p.name for p in cache.iterdir()] == want[:1]
        lorenz._choose_kernel.cache_clear()
        monkeypatch.setattr(os, "uname", lambda: SimpleNamespace(machine="elsewhere"))
        assert kernel_backend() == "c"
        assert sorted(p.name for p in cache.iterdir()) == sorted(want)

    @needs_c
    def test_builds_into_empty_cache(self, cache, caplog):
        with caplog.at_level(logging.WARNING, logger="lorenzcipher"):
            assert kernel_backend() == "c"
        assert not lorenz_warnings(caplog)
        [library] = cache.iterdir()
        assert library.name.startswith("_kernel-") and library.suffix == ".so"
