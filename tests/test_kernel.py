"""Compiled RK4 pair kernel against the pure-Python oracle, and its fallback."""

import logging
import os
import shutil
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lorenzcipher import (DEFAULT_INITIAL, DEFAULT_PARAMS,
                          IntegrationBlowupError, KeystreamConfig,
                          LorenzParams, LorenzState, generate_keystream,
                          integrate_pair, kernel_backend, lorenz)
from lorenzcipher.keystream import COMPONENTS, STRATEGIES

WORKING = LorenzParams(16.0, 45.92, 4.0, 0.01)
BLOWUP_STEPS = (0.1, 0.2, 0.5, 1.0, 10.0)

_KERNEL, _CAUSE = lorenz._load_kernel()
needs_c = pytest.mark.skipif(
    _KERNEL is None, reason=f"compiled kernel unavailable: {_CAUSE}")
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="cc not found")


def pure_python():
    """Route integrate_pair to the pure-Python oracle while active."""
    return mock.patch.object(lorenz, "_load_kernel", lambda: (None, "oracle"))


def outcome(initial, params, n):
    """The orbit bytes, or the blow-up's message, variant and step index."""
    try:
        pair = integrate_pair(initial, params, n)
    except IntegrationBlowupError as e:
        return str(e), e.variant, e.step_index
    return pair.samples_a.tobytes(), pair.samples_b.tobytes()


def assert_matches_oracle(initial, params, n):
    got = outcome(initial, params, n)
    with pure_python():
        want = outcome(initial, params, n)
    assert got == want
    return got


def lorenz_warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "lorenzcipher" and r.levelno == logging.WARNING]


@needs_c
class TestDifferential:
    @given(st.floats(15.2, 16.8), st.floats(43.6, 48.2), st.floats(3.8, 4.2),
           st.floats(0.5, 1.5), st.floats(0.0, 1.0), st.floats(0.4, 1.4),
           st.floats(1e-6, 3e-2), st.integers(1, 3000))
    @example(16.0, 45.92, 4.0, 0.0, 0.0, 0.0, 0.01, 500)
    def test_jittered_keys(self, sigma, rho, beta, x0, y0, z0, h, n):
        assert_matches_oracle(LorenzState(x0, y0, z0),
                              LorenzParams(sigma, rho, beta, h), n)

    @pytest.mark.parametrize("h", [DEFAULT_PARAMS.h, WORKING.h])
    def test_default_key_256x256_window(self, h):
        params = LorenzParams(16.0, 45.92, 4.0, h)
        a, b = assert_matches_oracle(DEFAULT_INITIAL, params, 67536)
        assert len(a) == len(b) == 67536 * 3 * 8

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("component", COMPONENTS)
    def test_keystream_bytes(self, strategy, component):
        config = KeystreamConfig(64, 64, strategy=strategy, component=component)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = generate_keystream(WORKING, DEFAULT_INITIAL, config)
            with pure_python():
                want = generate_keystream(WORKING, DEFAULT_INITIAL, config)
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("h", BLOWUP_STEPS)
    def test_blowup_at_paper_key(self, h):
        message, variant, step = assert_matches_oracle(
            DEFAULT_INITIAL, LorenzParams(16.0, 45.92, 4.0, h), 200)
        assert message == f"variant A produced a non-finite state at step {step}"
        assert variant == "a"

    def test_variant_b_blowup(self):
        # A rare key whose variant B overflows while A stays finite; every
        # paper-key case above stops at variant A.
        initial = LorenzState(-0.5413349849971425, -9.481188946409766, 42.94378725037812)
        params = LorenzParams(15.467243504088904, 46.677155448041326,
                              4.1493423342906475, 0.1)
        assert assert_matches_oracle(initial, params, 200) == (
            "variant B produced a non-finite state at step 99", "b", 99)

    @given(st.floats(15.2, 16.8), st.floats(43.6, 48.2), st.floats(3.8, 4.2),
           st.floats(-25, 25), st.floats(-25, 25), st.floats(0, 50),
           st.sampled_from(BLOWUP_STEPS))
    def test_blowup_over_jittered_keys(self, sigma, rho, beta, x0, y0, z0, h):
        assert_matches_oracle(LorenzState(x0, y0, z0),
                              LorenzParams(sigma, rho, beta, h), 200)


def _refuse(*args):
    raise AssertionError("this path must not run")


@needs_c
def test_numpy_float64_keys_take_compiled_path(monkeypatch):
    want = outcome(DEFAULT_INITIAL, WORKING, 6096)
    monkeypatch.setattr(lorenz, "_integrate_python", _refuse)
    params = LorenzParams(*map(np.float64, (16.0, 45.92, 4.0, 0.01)))
    initial = LorenzState(*map(np.float64, (1.0, 0.5, 0.9)))
    assert outcome(initial, params, 6096) == want


def test_int_keys_take_pure_python_path(monkeypatch):
    monkeypatch.setattr(lorenz, "_integrate_compiled", _refuse)
    pair = integrate_pair(LorenzState(1, 0, 1), LorenzParams(16, 46, 4, 0.01), 100)
    assert len(pair) == 100


@needs_c
def test_cached_load_imports_neither_hashlib_nor_subprocess():
    src = os.path.dirname(os.path.dirname(lorenz.__file__))
    code = ("import sys, lorenzcipher; print(lorenzcipher.kernel_backend(), "
            "'hashlib' in sys.modules, 'subprocess' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["c", "False", "False"]


class TestFallback:
    @pytest.fixture(scope="class")
    def reference(self):
        return outcome(DEFAULT_INITIAL, WORKING, 3000)

    @pytest.fixture
    def cache(self, monkeypatch, tmp_path):
        """An empty kernel cache and a loader that has not run yet."""
        monkeypatch.setattr(lorenz, "_KERNEL_CACHE", str(tmp_path / "cache"))
        lorenz._load_kernel.cache_clear()
        yield tmp_path / "cache"
        lorenz._load_kernel.cache_clear()

    def check_fallback(self, caplog, reference, cause):
        with caplog.at_level(logging.WARNING, logger="lorenzcipher"):
            assert outcome(DEFAULT_INITIAL, WORKING, 3000) == reference
            assert outcome(DEFAULT_INITIAL, WORKING, 3000) == reference
            assert kernel_backend() == "pure-python"
        [message] = lorenz_warnings(caplog)
        assert cause in message

    def test_no_compiler(self, cache, monkeypatch, caplog, reference):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        self.check_fallback(caplog, reference, "cc not found")

    @needs_cc
    def test_compile_error(self, cache, monkeypatch, caplog, reference, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text('#error "broken kernel"\n')
        monkeypatch.setattr(lorenz, "_KERNEL_SOURCE", str(broken))
        self.check_fallback(caplog, reference, "broken kernel")
        assert not any(cache.iterdir())

    @needs_cc
    def test_self_check_mismatch(self, cache, monkeypatch, caplog, reference, tmp_path):
        with open(lorenz._KERNEL_SOURCE) as fh:
            source = fh.read()
        expanded = "*dy = x * rho - x * z - y;"
        assert source.count(expanded) == 1
        merged = tmp_path / "merged.c"
        merged.write_text(source.replace(expanded, "*dy = x * (rho - z) - y;"))
        monkeypatch.setattr(lorenz, "_KERNEL_SOURCE", str(merged))
        self.check_fallback(caplog, reference, "self-check mismatch")

    @needs_c
    def test_builds_into_empty_cache(self, cache, caplog):
        with caplog.at_level(logging.WARNING, logger="lorenzcipher"):
            assert kernel_backend() == "c"
        assert not lorenz_warnings(caplog)
        [library] = cache.iterdir()
        assert library.name.startswith("_kernel-") and library.suffix == ".so"
