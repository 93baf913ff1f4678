"""The key route against the numpy reference pipeline, and what imports
numpy.

`keystream._xor_keystream`, which generate_keystream and the CLI both run,
calls the loaded key kernel: the compiled `lorenz_key` or, without a
compiler, `lorenz._key_python`, its statement-for-statement twin over the
oracle's streamed states. Either turns each sample into a key byte without
storing the orbit and XORs it in place, and its bytes, errors and warning
must be those of `reference_keystream`: the pure-Python oracle
integrate_pair, lower_bound_error and extract_bytes.
"""

import io
import itertools
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BLOWUP_STEPS, RK4_Y, VARIANT_B_KEY, VECTORS, WORKING_PARAMS, key_of,
                      needs_c, needs_cc, observe, pure_python, quiet_keystream,
                      reference_keystream, write_mutant)
from lorenzcipher import (COMPONENTS, DEFAULT_INITIAL, DEFAULT_PARAMS,
                          STRATEGIES, DomainError, KeystreamConfig,
                          LorenzParams, LorenzState, generate_keystream, lorenz,
                          lower_bound_error)
from lorenzcipher.cli import run_command
from lorenzcipher.keystream import _xor_keystream
from test_known_answers import answer, recorded

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLOWUP_TRANSIENTS = (0, 5, 2000)


def key_route(params, initial, config, payload=None):
    return observe(lambda: _xor_keystream(params, initial, config, payload))


def reference(params, initial, config):
    # lower_bound_error subtracts with numpy, which warns on overflow.
    with np.errstate(all="ignore"):
        return observe(lambda: reference_keystream(params, initial, config))


def assert_same(params, initial, config):
    """The key route's outcome, which must be the reference's and
    generate_keystream's."""
    got = key_route(params, initial, config)
    assert got == reference(params, initial, config)
    assert observe(lambda: generate_keystream(params, initial, config).data) == got
    return got


class TestKeyBytes:
    @settings(max_examples=200)
    @given(st.floats(15.2, 16.8), st.floats(43.6, 48.2), st.floats(3.8, 4.2),
           st.floats(0.5, 1.5), st.floats(0.0, 1.0), st.floats(0.4, 1.4),
           st.floats(0.005, 0.02), st.integers(1, 63), st.integers(1, 63),
           st.integers(0, 3000), st.sampled_from(STRATEGIES), st.sampled_from(COMPONENTS))
    def test_jittered_keys(self, sigma, rho, beta, x0, y0, z0, h, rows, cols,
                           transient, strategy, component):
        assert_same(LorenzParams(sigma, rho, beta, h), LorenzState(x0, y0, z0),
                    KeystreamConfig(rows, cols, transient, strategy, component))

    @pytest.mark.parametrize("transient", [0, 1, 2000])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("component", COMPONENTS)
    def test_against_the_pure_python_kernel(self, transient, strategy, component):
        config = KeystreamConfig(16, 16, transient, strategy, component)
        payload = bytes(range(256))
        got = [key_route(WORKING_PARAMS, DEFAULT_INITIAL, config, p) for p in (None, payload)]
        with pure_python():
            want = reference(WORKING_PARAMS, DEFAULT_INITIAL, config)
            assert [key_route(WORKING_PARAMS, DEFAULT_INITIAL, config, p)
                    for p in (None, payload)] == got
        assert got == [want, (bytes(k ^ p for k, p in zip(want[0], payload)), want[1])]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_default_step_is_all_zeros_with_the_same_warning(self, strategy):
        # At h = 1e-6 the orbits never diverge in the window, so the
        # minmax-scale window is flat too.
        key, warned = assert_same(DEFAULT_PARAMS, DEFAULT_INITIAL,
                                  KeystreamConfig(32, 32, strategy=strategy))
        assert key == bytes(32 * 32)
        [message] = warned
        assert message.startswith("keystream zero-byte fraction 100.00% exceeds 2%")

    @pytest.mark.parametrize("transient", BLOWUP_TRANSIENTS)
    @pytest.mark.parametrize("h", BLOWUP_STEPS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_blowup_at_paper_key(self, transient, h, strategy):
        for component in COMPONENTS:
            (kind, message, variant, step), warned = assert_same(
                replace(DEFAULT_PARAMS, h=h), DEFAULT_INITIAL,
                KeystreamConfig(16, 16, transient, strategy, component))
            assert kind.__name__ == "IntegrationBlowupError" and not warned
            assert (message, variant) == (
                f"variant A produced a non-finite state at step {step}", "a")

    @pytest.mark.parametrize("component", COMPONENTS)
    def test_variant_b_blowup(self, component):
        # Variant B overflows while A stays finite; every paper-key case
        # above stops at variant A.
        for strategy in STRATEGIES:
            (_, message, variant, step), _ = assert_same(
                *VARIANT_B_KEY, KeystreamConfig(10, 10, 50, strategy, component))
            assert (message, variant, step) == (
                "variant B produced a non-finite state at step 99", "b", 99)

    @given(st.floats(15.2, 16.8), st.floats(43.6, 48.2), st.floats(3.8, 4.2),
           st.floats(-25, 25), st.floats(-25, 25), st.floats(0, 50),
           st.sampled_from(BLOWUP_STEPS), st.integers(0, 300),
           st.sampled_from(STRATEGIES), st.sampled_from(COMPONENTS))
    def test_blowup_over_jittered_keys(self, sigma, rho, beta, x0, y0, z0, h,
                                       transient, strategy, component):
        assert_same(LorenzParams(sigma, rho, beta, h), LorenzState(x0, y0, z0),
                    KeystreamConfig(10, 10, transient, strategy, component))


def load_mutant(monkeypatch, tmp_path, right, wrong):
    """Build write_mutant's library and make its key kernel the loaded one."""
    write_mutant(monkeypatch, tmp_path, right, wrong)
    monkeypatch.setattr(lorenz, "_KERNEL_CACHE", str(tmp_path / "cache"))
    key = lorenz._build_kernel()
    monkeypatch.setattr(lorenz, "_load_kernel", lambda: (key, None))


@needs_c
@needs_cc
@pytest.mark.parametrize("h", [0.01, 0.1])
def test_non_finite_delta(monkeypatch, tmp_path, h):
    # No key is known whose finite orbits differ by more than the largest
    # double, so a library built with delta scaled by 1e308 stands in: its
    # deltas overflow once |a - b| > 1.8, which happens in the transient, at
    # sample 2289 for h = 0.01 and at sample 4 for h = 0.1. There a state goes
    # non-finite one step later, which still wins, as in the reference.
    right = "double delta = fabs(v[0] - v[1]) * 0.5;"
    load_mutant(monkeypatch, tmp_path, right, right.replace("0.5", "1e308"))
    with pytest.raises(DomainError) as refusal:
        lower_bound_error(np.array([[np.inf, 0.0]]))
    params = LorenzParams(16.0, 45.92, 4.0, h)
    for strategy in STRATEGIES:
        config = KeystreamConfig(16, 16, 2300, strategy)
        got, _ = key_route(params, DEFAULT_INITIAL, config)
        if h == 0.01:
            assert got == (DomainError, str(refusal.value), None, None)
        else:
            want, _ = reference(params, DEFAULT_INITIAL, config)
            assert got == want and want[0].__name__ == "IntegrationBlowupError"


@needs_c
@needs_cc
def test_reference_catches_a_wrong_compiled_integrator(monkeypatch, tmp_path):
    # The reference runs no compiled code, so a library whose RK4 sums y's
    # stages in another order, which moves both lanes alike, shows against
    # it, while the reference still gives every known answer. The paper
    # key's 8x8 keystream at h = 0.01 is all zero, where no fault can show,
    # so the key here is at h = 0.02.
    load_mutant(monkeypatch, tmp_path, RK4_Y,
                RK4_Y.replace("two * k2y + two * k3y", "two * (k2y + k3y)"))
    params = LorenzParams(16.0, 45.92, 4.0, 0.02)
    config = KeystreamConfig(16, 16)
    want = reference(params, DEFAULT_INITIAL, config)
    assert any(want[0]) and key_route(params, DEFAULT_INITIAL, config) != want
    wrong = [i for i, v in enumerate(VECTORS)
             if answer(reference_keystream, *key_of(v)) != recorded(v)]
    assert wrong == []


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_reference_catches_a_wrong_extraction(monkeypatch, strategy):
    # The reference shares no code with the key route but the oracle
    # integrator, so a fault in the extraction shows against it; a reference
    # that called the key route would agree with this mutant.
    right = lorenz._key_python

    def flip_first_bit(out, *args):
        zeros = right(out, *args)
        out[0] ^= 1
        return zeros
    monkeypatch.setattr(lorenz, "_key_python", flip_first_bit)
    config = KeystreamConfig(8, 8, strategy=strategy)
    with pure_python():
        got = key_route(WORKING_PARAMS, DEFAULT_INITIAL, config)
        want = reference(WORKING_PARAMS, DEFAULT_INITIAL, config)
    assert got != want and got[0] == bytes([want[0][0] ^ 1]) + want[0][1:]


def test_loader_without_cc_returns_the_python_key_kernel(monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    lorenz._choose_kernel.cache_clear()
    try:
        assert lorenz._load_kernel() == (lorenz._key_python, "cc not found")
    finally:
        lorenz._choose_kernel.cache_clear()


def test_python_extraction_refuses_a_non_finite_delta(monkeypatch):
    # No key is known whose finite orbits differ by more than the largest
    # double, so the orbit is written by hand: the transient's |a - b|
    # overflows, and the refusal still comes after the whole run.
    def orbit(state, *params):
        yield (1e308,) * 3 + (-1e308,) * 3
        yield from itertools.repeat(tuple(state))
    monkeypatch.setattr(lorenz, "_orbit", orbit)
    with pytest.raises(DomainError) as refusal, np.errstate(over="ignore"):
        lower_bound_error(np.array([[1e308, -1e308]]))
    for c in range(len(COMPONENTS)):
        for window in (None, bytearray(16)):
            with pytest.raises(DomainError) as got:
                lorenz._key_python(bytearray(2), window, 1, c, [0.0] * 6, 16.0, 45.92, 4.0, 0.01)
            assert str(got.value) == str(refusal.value)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_unallocatable_key_exits_3_at_once(strategy):
    # 2**80 key bytes cannot be indexed at all, so nothing is allocated.
    code, out, err = cli("keystream", "--rows", str(2**40), "--cols", str(2**40),
                         "--step", "0.01", "--strategy", strategy)
    assert (code, out) == (3, "")
    assert "domain error: cannot allocate" in err and "n_steps = 2**80.00 " in err


@pytest.mark.parametrize("transient", [2**64, 2**64 - 1])
def test_transient_past_the_address_space_is_refused(transient):
    # The orbit pair of 2**59 steps and more does not fit in a 64-bit address
    # space, so the reference refuses it at once; so does the key route,
    # where the kernel's int64 transient would wrap to 0 and -1.
    for strategy in STRATEGIES:
        config = KeystreamConfig(16, 16, transient, strategy)
        (kind, message, _, _), warned = assert_same(WORKING_PARAMS, DEFAULT_INITIAL, config)
        assert (kind, warned) == (DomainError, [])
        assert message.startswith("cannot allocate the orbit pair for n_steps = 2**")


@pytest.mark.parametrize("transient", [2**64, 2**64 - 1])
def test_huge_transient_exits_3_and_writes_nothing(tmp_path, transient):
    plain = tmp_path / "plain.pgm"
    plain.write_bytes(b"P5 4 3 255\n" + bytes(range(12)))
    code, out, err = cli("encrypt", str(plain), str(tmp_path / "enc.pgm"),
                         "--step", "0.01", "--transient", str(transient))
    assert (code, out) == (3, "")
    assert "domain error: cannot allocate the orbit pair for n_steps = 2**64.00 " in err
    assert [p.name for p in tmp_path.iterdir()] == ["plain.pgm"]


def run_python(*args, path=None):
    """(exit status, stdout, stderr) of a fresh interpreter importing this
    checkout, with PATH set to `path` if given."""
    env = {**os.environ, "PYTHONPATH": SRC, **({} if path is None else {"PATH": path})}
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=env)
    return done.returncode, done.stdout, done.stderr


def cli(*argv):
    return run_python("-m", "lorenzcipher.cli", *argv)


# Modules encrypt, decrypt and keystream never import: numpy is for the
# library, json for --config, csv for analyze and index, numbers for key
# fields that are not floats, and platform for nothing.
UNUSED_BY_CRYPT = ("numpy", "platform", "json", "csv", "numbers")


def check_crypt_without_numpy(tmp_path, path, backend):
    """encrypt, decrypt and keystream in one fresh process, on the `backend`
    kernel, give generate_keystream's bytes and import none of UNUSED_BY_CRYPT."""
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, (12, 20), dtype=np.uint8)
    plain = tmp_path / "plain.pgm"
    plain.write_bytes(b"P5 20 12 255\n" + pixels.tobytes())
    flags = ["--step", "0.01", "--strategy", "minmax-scale", "--component", "z"]
    argvs = [["encrypt", str(plain), str(tmp_path / "enc.pgm"), *flags],
             ["decrypt", str(tmp_path / "enc.pgm"), str(tmp_path / "dec.pgm"), *flags],
             ["keystream", "--rows", "12", "--cols", "20", "--format", "raw",
              "--output", str(tmp_path / "key.bin"), *flags]]
    code = ("import sys\n"
            "from lorenzcipher import kernel_backend\n"
            "from lorenzcipher.cli import run_command\n"
            "codes = [run_command(argv.split('\\n')) for argv in sys.argv[2:]]\n"
            "print(kernel_backend(), codes, [m for m in sys.argv[1].split() if m in sys.modules])\n")
    assert run_python("-c", code, " ".join(UNUSED_BY_CRYPT), *map("\n".join, argvs),
                      path=path)[:2] == (0, f"{backend} [0, 0, 0] []\n")
    key = quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL,
                          KeystreamConfig(12, 20, strategy="minmax-scale", component="z"))
    assert (tmp_path / "key.bin").read_bytes() == key.data.tobytes()
    assert (tmp_path / "enc.pgm").read_bytes() == (
        b"P5\n20 12\n255\n" + (pixels.ravel() ^ key.data).tobytes())
    assert (tmp_path / "dec.pgm").read_bytes() == b"P5\n20 12\n255\n" + pixels.tobytes()


@needs_c
def test_crypt_and_keystream_run_without_numpy(tmp_path):
    check_crypt_without_numpy(tmp_path, None, "c")


def test_crypt_and_keystream_run_without_numpy_or_cc(tmp_path):
    # PATH names a directory that does not exist, so there is no cc and the
    # pure-Python key kernel runs, cached library or not.
    check_crypt_without_numpy(tmp_path, str(tmp_path / "no-cc"), "pure-python")


def test_encrypt_reads_a_config_file_in_a_fresh_process(tmp_path):
    # json is imported only where --config is read.
    plain = tmp_path / "plain.pgm"
    plain.write_bytes(b"P5 20 12 255\n" + bytes(range(240)))
    config = tmp_path / "key.json"
    config.write_text('{"step": 0.01, "strategy": "minmax-scale", "component": "z"}')
    err = io.StringIO()
    assert run_command(["encrypt", str(plain), str(tmp_path / "flags.pgm"), "--step", "0.01",
                        "--strategy", "minmax-scale", "--component", "z"], stderr=err) == 0
    # Without cc the fresh process's kernel loader logs a line first.
    code, out, fresh_err = cli("encrypt", str(plain), str(tmp_path / "cfg.pgm"),
                               "--config", str(config))
    assert (code, out) == (0, "") and fresh_err.endswith(err.getvalue())
    assert (tmp_path / "cfg.pgm").read_bytes() == (tmp_path / "flags.pgm").read_bytes()


def test_package_registers_every_traced_function_without_numpy():
    # perfbench/tracer.py looks up each layer module in sys.modules and wraps
    # these functions by name.
    code = ("import sys\n"
            "import lorenzcipher, lorenzcipher.cli\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from tracer import LAYERS\n"
            "for layer, names in LAYERS.items():\n"
            "    module = sys.modules['lorenzcipher.' + layer]\n"
            "    assert all(callable(getattr(module, n)) for n in names), layer\n"
            "print(sorted(LAYERS), 'numpy' in sys.modules)\n")
    assert run_python("-c", code, os.path.join(ROOT, "perfbench")) == (
        0, "['cipher', 'cli', 'keystream', 'lorenz', 'metrics', 'pgm'] False\n", "")


def test_analyze_and_index_run_in_a_fresh_process(tmp_path):
    # analyze imports numpy inside the functions that use it; index never does.
    image = tmp_path / "img.pgm"
    image.write_bytes(b"P5 4 3 255\n" + bytes(range(0, 240, 20)))
    scores = tmp_path / "scores.csv"
    scores.write_text("label,corr_h,corr_v,corr_d,entropy\nw,0.1,0.2,0.3,7.9\n")
    for argv in (["analyze", str(image)], ["index", str(scores)]):
        want = io.StringIO()
        assert run_command(argv, stdout=want) == 0
        assert cli(*argv) == (0, want.getvalue(), "")
    code = ("import sys\n"
            "from lorenzcipher.cli import run_command\n"
            "code = run_command(sys.argv[1:])\n"
            "print(code, 'numpy' in sys.modules)\n")
    assert run_python("-c", code, "index", str(scores)) == (0, "label,ic\nw,1.0000\n0 False\n", "")
