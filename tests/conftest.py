import json
import os
import pathlib
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from lorenzcipher import (DEFAULT_INITIAL, DEFAULT_PARAMS, DomainError, GrayImage,
                          KeystreamConfig, KeystreamQualityWarning, LorenzParams,
                          LorenzState, cli, generate_keystream, lorenz)
from lorenzcipher.keystream import _warn_if_degenerate, extract_bytes, lower_bound_error
from lorenzcipher.lorenz import integrate_pair

settings.register_profile(
    "repo",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")

# The paper's parameters at the desk-scale step 0.01, where the two
# variants diverge inside a small image's window.
WORKING_PARAMS = LorenzParams(16.0, 45.92, 4.0, 0.01)

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"
# The four works the paper compares, as (label, corr_h, corr_v, corr_d,
# entropy), as the CLI's experiment lists them; their published efficiency
# indices are 0.7687, 0.3778, 0.5652 and 0.7198.
PUBLISHED_WORKS = list(cli._PUBLISHED_WORKS)


_CAUSE = lorenz._load_kernel()[-1]
needs_c = pytest.mark.skipif(_CAUSE is not None, reason=f"compiled kernel unavailable: {_CAUSE}")
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="cc not found")
# The line of _kernel.c that sums RK4's four y stages.
RK4_Y = "*y = *y + h6 * (k1y + two * k2y + two * k3y + k4y);"

# Full keys with the sha256 and zero count of each keystream or the blow-up it
# raises, written by scripts/make_known_answers.py from the pure-Python oracle.
VECTORS = json.loads((pathlib.Path(__file__).parent / "known_answers.json").read_text())


def key_of(v):
    """A vector's (params, initial, config)."""
    return (LorenzParams(*(float.fromhex(v[n]) for n in ("sigma", "rho", "beta", "h"))),
            LorenzState(*(float.fromhex(v[n]) for n in ("x0", "y0", "z0"))),
            KeystreamConfig(v["rows"], v["cols"], v["transient"], v["strategy"], v["component"]))


_BLOWUPS = [(key_of(v)[:2], v["error"]["variant"]) for v in VECTORS if "error" in v]
# The steps at which the paper's key blows up, and the one key whose variant B
# blows up first, as the script that wrote the vectors chose them.
BLOWUP_STEPS = [params.h for (params, initial), _ in _BLOWUPS
                if initial == DEFAULT_INITIAL and replace(params, h=DEFAULT_PARAMS.h) == DEFAULT_PARAMS]
[VARIANT_B_KEY] = {key for key, variant in _BLOWUPS if variant == "b"}


def observe(make):
    """make()'s bytes, or its error's type, message, variant and step index;
    and the messages of the KeystreamQualityWarnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = bytes(make())
        except DomainError as e:
            got = (type(e), str(e), getattr(e, "variant", None), getattr(e, "step_index", None))
    return got, [str(w.message) for w in caught if w.category is KeystreamQualityWarning]


def write_mutant(monkeypatch, tmp_path, right, wrong):
    """Point the loader at a copy of _kernel.c with the line `right` changed to `wrong`."""
    with open(lorenz._KERNEL_SOURCE) as fh:
        source = fh.read()
    assert source.count(right) == 1
    mutant = tmp_path / "mutant.c"
    mutant.write_text(source.replace(right, wrong))
    monkeypatch.setattr(lorenz, "_KERNEL_SOURCE", str(mutant))


def quiet_keystream(params, initial, config):
    """generate_keystream with its quality warning silenced; any other
    warning is raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", KeystreamQualityWarning)
        return generate_keystream(params, initial, config)


def reference_keystream(params, initial, config):
    """The numpy reference for every keystream: the pure-Python oracle's
    stored orbit pair, its lower bound error and the extracted window, with
    the quality warning on its zero count. It runs no compiled code and
    shares nothing with the key kernel but the oracle's integrator."""
    pair = integrate_pair(initial, params, config.n_samples, config.component)
    data = extract_bytes(lower_bound_error(pair), config)
    _warn_if_degenerate(int(np.count_nonzero(data == 0)), data.shape[0])
    return data


def pure_python():
    """Route the key route to the pure-Python key kernel, histogram to
    np.bincount and adjacent_correlation to its numpy sums, as without a
    compiler, while active; integrate_pair is the oracle either way."""
    return mock.patch.object(lorenz, "_load_kernel",
                             lambda: (lorenz._key_python, None, None, "oracle"))


def full_orbits(initial, params, n):
    """Both orbits as one (n, 2, 3) array, [sample, variant A=0 / B=1, x/y/z],
    from one integrate_pair call per component."""
    return np.stack([integrate_pair(initial, params, n, c) for c in "xyz"], axis=2)


def make_image(values):
    """Build a GrayImage from a nested list or array of small ints."""
    return GrayImage.from_array(np.asarray(values, dtype=np.uint8))


def peak_bytes(call) -> int:
    """Peak bytes traced by tracemalloc while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_python(*args, env=None, path=None):
    """(exit status, stdout, stderr) of a fresh interpreter importing this
    checkout, in `env` (os.environ if None) with PATH set to `path` if given."""
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(REPO / "src"),
           **({} if path is None else {"PATH": path})}
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=300, env=env)
    return done.returncode, done.stdout, done.stderr
