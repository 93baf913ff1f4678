"""Every key route and kernel against the known-answer vectors.

tests/known_answers.json holds about 100 full keys, written by
scripts/make_known_answers.py from the pure-Python oracle, with the sha256
and zero-byte count of each keystream or the blow-up it raises.
`generate_keystream`, the key route `_xor_keystream` under it and the numpy
reference pipeline must each reproduce every vector, on the kernel the
loader picked and under `pure_python()`.
"""

import contextlib
import hashlib
import json
import pathlib
import warnings

import pytest

from conftest import pure_python, reference_keystream
from lorenzcipher import (IntegrationBlowupError, KeystreamConfig,
                          KeystreamQualityWarning, LorenzParams, LorenzState,
                          generate_keystream)
from lorenzcipher.keystream import ZERO_FRACTION_WARN, _xor_keystream

VECTORS = json.loads((pathlib.Path(__file__).parent / "known_answers.json").read_text())
ROUTES = {"generate_keystream": lambda *key: generate_keystream(*key).data,
          "_xor_keystream": _xor_keystream,
          "reference": reference_keystream}


def key_of(v):
    return (LorenzParams(*(float.fromhex(v[n]) for n in ("sigma", "rho", "beta", "h"))),
            LorenzState(*(float.fromhex(v[n]) for n in ("x0", "y0", "z0"))),
            KeystreamConfig(v["rows"], v["cols"], v["transient"], v["strategy"], v["component"]))


def answer(route, params, initial, config) -> dict:
    """What the file records for one key: the keystream's sha256 and zero
    count, or the blow-up; plus whether the quality warning was issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            data = bytes(route(params, initial, config))
        except IntegrationBlowupError as e:
            return {"error": {"message": str(e), "variant": e.variant,
                              "step_index": e.step_index}, "warned": False}
    warned = any(w.category is KeystreamQualityWarning for w in caught)
    return {"sha256": hashlib.sha256(data).hexdigest(), "zero_bytes": data.count(0),
            "warned": warned}


def recorded(v) -> dict:
    want = {k: v[k] for k in ("error", "sha256", "zero_bytes") if k in v}
    want["warned"] = "zero_bytes" in v and v["zero_bytes"] / (v["rows"] * v["cols"]) > ZERO_FRACTION_WARN
    return want


def test_vectors_cover_the_key_space():
    blowups = [v for v in VECTORS if "error" in v]
    h = sorted(float.fromhex(v["h"]) for v in VECTORS if "error" not in v)
    assert 90 <= len(VECTORS) <= 120 and {v["error"]["variant"] for v in blowups} == {"a", "b"}
    assert {(v["strategy"], v["component"]) for v in VECTORS} == {
        (s, c) for s in ("mantissa-lsb", "minmax-scale") for c in "xyz"}
    assert h[0] == 1e-6 and 0.005 <= h[6] and h[-1] <= 0.02
    assert {min(v["transient"] for v in VECTORS), max(v["transient"] for v in VECTORS)} == {0, 3000}
    assert max(v["rows"] * v["cols"] for v in VECTORS) == 32 * 32


@pytest.mark.parametrize("kernel", ["loaded", "pure-python"])
@pytest.mark.parametrize("route", ROUTES)
def test_route_reproduces_every_vector(route, kernel):
    with pure_python() if kernel == "pure-python" else contextlib.nullcontext():
        wrong = [i for i, v in enumerate(VECTORS)
                 if answer(ROUTES[route], *key_of(v)) != recorded(v)]
    assert wrong == []
