"""Every key route and kernel against the known-answer vectors.

tests/known_answers.json holds about 100 full keys, written by
scripts/make_known_answers.py from the pure-Python oracle, with the sha256
and zero-byte count of each keystream or the blow-up it raises.
`generate_keystream` and the key route `_xor_keystream` under it must each
reproduce every vector, on the kernel the loader picked and under
`pure_python()`; so must the numpy reference pipeline, which never consults
the loader.
"""

import contextlib
import hashlib

import pytest

from conftest import BLOWUP_STEPS, VECTORS, key_of, observe, pure_python, reference_keystream
from lorenzcipher import generate_keystream
from lorenzcipher.keystream import ZERO_FRACTION_WARN, _xor_keystream

ROUTES = {"generate_keystream": lambda *key: generate_keystream(*key).data,
          "_xor_keystream": _xor_keystream,
          "reference": reference_keystream}


def answer(route, params, initial, config) -> dict:
    """What the file records for one key, from what observe saw: the
    keystream's sha256 and zero count, or the blow-up; plus whether the
    quality warning was issued."""
    got, warned = observe(lambda: route(params, initial, config))
    if isinstance(got, bytes):
        summary = {"sha256": hashlib.sha256(got).hexdigest(), "zero_bytes": got.count(0)}
    else:
        _, message, variant, step_index = got
        summary = {"error": {"message": message, "variant": variant, "step_index": step_index}}
    return {**summary, "warned": bool(warned)}


def recorded(v) -> dict:
    want = {k: v[k] for k in ("error", "sha256", "zero_bytes") if k in v}
    want["warned"] = "zero_bytes" in v and v["zero_bytes"] / (v["rows"] * v["cols"]) > ZERO_FRACTION_WARN
    return want


def test_vectors_cover_the_key_space():
    blowups = [v for v in VECTORS if "error" in v]
    h = sorted(float.fromhex(v["h"]) for v in VECTORS if "error" not in v)
    assert 90 <= len(VECTORS) <= 120 and {v["error"]["variant"] for v in blowups} == {"a", "b"}
    assert len(BLOWUP_STEPS) == 5
    assert {(v["strategy"], v["component"]) for v in VECTORS} == {
        (s, c) for s in ("mantissa-lsb", "minmax-scale") for c in "xyz"}
    assert h[0] == 1e-6 and 0.005 <= h[6] and h[-1] <= 0.02
    assert {min(v["transient"] for v in VECTORS), max(v["transient"] for v in VECTORS)} == {0, 3000}
    assert max(v["rows"] * v["cols"] for v in VECTORS) == 32 * 32


@pytest.mark.parametrize("route, kernel", [
    (route, kernel) for route in ROUTES for kernel in ("loaded", "pure-python")
    if (route, kernel) != ("reference", "pure-python")])
def test_route_reproduces_every_vector(route, kernel):
    with pure_python() if kernel == "pure-python" else contextlib.nullcontext():
        wrong = [i for i, v in enumerate(VECTORS)
                 if answer(ROUTES[route], *key_of(v)) != recorded(v)]
    assert wrong == []
