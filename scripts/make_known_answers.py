#!/usr/bin/env python3
"""Write the keystream known-answer vectors, tests/known_answers.json.

Every vector is a full key (parameters, initial state, rows, cols,
transient, strategy, component), each float stored exactly as float.hex,
and either the sha256 and zero-byte count of its keystream or the
IntegrationBlowupError it raises, with message, variant and step index.
The keystreams come from `integrate_pair`, which always runs the
pure-Python oracle, through `lower_bound_error` and `extract_bytes`, so
the file pins the contract every kernel and route must meet. The keys are fixed by a seeded generator: rerunning the script
rewrites the same file.

    PYTHONPATH=src python scripts/make_known_answers.py [--out FILE]
"""

import argparse
import hashlib
import json
import pathlib
import random
import sys

import numpy as np

from lorenzcipher import (COMPONENTS, DEFAULT_INITIAL, DEFAULT_PARAMS, STRATEGIES,
                          IntegrationBlowupError, KeystreamConfig, LorenzParams,
                          LorenzState, extract_bytes, integrate_pair, lower_bound_error)

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "known_answers.json"
PARAM_NAMES = ("sigma", "rho", "beta", "h")
STATE_NAMES = ("x0", "y0", "z0")
BLOWUP_STEPS = (0.1, 0.2, 0.5, 1.0, 10.0)
PAPER = (DEFAULT_PARAMS.sigma, DEFAULT_PARAMS.rho, DEFAULT_PARAMS.beta)
PAPER_INITIAL = (DEFAULT_INITIAL.x, DEFAULT_INITIAL.y, DEFAULT_INITIAL.z)
# A key whose variant B overflows while A stays finite.
VARIANT_B_KEY = ((15.467243504088904, 46.677155448041326, 4.1493423342906475, 0.1),
                 (-0.5413349849971425, -9.481188946409766, 42.94378725037812))


def keys(rng: random.Random):
    """(params, initial, rows, cols, transient, strategy, component) for each vector."""
    combos = [(s, c) for s in STRATEGIES for c in COMPONENTS]
    # Jittered keys in the working range of h, cycling through every
    # strategy and component; the first transients and sizes are the edges.
    edges = [(0, 1, 1), (1, 32, 32), (3000, 1, 32), (0, 32, 1), (3000, 32, 32)]
    for i in range(80):
        transient, rows, cols = edges[i] if i < len(edges) else (
            rng.randint(0, 3000), rng.randint(1, 32), rng.randint(1, 32))
        yield ((rng.uniform(15.2, 16.8), rng.uniform(43.6, 48.2), rng.uniform(3.8, 4.2),
                rng.uniform(0.005, 0.02)),
               (rng.uniform(0.5, 1.5), rng.uniform(0.0, 1.0), rng.uniform(0.4, 1.4)),
               rows, cols, transient, *combos[i % len(combos)])
    # The paper key at its own h = 1e-6, where the orbits never diverge in
    # the window, and at the working step 0.01.
    for h, rows, cols in ((1e-6, 32, 32), (0.01, 16, 16)):
        for strategy, component in combos:
            yield (*PAPER, h), PAPER_INITIAL, rows, cols, 2000, strategy, component
    # Blow-ups: the paper key at large steps, variant B first, and jittered
    # keys far from the attractor.
    for i, h in enumerate(BLOWUP_STEPS):
        yield (*PAPER, h), PAPER_INITIAL, 16, 16, (0, 5, 2000)[i % 3], STRATEGIES[i % 2], "y"
    for component in COMPONENTS:
        yield (*VARIANT_B_KEY, 10, 10, 50, "minmax-scale", component)
    for i in range(6):
        yield ((rng.uniform(15.2, 16.8), rng.uniform(43.6, 48.2), rng.uniform(3.8, 4.2),
                BLOWUP_STEPS[i % len(BLOWUP_STEPS)]),
               (rng.uniform(-25, 25), rng.uniform(-25, 25), rng.uniform(0, 50)),
               10, 10, rng.randint(0, 300), *combos[i])


def vector(params, initial, rows, cols, transient, strategy, component) -> dict:
    config = KeystreamConfig(rows, cols, transient, strategy, component)
    entry = {**{n: v.hex() for n, v in zip(PARAM_NAMES + STATE_NAMES, params + initial)},
             "rows": rows, "cols": cols, "transient": transient,
             "strategy": strategy, "component": component}
    try:
        pair = integrate_pair(LorenzState(*initial), LorenzParams(*params),
                              config.n_samples, component)
    except IntegrationBlowupError as e:
        return {**entry, "error": {"message": str(e), "variant": e.variant,
                                   "step_index": e.step_index}}
    data = extract_bytes(lower_bound_error(pair), config)
    return {**entry, "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
            "zero_bytes": int(np.count_nonzero(data == 0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=pathlib.Path, default=OUT)
    args = ap.parse_args(argv)
    vectors = [vector(*key) for key in keys(random.Random(20200))]
    args.out.write_text(json.dumps(vectors, indent=1) + "\n")
    print(f"{args.out}: {len(vectors)} vectors, "
          f"{sum('error' in v for v in vectors)} of them blow-ups")
    return 0


if __name__ == "__main__":
    sys.exit(main())
