"""Self-test of the benchmark at tiny sizes. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted, that a
single flipped keystream byte is counted as a failed op, and that the same
seed regenerates identical inputs. Exits 0 when all checks pass.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run


def check_metric_names(spec: dict) -> list[str]:
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = [m["name"] for m in spec[key]]
        for workload in run.WORKLOADS:
            result = run.run(workload, 0, 0.0, trace, tiny=True)
            got = list(result["metrics"])
            if got != want:
                problems.append(f"{workload} trace={int(trace)} emits {got}, "
                                f"BENCHMARK.json lists {want}")
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)} failed: {result['problems']}")
    return problems


def check_flipped_byte_fails() -> list[str]:
    import lorenzcipher.cipher as cipher
    original = cipher.generate_keystream

    def corrupted(params, initial, config):
        key = original(params, initial, config)
        data = key.data.copy()
        data[0] ^= 0x01
        return dataclasses.replace(key, data=data)

    cipher.generate_keystream = corrupted
    try:
        result = run.run("library-1024", 0, 0.0, False, tiny=True)
    finally:
        cipher.generate_keystream = original
    caught = [p for p in result["problems"] if "oracle" in p]
    if result["failed"] < 1 or result["correct"] or not caught:
        return [f"a flipped keystream byte went unnoticed: {result['problems']}"]
    return []


def check_inputs_repeat() -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        first, again, other = (run.input_digest(run.make_workload(workload, seed, run.WORK, True))
                               for seed in (7, 7, 8))
        if first != again:
            problems.append(f"{workload}: seed 7 gave two different inputs")
        if first == other:
            problems.append(f"{workload}: seeds 7 and 8 gave the same inputs")
    return problems


def main() -> int:
    run.load_program()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    for check in (check_metric_names, check_flipped_byte_fails, check_inputs_repeat):
        args = (spec,) if check is check_metric_names else ()
        problems = check(*args)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {check.__name__}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
