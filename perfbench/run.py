"""Benchmark of lorenzcipher: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the directory holding src/lorenzcipher):

    python3 perfbench/run.py --workload library-1024 --seed 0 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs every op traced and untraced and prints the per-layer
metrics. The last line of stdout is one JSON object; a human-readable
summary goes to stderr, and everything, with the spans of a traced run,
goes to perfbench/results/<workload>-seed<seed>-trace<trace>.json.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORK = HERE / "_work"

WORKLOADS = ("cli-64", "library-1024", "keyset-256", "audit-1024")
DEFAULT_SEED = 0
SETUP_RUNS = 9
# The package has one kernel, the pure-Python RK4 in lorenzcipher.lorenz.
KERNEL = "pure-python"

# sha256 of the prefix outputs at DEFAULT_SEED and full size, from the
# pure-Python kernel. Any kernel must reproduce them bit for bit.
PINNED = {
    "cli-64": "e4acde3f7fac20a277d2c6a198f42f26d0d85da40c6261a7b8962ca759bfdded",
    "library-1024": "a43b4217845fee8725ac012d209e47c6eb2077e9b938a4e56e76e5a25edc011d",
    "keyset-256": "085fb2e8d1ec47d3eb0bf20ee2ec0b46d51357895c4adb82e334fafd75c7d563",
    "audit-1024": "db79fc983d3b22e47d478e63907fa08abd2973ef33566cd7cead091d11a9fbc1",
}

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import lorenzcipher, lorenzcipher.cli
t1 = time.perf_counter()
key = lorenzcipher.generate_keystream(
    lorenzcipher.LorenzParams(16.0, 45.92, 4.0, 0.01),
    lorenzcipher.LorenzState(1.0, 0.5, 0.9), lorenzcipher.KeystreamConfig(8, 8))
print(t1 - t0, key.hex())
"""


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program() -> None:
    """Import lorenzcipher from this checkout's src/, never from elsewhere."""
    if not (SRC / "lorenzcipher" / "__init__.py").is_file():
        _die(f"no src/lorenzcipher under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import lorenzcipher
    import lorenzcipher.cli  # noqa: F401  (the tracer wraps cli.run_command)
    if not Path(lorenzcipher.__file__).resolve().is_relative_to(SRC.resolve()):
        _die(f"imported lorenzcipher from {lorenzcipher.__file__}, not {SRC}")


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def make_workload(name: str, seed: int, workdir: Path, tiny: bool = False):
    import workloads as w
    if name == "cli-64":
        return w.Cli(seed, workdir, child_env(), side=8 if tiny else 64)
    if name == "library-1024":
        return w.Library(seed, side=16 if tiny else 1024)
    if name == "keyset-256":
        return w.Keyset(seed, side=8 if tiny else 256)
    return w.Audit(seed, side=64 if tiny else 1024)


def input_digest(workload) -> str:
    """sha256 of the prefix items' inputs: same seed, same digest."""
    digest = hashlib.sha256()
    for j in range(workload.prefix_items):
        item = workload.inputs(j)
        for part in item if isinstance(item, tuple) else (item,):
            digest.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return digest.hexdigest()


def measure_setup(workdir: Path, runs: int) -> dict:
    """Fresh interpreters importing the package and making an 8x8 keystream.

    Bare interpreters (`python -c pass`) run between them: they are the
    spawn probe that scales each set-up time, and the interpreter start floor.
    """
    from workloads import PAPER_KEY, PROBE_REF, Key, oracle_prefix, spawn, spawn_probe
    expected = oracle_prefix(Key(**PAPER_KEY, step=0.01), 64).hex()
    out = workdir / "setup.txt"
    m = {"wall": [], "scaled": [], "import": [], "interp": [spawn_probe(child_env())],
         "problems": []}
    for i in range(runs + 1):  # the first run fills the bytecode cache, untimed
        code, seconds, _ = spawn([sys.executable, "-c", SETUP_CODE], child_env(),
                                 stdout=out, stderr=workdir / "setup.err")
        m["interp"].append(spawn_probe(child_env()))
        fields = out.read_text(encoding="ascii").split()
        if code != 0 or len(fields) != 2:
            m["problems"].append(f"setup run exited {code}")
        elif fields[1] != expected:
            m["problems"].append("setup keystream differs from the rk4_step oracle")
        elif i:
            m["wall"].append(seconds)
            m["scaled"].append(seconds * PROBE_REF["spawn"] * 2 / sum(m["interp"][-2:]))
            m["import"].append(float(fields[0]))
    return m


def measure(workload, seconds: float, tracer):
    """Closed loop, one client: ops in order until `seconds` pass and the prefix is done."""
    from workloads import Harness
    probe = None if tracer else workload.probe
    h = Harness(tracer, seconds, probe, workload.probe_ref)
    j = 0
    while True:
        h.in_prefix = j < workload.prefix_items
        if h.expired():
            return h
        workload.run_item(j, h)
        j += 1


def end_to_end(h, setup_times, op_times, peak_rss) -> dict:
    # A metric with no successful sample reads 0; `correct` is false then.
    times = [t for t in op_times if t == t]
    return {
        "setup_s": (statistics.median(setup_times) if setup_times else 0.0, "s", len(setup_times)),
        "op_p50_s": (statistics.median(times) if times else 0.0, "s", len(times)),
        "mpix_per_s": (h.pixels / sum(times) / 1e6 if times else 0.0, "Mpix/s", len(times)),
        "peak_rss_mb": (peak_rss / 2**20, "MB", 1),
    }


def per_layer(h, tracer, setup) -> dict:
    from tracer import self_times
    spans = tracer.spans
    n_ops = max(1, sum(1 for s in spans if s[0] == "op"))
    total = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        total[span[0]] += own
    prefix = set(h.prefix_ops)
    info = defaultdict(list)
    for name, _, _, _, op, data in spans:
        if data is not None and op in prefix:
            info[name].append(data)

    def per_op(name):
        return (total[name] / n_ops, "s", n_ops)

    def counted(name, key):
        return sum(d[key] for d in info[name])

    n_prefix = max(1, len(h.prefix_ops))
    steps = counted("lorenz.integrate_pair", "step_pairs")
    all_steps = sum(s[5]["step_pairs"] for s in spans if s[0] == "lorenz.integrate_pair")
    window = counted("keystream.extract_bytes", "bytes")
    divergence = [d["first_divergence"] for d in info["keystream.lower_bound_error"]]
    traced = sum(t for t in h.op_times if t == t)
    return {
        "cli.interp_start_s": (statistics.median(setup["interp"]), "s", len(setup["interp"])),
        "cli.import_s": (statistics.median(setup["import"]) if setup["import"] else 0.0,
                         "s", len(setup["import"])),
        "cli.run_command.self_s": per_op("cli.run_command"),
        "pgm.read_pgm.s": per_op("pgm.read_pgm"),
        "pgm.write_pgm.s": per_op("pgm.write_pgm"),
        "pgm.parse_pgm.s": per_op("pgm.parse_pgm"),
        "pgm.encode_pgm.s": per_op("pgm.encode_pgm"),
        "pgm.bytes": ((counted("pgm.parse_pgm", "bytes") + counted("pgm.encode_pgm", "bytes"))
                      / n_prefix, "B", n_prefix),
        "lorenz.integrate_pair.s": per_op("lorenz.integrate_pair"),
        "lorenz.step_pairs": (steps / n_prefix, "count", n_prefix),
        "lorenz.ns_per_step_pair": (total["lorenz.integrate_pair"] / all_steps * 1e9
                                    if all_steps else 0.0, "ns", n_ops),
        "lorenz.orbit_bytes": (48 * steps / n_prefix, "B", n_prefix),
        "keystream.generate_keystream.self_s": per_op("keystream.generate_keystream"),
        "keystream.lower_bound_error.s": per_op("keystream.lower_bound_error"),
        "keystream.extract_bytes.s": per_op("keystream.extract_bytes"),
        "keystream.useful_sample_ratio": (window / steps if steps else 0.0, "ratio", n_prefix),
        "keystream.first_divergence": (statistics.median(divergence) if divergence else -1,
                                       "count", len(divergence)),
        "keystream.zero_byte_fraction": (counted("keystream.extract_bytes", "zero_bytes") / window
                                         if window else 0.0, "ratio", n_prefix),
        "keystream.warnings": (h.prefix_warnings, "count", n_prefix),
        "cipher.encrypt.self_s": per_op("cipher.encrypt"),
        "cipher.xor_apply.s": per_op("cipher.xor_apply"),
        "metrics.shannon_entropy.s": per_op("metrics.shannon_entropy"),
        "metrics.histogram.s": per_op("metrics.histogram"),
        "metrics.adjacent_correlation.s": per_op("metrics.adjacent_correlation"),
        "metrics.chi_square_uniform.s": per_op("metrics.chi_square_uniform"),
        "trace.op_s": (traced / n_ops, "s", n_ops),
        "trace.uncovered_s": per_op("op"),
        "trace.overhead_frac": (traced / sum(h.untraced_times) - 1 if h.untraced_times else 0.0,
                                "ratio", n_ops),
    }


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="ascii").strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text(encoding="ascii").splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "kernel": KERNEL}


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; return the full results record."""
    from tracer import Tracer
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        setup = measure_setup(workdir, 3 if tiny else SETUP_RUNS)
        workload = make_workload(name, seed, workdir, tiny)
        tracer = Tracer() if trace else None
        h = measure(workload, seconds, tracer)
        peak_rss = getattr(workload, "peak_rss", None) or \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        h.check()
    finally:
        shutil.rmtree(workdir)
    output_sha = hashlib.sha256(b"".join(
        hashlib.sha256(out).digest() for out in h.prefix_outputs)).hexdigest()
    pinned = PINNED[name] if seed == DEFAULT_SEED and not tiny else None
    if pinned is not None and output_sha != pinned:
        for op in h.prefix_ops:
            h.fail(op, "prefix output digest differs from the pinned digest")
    if trace:
        metrics = per_layer(h, tracer, setup)
        wall = {}
    else:
        metrics = end_to_end(h, setup["scaled"], h.scaled_times, peak_rss)
        wall = {k: v for k, (v, _, _) in end_to_end(h, setup["wall"], h.op_times, 0).items()
                if k != "peak_rss_mb"}
    problems = setup["problems"]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "input_sha256": input_digest(workload),
        "output_sha256": output_sha, "pinned_sha256": pinned,
        "correct": not h.failed and not problems,
        "attempted": h.attempted, "failed": len(h.failed),
        "failed_ops_frac": len(h.failed) / h.attempted,
        "problems": problems + [f"op {op}: {why}" for op, why in sorted(h.failed.items())][:50],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "unscaled_metrics": wall,
        # None marks an op that raised
        "op_times": [t if t == t else None for t in h.op_times],
        "scaled_op_times": [t if t == t else None for t in h.scaled_times],
        "untraced_op_times": h.untraced_times, "setup": setup,
        "spans": tracer.spans if trace else [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']:7s} n={m['samples']}", file=sys.stderr)
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_ops_frac {result['failed_ops_frac']:.4g}; results in {path}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
