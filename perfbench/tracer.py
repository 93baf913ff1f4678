"""Span tracer for lorenzcipher, installed from outside the package.

The tracer rebinds the public functions of each package module to timing
wrappers, in every lorenzcipher module namespace that holds them, so calls
made between modules are recorded too. The package itself is unchanged.

A span is [name, start, end, parent, op, info]: parent is the index of the
enclosing span (None for an op's root), op is the index of the benchmark op
it belongs to, and info holds counts read from the call's arguments and
return value, never from timing, plus `observe_s`, the time reading them.

Run as a script, this file is the traced CLI launcher:

    python perfbench/tracer.py SPANS_JSON encrypt in.pgm out.pgm --step 0.01

It times the import of lorenzcipher.cli, installs the wrappers, calls
lorenzcipher.cli.run_command with the remaining arguments, writes the
spans to SPANS_JSON and exits with run_command's status.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from time import perf_counter

# Functions timed per layer. `reference` and `errors` do no timed work;
# `decrypt` is wrapped so that its call to `encrypt` nests under it.
LAYERS = {
    "cli": ("run_command",),
    "pgm": ("read_pgm", "write_pgm", "parse_pgm", "encode_pgm"),
    "lorenz": ("integrate_pair",),
    "keystream": ("generate_keystream", "lower_bound_error", "extract_bytes"),
    "cipher": ("encrypt", "decrypt", "xor_apply"),
    "metrics": ("shannon_entropy", "histogram", "adjacent_correlation",
                "chi_square_uniform"),
}


def _first_nonzero(delta) -> int:
    """Index of the first nonzero sample, or the length if there is none."""
    mask = delta != 0
    first = int(mask.argmax())
    return first if mask[first] else int(mask.shape[0])


# Counts taken from each call's (args, result); they repeat exactly.
OBSERVERS = {
    "lorenz.integrate_pair": lambda args, r: {"step_pairs": len(r)},
    "keystream.lower_bound_error": lambda args, r: {
        "first_divergence": _first_nonzero(r)},
    "keystream.extract_bytes": lambda args, r: {
        "bytes": int(r.shape[0]), "zero_bytes": int((r == 0).sum())},
    "pgm.parse_pgm": lambda args, r: {"bytes": len(args[0])},
    "pgm.encode_pgm": lambda args, r: {"bytes": len(r)},
}


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op: int | None = None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._op, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                t0 = perf_counter()
                info = observe(args, result)
                info["observe_s"] = perf_counter() - t0
                self.spans[index][5] = info
            return result
        return traced

    def install(self) -> None:
        """Rebind every LAYERS function wherever a lorenzcipher module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "lorenzcipher" or n.startswith("lorenzcipher.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"lorenzcipher.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def op(self, index: int):
        """Trace one in-process op: wrappers are live only inside the block."""
        self._op = index
        self.install()
        try:
            with self.span("op"):
                yield
        finally:
            self.uninstall()
            self._op = None

    def add_process_op(self, index: int, start: float, end: float,
                       child_spans: list[list]) -> None:
        """Attach the spans a launcher process wrote under a new op root span."""
        root = len(self.spans)
        self.spans.append(["op", start, end, None, index, None])
        for name, t0, t1, parent, _, info in child_spans:
            parent = root if parent is None else root + 1 + parent
            self.spans.append([name, t0, t1, parent, index, info])


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time covered by its direct children.

    The time spent reading a child's counts is tracing overhead, so it is
    charged to neither span; it shows only in trace.overhead_frac.
    """
    covered = [0.0] * len(spans)
    for _, t0, t1, parent, _, info in spans:
        if parent is not None:
            covered[parent] += t1 - t0 + (info or {}).get("observe_s", 0.0)
    return [(s[2] - s[1]) - covered[i] for i, s in enumerate(spans)]


def _launch(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import lorenzcipher.cli
    tracer.install()
    try:
        return lorenzcipher.cli.run_command(cli_argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(_launch(sys.argv[1:]))
