"""Command-line front end: encrypt | decrypt | keystream | analyze | index.

Exit codes: 0 success, 1 usage error, 2 I/O or file format error,
3 numeric or domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import fields, replace
from functools import partial

from .cipher import encrypt
from .errors import DomainError, FileFormatError
from .keystream import (COMPONENTS, STRATEGIES, KeystreamConfig,
                        generate_keystream)
from .lorenz import DEFAULT_INITIAL, DEFAULT_PARAMS, LorenzParams, LorenzState
from .metrics import (DIRECTIONS, WorkScores, adjacent_correlation,
                      efficiency_index, histogram, shannon_entropy)
from .pgm import read_pgm, write_pgm

__all__ = ["run_command", "main"]

# The key settings, each both a flag and a JSON config key. Each sets the
# LorenzParams, LorenzState or KeystreamConfig field of the same name, or
# the one _FIELD_NAMES gives; unset ones keep the library defaults.
_KEY_SETTINGS = ("sigma", "rho", "beta", "x0", "y0", "z0", "step",
                 "transient", "strategy", "component")
_FIELD_NAMES = {"step": "h", "x0": "x", "y0": "y", "z0": "z"}

_SCORES_HEADER = ["label", "corr_h", "corr_v", "corr_d", "entropy"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_key_flags(p: argparse.ArgumentParser) -> None:
    grp = p.add_argument_group(
        "key settings",
        "the full key is (sigma, rho, beta, x0, y0, z0, step, transient, "
        "strategy, component); defaults in parentheses")
    grp.add_argument("--config", metavar="FILE",
                     help="JSON file supplying any of the key settings; "
                          "explicit flags override it")
    params, state, config = DEFAULT_PARAMS, DEFAULT_INITIAL, KeystreamConfig
    grp.add_argument("--sigma", type=float, help=f"({params.sigma:g})")
    grp.add_argument("--rho", type=float, help=f"({params.rho:g})")
    grp.add_argument("--beta", type=float, help=f"({params.beta:g})")
    grp.add_argument("--x0", type=float, help=f"initial x ({state.x:g})")
    grp.add_argument("--y0", type=float, help=f"initial y ({state.y:g})")
    grp.add_argument("--z0", type=float, help=f"initial z ({state.z:g})")
    grp.add_argument("--step", type=float, help=f"integration step h ({params.h:g})")
    grp.add_argument("--transient", type=int,
                     help=f"leading samples to discard ({config.transient})")
    grp.add_argument("--strategy", choices=STRATEGIES,
                     help=f"byte extraction strategy ({config.strategy})")
    grp.add_argument("--component", choices=COMPONENTS,
                     help="state component fed to the error bound "
                          f"({config.component})")


def _load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an int past the digit limit
        raise FileFormatError(f"config {path}: invalid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise FileFormatError(f"config {path}: expected a JSON object")
    unknown = sorted(set(raw) - set(_KEY_SETTINGS))
    if unknown:
        raise FileFormatError(f"config {path}: unknown keys {unknown}")
    for key, value in raw.items():
        if key in ("strategy", "component"):
            if not isinstance(value, str):
                raise FileFormatError(f"config {path}: {key} must be a string")
        elif key == "transient":
            if not isinstance(value, int) or isinstance(value, bool):
                raise FileFormatError(f"config {path}: transient must be an integer")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            raise FileFormatError(f"config {path}: {key} must be a number")
    if raw.get("strategy") not in (None, *STRATEGIES):
        raise FileFormatError(f"config {path}: strategy must be one of {STRATEGIES}")
    if raw.get("component") not in (None, *COMPONENTS):
        raise FileFormatError(f"config {path}: component must be one of {COMPONENTS}")
    return raw


def _resolve_key(args) -> dict:
    settings = _load_config_file(args.config) if args.config else {}
    for key in _KEY_SETTINGS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    return settings


def _build_key_inputs(args) -> tuple[LorenzParams, LorenzState, partial]:
    """Params, initial state and a KeystreamConfig factory of (rows, cols)."""
    s = {_FIELD_NAMES.get(k, k): v for k, v in _resolve_key(args).items()}

    def pick(cls):
        return {f.name: s[f.name] for f in fields(cls) if f.name in s}
    return (replace(DEFAULT_PARAMS, **pick(LorenzParams)),
            replace(DEFAULT_INITIAL, **pick(LorenzState)),
            partial(KeystreamConfig, **pick(KeystreamConfig)))


def _cmd_crypt(args, stdout, stderr) -> int:
    params, initial, make_config = _build_key_inputs(args)
    image = read_pgm(args.input)
    config = make_config(image.rows, image.cols)
    write_pgm(encrypt(image, params, initial, config), args.output)
    return 0


def _cmd_keystream(args, stdout, stderr) -> int:
    params, initial, make_config = _build_key_inputs(args)
    key = generate_keystream(params, initial, make_config(args.rows, args.cols))
    if args.format == "hex":
        if args.output:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(key.hex() + "\n")
        else:
            print(key.hex(), file=stdout)
        return 0
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(key.data.tobytes())
        return 0
    buffer = getattr(stdout, "buffer", None)
    if buffer is None:
        raise _UsageError("raw keystream output needs --output or a binary stdout")
    buffer.write(key.data.tobytes())
    return 0


def _write_report(rows: list[tuple[str, object]], fh) -> None:
    fh.write("metric,value\n")
    for name, value in rows:
        fh.write(f"{name},{value!r}\n")


def _cmd_analyze(args, stdout, stderr) -> int:
    image = read_pgm(args.input)
    rows: list[tuple[str, object]] = [("entropy", shannon_entropy(image))]
    for direction in DIRECTIONS:
        rows.append((f"corr_{direction}", adjacent_correlation(image, direction)))
    if args.report:
        with open(args.report, "w", encoding="ascii", newline="") as fh:
            _write_report(rows, fh)
    else:
        _write_report(rows, stdout)
    if args.histogram:
        counts = histogram(image)
        with open(args.histogram, "w", encoding="ascii", newline="") as fh:
            fh.write("level,count\n")
            for level, count in enumerate(counts):
                fh.write(f"{level},{count}\n")
    return 0


def _read_scores(path) -> list[WorkScores]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FileFormatError(f"scores {path}: empty file") from None
        if [c.strip() for c in header] != _SCORES_HEADER:
            raise FileFormatError(
                f"scores {path}: header must be {','.join(_SCORES_HEADER)}")
        scores = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise FileFormatError(f"scores {path}: line {lineno}: expected 5 fields")
            try:
                values = [float(v) for v in row[1:]]
            except ValueError:
                raise FileFormatError(
                    f"scores {path}: line {lineno}: non-numeric value") from None
            scores.append(WorkScores(row[0].strip(), *values))
    if not scores:
        raise FileFormatError(f"scores {path}: no data rows")
    return scores


def _cmd_index(args, stdout, stderr) -> int:
    scores = _read_scores(args.scores)
    print("label,ic", file=stdout)
    for work, ic in zip(scores, efficiency_index(scores)):
        print(f"{work.label},{ic:.4f}", file=stdout)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="lorenzcipher",
        description="XOR image cipher keyed by the rounding divergence of "
                    "paired Lorenz pseudo-orbits (binary PGM in/out).",
        epilog="exit codes: 0 success, 1 usage error, 2 I/O or file format "
               "error, 3 numeric or domain error")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, blurb in (("encrypt", "encrypt a PGM image"),
                        ("decrypt", "decrypt a PGM image (same XOR involution)")):
        p = sub.add_parser(name, help=blurb, description=blurb)
        p.add_argument("input", help="input PGM (binary, P5)")
        p.add_argument("output", help="output PGM path")
        _add_key_flags(p)
        p.set_defaults(func=_cmd_crypt)

    p = sub.add_parser("keystream", help="emit key bytes for given dimensions",
                       description="emit the raw or hex keystream, row-major")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--format", choices=("hex", "raw"), default="hex")
    p.add_argument("--output", metavar="FILE", help="write here instead of stdout")
    _add_key_flags(p)
    p.set_defaults(func=_cmd_keystream)

    p = sub.add_parser("analyze", help="image quality metrics as CSV",
                       description="compute entropy, the three adjacent-pixel "
                                   "correlations, and optionally the histogram")
    p.add_argument("input", help="PGM image to analyze")
    p.add_argument("--report", metavar="FILE",
                   help="write the metric,value CSV here instead of stdout")
    p.add_argument("--histogram", metavar="FILE",
                   help="also write a level,count histogram CSV")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("index", help="efficiency index from a scores CSV",
                       description="read label,corr_h,corr_v,corr_d,entropy "
                                   "rows and print one Ic per work")
    p.add_argument("scores", help="CSV of works to compare")
    p.set_defaults(func=_cmd_index)

    return parser


def run_command(argv, stdout=None, stderr=None) -> int:
    """Parse argv and run one subcommand, returning the exit status."""
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        return args.func(args, stdout, stderr)
    except _UsageError as e:
        print(f"usage error: {e}", file=stderr)
        return 1
    except FileFormatError as e:
        print(f"file format error: {e}", file=stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=stderr)
        return 2
    except DomainError as e:
        print(f"domain error: {e}", file=stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
