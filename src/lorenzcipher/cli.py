"""Command-line front end: encrypt | decrypt | keystream | analyze | index.

Exit codes: 0 success, 1 usage error, 2 I/O or file format error,
3 numeric or domain error.

Each command returns its (output, path) pairs, and run_command writes them
all through one writer after it returns, so a command that fails writes nothing.

Only analyze imports numpy, through the metrics. encrypt, decrypt and
keystream read and write PGM bytes directly and XOR the payload in the key
kernel, compiled or pure Python; index computes on plain floats. None of the
four imports platform, json or numbers: json is imported only to read
--config, and numbers only for a key field that is not a float. csv is
imported only by analyze and index. A warning, such as a degenerate
keystream's, prints as one `warning:` line on stderr that ends with the
warning's category; a KeystreamQualityWarning that a -W filter raises as an
error is a domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import os
import stat
import sys
import warnings
from dataclasses import fields, replace
from functools import partial

from .errors import DomainError, FileFormatError
from .keystream import STRATEGIES, KeystreamConfig, KeystreamQualityWarning, _xor_keystream
from .lorenz import (COMPONENTS, DEFAULT_INITIAL, DEFAULT_PARAMS, LorenzParams,
                     LorenzState)
from .metrics import (DIRECTIONS, WorkScores, _entropy, adjacent_correlation,
                      efficiency_index, histogram)
from .pgm import _decode_pgm, _pgm_header, read_pgm

__all__ = ["run_command", "main"]

# The key settings, each both a flag and a JSON config key, in flag order:
# name -> (owner, field, help blurb, choices). Each sets one field of its
# owner; its type and default are the owner's, so unset ones keep the
# library defaults.
_KEY_SETTINGS = {
    "sigma": (DEFAULT_PARAMS, "sigma", "", None),
    "rho": (DEFAULT_PARAMS, "rho", "", None),
    "beta": (DEFAULT_PARAMS, "beta", "", None),
    "x0": (DEFAULT_INITIAL, "x", "initial x", None),
    "y0": (DEFAULT_INITIAL, "y", "initial y", None),
    "z0": (DEFAULT_INITIAL, "z", "initial z", None),
    "step": (DEFAULT_PARAMS, "h", "integration step h", None),
    "transient": (KeystreamConfig, "transient", "leading samples to discard", None),
    "strategy": (KeystreamConfig, "strategy", "byte extraction strategy", STRATEGIES),
    "component": (KeystreamConfig, "component",
                  "state component fed to the error bound", COMPONENTS),
}
# What a config value of each setting type must be, as the error says it.
_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"),
          str: (str, "a string")}

_SCORES_HEADER = [f.name for f in fields(WorkScores)]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_key_flags(p: argparse.ArgumentParser) -> None:
    grp = p.add_argument_group(
        "key settings",
        f"the full key is ({', '.join(_KEY_SETTINGS)}); defaults in parentheses")
    grp.add_argument("--config", metavar="FILE",
                     help="JSON file supplying any of the key settings; "
                          "explicit flags override it")
    for name, (owner, field, blurb, choices) in _KEY_SETTINGS.items():
        default = getattr(owner, field)
        grp.add_argument(f"--{name}", type=type(default), choices=choices,
                         help=f"{blurb} ({default})".lstrip())


def _read_text(path, kind: str) -> str:
    """The text of the `kind` file at `path`, which must be UTF-8, without
    one leading byte-order mark, which spreadsheet tools write."""
    with open(path, "rb") as fh:
        try:
            return fh.read().decode("utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as e:
            raise FileFormatError(f"{kind} {path}: not UTF-8 at byte {e.start}") from None


def _write(outputs, stdout) -> None:
    """Write one command's (output, path) pairs: every file or none, then
    each output whose path is None to stdout. The empty path and a
    directory are refused first, as open() refuses them. A target that
    exists and is not a regular file (a FIFO, a device, /dev/stdout on a
    pipe) is written in place through the path as given, after the rest.
    Every other file is written beside os.path.realpath(path) under a name
    of its own and renamed into place once all are complete, so a symlink
    stays a link, and two outputs to one path leave the last one there."""
    files = []
    for output, path in outputs:
        if path is None:
            continue
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        try:
            mode = os.stat(path).st_mode
        except OSError:  # missing, or a fault that the staged write reports
            mode = stat.S_IFREG
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        data = output.encode("utf-8") if isinstance(output, str) else output
        files.append((data, path, not stat.S_ISREG(mode)))
    staged = []
    try:
        for index, (data, path, in_place) in enumerate(files):
            if not in_place:
                real = os.path.realpath(path)
                staged.append((f"{real}.{os.getpid()}-{index}.tmp", real))
                try:
                    with open(staged[-1][0], "wb") as fh:
                        fh.write(data)
                except OSError as e:
                    if e.filename is not None:  # name the target, not its temporary file
                        e.filename = path
                    raise
        for tmp, real in staged:
            os.replace(tmp, real)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
    for data, path, in_place in files:
        if in_place:
            with open(path, "wb") as fh:
                fh.write(data)
    for output in (output for output, path in outputs if path is None):
        if isinstance(output, str):
            stdout.write(output)
        elif hasattr(stdout, "buffer"):
            stdout.buffer.write(output)
        else:
            raise _UsageError("raw keystream output needs --output or a binary stdout")


def _csv_text(*rows) -> str:
    import csv
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _load_config_file(path) -> dict:
    import json
    try:
        raw = json.loads(_read_text(path, "config"))
    except (ValueError, RecursionError) as e:  # also a too-long int or too-deep nesting
        raise FileFormatError(f"config {path}: invalid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise FileFormatError(f"config {path}: expected a JSON object")
    unknown = sorted(set(raw) - set(_KEY_SETTINGS))
    if unknown:
        raise FileFormatError(f"config {path}: unknown keys {unknown}")
    for key, value in raw.items():
        owner, field, _, choices = _KEY_SETTINGS[key]
        accepted, what = _KINDS[type(getattr(owner, field))]
        if not isinstance(value, accepted) or isinstance(value, bool):
            raise FileFormatError(f"config {path}: {key} must be {what}")
        if choices and value not in choices:
            raise FileFormatError(f"config {path}: {key} must be one of {choices}")
    return raw


def _build_key_inputs(args) -> tuple[LorenzParams, LorenzState, partial]:
    """Params, initial state and a KeystreamConfig factory of (rows, cols)."""
    settings = _load_config_file(args.config) if args.config else {}
    settings.update((name, getattr(args, name)) for name in _KEY_SETTINGS
                    if getattr(args, name) is not None)
    chosen = {DEFAULT_PARAMS: {}, DEFAULT_INITIAL: {}, KeystreamConfig: {}}
    for name, value in settings.items():
        owner, field, _, _ = _KEY_SETTINGS[name]
        chosen[owner][field] = value
    return (replace(DEFAULT_PARAMS, **chosen[DEFAULT_PARAMS]),
            replace(DEFAULT_INITIAL, **chosen[DEFAULT_INITIAL]),
            partial(KeystreamConfig, **chosen[KeystreamConfig]))


def _cmd_crypt(args) -> list:
    params, initial, make_config = _build_key_inputs(args)
    with open(args.input, "rb") as fh:
        rows, cols, payload = _decode_pgm(fh.read())
    output = _xor_keystream(params, initial, make_config(rows, cols), payload)
    return [(_pgm_header(rows, cols) + output, args.output)]  # a path, never None


def _cmd_keystream(args) -> list:
    params, initial, make_config = _build_key_inputs(args)
    key = _xor_keystream(params, initial, make_config(args.rows, args.cols))
    return [(key.hex() + "\n" if args.format == "hex" else key, args.output)]


def _cmd_analyze(args) -> list:
    image = read_pgm(args.input)
    counts = histogram(image)
    report = _csv_text(("metric", "value"), ("entropy", _entropy(counts)), *(
        (f"corr_{d}", adjacent_correlation(image, d)) for d in DIRECTIONS))
    if args.histogram is None:
        return [(report, args.report)]
    return [(report, args.report),
            (_csv_text(("level", "count"), *enumerate(counts)), args.histogram)]


def _read_scores(path) -> list[WorkScores]:
    import csv
    try:
        rows = list(csv.reader(io.StringIO(_read_text(path, "scores"), newline="")))
    except csv.Error as e:  # a field past the csv module's size limit
        raise FileFormatError(f"scores {path}: {e}") from None
    if not rows:
        raise FileFormatError(f"scores {path}: empty file")
    if [c.strip() for c in rows[0]] != _SCORES_HEADER:
        raise FileFormatError(f"scores {path}: header must be {','.join(_SCORES_HEADER)}")
    scores = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(_SCORES_HEADER):
            raise FileFormatError(f"scores {path}: line {lineno}: "
                                  f"expected {len(_SCORES_HEADER)} fields")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise FileFormatError(
                f"scores {path}: line {lineno}: non-numeric value") from None
        scores.append(WorkScores(row[0].strip(), *values))
    if not scores:
        raise FileFormatError(f"scores {path}: no data rows")
    return scores


def _cmd_index(args) -> list:
    scores = _read_scores(args.scores)
    rows = [(work.label, f"{ic:.4f}") for work, ic in zip(scores, efficiency_index(scores))]
    return [(_csv_text(("label", "ic"), *rows), None)]


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
                       description=f"read {','.join(_SCORES_HEADER)} rows "
                                   "and print one Ic per work")
    p.add_argument("scores", help="CSV of works to compare")
    p.set_defaults(func=_cmd_index)

    return parser


def _show_warning(stderr, message, category, *_) -> None:
    # The category names what a -W filter matches, e.g.
    # -W ignore::lorenzcipher.KeystreamQualityWarning.
    print(f"warning: {message} ({category.__name__})", file=stderr)


def run_command(argv, stdout=None, stderr=None) -> int:
    """Parse argv, run one subcommand, write its outputs; return the exit status."""
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    try:
        with contextlib.redirect_stdout(stdout):  # where --help prints
            args = _build_parser().parse_args(argv)
        with warnings.catch_warnings():  # keeps the -W and PYTHONWARNINGS filters
            warnings.showwarning = partial(_show_warning, stderr)
            _write(args.func(args), stdout)
        return 0
    except _UsageError as e:
        print(f"usage error: {e}", file=stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except FileFormatError as e:
        print(f"file format error: {e}", file=stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=stderr)
        return 2
    except (DomainError, KeystreamQualityWarning) as e:  # the warning under -W error
        print(f"domain error: {e}", file=stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
