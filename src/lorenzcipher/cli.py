"""Command-line front end: encrypt | decrypt | keystream | analyze | index |
experiment.

Exit codes: 0 success, 1 usage error, 2 I/O or file format error,
3 numeric or domain error or out of memory, as the table _ENDINGS maps
them. exit_status applies it to run_command and the scripts, and prints a
warning as one `warning:` line on stderr that ends with its category.

Each command returns its (output, path) pairs, and run_command writes them
all through _write after it returns, as the scripts write theirs, so a
command that fails writes nothing.

Only analyze and experiment import numpy, and only inside the command,
through the library; the metrics count each histogram and sum the
correlation moments in the compiled kernel library when that loads.
encrypt, decrypt and keystream read and write PGM bytes directly and XOR the
payload in the key kernel, compiled or pure Python; index computes on plain
floats. None of the four imports platform, json or numbers: json is imported
only to read --config, and numbers only for a key field that is not a float.
csv is imported only by analyze and index.
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

from .cipher import GrayImage, reference_image, xor_apply
from .errors import DomainError, FileFormatError
from .keystream import (STRATEGIES, KeystreamConfig, KeystreamQualityWarning, _xor_keystream,
                        generate_keystream)
from .lorenz import (COMPONENTS, DEFAULT_INITIAL, DEFAULT_PARAMS, LorenzParams,
                     LorenzState)
from .metrics import (DIRECTIONS, WorkScores, _entropy, adjacent_correlation,
                      chi_square_uniform, efficiency_index, histogram)
from .pgm import _decode_pgm, _pgm_header, encode_pgm, read_pgm

__all__ = ["run_command", "exit_status", "main"]

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

# The works the paper compares with, which experiment scores its own
# ciphertext against: correlation magnitudes horizontal, vertical and
# diagonal, then entropy.
_PUBLISHED_WORKS = (
    WorkScores("work-a", 0.00045, 0.0015, 0.0040, 7.9973),
    WorkScores("work-b", 0.0028, 0.0059, 0.0031, 7.9969),
    WorkScores("work-c", 0.00083, 0.00223, 0.00650, 7.9998),
    WorkScores("work-d", 0.0016, 0.0025, 0.0003, 7.9826),
)


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


def _write_file(name, data, path) -> None:
    """Write data to the file `name`; an OSError names `path`, the target,
    also when write() raised it without a name (a full disk)."""
    try:
        with open(name, "wb") as fh:
            fh.write(data)
    except OSError as e:
        e.filename = path
        raise


def _make_dirs(path, made) -> None:
    """os.makedirs(path, exist_ok=True), which walks the path as given,
    through each `..` too; each directory it makes is appended to `made`."""
    head, tail = os.path.split(path)
    if not tail:  # a trailing separator
        head, tail = os.path.split(head)
    if head and tail and not os.path.exists(head):
        _make_dirs(head, made)
    try:
        os.mkdir(path)
    except FileExistsError:  # also a path ending in `.` or `..`
        if not os.path.isdir(path):
            raise
    else:
        made.append(path)


def _write(outputs, stdout) -> None:
    """Write one command's (output, path) pairs: every file or none, then
    each output whose path is None to stdout. An output None says that the
    directory at its path must exist: the missing ones are made first and
    removed again, deepest first, if the write fails. The empty path and a
    file path naming a directory are refused first, as open() refuses them.
    A target that exists and is not a regular file (a FIFO, a device,
    /dev/stdout on a pipe) is written in place through the path as given,
    after the rest. Every other file is written beside
    os.path.realpath(path) under a name of its own and renamed into place
    once all are complete, so a symlink stays a link, and two outputs to one
    path leave the last one there."""
    files, directories = [], []
    for output, path in outputs:
        if path is None:
            continue
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if output is None:
            directories.append(path)
            continue
        try:
            mode = os.stat(path).st_mode
        except OSError:  # missing, or a fault that the staged write reports
            mode = stat.S_IFREG
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        data = output.encode("utf-8") if isinstance(output, str) else output
        files.append((data, path, not stat.S_ISREG(mode)))
    staged, made = [], []
    try:
        for path in directories:
            _make_dirs(path, made)
        for index, (data, path, in_place) in enumerate(files):
            if not in_place:
                real = os.path.realpath(path)
                staged.append((f"{real}.{os.getpid()}-{index}.tmp", real))
                _write_file(staged[-1][0], data, path)
        for tmp, real in staged:
            os.replace(tmp, real)
        made = []  # written, so the directories stay
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
        for path in reversed(made):  # deepest first, each empty again
            os.rmdir(path)
    for data, path, in_place in files:
        if in_place:
            _write_file(path, data, path)
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


def _image_metrics(image, counts) -> list[float]:
    """Entropy, from the image's histogram `counts`, then the adjacent
    correlation in each of DIRECTIONS: what analyze and experiment report."""
    return [_entropy(counts), *(adjacent_correlation(image, d) for d in DIRECTIONS)]


def _cmd_analyze(args) -> list:
    image = read_pgm(args.input)
    counts = histogram(image)
    report = _csv_text(("metric", "value"), *zip(
        ("entropy", *(f"corr_{d}" for d in DIRECTIONS)), _image_metrics(image, counts)))
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


def _cmd_experiment(args) -> list:
    size = args.size
    plain = reference_image(size, size)
    key = generate_keystream(replace(DEFAULT_PARAMS, h=args.step), DEFAULT_INITIAL,
                             KeystreamConfig(rows=size, cols=size, strategy=args.strategy))
    cipher = xor_apply(plain, key)
    back = xor_apply(cipher, key)
    if not (back.pixels == plain.pixels).all():  # only a broken xor_apply gets here
        raise DomainError("the decrypted image is not the plaintext")
    key_counts = histogram(GrayImage.from_array(key.data.reshape(size, size)))
    cipher_counts = histogram(cipher)
    pm, cm = _image_metrics(plain, histogram(plain)), _image_metrics(cipher, cipher_counts)
    works = [*_PUBLISHED_WORKS, WorkScores("this-run", *map(abs, cm[1:]), cm[0])]
    report = [
        f"reference experiment: {size}x{size}, step {args.step}, {args.strategy}",
        "round trip exact: True",
        f"\n{'metric':<12}{'plaintext':>14}{'ciphertext':>14}",
        *(f"{name:<12}{p:>14.6f}{c:>14.6f}" for name, p, c in
          zip(("entropy", *(f"corr_{d[0]}" for d in DIRECTIONS)), pm, cm)),
        f"\nciphertext histogram: min {cipher_counts.min()}, max {cipher_counts.max()}, "
        f"chi2 {chi_square_uniform(cipher_counts):.1f}",
        f"keystream: zero fraction {key_counts[0] / key_counts.sum():.4%}, "
        f"distinct {(key_counts > 0).sum()}, entropy {_entropy(key_counts):.4f}, "
        f"chi2 {chi_square_uniform(key_counts):.1f}",
        "\nefficiency index (vs fixed benchmark rows):",
        *(f"  {work.label:<10}{ic:.4f}" for work, ic in zip(works, efficiency_index(works)))]
    images = []
    if args.outdir is not None:
        import pathlib
        out = pathlib.Path(args.outdir)
        named = (("plain", plain), ("cipher", cipher), ("decrypted", back))
        images = [(None, args.outdir), *((encode_pgm(image), str(out / f"{name}.pgm"))
                                         for name, image in named)]
        report.append(f"\nwrote images to {out}")
    return images + [("\n".join(report) + "\n", None)]


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="lorenzcipher",
        description="XOR image cipher keyed by the rounding divergence of "
                    "paired Lorenz pseudo-orbits (binary PGM in/out).",
        epilog="exit codes: 0 success, 1 usage error, 2 I/O or file format "
               "error, 3 numeric or domain error, or out of memory")
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

    # The step defaults to 0.01, not 1e-6: at 1e-6 the two orbit variants
    # agree bit for bit far past the sampled window, so the key is all zeros.
    p = sub.add_parser("experiment", help="the paper's reference experiment",
                       description="encrypt the reference texture, check the round "
                                   "trip, and score the ciphertext against the "
                                   "published works")
    p.add_argument("--step", type=float, default=0.01, help="integration step h (0.01)")
    p.add_argument("--size", type=int, default=256, help="image side in pixels (256)")
    p.add_argument("--strategy", choices=STRATEGIES, default=KeystreamConfig.strategy)
    p.add_argument("--outdir", help="also write plain/cipher/decrypted PGMs here")
    p.set_defaults(func=_cmd_experiment)

    return parser


def _show_warning(stderr, message, category, *_) -> None:
    # The category names what a -W filter matches, e.g.
    # -W ignore::lorenzcipher.KeystreamQualityWarning.
    print(f"warning: {message} ({category.__name__})", file=stderr)


# A failure's (exception types, stderr line, exit status); the first match wins.
_ENDINGS = (
    (_UsageError, "usage error: {}", 1),
    (FileFormatError, "file format error: {}", 2),
    (OSError, "i/o error: {}", 2),
    ((DomainError, KeystreamQualityWarning), "domain error: {}", 3),  # the warning under -W error
    (MemoryError, "domain error: out of memory", 3),  # which seldom has a message
)


def exit_status(call, stderr) -> int:
    """call()'s exit status, or the status of the first _ENDINGS row naming
    the exception it raises, after that row's line on stderr; each warning
    it issues prints as one `warning:` line there. A SystemExit (argparse's)
    keeps its code; any other exception propagates."""
    try:
        with warnings.catch_warnings():  # keeps the -W and PYTHONWARNINGS filters
            warnings.showwarning = partial(_show_warning, stderr)
            return call()
    except SystemExit as e:
        return int(e.code or 0)
    except Exception as e:
        for types, line, status in _ENDINGS:
            if isinstance(e, types):
                print(line.format(e), file=stderr)
                return status
        raise


def run_command(argv, stdout=None, stderr=None) -> int:
    """Parse argv, run one subcommand, write its outputs; return the exit status."""
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr

    def run() -> int:
        with contextlib.redirect_stdout(stdout):  # where --help prints
            args = _build_parser().parse_args(argv)
        _write(args.func(args), stdout)
        return 0
    return exit_status(run, stderr)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
