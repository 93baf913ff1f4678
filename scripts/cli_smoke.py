#!/usr/bin/env python3
"""Smoke test of the CLI's encrypt, decrypt, keystream and index on the
standard library alone: it needs neither numpy nor pytest.

    PYTHONPATH=src python scripts/cli_smoke.py

It round-trips a 64x64 PGM it writes itself through encrypt and decrypt,
encrypts it again to /dev/stdout in a child process whose stdout is a pipe
(the bytes on the pipe must be the encrypted file's; skipped where there is
no /dev/stdout), encrypts an 8x8 PGM at the default step in a child process
under -W error::lorenzcipher.KeystreamQualityWarning (it must exit 3 with one
`domain error:` line and write nothing), runs `keystream --format raw` for
every vector of tests/known_answers.json (the sha256 and zero-byte count
must match, a blow-up must exit 3), runs `index` on a two-work scores CSV
it writes itself, with and without a UTF-8 byte-order mark (its label,ic
lines must match), and checks in child processes that encrypt, decrypt and keystream import
none of UNUSED_BY_CRYPT and index none of UNUSED_BY_INDEX. Prints the
kernel that ran, each failure, and exits 1 if there was one.
"""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

from lorenzcipher import kernel_backend
from lorenzcipher.cli import run_command

REPO = pathlib.Path(__file__).resolve().parent.parent
# Modules encrypt, decrypt and keystream never import: numpy is for the
# library, json for --config, csv for analyze and index, numbers for key
# fields that are not floats, and platform for nothing.
UNUSED_BY_CRYPT = ("numpy", "platform", "json", "csv", "numbers")
UNUSED_BY_INDEX = ("numpy", "platform", "json", "numbers")
# Each work is best in some category, so every ratio of the index is used.
SCORES = ("label,corr_h,corr_v,corr_d,entropy\n"
          "a,0.002,0.004,-0.001,7.99\n"
          "b,-0.001,0.002,0.004,7.9\n")
INDEX = "label,ic\na,0.7500\nb,0.8097\n"
# The round trip's key flags.
FLAGS = ["--step", "0.01", "--strategy", "minmax-scale"]
# known_answers.json key -> CLI flag, for the hex-encoded floats.
FLOATS = {"sigma": "sigma", "rho": "rho", "beta": "beta", "h": "step",
          "x0": "x0", "y0": "y0", "z0": "z0"}
# Runs each argv, given as one newline-joined argument, and prints the exit
# statuses and which of the modules named in argv[1] got imported.
CHILD = """import io, sys
from lorenzcipher.cli import run_command
codes = [run_command(argv.split("\\n"), stdout=io.StringIO()) for argv in sys.argv[2:]]
print(codes, [m for m in sys.argv[1].split() if m in sys.modules])
"""


def cli(*argv):
    """(exit status, stderr) of one in-process CLI run."""
    err = io.StringIO()
    return run_command(list(argv), stderr=err), err.getvalue()


def round_trip(work: pathlib.Path) -> list[str]:
    plain, enc, dec, key = (work / name for name in ("plain.pgm", "enc.pgm", "dec.pgm", "key.bin"))
    pixels = bytes(range(256)) * 16
    plain.write_bytes(b"P5\n64 64\n255\n" + pixels)
    runs = [cli("encrypt", str(plain), str(enc), *FLAGS),
            cli("decrypt", str(enc), str(dec), *FLAGS),
            cli("keystream", "--rows", "64", "--cols", "64", "--format", "raw",
                "--output", str(key), *FLAGS)]
    if any(code for code, _ in runs):
        return [f"round trip: exit statuses {[code for code, _ in runs]}: "
                + "".join(err for _, err in runs)]
    cipher = bytes(p ^ k for p, k in zip(pixels, key.read_bytes()))
    failures = []
    if enc.read_bytes() != b"P5\n64 64\n255\n" + cipher or cipher == pixels:
        failures.append("round trip: the ciphertext is not the plaintext XOR the keystream")
    if dec.read_bytes() != plain.read_bytes():
        failures.append("round trip: decrypt did not restore the plaintext")
    return failures


def to_piped_stdout(work: pathlib.Path) -> list[str]:
    """Encrypt round_trip's plaintext to /dev/stdout, here a pipe, which the
    CLI writes in place: the bytes must be those of its encrypted file."""
    if not os.path.exists("/dev/stdout"):
        return []
    done = subprocess.run([sys.executable, "-m", "lorenzcipher.cli", "encrypt",
                           str(work / "plain.pgm"), "/dev/stdout", *FLAGS],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    if (done.returncode, done.stdout) != (0, (work / "enc.pgm").read_bytes()):
        return [f"encrypt to /dev/stdout on a pipe: exit {done.returncode}, "
                f"{len(done.stdout)} bytes: {done.stderr.decode().strip()}"]
    return []


def refusal(work: pathlib.Path) -> list[str]:
    """The documented refusal of a degenerate keystream: the default step's
    warning raised as an error exits 3 with one line and writes nothing."""
    plain, out = work / "flat.pgm", work / "refused.pgm"
    plain.write_bytes(b"P5\n8 8\n255\n" + bytes(64))
    done = subprocess.run([sys.executable, "-W", "error::lorenzcipher.KeystreamQualityWarning",
                           "-m", "lorenzcipher.cli", "encrypt", str(plain), str(out)],
                          capture_output=True, text=True, timeout=120)
    # Without cc the kernel loader logs a line of its own first.
    lines = [line for line in done.stderr.splitlines()
             if not line.startswith("compiled RK4 kernel unavailable")]
    if (done.returncode, len(lines), out.exists()) != (3, 1, False) \
            or not lines[0].startswith("domain error: "):
        return [f"refused encrypt: exit {done.returncode}, output written {out.exists()}, "
                f"stderr {done.stderr.strip()!r}"]
    return []


def known_answers(work: pathlib.Path) -> list[str]:
    vectors = json.loads((REPO / "tests" / "known_answers.json").read_text())
    out = work / "key.bin"
    failures = []
    for i, v in enumerate(vectors):
        code, err = cli("keystream", "--rows", str(v["rows"]), "--cols", str(v["cols"]),
                        "--transient", str(v["transient"]), "--strategy", v["strategy"],
                        "--component", v["component"], "--format", "raw", "--output", str(out),
                        # One argument each, so argparse never reads "-1e-05" as an option.
                        *(f"--{flag}={float.fromhex(v[name])!r}" for name, flag in FLOATS.items()))
        if "error" in v:
            if code != 3 or f"domain error: {v['error']['message']}\n" not in err:
                failures.append(f"vector {i}: blow-up exited {code}: {err.strip()}")
            continue
        key = out.read_bytes() if code == 0 else b""
        if (code, hashlib.sha256(key).hexdigest(), key.count(0)) != (0, v["sha256"], v["zero_bytes"]):
            failures.append(f"vector {i}: exit {code}, keystream differs: {err.strip()}")
    return failures


def index(work: pathlib.Path) -> list[str]:
    """index on SCORES, and on a copy that starts with the byte-order mark
    spreadsheet tools write."""
    (work / "scores.csv").write_text(SCORES)
    (work / "bom.csv").write_bytes(b"\xef\xbb\xbf" + SCORES.encode())
    failures = []
    for name in ("scores.csv", "bom.csv"):
        out, err = io.StringIO(), io.StringIO()
        code = run_command(["index", str(work / name)], stdout=out, stderr=err)
        if (code, out.getvalue()) != (0, INDEX):
            failures.append(f"index {name}: exit {code}, got {out.getvalue()!r}: "
                            f"{err.getvalue().strip()}")
    return failures


def import_set(work: pathlib.Path) -> list[str]:
    plain, enc = work / "plain.pgm", work / "enc.pgm"
    crypt = [["encrypt", str(plain), str(enc)], ["decrypt", str(enc), str(work / "dec.pgm")],
             ["keystream", "--rows", "2", "--cols", "3", "--output", str(work / "key.txt")]]
    failures = []
    for unused, argvs in ((UNUSED_BY_CRYPT, crypt),
                          (UNUSED_BY_INDEX, [["index", str(work / "scores.csv")]])):
        done = subprocess.run([sys.executable, "-c", CHILD, " ".join(unused),
                               *map("\n".join, argvs)], capture_output=True, text=True,
                              timeout=120)
        if done.stdout != f"{[0] * len(argvs)} []\n":
            failures.append(f"import set of {argvs[0][0]}: got {done.stdout.strip()!r}, "
                            f"stderr {done.stderr.strip()!r}")
    return failures


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        failures = (round_trip(work) + to_piped_stdout(work) + refusal(work)
                    + known_answers(work) + index(work) + import_set(work))
    print(f"kernel: {kernel_backend()}, Python {sys.version.split()[0]}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("cli smoke: " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
