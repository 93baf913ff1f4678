#!/usr/bin/env python3
"""Smoke test of the CLI's encrypt, decrypt and keystream on the standard
library alone: it needs neither numpy nor pytest.

    PYTHONPATH=src python scripts/cli_smoke.py

It round-trips a 64x64 PGM it writes itself through encrypt and decrypt,
runs `keystream --format raw` for every vector of tests/known_answers.json
(the sha256 and zero-byte count must match, a blow-up must exit 3), and
checks in a child process that the three commands import none of
UNUSED_BY_CRYPT. Prints the kernel that ran, each failure, and exits 1 if
there was one.
"""

import hashlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

from lorenzcipher import kernel_backend
from lorenzcipher.cli import run_command

REPO = pathlib.Path(__file__).resolve().parent.parent
UNUSED_BY_CRYPT = ("numpy", "platform", "json", "csv", "numbers")
# known_answers.json key -> CLI flag, for the hex-encoded floats.
FLOATS = {"sigma": "sigma", "rho": "rho", "beta": "beta", "h": "step",
          "x0": "x0", "y0": "y0", "z0": "z0"}
# Runs each argv, given as one newline-joined argument, and prints the exit
# statuses and which of the modules named in argv[1] got imported.
CHILD = """import sys
from lorenzcipher.cli import run_command
codes = [run_command(argv.split("\\n")) for argv in sys.argv[2:]]
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
    flags = ["--step", "0.01", "--strategy", "minmax-scale"]
    runs = [cli("encrypt", str(plain), str(enc), *flags),
            cli("decrypt", str(enc), str(dec), *flags),
            cli("keystream", "--rows", "64", "--cols", "64", "--format", "raw",
                "--output", str(key), *flags)]
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


def import_set(work: pathlib.Path) -> list[str]:
    plain, enc = work / "plain.pgm", work / "enc.pgm"
    argvs = [["encrypt", str(plain), str(enc)], ["decrypt", str(enc), str(work / "dec.pgm")],
             ["keystream", "--rows", "2", "--cols", "3", "--output", str(work / "key.txt")]]
    done = subprocess.run([sys.executable, "-c", CHILD, " ".join(UNUSED_BY_CRYPT),
                           *map("\n".join, argvs)], capture_output=True, text=True, timeout=120)
    if done.stdout != "[0, 0, 0] []\n":
        return [f"import set: got {done.stdout.strip()!r}, stderr {done.stderr.strip()!r}"]
    return []


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        failures = round_trip(work) + known_answers(work) + import_set(work)
    print(f"kernel: {kernel_backend()}, Python {sys.version.split()[0]}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("cli smoke: " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
