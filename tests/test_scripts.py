"""Smoke tests for the runnable scripts."""

import io
import itertools
import os
import runpy
import shutil
import sys
import warnings
from unittest import mock

import pytest

import lorenzcipher
from conftest import REPO, SCRIPTS, run_python
from lorenzcipher import GrayImage, cli

# Runs the script at argv[2] in a child that first caps its own file size at
# argv[1] bytes, so a write fails part way as on a full disk.
WITH_FILE_LIMIT = ("import resource, runpy, sys; limit = int(sys.argv[1]); "
                   "resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)); "
                   "sys.argv = sys.argv[2:]; runpy.run_path(sys.argv[0], run_name='__main__')")
WARNING_ERROR = "error::lorenzcipher.KeystreamQualityWarning"
# The report of `experiment --size 64`, byte for byte.
REPORT_64 = """\
reference experiment: 64x64, step 0.01, mantissa-lsb
round trip exact: True

metric           plaintext    ciphertext
entropy           7.204040      7.937052
corr_h            0.997160      0.011437
corr_v            0.997336      0.001634
corr_d            0.992584     -0.004235

ciphertext histogram: min 2, max 43, chi2 379.0
keystream: zero fraction 7.6904%, distinct 256, entropy 7.5746, chi2 6787.4

efficiency index (vs fixed benchmark rows):
  work-a    0.7687
  work-b    0.3778
  work-c    0.5652
  work-d    0.7198
  this-run  0.5051
"""
WARNING_64 = ("warning: keystream zero-byte fraction 7.69% exceeds 2%; the cipher is close "
              "to an identity map (try a larger step h or more iterations) "
              "(KeystreamQualityWarning)")


def run_script(*args):
    """run_python(*args) without PYTHONWARNINGS; its stderr as a list of lines,
    less the line the kernel loader logs when it falls back without cc."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    code, out, err = run_python(*args, env=env)
    return code, out, [line for line in err.splitlines()
                       if not line.startswith("compiled RK4 kernel unavailable")]


def test_reference_experiment_runs():
    code, out, err = run_python(SCRIPTS / "run_reference_experiment.py", "--size", "64")
    assert code == 0, err
    assert "round trip exact: True" in out
    assert "efficiency index" in out


def test_reference_experiment_writes_images(tmp_path):
    code, _, err = run_python(SCRIPTS / "run_reference_experiment.py", "--size", "48",
                              "--outdir", str(tmp_path))
    assert code == 0, err
    assert (tmp_path / "plain.pgm").exists()
    assert (tmp_path / "cipher.pgm").exists()


def test_experiment_report_is_pinned():
    code, out, err = run_script(SCRIPTS / "run_reference_experiment.py", "--size", "64")
    assert (code, out, err) == (0, REPORT_64, [WARNING_64])
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code = cli.run_command(["experiment", "--size", "64"], stdout=stdout, stderr=stderr)
    assert (code, stdout.getvalue(), stderr.getvalue()) == (0, REPORT_64, WARNING_64 + "\n")


def test_experiment_usage_error_exits_1_with_one_line():
    code, out, err = run_script(SCRIPTS / "run_reference_experiment.py", "--size", "x")
    assert (code, out) == (1, "")
    assert err == ["usage error: argument --size: invalid int value: 'x'"]


def test_experiment_refuses_an_inexact_round_trip(tmp_path, monkeypatch):
    # Only a broken xor_apply makes the round trip inexact: here the second
    # call, the decryption, comes back with one byte flipped. That is a
    # domain error, not the usage status 1, and nothing is written.
    calls, xor_apply = itertools.count(), cli.xor_apply

    def corrupting(image, key):
        pixels = xor_apply(image, key).pixels.copy()
        pixels[0, 0] ^= next(calls) == 1
        return GrayImage.from_array(pixels)
    monkeypatch.setattr(cli, "xor_apply", corrupting)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.run_command(["experiment", "--size", "16", "--outdir", str(tmp_path / "out")],
                               stdout=stdout, stderr=stderr)
    assert (code, stdout.getvalue()) == (3, "")
    assert stderr.getvalue() == "domain error: the decrypted image is not the plaintext\n"
    assert next(calls) == 2 and list(tmp_path.iterdir()) == []


def test_quality_report_runs():
    code, out, err = run_python(SCRIPTS / "keystream_quality_report.py", "--size", "48",
                                "--steps", "1e-2")
    assert code == 0, err
    assert "step" in out
    assert "1e-02" in out or "0.01" in out


@pytest.mark.parametrize("argv", [
    ("run_reference_experiment.py", "--size", "1"),
    ("run_reference_experiment.py", "--size", "0"),
    ("run_reference_experiment.py", "--step", "0"),
    ("run_reference_experiment.py", "--step", "10"),
    ("keystream_quality_report.py", "--size", "1"),
    ("keystream_quality_report.py", "--steps", "-1"),
], ids=["experiment-size-1", "experiment-size-0", "experiment-step-0", "experiment-blowup",
        "report-size-1", "report-negative-step"])
def test_package_error_exits_3_with_one_line(argv):
    # A package error exits 3 as in the CLI, with no traceback and no part
    # of the report. Without cc the kernel loader logs a line first.
    code, out, err = run_python(SCRIPTS / argv[0], *argv[1:])
    assert code == 3 and "Traceback" not in err
    assert err.splitlines()[-1].startswith("domain error: ")
    assert out == ""


def test_experiment_io_error_exits_2_with_one_line(tmp_path):
    # An output directory under a regular file is an i/o error, as in the CLI.
    (tmp_path / "file").touch()
    code, out, err = run_python(SCRIPTS / "run_reference_experiment.py", "--size", "16",
                                "--outdir", str(tmp_path / "file" / "sub"))
    assert code == 2 and "Traceback" not in err
    assert err.splitlines()[-1].startswith("i/o error: ")
    assert out == ""


def test_experiment_empty_outdir_is_an_io_error():
    # As in the CLI, '' is not a path: the run writes nothing and prints no report.
    code, out, err = run_script(SCRIPTS / "run_reference_experiment.py", "--size", "16",
                                "--outdir", "")
    assert (code, out) == (2, "")
    assert err[-1] == "i/o error: [Errno 2] No such file or directory: ''"


def test_experiment_failed_write_writes_nothing(tmp_path):
    # plain.pgm alone is 65,551 bytes, past the 40 KiB limit.
    code, out, err = run_script("-c", WITH_FILE_LIMIT, "40960",
                                SCRIPTS / "run_reference_experiment.py", "--size", "256",
                                "--outdir", str(tmp_path))
    assert (code, out) == (2, "")
    assert len(err) == 1 and err[0].startswith("i/o error: ")
    assert list(tmp_path.iterdir()) == []


def test_experiment_failed_write_removes_the_directories_it_made(tmp_path):
    # --outdir makes new/ and new/sub/ before the write that fails.
    outdir = tmp_path / "new" / "sub"
    code, out, err = run_script("-c", WITH_FILE_LIMIT, "40960",
                                SCRIPTS / "run_reference_experiment.py", "--size", "256",
                                "--outdir", str(outdir))
    assert (code, out) == (2, "")
    assert err == [f"i/o error: [Errno 27] File too large: '{outdir / 'plain.pgm'}'"]
    assert list(tmp_path.iterdir()) == []


def test_experiment_failed_write_removes_each_directory_of_a_dotdot_path(tmp_path):
    # The path is walked as given, so --outdir new/../other/sub makes new/
    # as well as other/ and other/sub/, and all three go.
    outdir = tmp_path / "new" / ".." / "other" / "sub"
    code, out, err = run_script("-c", WITH_FILE_LIMIT, "40960",
                                SCRIPTS / "run_reference_experiment.py", "--size", "256",
                                "--outdir", str(outdir))
    assert (code, out) == (2, "")
    assert err == [f"i/o error: [Errno 27] File too large: '{outdir / 'plain.pgm'}'"]
    assert list(tmp_path.iterdir()) == []


def test_experiment_warning_is_one_stderr_line():
    # At the default step the keystream is all zeros; the warning is the
    # CLI's stderr line, not part of the report.
    code, out, err = run_script(SCRIPTS / "run_reference_experiment.py", "--step", "1e-6",
                                "--size", "16")
    assert code == 0 and "round trip exact: True" in out and "warning:" not in out
    assert len(err) == 1
    assert err[0].startswith("warning: keystream zero-byte fraction 100.00% exceeds 2%")
    assert err[0].endswith(" (KeystreamQualityWarning)")


def test_experiment_refuses_a_degenerate_keystream_under_w_error():
    code, out, err = run_script("-W", WARNING_ERROR, SCRIPTS / "run_reference_experiment.py",
                                "--step", "1e-6", "--size", "16")
    assert (code, out) == (3, "")
    assert len(err) == 1 and err[0].startswith("domain error: keystream zero-byte fraction")


def test_known_answers_failed_write_keeps_the_old_file(tmp_path):
    # The vectors are 46,215 bytes, past the 16 KiB limit.
    committed = REPO / "tests" / "known_answers.json"
    out = tmp_path / "known_answers.json"
    shutil.copyfile(committed, out)
    code, stdout, err = run_script("-c", WITH_FILE_LIMIT, "16384",
                                   SCRIPTS / "make_known_answers.py", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert len(err) == 1 and err[0].startswith("i/o error: ")
    assert out.read_bytes() == committed.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_known_answers_io_error_exits_2_with_one_line(tmp_path):
    # An --out in a directory that does not exist, after every vector is computed.
    code, out, err = run_python(SCRIPTS / "make_known_answers.py",
                                "--out", str(tmp_path / "missing" / "ka.json"))
    assert code == 2 and "Traceback" not in err
    assert err.splitlines()[-1].startswith("i/o error: ")
    assert out == ""


def test_report_out_of_memory_exits_3_with_one_line(monkeypatch, capsys):
    # The script's own __main__ ending, in process, with the histogram of its
    # first keystream failing as an allocation would.
    monkeypatch.setattr(lorenzcipher, "histogram", mock.Mock(side_effect=MemoryError))
    monkeypatch.setattr(sys, "argv", ["report", "--size", "16", "--steps", "1e-2"])
    with pytest.raises(SystemExit) as ended:
        runpy.run_path(str(SCRIPTS / "keystream_quality_report.py"), run_name="__main__")
    assert ended.value.code == 3
    assert capsys.readouterr() == ("", "domain error: out of memory\n")


def test_known_answers_script_rewrites_the_committed_file(tmp_path):
    out = tmp_path / "known_answers.json"
    code, _, err = run_python(SCRIPTS / "make_known_answers.py", "--out", str(out))
    assert code == 0, err
    assert out.read_bytes() == (REPO / "tests" / "known_answers.json").read_bytes()


def test_cli_smoke_passes():
    code, out, err = run_python(SCRIPTS / "cli_smoke.py")
    assert code == 0, out + err
    assert out.endswith("cli smoke: passed\n")
