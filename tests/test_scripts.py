"""Smoke tests for the runnable scripts."""

import os
import runpy
import shutil
import sys
from unittest import mock

import pytest

import lorenzcipher
from conftest import REPO, SCRIPTS, run_python

# Runs the script at argv[2] in a child that first caps its own file size at
# argv[1] bytes, so a write fails part way as on a full disk.
WITH_FILE_LIMIT = ("import resource, runpy, sys; limit = int(sys.argv[1]); "
                   "resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)); "
                   "sys.argv = sys.argv[2:]; runpy.run_path(sys.argv[0], run_name='__main__')")
WARNING_ERROR = "error::lorenzcipher.KeystreamQualityWarning"


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
    # Exit 1 is run_reference_experiment.py's failed round trip, so a
    # package error exits 3 as in the CLI, with no traceback and no part of
    # the report. Without cc the kernel loader logs a line first.
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
