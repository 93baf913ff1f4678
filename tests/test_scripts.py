"""Smoke tests for the runnable scripts."""

import runpy
import sys
from unittest import mock

import pytest

import lorenzcipher
from conftest import REPO, SCRIPTS, run_python


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
