"""Smoke tests for the runnable scripts."""

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *argv],
        capture_output=True, text=True, timeout=300)


def test_reference_experiment_runs():
    proc = run_script("run_reference_experiment.py", "--size", "64")
    assert proc.returncode == 0, proc.stderr
    assert "round trip exact: True" in proc.stdout
    assert "efficiency index" in proc.stdout


def test_reference_experiment_writes_images(tmp_path):
    proc = run_script("run_reference_experiment.py", "--size", "48",
                      "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "plain.pgm").exists()
    assert (tmp_path / "cipher.pgm").exists()


def test_quality_report_runs():
    proc = run_script("keystream_quality_report.py", "--size", "48",
                      "--steps", "1e-2")
    assert proc.returncode == 0, proc.stderr
    assert "step" in proc.stdout
    assert "1e-02" in proc.stdout or "0.01" in proc.stdout


def test_known_answers_script_rewrites_the_committed_file(tmp_path):
    out = tmp_path / "known_answers.json"
    proc = run_script("make_known_answers.py", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (REPO / "tests" / "known_answers.json").read_bytes()


def test_cli_smoke_passes():
    proc = run_script("cli_smoke.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("cli smoke: passed\n")
