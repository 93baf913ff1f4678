"""CLI behavior: exit codes, file round trips, report formats, config files."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import PUBLISHED_WORKS, WORKING_PARAMS, quiet_keystream
from lorenzcipher import (COMPONENTS, DEFAULT_INITIAL, DEFAULT_PARAMS,
                          STRATEGIES, FileFormatError, GrayImage,
                          KeystreamConfig, adjacent_correlation,
                          efficiency_index, read_pgm, reference_image,
                          shannon_entropy, write_pgm)
from lorenzcipher.cli import _load_config_file, run_command

WORKING = ["--step", "0.01", "--transient", "3000"]


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run_command(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write_image(path, pixels):
    write_pgm(GrayImage.from_array(np.asarray(pixels, dtype=np.uint8)), path)


@pytest.fixture(scope="module")
def small_pgm(tmp_path_factory):
    path = tmp_path_factory.mktemp("imgs") / "small.pgm"
    rng = np.random.default_rng(2024)
    write_image(path, rng.integers(0, 256, (16, 16), dtype=np.uint8))
    return path


@pytest.fixture(scope="module")
def cipher_run(tmp_path_factory):
    """One working-regime encryption of the 256x256 reference image."""
    base = tmp_path_factory.mktemp("run")
    plain, cipher = base / "plain.pgm", base / "cipher.pgm"
    write_pgm(reference_image(), plain)
    code, _, err = run("encrypt", str(plain), str(cipher), "--step", "0.01")
    assert code == 0, err
    return plain, cipher


class TestUsage:
    def test_no_arguments(self):
        code, _, err = run()
        assert code == 1
        assert "usage error" in err

    def test_unknown_subcommand(self):
        assert run("transmogrify")[0] == 1

    def test_bad_flag_value(self, small_pgm, tmp_path):
        code, _, _ = run("encrypt", str(small_pgm), str(tmp_path / "o.pgm"),
                         "--step", "fast")
        assert code == 1

    def test_help_exits_zero(self):
        code, out, _ = run("--help")
        assert code == 0
        assert "exit codes" in out

    def test_subcommand_help(self):
        for name in ("encrypt", "decrypt", "keystream", "analyze", "index"):
            code, out, _ = run(name, "--help")
            assert code == 0
            assert name in out or "usage" in out


class TestCrypt:
    def test_file_round_trip(self, small_pgm, tmp_path):
        cipher = tmp_path / "c.pgm"
        back = tmp_path / "p.pgm"
        assert run("encrypt", str(small_pgm), str(cipher), *WORKING)[0] == 0
        assert run("decrypt", str(cipher), str(back), *WORKING)[0] == 0
        assert cipher.read_bytes() != small_pgm.read_bytes()
        assert back.read_bytes() == small_pgm.read_bytes()

    def test_encryption_is_deterministic(self, small_pgm, tmp_path):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        run("encrypt", str(small_pgm), str(a), *WORKING)
        run("encrypt", str(small_pgm), str(b), *WORKING)
        assert a.read_bytes() == b.read_bytes()

    def test_key_flags_change_ciphertext(self, small_pgm, tmp_path):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        run("encrypt", str(small_pgm), str(a), *WORKING)
        run("encrypt", str(small_pgm), str(b), *WORKING, "--rho", "46.0")
        assert a.read_bytes() != b.read_bytes()

    def test_missing_input(self, tmp_path):
        code, _, err = run("encrypt", str(tmp_path / "nope.pgm"),
                           str(tmp_path / "o.pgm"))
        assert code == 2
        assert "i/o error" in err

    def test_malformed_pgm(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        for payload, why in ((b"not a pgm", "magic"),
                             (b"P5 2 1 100 \x42\xc8",
                              "pixel value 200 exceeds maxval 100"),
                             (b"P5 " + b"1" * 5000 + b" 1 255\n\x00",
                              "width at byte 3 has 5000 significant digits")):
            bad.write_bytes(payload)
            code, _, err = run("encrypt", str(bad), str(tmp_path / "o.pgm"))
            assert code == 2
            assert "file format error" in err and why in err

    def test_unwritable_output(self, small_pgm, tmp_path):
        target = tmp_path / "missing-dir" / "o.pgm"
        assert run("encrypt", str(small_pgm), str(target), *WORKING)[0] == 2

    def test_empty_output_path_is_io_error(self, small_pgm):
        # The output is a file path; "" is not one, and stdout gets nothing.
        raw = io.BytesIO()
        stdout = io.TextIOWrapper(raw, encoding="utf-8")
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_command(["encrypt", str(small_pgm), "", *WORKING],
                               stdout=stdout, stderr=err)
        stdout.flush()
        assert (code, raw.getvalue()) == (2, b"") and "i/o error" in err.getvalue()

    def test_negative_step_is_domain_error(self, small_pgm, tmp_path):
        code, _, err = run("encrypt", str(small_pgm), str(tmp_path / "o.pgm"),
                           "--step", "-1")
        assert code == 3
        assert "domain error" in err

    def test_blowup_is_domain_error(self, small_pgm, tmp_path):
        code, _, err = run("encrypt", str(small_pgm), str(tmp_path / "o.pgm"),
                           "--step", "10")
        assert code == 3


class TestKeystream:
    def test_hex_matches_library(self):
        cases = [
            (WORKING, WORKING_PARAMS, KeystreamConfig(rows=8, cols=8, transient=3000)),
            # Only the step given: every other setting must be the library's.
            (["--step", "0.01"], replace(DEFAULT_PARAMS, h=0.01),
             KeystreamConfig(8, 8)),
        ]
        for flags, params, config in cases:
            code, out, _ = run("keystream", "--rows", "8", "--cols", "8", *flags)
            assert code == 0
            key = quiet_keystream(params, DEFAULT_INITIAL, config)
            assert out == key.hex() + "\n"
            assert out.strip() == out.strip().lower()

    def test_hex_to_file(self, tmp_path):
        path = tmp_path / "k.hex"
        code, out, _ = run("keystream", "--rows", "4", "--cols", "4",
                           "--output", str(path), *WORKING)
        assert code == 0 and out == ""
        text = path.read_text()
        assert len(text.strip()) == 32
        int(text.strip(), 16)

    def test_raw_to_file(self, tmp_path):
        path = tmp_path / "k.bin"
        code, _, _ = run("keystream", "--rows", "8", "--cols", "8",
                         "--format", "raw", "--output", str(path), *WORKING)
        assert code == 0
        config = KeystreamConfig(rows=8, cols=8, transient=3000)
        key = quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL, config)
        assert path.read_bytes() == key.data.tobytes()

    def test_raw_to_binary_stdout(self):
        stdout = io.TextIOWrapper(io.BytesIO())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_command(["keystream", "--rows", "8", "--cols", "8",
                                "--format", "raw", *WORKING],
                               stdout=stdout, stderr=io.StringIO())
        assert code == 0
        config = KeystreamConfig(rows=8, cols=8, transient=3000)
        key = quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL, config)
        assert stdout.buffer.getvalue() == key.data.tobytes()

    def test_raw_needs_binary_stdout(self):
        code, _, err = run("keystream", "--rows", "2", "--cols", "2",
                           "--format", "raw", *WORKING)
        assert code == 1
        assert "usage error" in err

    def test_zero_rows_is_domain_error(self):
        assert run("keystream", "--rows", "0", "--cols", "8", *WORKING)[0] == 3

    def test_unallocatable_key_is_domain_error(self):
        # 10**14 samples need 1.6 PB for the orbit pair; the allocation fails at once.
        code, _, err = run("keystream", "--rows", "10000000", "--cols",
                           "10000000", "--step", "0.01")
        assert code == 3
        assert "domain error" in err and "n_steps = 2**46.51 " in err


class TestAnalyze:
    def test_report_matches_library_exactly(self, small_pgm, tmp_path):
        report = tmp_path / "r.csv"
        assert run("analyze", str(small_pgm), "--report", str(report))[0] == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "metric,value"
        values = dict(line.split(",", 1) for line in lines[1:])
        assert set(values) == {"entropy", "corr_horizontal", "corr_vertical",
                               "corr_diagonal"}
        image = read_pgm(small_pgm)
        assert float(values["entropy"]) == shannon_entropy(image)
        for direction in ("horizontal", "vertical", "diagonal"):
            assert (float(values[f"corr_{direction}"])
                    == adjacent_correlation(image, direction))

    def test_report_defaults_to_stdout(self, small_pgm):
        code, out, _ = run("analyze", str(small_pgm))
        assert code == 0
        assert out.startswith("metric,value\n")
        assert "corr_diagonal," in out

    def test_histogram_csv(self, small_pgm, tmp_path):
        hist = tmp_path / "h.csv"
        assert run("analyze", str(small_pgm), "--histogram", str(hist))[0] == 0
        lines = hist.read_text().splitlines()
        assert lines[0] == "level,count"
        assert len(lines) == 257
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert sum(counts) == 256

    def test_report_and_histogram_files(self, small_pgm, tmp_path):
        report, hist = tmp_path / "r.csv", tmp_path / "h.csv"
        code, out, _ = run("analyze", str(small_pgm), "--report", str(report),
                           "--histogram", str(hist))
        assert (code, out) == (0, "")
        assert report.read_text() == run("analyze", str(small_pgm))[1]
        assert hist.read_text().startswith("level,count\n0,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.csv", "r.csv"]

    def test_report_and_histogram_to_one_path(self, small_pgm, tmp_path):
        # Both are written in turn, so the histogram, written last, stays.
        both = tmp_path / "o.csv"
        code, out, err = run("analyze", str(small_pgm), "--report", str(both),
                             "--histogram", str(both))
        assert (code, out, err) == (0, "", "")
        assert [p.name for p in tmp_path.iterdir()] == ["o.csv"]
        assert both.read_text().startswith("level,count\n0,")

    @pytest.mark.parametrize("to_file", [True, False], ids=["report-file", "report-stdout"])
    def test_failing_histogram_leaves_no_output(self, small_pgm, tmp_path, to_file):
        report = tmp_path / "r.csv"
        report.write_text("old\n")
        code, out, err = run("analyze", str(small_pgm),
                             "--histogram", str(tmp_path / "missing-dir" / "h.csv"),
                             *(["--report", str(report)] if to_file else []))
        assert (code, out) == (2, "") and "i/o error" in err
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
        assert report.read_text() == "old\n"

    @pytest.mark.parametrize("report_first", [True, False])
    def test_directory_target_writes_nothing(self, small_pgm, tmp_path, report_first):
        # A directory cannot be replaced by a file, so it is refused before
        # either output is staged, and the other target is left alone.
        (tmp_path / "hdir").mkdir()
        report, hdir = str(tmp_path / "r.csv"), str(tmp_path / "hdir")
        targets = (report, hdir) if report_first else (hdir, report)
        code, out, err = run("analyze", str(small_pgm), "--report", targets[0],
                             "--histogram", targets[1])
        assert (code, out) == (2, "")
        assert err == f"i/o error: [Errno 21] Is a directory: '{hdir}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hdir"]
        assert list((tmp_path / "hdir").iterdir()) == []

    def test_constant_image_is_domain_error(self, tmp_path):
        flat = tmp_path / "flat.pgm"
        write_image(flat, np.full((8, 8), 7, dtype=np.uint8))
        code, _, err = run("analyze", str(flat))
        assert code == 3
        assert "domain error" in err

    def test_ciphertext_quality(self, cipher_run):
        _, cipher = cipher_run
        code, out, _ = run("analyze", str(cipher))
        assert code == 0
        values = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert float(values["entropy"]) >= 7.99
        for direction in ("horizontal", "vertical", "diagonal"):
            assert abs(float(values[f"corr_{direction}"])) <= 0.01

    def test_plaintext_is_structured(self, cipher_run):
        plain, _ = cipher_run
        _, out, _ = run("analyze", str(plain))
        values = dict(line.split(",", 1) for line in out.splitlines()[1:])
        assert abs(float(values["corr_horizontal"])) > 0.5


@pytest.mark.parametrize("argv", [
    ["encrypt", "{image}", ""],
    ["keystream", "--rows", "4", "--cols", "4", "--output", ""],
    ["analyze", "{image}", "--report", ""],
    ["analyze", "{image}", "--histogram", ""],
    ["analyze", "{image}", "--report", "r.csv", "--histogram", ""],
    ["analyze", "{image}", "--report", "", "--histogram", "h.csv"],
], ids=["encrypt", "keystream", "analyze-report", "analyze-histogram",
        "analyze-report-file-histogram-empty", "analyze-report-empty-histogram-file"])
def test_empty_output_path_writes_nothing(small_pgm, tmp_path, monkeypatch, argv):
    # "" names no file. Stdout gets nothing, and no file appears in the
    # working directory, where relative outputs and their temporary files go.
    monkeypatch.chdir(tmp_path)
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run_command([arg.format(image=small_pgm) for arg in argv],
                           stdout=stdout, stderr=err)
    stdout.flush()
    assert (code, raw.getvalue()) == (2, b"")
    assert err.getvalue() == "i/o error: [Errno 2] No such file or directory: ''\n"
    assert list(tmp_path.iterdir()) == []


# The warning encrypt gives at the default step h = 1e-6, whose keystream
# is all zeros, and the one line the CLI prints for it.
DEGENERATE = ("keystream zero-byte fraction 100.00% exceeds 2%; the cipher is close "
              "to an identity map (try a larger step h or more iterations)")
DEGENERATE_LINE = f"warning: {DEGENERATE} (KeystreamQualityWarning)\n"


def test_warning_is_one_line(small_pgm, tmp_path):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        code = run_command(["encrypt", str(small_pgm), str(tmp_path / "o.pgm")],
                           stdout=out, stderr=err)
    assert (code, out.getvalue(), err.getvalue()) == (0, "", DEGENERATE_LINE)


@pytest.mark.parametrize("options, env, code, err", [
    ([], {}, 0, DEGENERATE_LINE),
    (["-W", "ignore"], {}, 0, ""),
    (["-W", "ignore::lorenzcipher.KeystreamQualityWarning"], {}, 0, ""),
    ([], {"PYTHONWARNINGS": "ignore"}, 0, ""),
    (["-W", "error"], {}, 1, f"lorenzcipher.keystream.KeystreamQualityWarning: {DEGENERATE}\n"),
], ids=["default", "W-ignore", "W-ignore-category", "PYTHONWARNINGS-ignore", "W-error"])
def test_cli_warning_filters_apply(small_pgm, tmp_path, options, env, code, err):
    # A fresh interpreter, so the filters come from its own options; an
    # error-filtered warning still ends the command before it writes. Without
    # cc the kernel loader also logs a line of its own, which is not checked.
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    base = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    done = subprocess.run(
        [sys.executable, *options, "-m", "lorenzcipher.cli", "encrypt", str(small_pgm),
         str(tmp_path / "o.pgm")], capture_output=True, text=True, timeout=120,
        env={**base, "PYTHONPATH": src, **env})
    stderr = "".join(line for line in done.stderr.splitlines(keepends=True)
                     if not line.startswith("compiled RK4 kernel unavailable"))
    assert (done.returncode, done.stdout) == (code, "")
    assert stderr.endswith(err) and (code == 1 or stderr == err)
    assert (tmp_path / "o.pgm").exists() == (code == 0)


# Scores rows after a valid header: fields mixing text, numbers, zeros and
# non-finite values, so that rows reach both the parser and the index.
score_rows = st.lists(st.lists(st.one_of(
    st.text(max_size=6), st.floats(-2, 2).map(repr),
    st.sampled_from(["0", "nan", "inf", "7.99", '"a,b"', '"x\ny"'])), max_size=6).map(",".join),
    max_size=4).map("\n".join)


@pytest.fixture(scope="module")
def scores_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scores.csv"


class TestIndex:
    HEADER = "label,corr_h,corr_v,corr_d,entropy\n"
    ROWS = "".join(f"{w.label},{w.corr_h},{w.corr_v},{w.corr_d},{w.entropy}\n"
                   for w in PUBLISHED_WORKS)

    def test_benchmark_table(self, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text(self.HEADER + self.ROWS)
        code, out, _ = run("index", str(scores))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "label,ic"
        got = {line.split(",")[0]: float(line.split(",")[1])
               for line in lines[1:]}
        assert got["work-a"] == pytest.approx(0.7687, abs=5e-4)
        assert got["work-b"] == pytest.approx(0.3778, abs=5e-4)
        assert got["work-c"] == pytest.approx(0.5652, abs=5e-4)
        assert got["work-d"] == pytest.approx(0.7198, abs=5e-4)

    def test_matches_library(self, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text(self.HEADER + self.ROWS)
        _, out, _ = run("index", str(scores))
        want = efficiency_index(PUBLISHED_WORKS)
        got = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert got == pytest.approx(want, abs=5e-5)

    def test_bad_header(self, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text("name,h,v,d,e\nw,1,1,1,7\n")
        assert run("index", str(scores))[0] == 2

    def test_non_numeric_value(self, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text(self.HEADER + "w,0.1,zero,0.1,7.9\n")
        assert run("index", str(scores))[0] == 2

    def test_empty_file(self, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text("")
        assert run("index", str(scores))[0] == 2

    def test_header_only(self, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text(self.HEADER)
        assert run("index", str(scores))[0] == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1.5"])
    def test_non_correlation_row(self, tmp_path, bad):
        scores = tmp_path / "s.csv"
        scores.write_text(self.HEADER + self.ROWS + f"b,{bad},0.001,0.001,7.9\n")
        code, out, err = run("index", str(scores))
        assert code == 3
        assert "domain error" in err and "corr_h" in err
        assert out == ""

    def test_zero_correlation_row(self, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text(self.HEADER + "w,0.0,0.001,0.001,7.9\n")
        code, out, err = run("index", str(scores))
        assert code == 3
        assert "domain error" in err
        assert out == ""

    def test_zero_entropy_row(self, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text(self.HEADER + self.ROWS + "w,0.001,0.001,0.001,0.0\n")
        code, out, err = run("index", str(scores))
        assert code == 3
        assert "domain error" in err and "non-positive entropy" in err
        assert out == ""

    def test_label_with_a_comma_is_one_field(self, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text(self.HEADER + '"smith, 2019",0.0028,0.0059,0.0031,7.9969\n'
                          + self.ROWS)
        code, out, _ = run("index", str(scores))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["label", "ic"] and len(rows) == 6
        assert rows[1] == ["smith, 2019", rows[3][1]]  # the same scores as work-b

    @example(b"label,corr_h,corr_v,corr_d,entropy\n\xffw,0.1,0.1,0.1,7.9\n")
    @example(b"label,corr_h,corr_v,corr_d,entropy\n" + b"x" * 200_000 + b",0.1,0.1,0.1,7.9\n")
    @given(st.one_of(st.binary(), score_rows))
    def test_any_scores_exit_cleanly(self, scores_path, payload):
        if isinstance(payload, str):
            payload = (self.HEADER + payload).encode()
        scores_path.write_bytes(payload)
        code, out, err = run("index", str(scores_path))
        assert code in (0, 2, 3), err
        assert code == 0 or (out == "" and err.count("\n") == 1), (out, err)


class TestConfigFile:
    def test_config_applies(self, tmp_path):
        cfg = tmp_path / "key.json"
        cfg.write_text(json.dumps({"step": 0.01, "transient": 3000}))
        _, via_cfg, _ = run("keystream", "--rows", "4", "--cols", "4",
                            "--config", str(cfg))
        _, via_flags, _ = run("keystream", "--rows", "4", "--cols", "4",
                              *WORKING)
        assert via_cfg == via_flags

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "key.json"
        cfg.write_text(json.dumps({"step": 0.01, "transient": 3000,
                                   "rho": 40.0}))
        _, out, _ = run("keystream", "--rows", "4", "--cols", "4",
                        "--config", str(cfg), "--rho", "45.92")
        _, want, _ = run("keystream", "--rows", "4", "--cols", "4", *WORKING)
        assert out == want

    def test_int_config_decrypts_float_flag_ciphertext(self, small_pgm, tmp_path):
        # Int-valued JSON keys are stored as the same floats as the flags,
        # so both must give the same keystream.
        cfg = tmp_path / "ints.json"
        cfg.write_text(json.dumps({"sigma": 16, "beta": 4}))
        enc, dec = tmp_path / "e.pgm", tmp_path / "d.pgm"
        assert run("encrypt", str(small_pgm), str(enc), "--sigma", "16.0",
                   "--beta", "4.0", *WORKING)[0] == 0
        assert enc.read_bytes() != small_pgm.read_bytes()
        assert run("decrypt", str(enc), str(dec), "--config", str(cfg),
                   *WORKING)[0] == 0
        assert dec.read_bytes() == small_pgm.read_bytes()

    def test_missing_config(self, tmp_path):
        code, _, _ = run("keystream", "--rows", "4", "--cols", "4",
                         "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "key.json"
        cfg.write_text("{not json")
        assert run("keystream", "--rows", "4", "--cols", "4",
                   "--config", str(cfg))[0] == 2

    @pytest.mark.parametrize("text", ["[0.01]", "0.01", '"step"'])
    def test_json_that_is_not_an_object(self, tmp_path, text):
        cfg = tmp_path / "key.json"
        cfg.write_text(text)
        code, _, err = run("keystream", "--rows", "4", "--cols", "4",
                           "--config", str(cfg))
        assert code == 2
        assert "expected a JSON object" in err

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "key.json"
        cfg.write_text(json.dumps({"stepp": 0.01}))
        code, _, err = run("keystream", "--rows", "4", "--cols", "4",
                           "--config", str(cfg))
        assert code == 2
        assert "stepp" in err

    def test_bad_strategy_value(self, tmp_path):
        cfg = tmp_path / "key.json"
        cfg.write_text(json.dumps({"strategy": "coin-flip"}))
        assert run("keystream", "--rows", "4", "--cols", "4",
                   "--config", str(cfg))[0] == 2

    def test_number_too_large_for_a_float(self, tmp_path):
        cfg = tmp_path / "key.json"
        cfg.write_text('{"rho": 1' + "0" * 400 + "}")
        code, _, err = run("keystream", "--rows", "4", "--cols", "4",
                           "--config", str(cfg))
        assert code == 3
        assert "rho is too large" in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no integer digit limit in this Python")
    def test_int_past_the_digit_limit(self, tmp_path):
        cfg = tmp_path / "key.json"
        cfg.write_text('{"rho": 1' + "0" * 5000 + "}")
        code, _, err = run("keystream", "--rows", "4", "--cols", "4",
                           "--config", str(cfg))
        assert code == 2
        assert "invalid JSON" in err

    def test_non_integer_transient(self, tmp_path):
        cfg = tmp_path / "key.json"
        cfg.write_text(json.dumps({"transient": 10.5}))
        assert run("keystream", "--rows", "4", "--cols", "4",
                   "--config", str(cfg))[0] == 2


# Each key setting with a non-default value, and the argument of
# generate_keystream and the field it must set: written out here, apart
# from the CLI's own table, so that a wrong row in it fails.
ONE_SETTING = [
    ("sigma", 10.0, "params", "sigma"),
    ("rho", 28.0, "params", "rho"),
    ("beta", 2.5, "params", "beta"),
    ("x0", 0.3, "initial", "x"),
    ("y0", 0.7, "initial", "y"),
    ("z0", 1.3, "initial", "z"),
    ("step", 0.02, "params", "h"),
    ("transient", 3500, "config", "transient"),
    ("strategy", "minmax-scale", "config", "strategy"),
    ("component", "x", "config", "component"),
]

# What a config file may hold for each setting: a float setting takes any
# JSON number but a bool, an int setting an integer, a str one a choice.
CONFIG_KINDS = {"sigma": float, "rho": float, "beta": float, "x0": float,
                "y0": float, "z0": float, "step": float, "transient": int,
                "strategy": STRATEGIES, "component": COMPONENTS}


def json_text(obj):
    """JSON for a dict whose ("digits", n) values become n-digit integers,
    which json.dumps refuses past Python's conversion limit."""
    def value(v):
        return "1" + "0" * (v[1] - 1) if isinstance(v, tuple) else json.dumps(v)
    return "{" + ", ".join(f"{json.dumps(k)}: {value(v)}" for k, v in obj.items()) + "}"


config_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10, 3000),
    st.integers(10**308, 10**4299), st.integers(4301, 4400).map(lambda n: ("digits", n)),
    st.floats(), st.floats(-60, 60), st.text(max_size=12),
    st.sampled_from(STRATEGIES + COMPONENTS),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.floats(), max_size=3))
configs = st.one_of(
    st.dictionaries(st.sampled_from(sorted(CONFIG_KINDS)), config_values, max_size=4),
    st.dictionaries(st.text(max_size=8), config_values, max_size=2))


def has_kind(value, kind):
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float))
    if kind is int:
        return isinstance(value, int)
    return isinstance(value, str) and value in kind


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "key.json"


class TestKeySettings:
    @pytest.mark.parametrize("name, value, argument, field", ONE_SETTING)
    def test_each_setting_sets_its_field(self, tmp_path, name, value, argument, field):
        key = {"params": replace(DEFAULT_PARAMS, h=0.01), "initial": DEFAULT_INITIAL,
               "config": KeystreamConfig(4, 4, transient=3000)}
        base = quiet_keystream(**key).hex()
        key[argument] = replace(key[argument], **{field: value})
        want = quiet_keystream(**key).hex()
        assert want != base
        cfg = tmp_path / "key.json"
        cfg.write_text(json.dumps({"step": 0.01, "transient": 3000, name: value}))
        shape = ("keystream", "--rows", "4", "--cols", "4")
        via_flag = run(*shape, *WORKING, f"--{name}", str(value))
        via_config = run(*shape, "--config", str(cfg))
        assert via_flag == via_config == (0, want + "\n", "")

    @settings(max_examples=300)
    @given(configs)
    def test_config_loader_checks_every_value(self, config_path, obj):
        config_path.write_text(json_text(obj))
        try:
            loaded = _load_config_file(config_path)
        except FileFormatError:
            return
        assert set(loaded) <= set(CONFIG_KINDS)
        for name, value in loaded.items():
            assert has_kind(value, CONFIG_KINDS[name]), (name, value)

    @example(b"\xff\xfe{}")
    @example(b"[" * 200_000)
    @given(st.one_of(configs, st.binary()))
    def test_any_config_exits_cleanly(self, config_path, obj):
        if isinstance(obj, bytes):
            config_path.write_bytes(obj)
        else:
            # A transient from 1001 to 10**18 could run or allocate a long orbit.
            transient = obj.get("transient")
            assume(not (type(transient) is int and 1000 < transient <= 10**18))
            config_path.write_text(json_text(obj))
        code, out, err = run("keystream", "--rows", "2", "--cols", "2",
                             "--config", str(config_path))
        assert code in (0, 2, 3), err
        assert code == 0 or (out == "" and err.count("\n") == 1), (out, err)
