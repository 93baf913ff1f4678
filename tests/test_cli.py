"""CLI behavior: exit codes, file round trips, report formats, config files."""

import io
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lorenzcipher import (DEFAULT_INITIAL, DEFAULT_PARAMS, GrayImage,
                          KeystreamConfig, LorenzParams, WorkScores,
                          adjacent_correlation, efficiency_index,
                          generate_keystream, read_pgm, reference_image,
                          shannon_entropy, write_pgm)
from lorenzcipher.cli import run_command

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
                              "pixel value 200 exceeds maxval 100")):
            bad.write_bytes(payload)
            code, _, err = run("encrypt", str(bad), str(tmp_path / "o.pgm"))
            assert code == 2
            assert "file format error" in err and why in err

    def test_unwritable_output(self, small_pgm, tmp_path):
        target = tmp_path / "missing-dir" / "o.pgm"
        assert run("encrypt", str(small_pgm), str(target), *WORKING)[0] == 2

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
            (WORKING, LorenzParams(16.0, 45.92, 4.0, 0.01),
             KeystreamConfig(rows=8, cols=8, transient=3000)),
            # Only the step given: every other setting must be the library's.
            (["--step", "0.01"], replace(DEFAULT_PARAMS, h=0.01),
             KeystreamConfig(8, 8)),
        ]
        for flags, params, config in cases:
            code, out, _ = run("keystream", "--rows", "8", "--cols", "8", *flags)
            assert code == 0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                key = generate_keystream(params, DEFAULT_INITIAL, config)
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
        params = LorenzParams(16.0, 45.92, 4.0, 0.01)
        config = KeystreamConfig(rows=8, cols=8, transient=3000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            key = generate_keystream(params, DEFAULT_INITIAL, config)
        assert path.read_bytes() == key.data.tobytes()

    def test_raw_needs_binary_stdout(self):
        code, _, err = run("keystream", "--rows", "2", "--cols", "2",
                           "--format", "raw", *WORKING)
        assert code == 1
        assert "usage error" in err

    def test_zero_rows_is_domain_error(self):
        assert run("keystream", "--rows", "0", "--cols", "8", *WORKING)[0] == 3

    def test_unallocatable_key_is_domain_error(self):
        # 10**14 samples need 4.8 PB of orbits; the allocation fails at once.
        code, _, err = run("keystream", "--rows", "10000000", "--cols",
                           "10000000", "--step", "0.01")
        assert code == 3
        assert "domain error" in err and "n_steps = 100000000002000" in err


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


class TestIndex:
    HEADER = "label,corr_h,corr_v,corr_d,entropy\n"
    ROWS = ("work-a,0.00045,0.0015,0.0040,7.9973\n"
            "work-b,0.0028,0.0059,0.0031,7.9969\n"
            "work-c,0.00083,0.00223,0.00650,7.9998\n"
            "work-d,0.0016,0.0025,0.0003,7.9826\n")

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
        table = [WorkScores("work-a", 0.00045, 0.0015, 0.0040, 7.9973),
                 WorkScores("work-b", 0.0028, 0.0059, 0.0031, 7.9969),
                 WorkScores("work-c", 0.00083, 0.00223, 0.00650, 7.9998),
                 WorkScores("work-d", 0.0016, 0.0025, 0.0003, 7.9826)]
        want = efficiency_index(table)
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

    def test_zero_correlation_row(self, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text(self.HEADER + "w,0.0,0.001,0.001,7.9\n")
        code, _, err = run("index", str(scores))
        assert code == 3
        assert "domain error" in err


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
        # Int-valued JSON keys run the pure-Python kernel, float flags may
        # run the compiled one; both must give the same keystream.
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

    def test_non_integer_transient(self, tmp_path):
        cfg = tmp_path / "key.json"
        cfg.write_text(json.dumps({"transient": 10.5}))
        assert run("keystream", "--rows", "4", "--cols", "4",
                   "--config", str(cfg))[0] == 2
