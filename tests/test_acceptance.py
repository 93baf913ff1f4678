"""Release acceptance gate.

Every test prints one `[acceptance] <id>: PASS/FAIL - <detail>` line and
then asserts, so a plain pytest run doubles as the acceptance report.
Criteria touching keystream statistics are checked twice: once at the
library's literal default settings (step 1e-06) and once at the
desk-scale step 0.01 used by the reference experiment.

Seven tests are red by design and stay red:

* at the default step the paired orbits produce their first differing
  sample near index 152267, far beyond the 67536-sample window of a
  256x256 image, so the default keystream is all zeros (C4/C5/C6/C7
  default-step checks);
* the mantissa-lsb extractor emits even bytes about 68% of the time at
  any step, because the low significand byte is all zeros whenever the
  paired samples share a binade and cancel exactly, so the keystream
  chi-square test fails even in the working regime (C6).

These are measurements, not bugs in the tests; see the README's
limitations section before touching the thresholds.
"""

import io
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from conftest import PUBLISHED_WORKS, WORKING_PARAMS, full_orbits
from conftest import quiet_keystream as _quiet_keystream
from lorenzcipher import (DEFAULT_INITIAL, DEFAULT_PARAMS, DomainError,
                          GrayImage, KeystreamConfig, LorenzParams,
                          LorenzState, adjacent_correlation,
                          chi_square_uniform, decrypt, efficiency_index,
                          encode_pgm, encrypt, histogram, parse_pgm,
                          reference_image, shannon_entropy, write_pgm,
                          xor_apply)
from lorenzcipher.cli import run_command
from lorenzcipher.keystream import STRATEGIES
from lorenzcipher.lorenz import COMPONENTS, ExtensionVariant, _deriv

# 0.1% point of chi-square with 255 degrees of freedom.
CHI2_CUTOFF = float(scipy.stats.chi2.isf(0.001, 255))


def _report(cid, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {cid}: {verdict} - {detail}")
    assert ok, f"{cid}: {detail}"


def _bit_fraction(a, b):
    return float(np.unpackbits(np.bitwise_xor(a, b)).mean())


@pytest.fixture(scope="module")
def ref():
    return reference_image()


@pytest.fixture(scope="module")
def default_run(ref):
    config = KeystreamConfig(rows=256, cols=256)
    key = _quiet_keystream(DEFAULT_PARAMS, DEFAULT_INITIAL, config)
    return key, xor_apply(ref, key)


@pytest.fixture(scope="module")
def working_run(ref):
    config = KeystreamConfig(rows=256, cols=256)
    key = _quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL, config)
    return key, xor_apply(ref, key)


def test_c1_efficiency_index_benchmark():
    got = efficiency_index(PUBLISHED_WORKS)
    want = [0.7687, 0.3778, 0.5652, 0.7198]
    ok = all(abs(g - w) <= 5e-4 for g, w in zip(got, want))
    _report("C1-index", ok,
            f"benchmark Ic values {[round(g, 4) for g in got]} vs published "
            f"{want} (tolerance 5e-4)")


def test_c2_iteration_count():
    got = KeystreamConfig(256, 256).n_samples - 1
    _report("C2-iterations", got == 67535,
            f"KeystreamConfig(256, 256).n_samples - 1 = {got}, want "
            f"2000 + 65536 - 1 = 67535")


def test_c3_random_round_trips():
    rng = random.Random(77)
    arr_rng = np.random.default_rng(77)
    failures = 0
    for i in range(100):
        rows, cols = rng.randint(1, 64), rng.randint(1, 64)
        params = LorenzParams(rng.uniform(8.0, 20.0), rng.uniform(25.0, 60.0),
                              rng.uniform(1.0, 8.0), rng.uniform(1e-4, 0.015))
        initial = LorenzState(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0),
                              rng.uniform(0.0, 10.0))
        config = KeystreamConfig(rows=rows, cols=cols,
                                 strategy=STRATEGIES[i % len(STRATEGIES)],
                                 component=COMPONENTS[i % len(COMPONENTS)])
        image = GrayImage.from_array(
            arr_rng.integers(0, 256, (rows, cols), dtype=np.uint8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            back = decrypt(encrypt(image, params, initial, config),
                           params, initial, config)
        if not np.array_equal(back.pixels, image.pixels):
            failures += 1
    _report("C3-round-trips", failures == 0,
            f"{100 - failures} of 100 randomized encrypt/decrypt round "
            f"trips were pixel-exact")


def test_c4_ciphertext_entropy_default_step(default_run):
    _, cipher = default_run
    entropy = shannon_entropy(cipher)
    _report("C4-entropy-default", entropy >= 7.99,
            f"ciphertext entropy {entropy:.5f} at step 1e-06 (want >= 7.99); "
            f"the keystream is all zeros because the orbit pair first "
            f"differs near sample 152267, beyond the 67536-sample window")


def test_c4_ciphertext_entropy_working_step(working_run):
    _, cipher = working_run
    entropy = shannon_entropy(cipher)
    ratio = histogram(cipher).max() / histogram(cipher).min()
    _report("C4-entropy-working", entropy >= 7.99,
            f"ciphertext entropy {entropy:.5f} at step 0.01 (want >= 7.99); "
            f"histogram max/min ratio {ratio:.4f}")
    assert abs(entropy - 7.9972) < 0.002
    assert ratio <= 1.5


def test_c5_ciphertext_correlation_default_step(default_run):
    _, cipher = default_run
    corrs = {d: adjacent_correlation(cipher, d)
             for d in ("horizontal", "vertical", "diagonal")}
    worst = max(abs(v) for v in corrs.values())
    _report("C5-correlation-default", worst <= 0.01,
            f"max |adjacent correlation| {worst:.4f} at step 1e-06 (want "
            f"<= 0.01); the all-zero keystream leaves the ciphertext equal "
            f"to the plaintext")


def test_c5_ciphertext_correlation_working_step(working_run):
    _, cipher = working_run
    corrs = {d: adjacent_correlation(cipher, d)
             for d in ("horizontal", "vertical", "diagonal")}
    worst = max(abs(v) for v in corrs.values())
    _report("C5-correlation-working", worst <= 0.01,
            f"adjacent correlations at step 0.01: "
            + ", ".join(f"{d} {v:+.6f}" for d, v in corrs.items()))
    assert worst <= 0.0015


def test_c6_zero_fraction_default_step(default_run):
    key, _ = default_run
    frac = float((key.data == 0).mean())
    _report("C6-zeros-default", frac <= 0.02,
            f"zero-byte fraction {frac:.1%} at step 1e-06 (want <= 2%)")


def test_c6_zero_fraction_working_step(working_run):
    key, _ = working_run
    zeros = int((key.data == 0).sum())
    frac = zeros / key.data.size
    _report("C6-zeros-working", frac <= 0.02,
            f"{zeros} of {key.data.size} key bytes are zero "
            f"({frac:.2%}, want <= 2%)")
    assert zeros == 923


def test_c6_keystream_chi_square_default_step(default_run):
    key, _ = default_run
    stat = chi_square_uniform(np.bincount(key.data, minlength=256))
    _report("C6-chi2-default", stat < CHI2_CUTOFF,
            f"keystream chi-square {stat:.0f} at step 1e-06 (cutoff "
            f"{CHI2_CUTOFF:.2f}); a constant stream concentrates all mass "
            f"in one bin")


def test_c6_keystream_chi_square_working_step(working_run):
    key, _ = working_run
    stat = chi_square_uniform(np.bincount(key.data, minlength=256))
    even = float((key.data % 2 == 0).mean())
    _report("C6-chi2-working", stat < CHI2_CUTOFF,
            f"keystream chi-square {stat:.1f} at step 0.01 (cutoff "
            f"{CHI2_CUTOFF:.2f}); {even:.1%} of bytes are even because the "
            f"low significand byte ends in zeros whenever the paired "
            f"samples cancel exactly within a shared binade")
    assert abs(stat - 11900.46) < 1.0


def test_c6_key_sensitivity_default_step(default_run):
    key, _ = default_run
    perturbed = LorenzState(1.0, math.nextafter(0.5, 1.0), 0.9)
    other = _quiet_keystream(DEFAULT_PARAMS, perturbed,
                             KeystreamConfig(rows=256, cols=256))
    frac = _bit_fraction(key.data, other.data)
    _report("C6-sensitivity-default", frac > 0.40,
            f"one-ulp change of y0 flips {frac:.1%} of keystream bits at "
            f"step 1e-06 (want > 40%); both runs emit all-zero bytes")


def test_c6_key_sensitivity_working_step(working_run):
    key, _ = working_run
    perturbed = LorenzState(1.0, math.nextafter(0.5, 1.0), 0.9)
    other = _quiet_keystream(WORKING_PARAMS, perturbed,
                             KeystreamConfig(rows=256, cols=256))
    frac = _bit_fraction(key.data, other.data)
    _report("C6-sensitivity-working", frac > 0.40,
            f"one-ulp change of y0 flips {frac:.2%} of keystream bits at "
            f"step 0.01 (want > 40%)")
    assert abs(frac - 0.48726) < 0.001


def test_c7_rk4_order():
    # With sigma = rho = 0 and beta = 1 the y component from (0, 1, 0)
    # obeys y' = -y, and each RK4 step on it is exactly the scalar step.
    def global_error(n):
        decay = LorenzParams(0.0, 0.0, 1.0, 1.0 / n)
        orbits = full_orbits(LorenzState(0.0, 1.0, 0.0), decay, n)
        return abs(orbits[-1, 0, 1] - math.exp(-1.0))
    ratio = global_error(64) / global_error(128)
    _report("C7-rk4-order", 12.8 <= ratio <= 19.2,
            f"halving h shrinks the global error by {ratio:.2f}x "
            f"(fourth order predicts 16x)")


def test_c7_derivative_exactness():
    rng = random.Random(13)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-30.0, 30.0)
        y = rng.uniform(-30.0, 30.0)
        z = rng.uniform(0.0, 80.0)
        p = LorenzParams(rng.uniform(8.0, 20.0), rng.uniform(25.0, 60.0),
                         rng.uniform(1.0, 8.0), 1e-3)
        exact = Fraction(x) * Fraction(p.rho) - Fraction(x) * Fraction(z) \
            - Fraction(y)
        scale = max(abs(x * p.rho), abs(x * z), abs(y), 1e-300)
        bound = 8 * Fraction(math.ulp(scale))
        for variant in ExtensionVariant:
            _, dy, _ = _deriv(x, y, z, p.sigma, p.rho, p.beta,
                              variant is ExtensionVariant.B)
            err = abs(Fraction(dy) - exact)
            worst = max(worst, float(err / bound))
            if err > bound:
                _report("C7-derivative", False,
                        f"variant {variant.value} dy off by {float(err):.3e} "
                        f"at ({x}, {y}, {z})")
    _report("C7-derivative", True,
            f"both y-derivative forms match exact rational arithmetic to "
            f"within 8 ulp on 1000 random states (worst {worst:.2f} of "
            f"bound)")


def test_c7_bit_determinism():
    a = full_orbits(DEFAULT_INITIAL, WORKING_PARAMS, 500)
    b = full_orbits(DEFAULT_INITIAL, WORKING_PARAMS, 500)
    same = (np.array_equal(a[:, 0], b[:, 0])
            and np.array_equal(a[:, 1], b[:, 1]))
    _report("C7-determinism", same,
            "repeated integration reproduces both orbits bit for bit")


def test_c7_variant_divergence_default_step():
    orbits = full_orbits(DEFAULT_INITIAL, DEFAULT_PARAMS, 67536)
    differing = int((orbits[:, 0] != orbits[:, 1]).any(axis=1).sum())
    _report("C7-divergence-default", differing > 0,
            f"{differing} of 67536 samples differ between the two "
            f"derivative forms at step 1e-06; longer runs put the first "
            f"difference near sample 152267")


def test_c7_variant_divergence_working_step():
    orbits = full_orbits(DEFAULT_INITIAL, WORKING_PARAMS, 3000)
    mask = (orbits[:, 0] != orbits[:, 1]).any(axis=1)
    first = int(np.argmax(mask)) if mask.any() else -1
    _report("C7-divergence-working", first >= 0,
            f"first differing sample at index {first} of 3000 at step 0.01 "
            f"({int(mask.sum())} samples differ in total)")
    assert first == 8


def test_c8_metric_oracle():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(25):
        rows, cols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        pixels = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
        image = GrayImage.from_array(pixels)
        counts = [0] * 256
        for v in pixels.ravel():
            counts[int(v)] += 1
        want_entropy = -sum(c / pixels.size * math.log2(c / pixels.size)
                            for c in counts if c)
        assert shannon_entropy(image) == pytest.approx(want_entropy,
                                                       rel=1e-12, abs=1e-12)
        for direction in ("horizontal", "vertical", "diagonal"):
            xs, ys = [], []
            for i in range(rows):
                for j in range(cols):
                    di = int(direction != "horizontal")
                    dj = int(direction != "vertical")
                    if i + di < rows and j + dj < cols:
                        xs.append(float(pixels[i, j]))
                        ys.append(float(pixels[i + di, j + dj]))
            ex, ey = sum(xs) / len(xs), sum(ys) / len(ys)
            sx = math.sqrt(sum((v - ex) ** 2 for v in xs) / len(xs))
            sy = math.sqrt(sum((v - ey) ** 2 for v in ys) / len(ys))
            if sx == 0.0 or sy == 0.0:
                continue
            cov = sum((a - ex) * (b - ey)
                      for a, b in zip(xs, ys)) / len(xs)
            assert adjacent_correlation(image, direction) == pytest.approx(
                cov / (sx * sy), rel=1e-12, abs=1e-12)
            checked += 1
    uniform = GrayImage.from_array(
        np.arange(256, dtype=np.uint8).reshape(16, 16))
    assert shannon_entropy(uniform) == 8.0
    flat = GrayImage.from_array(np.full((4, 4), 9, dtype=np.uint8))
    assert shannon_entropy(flat) == 0.0
    with pytest.raises(DomainError, match="zero standard deviation"):
        adjacent_correlation(flat, "horizontal")
    _report("C8-metrics", True,
            f"{checked} correlation values match a direct-definition "
            f"oracle to 12 digits; uniform entropy is exactly 8.0 and "
            f"constant-image entropy exactly 0.0")


def test_c9_formats_and_cli(tmp_path):
    rng = np.random.default_rng(55)
    for _ in range(20):
        shape = (int(rng.integers(1, 32)), int(rng.integers(1, 32)))
        pixels = rng.integers(0, 256, shape, dtype=np.uint8)
        back = parse_pgm(encode_pgm(GrayImage.from_array(pixels)))
        assert np.array_equal(back.pixels, pixels)
    plain = tmp_path / "plain.pgm"
    cipher = tmp_path / "cipher.pgm"
    restored = tmp_path / "restored.pgm"
    write_pgm(GrayImage.from_array(
        rng.integers(0, 256, (32, 32), dtype=np.uint8)), plain)
    flags = ["--step", "0.01", "--transient", "3000"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc1 = run_command(["encrypt", str(plain), str(cipher), *flags],
                          stdout=out, stderr=err)
        rc2 = run_command(["decrypt", str(cipher), str(restored), *flags],
                          stdout=out, stderr=err)
    ok = (rc1 == 0 and rc2 == 0
          and cipher.read_bytes() != plain.read_bytes()
          and restored.read_bytes() == plain.read_bytes())
    _report("C9-formats", ok,
            "20 PGM encode/parse round trips are byte-exact and the CLI "
            "encrypt/decrypt cycle restores the input file bit for bit")
