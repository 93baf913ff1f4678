"""Keystream unit tests: iteration law, error bound, byte extraction,
generation, and the working-regime regression pins."""

import hashlib
import math
import struct
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import WORKING_PARAMS, needs_c, pure_python, quiet_keystream
from lorenzcipher import (DEFAULT_INITIAL, DEFAULT_PARAMS, STRATEGIES,
                          DomainError, GrayImage, Keystream, KeystreamConfig,
                          KeystreamQualityWarning, LorenzState, decrypt,
                          encrypt, generate_keystream)
from lorenzcipher.keystream import extract_bytes, lower_bound_error


def make_pair(a_values, b_values):
    """Build an (n, 2) pair: variant A's samples, then variant B's."""
    return np.column_stack([np.asarray(a_values, dtype=np.float64),
                            np.asarray(b_values, dtype=np.float64)])


class TestSampleCount:
    def test_known_values(self):
        assert KeystreamConfig(256, 256).n_samples == 67536
        assert KeystreamConfig(1, 1).n_samples == 2001
        assert KeystreamConfig(512, 512).n_samples == 264144

    def test_follows_transient(self):
        assert KeystreamConfig(256, 256, transient=3000).n_samples == 68536
        assert KeystreamConfig(4, 4, transient=0).n_samples == 16

    def test_rejects_nonpositive_dimensions(self):
        for rows, cols in ((0, 5), (5, 0), (-1, 3)):
            with pytest.raises(DomainError):
                KeystreamConfig(rows, cols)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            KeystreamConfig(rows=0, cols=4)
        with pytest.raises(DomainError):
            KeystreamConfig(rows=4, cols=4, transient=-1)
        with pytest.raises(DomainError):
            KeystreamConfig(rows=4, cols=4, strategy="base64")
        with pytest.raises(DomainError):
            KeystreamConfig(rows=4, cols=4, component="w")

    @pytest.mark.parametrize("field", ["strategy", "component"])
    def test_rejects_a_choice_that_is_not_a_string(self, field):
        with pytest.raises(DomainError, match=f"unknown {field} "):
            KeystreamConfig(rows=4, cols=4, **{field: np.array(["x", "y"])})

    @pytest.mark.parametrize("bad", [2.0, 10.5, True, "4", None])
    def test_rejects_non_int_sizes(self, bad):
        with pytest.raises(DomainError):
            KeystreamConfig(rows=bad, cols=4)
        with pytest.raises(DomainError):
            KeystreamConfig(rows=4, cols=bad)
        with pytest.raises(DomainError):
            KeystreamConfig(rows=4, cols=4, transient=bad)

    @pytest.mark.parametrize("field", ["rows", "cols", "transient"])
    def test_rejects_a_negative_count_too_long_to_print(self, field):
        # -10**5000 has too many digits for str(); the message must not
        # try to print it.
        sizes = {"rows": 4, "cols": 4, field: -10**5000}
        with pytest.raises(DomainError, match=f"{field} must be >= "):
            KeystreamConfig(**sizes)

    def test_keystream_length_is_validated(self):
        config = KeystreamConfig(rows=2, cols=2)
        with pytest.raises(DomainError):
            Keystream(np.zeros(5, dtype=np.uint8), config)


class TestKeystreamData:
    def test_writable_source_is_copied_read_only(self):
        source = np.arange(4, dtype=np.uint8)
        ks = Keystream(source, KeystreamConfig(rows=2, cols=2))
        assert not ks.data.flags.writeable
        assert not np.shares_memory(ks.data, source)
        source[0] = 99
        assert ks.data.tolist() == [0, 1, 2, 3]
        with pytest.raises(ValueError):
            ks.data[0] = 7

    def test_read_only_source_is_kept(self):
        source = np.arange(4, dtype=np.uint8)
        source.setflags(write=False)
        assert Keystream(source, KeystreamConfig(rows=2, cols=2)).data is source

    def test_strided_source_is_copied_contiguous(self):
        source = np.arange(8, dtype=np.uint8)
        source.setflags(write=False)
        ks = Keystream(source[::2], KeystreamConfig(rows=2, cols=2))
        assert ks.data.flags.c_contiguous and not ks.data.flags.writeable
        assert ks.data.tolist() == [0, 2, 4, 6]

    def test_rejects_a_list(self):
        with pytest.raises(DomainError, match="list"):
            Keystream([0, 0, 0, 0], KeystreamConfig(rows=2, cols=2))

    @pytest.mark.parametrize("config", [None, SimpleNamespace(rows=2, cols=2)],
                             ids=["none", "look-alike"])
    def test_rejects_a_config_of_another_class(self, config):
        with pytest.raises(DomainError, match="config must be a KeystreamConfig, got "
                                              f"{type(config).__name__}"):
            Keystream(np.zeros(4, np.uint8), config)

    def test_generated_data_is_read_only(self):
        ks = quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL,
                             KeystreamConfig(rows=4, cols=4))
        assert not ks.data.flags.writeable


class TestLowerBoundError:
    def test_hand_values(self):
        pair = make_pair([1.0, 3.0, 5.0], [0.5, 3.0, -5.0])
        delta = lower_bound_error(pair)
        assert delta.tolist() == [0.25, 0.0, 5.0]

    def test_identical_orbits_give_zero(self):
        pair = make_pair([1.0, -2.0], [1.0, -2.0])
        assert not lower_bound_error(pair).any()

    def test_antisymmetric_pair_gives_magnitude(self):
        v = [0.75, -1.5, 2.25]
        pair = make_pair(v, [-e for e in v])
        assert lower_bound_error(pair).tolist() == [abs(e) for e in v]

    def test_rejects_nonfinite_samples(self):
        for bad in (np.inf, -np.inf, np.nan):
            broken = make_pair([1.0, 2.0], [1.0, 2.0])
            broken[1, 0] = bad
            with pytest.raises(DomainError):
                lower_bound_error(broken)

    def test_rejects_malformed_orbits(self):
        for shape in ((4,), (4, 1), (4, 3), (2, 4), (4, 2, 1), (4, 2, 3), (0, 2)):
            with pytest.raises(DomainError):
                lower_bound_error(np.zeros(shape))

    def test_leaves_the_pair_unchanged(self):
        pair = make_pair([1.0, 3.0], [0.5, -3.0])
        before = pair.tobytes()
        lower_bound_error(pair)
        assert pair.tobytes() == before

    @given(arrays(np.float64, 8, elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_halving_is_division_by_two(self, a):
        # Subnormal halves included: x * 0.5 and x / 2.0 round the same real.
        delta = lower_bound_error(make_pair(a, np.zeros(8)))
        assert delta.tobytes() == (np.abs(a) / 2.0).tobytes()

    @given(arrays(np.float64, 8, elements=st.floats(-1e150, 1e150)),
           arrays(np.float64, 8, elements=st.floats(-1e150, 1e150)))
    def test_nonnegative_and_swap_symmetric(self, a, b):
        d1 = lower_bound_error(make_pair(a, b))
        d2 = lower_bound_error(make_pair(b, a))
        assert (d1 >= 0).all()
        assert d1.tobytes() == d2.tobytes()


class TestExtractBytes:
    def test_mantissa_lsb_examples(self):
        config = KeystreamConfig(rows=1, cols=1, transient=0)
        assert extract_bytes(np.array([1.0]), config)[0] == 0
        assert extract_bytes(np.array([1.0 + 2.0 ** -52]), config)[0] == 1
        assert extract_bytes(np.array([0.0]), config)[0] == 0

    def test_mantissa_lsb_reads_low_significand_bits(self):
        bits = (1023 << 52) | 0xAB
        value = struct.unpack("<d", struct.pack("<Q", bits))[0]
        config = KeystreamConfig(rows=1, cols=1, transient=0)
        assert extract_bytes(np.array([value]), config)[0] == 0xAB

    @given(st.lists(st.integers(0, 0x7FEF_FFFF_FFFF_FFFF), min_size=1, max_size=64))
    def test_mantissa_lsb_is_the_low_byte_of_any_nonnegative_finite_pattern(self, bits):
        n = len(bits)
        delta = np.array(struct.unpack(f"<{n}d", struct.pack(f"<{n}Q", *bits)))
        config = KeystreamConfig(rows=1, cols=n, transient=0)
        assert extract_bytes(delta, config).tolist() == [b & 0xFF for b in bits]

    def test_minmax_examples(self):
        config = KeystreamConfig(rows=1, cols=3, transient=0,
                                 strategy="minmax-scale")
        out = extract_bytes(np.array([0.0, 0.5, 1.0]), config)
        assert out.tolist() == [0, 127, 255]

    @given(arrays(np.float64, st.integers(2, 64),
                  elements=st.floats(0.0, 1e300, allow_subnormal=True)))
    def test_minmax_matches_the_plain_expression(self, delta):
        lo, hi = delta.min(), delta.max()
        config = KeystreamConfig(rows=1, cols=delta.shape[0], transient=0,
                                 strategy="minmax-scale")
        got = extract_bytes(delta, config)
        if hi == lo:
            assert not got.any()
        else:
            want = np.floor((delta - lo) / (hi - lo) * 255.0).astype(np.uint8)
            assert got.tobytes() == want.tobytes()

    def test_minmax_degenerate_window_maps_to_zero(self):
        config = KeystreamConfig(rows=2, cols=2, transient=0,
                                 strategy="minmax-scale")
        assert not extract_bytes(np.full(4, 3.25), config).any()

    @pytest.mark.parametrize("window", [[np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0],
                                        [-1e308, 1e308]],
                             ids=["nan", "inf", "-inf", "range-overflows"])
    def test_minmax_refuses_a_window_that_is_not_finite(self, window):
        # No NaN or infinity reaches the uint8 cast, whose result numpy leaves undefined.
        config = KeystreamConfig(1, 2, transient=0, strategy="minmax-scale")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="minmax-scale needs a finite window"):
                extract_bytes(np.array(window), config)

    def test_transient_prefix_is_discarded(self):
        config = KeystreamConfig(rows=2, cols=2, transient=3,
                                 strategy="minmax-scale")
        out = extract_bytes(np.arange(7, dtype=np.float64), config)
        assert out.tolist() == [0, 85, 170, 255]

    def test_insufficient_samples_message_names_both_counts(self):
        config = KeystreamConfig(rows=4, cols=4, transient=10)
        with pytest.raises(DomainError, match=r"26.*20"):
            extract_bytes(np.zeros(20), config)

    def test_rejects_delta_that_is_not_1d(self):
        # An (n, 2) pair passed in place of its delta has enough rows.
        config = KeystreamConfig(rows=2, cols=2, transient=1)
        for shape in ((30, 2), (5, 1), ()):
            with pytest.raises(DomainError, match="1-d"):
                extract_bytes(np.zeros(shape), config)

    def test_output_dtype_and_length(self):
        config = KeystreamConfig(rows=3, cols=5, transient=2)
        out = extract_bytes(np.linspace(0.0, 1.0, 40), config)
        assert out.dtype == np.uint8
        assert out.shape == (15,)


def peak_bytes(config) -> int:
    """Peak bytes traced by tracemalloc while generating config's keystream."""
    tracemalloc.start()
    try:
        quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGenerateKeystream:
    def test_origin_initial_gives_all_zero_bytes_and_warns(self):
        config = KeystreamConfig(rows=8, cols=8)
        with pytest.warns(KeystreamQualityWarning):
            ks = generate_keystream(DEFAULT_PARAMS, LorenzState(0.0, 0.0, 0.0),
                                    config)
        assert not ks.data.any()

    def test_no_warning_in_working_regime_at_full_size(self):
        config = KeystreamConfig(rows=192, cols=192)
        with warnings.catch_warnings():
            warnings.simplefilter("error", KeystreamQualityWarning)
            generate_keystream(WORKING_PARAMS, DEFAULT_INITIAL, config)

    @needs_c
    def test_peak_memory_per_sample(self):
        # The compiled key kernel stores the key (1 B per key byte) and,
        # under minmax-scale, the window's deltas (8 more); no orbit pair.
        for strategy, per_key_byte in zip(STRATEGIES, (1, 9)):
            config = KeystreamConfig(rows=512, cols=512, strategy=strategy)
            assert peak_bytes(config) <= per_key_byte * config.rows * config.cols + 2**16

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_peak_memory_per_sample_without_a_compiler(self, strategy):
        # The pure-Python key kernel stores what the compiled one does: the
        # key and, under minmax-scale, the window's deltas; no orbit pair.
        per_key_byte = 9 if strategy == "minmax-scale" else 1
        config = KeystreamConfig(rows=128, cols=128, strategy=strategy)
        with pure_python():
            peak = peak_bytes(config)
        assert peak <= per_key_byte * config.rows * config.cols + 2**16

    def test_transient_takes_no_memory_without_a_compiler(self):
        # The transient's samples are integrated and dropped, not stored.
        with pure_python():
            peaks = [peak_bytes(KeystreamConfig(16, 16, transient))
                     for transient in (0, 200_000)]
        assert peaks[1] <= peaks[0] + 2**16

    def test_quality_warning_names_the_calling_line(self):
        # The warning points past the package, at the line that called it,
        # however deep in the package it was raised.
        config = KeystreamConfig(rows=8, cols=8)
        image = GrayImage.from_array(np.zeros((8, 8), dtype=np.uint8))
        calls = [lambda: generate_keystream(DEFAULT_PARAMS, DEFAULT_INITIAL, config),
                 lambda: encrypt(image, DEFAULT_PARAMS, DEFAULT_INITIAL, config),
                 lambda: decrypt(image, DEFAULT_PARAMS, DEFAULT_INITIAL, config)]
        for call in calls:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            [w] = caught
            assert (w.category, w.filename, w.lineno) == (
                KeystreamQualityWarning, __file__, call.__code__.co_firstlineno)

    def test_hex_export_matches_bytes(self):
        config = KeystreamConfig(rows=4, cols=4)
        ks = quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL, config)
        assert ks.hex() == ks.data.tobytes().hex()
        assert len(ks.hex()) == 32


class TestSensitivity:
    def test_upward_one_ulp_perturbations_flip_almost_half_the_bits(self):
        # Chaos gives ~50% bit flips once the key window sits in the
        # saturated divergence regime; measured 47.75% at this size.
        config = KeystreamConfig(rows=128, cols=128)
        base = quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL, config)
        for perturbed in (LorenzState(math.nextafter(1.0, 2.0), 0.5, 0.9),
                          LorenzState(1.0, math.nextafter(0.5, 1.0), 0.9)):
            other = quiet_keystream(WORKING_PARAMS, perturbed, config)
            flips = np.unpackbits(base.data ^ other.data).sum()
            assert flips / (base.data.size * 8) > 0.40

    def test_some_one_ulp_perturbations_are_absorbed_by_rounding(self):
        # Not every ulp-scale perturbation survives: rounding can merge
        # trajectories within a few steps when the perturbation projects
        # weakly onto the expanding direction. Pinned current behavior:
        # one ulp downward from x0=1.0 (a half-spacing step across the
        # binade boundary) is erased and the keystream is unchanged.
        config = KeystreamConfig(rows=32, cols=32)
        base = quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL, config)
        perturbed = LorenzState(math.nextafter(1.0, 0.0), 0.5, 0.9)
        other = quiet_keystream(WORKING_PARAMS, perturbed, config)
        assert base.data.tobytes() == other.data.tobytes()


@pytest.fixture(scope="module")
def key():
    config = KeystreamConfig(rows=256, cols=256)
    return quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL, config)


class TestWorkingRegimeRegression:
    """Bit-exact pins for the 256x256 working-regime keystream (h=0.01).

    The integration is pure binary64 arithmetic in a fixed evaluation
    order, so these values are exact and platform-independent.
    """

    def test_sha256_of_stream(self, key):
        digest = hashlib.sha256(key.data.tobytes()).hexdigest()
        assert digest == ("272f21063c8447f90c5fbc481bfcd743"
                          "f5924792d256c9f5fd5ce7faa4ac95ef")

    def test_mid_stream_bytes(self, key):
        assert key.data[32768:32784].tobytes().hex() == \
            "f6c88d3814d6439fbd81da822b202eb2"

    def test_zero_byte_count(self, key):
        assert int(np.count_nonzero(key.data == 0)) == 923

    def test_byte_distribution_bias_level(self, key):
        # The extraction inherits a structural even-byte bias from exact
        # same-binade cancellation (trailing-zero significands), which
        # caps the byte entropy near 7.88 and keeps the 256-bin chi-square
        # statistic four digits wide. Pinned so silent changes surface.
        counts = np.bincount(key.data, minlength=256)
        expected = counts.sum() / 256.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert 8000.0 < chi2 < 16000.0
        even = float(np.mean(key.data % 2 == 0))
        assert 0.65 < even < 0.75
