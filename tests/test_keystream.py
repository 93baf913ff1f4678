"""Keystream unit tests: iteration law, error bound, byte extraction,
generation, and the working-regime regression pins."""

import hashlib
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lorenzcipher import (DEFAULT_INITIAL, DEFAULT_PARAMS, DomainError,
                          InsufficientSamplesError, Keystream,
                          KeystreamConfig, KeystreamQualityWarning,
                          LorenzParams, LorenzState, OrbitPair, extract_bytes,
                          generate_keystream, lower_bound_error)

WORKING_PARAMS = LorenzParams(16.0, 45.92, 4.0, 0.01)


def quiet_keystream(params, initial, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KeystreamQualityWarning)
        return generate_keystream(params, initial, config)


def pair_from_components(a_values, b_values, component="y"):
    """Build an OrbitPair with the given values in one component column."""
    n = len(a_values)
    col = {"x": 0, "y": 1, "z": 2}[component]
    sa = np.zeros((n, 3))
    sb = np.zeros((n, 3))
    sa[:, col] = a_values
    sb[:, col] = b_values
    return OrbitPair(sa, sb, DEFAULT_PARAMS, DEFAULT_INITIAL)


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

    def test_keystream_length_is_validated(self):
        config = KeystreamConfig(rows=2, cols=2)
        with pytest.raises(DomainError):
            Keystream(np.zeros(5, dtype=np.uint8), config,
                      DEFAULT_PARAMS, DEFAULT_INITIAL)


class TestLowerBoundError:
    def test_hand_values(self):
        pair = pair_from_components([1.0, 3.0, 5.0], [0.5, 3.0, -5.0])
        delta = lower_bound_error(pair, "y")
        assert delta.tolist() == [0.25, 0.0, 5.0]

    def test_identical_orbits_give_zero(self):
        pair = pair_from_components([1.0, -2.0], [1.0, -2.0])
        assert not lower_bound_error(pair, "y").any()

    def test_antisymmetric_pair_gives_magnitude(self):
        v = [0.75, -1.5, 2.25]
        pair = pair_from_components(v, [-e for e in v])
        assert lower_bound_error(pair, "y").tolist() == [abs(e) for e in v]

    def test_rejects_nonfinite_samples(self):
        pair = pair_from_components([1.0, 2.0], [1.0, 2.0])
        broken = OrbitPair(pair.samples_a.copy(), pair.samples_b.copy(),
                           DEFAULT_PARAMS, DEFAULT_INITIAL)
        broken.samples_a[1, 1] = np.inf
        with pytest.raises(DomainError):
            lower_bound_error(broken, "y")

    @given(arrays(np.float64, 8, elements=st.floats(-1e150, 1e150)),
           arrays(np.float64, 8, elements=st.floats(-1e150, 1e150)))
    def test_nonnegative_and_swap_symmetric(self, a, b):
        d1 = lower_bound_error(pair_from_components(a, b))
        d2 = lower_bound_error(pair_from_components(b, a))
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

    def test_minmax_examples(self):
        config = KeystreamConfig(rows=1, cols=3, transient=0,
                                 strategy="minmax-scale")
        out = extract_bytes(np.array([0.0, 0.5, 1.0]), config)
        assert out.tolist() == [0, 127, 255]

    def test_minmax_degenerate_window_maps_to_zero(self):
        config = KeystreamConfig(rows=2, cols=2, transient=0,
                                 strategy="minmax-scale")
        assert not extract_bytes(np.full(4, 3.25), config).any()

    def test_transient_prefix_is_discarded(self):
        config = KeystreamConfig(rows=2, cols=2, transient=3,
                                 strategy="minmax-scale")
        out = extract_bytes(np.arange(7, dtype=np.float64), config)
        assert out.tolist() == [0, 85, 170, 255]

    def test_insufficient_samples_message_names_both_counts(self):
        config = KeystreamConfig(rows=4, cols=4, transient=10)
        with pytest.raises(InsufficientSamplesError, match=r"26.*20"):
            extract_bytes(np.zeros(20), config)

    def test_output_dtype_and_length(self):
        config = KeystreamConfig(rows=3, cols=5, transient=2)
        out = extract_bytes(np.linspace(0.0, 1.0, 40), config)
        assert out.dtype == np.uint8
        assert out.shape == (15,)


class TestGenerateKeystream:
    def test_origin_initial_gives_all_zero_bytes_and_warns(self):
        config = KeystreamConfig(rows=8, cols=8)
        with pytest.warns(KeystreamQualityWarning):
            ks = generate_keystream(DEFAULT_PARAMS, LorenzState(0.0, 0.0, 0.0),
                                    config)
        assert not ks.data.any()

    def test_default_step_keystream_is_degenerate(self):
        # At the default step 1e-6 the two variants remain bit-identical
        # far past this window (first differing sample near 1.5e5), so the
        # extracted key is all zeros. This is the pinned current behavior;
        # see the acceptance suite for the consequences.
        config = KeystreamConfig(rows=32, cols=32)
        with pytest.warns(KeystreamQualityWarning):
            ks = generate_keystream(DEFAULT_PARAMS, DEFAULT_INITIAL, config)
        assert not ks.data.any()

    def test_deterministic_across_invocations(self):
        config = KeystreamConfig(rows=16, cols=16)
        k1 = quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL, config)
        k2 = quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL, config)
        assert k1.data.tobytes() == k2.data.tobytes()

    @pytest.mark.parametrize("rows,cols", [(3, 5), (7, 2), (1, 1)])
    def test_length_law(self, rows, cols):
        config = KeystreamConfig(rows=rows, cols=cols)
        ks = quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL, config)
        assert len(ks) == rows * cols

    @pytest.mark.parametrize("component", ["x", "y", "z"])
    @pytest.mark.parametrize("strategy", ["mantissa-lsb", "minmax-scale"])
    def test_all_components_and_strategies_produce_keys(self, component, strategy):
        config = KeystreamConfig(rows=8, cols=8, strategy=strategy,
                                 component=component)
        ks = quiet_keystream(WORKING_PARAMS, DEFAULT_INITIAL, config)
        assert ks.data.shape == (64,)

    def test_no_warning_in_working_regime_at_full_size(self):
        config = KeystreamConfig(rows=192, cols=192)
        with warnings.catch_warnings():
            warnings.simplefilter("error", KeystreamQualityWarning)
            generate_keystream(WORKING_PARAMS, DEFAULT_INITIAL, config)

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
