"""Integrator unit tests: derivative forms, RK4 kernel, lockstep orbit pairs."""

import contextlib
import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import WORKING_PARAMS, full_orbits, pure_python
from lorenzcipher import (DEFAULT_INITIAL, DEFAULT_PARAMS, DomainError,
                          ExtensionVariant, IntegrationBlowupError,
                          KeystreamConfig, LorenzParams, LorenzState, rk4_step)
from lorenzcipher.keystream import lower_bound_error
from lorenzcipher.lorenz import _deriv, integrate_pair

A, B = ExtensionVariant.A, ExtensionVariant.B


def decay_step(v, h, variant):
    """One RK4 step of y' = -y from v, taken by the Lorenz kernel.

    With sigma = rho = 0 and beta = 1, dx and dz vanish on (0, v, 0) and
    both variants give dy = -y, so the y component takes exactly the
    scalar RK4 step k1 + 2*k2 + 2*k3 + k4 scaled by h/6.
    """
    return rk4_step(LorenzState(0.0, v, 0.0),
                    LorenzParams(0.0, 0.0, 1.0, h), variant).y


class TestValidation:
    def test_step_must_be_positive(self):
        with pytest.raises(DomainError):
            LorenzParams(16.0, 45.92, 4.0, 0.0)
        with pytest.raises(DomainError):
            LorenzParams(16.0, 45.92, 4.0, -1e-6)

    def test_params_must_be_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                LorenzParams(bad, 45.92, 4.0, 1e-6)
            with pytest.raises(DomainError):
                LorenzParams(16.0, bad, 4.0, 1e-6)

    def test_state_must_be_finite(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                LorenzState(bad, 0.0, 0.0)
            with pytest.raises(DomainError):
                LorenzState(0.0, 0.0, bad)

    @pytest.mark.parametrize("bad", [True, "16", Decimal(16), None, 10**400],
                             ids=["bool", "str", "Decimal", "None", "10**400"])
    def test_key_numbers_must_be_real_and_representable(self, bad):
        with pytest.raises(DomainError):
            LorenzParams(bad, 45.92, 4.0, 1e-6)
        with pytest.raises(DomainError):
            LorenzParams(16.0, 45.92, 4.0, bad)
        with pytest.raises(DomainError):
            LorenzState(1.0, bad, 0.9)

    def test_key_numbers_are_stored_as_float(self):
        params = LorenzParams(16, np.float32(45.92), Fraction(4), np.float64(1e-6))
        state = LorenzState(np.int64(1), 0.5, Fraction(9, 10))
        values = (params.sigma, params.rho, params.beta, params.h,
                  state.x, state.y, state.z)
        assert all(type(v) is float for v in values)
        assert values == (16.0, float(np.float32(45.92)), 4.0, 1e-6, 1.0, 0.5, 0.9)


class TestDerivative:
    """The bit-level specification lorenz._deriv; expanded=True is variant B."""

    def test_origin_is_equilibrium(self):
        p = DEFAULT_PARAMS
        for expanded in (False, True):
            d = _deriv(0.0, 0.0, 0.0, p.sigma, p.rho, p.beta, expanded)
            assert d == (0.0, 0.0, 0.0)

    def test_hand_computed_values_at_default_point(self):
        p = DEFAULT_PARAMS
        dx, dy, dz = _deriv(1.0, 0.5, 0.9, p.sigma, p.rho, p.beta, False)
        assert dx == -8.0
        assert dz == -3.1
        assert abs(dy - 44.52) <= math.ulp(44.52)

    def test_variants_coincide_when_arithmetic_is_exact(self):
        da = _deriv(2.0, 0.0, 1.0, 10.0, 4.0, 2.0, False)
        db = _deriv(2.0, 0.0, 1.0, 10.0, 4.0, 2.0, True)
        assert da[1] == db[1] == 6.0

    def test_variants_differ_in_rounding_on_generic_states(self):
        # The scheme requires the two evaluation orders to round differently
        # on a healthy share of states.
        p = DEFAULT_PARAMS
        rng = random.Random(7)
        differing = 0
        for _ in range(1000):
            state = (rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(0, 80))
            da = _deriv(*state, p.sigma, p.rho, p.beta, False)
            db = _deriv(*state, p.sigma, p.rho, p.beta, True)
            assert da[0] == db[0] and da[2] == db[2]
            if da[1] != db[1]:
                differing += 1
        assert differing > 100

    def test_variants_agree_exactly_in_rational_arithmetic(self):
        # Exact-arithmetic oracle: both evaluation orders are the same
        # rational function, so with Fraction operands they must agree
        # exactly; the float results may differ only by rounding.
        rng = random.Random(2026)
        for _ in range(1000):
            x = rng.uniform(-50, 50)
            y = rng.uniform(-50, 50)
            z = rng.uniform(-10, 90)
            rho = rng.uniform(10, 60)
            fx, fy, fz, fr = map(Fraction, (x, y, z, rho))
            exact_a = fx * (fr - fz) - fy
            exact_b = fx * fr - fx * fz - fy
            assert exact_a == exact_b
            # Rounding error is bounded by the largest intermediate, not by
            # the (possibly cancelled) result.
            scale = max(abs(x * rho), abs(x * z), abs(y), 1e-300)
            for expanded in (False, True):
                got = _deriv(x, y, z, 16.0, rho, 4.0, expanded)[1]
                err = abs(Fraction(got) - exact_a)
                assert err <= 8 * Fraction(math.ulp(scale))


class TestRk4:
    def test_origin_is_a_fixed_point(self):
        origin = LorenzState(0.0, 0.0, 0.0)
        for variant in (A, B):
            s = rk4_step(origin, DEFAULT_PARAMS, variant)
            assert (s.x, s.y, s.z) == (0.0, 0.0, 0.0)

    def test_scalar_step_matches_degree_four_taylor(self):
        # One RK4 step on x' = -x from 1 equals the degree-4 Taylor
        # polynomial of exp(-h): 1 - h + h^2/2 - h^3/6 + h^4/24, which is
        # 0.9048375 for h = 0.1.
        for variant in (A, B):
            got = decay_step(1.0, 0.1, variant)
            assert abs(got - 0.9048375) < 1e-15

    def test_global_error_shows_fourth_order(self):
        def global_error(n, variant):
            h = 1.0 / n
            x = 1.0
            for _ in range(n):
                x = decay_step(x, h, variant)
            return abs(x - math.exp(-1.0))

        for variant in (A, B):
            ratio = global_error(16, variant) / global_error(32, variant)
            assert 16 * 0.8 <= ratio <= 16 * 1.2

    def test_step_matches_extended_precision_reference(self):
        # 50-digit reference integration of the same stage formulas, with
        # the parameter and initial values taken as the binary64 literals.
        mp.mp.dps = 50
        sigma, rho, beta = mp.mpf(16.0), mp.mpf(45.92), mp.mpf(4.0)
        h = mp.mpf(1e-6)

        def deriv(x, y, z):
            return sigma * (y - x), x * (rho - z) - y, x * y - beta * z

        def step(x, y, z):
            k1 = deriv(x, y, z)
            k2 = deriv(x + h / 2 * k1[0], y + h / 2 * k1[1], z + h / 2 * k1[2])
            k3 = deriv(x + h / 2 * k2[0], y + h / 2 * k2[1], z + h / 2 * k2[2])
            k4 = deriv(x + h * k3[0], y + h * k3[1], z + h * k3[2])
            return (x + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                    y + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
                    z + h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]))

        want = step(mp.mpf(1.0), mp.mpf(0.5), mp.mpf(0.9))
        got = rk4_step(LorenzState(1.0, 0.5, 0.9), DEFAULT_PARAMS, A)
        for got_c, want_c in zip((got.x, got.y, got.z), want):
            assert abs((mp.mpf(got_c) - want_c) / want_c) < mp.mpf("1e-12")

    def test_blowup_raises_with_context(self):
        # All three components are checked whichever one is stored, so the
        # error is the same for each.
        params = LorenzParams(16.0, 45.92, 4.0, 10.0)
        errors = set()
        for c in "xyz":
            with pytest.raises(IntegrationBlowupError) as err:
                integrate_pair(DEFAULT_INITIAL, params, 50, c)
            errors.add((str(err.value), err.value.variant, err.value.step_index))
        [(_, variant, step_index)] = errors
        assert variant in ("a", "b")
        assert isinstance(step_index, int)
        assert step_index >= 0

    def test_step_blowup_names_the_variant_but_no_step(self):
        with pytest.raises(IntegrationBlowupError) as err:
            rk4_step(LorenzState(1e308, 1e308, 1e308), DEFAULT_PARAMS, A)
        assert err.value.variant == "a"
        assert err.value.step_index is None

    @pytest.mark.parametrize("variant", ["a", "b", None, 1])
    def test_rejects_a_variant_that_is_not_an_extension_variant(self, variant):
        # "b" is the form IntegrationBlowupError.variant takes: an easy mix-up.
        with pytest.raises(DomainError, match=rf"^variant must be an ExtensionVariant, "
                                              rf"got {type(variant).__name__}$"):
            rk4_step(DEFAULT_INITIAL, DEFAULT_PARAMS, variant)


class TestIntegratePair:
    def test_sample_n_is_state_after_n_plus_one_steps(self):
        orbits = full_orbits(DEFAULT_INITIAL, DEFAULT_PARAMS, 5)
        assert len(orbits) == 5
        state = DEFAULT_INITIAL
        for n in range(5):
            state = rk4_step(state, DEFAULT_PARAMS, A)
            assert tuple(orbits[n, 0]) == (state.x, state.y, state.z)

    def test_matches_repeated_public_steps_for_both_variants(self):
        # Every sample of both orbits, not only the delta: a fault that
        # shifted both orbits alike would leave the delta unchanged.
        params = LorenzParams(16.0, 45.92, 4.0, 1e-3)
        orbits = full_orbits(DEFAULT_INITIAL, params, 200)
        for v, variant in enumerate((A, B)):
            state = DEFAULT_INITIAL
            for n in range(200):
                state = rk4_step(state, params, variant)
                assert tuple(orbits[n, v]) == (state.x, state.y, state.z)

    def test_origin_orbits_stay_exactly_zero(self):
        orbits = full_orbits(LorenzState(0.0, 0.0, 0.0), DEFAULT_PARAMS, 10)
        assert not orbits[:, 0].any()
        assert not orbits[:, 1].any()

    def test_bit_determinism(self):
        p1 = full_orbits(DEFAULT_INITIAL, DEFAULT_PARAMS, 500)
        p2 = full_orbits(DEFAULT_INITIAL, DEFAULT_PARAMS, 500)
        assert p1[:, 0].tobytes() == p2[:, 0].tobytes()
        assert p1[:, 1].tobytes() == p2[:, 1].tobytes()

    def test_rejects_nonpositive_step_count(self):
        # -10**5000 has too many digits for str(); the message must not
        # try to print it.
        for n in (0, -1, -3, -10**5000):
            with pytest.raises(DomainError, match=r"n_steps must be >= 1, got "):
                integrate_pair(DEFAULT_INITIAL, DEFAULT_PARAMS, n, "y")

    @pytest.mark.parametrize("oracle", [False, True], ids=["loaded-kernel", "pure-python"])
    @pytest.mark.parametrize("n", [2.5, True, "3", None, np.int64(3)])
    def test_rejects_non_int_step_count(self, oracle, n):
        # Only a plain int counts: a bool or a numpy integer is refused too.
        with pure_python() if oracle else contextlib.nullcontext():
            with pytest.raises(DomainError, match=r"n_steps must be an int, got "):
                integrate_pair(DEFAULT_INITIAL, DEFAULT_PARAMS, n, "y")

    def test_unallocatable_orbits_are_a_domain_error(self):
        # 1.6 PB fails malloc (MemoryError); 2**62 samples overflow the
        # address space and 10**5000 numpy's dimension limit (both raise
        # ValueError), so nothing is allocated. 10**5000 has too many digits
        # for str(), so the message gives the size as a power of two.
        for n in (10**14 + 2000, 2**62, 10**5000):
            with pytest.raises(DomainError, match=rf"n_steps = 2\*\*{math.log2(n):.2f} "):
                integrate_pair(DEFAULT_INITIAL, DEFAULT_PARAMS, n, "y")

    def test_rejects_unknown_component_before_allocating(self):
        # 10**5000 steps cannot be allocated; the component is refused first.
        for component in ("w", "Y", 1, None):
            with pytest.raises(DomainError, match="unknown component"):
                integrate_pair(DEFAULT_INITIAL, DEFAULT_PARAMS, 10**5000, component)

    def test_samples_are_read_only(self):
        pair = integrate_pair(DEFAULT_INITIAL, DEFAULT_PARAMS, 3, "y")
        with pytest.raises(ValueError):
            pair[0, 0] = 1.0

    def test_result_is_one_c_contiguous_float64_array(self):
        for component in "xyz":
            pair = integrate_pair(DEFAULT_INITIAL, DEFAULT_PARAMS, 7, component)
            assert isinstance(pair, np.ndarray)
            assert pair.shape == (7, 2)
            assert pair.dtype == np.float64
            assert pair.flags.c_contiguous and not pair.flags.writeable

    def test_desk_scale_bit_divergence(self):
        # With a step large enough to exercise the dynamics the two
        # variants separate quickly; at h=0.01 the first y sample with a
        # differing bit pattern is sample 8 (pinned regression value).
        pair = integrate_pair(DEFAULT_INITIAL, WORKING_PARAMS, 3000, "y")
        diff = np.nonzero(pair[:, 0] != pair[:, 1])[0]
        assert diff.size > 0
        assert diff[0] == 8

    def test_library_1024_reference_counts(self):
        # The counts the traced library-1024 benchmark read from the numpy
        # pipeline while keystreams ran through it, at seed 0's paper key
        # and h = 0.01: one pair row per sample of the 1024x1024 config, and
        # the first nonzero lower bound error at sample 8. The pair's one row
        # per sample is checked at small n, in
        # test_result_is_one_c_contiguous_float64_array.
        assert KeystreamConfig(1024, 1024).n_samples == 1050576
        delta = lower_bound_error(integrate_pair(DEFAULT_INITIAL, WORKING_PARAMS, 64, "y"))
        assert np.flatnonzero(delta)[0] == 8

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 50),
           st.floats(1e-6, 2e-2))
    def test_origin_fixed_point_for_any_parameters(self, sigma, rho, beta, h):
        orbits = full_orbits(LorenzState(0.0, 0.0, 0.0),
                             LorenzParams(sigma, rho, beta, h), 20)
        assert not orbits[:, 0].any() and not orbits[:, 1].any()

    @given(st.floats(-25, 25), st.floats(-25, 25), st.floats(0, 50),
           st.floats(1e-5, 5e-3))
    def test_determinism_over_random_inputs(self, x, y, z, h):
        initial = LorenzState(x, y, z)
        params = LorenzParams(16.0, 45.92, 4.0, h)
        p1 = full_orbits(initial, params, 40)
        p2 = full_orbits(initial, params, 40)
        assert p1[:, 0].tobytes() == p2[:, 0].tobytes()
        assert p1[:, 1].tobytes() == p2[:, 1].tobytes()
