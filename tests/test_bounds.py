"""Closed-form bound formulas against high-precision and brute-force oracles."""

import hashlib
import math
import random
import re
import struct

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgap.bounds import (
    K2_SWITCH,
    BoundReport,
    CurvatureBounds,
    bound_report,
    gap_bounds_small_time,
    lambda_argmax,
    lambda_integral,
    lambda_prime,
    lambda_profile,
    lambda_sup,
    psi,
)

from conftest import admissible_params, argmax_mp, golden_max, lambda_integral_mp, lambda_mp

# 40-digit reference values, frozen from the mpmath oracle in conftest
LAMBDA_0_K1 = 1.3934693402873665763962  # lambda(0, 1) at k1 = k2 = 1
PSI_K1 = 1.5150996814686360303776  # psi(1, k=1, k=1)
SUP_KNEG = 1.8591409142295226176801  # sup at T=1, k1=1, k2=-1: (1+e)/2
T_STAR_K1 = 0.6232405136177339844290  # argmax at T=1, k1=k2=1


def cb(k1, k2):
    return CurvatureBounds(k1, k2)


# (k1, k2, T) across the degenerate window |k2| T < K2_SWITCH = 1e-6, just
# above it and on to large |k2| T, both signs of k2 and k2 = 0, with
# k1 / |k2| up to 1e8
DEGENERATE_WINDOW = [(1e-7, 0.0, 0.8), (1.0, 0.0, 0.8)] + [
    (ratio * k2T / 0.8, sign * k2T / 0.8, 0.8)
    for k2T in (1e-12, 1e-9, 1e-7, 9e-7, 9.99e-7, 1.1e-6, 1e-2, 0.5, 2.01, 10.0, 40.0, 100.0)
    for ratio in (1.0, 1e4, 1e8)
    for sign in (1.0, -1.0)
] + [(ratio * 1500.0 / 0.8, 1500.0 / 0.8, 0.8) for ratio in (1.0, 1e4, 1e8)]


admissible = st.tuples(
    st.floats(min_value=0.01, max_value=4.0),
    st.floats(min_value=-0.99, max_value=1.0),
    st.floats(min_value=0.05, max_value=3.0),
).map(lambda p: (p[0], max(-p[0] * 0.99, p[0] * p[1]), p[2]))


class TestCurvatureBounds:
    def test_admissible(self):
        cb(1.0, 1.0)
        cb(1.0, -1.0)
        cb(0.0, 0.0)
        cb(2.0, -1.5)

    @pytest.mark.parametrize(
        "k1,k2,message",
        [
            (math.nan, 0.0, "curvature bounds must be finite"),
            (1.0, math.nan, "curvature bounds must be finite"),
            (math.inf, 0.0, "curvature bounds must be finite"),
            (1.0, -math.inf, "curvature bounds must be finite"),
            (-0.1, 0.0, "k1 must be >= 0, got -0.1"),
            (1.0, -1.1, "k1 + k2 must be >= 0, got -0.10000000000000009"),
            (1.0, 1.5, "k2 must be <= k1, got k2=1.5 > k1=1.0"),
        ],
    )
    def test_inadmissible(self, k1, k2, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            cb(k1, k2)


class TestLambdaProfile:
    def test_flat_collapses_to_one(self):
        for t in (0.0, 0.3, 1.0):
            assert lambda_profile(t, 1.0, cb(0.0, 0.0)) == 1.0

    def test_value_at_zero(self):
        got = lambda_profile(0.0, 1.0, cb(1.0, 1.0))
        assert got == pytest.approx(LAMBDA_0_K1, rel=1e-15)
        assert got == pytest.approx(2.0 - math.exp(-0.5), rel=1e-15)

    def test_endpoint_identity(self, rng):
        """lambda(T, T) = 1/2 + lambda(0, T)^2 / 2 for admissible windows."""
        for k1, k2, T in admissible_params(rng, 300):
            lam0 = lambda_profile(0.0, T, cb(k1, k2))
            lamT = lambda_profile(T, T, cb(k1, k2))
            assert abs(lamT - (0.5 + 0.5 * lam0 * lam0)) <= 1e-12 * max(1.0, lam0 * lam0)

    def test_degenerate_k2_limit(self):
        # k2 T far below the switch: analytic limit 1 + k1 T/2 + k1^2(T t/4 - t^2/8)
        got = lambda_profile(1.0, 1.0, cb(1.0, 1e-12))
        assert got == pytest.approx(1.625, rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambda_profile(-0.1, 1.0, cb(1.0, 1.0))
        with pytest.raises(ValueError):
            lambda_profile(1.1, 1.0, cb(1.0, 1.0))
        with pytest.raises(ValueError):
            lambda_profile(math.nan, 1.0, cb(1.0, 1.0))

    def test_matches_high_precision(self, rng):
        for k1, k2, T in admissible_params(rng, 100):
            for t in rng.uniform(0.0, T, size=3):
                want = float(lambda_mp(t, T, k1, k2))
                got = lambda_profile(float(t), T, cb(k1, k2))
                assert got == pytest.approx(want, rel=1e-12)

    def test_switch_continuity(self):
        """Values at k2 = +-1e-4 sit within 1e-3 relative of the limit form."""
        for k1, T in [(1.0, 1.0), (2.5, 0.4), (0.3, 2.0)]:
            for t in (0.0, 0.4 * T, T):
                lim = 1.0 + k1 * T / 2 + k1 * k1 * (T * t / 4 - t * t / 8)
                for k2 in (1e-4, -1e-4):
                    got = lambda_profile(t, T, cb(k1, k2))
                    assert abs(got - lim) <= 1e-3 * lim

    def test_sweep_near_k2_zero(self):
        for k1, k2, T in DEGENERATE_WINDOW:
            for t in (0.0, 0.37 * T, 0.5 * T, T):
                want = float(lambda_mp(t, T, k1, k2))
                got = lambda_profile(t, T, cb(k1, k2))
                assert got == pytest.approx(want, rel=1e-10), (k1, k2, t)

    def test_at_least_one(self, rng):
        for k1, k2, T in admissible_params(rng, 100):
            t = rng.uniform(0.0, T)
            assert lambda_profile(float(t), T, cb(k1, k2)) >= 1.0 - 1e-12

    @given(admissible)
    @settings(max_examples=200, deadline=None)
    def test_endpoint_identity_property(self, params):
        k1, k2, T = params
        lam0 = lambda_profile(0.0, T, cb(k1, k2))
        lamT = lambda_profile(T, T, cb(k1, k2))
        assert abs(lamT - (0.5 + 0.5 * lam0 * lam0)) <= 1e-12 * max(1.0, lam0 * lam0)


class TestLambdaPrime:
    def test_flat_zero(self):
        for t in (0.0, 0.5, 1.0):
            assert lambda_prime(t, 1.0, cb(0.0, 0.0)) == 0.0

    def test_value_at_zero_equal_bounds(self):
        # k1 = k2 = K: derivative at 0 reduces to K (1 - e^{-K T/2})
        for K, T in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7)]:
            want = K * (1.0 - math.exp(-K * T / 2))
            assert lambda_prime(0.0, T, cb(K, K)) == pytest.approx(want, rel=1e-13)
            assert want >= 0.0

    def test_against_finite_difference_example(self):
        t, T = 0.3, 1.0
        h = 1e-6
        window = cb(2.0, 0.7)
        fd = (lambda_profile(t + h, T, window) - lambda_profile(t - h, T, window)) / (2 * h)
        assert lambda_prime(t, T, window) == pytest.approx(fd, rel=1e-8)

    def test_finite_difference_sweep(self, rng):
        for k1, k2, T in admissible_params(rng, 200):
            t = float(rng.uniform(0.05 * T, 0.95 * T))
            h = 1e-6 * T
            window = cb(k1, k2)
            fd = (lambda_profile(t + h, T, window) - lambda_profile(t - h, T, window)) / (2 * h)
            lp = lambda_prime(t, T, window)
            scale = max(abs(lp), k1, 1e-12)
            assert abs(lp - fd) <= 1e-6 * scale

    def test_sweep_near_k2_zero(self):
        # relative to the largest slope on [0, T]: the slope itself crosses
        # zero at an interior maximum
        for k1, k2, T in DEGENERATE_WINDOW:
            slope = lambda t: mp.diff(lambda x: lambda_mp(x, T, k1, k2), t)
            scale = float(max(abs(slope(0.0)), abs(slope(T))))
            for t in (0.0, 0.37 * T, 0.5 * T, T):
                got = lambda_prime(t, T, cb(k1, k2))
                assert abs(got - float(slope(t))) <= 1e-10 * scale, (k1, k2, t)

    def test_sign_structure(self, rng):
        for k1, k2, T in admissible_params(rng, 100):
            window = cb(k1, k2)
            if k2 < 0:
                for t in np.linspace(0.0, T, 200):
                    assert lambda_prime(float(t), T, window) >= -1e-12
            elif k2 > 0 and k1 > 0:
                assert lambda_prime(T, T, window) < 0.0
                assert lambda_prime(0.0, T, window) >= 0.0

    def test_single_sign_change(self, rng):
        """For k1, k2 > 0 the derivative crosses zero exactly once in (0, T)."""
        for _ in range(50):
            k1 = float(rng.uniform(0.1, 3.0))
            k2 = float(rng.uniform(0.05, k1))
            T = float(rng.uniform(0.2, 2.5))
            window = cb(k1, k2)
            grid = np.linspace(0.0, T, 2001)
            signs = np.sign([lambda_prime(float(t), T, window) for t in grid])
            changes = np.sum(np.abs(np.diff(np.sign(signs[signs != 0]))) > 0)
            assert changes == 1


class TestLambdaArgmax:
    def test_negative_k2_boundary(self):
        assert lambda_argmax(1.0, cb(1.0, -0.5)) == 1.0

    def test_k1_zero_degenerate(self):
        assert lambda_argmax(1.0, cb(0.0, 0.0)) == 1.0

    def test_reference_value(self):
        assert lambda_argmax(1.0, cb(1.0, 1.0)) == pytest.approx(T_STAR_K1, abs=1e-14)

    def test_matches_golden_section(self, rng):
        for _ in range(20):
            k1 = float(rng.uniform(0.1, 3.0))
            k2 = float(rng.uniform(0.05, k1))
            T = float(rng.uniform(0.2, 2.5))
            t_star = lambda_argmax(T, cb(k1, k2))
            t_gold = float(golden_max(lambda t: lambda_mp(t, T, k1, k2), 0, T, mp.mpf("1e-14")))
            assert abs(t_star - t_gold) <= 1e-9 * T

    def test_is_maximal_on_grid(self, rng):
        for _ in range(20):
            k1 = float(rng.uniform(0.1, 3.0))
            k2 = float(rng.uniform(0.05, k1))
            T = float(rng.uniform(0.2, 2.5))
            window = cb(k1, k2)
            t_star = lambda_argmax(T, window)
            peak = lambda_profile(t_star, T, window)
            for t in np.linspace(0.0, T, 500):
                assert peak >= lambda_profile(float(t), T, window) - 1e-12 * peak


class TestSupAndPsi:
    def test_flat_one(self):
        assert lambda_sup(1.0, cb(0.0, 0.0)) == 1.0
        assert psi(1.0, cb(0.0, 0.0)) == 1.0

    def test_reference_values(self):
        assert psi(1.0, cb(1.0, 1.0)) == pytest.approx(PSI_K1, rel=1e-14)
        assert lambda_sup(1.0, cb(1.0, -1.0)) == pytest.approx(SUP_KNEG, rel=1e-14)
        assert lambda_sup(1.0, cb(1.0, -1.0)) == pytest.approx((1 + math.e) / 2, rel=1e-14)

    def test_psi_equal_curvature_corollary(self):
        """psi(T, K, K) against its simplified form 4 - sqrt(3(4-e^{-KT/2})) e^{-KT/4}."""
        for K, T in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.3), (3.0, 1.7)]:
            want = 4.0 - math.sqrt(3.0 * (4.0 - math.exp(-K * T / 2))) * math.exp(-K * T / 4)
            assert psi(T, cb(K, K)) == pytest.approx(want, rel=1e-14)

    def test_psi_opposite_curvature_corollary(self):
        for K, T in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.3)]:
            want = 0.5 * (1.0 + math.exp(K * T))
            assert psi(T, cb(K, -K)) == pytest.approx(want, rel=1e-14)

    def test_sup_matches_grid_max(self, rng):
        for _ in range(15):
            k1 = float(rng.uniform(0.1, 3.0))
            k2 = float(rng.uniform(0.05, k1))
            T = float(rng.uniform(0.2, 2.5))
            window = cb(k1, k2)
            grid_max = max(lambda_profile(float(t), T, window) for t in np.linspace(0, T, 10_000))
            assert lambda_sup(T, window) == pytest.approx(grid_max, abs=1e-8, rel=1e-8)

    def test_relaxation_order(self, rng):
        """1 <= sup <= psi (they coincide analytically; allow roundoff)."""
        for k1, k2, T in admissible_params(rng, 300):
            s, p = lambda_sup(T, cb(k1, k2)), psi(T, cb(k1, k2))
            assert 1.0 - 1e-12 <= s
            assert s <= p * (1.0 + 1e-10) + 1e-12

    def test_switch_continuity(self):
        for k1, T in [(1.0, 1.0), (2.5, 0.4), (0.3, 2.0)]:
            lim = 1.0 + k1 * T / 2 + (k1 * T) ** 2 / 8
            for k2 in (1e-4, -1e-4):
                assert abs(lambda_sup(T, cb(k1, k2)) - lim) <= 1e-3 * lim
                assert abs(psi(T, cb(k1, k2)) - lim) <= 1e-3 * lim

    def test_sweep_near_k2_zero(self):
        for k1, k2, T in DEGENERATE_WINDOW:
            # the 40-digit root of lambda' (Lambda there matches a golden-section
            # search to 1e-25 in t on every window, as floats bit for bit)
            want = float(lambda_mp(argmax_mp(T, k1, k2), T, k1, k2))
            assert lambda_sup(T, cb(k1, k2)) == pytest.approx(want, rel=1e-10), (k1, k2)
            assert psi(T, cb(k1, k2)) == pytest.approx(want, rel=1e-10), (k1, k2)

    def test_k2_zero_keeps_the_limit(self):
        for k1, T in [(1.0, 1.0), (2.0, 0.1), (2.0, 0.7)]:
            lim = 1.0 + k1 * T / 2 + (k1 * T) ** 2 / 8
            assert lambda_sup(T, cb(k1, 0.0)) == lim
            assert psi(T, cb(k1, 0.0)) == lim

    def test_monotone_in_horizon(self, rng):
        for k1, k2, _ in admissible_params(rng, 30):
            window = cb(k1, k2)
            ts = np.linspace(0.1, 3.0, 40)
            sups = [lambda_sup(float(T), window) for T in ts]
            psis = [psi(float(T), window) for T in ts]
            assert np.all(np.diff(sups) >= -1e-12)
            assert np.all(np.diff(psis) >= -1e-12)

    @given(admissible)
    @settings(max_examples=200, deadline=None)
    def test_relaxation_order_property(self, params):
        k1, k2, T = params
        s, p = lambda_sup(T, cb(k1, k2)), psi(T, cb(k1, k2))
        assert 1.0 - 1e-12 <= s <= p * (1.0 + 1e-10) + 1e-12


class TestLambdaIntegral:
    def test_against_quadrature(self, rng):
        for k1, k2, T in admissible_params(rng, 20):
            window = cb(k1, k2)
            t = float(rng.uniform(0.1 * T, T))
            xs = np.linspace(0.0, t, 20_001)
            vals = [lambda_profile(float(x), T, window) for x in xs]
            simpson = (xs[1] - xs[0]) / 3 * (
                vals[0] + vals[-1] + 4 * sum(vals[1:-1:2]) + 2 * sum(vals[2:-1:2])
            )
            # windows drawn near the k2 switch cost a few digits to cancellation
            assert lambda_integral(t, T, window) == pytest.approx(simpson, rel=1e-8)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_sweep_near_k2_zero(self, sign):
        # |k2| T from far below K2_SWITCH to far above the 2.0 change of form,
        # with k1 / |k2| up to 1e8, where (k1 / k2)^2 amplifies any cancellation
        T = 0.8
        large = (1500.0,) if sign > 0 else ()
        for k2T in (1e-9, 1e-7, 9e-7, 1.1e-6, 1e-4, 1e-2, 0.5, 1.99, 2.01, 10.0, 100.0) + large:
            k2 = sign * k2T / T
            for ratio in (1.0, 1e4, 1e8):
                k1 = ratio * abs(k2)
                assert lambda_integral(0.0, T, cb(k1, k2)) == 0.0
                for t in (0.37 * T, T):
                    want = float(lambda_integral_mp(t, T, k1, k2))
                    got = lambda_integral(t, T, cb(k1, k2))
                    assert got == pytest.approx(want, rel=1e-10), (k2T, ratio, t)

    def test_flat(self):
        assert lambda_integral(0.7, 1.0, cb(0.0, 0.0)) == pytest.approx(0.7, rel=1e-15)


WINDOWS = [cb(1.0, 0.5), cb(1.0, -0.5), cb(0.0, 0.0)]


def horizon_message(T):
    return re.escape(f"horizon T must be positive and finite, got {T}")


class TestArgumentChecks:
    """Every public closed form rejects a bad T or t with the same message."""

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("fn", [lambda_argmax, lambda_sup, psi, bound_report])
    @pytest.mark.parametrize("window", WINDOWS)
    def test_bad_horizon(self, fn, T, window):
        with pytest.raises(ValueError, match=horizon_message(T)):
            fn(T, window)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("fn", [lambda_profile, lambda_prime, lambda_integral])
    @pytest.mark.parametrize("window", WINDOWS)
    def test_bad_horizon_with_time(self, fn, T, window):
        # the horizon is reported even when t is bad too
        for t in (0.5, -1.0, math.nan):
            with pytest.raises(ValueError, match=horizon_message(T)):
                fn(t, T, window)

    @pytest.mark.parametrize("t", [-1e-300, math.nan, math.nextafter(1.0, math.inf)])
    @pytest.mark.parametrize("fn", [lambda_profile, lambda_prime, lambda_integral])
    @pytest.mark.parametrize("window", WINDOWS)
    def test_bad_time(self, fn, t, window):
        message = re.escape(f"t must lie in [0, T]=[0, 1.0], got {t}")
        with pytest.raises(ValueError, match=message):
            fn(t, 1.0, window)

    @pytest.mark.parametrize("T", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_small_time_bad_horizon(self, T):
        with pytest.raises(ValueError, match=re.escape(f"T must be finite and >= 0, got {T}")):
            gap_bounds_small_time(T, cb(1.0, 1.0), 1.0)

    @pytest.mark.parametrize("k2_at_x", [math.nan, math.inf, -math.inf])
    def test_small_time_bad_k2_at_x(self, k2_at_x):
        with pytest.raises(ValueError, match=re.escape(f"k2_at_x must be finite, got {k2_at_x}")):
            gap_bounds_small_time(0.5, cb(1.0, 1.0), k2_at_x)

    def test_small_time_zero_horizon(self):
        assert gap_bounds_small_time(0.0, cb(2.0, -1.0), -1.0) == (1.0, 1.0)

    @pytest.mark.parametrize(
        "k1,k2_at_x,end",
        [(10.0, 10.0, "lower end 1 - k1*T/2"), (0.0, 10.0, "upper end 1 + k2_at_x*T/2")],
    )
    def test_small_time_overflow(self, k1, k2_at_x, end):
        with pytest.raises(OverflowError, match=re.escape(f"envelope's {end} is")):
            gap_bounds_small_time(1e308, cb(k1, k1), k2_at_x)


class TestLambdaAtLeastOne:
    def test_random_admissible_windows(self):
        """Lambda >= 1 on every admissible window: each term added to 1 is
        nonnegative for either sign of k2, so not even roundoff goes below.
        With Lambda >= 1 and the damped energy at most the usual one for
        c >= 0, the pathwise check cannot fail on S^d or R^d."""
        rng = np.random.default_rng(9)
        for _ in range(5000):
            k1 = 10.0 ** rng.uniform(-2.0, 2.0)
            k2 = rng.uniform(-k1, k1)
            T = 10.0 ** rng.uniform(-3.0, 1.0)
            assert lambda_profile(rng.uniform(0.0, T), T, cb(k1, k2)) >= 1.0
        assert lambda_profile(0.3, 1.0, cb(0.0, 0.0)) == 1.0


class TestGapBracket:
    """On a model space of dimension d and curvature kappa, c = (d - 1) kappa,
    the window (|c|, c) brackets the spectral gap: 1/lambda_sup <= gap <= chi_T,
    the continuum Rayleigh quotient of F = <a, w_T>,
    chi_T = 1 + cT/2 + T^2 (c^2/12 + kappa^2 (d - 1)/3)."""

    @staticmethod
    def chi(T, d, kappa):
        c = (d - 1) * kappa
        return 1.0 + 0.5 * c * T + T * T * (c * c / 12.0 + kappa**2 * (d - 1) / 3.0)

    @pytest.mark.parametrize(
        "d, kappa", [(2, 1.0), (3, 1.0), (2, 5.0), (2, -1.0), (3, -1.0)],
        ids=["S2", "S3", "S2-kappa5", "H2", "H3"],
    )
    def test_closed_forms_stay_below_chi(self, d, kappa):
        """Smallest margins, all at T = 1e-3: +1.0e-3, +2.0e-3, +5.0e-3,
        +4.2e-7 and +1.0e-6."""
        c = (d - 1) * kappa
        for T in np.geomspace(1e-3, 50.0, 60):
            assert 1.0 / lambda_sup(float(T), cb(abs(c), c)) < self.chi(T, d, kappa)

    def test_hyperbolic_plane_closes_to_first_order(self):
        """On H^2 both ends are 1 - T/2 to first order, and the width is chi_T's
        own T^2 coefficient 5/12: the lower bound has no T^2 term there."""
        for T in (1e-3, 1e-2):
            width = self.chi(T, 2, -1.0) - 1.0 / lambda_sup(T, cb(1.0, -1.0))
            assert width / T**2 == pytest.approx(5.0 / 12.0, rel=2e-3)


class TestSmallTimeGapBounds:
    def test_flat(self):
        assert gap_bounds_small_time(0.5, cb(0.0, 0.0), 0.0) == (1.0, 1.0)

    def test_pinched(self):
        K, T = 1.5, 0.2
        lo, hi = gap_bounds_small_time(T, cb(K, -K), -K)
        assert lo == pytest.approx(1 - K * T / 2, rel=1e-15)
        assert hi == pytest.approx(1 - K * T / 2, rel=1e-15)

    def test_example(self):
        lo, hi = gap_bounds_small_time(0.1, cb(2.0, 1.0), 1.0)
        assert lo == pytest.approx(0.9, rel=1e-15)
        assert hi == pytest.approx(1.05, rel=1e-15)

    def test_ordering(self, rng):
        for k1, k2, T in admissible_params(rng, 100):
            lo, hi = gap_bounds_small_time(T, cb(k1, k2), k2)
            if k1 + k2 >= 0:
                assert lo <= hi + 1e-15


class TestBoundReport:
    def test_aggregates(self):
        rep = bound_report(1.0, cb(1.0, 1.0))
        assert rep.lambda_at_0 == pytest.approx(LAMBDA_0_K1, rel=1e-14)
        assert rep.psi == pytest.approx(PSI_K1, rel=1e-14)
        assert rep.t_star == pytest.approx(T_STAR_K1, abs=1e-13)
        assert rep.gap_lower_from_psi == pytest.approx(1.0 / rep.psi, rel=1e-15)
        assert rep.gap_lower_from_sup == pytest.approx(1.0 / rep.lambda_sup, rel=1e-15)

    @pytest.mark.parametrize("k2T", [0.5e-6, 0.9e-6, 1.1e-6])
    def test_negative_k2_near_switch(self, k2T):
        # on both sides of K2_SWITCH the supremum is the endpoint value
        T, k1, k2 = 0.05, 2.0, -k2T / 0.05
        rep = bound_report(T, cb(k1, k2))
        want = float(lambda_mp(T, T, k1, k2))
        assert rep.lambda_sup == pytest.approx(want, rel=1e-10)
        assert rep.psi == pytest.approx(want, rel=1e-10)

    def test_invariants(self, rng):
        for k1, k2, T in admissible_params(rng, 100):
            rep = bound_report(T, cb(k1, k2))
            slack = 1e-10 * max(1.0, rep.lambda_sup)
            assert 1.0 - slack <= rep.lambda_at_0 <= rep.lambda_sup + slack
            assert rep.lambda_at_T <= rep.lambda_sup + slack
            assert rep.gap_lower_from_sup >= rep.gap_lower_from_psi - 1e-10


def pin_windows(n=500, seed=20240):
    """(T, k1, k2) windows for the bit pin, drawn in five kinds in turn.

    k1 = 0, random windows of both signs of k2, |k2| T on both sides of
    ``K2_SWITCH`` (from a tenth of it to ten times it), k1 = |k2| and
    |k2| T from 2 to 60 with k1 up to 20 |k2|.
    """
    rng = random.Random(seed)
    windows = []
    for i in range(n):
        T = rng.uniform(0.01, 5.0)
        sign = rng.choice((1.0, -1.0))
        kind = i % 5
        if kind == 0:
            k1 = k2 = 0.0
        elif kind == 1:
            k1 = rng.uniform(0.01, 4.0)
            k2 = sign * rng.uniform(0.0, k1)
        elif kind == 2:
            k1 = rng.uniform(0.5, 4.0)
            k2 = sign * 10.0 ** rng.uniform(-1.0, 1.0) * K2_SWITCH / T
        elif kind == 3:
            k1 = rng.uniform(0.01, 5.0)
            k2 = sign * k1
        else:
            k2 = sign * rng.uniform(2.0, 60.0) / T
            k1 = abs(k2) * rng.uniform(1.0, 20.0)
        windows.append((T, k1, k2))
    return windows


def closed_form_values(T, window):
    """Every public closed form on one window, in a fixed order."""
    nodes = [0.0] + [T * (j + 1) / 17 for j in range(16)] + [T]
    rep = bound_report(T, window)
    return (
        [lambda_profile(t, T, window) for t in nodes]
        + [lambda_prime(t, T, window) for t in nodes]
        + [lambda_integral(0.5 * T, T, window), lambda_integral(T, T, window)]
        + [lambda_argmax(T, window), lambda_sup(T, window), psi(T, window)]
        + [getattr(rep, name) for name in BoundReport.__dataclass_fields__]
    )


# sha256 of the packed closed_form_values over pin_windows(), recorded before
# the closed forms were restructured around private float cores
PINNED_DIGEST = "2c75258a84cd4e35484273675b850628122fb6d7b9b47a3a2229bc2a7efea005"


class TestPinnedBits:
    def test_digest(self):
        h = hashlib.sha256()
        for T, k1, k2 in pin_windows():
            values = closed_form_values(T, cb(k1, k2))
            h.update(struct.pack(f"<{len(values)}d", *values))
        assert h.hexdigest() == PINNED_DIGEST

    def test_report_fields_equal_the_public_functions(self):
        for T, k1, k2 in pin_windows():
            window = cb(k1, k2)
            rep = bound_report(T, window)
            assert (rep.T, rep.k1, rep.k2) == (T, k1, k2)
            assert rep.lambda_at_0 == lambda_profile(0.0, T, window)
            assert rep.lambda_at_T == lambda_profile(T, T, window)
            assert rep.t_star == lambda_argmax(T, window)
            assert rep.lambda_sup == lambda_sup(T, window)
            assert rep.psi == psi(T, window)
            assert rep.gap_lower_from_sup == 1.0 / lambda_sup(T, window)
            assert rep.gap_lower_from_psi == 1.0 / psi(T, window)
