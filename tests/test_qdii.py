import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy import integrate, linalg, special
from scipy.stats import gamma as gamma_dist

from twinbeam import (
    DomainError,
    GridResolutionError,
    NumericsError,
    OrderingContext,
    TwinBeamParams,
    ValidationError,
    characteristic_function,
    field_moments_from_params,
    joint_qdii_grid,
    nonclassicality,
    ordering_threshold,
    paired_qdii,
    thermal_qdii,
)
from twinbeam import photostat, qdii
from twinbeam.cli import _auto_grid_max
from twinbeam.specfun import log_bessel_i, log_bessel_i_array

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


class TestCharacteristicFunction:
    def test_normalization_point(self, paper_params):
        assert characteristic_function(paper_params, 0.0, 0.0) == pytest.approx(1.0)

    def test_factorizes_without_pairs(self):
        p = TwinBeamParams(0.0, 0.0, 2.0, 0.4, 1.5, 0.3)
        got = characteristic_function(p, 0.7, -0.3)
        want = ((1 - 0.7j * 0.4) ** -2.0) * ((1 + 0.3j * 0.3) ** -1.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_first_derivatives_are_mean_intensities(self, paper_params):
        h = 1e-6
        p = paper_params
        d_s = (characteristic_function(p, h, 0.0)
               - characteristic_function(p, -h, 0.0)) / (2 * h)
        d_i = (characteristic_function(p, 0.0, h)
               - characteristic_function(p, 0.0, -h)) / (2 * h)
        assert d_s == pytest.approx(1j * (p.mean_pairs + p.mean_noise_s), rel=1e-5)
        assert d_i == pytest.approx(1j * (p.mean_pairs + p.mean_noise_i), rel=1e-5)

    def test_pole_detected(self):
        p = TwinBeamParams(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        # paired factor base 1 - i ss - i si + ss si vanishes at (1, -1)
        with pytest.raises(DomainError):
            characteristic_function(p, 1.0, -1.0)


class TestOrderingContext:
    def test_threshold_and_branch_signs(self):
        ctx_above = OrderingContext.for_params(0.055, 1.0)
        assert ctx_above.k_p_s < 0  # oscillatory branch at normal ordering
        ctx_below = OrderingContext.for_params(0.055, 0.0)
        assert ctx_below.k_p_s > 0
        assert ctx_above.s_th_paired == pytest.approx(0.62823242118, rel=1e-10)

    def test_identity_bps_dp_kps(self):
        for b, s in ((0.055, 1.0), (0.5, 0.2), (2.0, -0.5)):
            ctx = OrderingContext.for_params(b, s)
            assert ctx.b_p_s**2 - ctx.d_p**2 == pytest.approx(ctx.k_p_s, abs=1e-12)

    def test_vacuum_normal_ordering_rejected(self):
        with pytest.raises(Exception):
            OrderingContext.for_params(0.0, 1.0)

    @pytest.mark.parametrize("s", [1.5, -1.0, math.nan])
    def test_ordering_outside_its_range_rejected(self, s):
        # the constructor's check, which for_params does not repeat
        with pytest.raises(DomainError):
            OrderingContext.for_params(0.5, s)

    def test_negative_b_pairs_rejected(self):
        with pytest.raises(DomainError):
            OrderingContext.for_params(-1e-3, 0.0)


class TestOrderingThreshold:
    def test_pure_paired_reference_value(self):
        th = ordering_threshold(TwinBeamParams(1.0, 0.055, 0, 0, 0, 0))
        assert th.s_th == pytest.approx(0.63, abs=5e-3)
        assert th.s_th == pytest.approx(1 + 2 * (0.055 - math.sqrt(0.055 * 1.055)),
                                        rel=1e-12)
        # mode count drops out for a pure paired field
        th179 = ordering_threshold(TwinBeamParams(179.0, 0.055, 0, 0, 0, 0))
        assert th179.s_th == pytest.approx(th.s_th, rel=1e-12)

    def test_vacuum_limit(self):
        th = ordering_threshold(TwinBeamParams(1.0, 0.0, 0, 0, 0, 0))
        assert th.s_th == pytest.approx(1.0, abs=1e-14)

    def test_noise_dominated_field_is_classical(self, rng):
        for _ in range(200):
            p = TwinBeamParams(0.0, 0.0,
                               rng.uniform(0.1, 5), rng.uniform(0.1, 5),
                               rng.uniform(0.1, 5), rng.uniform(0.1, 5))
            th = ordering_threshold(p)
            if th.is_real:
                assert th.s_th >= 1.0 - 1e-12
            margin = nonclassicality(field_moments_from_params(p)).margin
            assert margin <= 0

    def test_undefined_threshold_reports_radicand(self):
        # strongly asymmetric noise: no ordering removes the difference noise
        p = TwinBeamParams(0.0, 0.0, 0.01, 30.0, 5.0, 0.01)
        th = ordering_threshold(p)
        assert not th.is_real
        assert math.isnan(th.s_th)
        assert th.radicand < 0

    def test_all_modes_zero_rejected(self):
        with pytest.raises(DomainError):
            ordering_threshold(TwinBeamParams(0, 0, 0, 0, 0, 0))


class TestNonclassicality:
    def test_reference_state(self, paper_detected):
        from twinbeam import inversion_family, invert_at
        fam = inversion_family(paper_detected, 0.243, 0.235)
        fm = invert_at(fam, 0.549, atol=5e-3)
        v = nonclassicality(fm)
        assert v.margin == pytest.approx(17.886, abs=1e-2)
        assert v.nonclassical

    def test_pairs_absent_is_classical(self):
        fm = field_moments_from_params(TwinBeamParams(0, 0, 2.0, 0.5, 1.0, 0.25))
        assert not nonclassicality(fm).nonclassical

    def test_boundary_coincides_with_unit_threshold(self):
        # M_s B_s^2 + M_i B_i^2 = 2 M_p B_p  =>  margin 0 and s_th = 1
        p = TwinBeamParams(10.0, 0.4, 2.0, 1.0, 6.0, 1.0)
        fm = field_moments_from_params(p)
        v = nonclassicality(fm)
        assert v.margin == pytest.approx(0.0, abs=1e-12)
        th = ordering_threshold(p)
        assert th.s_th == pytest.approx(1.0, abs=1e-9)

    def test_equivalence_with_threshold_on_random_states(self, rng):
        agree = 0
        n = 1000
        for _ in range(n):
            p = TwinBeamParams(
                rng.uniform(0.5, 200), rng.uniform(0.01, 1.0),
                rng.uniform(1e-4, 5), rng.uniform(0.01, 20),
                rng.uniform(1e-4, 5), rng.uniform(0.01, 20))
            margin = nonclassicality(field_moments_from_params(p)).margin
            th = ordering_threshold(p)
            below_one = th.is_real and th.s_th < 1.0
            agree += (margin > 0) == below_one
        assert agree == n


class TestPairedQdii:
    def test_single_mode_bessel_closed_form(self):
        # on the smooth branch with one paired mode the density reduces to
        # exp and I_0 factors only
        b_pairs, s, w = 0.055, 0.0, 0.7
        ctx = OrderingContext.for_params(b_pairs, s)
        got = paired_qdii(ctx, 1.0, w, w)
        want = (math.exp(-2 * ctx.b_p_s * w / ctx.k_p_s
                         + log_bessel_i(0.0, 2 * ctx.d_p * w / ctx.k_p_s).log_magnitude)
                / ctx.k_p_s)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("w", [0.0, 1e-200])
    def test_single_mode_bessel_at_origin(self, w):
        # with one paired mode the density at the origin is 1/k; the series
        # sizes itself from log x + log y, as the product x y underflows here
        ctx = OrderingContext.for_params(0.055, 0.0)
        assert paired_qdii(ctx, 1.0, w, w) == pytest.approx(1.0 / ctx.k_p_s, rel=1e-12)

    @pytest.mark.parametrize("m", [2.5, 179.0])
    def test_bessel_branch_vanishes_near_origin(self, m):
        # (x y)^((m-1)/2) at x = y = 1e-200 is below every double
        ctx = OrderingContext.for_params(0.055, 0.0)
        assert 0.0 <= paired_qdii(ctx, m, 1e-200, 1e-200) < 1e-300

    def test_bessel_branch_normalized(self):
        g = np.linspace(1e-9, 30.0, 900)
        grid = joint_qdii_grid(TwinBeamParams(1.0, 0.055, 0, 0, 0, 0), 0.0, g, g)
        assert grid.normalization == pytest.approx(1.0, abs=5e-3)
        assert grid.values.min() >= 0.0

    def test_sinc_branch_diagonal_positive(self, paper_params):
        ctx = OrderingContext.for_params(paper_params.b_pairs, 1.0)
        for w in (2.0, 9.8, 15.0):
            assert paired_qdii(ctx, paper_params.m_pairs, w, w) > 0.0

    def test_sinc_branch_negative_strips(self, paper_params):
        # first negative lobe of the kernel: offset in (pi, 2pi) * sqrt(-K)
        ctx = OrderingContext.for_params(paper_params.b_pairs, 1.0)
        a = math.sqrt(-ctx.k_p_s)
        w = 9.8
        val = paired_qdii(ctx, paper_params.m_pairs, w + 1.5 * math.pi * a, w)
        assert val < 0.0

    def test_raw_form_scales_by_total_mass(self):
        # the printed expression in 30 digits, divided by the same double
        # closed-form mass; one point takes the per-cell path, which rounds
        # as sinc_tolerance states
        m, w_s, w_i = 10.0, 5.2, 4.8
        ctx = OrderingContext.for_params(0.5, 1.0)
        mass = qdii._sinc_normalization(m, ctx.b_p_s, -ctx.k_p_s)
        want = TestSincQuadrature.mp_density(ctx, m, w_s, w_i, mass)
        tol = sinc_tolerance(ctx, m, None, np.array([w_s]), np.array([w_i]), mass)[0, 0]
        assert abs(paired_qdii(ctx, m, w_s, w_i) - want) <= tol

    def test_branch_boundary_excluded(self):
        ctx = OrderingContext.for_params(0.055, 0.62823242118216382)
        assert abs(ctx.k_p_s) < 1e-12
        ctx_exact = OrderingContext(ctx.s, ctx.b_p_s, ctx.d_p, 0.0, ctx.s_th_paired)
        with pytest.raises(DomainError):
            paired_qdii(ctx_exact, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_uncorrelated_limit_is_product_of_gamma_densities(self, s):
        # b_pairs = 0: both arms carry independent thermal light of scale
        # (1 - s)/2, so the density factorizes; the log-densities of the
        # cells that do not underflow stay below ~300 in magnitude, so both
        # sides agree to ~1e-13.  A subnormal coordinate is taken as it is
        ctx = OrderingContext.for_params(0.0, s)
        scale = (1.0 - s) / 2.0
        for m in (0.6, 1.0, 2.5, 40.0):
            for w_s, w_i in ((0.05, 0.3), (1.0, 1.0), (0.9, 3.7), (m * scale, 2.0 * m * scale),
                             (1e-310, 0.3)):
                want = (gamma_dist.pdf(w_s, a=m, scale=scale)
                        * gamma_dist.pdf(w_i, a=m, scale=scale))
                assert paired_qdii(ctx, m, w_s, w_i) == pytest.approx(want, rel=1e-12)

    def test_domain_errors(self):
        ctx = OrderingContext.for_params(0.5, 0.0)
        with pytest.raises(DomainError):
            paired_qdii(ctx, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            paired_qdii(ctx, 1.0, -1.0, 1.0)

    def test_axis_rules(self):
        # on an axis the Bessel form carries (x y)^((m-1)/2): it vanishes for
        # m > 1, is exp(-b y/k)/k for one mode, and diverges for m < 1
        ctx = OrderingContext.for_params(0.055, 0.0)
        assert paired_qdii(ctx, 2.0, 0.0, 1.0) == 0.0
        want = math.exp(-ctx.b_p_s / ctx.k_p_s) / ctx.k_p_s
        assert want == pytest.approx(0.4344, abs=1e-4)
        assert paired_qdii(ctx, 1.0, 0.0, 1.0) == pytest.approx(want, rel=1e-12)
        with pytest.raises(DomainError):
            paired_qdii(ctx, 0.5, 0.0, 1.0)


class TestSincNormalization:
    """The closed-form mass ``kt I_x(1/2, m/2)`` of the raw sinc branch
    against two independent evaluations: the one-dimensional t-integral it
    is derived from, in 30-digit mpmath, and a brute-force two-dimensional
    integral of the raw expression."""

    STATES = [(0.5, 0.3, 1.0), (3.0, 0.3, 1.0), (179.0, 0.055, 1.0)]

    @staticmethod
    def t_integral(m, b, kt):
        # (kt / 2pi) Gamma((m+1)/2)^2 / (Gamma(m) b^m)
        #   * int_{-1/a}^{1/a} (1/(4b^2) + t^2)^{-(m+1)/2} dt,
        # with (2b)^{m+1} taken out so the integrand is O(1)
        with mp.workdps(30):
            m, b, kt = mp.mpf(m), mp.mpf(b), mp.mpf(kt)
            pref = (kt / (2 * mp.pi) * mp.gamma((m + 1) / 2) ** 2
                    / (mp.gamma(m) * b ** m) * (2 * b) ** (m + 1))
            body = mp.quad(lambda t: (1 + 4 * b * b * t * t) ** (-(m + 1) / 2),
                           [0, 1 / mp.sqrt(kt)])
            return float(2 * pref * body)

    @staticmethod
    def raw(m, b, kt, ws, wi):
        a = math.sqrt(kt)
        v = ws - wi
        kernel = a / math.pi if v == 0 else a * a * math.sin(v / a) / (math.pi * v)
        return kernel * math.exp((m - 1) / 2 * math.log(ws * wi) - (ws + wi) / (2 * b)
                                 - math.lgamma(m) - m * math.log(b))

    @pytest.mark.parametrize("m, b_pairs, s", STATES)
    def test_matches_t_integral(self, m, b_pairs, s):
        ctx = OrderingContext.for_params(b_pairs, s)
        got = qdii._sinc_normalization(m, ctx.b_p_s, -ctx.k_p_s)
        # a few double operations and one incomplete beta function (accurate
        # to ~1e-15 relative): 1e-14 is ten times that
        assert got == pytest.approx(self.t_integral(m, ctx.b_p_s, -ctx.k_p_s), rel=1e-14)

    @pytest.mark.parametrize("m, b_pairs, s", STATES)
    def test_matches_brute_force_double_integral(self, m, b_pairs, s):
        ctx = OrderingContext.for_params(b_pairs, s)
        b, kt = ctx.b_p_s, -ctx.k_p_s
        # u = (ws + wi)/2, v = ws - wi (unit Jacobian); the u range ends 40
        # standard deviations of the gamma-like radial factor above its mean
        u_max = m * b + 40.0 * math.sqrt(m) * b + 40.0 * b
        want, err = integrate.dblquad(
            lambda v, u: self.raw(m, b, kt, u + v / 2, u - v / 2),
            0.0, u_max, lambda u: -2.0 * u, lambda u: 2.0 * u,
            epsabs=1e-13, epsrel=1e-10)
        assert abs(qdii._sinc_normalization(m, b, kt) - want) <= err

    def test_underflowing_mass_raises(self):
        # at b_pairs = 1e-170 and s = 1, 4 b^2 underflows to 0, and so does
        # I_x(1/2, m/2): the mass is 0, which no density divides by
        params = TwinBeamParams(10.0, 1e-170, 0.0, 0.0, 0.0, 0.0)
        axis = np.linspace(0.0, 4e-169, 50)
        with pytest.raises(NumericsError, match="normalization is not positive"):
            joint_qdii_grid(params, 1.0, axis, axis)

    def test_many_mode_mass_tends_to_abs_k(self):
        ctx = OrderingContext.for_params(0.055, 1.0)
        kt = -ctx.k_p_s
        masses = [qdii._sinc_normalization(m, ctx.b_p_s, kt) for m in (3.0, 30.0, 300.0)]
        assert masses[0] < masses[1] < masses[2] <= kt
        assert masses[2] == pytest.approx(kt, rel=1e-12)


class TestBesselBranch:
    def test_distinct_arguments_match_pointwise_evaluation(self, paper_params):
        # the grid evaluates the Bessel function once per distinct argument;
        # one point at a time, every argument is distinct
        g = np.linspace(60.0, 140.0, 50)
        grid = joint_qdii_grid(paper_params, 0.0, g, g, paired_only=True)
        ctx = OrderingContext.for_params(paper_params.b_pairs, 0.0)
        pointwise = np.array([[paired_qdii(ctx, paper_params.m_pairs, x, y) for y in g]
                              for x in g])
        assert np.array_equal(grid.values, pointwise)

    @given(m_pairs=st.floats(20.0, 300.0), b_pairs=st.floats(0.02, 0.2),
           m_noise=st.floats(1e-5, 3.0), b_noise=st.floats(0.05, 1.0),
           s=st.floats(-0.5, 0.0))
    def test_full_grid_nonnegative(self, m_pairs, b_pairs, m_noise, b_noise, s):
        # below the threshold ordering the density, and so its convolution
        # with the noise measures, has no negative cell
        params = TwinBeamParams(m_pairs, b_pairs, m_noise, b_noise, m_noise / 2, b_noise)
        sigma = (1.0 - s) / 2.0
        mean = m_pairs * (b_pairs + sigma) + m_noise * (b_noise + sigma)
        sd = math.sqrt(m_pairs * (b_pairs + sigma) ** 2 + m_noise * (b_noise + sigma) ** 2)
        g = np.linspace(0.0, mean + 10.0 * sd, 120)
        assert joint_qdii_grid(params, s, g, g).values.min() >= 0.0


def series_scale(ctx, m, n_terms, w):
    """For each intensity w, the largest sum over the terms of the magnitudes
    of the components of the log of a series factor, ``A_j / 2``,
    ``(m-1+j) log w`` and ``b w / k``; ``A_j`` itself has five components."""
    j = np.arange(n_terms)
    half_a = 0.5 * (np.abs(2.0 * j * math.log(ctx.d_p)) + abs(special.gammaln(m))
                    + np.abs((m + 2.0 * j) * math.log(ctx.k_p_s))
                    + special.gammaln(j + 1.0) + np.abs(special.gammaln(m + j)))
    return (half_a + np.abs(np.multiply.outer(np.log(w), m - 1.0 + j))
            + (ctx.b_p_s * w / ctx.k_p_s)[:, None]).max(axis=1)


def series_tolerance(ctx, m, n_terms, x, y):
    """Relative error bound of the series grid on the axes x, y, per cell.

    A cell is ``sum_j exp(E_j(x) + E_j(y))`` with ``n_terms`` positive terms.
    Every component of ``E_j`` is one or two rounded operations, and so is
    each addition, so the absolute error of ``E_j(x) + E_j(y)`` is a few
    units of roundoff u times the sum of the component magnitudes, at most
    ``series_scale(x) + series_scale(y)``; ``exp`` turns it into the same
    relative error.  Four units, ``2 eps`` times that sum, are allowed.  The
    sum of n positive terms adds at most ``n u``, allowed as ``eps n``."""
    scale = series_scale(ctx, m, n_terms, x)[:, None] + series_scale(ctx, m, n_terms, y)[None, :]
    return EPS * (2.0 * scale + n_terms)


def series_terms(ctx, m, x, y):
    """The term count a grid runs the series with, read from its factor, or
    None when it evaluates the Bessel function per distinct argument; x and
    y are the points the density evaluates, which leave out w = 0 unless
    m = 1, where it is 1e-300."""
    factor = qdii._bessel_factor(ctx, m, x, y)
    return None if factor is None else factor(x[:1]).shape[1]


class TestBesselSeries:
    """The separable series ``F_s @ F_i.T`` of the Bessel-branch density."""

    @staticmethod
    def mp_density(ctx, m, x, y):
        with mp.workdps(40):
            b, d, k = mp.mpf(ctx.b_p_s), mp.mpf(ctx.d_p), mp.mpf(ctx.k_p_s)
            x, y, nu = mp.mpf(x), mp.mpf(y), mp.mpf(m) - 1
            return float((x * y) ** (nu / 2) / (mp.gamma(m) * k * d ** nu)
                         * mp.exp(-b * (x + y) / k)
                         * mp.besseli(nu, 2 * d * mp.sqrt(x * y) / k))

    @pytest.mark.parametrize("m, b_pairs, s", [
        (179.0, 0.055, 0.0), (179.0, 0.055, -0.5), (1.0, 0.055, 0.0), (2.5, 1.0, 0.0),
    ], ids=["readme-s0", "readme-s-0.5", "m1", "m2.5"])
    def test_against_extended_precision(self, m, b_pairs, s):
        # 200-cell grids on the CLI's automatic axis, every fourth row and
        # column, at the cells above 1e-8 of the peak; the 40-digit reference
        # sees the same double inputs, so its own error is negligible
        params = TwinBeamParams(m, b_pairs, 0, 0, 0, 0)
        axis = np.linspace(0.0, _auto_grid_max(params, s), 200)
        ctx = OrderingContext.for_params(b_pairs, s)
        points = np.maximum(axis, 1e-300) if m == 1.0 else axis[1:]
        n_terms = series_terms(ctx, m, points, points)
        assert n_terms is not None  # the grid takes the series
        grid = joint_qdii_grid(params, s, axis, axis, paired_only=True).values
        tol = series_tolerance(ctx, m, n_terms, np.maximum(axis, 1e-300),
                               np.maximum(axis, 1e-300))
        peak = grid.max()
        checked = 0
        for i in range(0, axis.size, 4):
            for j in range(0, axis.size, 4):
                if grid[i, j] > 1e-8 * peak:
                    want = self.mp_density(ctx, m, max(axis[i], 1e-300), max(axis[j], 1e-300))
                    assert abs(grid[i, j] - want) <= tol[i, j] * want
                    checked += 1
        assert checked > 100

    @given(m=st.floats(0.5, 300.0), b_pairs=st.floats(0.01, 2.0),
           s=st.floats(-0.9, 0.0, exclude_max=True))
    def test_matches_distinct_argument_evaluation(self, m, b_pairs, s):
        # s < 0 lies below every paired threshold ordering (which exceeds 0
        # for b_pairs > 0).  The distinct-argument path has its own rounding:
        # the components of its log density, ``log I`` among them, with the
        # same allowance of 2 eps times their magnitude; the library Bessel
        # function adds a few units of its own, below the slack of the bound
        ctx = OrderingContext.for_params(b_pairs, s)
        g = _auto_grid_max(TwinBeamParams(m, b_pairs, 0, 0, 0, 0), s)
        axis = np.linspace(g / 60, g, 60)
        half_a = qdii._series_half_log_coefficients(ctx, m, 2.0 * math.log(g), 20000)
        assume(half_a is not None)
        factors = qdii._series_factors(ctx, m, half_a, axis)
        series = factors @ factors.T
        distinct = qdii._bessel_distinct(ctx, m, axis, axis)
        log_prod = np.add.outer(np.log(axis), np.log(axis))
        z = 2.0 * ctx.d_p * np.exp(log_prod / 2.0) / ctx.k_p_s
        distinct_scale = (abs(m - 1.0) / 2.0 * np.abs(log_prod) + abs(special.gammaln(m))
                          + abs(math.log(ctx.k_p_s)) + abs((m - 1.0) * math.log(ctx.d_p))
                          + ctx.b_p_s * np.add.outer(axis, axis) / ctx.k_p_s
                          + np.abs(log_bessel_i_array(m - 1.0, z)))
        tol = series_tolerance(ctx, m, half_a.size, axis, axis) + 2.0 * EPS * distinct_scale
        kept = series > 1e-8 * series.max()
        assert np.all(np.abs(series - distinct)[kept] <= (tol * series)[kept])

    @pytest.mark.parametrize("s, cap, series", [
        (0.0, None, True), (0.6, None, False), (0.0, 100, False)])
    def test_term_count_selects_the_path(self, paper_params, s, cap, series, monkeypatch):
        # README state, 200-cell automatic axis: 182 terms at s = 0 fit in
        # the 398 the two axes allow without w = 0; 3,138 at s = 0.6 do not,
        # and neither do 182 when the cap is 100
        if cap is not None:
            monkeypatch.setattr(qdii, "_SERIES_MAX_TERMS", cap)
        axis = np.linspace(0.0, _auto_grid_max(paper_params, s), 200)
        ctx = OrderingContext.for_params(paper_params.b_pairs, s)
        assert (series_terms(ctx, paper_params.m_pairs, axis[1:], axis[1:]) is not None) == series
        calls = []
        distinct = qdii._bessel_distinct
        monkeypatch.setattr(qdii, "_bessel_distinct",
                            lambda *a: calls.append(1) or distinct(*a))
        joint_qdii_grid(paper_params, s, axis, axis, paired_only=True)
        assert len(calls) == (0 if series else 1)


    @pytest.mark.parametrize("m_pairs", [2000.0, 5000.0])
    @pytest.mark.parametrize("s", [0.0, 0.3])
    @pytest.mark.parametrize("paired", [True, False])
    def test_many_mode_grids(self, paper_params, m_pairs, s, paired):
        # README noise with thousands of pairs on the 201-cell automatic
        # axis: the series needs more terms than the axes have points, so
        # the Bessel function is evaluated per argument, and near the origin
        # its scaled value underflows into the ascending series of order
        # m_pairs - 1, whose terms overflow a double
        params = replace(paper_params, m_pairs=m_pairs)
        axis = np.linspace(0.0, _auto_grid_max(params, s), 201)
        grid = joint_qdii_grid(params, s, axis, axis, paired_only=paired)
        assert np.isfinite(grid.values).all()
        assert abs(grid.normalization - 1.0) <= qdii.NORMALIZATION_TOL


class TestThermalQdii:
    def test_single_mode_is_exponential(self):
        for w in (0.0, 0.3, 2.0):
            assert thermal_qdii(1.0, 0.5, 1.0, w) == pytest.approx(
                math.exp(-w / 0.5) / 0.5, rel=1e-12)

    def test_matches_gamma_density(self):
        for m, b, s in ((2.5, 0.4, 1.0), (8e-6, 320.0, 1.0), (1.5, 0.2, 0.0)):
            scale = b + (1 - s) / 2
            for w in (1e-4, 0.05, 1.0, 40.0):
                want = gamma_dist.pdf(w, a=m, scale=scale)
                assert thermal_qdii(m, b, s, w) == pytest.approx(want, rel=1e-10)

    def test_normalized(self):
        w = np.linspace(1e-9, 40.0, 20000)
        vals = np.array([thermal_qdii(2.0, 1.5, 0.0, x) for x in w[::50]])
        dense = gamma_dist.pdf(w, a=2.0, scale=1.5 + 0.5)
        assert np.trapezoid(dense, w) == pytest.approx(1.0, abs=1e-6)
        # spot agreement between our evaluation and the dense reference
        assert vals[3] == pytest.approx(
            gamma_dist.pdf(w[150], a=2.0, scale=2.0), rel=1e-10)

    def test_extreme_noise_quantiles(self):
        # nearly-zero shape: almost all mass below 1e-3 with a heavy far tail
        m, b = 8e-6, 320.0
        below = gamma_dist.cdf(1e-3, a=m, scale=b)
        assert below > 0.9999
        q = gamma_dist.ppf(0.999999, a=m, scale=b)
        assert thermal_qdii(m, b, 1.0, q) == pytest.approx(
            gamma_dist.pdf(q, a=m, scale=b), rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            thermal_qdii(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            thermal_qdii(0.5, 1.0, 1.0, 0.0)
        # photons per mode are >= 0, as TwinBeamParams requires
        with pytest.raises(DomainError):
            thermal_qdii(1.0, -0.1, 0.0, 1.0)
        with pytest.raises(DomainError):
            thermal_qdii(2.0, 1.0, 0.0, -1e-3)

    @pytest.mark.parametrize("s", [2.5, -1.0, 1.5])
    def test_ordering_outside_its_range_rejected(self, s):
        # the effective scale b + (1 - s)/2 stays positive at s = 2.5 with
        # b = 5, but no ordering above 1 or at or below -1 is defined
        with pytest.raises(DomainError):
            thermal_qdii(1.0, 5.0, s, 1.0)


class TestJointGrid:
    def test_noise_free_grid_equals_paired_density(self):
        params = TwinBeamParams(10.0, 0.3, 0, 0, 0, 0)
        g = np.linspace(0.0, 15.0, 120)
        grid = joint_qdii_grid(params, 0.0, g, g)
        ctx = OrderingContext.for_params(0.3, 0.0)
        for j, k in ((3, 5), (40, 40), (80, 20)):
            assert grid.values[j, k] == pytest.approx(
                paired_qdii(ctx, 10.0, g[j], g[k]), rel=1e-12)

    def test_pairs_absent_factorizes(self):
        params = TwinBeamParams(0.0, 0.0, 2.0, 0.6, 3.0, 0.4)
        g = np.linspace(0.0, 14.0, 160)
        grid = joint_qdii_grid(params, 0.0, g, g)
        f_s = gamma_dist.pdf(g, a=2.0, scale=1.1)
        f_i = gamma_dist.pdf(g, a=3.0, scale=0.9)
        assert np.allclose(grid.values, np.outer(f_s, f_i), rtol=1e-9, atol=1e-12)

    def test_reference_state_smooth_at_symmetric_ordering(self, paper_params):
        # s = 0 lies below the threshold: non-negative smoothed surface
        mean = paper_params.m_pairs * (paper_params.b_pairs + 0.5)
        g = np.linspace(max(0.0, mean - 5 * 8), mean + 5 * 8, 160)
        grid = joint_qdii_grid(paper_params, 0.0, g, g)
        assert grid.values.min() >= 0.0
        assert grid.normalization == pytest.approx(1.0, abs=0.02)

    def test_reference_state_negative_strips_at_normal_ordering(self, paper_params):
        g = np.linspace(0.0, 25.0, 220)
        grid = joint_qdii_grid(paper_params, 1.0, g, g)
        assert grid.values.min() < 0.0
        assert grid.normalization == pytest.approx(1.0, abs=0.05)

    def test_marginal_moments_at_normal_ordering(self):
        # mean = M_p B_p + M_s B_s and central second moment
        # = M_p B_p^2 + M_s B_s^2, for noise whose variance the grid window
        # can actually hold
        p = TwinBeamParams(179.0, 0.055, 0.5, 2.0, 0.8, 1.5)
        g = np.linspace(0.0, 60.0, 700)
        grid = joint_qdii_grid(p, 1.0, g, g)
        marg = np.trapezoid(grid.values, g, axis=1)
        total = np.trapezoid(marg, g)
        mean = np.trapezoid(g * marg, g) / total
        m2 = np.trapezoid(g * g * marg, g) / total
        want_mean = p.mean_pairs + p.mean_noise_s
        want_var = p.m_pairs * p.b_pairs**2 + p.m_noise_s * p.b_noise_s**2
        assert mean == pytest.approx(want_mean, rel=0.01)
        assert m2 - mean**2 == pytest.approx(want_var, rel=0.01)

    def test_reference_state_windowed_moments(self, paper_params):
        # the reference noise variance (M_s B_s^2 ~ 0.82) is carried by
        # ~5e-5 probability mass at intensities of hundreds, far outside any
        # window that resolves the paired ridge; within the window the mean
        # is the full-field one and the variance is the paired-field one
        g = np.linspace(0.0, 30.0, 400)
        grid = joint_qdii_grid(paper_params, 1.0, g, g)
        marg = np.trapezoid(grid.values, g, axis=1)
        total = np.trapezoid(marg, g)
        mean = np.trapezoid(g * marg, g) / total
        m2 = np.trapezoid(g * g * marg, g) / total
        p = paper_params
        assert mean == pytest.approx(p.mean_pairs + p.mean_noise_s, rel=0.01)
        assert m2 - mean**2 == pytest.approx(p.m_pairs * p.b_pairs**2, rel=0.015)

    def test_pairs_absent_with_empty_arm_rejected(self):
        # an arm with neither pairs nor noise is a point mass at 0
        g = np.linspace(0.0, 14.0, 40)
        with pytest.raises(DomainError):
            joint_qdii_grid(TwinBeamParams(0.0, 0.0, 2.0, 0.6, 0.0, 0.0), 0.0, g, g)

    def test_coarse_grid_rejected(self, paper_params):
        g = np.linspace(0.0, 3.0, 30)  # covers almost none of the mass
        with pytest.raises(GridResolutionError):
            joint_qdii_grid(paper_params, 0.0, g, g)

    def test_branch_boundary_rejected(self, paper_params):
        ctx = OrderingContext.for_params(paper_params.b_pairs, 1.0)
        g = np.linspace(0.0, 20.0, 50)
        with pytest.raises(DomainError):
            joint_qdii_grid(paper_params, ctx.s_th_paired, g, g)

    @pytest.mark.parametrize("route", ["convolved", "paired-only", "noise-only"])
    @pytest.mark.parametrize("axis", [
        np.float64(5.0),
        np.linspace(0.0, 20.0, 40).reshape(2, 20),
        np.where(np.arange(40) == 7, np.nan, np.linspace(0.0, 20.0, 40)),
        np.linspace(-1.0, 20.0, 40),
        np.linspace(20.0, 0.0, 40),
    ], ids=["scalar", "2-D", "NaN", "negative-start", "decreasing"])
    def test_axes_checked_before_evaluation(self, paper_params, axis, route, monkeypatch):
        # a malformed axis, on either side, is a ValidationError raised
        # before any density is evaluated
        params = (replace(paper_params, m_pairs=0.0, b_pairs=0.0) if route == "noise-only"
                  else paper_params)
        calls = []
        for name in ("_evaluate_paired", "_thermal_values"):
            original = getattr(qdii, name)
            monkeypatch.setattr(qdii, name, lambda *a, f=original: calls.append(1) or f(*a))
        good = np.linspace(0.0, 20.0, 40)
        for ws, wi in ((axis, good), (good, axis)):
            with pytest.raises(ValidationError):
                joint_qdii_grid(params, 1.0, ws, wi, paired_only=route == "paired-only")
        assert not calls

    def test_noise_convolution_needs_uniform_axes(self, paper_params):
        # pitch 0.1 up to 10, then 0.075: increasing but not uniform
        g = np.concatenate((np.linspace(0.0, 10.0, 100, endpoint=False),
                            np.linspace(10.0, 25.0, 201)))
        with pytest.raises(DomainError, match="uniformly spaced"):
            joint_qdii_grid(paper_params, 1.0, g, g)
        # paired-only and noise-free grids evaluate pointwise on any axes
        paired = joint_qdii_grid(paper_params, 1.0, g, g, paired_only=True)
        noise_free = replace(paper_params, m_noise_s=0.0, m_noise_i=0.0)
        assert np.array_equal(joint_qdii_grid(noise_free, 1.0, g, g).values,
                              paired.values)


def sinc_envelope(ctx, m, x, y, mass):
    """``a g(x) g(y) / (pi mass)``, the value of the normalized sinc-branch
    density's kernel at zero offset: no cell exceeds it in magnitude."""
    b, a = ctx.b_p_s, math.sqrt(-ctx.k_p_s)
    log_g = lambda w: ((m - 1.0) / 2.0 * np.log(w) - w / (2.0 * b)
                       - (special.gammaln(m) + m * math.log(b)) / 2.0)
    return a * np.exp(np.add.outer(log_g(x), log_g(y))) / (math.pi * mass)


def sinc_tolerance(ctx, m, n_nodes, x, y, mass):
    """Absolute error bound of a sinc-branch grid on the axes x, y, per cell,
    in units of eps times the envelope of ``sinc_envelope``.

    Both paths form ``g(x) g(y)`` from exponents whose components, ``(m-1)/2
    log w``, ``w / (2b)`` and half of ``log G(m)`` and of ``m log b``, are
    one or two rounded operations each: an error of a few units of roundoff
    u times ``S(x) + S(y)``, S the sum of their magnitudes, which ``exp``
    makes a relative error; 2 eps times it is allowed.  The direct path
    takes the sine of ``z = (x - y)/a``, rounded to ``2u |z|``, which moves
    ``sin z / z`` by at most 4u of the envelope; ``|z| + 4`` units are
    allowed.  The quadrature takes cosines and sines of ``t_q w``, ``t_q =
    (1 + tau_q)/(2a)``: with nodes tau_q within 8 eps (``TestGaussLegendre``)
    a phase is off by at most ``5 eps w/a``, and the kernel, a weighted mean
    of cosines of weight 2, by at most the phase errors of the two axes,
    ``5 (x + y)/a`` units.  Its 2n-term sum rounds by ``gamma_2n``, n units,
    since ``|cos cos + sin sin| <= 1`` and the weights sum to 2; its weights
    are off by at most 3n eps in all (``TestGaussLegendre``), 1.5 n units;
    its truncation error is below eps/2 of the envelope by the node rule;
    4 more units cover the scalar factors.  Where the envelope is below
    1e-290 products of factors can be subnormal, and rounding there is
    absolute, not relative; the tests skip those cells."""
    b, a = ctx.b_p_s, math.sqrt(-ctx.k_p_s)
    half = (abs(special.gammaln(m)) + abs(m * math.log(b))) / 2.0
    size = lambda w: abs(m - 1.0) / 2.0 * np.abs(np.log(w)) + w / (2.0 * b) + half
    units = 2.0 * np.add.outer(size(x), size(y)) + 4.0
    if n_nodes is None:
        units += np.abs(np.subtract.outer(x, y)) / a
    else:
        units += 5.0 * np.add.outer(x, y) / a + 2.5 * n_nodes
    return EPS * units * sinc_envelope(ctx, m, x, y, mass)


def sinc_nodes(ctx, m, x, y):
    """The node count a grid runs the quadrature with, read from its factor,
    or None when it takes the direct path; x and y are the points the
    density evaluates, which leave out w = 0 for m > 1."""
    factor = qdii._sinc_factor(ctx, m, x, y)
    return None if factor is None else factor(x[:1]).shape[1] // 2


class TestNoiseConvolution:
    """The noise convolution against a direct-sum convolution in extended
    precision, on the same lattice, paired factors and binned kernels.

    ``_convolve_uniform`` forms ``(T_s L)(T_i R)^T`` or ``T_s (L R^T)
    T_i^T`` from the factors ``(L, R)`` of ``_paired_values``, or ``T_s P
    T_i^T`` from a grid P of a direct path.  Either way it is three chained
    matrix products, with inner dimensions the two lattice sizes and the
    rank K.  A rounded product of inner dimension k is ``AB + E`` with
    ``|E| <= gamma_k |A||B|``, ``gamma_k = k u / (1 - k u)`` (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.5).  Chaining three,
    in either order, gives ``|got - exact| <= gamma_n |T_s||L||R|^T|T_i|^T``
    with n the sum of the inner dimensions, since ``(1 + gamma_a)(1 +
    gamma_b)(1 + gamma_c) <= 1 + gamma_(a+b+c)``; a direct grid is K = 0
    with ``|P|`` for ``|L||R|^T``.  The reference adds one rounding, to
    double.  In the second order the cells of ``L R^T`` below the floor
    ``tiny/eps`` of ``qdii._flush_below`` are set to 0, which moves each by
    less than the floor; the binned kernels' masses sum to at most 1 per
    Toeplitz row, so that moves a convolved cell by less than the floor
    too, which the bound adds.  The factors and the per-cell grids are
    flushed before the reference sees them, so they need no slack of their
    own.  Sinc-branch
    factors are also checked against the direct expression, so a rule with
    too few nodes fails here, not only the convolution of its factors."""

    @staticmethod
    def lattice(axis):
        # the axis, after the points below it down toward 0 at its pitch
        h = axis[1] - axis[0]
        lo = min(int(round(axis[0] / h)), axis.size * 4)
        below = axis[0] - h * np.arange(lo, 0, -1)
        return lo, h, np.maximum(np.concatenate((below, axis)), 0.0)

    def check(self, params, s, axis, factored=True):
        ctx = OrderingContext.for_params(params.b_pairs, s)
        got = qdii._convolve_uniform(params, ctx, axis, axis)
        assert got.shape == (axis.size, axis.size)
        lo, h, lat = self.lattice(axis)
        left, right = qdii._paired_values(ctx, params.m_pairs, lat, lat)
        assert (right is not None) == factored
        if right is None:
            paired, magnitude, rank = left.astype(np.longdouble), np.abs(left), 0
        else:
            paired = left.astype(np.longdouble) @ right.astype(np.longdouble).T
            magnitude, rank = np.abs(left) @ np.abs(right).T, left.shape[1]
        if right is not None and ctx.k_p_s < 0:
            self.check_sinc_factors(ctx, params.m_pairs, lat, left @ right.T, rank // 2)
        sigma = (1.0 - s) / 2.0
        kernels = [qdii._binned_thermal_kernel(m, b + sigma, h, lat.size) if m > 0
                   else np.array([1.0])
                   for m, b in ((params.m_noise_s, params.b_noise_s),
                                (params.m_noise_i, params.b_noise_i))]
        # direct sums in long double, one axis at a time
        rows = np.array([np.convolve(r, kernels[1].astype(np.longdouble)) for r in paired])
        full = np.array([np.convolve(c, kernels[0].astype(np.longdouble)) for c in rows.T]).T
        want = full[lo:lo + axis.size, lo:lo + axis.size].astype(float)
        # |T_s| |L| |R|^T |T_i|^T with the kernels' Toeplitz matrices, built here
        column = [np.pad(k, (0, lat.size - k.size)) for k in kernels]
        t_s, t_i = (linalg.toeplitz(c, np.eye(1, lat.size)[0] * c[0])[lo:] for c in column)
        scale = t_s @ magnitude @ t_i.T
        n = 2 * lat.size + rank + 1
        u = np.finfo(float).eps / 2
        bound = n * u / (1 - n * u) * scale + TINY / EPS
        assert np.all(np.abs(got - want) <= bound)
        return got

    @staticmethod
    def check_sinc_factors(ctx, m, lat, product, n_nodes):
        # the two paths round as sinc_tolerance states, on the positive
        # lattice points; w = 0 is a zero row for m > 1
        w = lat[lat > 0]
        mass = qdii._sinc_normalization(m, ctx.b_p_s, -ctx.k_p_s)
        direct = qdii._sinc_direct(ctx, m, w, w)
        tol = (sinc_tolerance(ctx, m, n_nodes, w, w, mass)
               + sinc_tolerance(ctx, m, None, w, w, mass))
        normal = sinc_envelope(ctx, m, w, w, mass) > 1e-290
        assert np.all((np.abs(product[np.ix_(lat > 0, lat > 0)] - direct) <= tol)[normal])

    @pytest.mark.parametrize("cells, grid_max", [(200, 25.0), (400, 30.0)])
    def test_reference_state(self, paper_params, cells, grid_max):
        # sinc quadrature, convolved as (T_s L)(T_i R)^T
        self.check(paper_params, 1.0, np.linspace(0.0, grid_max, cells))

    @pytest.mark.parametrize("arm", ["m_noise_s", "m_noise_i"])
    def test_noise_free_arm(self, paper_params, arm):
        # that arm's Toeplitz matrix is the identity
        params = replace(paper_params, **{arm: 0.0})
        self.check(params, 1.0, np.linspace(0.0, 25.0, 200))

    def test_window_off_zero(self):
        # an axis that starts above 0 extends the lattice below the window;
        # a series of 203 terms on 167 lattice points is convolved as
        # T_s (L R^T) T_i^T
        params = TwinBeamParams(20.0, 0.5, 1.5, 0.8, 2.0, 0.6)
        self.check(params, 0.0, np.linspace(4.0, 40.0, 150))

    @pytest.mark.parametrize("s, cells, grid_max", [(0.6, 200, 90.0), (1.0, 100, 25.0)],
                             ids=["bessel-distinct", "sinc-direct"])
    def test_direct_paths(self, paper_params, s, cells, grid_max):
        # past the rank limits the paired density is a grid
        self.check(paper_params, s, np.linspace(0.0, grid_max, cells), factored=False)


class TestFactorFloor:
    """Entries below ``tiny/eps`` of every operand of the noise convolution
    are 0, so that no product of a kept entry and a noise mass of at least
    eps is subnormal.  ``_flush_below`` states what that moves: a grid cell
    by less than the floor f, a paired cell of factors by at most ``f
    (sum_j |R[y, j]| + sum_j |L[x, j]|)``, and a convolved cell by at most
    that bound summed over the cells it collects, weighted by their noise
    masses."""

    FLOOR = TINY / EPS

    @staticmethod
    def axis(params, s, cells):
        return np.linspace(0.0, _auto_grid_max(params, s), cells)

    @pytest.mark.parametrize("cells", [200, 400])
    @pytest.mark.parametrize("s", [0.0, -0.5])
    def test_no_entry_below_the_floor(self, paper_params, s, cells):
        # README state, Bessel series on the automatic axis, where a floor
        # of tiny kept entries down to 2.2e-308
        axis = self.axis(paper_params, s, cells)
        ctx = OrderingContext.for_params(paper_params.b_pairs, s)
        left, right = qdii._paired_values(ctx, paper_params.m_pairs, axis, axis)
        assert right is not None
        for factor in (left, right):
            assert np.all(np.abs(factor[factor != 0]) >= self.FLOOR)

    @pytest.mark.parametrize("cells", [200, 400])
    @pytest.mark.parametrize("s", [0.0, -0.5])
    def test_full_grid_within_the_flush_bound(self, paper_params, s, cells, monkeypatch):
        # the grid against the one built from factors flushed only below
        # tiny.  Both are (T_s L)(T_i R)^T, each within gamma_n |T_s| |L|
        # |R|^T |T_i|^T of its exact value (see TestNoiseConvolution), and
        # the exact values differ by at most the flush bound.  An axis from
        # 0 is its own convolution lattice
        axis = self.axis(paper_params, s, cells)
        ctx = OrderingContext.for_params(paper_params.b_pairs, s)
        got = qdii._convolve_uniform(paper_params, ctx, axis, axis)
        monkeypatch.setattr(qdii, "_FLUSH_FLOOR", TINY)
        left, right = qdii._paired_values(ctx, paper_params.m_pairs, axis, axis)
        assert right is not None
        want = qdii._convolve_uniform(paper_params, ctx, axis, axis)
        sigma = (1.0 - s) / 2.0
        t_s, t_i = (linalg.toeplitz(k, np.eye(1, axis.size)[0] * k[0])
                    for k in (qdii._binned_thermal_kernel(m, b + sigma, axis[1], axis.size)
                              for m, b in ((paper_params.m_noise_s, paper_params.b_noise_s),
                                           (paper_params.m_noise_i, paper_params.b_noise_i))))
        flush = self.FLOOR * (np.outer(t_s @ np.abs(left).sum(axis=1), t_i.sum(axis=1))
                              + np.outer(t_s.sum(axis=1), t_i @ np.abs(right).sum(axis=1)))
        n = 2 * axis.size + left.shape[1] + 1
        u = EPS / 2
        higham = 2.0 * n * u / (1 - n * u) * (t_s @ np.abs(left) @ np.abs(right).T @ t_i.T)
        assert np.all(np.abs(got - want) <= flush + higham)


    @pytest.mark.parametrize("b_pairs, s, grid_max, factored, formed", [
        (0.055, 0.0, None, True, False),
        (0.055, 0.6, None, False, False),
        (0.055, 1.0, 25.0, True, False),
        (0.005, 1.0, None, False, False),
        (0.055, 0.3, None, True, True),
    ], ids=["bessel-series", "bessel-distinct", "sinc-quadrature", "sinc-direct",
            "formed-grid"])
    def test_no_operand_below_the_floor(self, paper_params, b_pairs, s, grid_max, factored,
                                        formed, monkeypatch):
        # every array the convolution multiplies by a Toeplitz matrix: the
        # factors or the per-cell grid it is handed, and the L R^T it forms
        # when that is cheaper (K = 325 on 200 points at s = 0.3).  The
        # per-cell grids were not flushed at all, and L R^T only below tiny
        params = replace(paper_params, b_pairs=b_pairs)
        axis = np.linspace(0.0, grid_max or _auto_grid_max(params, s), 200)
        ctx = OrderingContext.for_params(params.b_pairs, s)
        operands = []
        chain = photostat._chain_product
        monkeypatch.setattr(qdii, "_chain_product",
                            lambda a, m, c: operands.append(m) or chain(a, m, c))
        qdii._convolve_uniform(params, ctx, axis, axis)
        left, right = qdii._paired_values(ctx, params.m_pairs, axis, axis)
        assert (right is not None) == factored
        assert len(operands) == (0 if factored and not formed else 1)
        for a in [left, right, *operands] if factored else [left, *operands]:
            assert np.all(np.abs(a[a != 0]) >= self.FLOOR)

    @pytest.mark.parametrize("b_pairs, s", [(0.055, 0.6), (0.005, 1.0)],
                             ids=["bessel-distinct", "sinc-direct"])
    def test_per_cell_grid_within_the_flush_bound(self, paper_params, b_pairs, s, monkeypatch):
        # the full grid against the one built from the unflushed per-cell
        # grid P.  Both are T_s P T_i^T in the same order, each within
        # gamma_n |T_s| |P| |T_i|^T of its exact value, n = 2 cells + 1 (see
        # TestNoiseConvolution), and the exact values differ by at most the
        # floor times the Toeplitz row sums.  The unflushed products that
        # underflow add at most n units of 2^-1075 each, far below the floor
        params = replace(paper_params, b_pairs=b_pairs)
        axis = np.linspace(0.0, _auto_grid_max(params, s), 200)
        ctx = OrderingContext.for_params(params.b_pairs, s)
        got = qdii._convolve_uniform(params, ctx, axis, axis)
        flushed, _ = qdii._paired_values(ctx, params.m_pairs, axis, axis)
        monkeypatch.setattr(qdii, "_FLUSH_FLOOR", 0.0)
        paired, right = qdii._paired_values(ctx, params.m_pairs, axis, axis)
        assert right is None and np.any(paired != flushed)
        want = qdii._convolve_uniform(params, ctx, axis, axis)
        sigma = (1.0 - s) / 2.0
        t_s, t_i = (linalg.toeplitz(k, np.eye(1, axis.size)[0] * k[0])
                    for k in (qdii._binned_thermal_kernel(m, b + sigma, axis[1], axis.size)
                              for m, b in ((params.m_noise_s, params.b_noise_s),
                                           (params.m_noise_i, params.b_noise_i))))
        flush = self.FLOOR * np.outer(t_s.sum(axis=1), t_i.sum(axis=1))
        n = 2 * axis.size + 1
        u = EPS / 2
        higham = 2.0 * n * u / (1 - n * u) * (t_s @ np.abs(paired) @ t_i.T)
        assert np.all(np.abs(got - want) <= flush + higham)


class TestChainProduct:
    """``photostat._chain_product``, the product order of the forward model
    and of the noise convolution: ``(a @ m) @ c`` or ``a @ (m @ c)``,
    whichever needs fewer multiply-adds, the first on a tie."""

    class Shape:
        """A matrix reduced to its shape; each product records its
        multiply-adds."""

        def __init__(self, rows, cols, log):
            self.shape, self.log = (rows, cols), log

        def __matmul__(self, other):
            self.log.append(self.shape[0] * self.shape[1] * other.shape[1])
            return type(self)(self.shape[0], other.shape[1], self.log)

    @pytest.mark.parametrize("p, q, r, t", [
        (126, 513, 218, 46),   # forward model: a long photon table, short count tables
        (46, 218, 513, 126),   # the same, transposed
        (150, 167, 200, 180),  # convolution: windows above 0 on two different axes
        (200, 180, 167, 150),
        (30, 30, 50, 50),      # a tie between two different orders
        (200, 400, 400, 1),    # a matrix-vector chain, right to left
    ])
    def test_picks_the_cheaper_order(self, p, q, r, t):
        log = []
        out = photostat._chain_product(self.Shape(p, q, log), self.Shape(q, r, log),
                                       self.Shape(r, t, log))
        assert out.shape == (p, t)
        left, right = p * q * r + p * r * t, q * r * t + p * q * t
        assert sum(log) == min(left, right)
        assert log[0] == (p * q * r if left <= right else q * r * t)


class TestGaussLegendre:
    @staticmethod
    def refined(n, x):
        """The rule refined in long double: three Newton steps on P_n from
        the given nodes, then ``w = 2 (1 - x^2) / (n P_{n-1}(x))^2``; the
        three-term recurrence is stable, so the reference is good to a few
        long-double units, far below a double's."""
        def pair(x):
            p0, p1 = np.ones_like(x), x.copy()
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            return p0, p1

        x = x.astype(np.longdouble)
        for _ in range(3):
            p0, p1 = pair(x)
            x = x - p1 * (x * x - 1) / (n * (x * p1 - p0))
        return x, 2 * (1 - x * x) / (n * pair(x)[0]) ** 2

    @pytest.mark.parametrize("n", [1, 2, 16, 53, 100, 400])
    def test_against_long_double_refinement(self, n):
        # the allowances sinc_tolerance takes.  The eigenvalues of a
        # symmetric matrix of norm below 1 are backward stable, within a few
        # u.  The weights are squared first components of eigenvectors,
        # whose accuracy falls with the eigenvalue gaps, of order 1/n; their
        # errors summed to at most 2n eps for every n up to 300 on one
        # LAPACK build, and 3n eps is allowed
        nodes, weights = qdii._gauss_legendre(n)
        x, w = self.refined(n, nodes)
        assert np.all(np.abs(nodes - x) <= 8 * EPS)
        assert np.sum(np.abs(weights - w)) <= 3 * n * EPS


class TestSincQuadrature:
    """The sinc branch as a Gauss-Legendre sum of separable terms."""

    @staticmethod
    def mp_density(ctx, m, x, y, mass):
        with mp.workdps(30):
            b, a = mp.mpf(ctx.b_p_s), mp.sqrt(-mp.mpf(ctx.k_p_s))
            x, y = mp.mpf(x), mp.mpf(y)
            v = x - y
            kernel = a / mp.pi if v == 0 else a * a * mp.sin(v / a) / (mp.pi * v)
            return float(kernel * mp.exp((m - 1) / 2 * mp.log(x * y) - (x + y) / (2 * b)
                                         - mp.loggamma(m) - m * mp.log(b)) / mass)

    @pytest.mark.parametrize("b_pairs, cells, quadrature", [
        (0.055, 200, True), (0.055, 400, True), (0.005, 400, True), (0.005, 200, False),
    ], ids=["readme-200", "readme-400", "high-omega-400", "high-omega-200"])
    def test_against_extended_precision(self, paper_params, b_pairs, cells, quadrature):
        # s = 1 grids on the CLI's automatic axis, every fourth (200 cells)
        # or eighth (400) row and column.  At b_pairs = 0.005 the kernel is
        # 0.07 wide on a 14.7-wide axis, so the rule needs 87 nodes: more
        # than 200 cells allow, fewer than 400 do.  The 30-digit reference
        # sees the same double inputs and the same double total mass
        params = replace(paper_params, b_pairs=b_pairs)
        ctx = OrderingContext.for_params(b_pairs, 1.0)
        axis = np.linspace(0.0, _auto_grid_max(params, 1.0), cells)
        n_nodes = sinc_nodes(ctx, params.m_pairs, axis[1:], axis[1:])
        assert (n_nodes is not None) == quadrature
        grid = joint_qdii_grid(params, 1.0, axis, axis, paired_only=True).values
        mass = qdii._sinc_normalization(params.m_pairs, ctx.b_p_s, -ctx.k_p_s)
        pick = np.arange(1, cells, cells // 50)
        tol = sinc_tolerance(ctx, params.m_pairs, n_nodes, axis[pick], axis[pick], mass)
        normal = sinc_envelope(ctx, params.m_pairs, axis[pick], axis[pick], mass) > 1e-290
        for a, c in zip(*np.nonzero(normal)):
            want = self.mp_density(ctx, params.m_pairs, axis[pick[a]], axis[pick[c]], mass)
            assert abs(grid[pick[a], pick[c]] - want) <= tol[a, c]
        assert normal.sum() > 500

    @pytest.mark.parametrize("cells, cap, quadrature", [
        (200, None, True), (100, None, False), (200, 80, False)])
    def test_node_count_selects_the_path(self, paper_params, cells, cap, quadrature,
                                         monkeypatch):
        # README state, s = 1, axis to 25: the rule needs 51 nodes, a rank
        # of 102, within the 132 a third of the 398 positive points of two
        # 200-cell axes allow; 100-cell axes allow 66, and a cap of 80 less
        if cap is not None:
            monkeypatch.setattr(qdii, "_SINC_MAX_RANK", cap)
        axis = np.linspace(0.0, 25.0, cells)
        ctx = OrderingContext.for_params(paper_params.b_pairs, 1.0)
        n_nodes = sinc_nodes(ctx, paper_params.m_pairs, axis[1:], axis[1:])
        assert (n_nodes is not None) == quadrature
        calls = []
        direct = qdii._sinc_direct
        monkeypatch.setattr(qdii, "_sinc_direct", lambda *a: calls.append(1) or direct(*a))
        joint_qdii_grid(paper_params, 1.0, axis, axis, paired_only=True)
        assert len(calls) == (0 if quadrature else 1)

    @given(m=st.floats(0.5, 300.0), b_pairs=st.floats(0.005, 2.0),
           frac=st.floats(0.0, 1.0, exclude_min=True))
    def test_matches_direct_evaluation(self, m, b_pairs, frac):
        # s in (s_th, 1]: above the paired threshold ordering.  The axis is
        # the automatic one, cut to 100 kernel widths around the mean, so
        # that 200 points always take the quadrature.  Both paths round as
        # sinc_tolerance states; their difference is bounded by the sum of
        # the two bounds
        s_th = OrderingContext.for_params(b_pairs, 0.0).s_th_paired
        s = s_th + frac * (1.0 - s_th)
        ctx = OrderingContext.for_params(b_pairs, s)
        assume(ctx.k_p_s < 0)
        span = min(_auto_grid_max(TwinBeamParams(m, b_pairs, 0, 0, 0, 0), s),
                   100.0 * math.sqrt(-ctx.k_p_s))
        start = max(m * ctx.b_p_s - span / 2.0, span / 200.0)
        axis = np.linspace(start, start + span, 200)
        n_nodes = sinc_nodes(ctx, m, axis, axis)
        assert n_nodes is not None
        factor = qdii._sinc_factor(ctx, m, axis, axis)(axis)
        mass = qdii._sinc_normalization(m, ctx.b_p_s, -ctx.k_p_s)
        direct = qdii._sinc_direct(ctx, m, axis, axis)
        tol = (sinc_tolerance(ctx, m, n_nodes, axis, axis, mass)
               + sinc_tolerance(ctx, m, None, axis, axis, mass))
        normal = sinc_envelope(ctx, m, axis, axis, mass) > 1e-290
        assert np.all((np.abs(factor @ factor.T - direct) <= tol)[normal])


class TestSharedWork:
    """A state's paired density and each Gauss-Legendre rule are evaluated
    once.  The autouse fixture in conftest.py clears both caches before
    every test."""

    @pytest.mark.parametrize("s, cells, path", [
        (0.0, 200, "_bessel_factor"), (0.6, 200, "_bessel_distinct"),
        (1.0, 200, "_sinc_factor"), (1.0, 100, "_sinc_direct"),
    ])
    @pytest.mark.parametrize("paired_first", [True, False], ids=["paired-first", "full-first"])
    def test_paired_and_full_grid_evaluate_the_density_once(self, paper_params, s, cells,
                                                            path, paired_first, monkeypatch):
        # on an axis from 0 the convolution lattice is the axis itself, so
        # the second grid finds the density the first evaluated, whichever
        # comes first (the benchmark asks paired first, the CLI full first)
        axis = np.linspace(0.0, _auto_grid_max(paper_params, s), cells)
        calls = []
        original = getattr(qdii, path)
        monkeypatch.setattr(qdii, path, lambda *a: calls.append(1) or original(*a))
        for paired in (True, False) if paired_first else (False, True):
            joint_qdii_grid(paper_params, s, axis, axis, paired_only=paired)
        assert len(calls) == 1

    def test_interleaved_requests_match_a_cleared_cache(self, paper_params, monkeypatch):
        # consecutive requests differ in one of state, ordering, m_pairs,
        # axes, grid kind or rank limit; each must give the grid it gives
        # alone, bit for bit
        def axis(s, cells=200, start=0.0):
            top = _auto_grid_max(paper_params, s)
            return np.linspace(start * top, top, cells)

        more_pairs = replace(paper_params, m_pairs=150.0)
        wider = replace(paper_params, b_pairs=0.06)
        limits = {"_SERIES_MAX_TERMS": qdii._SERIES_MAX_TERMS,
                  "_SINC_MAX_RANK": qdii._SINC_MAX_RANK}
        requests = [
            (paper_params, 1.0, axis(1.0), axis(1.0), True, {}),
            (paper_params, 1.0, axis(1.0), axis(1.0), False, {}),
            (more_pairs, 1.0, axis(1.0), axis(1.0), True, {}),
            (paper_params, 1.0, axis(1.0), axis(1.0), True, {"_SINC_MAX_RANK": 80}),
            (paper_params, 1.0, axis(1.0), axis(1.0), False, {}),
            (wider, 1.0, axis(1.0), axis(1.0), False, {}),
            (paper_params, 1.0, axis(1.0), axis(1.0, 201), False, {}),
            (paper_params, 1.0, axis(1.0, 200, 0.1), axis(1.0, 200, 0.1), False, {}),
            (paper_params, 0.0, axis(0.0), axis(0.0), True, {}),
            (paper_params, 0.0, axis(0.0), axis(0.0), True, {"_SERIES_MAX_TERMS": 100}),
            (paper_params, 0.0, axis(0.0), axis(0.0), False, {}),
            (paper_params, 0.0, axis(0.0, 201), axis(0.0), True, {}),
            (paper_params, 0.6, axis(0.6), axis(0.6), True, {}),
        ]

        def run(request):
            params, s, ws, wi, paired, caps = request
            for name, value in {**limits, **caps}.items():
                monkeypatch.setattr(qdii, name, value)
            return joint_qdii_grid(params, s, ws, wi, paired_only=paired).values

        alone = []
        for request in requests:
            qdii._last_paired_values.cache_clear()
            alone.append(run(request))
        qdii._last_paired_values.cache_clear()
        for order in (range(len(requests)), reversed(range(len(requests)))):
            for k in order:
                assert np.array_equal(run(requests[k]), alone[k]), k

    def test_threads_get_the_grid_of_their_own_request(self, paper_params):
        # more threads than cores, switching often, each cycling through
        # two states and both grid kinds: a cache that kept its key and its
        # value apart could hand one thread another's density
        axis = np.linspace(0.0, 25.0, 60)
        requests = [(params, paired) for params in (paper_params,
                                                    replace(paper_params, m_pairs=150.0))
                    for paired in (True, False)]
        want = [joint_qdii_grid(p, 1.0, axis, axis, paired_only=paired).values
                for p, paired in requests]

        def work(offset):
            for j in range(40):
                k = (offset + j) % len(requests)
                params, paired = requests[k]
                got = joint_qdii_grid(params, 1.0, axis, axis, paired_only=paired).values
                if not np.array_equal(got, want[k]):
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(work, offset) for offset in range(6)]
                assert all(f.result(timeout=120) for f in futures)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("s, cells, factored", [
        (0.0, 200, True), (0.6, 200, False), (1.0, 200, True), (1.0, 100, False)])
    def test_kept_arrays_refuse_writes(self, paper_params, s, cells, factored):
        axis = np.linspace(0.0, _auto_grid_max(paper_params, s), cells)
        ctx = OrderingContext.for_params(paper_params.b_pairs, s)
        left, right = qdii._paired_values(ctx, paper_params.m_pairs, axis, axis)
        assert (right is not None) == factored
        for a in (left, right) if factored else (left,):
            with pytest.raises(ValueError):
                a[1, 0] = 1.0
        # a paired-only grid keeps the kept grid as it is, without a copy
        grid = joint_qdii_grid(paper_params, s, axis, axis, paired_only=True)
        assert (grid.values is left) == (not factored)
        for a in qdii._gauss_legendre(5):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_point_evaluation_keeps_the_grid_density(self, paper_params, monkeypatch):
        # paired_qdii between the paired-only and the full grid of one state
        # evaluates its point without the cache, so the full grid still
        # finds the density the paired-only grid kept
        axis = np.linspace(0.0, _auto_grid_max(paper_params, 0.0), 200)
        calls = []
        evaluate = qdii._evaluate_paired
        monkeypatch.setattr(qdii, "_evaluate_paired",
                            lambda *a: calls.append(1) or evaluate(*a))
        joint_qdii_grid(paper_params, 0.0, axis, axis, paired_only=True)
        ctx = OrderingContext.for_params(paper_params.b_pairs, 0.0)
        paired_qdii(ctx, paper_params.m_pairs, 9.8, 9.8)
        joint_qdii_grid(paper_params, 0.0, axis, axis)
        assert len(calls) == 2

    def test_one_eigendecomposition_per_node_count(self, paper_params, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
        for n in (5, 7, 5, 7, 5):
            qdii._gauss_legendre(n)
        assert calls == [5, 7]
        # two sinc-branch states on one axis need the same node count
        axis = np.linspace(0.0, 25.0, 200)
        for m_pairs in (179.0, 150.0):
            joint_qdii_grid(replace(paper_params, m_pairs=m_pairs), 1.0, axis, axis)
        assert len(calls) == 3

    def test_axis_from_zero_is_its_own_lattice(self):
        axis = np.linspace(0.0, 25.0, 200)
        lo, h, lattice = qdii._lattice(axis)
        assert lo == 0 and lattice.tobytes() == axis.tobytes()
        # an axis above 0 ends its lattice, after lo points below it
        axis = np.linspace(4.0, 40.0, 150)
        lo, h, lattice = qdii._lattice(axis)
        assert lo == 17 and lattice[lo:].tobytes() == axis.tobytes()


# b_pairs = 1e-160 at s = 1: the kernel width sqrt(b) over a total mass of
# order b^(3/2), times a gamma envelope of order 1/b, puts the paired
# density past the double range on an axis to 4e-159
TINY_PAIRS = TwinBeamParams(10.0, 1e-160, 0.0, 0.0, 0.0, 0.0)
TINY_AXIS = np.linspace(0.0, 4e-159, 50)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflow:
    """One overflow rule on every route: a value past the double range
    raises ``NumericsError``, and no ``RuntimeWarning`` comes first."""

    @pytest.mark.parametrize("per_cell", [False, True], ids=["factored", "per-cell"])
    def test_paired_grid(self, per_cell, monkeypatch):
        if per_cell:
            monkeypatch.setattr(qdii, "_SINC_MAX_RANK", 0)
        calls = []
        direct = qdii._sinc_direct
        monkeypatch.setattr(qdii, "_sinc_direct", lambda *a: calls.append(1) or direct(*a))
        with pytest.raises(NumericsError):
            joint_qdii_grid(TINY_PAIRS, 1.0, TINY_AXIS, TINY_AXIS, paired_only=True)
        assert len(calls) == per_cell

    def test_noise_convolution(self, monkeypatch):
        # the paired factors (about 1e159) and their noise-convolved forms
        # are finite; the product of the two overflows
        params = replace(TINY_PAIRS, m_noise_s=1.0, b_noise_s=1e-161,
                         m_noise_i=1.0, b_noise_i=1e-161)
        calls = []
        convolve = qdii._convolve_uniform
        monkeypatch.setattr(qdii, "_convolve_uniform",
                            lambda *a: calls.append(1) or convolve(*a))
        with pytest.raises(NumericsError):
            joint_qdii_grid(params, 1.0, TINY_AXIS, TINY_AXIS)
        assert calls == [1]

    def test_noise_only_grid(self):
        # two-mode gamma densities of scale 1e-310 peak near 1/(e 1e-310)
        params = TwinBeamParams(0.0, 0.0, 2.0, 1e-310, 2.0, 1e-310)
        axis = np.linspace(0.0, 4e-309, 50)
        with pytest.raises(NumericsError):
            joint_qdii_grid(params, 1.0, axis, axis)

    def test_points(self):
        ctx = OrderingContext.for_params(1e-160, 1.0)
        before = np.geterr(), np.geterrcall()
        with pytest.raises(NumericsError):
            paired_qdii(ctx, 10.0, 9e-160, 9e-160)
        with pytest.raises(NumericsError):
            thermal_qdii(2.0, 1e-310, 1.0, 1e-310)
        # the rule holds only inside the evaluators, and an underflow is no
        # overflow: far below the density's peak the value is 0
        assert (np.geterr(), np.geterrcall()) == before
        assert paired_qdii(ctx, 10.0, 1e-300, 1e-300) == 0.0

    def test_inf_that_no_flag_saw(self, paper_params, monkeypatch):
        # a BLAS product split over threads overflows outside this thread's
        # floating-point flags: the inf it leaves raises all the same
        monkeypatch.setattr(qdii, "_as_grid", lambda values: np.full((50, 50), np.inf))
        axis = np.linspace(0.0, 25.0, 50)
        with pytest.raises(NumericsError, match="non-finite value"):
            joint_qdii_grid(paper_params, 1.0, axis, axis, paired_only=True)


@pytest.mark.xfail(
    strict=True,
    reason="the closed-form oscillatory branch is an interference expression, "
    "not an exact Fourier inverse of the characteristic function; its "
    "transform deviates from the characteristic function by O(0.1) even "
    "after normalization (documented defect of the stated property)")
def test_fourier_consistency_single_mode():
    params = TwinBeamParams(1.0, 0.055, 0, 0, 0, 0)
    g = np.linspace(1e-6, 45.0, 700)
    grid = joint_qdii_grid(params, 1.0, g, g)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    worst = 0.0
    for ss in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for si in (-1.0, 0.0, 1.0):
            kernel = np.exp(1j * (ss * gx + si * gy))
            ft = np.trapezoid(np.trapezoid(grid.values * kernel, g, axis=1), g)
            want = characteristic_function(params, ss, si)
            worst = max(worst, abs(ft - want))
    assert worst <= 1e-3


@pytest.mark.xfail(
    strict=True,
    reason="the two closed-form branches concentrate onto the diagonal with "
    "different kernel shapes (Gaussian-like vs sinc), so their pointwise "
    "values near s_th differ by an O(1) shape constant ~ sqrt(4W/(pi D)); "
    "no pointwise tolerance of 1e-4 is attainable (documented defect)")
def test_branch_consistency_across_threshold():
    b_pairs, m_pairs, w = 0.055, 179.0, 10.0
    s_th = OrderingContext.for_params(b_pairs, 0.0).s_th_paired
    eps = 1e-3
    below = paired_qdii(OrderingContext.for_params(b_pairs, s_th - eps),
                        m_pairs, w, w)
    above = paired_qdii(OrderingContext.for_params(b_pairs, s_th + eps),
                        m_pairs, w, w)
    # the one-sided limits differ by ~sqrt(4W/(pi D_p)); ratio-based check
    # because the densities themselves can be smaller than any additive tol
    assert abs(above / below - 1.0) <= 1e-4
