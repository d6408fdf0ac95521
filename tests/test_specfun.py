import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from scipy import special
from hypothesis import strategies as st

from twinbeam import (
    DomainError,
    SignedLog,
    alternating_sum,
    log_bessel_i,
    log_gamma,
    sinc,
)
from twinbeam import specfun
from twinbeam.errors import NumericsError
from twinbeam.specfun import log_bessel_i_array

EPS = np.finfo(float).eps

# frozen with mpmath at 50 digits
LOG_GAMMA_8E6 = 11.736064398611756648582574243893715710
EQ9_INNER_M3 = -1.3661105919019511731976978004687197836e-08


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14, abs=0)
        assert log_gamma(8e-6) == pytest.approx(LOG_GAMMA_8E6, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)

    @pytest.mark.parametrize("x", [math.nan, math.inf, "2.0"])
    def test_non_finite_or_non_real_rejected(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)

    def test_recurrence_on_fixed_points(self):
        # at x = 1 both log-gammas, and so lhs and log 1, are exactly 0
        for x in (1e-5, 0.5, 1.0, 10.0, 100.0):
            lhs = log_gamma(x + 1.0) - log_gamma(x)
            assert lhs == pytest.approx(math.log(x), rel=1e-11, abs=0)

    def test_recurrence_on_random_points(self, rng):
        xs = np.exp(rng.uniform(math.log(1e-6), math.log(1e3), size=100))
        for x in xs:
            lhs = log_gamma(float(x) + 1.0) - log_gamma(float(x))
            assert lhs == pytest.approx(math.log(x), rel=1e-11, abs=1e-13)

    def test_against_extended_precision_grid(self):
        with mp.workdps(40):
            for x in (1e-6, 8e-6, 1e-3, 0.25, 0.75, 3.5, 42.0, 500.0, 1e3):
                want = float(mp.log(mp.gamma(x)))
                assert log_gamma(x) == pytest.approx(want, rel=1e-12, abs=1e-14)


class TestLogBesselI:
    def test_zero_argument(self):
        r = log_bessel_i(0.0, 0.0)
        assert (r.log_magnitude, r.sign) == (0.0, 1)
        assert log_bessel_i(2.5, 0.0).sign == 0

    def test_half_integer_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x
        for x in (0.3, 2.0, 15.0):
            want = math.log(math.sqrt(2.0 / (math.pi * x)) * math.sinh(x))
            assert log_bessel_i(0.5, x).log_magnitude == pytest.approx(want, rel=1e-12, abs=0)

    def test_high_order_small_argument_series_regime(self):
        # order m_pairs - 1 = 178 at small arguments underflows the scaled
        # library routine; the series path must agree with mpmath
        with mp.workdps(60):
            for x in (0.5, 1.0, 5.0, 20.0):
                want = float(mp.log(mp.besseli(178, x)))
                got = log_bessel_i(178.0, x)
                assert got.sign == 1
                assert got.log_magnitude == pytest.approx(want, rel=1e-9)

    def test_wide_argument_range_against_mpmath(self):
        with mp.workdps(60):
            for order in (-1.0, -0.5, 0.0, 1.7, 12.0, 178.0):
                for x in (1e-3, 1.0, 50.0, 1e3, 1e4):
                    want = float(mp.log(mp.besseli(order, x)))
                    got = log_bessel_i(order, x).log_magnitude
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_derivative_identity(self, rng):
        # d/dx I_nu = (I_{nu-1} + I_{nu+1}) / 2, checked by central differences
        for _ in range(50):
            nu = rng.uniform(0.0, 20.0)
            x = rng.uniform(0.5, 50.0)
            h = 1e-5 * x
            lo = log_bessel_i(nu, x - h)
            hi = log_bessel_i(nu, x + h)
            scale = max(lo.log_magnitude, hi.log_magnitude)
            deriv = (math.exp(hi.log_magnitude - scale)
                     - math.exp(lo.log_magnitude - scale)) / (2 * h)
            lm = log_bessel_i(nu - 1.0, x)
            lp = log_bessel_i(nu + 1.0, x)
            rhs = (math.exp(lm.log_magnitude - scale)
                   + math.exp(lp.log_magnitude - scale)) / 2.0
            assert deriv == pytest.approx(rhs, rel=1e-6)

    def test_array_mixes_library_and_series_points(self):
        # one call covers x = 0, points where the scaled routine underflows
        # (series) and points where it does not, in a shuffled 2-D layout
        x = np.concatenate(([0.0], np.geomspace(1e-3, 3.0, 40), np.geomspace(3.5, 400.0, 23)))
        x = np.random.default_rng(5).permutation(x).reshape(8, 8)
        got = log_bessel_i_array(178.0, x)
        assert got.shape == x.shape
        with mp.workdps(60):
            for g, v in zip(got.ravel(), x.ravel()):
                want = -math.inf if v == 0 else float(mp.log(mp.besseli(178, v)))
                assert g == pytest.approx(want, rel=1e-12)
                assert log_bessel_i(178.0, float(v)).log_magnitude == g

    @staticmethod
    def fallback_tolerance(order, x):
        """Absolute error bound of the log-space series at ``(order, x)``.

        The result is ``order L + log sum_j exp(log c_j + 2 j L)`` with ``L =
        log x - log 2`` and ``log c_j = -log j! - log G(order+1+j)``.  Every
        rounded operation adds a few units of roundoff u times the magnitude
        it produces: ``L`` (at most ``|log x| + log 2``) times the order,
        each ``log c_j`` (two log-gamma values) and each ``2 j L``.  The sum
        is max-shifted, so an error of an exponent becomes the same relative
        error of its term, and the log of the sum is off by at most the
        largest of them, taken over every term the table may hold.  Four
        units, ``2 eps`` times those magnitudes, are allowed, and ``eps n``
        for the final sum of n positive terms."""
        log_x = math.log(x)
        half = abs(log_x) + math.log(2.0)
        n = math.ceil((-order + math.sqrt(order * order + 2.0 * x * x)) / 2.0) + 56
        j = np.arange(n)
        term = (special.gammaln(j + 1.0) + np.abs(special.gammaln(order + 1.0 + j))
                + 2.0 * j * half)
        return 2.0 * EPS * (abs(order) * half + term.max()) + EPS * n

    @pytest.mark.parametrize("order, x", [(2000, 2700), (5000, 4000), (20000, 15000)])
    def test_high_order_series_against_mpmath(self, order, x):
        # the scaled library routine underflows here, and the terms of the
        # series reach e^2000 and beyond, past the linear double range
        assert special.ive(order, x) < 1e-290
        with mp.workdps(60):
            want = float(mp.log(mp.besseli(order, x, maxterms=10**6)))
        got = log_bessel_i(order, x)
        assert got.sign == 1
        assert abs(got.log_magnitude - want) <= self.fallback_tolerance(order, x)

    @pytest.mark.parametrize("order, x", [(5000.0, 3376.17), (100_000.0, 67_523.4)])
    def test_leading_terms_bound_against_mpmath(self, order, x):
        # the README's bound on the underflow region: 2 units of roundoff of
        # the two leading log terms, |order log(x/2)| + log G(order+1), with
        # log-gamma values from math.lgamma and Stirling's series (with
        # SciPy's gammaln the errors were 6.3e-12 and 9.1e-11 here)
        with mp.workdps(60):
            want = float(mp.log(mp.besseli(order, x, maxterms=10**6)))
        lead = abs(order * math.log(x / 2.0)) + math.lgamma(order + 1.0)
        assert abs(log_bessel_i(order, x).log_magnitude - want) <= EPS * lead

    @pytest.mark.parametrize("order", [1.0, 178.0])
    def test_smallest_subnormal_argument(self, order):
        # x / 2 underflows to 0 at 5e-324, so the series takes log x - log 2
        x = 5e-324
        with mp.workdps(60):
            want = float(mp.log(mp.besseli(order, mp.mpf(x))))
        got = log_bessel_i(order, x)
        assert got.sign == 1
        assert abs(got.log_magnitude - want) <= self.fallback_tolerance(order, x)

    @pytest.mark.parametrize("order, x_max", [(178.0, 3.1), (1999.0, 2500.0)])
    def test_blocks_leave_the_results_unchanged(self, order, x_max, monkeypatch):
        # with blocks of 4,096 log terms each block is sized at its own
        # largest argument; in one block every argument is summed to the
        # term count of the largest.  The extra terms add less than eps of
        # the sum, and the n-term sum rounds by at most eps n, where n is
        # the largest table, at x_max; adding the log of the sum to the
        # leading term rounds once more, by at most eps of the result
        x = np.random.default_rng(3).uniform(1e-3, x_max, 3000)
        assert (special.ive(order, x) < 1e-290).mean() > 0.5
        monkeypatch.setattr(specfun, "_FALLBACK_BLOCK", 1 << 30)
        one_block = log_bessel_i_array(order, x)
        monkeypatch.setattr(specfun, "_FALLBACK_BLOCK", 1 << 12)
        blocks = log_bessel_i_array(order, x)
        n = specfun._ascending_log_coefficients(order, 2.0 * math.log(x_max / 2.0),
                                                100_000).size
        assert np.all(np.abs(blocks - one_block) <= EPS * (n + 1 + np.abs(one_block)))

    def test_series_past_the_term_cap_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_FALLBACK_MAX_TERMS", 50)
        assert log_bessel_i(178.0, 1.0).sign == 1  # 5 terms
        with pytest.raises(NumericsError):
            log_bessel_i(2000.0, 2700.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_bessel_i(-1.5, 1.0)
        with pytest.raises(DomainError):
            log_bessel_i(0.0, -1.0)

    @pytest.mark.parametrize("order, x", [(math.nan, 1.0), (math.inf, 1.0),
                                          (0.0, math.nan), (0.0, math.inf)])
    def test_non_finite_arguments_rejected(self, order, x):
        with pytest.raises(DomainError):
            log_bessel_i(order, x)


class TestLogGammaArray:
    def test_against_mpmath(self):
        # Stirling's series from z = 13 on: its truncation is below 1e-18
        # relative, and the sum (z - 1/2) log z - z + ... rounds a few times,
        # each by a unit u of its largest term; below 13, math.lgamma
        z = np.concatenate((np.linspace(0.5, 30.0, 60), np.geomspace(30.0, 2e5, 60), [13.0]))
        got = specfun._log_gamma_array(z)
        with mp.workdps(40):
            want = np.array([float(mp.loggamma(v)) for v in z])
        scale = np.abs(z - 0.5) * np.abs(np.log(z)) + z + 1.0
        assert np.all(np.abs(got - want) <= 4.0 * (EPS / 2) * scale)
        small = z < 13.0
        assert np.array_equal(got[small], [math.lgamma(v) for v in z[small]])


class TestAscendingLogCoefficients:
    @given(order=st.floats(-0.9, 1e4), log_q=st.floats(-60.0, 16.0))
    def test_tail_past_the_table_is_below_eps(self, order, log_q):
        # the K terms returned leave a tail below eps of the sum, counted
        # over 3,000 further terms of the same series, with the same
        # log-gamma values (TestLogGammaArray checks them)
        log_c = specfun._ascending_log_coefficients(order, log_q, 100_000)
        j = np.arange(log_c.size + 3000.0)
        log_t = (-np.array([math.lgamma(v + 1.0) for v in j.tolist()])
                 - specfun._log_gamma_array(order + 1.0 + j) + j * log_q)
        assert np.array_equal(log_c + j[:log_c.size] * log_q, log_t[:log_c.size])
        tail = np.logaddexp.reduce(log_t[log_c.size:])
        assert tail < np.logaddexp.reduce(log_t) + math.log(EPS)

    def test_none_past_max_terms(self):
        assert specfun._ascending_log_coefficients(178.0, math.log(1e6), 10) is None
        assert specfun._ascending_log_coefficients(178.0, math.log(1e6), 10_000).size > 10


class TestRegularizedGammaP:
    """``specfun.regularized_gamma_p`` against 40-digit mpmath.

    Below ``x = a + S``, S = ``specfun._GAMMA_SERIES_SPAN``, P is ``exp(E)
    S``: E = ``a log y - x + a log top - log G(a+1)`` is a sum of rounded
    terms, each at most ``|a log x| + a |log(a+S)|``, x or ``log G(a+1)``
    in size, so its error is a few units u times their sum, and so is P's
    relative error.  S sums positive terms ``t_k y^k``, each within about
    ``2k (1 + |log y|) u`` (k products and ``exp(k log y)``); the terms'
    mean k is at most x, and ``x |log(x / top)| <= top / e``, so their
    weighted error is ``4 (a + S) u`` at most; the sum of at most ``2 top +
    60`` terms adds as many units.  From there on ``P = 1 - Q``, Q =
    ``exp(E') / f`` with E' = ``a log x - x - log G(a)`` and f a fraction
    of ``2 sqrt(a) + 12`` levels or so, so P is off by Q times that
    conditioning plus one rounding of ``1 - Q``.  Where P is set to 1, Q is
    below eps/2 = u."""

    U = EPS / 2
    S = specfun._GAMMA_SERIES_SPAN

    @classmethod
    def bound(cls, a, x, p, q):
        log_x = np.log(np.maximum(x, 5e-324))
        series = (np.abs(a * log_x) + 2.0 * a * abs(math.log(a + cls.S)) + x
                  + abs(math.lgamma(a + 1.0)) + 6.0 * (a + cls.S) + 60.0)
        fraction = np.abs(a * log_x) + x + abs(math.lgamma(a)) + 4.0 * math.sqrt(a) + 30.0
        return np.where(x < a + cls.S, p * 2.0 * cls.U * series,
                        q * 2.0 * cls.U * fraction + cls.U)

    @pytest.mark.parametrize("a", np.geomspace(1e-8, 1e4, 13).tolist())
    def test_against_mpmath(self, a):
        # from 0 to past where Q < eps, both sides of the switch at a + S
        top = a + 10.0 * math.sqrt(a) + 45.0
        x = np.unique(np.concatenate((
            [0.0, 5e-324, 1e-300], np.geomspace(1e-6, top, 40), a + self.S + np.array([-0.1, 0.0, 0.1]),
            np.linspace(max(a - 5.0 * math.sqrt(a), 1e-3), a + 5.0 * math.sqrt(a) + 16.0, 12))))
        got = specfun.regularized_gamma_p(a, x)
        with mp.workdps(40):
            p = np.array([float(mp.gammainc(a, 0, v, regularized=True)) for v in x])
            q = np.array([float(mp.gammainc(a, v, mp.inf, regularized=True)) for v in x])
        assert got[0] == 0.0
        assert np.all(np.abs(got - p) <= self.bound(a, x, p, q))
        # 1 - Q rounds to 1 for Q < eps/4, and the routine gives exactly 1
        assert (q < EPS / 4).any()
        assert np.all(got[q < EPS / 4] == 1.0)

    @pytest.mark.parametrize("a", [8e-6, 8e-3])
    def test_kernel_lattices(self, a):
        # the lattices of the qdii_grids noise kernels, series only
        for top in (0.6, 15.0):
            x = (np.arange(200) + 0.5) * (top / 200.0)
            got = specfun.regularized_gamma_p(a, x)
            with mp.workdps(40):
                p = np.array([float(mp.gammainc(a, 0, v, regularized=True)) for v in x])
            assert np.all(np.abs(got - p) <= self.bound(a, x, p, 1.0 - p))

    def test_large_a(self):
        # far from x = a the answer is 0 or 1 without a series term or a
        # fraction level; within a few sqrt(a) of a = 1e12 both would take
        # about 2e6, past the cap
        a = 1e12
        assert np.array_equal(specfun.regularized_gamma_p(a, np.array([0.5e12, 0.99e12])),
                              [0.0, 0.0])
        assert np.array_equal(specfun.regularized_gamma_p(a, np.array([2e12, 1.01e12])),
                              [1.0, 1.0])
        for x in (a - 1e5, a + 40.0):
            with pytest.raises(NumericsError):
                specfun.regularized_gamma_p(a, np.array([x]))

    def test_empty_and_domain(self):
        assert specfun.regularized_gamma_p(1.0, np.array([])).shape == (0,)
        for a in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                specfun.regularized_gamma_p(a, np.array([1.0]))
        for x in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                specfun.regularized_gamma_p(1.0, np.array([1.0, x]))


class TestRegularizedBeta:
    """``specfun.regularized_beta`` at a = 1/2, the sinc normalization's,
    against 40-digit mpmath.  Below ``x = (a+1)/(a+b+2)`` the value is
    ``exp(E) h / a``, E = ``a log x + b log(1-x) - log B(a, b)`` summed
    from terms as large as ``|a log x|``, ``|b log(1-x)|`` and those of
    ``log B`` (``log_beta_scale``), so its relative error is a few units u
    of their sum.  The Lentz product h of 2m steps, m at most about
    ``sqrt(a+b)`` here, adds about 4 units per step, and its stopping rule
    one eps; its first denominator ``1 - (a+b) x/(a+1)`` falls to ``2/(a+b+2)``
    at the switch, which multiplies the rounding of x and of that
    denominator by ``(a+b) x / |a+1 - (a+b) x|``.  Above the switch the value
    is ``1 - I_(1-x)(b, a)``: that bound, with b and a swapped, times
    ``I_(1-x)(b, a)``, plus one rounding."""

    U = EPS / 2

    @staticmethod
    def log_beta_scale(p, q):
        # the magnitudes specfun._log_beta sums: the three log-gamma values
        # below a larger argument of 13, each counted as at least 1 since
        # math.lgamma is within a few units of 1 near its zeros at 1 and 2;
        # from there on log G(small), (big + small) log1p(small/big), small
        # log big, small and the series' tails, each below 1
        small, big = min(p, q), max(p, q)
        if big < 13.0:
            return sum(max(abs(math.lgamma(v)), 1.0) for v in (p, q, p + q))
        return (abs(math.lgamma(small)) + (big + small) * math.log1p(small / big)
                + small * abs(math.log(big)) + small + 1.0)

    def test_log_beta_against_mpmath(self):
        # a few units of the terms' magnitudes, which stay of the size of
        # small log big where the log-gamma values grow as big log big
        for b in np.geomspace(0.25, 5e6, 16).tolist():
            with mp.workdps(40):
                want = float(mp.log(mp.beta(0.5, b)))
            got = specfun._log_beta(0.5, b)
            assert abs(got - want) <= 4.0 * self.U * self.log_beta_scale(0.5, b)

    @staticmethod
    def reference(a, b, x):
        # x^a (1-x)^b / (a B(a, b)) 2F1(a+b, 1; a+1; x), whose terms are
        # positive and rise for about x (a+b) / (1-x) of them before they
        # fall by x each, or for a < 1 its complement, whose terms fall by
        # 1-x from the first, whichever takes fewer; at 60 digits the
        # complement keeps 40 wherever it is taken
        def lower(p, q, y):
            return (y ** p * (1 - y) ** q / (p * mp.beta(p, q))
                    * mp.hyp2f1(p + q, 1, p + 1, y, maxterms=10**7))
        with mp.workdps(60):
            x = mp.mpf(x)
            direct = x * (a + b) / (1 - x) + 37 / -mp.log(x) <= 37 / -mp.log(1 - x)
            return lower(a, b, x) if direct else 1 - lower(b, a, 1 - x)

    @pytest.mark.parametrize("b", np.geomspace(0.25, 5e4, 7).tolist())
    def test_against_mpmath(self, b):
        a = 0.5
        switch = (a + 1.0) / (a + b + 2.0)
        xs = np.unique(np.concatenate((np.geomspace(1e-12, 0.5, 6), 1.0 - np.geomspace(1e-12, 0.5, 6),
                                       switch * np.array([0.5, 0.999999, 1.0, 1.000001, 2.0]))))
        for x in xs[(xs > 0) & (xs < 1)].tolist():
            want = self.reference(a, b, x)
            with mp.workdps(60):
                low, high = float(want), float(1 - want)
            lower = x <= switch
            p, q, y = (a, b, x) if lower else (b, a, 1.0 - x)
            cancel = (p + q) * y / abs(p + 1.0 - (p + q) * y)
            cond = (abs(p * math.log(y)) + abs(q * math.log1p(-y)) + self.log_beta_scale(p, q)
                    + 4.0 * math.sqrt(a + b) + 20 + 2.0 * cancel)
            bound = (low if lower else high) * 2.0 * self.U * cond + (0.0 if lower else self.U)
            assert abs(specfun.regularized_beta(x, a, b) - low) <= bound

    def test_ends_and_domain(self):
        assert specfun.regularized_beta(0.0, 0.5, 3.0) == 0.0
        assert specfun.regularized_beta(1.0, 0.5, 3.0) == 1.0
        for x, a, b in ((-0.1, 0.5, 1.0), (1.1, 0.5, 1.0), (0.5, 0.0, 1.0), (0.5, 0.5, math.inf),
                        (math.nan, 0.5, 1.0)):
            with pytest.raises(DomainError):
                specfun.regularized_beta(x, a, b)


class TestSinc:
    def test_known_values(self):
        assert sinc(0.0) == 1.0
        assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)
        assert sinc(2.0) == pytest.approx(math.sin(2.0) / 2.0, rel=1e-15, abs=0)

    def test_taylor_window_is_smooth(self):
        # values just inside and outside the switch must agree closely
        x = 1.0000001e-4
        y = 0.9999999e-4
        assert sinc(x) == pytest.approx(sinc(y), rel=1e-12, abs=0)

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_even(self, x):
        assert sinc(x) == sinc(-x)

    def test_array_input(self):
        out = sinc(np.array([0.0, math.pi, 2.0]))
        assert out.shape == (3,)
        assert out[0] == 1.0

    def test_array_matches_scalar_branches(self):
        # the Taylor branch is evaluated only on the small entries; every
        # entry must equal the value of its own branch
        x = np.array([[0.0, 5e-5, -9.99e-5, 1e-4], [-2.0, 3.5, 1e-300, 40.0]])
        out = sinc(x)
        assert out.shape == x.shape
        for v, got in zip(x.ravel(), out.ravel()):
            want = (1.0 - v * v / 6.0 + v**4 / 120.0 if abs(v) < 1e-4
                    else math.sin(v) / v)
            assert got == pytest.approx(want, rel=1e-15, abs=0)
        assert isinstance(sinc(np.float64(0.5)), float)


class TestSignedLog:
    @pytest.mark.parametrize("sign", [2, -2, 0.5])
    def test_sign_is_minus_one_zero_or_one(self, sign):
        with pytest.raises(DomainError):
            SignedLog(0.0, sign)

    def test_zero_carries_minus_infinity(self):
        with pytest.raises(DomainError):
            SignedLog(0.0, 0)
        assert SignedLog.from_value(0.0) == SignedLog.zero() == SignedLog(-math.inf, 0)
        assert SignedLog.zero().value() == 0.0


class TestAlternatingSum:
    def test_exact_cancellation(self):
        r = alternating_sum([SignedLog.from_value(1.0), SignedLog.from_value(-1.0)])
        assert r.value.sign == 0
        assert math.isinf(r.cancellation_digits)

    def test_single_term_identity(self):
        t = SignedLog.from_value(-3.25)
        r = alternating_sum([t])
        assert r.value.sign == -1
        assert r.value.value() == pytest.approx(-3.25, rel=1e-15, abs=0)
        assert r.cancellation_digits == pytest.approx(0.0, abs=1e-12)

    def test_empty_and_zero_terms(self):
        assert alternating_sum([]).value.sign == 0
        r = alternating_sum([SignedLog.zero(), SignedLog.from_value(2.0)])
        assert r.value.value() == pytest.approx(2.0)

    def test_infinite_term_rejected(self):
        # the terms are scaled by the largest, which an infinite one leaves undefined
        with pytest.raises(DomainError):
            alternating_sum([SignedLog.from_value(1.0), SignedLog(math.inf, -1)])

    def test_terms_may_be_a_generator(self):
        r = alternating_sum(SignedLog.from_value(v) for v in (1.0, 2.0))
        assert r.value.value() == pytest.approx(3.0, rel=1e-15, abs=0)

    def test_detector_inner_sum_against_extended_precision(self):
        """Inner alternating sum of the pixel response at m=3, N=1000,
        eta=0.24, D=0.001, n=5, within the rounding of its terms.

        Each term's log magnitude sums five parts, each within an ulp (two
        roundings) of its value, in four rounded additions: its absolute
        error is at most ``gamma_6`` times the parts' magnitudes.  Rescaling
        by the largest and taking exp add two roundings, so each term is
        within ``e = gamma_6 * parts + gamma_2`` relative.  The sum of the
        terms' errors over the result is at most ``10^cancellation_digits``
        times e; the compensated sum itself adds about one rounding, and
        the log and exp of the result ``gamma_2 |log|``.
        """
        m, npix, eta, dark, n = 3, 1000, 0.24, 0.001, 5
        theta = eta / (npix * (1.0 - eta))
        terms, parts = [], 0.0
        for l in range(m + 1):
            logs = (math.lgamma(m + 1), -math.lgamma(l + 1), -math.lgamma(m - l + 1),
                    -l * math.log1p(-dark), n * math.log1p(l * theta))
            parts = max(parts, sum(map(abs, logs)))
            terms.append(SignedLog(sum(logs), 1 if l % 2 == 0 else -1))
        r = alternating_sum(terms)
        u = EPS / 2
        gamma = lambda k: k * u / (1 - k * u)
        rel = (10**r.cancellation_digits * (gamma(6) * parts + gamma(2)) + gamma(1)
               + gamma(2) * abs(r.value.log_magnitude))
        assert r.value.value() == pytest.approx(EQ9_INNER_M3, rel=rel, abs=0)
        assert r.cancellation_digits > 6  # genuinely ill-conditioned

    def test_cancellation_estimate_tracks_conditioning(self):
        mild = alternating_sum([SignedLog.from_value(v) for v in (1.0, 2.0, 3.0)])
        harsh = alternating_sum([SignedLog.from_value(v) for v in (1e8, -1e8, 1.0)])
        assert mild.cancellation_digits < 1
        assert harsh.cancellation_digits > 7

    @given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=12), st.randoms())
    def test_permutation_insensitive_when_well_conditioned(self, mags, shuffler):
        terms = [SignedLog.from_value(v) for v in mags]
        base = alternating_sum(terms).value.value()
        shuffled = list(terms)
        shuffler.shuffle(shuffled)
        assert alternating_sum(shuffled).value.value() == pytest.approx(base, rel=1e-12, abs=0)
