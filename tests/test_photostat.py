import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import twinbeam
from twinbeam import (
    DetectorModel,
    DomainError,
    GridResolutionError,
    TwinBeamParams,
    default_cutoffs,
    detector_response,
    field_moments_from_params,
    joint_photon_distribution,
    mandel_rice,
    mandel_rice_pmf,
    noise_reduction_factor,
    photocount_distribution,
    response_table,
    sum_distribution,
)

EPS = np.finfo(float).eps

# frozen with mpmath at 50 digits
MR_3_TINY_M = 2.6417318329987021910341406268581775871e-06


def mp_detector_response(d, m, n, dps=120):
    with mp.workdps(dps):
        eta = mp.mpf(d.efficiency)
        dark = mp.mpf(d.dark_rate)
        acc = mp.mpf(0)
        for l in range(m + 1):
            acc += (mp.binomial(m, l) * (-1) ** l / (1 - dark) ** l
                    * (1 + mp.mpf(l) / d.pixels * eta / (1 - eta)) ** n)
        return float(mp.binomial(d.pixels, m) * (1 - dark) ** d.pixels
                     * (1 - eta) ** n * (-1) ** m * acc)


class TestMandelRice:
    def test_zero_count_closed_form(self):
        for m_modes, b in ((1.0, 0.5), (7.5, 0.055), (179.0, 0.055)):
            assert mandel_rice(0, m_modes, b) == pytest.approx(
                (1 + b) ** (-m_modes), rel=1e-13, abs=0)

    def test_single_mode_is_geometric(self):
        b = 0.8
        for n in range(6):
            assert mandel_rice(n, 1.0, b) == pytest.approx(
                b**n / (1 + b) ** (n + 1), rel=1e-13, abs=0)

    def test_extreme_shape_against_extended_precision(self):
        assert mandel_rice(3, 8e-6, 320.0) == pytest.approx(MR_3_TINY_M, rel=1e-10, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            mandel_rice(-1, 1.0, 1.0)
        with pytest.raises(DomainError):
            mandel_rice(2, 0.0, 1.0)
        for m_modes in (0.0, 2.0):  # the point mass and the law itself
            with pytest.raises(DomainError):
                mandel_rice_pmf(-1, m_modes, 1.0)

    def test_pmf_point_mass_components(self):
        v = mandel_rice_pmf(4, 0.0, 3.0)
        assert v[0] == 1.0 and v[1:].sum() == 0.0

    def test_round_off_variance_component_is_poisson(self):
        # a noise variance left as a round-off residue by the moment
        # inversion gives M ~ 1e17 and B ~ 1e-16, a component that is
        # Poisson(M B) to double precision; log Gamma(n + M) - log Gamma(M)
        # cancels completely there.  Each log term is about n |log B| <= 730
        # in size and carries eps of it.
        m_modes, b_mean, n_max = 8e16, 1.5e-16, 20
        lam = m_modes * b_mean
        n = np.arange(n_max + 1)
        poisson = np.array([math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
                            for k in n])
        rtol = 8 * n_max * abs(math.log(b_mean)) * np.finfo(float).eps
        pmf = mandel_rice_pmf(n_max, m_modes, b_mean)
        np.testing.assert_allclose(pmf, poisson, rtol=rtol, atol=0)
        assert mandel_rice(7, m_modes, b_mean) == pytest.approx(poisson[7], rel=rtol, abs=0)

    @pytest.mark.parametrize("m_modes, b_mean", [(1e6, 1e-5), (1e4, 1e-3)])
    def test_many_mode_pmf_against_extended_precision(self, m_modes, b_mean):
        # log p(n) is a running sum of n + 1 terms x_k: -M log1p(B) (two
        # roundings), then one log ratio per step (eps of its size, plus 5 eps
        # from the 5 roundings that form the ratio).  Each of the n additions
        # carries eps of a partial sum no larger than sum |x_k|, so log p(n)
        # is good to eps ((n + 2) sum |x_k| + 5 n); exp turns that into a
        # relative error of p(n) and adds one eps of its own.
        n_max = 60
        n = np.arange(n_max + 1)
        x = np.concatenate(([-m_modes * math.log1p(b_mean)],
                            np.log((n[1:] - 1 + m_modes) / n[1:] * b_mean / (1 + b_mean))))
        eps = np.finfo(float).eps
        rtol = eps * ((n + 2) * np.cumsum(np.abs(x)) + 5 * n + 1)
        with mp.workdps(50):
            m, b = mp.mpf(m_modes), mp.mpf(b_mean)
            want = np.array([float(mp.rf(m, k) / mp.factorial(k) * (b / (1 + b)) ** k
                                   * (1 + b) ** -m) for k in n])
        got = mandel_rice_pmf(n_max, m_modes, b_mean)
        assert np.all(np.abs(got / want - 1) <= rtol)


def tail_moments(m, b, cut, n_max=4 * twinbeam.photostat.CUTOFF_CAP):
    """``(T_0, T_1, T_2)``, ``T_k = sum_(n > cut) n^k p(n)`` for the
    Mandel-Rice pmf p of m modes and b photons per mode: the sum up to
    ``n_max`` from ``mandel_rice_pmf``, plus a bound on the rest.  Past
    ``n_max`` the ratio ``p(n+1)/p(n) = (n+m)/(n+1) b/(1+b)`` is at most
    ``r = b/(1+b) max(1, (n_max+m)/(n_max+1))``, as ``(n+m)/(n+1)`` moves
    toward 1, so ``p(n_max + j) <= p(n_max) r^j`` and the rest is at most
    ``p(n_max) sum_(j>=1) (n_max + j)^k r^j``, in closed form."""
    pmf = mandel_rice_pmf(n_max, m, b)
    n = np.arange(cut + 1, n_max + 1, dtype=float)
    head = np.array([np.sum(n**k * pmf[cut + 1:]) for k in range(3)])
    r = b / (1 + b) * max(1.0, (n_max + m) / (n_max + 1))
    g0, g1, g2 = r / (1 - r), r / (1 - r) ** 2, r * (1 + r) / (1 - r) ** 3
    rest = np.array([g0, n_max * g0 + g1, n_max**2 * g0 + 2 * n_max * g1 + g2])
    return head + pmf[-1] * rest


def rounding(params, n_max, terms):
    """Relative error bound of a moment of the table of ``params`` with
    ``n_max`` rows at most, summed over at most ``terms`` non-negative
    terms per product and sum.  A pmf entry is exp of a running sum of up
    to ``n_max`` logs of ratios (``_log_mandel_rice``): each log is within
    ``u (4 + |log|)`` of its exact value (three roundings in its argument,
    one in the log), the running sum adds ``gamma_n_max`` times the sum of
    their magnitudes, and exp one unit more.  A table entry is a sum of
    products of three such entries, and a moment a sum of table entries
    times integers, all terms non-negative, so ``gamma_terms`` more."""
    u = EPS / 2
    delta = 0.0
    for m, b in ((params.m_pairs, params.b_pairs), (params.m_noise_s, params.b_noise_s),
                 (params.m_noise_i, params.b_noise_i)):
        logs = twinbeam.photostat._log_mandel_rice(n_max, m, b)
        size = np.abs(logs[0]) + np.abs(np.diff(logs)).sum()
        gamma = n_max * u / (1 - n_max * u)
        delta = max(delta, math.expm1(u * (4 * (n_max + 1) + size) + gamma * size + u))
    return 3 * delta + 2 * terms * u / (1 - 2 * terms * u)


class TestJointPhotonDistribution:
    def test_noise_free_field_is_diagonal(self):
        params = TwinBeamParams(5.0, 0.2, 0.0, 0.0, 0.0, 0.0)
        jd = joint_photon_distribution(params, (30, 30))
        off = jd.probs - np.diag(np.diag(jd.probs))
        assert np.abs(off).max() == 0.0
        for n in range(10):
            assert jd.probs[n, n] == pytest.approx(mandel_rice(n, 5.0, 0.2), rel=1e-12, abs=0)

    def test_pairs_absent_factorizes(self):
        params = TwinBeamParams(0.0, 0.0, 2.0, 0.4, 1.5, 0.3)
        jd = joint_photon_distribution(params, (25, 25))
        ps = mandel_rice_pmf(25, 2.0, 0.4)
        pi = mandel_rice_pmf(25, 1.5, 0.3)
        assert np.allclose(jd.probs, np.outer(ps, pi), rtol=1e-12, atol=1e-300)

    def test_marginal_moments(self, paper_params):
        # The table holds the pair count K and the noise counts S, I while
        # K + S <= c_s and K + I <= c_i, which holds when K <= a, S <= c_s - a
        # and I <= c_i - a, a the pair component's cutoff.  So for f >= 0 the
        # table misses E[f 1(K > a)] + E[f 1(S > c_s - a)] + E[f 1(I > c_i -
        # a)] at most, and for f a product of powers of K, S, I each term is
        # a product of moments, one of them a tail sum (tail_moments).  The
        # moments below follow from those shortfalls as argued per line,
        # plus the rounding of the table's non-negative sums (rounding).
        p = paper_params
        cut = default_cutoffs(p)
        jd = joint_photon_distribution(p, cut)
        n_s = np.arange(jd.probs.shape[0])
        n_i = np.arange(jd.probs.shape[1])
        marg_s = jd.probs.sum(axis=1)
        marg_i = jd.probs.sum(axis=0)
        mean_s = n_s @ marg_s
        mean_i = n_i @ marg_i
        var_i = (n_i * n_i) @ marg_i - mean_i**2
        cov = n_s @ jd.probs @ n_i - mean_s * mean_i

        a = twinbeam.photostat._component_cutoff(p.m_pairs, p.b_pairs)
        components = ((p.m_pairs, p.b_pairs, a), (p.m_noise_s, p.b_noise_s, cut[0] - a),
                      (p.m_noise_i, p.b_noise_i, cut[1] - a))
        moments = [np.array([1.0, m * b, m * b * (1 + b) + (m * b) ** 2])
                   for m, b, _ in components]
        tails = [tail_moments(m, b, c) for m, b, c in components]

        def shortfall(*monomials):
            # bound on E[f 1(outside)] for f the sum of K^i S^j I^k over (i, j, k)
            return sum(np.prod([(tails if c == x else moments)[c][e]
                                for c, e in enumerate(powers)])
                       for powers in monomials for x in range(3))

        b_s, b_i = shortfall((1, 0, 0), (0, 1, 0)), shortfall((1, 0, 0), (0, 0, 1))
        b_ii = shortfall((2, 0, 0), (1, 0, 1), (1, 0, 1), (0, 0, 2))
        b_si = shortfall((2, 0, 0), (1, 0, 1), (1, 1, 0), (0, 1, 1))
        rho = rounding(p, max(cut) + 1, sum(jd.probs.shape) + min(cut) + 1)

        want_mean_s = p.mean_pairs + p.mean_noise_s
        want_mean_i = p.mean_pairs + p.mean_noise_i
        # a mean falls short by E[n 1(outside)] <= b
        assert -b_s - rho * want_mean_s <= mean_s - want_mean_s <= rho * want_mean_s
        assert -b_i - rho * want_mean_i <= mean_i - want_mean_i <= rho * want_mean_i
        # Burgess variance of each Mandel-Rice component: M B (1 + B).  With
        # shortfalls d2 of E[n^2] and d1 of the mean, the table's variance is
        # var - d2 + 2 mean d1 - d1^2
        want_var_i = (p.m_pairs * p.b_pairs * (1 + p.b_pairs)
                      + p.m_noise_i * p.b_noise_i * (1 + p.b_noise_i))
        slack = 3 * rho * (want_var_i + 2 * want_mean_i**2)
        assert (-b_ii - b_i**2 - slack <= var_i - want_var_i
                <= 2 * want_mean_i * b_i + slack)
        # covariance carried entirely by the shared pair count; the table's
        # is cov - d_si + mean_s d_i + mean_i d_s - d_s d_i
        want_cov = p.m_pairs * p.b_pairs * (1 + p.b_pairs)
        slack = 3 * rho * (want_cov + 2 * want_mean_s * want_mean_i)
        assert (-b_si - b_s * b_i - slack <= cov - want_cov
                <= want_mean_s * b_i + want_mean_i * b_s + slack)

    def test_monte_carlo_cells(self, paper_params, rng):
        draws = 2 * 10**6
        p = paper_params
        pairs = rng.poisson(rng.gamma(p.m_pairs, p.b_pairs, draws))
        noise_s = rng.poisson(rng.gamma(p.m_noise_s, p.b_noise_s, draws))
        noise_i = rng.poisson(rng.gamma(p.m_noise_i, p.b_noise_i, draws))
        n_s = pairs + noise_s
        n_i = pairs + noise_i
        jd = joint_photon_distribution(p, (60, 60))
        inside = (n_s <= 60) & (n_i <= 60)
        counts = np.zeros((61, 61))
        np.add.at(counts, (n_s[inside], n_i[inside]), 1.0)
        expected = jd.probs * draws
        mask = expected >= 25
        z = (counts[mask] - expected[mask]) / np.sqrt(expected[mask])
        assert np.abs(z).max() < 4.0 + 1.0  # 4 SE with a small multiplicity allowance

    def test_tiny_cutoff_rejected(self):
        params = TwinBeamParams(179.0, 0.055, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(GridResolutionError):
            joint_photon_distribution(params, (1, 1))

    @pytest.mark.parametrize("cutoffs", [(-1, 5), (5, -1), (-2, -3)])
    def test_negative_cutoff_rejected(self, paper_params, cutoffs):
        # the smaller cutoff sizes the pair pmf, whose own rule rejects it
        with pytest.raises(DomainError):
            joint_photon_distribution(paper_params, cutoffs)

    def test_truncation_mass_accounting(self, paper_params):
        jd = joint_photon_distribution(paper_params, (40, 40))
        assert jd.total + jd.truncation_mass == pytest.approx(1.0, abs=1e-12)


def outer_loop_oracle(params, cutoffs):
    """The joint table as the definition reads: one shifted outer product of
    the noise pmfs per pair number."""
    n_s_max, n_i_max = cutoffs
    n_pair_max = min(cutoffs)
    pair = mandel_rice_pmf(n_pair_max, params.m_pairs, params.b_pairs)
    noise_s = mandel_rice_pmf(n_s_max, params.m_noise_s, params.b_noise_s)
    noise_i = mandel_rice_pmf(n_i_max, params.m_noise_i, params.b_noise_i)
    probs = np.zeros((n_s_max + 1, n_i_max + 1))
    for n in range(n_pair_max + 1):
        probs[n:, n:] += pair[n] * np.outer(noise_s[:n_s_max + 1 - n],
                                            noise_i[:n_i_max + 1 - n])
    return probs


COMPONENT = st.one_of(
    st.just((0.0, 0.0)),  # absent: a point mass at zero photons
    st.tuples(st.floats(1e-3, 200.0), st.floats(1e-3, 5.0)),
)


@given(pair=COMPONENT, noise_s=COMPONENT, noise_i=COMPONENT,
       cutoffs=st.tuples(st.integers(0, 60), st.integers(0, 60)))
def test_joint_distribution_matches_outer_product_loop(pair, noise_s, noise_i, cutoffs):
    """The Toeplitz product equals the sum of shifted outer products.

    Each cell is a sum of at most ``K = min(cutoffs) + 1`` non-negative
    products of three pmf values.  Both ways of evaluating it round each
    product at most twice and the sum ``K - 1`` times, in any order, so each
    is within ``(K + 1) eps`` of the exact cell (no cancellation: all terms
    are non-negative) and the two are within ``2 (K + 1) eps`` relative of
    each other.  Products that underflow add at most one subnormal spacing
    each, hence the ``atol``.  The totals then differ by at most
    ``2 (K + 1) eps`` plus the rounding of two sums over the table.
    """
    params = TwinBeamParams(*pair, *noise_s, *noise_i)
    want = outer_loop_oracle(params, cutoffs)
    truncation = 1.0 - float(want.sum())
    assume(abs(truncation - 0.5) > 1e-9)  # where round-off decides the raise
    k = min(cutoffs) + 1
    if truncation > 0.5:
        with pytest.raises(GridResolutionError):
            joint_photon_distribution(params, cutoffs)
        return
    jd = joint_photon_distribution(params, cutoffs)
    eps = np.finfo(float).eps
    tiny = np.finfo(float).smallest_subnormal
    np.testing.assert_allclose(jd.probs, want, rtol=2 * (k + 1) * eps,
                               atol=2 * (k + 1) * tiny)
    assert jd.truncation_mass == pytest.approx(
        truncation, abs=(2 * (k + 1) + 2 * want.size) * eps)


class TestDetectorResponse:
    D = DetectorModel(efficiency=0.243, pixels=1000, dark_rate=0.001)

    def test_no_photons_is_binomial_dark_law(self):
        # the law in 50 digits, so the bound is the table's rounding alone
        d = self.D
        for m in (0, 1, 3, 6):
            with mp.workdps(50):
                dark = mp.mpf(d.dark_rate)
                want = float(mp.binomial(d.pixels, m) * (1 - dark) ** (d.pixels - m)
                             * dark**m)
            assert abs(detector_response(d, m, 0) / want - 1) <= response_rtol(d, m, 0)[m, 0]

    def test_zero_counts_from_n_photons(self):
        clean = DetectorModel(efficiency=0.25, pixels=50, dark_rate=0.0)
        for n in (0, 1, 5, 12):
            assert detector_response(clean, 0, n) == pytest.approx(
                0.75**n, rel=1e-12, abs=0)
        assert detector_response(self.D, 0, 0) == pytest.approx(
            (1 - 0.001) ** 1000, rel=1e-12, abs=0)

    def test_single_pixel_saturation(self):
        d = DetectorModel(efficiency=0.3, pixels=1, dark_rate=0.02)
        for n in (0, 1, 4, 9):
            want = 1.0 - (1 - 0.02) * 0.7**n
            assert detector_response(d, 1, n) == pytest.approx(want, rel=1e-12, abs=0)

    def test_escalated_cells_match_extended_precision(self):
        # these sit far beyond double-precision cancellation
        for m, n in ((8, 20), (15, 60), (25, 100)):
            want = mp_detector_response(self.D, m, n)
            assert (abs(detector_response(self.D, m, n) / want - 1)
                    <= response_rtol(self.D, m, n)[m, n])

    def test_escalated_cells_need_no_mpmath(self):
        # mpmath is a test dependency only: the response must be computed
        # with it unimportable
        cells = ((8, 20), (15, 60), (25, 100))
        script = textwrap.dedent(f"""
            import json, sys
            sys.modules["mpmath"] = None
            from twinbeam import DetectorModel, detector_response
            d = DetectorModel(efficiency=0.243, pixels=1000, dark_rate=0.001)
            print(json.dumps([detector_response(d, m, n) for m, n in {cells!r}]))
        """)
        src = str(Path(twinbeam.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout.splitlines()[-1])
        for (m, n), value in zip(cells, got):
            assert (abs(value / mp_detector_response(self.D, m, n) - 1)
                    <= response_rtol(self.D, m, n)[m, n])

    def test_domain(self):
        with pytest.raises(DomainError):
            detector_response(self.D, -1, 0)
        with pytest.raises(DomainError):
            detector_response(self.D, 1001, 0)
        with pytest.raises(DomainError):
            detector_response(self.D, 0, -2)


def dark_rtol(d, m_max):
    """Relative round-off bound of the dark column, rows 0..m_max.

    log K[m, 0] is s_m, the running sum of l_0 = npix log1p(-d) and
    l_k = log((npix - k + 1)/k * d/(1 - d)).  The ratio takes 4 roundings
    and its log one more of |l_k|, so l_k is good to eps (|l_k| + 4) (l_0,
    from two roundings of |l_0|, to 2 eps |l_0|); the addition that forms
    s_k adds eps |s_k|.  That absolute error in s_m is the relative error of
    exp(s_m), whose own rounding adds one eps.  Every rounding is counted
    as eps, twice the unit roundoff, which also covers a reference's own
    rounding to double.
    """
    k = np.arange(1, m_max + 1)
    logs = np.concatenate(([d.pixels * math.log1p(-d.dark_rate)],
                           np.log((d.pixels - k + 1) / k * (d.dark_rate / (1 - d.dark_rate)))))
    return EPS * (np.cumsum(np.abs(np.cumsum(logs)) + np.abs(logs) + 4) + 1)


def response_rtol(d, m_max, n_max):
    """Relative round-off bound of ``response_table(d, m_max, n_max)``, cell
    by cell.

    Column 0 is the dark law, good to dark_rtol.  Each photon step forms a
    cell as col[m] stay[m] + col[m-1] up[m-1] from non-negative terms: stay
    = (1 - eta) + eta m/npix is good to 3 eps and up = eta (1 - m/npix) to
    about 2 eps while m << npix; each product adds one eps and the addition
    one more, so each step adds at most 5 eps to the relative error of the
    rows it mixes, which are rows <= m with dark bounds <= dark_rtol[m].
    """
    return dark_rtol(d, m_max)[:, None] + 5 * np.arange(n_max + 1) * EPS


class TestResponseTable:
    def test_columns_sum_to_one_when_support_covered(self):
        d = DetectorModel(efficiency=0.3, pixels=30, dark_rate=0.01)
        tab = response_table(d, 30, 40)
        assert np.abs(tab.sum(axis=0) - 1.0).max() < 1e-8

    def test_read_only(self):
        tab = response_table(DetectorModel(efficiency=0.3, pixels=30), 5, 5)
        with pytest.raises(ValueError):
            tab[0, 0] = 0.5

    def test_matches_closed_form_response(self):
        # the whole table against the closed-form alternating sum in 120
        # digits, within the recurrence's rounding (response_rtol)
        d = DetectorModel(efficiency=0.243, pixels=1000, dark_rate=0.001)
        m_max, n_max = 14, 40
        tab = response_table(d, m_max, n_max)
        want = np.array([[mp_detector_response(d, m, n) for n in range(n_max + 1)]
                         for m in range(m_max + 1)])
        assert np.all(np.abs(tab / want - 1) <= response_rtol(d, m_max, n_max))

    def test_dark_column_against_extended_precision(self):
        # the README detector, no photons: the dark binomial law, whose log
        # is a running sum of log ratios good to dark_rtol
        d = DetectorModel(efficiency=0.243, pixels=10_000, dark_rate=1e-4)
        m = np.arange(61)
        with mp.workdps(50):
            dark = mp.mpf(d.dark_rate)
            want = np.array([float(mp.binomial(d.pixels, k) * dark**k
                                   * (1 - dark) ** (d.pixels - k)) for k in m])
        got = response_table(d, 60, 0)[:, 0]
        assert np.all(np.abs(got / want - 1) <= dark_rtol(d, 60))

    def test_weak_efficiency_first_order(self):
        d = DetectorModel(efficiency=1e-3, pixels=10**4, dark_rate=0.0)
        tab = response_table(d, 3, 1)
        assert tab[1, 1] == pytest.approx(1e-3, rel=1e-3)
        assert tab[0, 1] == pytest.approx(1 - 1e-3, rel=1e-6)

    def test_mean_count_reduction_by_efficiency(self):
        d = DetectorModel(efficiency=0.37, pixels=10**4, dark_rate=0.0)
        tab = response_table(d, 60, 20)
        m = np.arange(61)
        for n in (1, 5, 20):
            mean = float(m @ tab[:, n])
            assert mean == pytest.approx(0.37 * n, rel=1e-3)


class TestPhotocountDistribution:
    def test_identity_response_passthrough(self, paper_params):
        jd = joint_photon_distribution(paper_params, (40, 40))
        eye = np.eye(41)
        out = photocount_distribution(jd, eye, eye)
        assert np.allclose(out.probs, jd.probs, rtol=0, atol=0)

    def test_vacuum_input_gives_dark_binomials(self):
        jd = joint_photon_distribution(TwinBeamParams(1.0, 0, 0, 0, 0, 0), (0, 0))
        d_s = DetectorModel(efficiency=0.2, pixels=40, dark_rate=0.05)
        d_i = DetectorModel(efficiency=0.2, pixels=25, dark_rate=0.02)
        out = photocount_distribution(jd, response_table(d_s, 40, 0),
                                      response_table(d_i, 25, 0))
        from scipy.stats import binom
        want = np.outer(binom.pmf(np.arange(41), 40, 0.05),
                        binom.pmf(np.arange(26), 25, 0.02))
        assert np.allclose(out.probs, want, rtol=1e-9, atol=1e-15)

    def test_mass_preserved(self, paper_params):
        jd = joint_photon_distribution(paper_params, default_cutoffs(paper_params))
        d = DetectorModel(efficiency=0.243, pixels=1000, dark_rate=0.001)
        tab = response_table(d, 60, jd.probs.shape[0] - 1)
        out = photocount_distribution(jd, tab, tab)
        assert out.total + out.truncation_mass == pytest.approx(1.0, abs=1e-9)

    def test_detected_means_track_reference_moments(self, paper_params):
        # forward chain: state -> photons -> counts.  A pixel stays unfired
        # with probability (1 - d)(1 - eta/N)^n given n photons, so the mean
        # count is N(1 - (1 - d) G(1 - eta/N)), where G(z) is the product of
        # the arm's Mandel-Rice generating functions (1 + B(1 - z))^-M.  The
        # table lacks only the photon and count truncation mass, each frame of
        # which holds at most N counts; its sums, over at most the photon
        # table's products, add a relative round-off of size * eps at most
        p = paper_params
        cut = default_cutoffs(p)
        jd = joint_photon_distribution(p, cut)
        d_s = DetectorModel(efficiency=0.243, pixels=1000, dark_rate=0.001)
        d_i = DetectorModel(efficiency=0.235, pixels=1000, dark_rate=0.001)
        out = photocount_distribution(jd, response_table(d_s, 120, cut[0]),
                                      response_table(d_i, 120, cut[1]))
        arms = ((d_s, p.m_noise_s, p.b_noise_s), (d_i, p.m_noise_i, p.b_noise_i))
        for axis, (d, m_noise, b_noise) in enumerate(arms):
            log_unfired = math.log1p(-d.dark_rate) - sum(
                m * math.log1p(b * d.efficiency / d.pixels)
                for m, b in ((p.m_pairs, p.b_pairs), (m_noise, b_noise)))
            exact = -d.pixels * math.expm1(log_unfired)
            mean = float(np.arange(121) @ out.probs.sum(axis=1 - axis))
            round_off = jd.probs.size * np.finfo(float).eps * exact
            assert -round_off <= exact - mean <= d.pixels * out.truncation_mass + round_off

    def test_dimension_mismatch_rejected(self, paper_params):
        jd = joint_photon_distribution(paper_params, (50, 50))
        d = DetectorModel(efficiency=0.3, pixels=100)
        small = response_table(d, 10, 20)
        with pytest.raises(Exception):
            photocount_distribution(jd, small, small)


class TestSumDistribution:
    def test_noise_free_odd_terms_vanish_exactly(self):
        jd = joint_photon_distribution(TwinBeamParams(5.0, 0.3, 0, 0, 0, 0), (40, 40))
        psum = sum_distribution(jd)
        assert np.all(psum[1::2] == 0.0)
        assert psum[0] > psum[1]

    def test_factorized_input_matches_convolution(self):
        params = TwinBeamParams(0.0, 0.0, 2.0, 0.4, 1.5, 0.3)
        jd = joint_photon_distribution(params, (30, 30))
        psum = sum_distribution(jd)
        want = np.convolve(mandel_rice_pmf(30, 2.0, 0.4), mandel_rice_pmf(30, 1.5, 0.3))
        assert np.allclose(psum, want, rtol=1e-12, atol=1e-300)

    def test_total_preserved(self, paper_params):
        jd = joint_photon_distribution(paper_params, (50, 50))
        assert sum_distribution(jd).sum() == pytest.approx(jd.total, rel=1e-12, abs=0)


class TestNoiseReductionFactor:
    def test_pure_paired_field(self):
        fm = field_moments_from_params(TwinBeamParams(20.0, 0.1, 0, 0, 0, 0))
        assert noise_reduction_factor(fm) == pytest.approx(0.0, abs=1e-14)

    def test_pairs_absent_at_least_shot_noise(self):
        fm = field_moments_from_params(TwinBeamParams(0.0, 0.0, 3.0, 0.5, 2.0, 0.7))
        assert noise_reduction_factor(fm) >= 1.0

    def test_reference_state(self, paper_params):
        fm = field_moments_from_params(paper_params)
        assert noise_reduction_factor(fm) == pytest.approx(0.1046, abs=1e-3)

    def test_zero_denominator(self):
        fm = field_moments_from_params(TwinBeamParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            noise_reduction_factor(fm)
