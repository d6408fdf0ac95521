import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from twinbeam import (
    DetectedIntensityMoments,
    DomainError,
    Histogram2D,
    InfeasibleMomentsError,
    PhotocountMoments,
    TwinBeamParams,
    component_mode_params,
    dark_corrected_moments,
    detected_from_field,
    feasibility,
    field_moments_from_params,
    inversion_family,
    invert_at,
    mode_parameters,
    photocount_moments,
)
from conftest import PAPER_ETA_I, PAPER_ETA_S, PAPER_VAR_P

ZERO_DARK = PhotocountMoments(0.0, 0.0, 0.0, 0.0, 0.0)


def delta_histogram(m_s, m_i, frames=100.0):
    counts = np.zeros((m_s + 1, m_i + 1))
    counts[m_s, m_i] = frames
    return Histogram2D(counts, frames)


class TestPhotocountMoments:
    def test_point_mass_at_origin(self):
        mom = photocount_moments(delta_histogram(0, 0))
        assert (mom.mean_s, mom.mean_i, mom.cross) == (0.0, 0.0, 0.0)

    def test_point_mass_at_2_3(self):
        mom = photocount_moments(delta_histogram(2, 3))
        assert mom.mean_s == 2.0
        assert mom.mean_i == 3.0
        assert mom.mean_sq_s == 4.0
        assert mom.mean_sq_i == 9.0
        assert mom.cross == 6.0

    def test_mixed_histogram(self):
        counts = np.array([[5.0, 0.0], [0.0, 5.0]])
        mom = photocount_moments(Histogram2D(counts, 10.0))
        assert mom.mean_s == pytest.approx(0.5)
        assert mom.cross == pytest.approx(0.5)


class TestDarkCorrection:
    def test_poissonian_counts_have_zero_intensity_variance(self):
        # <m^2> = <m>^2 + <m> is the Poisson signature; the shot-noise
        # subtraction must leave exactly zero
        mom = PhotocountMoments(2.0, 3.0, 6.0, 12.0, 6.0)
        det = dark_corrected_moments(mom, ZERO_DARK)
        assert det.var_s == pytest.approx(0.0, abs=1e-12)
        assert det.var_i == pytest.approx(0.0, abs=1e-12)
        assert det.cov == pytest.approx(0.0, abs=1e-12)

    def test_dark_equal_to_signal_cancels_means(self):
        mom = PhotocountMoments(1.5, 1.2, 4.0, 3.0, 0.0)
        with pytest.warns(UserWarning):
            # cross terms differ, so covariance survives, but means vanish;
            # exactly zero means are fine, the warning fires only below zero
            det = dark_corrected_moments(
                mom, PhotocountMoments(1.6, 1.2, 4.2, 3.0, 0.0))
        assert det.mean_s == pytest.approx(-0.1)
        assert det.has_negative_mean

    def test_reproduces_reference_detected_moments(self, paper_detected):
        # build photocount moments that correspond to the published detected
        # moments with a dark-free measurement, then correct
        mom = PhotocountMoments(
            mean_s=paper_detected.mean_s,
            mean_i=paper_detected.mean_i,
            mean_sq_s=paper_detected.var_s + paper_detected.mean_s**2 + paper_detected.mean_s,
            mean_sq_i=paper_detected.var_i + paper_detected.mean_i**2 + paper_detected.mean_i,
            cross=paper_detected.cov + paper_detected.mean_s * paper_detected.mean_i,
        )
        det = dark_corrected_moments(mom, ZERO_DARK)
        assert det.mean_s == pytest.approx(2.411)
        assert det.mean_i == pytest.approx(2.353)
        assert det.var_s == pytest.approx(0.079)
        assert det.var_i == pytest.approx(0.095)
        assert det.cov == pytest.approx(0.598)


class TestFeasibility:
    def test_reference_experiment_is_feasible(self, paper_detected):
        margin = feasibility(paper_detected, PAPER_ETA_S, PAPER_ETA_I)
        assert margin == pytest.approx(0.019293053998958673, rel=1e-10)
        assert margin >= 0

    def test_uncorrelated_fields_always_feasible(self):
        det = DetectedIntensityMoments(1.0, 1.2, 0.3, 0.4, 0.0)
        assert feasibility(det, 0.3, 0.25) > 0

    def test_strong_covariance_with_tiny_variances_is_infeasible(self):
        det = DetectedIntensityMoments(1.0, 1.0, 1e-4, 1e-4, 0.9)
        assert feasibility(det, 0.3, 0.3) < 0


class TestInversionFamily:
    def test_reference_var_p_interval(self, paper_detected):
        fam = inversion_family(paper_detected, PAPER_ETA_S, PAPER_ETA_I)
        assert fam.var_p_max == pytest.approx(
            min(0.079 / 0.243**2, 0.095 / 0.235**2), rel=1e-12)
        assert fam.var_p_max == pytest.approx(1.338, abs=5e-4)

    def test_degenerate_variance_rejected(self):
        det = DetectedIntensityMoments(1.0, 1.0, 0.0, 0.1, 0.05)
        with pytest.raises(InfeasibleMomentsError):
            inversion_family(det, 0.3, 0.3)

    def test_symmetric_arms_give_symmetric_bound(self):
        det = DetectedIntensityMoments(1.0, 1.0, 0.2, 0.2, 0.15)
        fam = inversion_family(det, 0.3, 0.3)
        assert fam.var_p_max == pytest.approx(0.2 / 0.09)

    def test_infeasible_moments_raise(self):
        det = DetectedIntensityMoments(1.0, 1.0, 1e-4, 1e-4, 0.9)
        with pytest.raises(InfeasibleMomentsError):
            inversion_family(det, 0.3, 0.3)


class TestInvertAt:
    def test_reference_optimum(self, paper_detected):
        fam = inversion_family(paper_detected, PAPER_ETA_S, PAPER_ETA_I)
        # with the published 3-decimal moments the signal-noise mean falls
        # ~1e-3 below zero at var_p = 0.549; atol covers the input rounding
        fm = invert_at(fam, PAPER_VAR_P, atol=5e-3)
        assert fm.mean_p == pytest.approx(9.9229, abs=1e-3)
        assert fm.mean_i == pytest.approx(0.0898, abs=2e-4)
        assert fm.mean_s == 0.0  # snapped from -1.1e-3
        assert fm.var_s == pytest.approx(0.78888, abs=1e-4)
        assert fm.var_i == pytest.approx(1.17124, abs=1e-4)

    def test_strict_mode_rejects_rounding_violation(self, paper_detected):
        fam = inversion_family(paper_detected, PAPER_ETA_S, PAPER_ETA_I)
        with pytest.raises(InfeasibleMomentsError):
            invert_at(fam, PAPER_VAR_P)

    def test_upper_endpoint_zeroes_binding_variance(self, paper_detected):
        fam = inversion_family(paper_detected, PAPER_ETA_S, PAPER_ETA_I)
        fm = invert_at(fam, fam.var_p_max)
        assert fm.var_s == pytest.approx(0.0, abs=1e-12)  # signal arm binds

    def test_out_of_range_var_p(self, paper_detected):
        fam = inversion_family(paper_detected, PAPER_ETA_S, PAPER_ETA_I)
        for bad in (0.0, -0.1, fam.var_p_max * 1.0001):
            with pytest.raises(DomainError):
                invert_at(fam, bad)

    def test_exact_recovery_from_forward_map(self):
        fm_true = field_moments_from_params(
            TwinBeamParams(12.0, 0.4, 1.5, 0.3, 2.5, 0.2))
        det = detected_from_field(fm_true, 0.31, 0.27)
        fam = inversion_family(det, 0.31, 0.27)
        fm = invert_at(fam, fm_true.var_p)
        for name in ("mean_p", "mean_s", "mean_i", "var_p", "var_s", "var_i"):
            assert getattr(fm, name) == pytest.approx(getattr(fm_true, name), rel=1e-12)

    def test_pair_sum_identity(self, paper_detected):
        # mean_p + var_p = cov / (eta_s eta_i) holds exactly for every member
        fam = inversion_family(paper_detected, PAPER_ETA_S, PAPER_ETA_I)
        for var_p in (0.6, 0.9, fam.var_p_max):
            fm = invert_at(fam, var_p)
            assert fm.mean_p + fm.var_p == pytest.approx(fam.cov_scaled, rel=1e-14)

    def test_every_input_is_load_bearing(self, paper_detected):
        fam = inversion_family(paper_detected, PAPER_ETA_S, PAPER_ETA_I)
        base = invert_at(fam, 0.7)
        fields = ("mean_s", "mean_i", "var_s", "var_i", "cov")
        for k, name in enumerate(fields):
            vals = {f: getattr(paper_detected, f) for f in fields}
            vals[name] *= 1.01
            fam2 = inversion_family(DetectedIntensityMoments(**vals),
                                    PAPER_ETA_S, PAPER_ETA_I)
            fm2 = invert_at(fam2, 0.7)
            assert any(
                getattr(fm2, f) != pytest.approx(getattr(base, f), rel=1e-9)
                for f in ("mean_p", "mean_s", "mean_i", "var_s", "var_i"))


class TestModeParameters:
    def test_reference_pair_parameters(self, paper_detected):
        fam = inversion_family(paper_detected, PAPER_ETA_S, PAPER_ETA_I)
        fm = invert_at(fam, PAPER_VAR_P, atol=5e-3)
        m_p, b_p = component_mode_params(fm.mean_p, fm.var_p)
        assert m_p == pytest.approx(179.0, abs=1.0)
        assert b_p == pytest.approx(0.055, abs=5e-4)
        m_i, b_i = component_mode_params(fm.mean_i, fm.var_i)
        assert m_i == pytest.approx(8e-3, abs=2e-3)
        assert b_i == pytest.approx(13.0, abs=0.1)

    def test_poisson_like_component(self):
        m, b = component_mode_params(3.0, 3.0)
        assert b == 1.0
        assert m == 3.0

    def test_absent_component(self):
        assert component_mode_params(0.0, 0.0) == (0.0, 0.0)

    def test_degenerate_component_rejected(self):
        with pytest.raises(DomainError):
            component_mode_params(0.0, 0.5)
        with pytest.raises(DomainError):
            component_mode_params(0.5, 0.0)

    def test_full_record(self):
        fm = field_moments_from_params(TwinBeamParams(10.0, 0.5, 2.0, 0.25, 1.0, 0.125))
        p = mode_parameters(fm)
        assert p.m_pairs == pytest.approx(10.0, rel=1e-12)
        assert p.b_noise_i == pytest.approx(0.125, rel=1e-12)


EPS = np.finfo(float).eps


def inversion_conditions(det, eta_s, eta_i, var_p):
    """Condition number of each component's moments in ``invert_at``.

    Every inverted moment is a sum of terms (``var_s = det.var_s/eta_s**2 -
    var_p``, ``mean_s = det.mean_s/eta_s - c + var_p``, ``mean_p = c -
    var_p`` with ``c = cov/(eta_s eta_i)``), so its condition number is the
    sum of the terms' magnitudes over the result.  A component's number is
    the larger of its mean's and its variance's.
    """
    c = det.cov / (eta_s * eta_i)
    mean_s, mean_i = det.mean_s / eta_s, det.mean_i / eta_i
    var_s, var_i = det.var_s / eta_s**2, det.var_i / eta_i**2
    return {
        "pairs": (c + var_p) / (c - var_p),
        "noise_s": max((mean_s + c + var_p) / (mean_s - c + var_p),
                       (var_s + var_p) / (var_s - var_p)),
        "noise_i": max((mean_i + c + var_p) / (mean_i - c + var_p),
                       (var_i + var_p) / (var_i - var_p)),
    }


@example(m_pairs=8.0, b_pairs=2.0, m_s=1.0, b_s=1.0, m_i=0.015625,
         b_i=0.010000000000000002, eta_s=0.5, eta_i=0.5)
@given(
    m_pairs=st.floats(0.5, 300.0),
    b_pairs=st.floats(0.01, 2.0),
    m_s=st.floats(0.01, 50.0),
    b_s=st.floats(0.01, 5.0),
    m_i=st.floats(0.01, 50.0),
    b_i=st.floats(0.01, 5.0),
    eta_s=st.floats(0.05, 0.95),
    eta_i=st.floats(0.05, 0.95),
)
def test_round_trip_recovers_parameters(m_pairs, b_pairs, m_s, b_s, m_i, b_i,
                                        eta_s, eta_i):
    """Exact moments invert back to the state within their conditioning.

    The bound is ``max(1e-9, 20 eps cond)``.  Each inverted moment passes
    through about six roundings (the forward map's product and sum, the
    division by the efficiency, the subtraction), so its absolute error is
    at most ``6 eps`` times the sum of its terms' magnitudes and its
    relative error at most ``6 eps cond``.  ``M = mean**2/var`` and ``B =
    var/mean`` add the relative errors of one variance and up to two means
    plus two roundings: ``18 eps cond + 2 eps <= 20 eps cond``.  The pinned
    example has an idler-noise variance of 1.6e-6 next to ``var_p = 32``;
    its ``cond`` is 4.1e7, and no algorithm recovers it to 1e-9 from inputs
    rounded to ``eps``.
    """
    truth = TwinBeamParams(m_pairs, b_pairs, m_s, b_s, m_i, b_i)
    fm_true = field_moments_from_params(truth)
    det = detected_from_field(fm_true, eta_s, eta_i)
    assert feasibility(det, eta_s, eta_i) >= -1e-12
    fam = inversion_family(det, eta_s, eta_i)
    recovered = mode_parameters(invert_at(fam, fm_true.var_p))
    cond = inversion_conditions(det, eta_s, eta_i, fm_true.var_p)
    for component, names in (("pairs", ("m_pairs", "b_pairs")),
                             ("noise_s", ("m_noise_s", "b_noise_s")),
                             ("noise_i", ("m_noise_i", "b_noise_i"))):
        rel = max(1e-9, 20 * EPS * cond[component])
        for name in names:
            assert getattr(recovered, name) == pytest.approx(
                getattr(truth, name), rel=rel)


@given(
    mean_s=st.floats(0.5, 5.0),
    mean_i=st.floats(0.5, 5.0),
    var_s=st.floats(0.01, 2.0),
    var_i=st.floats(0.01, 2.0),
    cov=st.floats(0.001, 3.0),
    eta_s=st.floats(0.1, 0.9),
    eta_i=st.floats(0.1, 0.9),
)
def test_feasibility_margin_iff_family_exists(mean_s, mean_i, var_s, var_i,
                                              cov, eta_s, eta_i):
    det = DetectedIntensityMoments(mean_s, mean_i, var_s, var_i, cov)
    margin = feasibility(det, eta_s, eta_i)
    assume(abs(margin) > 1e-12)  # skip the knife edge where round-off decides
    c = cov / (eta_s * eta_i)
    lo = max(c - mean_s / eta_s, c - mean_i / eta_i, 0.0)
    hi = min(var_s / eta_s**2, var_i / eta_i**2, c)
    has_member = hi > 0 and lo <= hi
    assert (margin >= 0) == has_member
    if has_member:
        assert inversion_family(det, eta_s, eta_i).var_p_range == (lo, hi)


@given(
    mean_s=st.floats(0.5, 5.0),
    mean_i=st.floats(0.5, 5.0),
    var_s=st.floats(0.01, 2.0),
    var_i=st.floats(0.01, 2.0),
    cov=st.floats(-3.0, 3.0),
    eta_s=st.floats(0.1, 0.9),
    eta_i=st.floats(0.1, 0.9),
)
def test_family_exists_iff_its_interval_is_open(mean_s, mean_i, var_s, var_i,
                                                cov, eta_s, eta_i):
    # a covariance <= 0 passes the efficiency inequality yet leaves no valid
    # member; the closed-form interval decides on its own
    det = DetectedIntensityMoments(mean_s, mean_i, var_s, var_i, cov)
    c = cov / (eta_s * eta_i)
    lo = max(c - mean_s / eta_s, c - mean_i / eta_i, 0.0)
    hi = min(var_s / eta_s**2, var_i / eta_i**2, c)
    if lo < hi:
        assert inversion_family(det, eta_s, eta_i).var_p_range == (lo, hi)
    else:
        with pytest.raises(InfeasibleMomentsError):
            inversion_family(det, eta_s, eta_i)
