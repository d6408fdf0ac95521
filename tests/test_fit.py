import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from twinbeam import (
    DetectorModel,
    DomainError,
    ForwardModel,
    Histogram2D,
    JointDistribution,
    ReconstructionResult,
    SimConfig,
    TwinBeamParams,
    ValidationError,
    dark_corrected_moments,
    declination,
    default_cutoffs,
    field_moments_from_params,
    invert_at,
    inversion_family,
    joint_photon_distribution,
    mode_parameters,
    photocount_moments,
    reconstruct,
    response_table,
    simulate_histogram,
)

CLEAN_PARAMS = TwinBeamParams(10.0, 0.3, 2.0, 0.2, 1.5, 0.25)
DET_S = DetectorModel(efficiency=0.31, pixels=10**5, dark_rate=0.0)
DET_I = DetectorModel(efficiency=0.27, pixels=10**5, dark_rate=0.0)


def unit_dark():
    return Histogram2D(np.array([[1.0]]), 1.0)


def dark_record(frames, total_s, total_i):
    # frames holding one dark count on an arm; total_s >= total_i
    counts = np.zeros((2, 2))
    counts[0, 0], counts[1, 0], counts[1, 1] = frames - total_s, total_s - total_i, total_i
    return Histogram2D(counts, frames)


def model_histogram(params, d_s, d_i, m_max=40):
    pc = ForwardModel(d_s, d_i, (m_max, m_max), default_cutoffs(params))(params)
    return Histogram2D(pc.probs / pc.probs.sum(), 1.0)


class TestDeclination:
    def test_identical_tables_give_zero(self):
        probs = np.array([[0.5, 0.25], [0.125, 0.125]])
        jd = JointDistribution(probs, 0.0)
        f = Histogram2D(probs, 1.0)
        assert declination(jd, f) == 0.0

    def test_disjoint_point_masses(self):
        jd = JointDistribution(np.array([[1.0, 0.0], [0.0, 0.0]]), 0.0)
        f = Histogram2D(np.array([[0.0, 0.0], [0.0, 1.0]]), 1.0)
        assert declination(jd, f) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_unnormalized_histogram_rejected(self):
        jd = JointDistribution(np.array([[1.0]]), 0.0)
        with pytest.raises(ValidationError):
            declination(jd, Histogram2D(np.array([[7.0]]), 7.0))

    def test_shape_union_includes_unmodelled_cells(self):
        # histogram support wider than the model: those cells contribute f^2
        jd = JointDistribution(np.array([[1.0]]), 0.0)
        f = Histogram2D(np.array([[0.5, 0.0], [0.0, 0.5]]), 1.0)
        want = math.sqrt(0.5**2 + 0.5**2)
        assert declination(jd, f) == pytest.approx(want, rel=1e-14)

    def test_sampling_noise_scale(self):
        # histogram drawn from the model itself: the declination should be
        # of the order of the multinomial sampling noise sqrt(sum f(1-f)/N)
        frames = 10**5
        cfg = SimConfig(CLEAN_PARAMS,
                        DetectorModel(0.31, 2000, 1e-4),
                        DetectorModel(0.27, 2000, 1e-4),
                        frames=frames, seed=20)
        f, _ = simulate_histogram(cfg)
        extents = (f.counts.shape[0] + 5, f.counts.shape[1] + 5)
        pc = ForwardModel(cfg.detector_s, cfg.detector_i, extents,
                          default_cutoffs(CLEAN_PARAMS))(CLEAN_PARAMS)
        d = declination(pc, f.normalized())
        noise_scale = math.sqrt(float((pc.probs * (1 - pc.probs)).sum()) / frames)
        assert 0.3 * noise_scale < d < 3.0 * noise_scale

    def test_is_a_metric_on_tables(self, rng):
        def rand_pair():
            p = rng.random((5, 5))
            p /= p.sum()
            return JointDistribution(p, 0.0), Histogram2D(p, 1.0)

        (a_jd, a_h), (b_jd, b_h), (_, c_h) = rand_pair(), rand_pair(), rand_pair()
        # symmetry
        assert declination(a_jd, b_h) == pytest.approx(declination(b_jd, a_h), rel=1e-12)
        # triangle inequality
        ab = declination(a_jd, b_h)
        ac = declination(a_jd, c_h)
        cb = declination(b_jd, c_h)
        assert ab <= ac + cb + 1e-12


class TestReconstructionResult:
    @staticmethod
    def result(decl, scan):
        fm = field_moments_from_params(CLEAN_PARAMS)
        return ReconstructionResult(fm.var_p, CLEAN_PARAMS, fm, decl, scan, False)

    def test_sorted_scan_and_zero_declination_accepted(self):
        self.result(0.0, ((0.1, 0.3), (0.2, 0.0), (0.2, 0.0), (0.9, 0.5)))
        self.result(0.25, ())

    def test_negative_declination_rejected(self):
        with pytest.raises(ValidationError):
            self.result(-1e-12, ((0.1, 0.3),))

    def test_unsorted_scan_rejected(self):
        with pytest.raises(ValidationError):
            self.result(0.0, ((0.2, 0.0), (0.1, 0.3)))


class TestReconstruct:
    def test_noiseless_model_match(self):
        f = model_histogram(CLEAN_PARAMS, DET_S, DET_I)
        result = reconstruct(f, unit_dark(), DET_S, DET_I, scan_points=80)
        true_var_p = CLEAN_PARAMS.m_pairs * CLEAN_PARAMS.b_pairs**2
        assert result.var_p_opt == pytest.approx(true_var_p, rel=5e-3)
        assert result.declination < 2e-4
        assert result.params.m_pairs == pytest.approx(CLEAN_PARAMS.m_pairs, rel=0.05)
        assert result.params.b_pairs == pytest.approx(CLEAN_PARAMS.b_pairs, rel=0.05)

    def test_deterministic(self):
        f = model_histogram(CLEAN_PARAMS, DET_S, DET_I)
        r1 = reconstruct(f, unit_dark(), DET_S, DET_I, scan_points=40)
        r2 = reconstruct(f, unit_dark(), DET_S, DET_I, scan_points=40)
        assert r1.var_p_opt == r2.var_p_opt
        assert r1.scan == r2.scan

    def test_scan_matches_reevaluation(self):
        f = model_histogram(CLEAN_PARAMS, DET_S, DET_I)
        result = reconstruct(f, unit_dark(), DET_S, DET_I, scan_points=30)
        redo = reconstruct(f, unit_dark(), DET_S, DET_I, scan_points=30)
        assert result.scan == redo.scan
        assert all(math.isfinite(d) and d >= 0 for _, d in result.scan)

    def test_scan_stays_inside_valid_interval(self):
        # at the reference state the noise means bind: the interval starts
        # well above 0, and no evaluation may fall outside it
        params = TwinBeamParams(179.0, 0.055, 8e-6, 320.0, 8e-3, 12.0)
        cfg = SimConfig(params,
                        DetectorModel(0.243, 10**4, 1e-4),
                        DetectorModel(0.235, 10**4, 1e-4),
                        frames=3 * 10**5, seed=1)
        f, dark = simulate_histogram(cfg)
        detected = dark_corrected_moments(photocount_moments(f), photocount_moments(dark))
        lo, hi = inversion_family(detected, 0.243, 0.235).var_p_range
        assert lo > 0
        result = reconstruct(f, dark, cfg.detector_s, cfg.detector_i, scan_points=60)
        assert all(lo < v < hi and math.isfinite(d) for v, d in result.scan)
        assert lo < result.var_p_opt < hi

    def test_interval_narrower_than_a_step_gets_a_scan_point(self):
        # CLEAN_PARAMS give the interval (0.525, 0.980) with var_p_max at its
        # open upper end, narrower than the step 0.490: the one scan point is
        # its midpoint, and the refinement spans the whole interval
        f = model_histogram(CLEAN_PARAMS, DET_S, DET_I)
        detected = dark_corrected_moments(photocount_moments(f), photocount_moments(unit_dark()))
        family = inversion_family(detected, DET_S.efficiency, DET_I.efficiency)
        lo, hi = family.var_p_range
        assert hi == family.var_p_max and hi - lo < family.var_p_max / 2
        result = reconstruct(f, unit_dark(), DET_S, DET_I, scan_points=2)
        assert (lo + hi) / 2 in [v for v, _ in result.scan]
        assert all(lo < v < hi and math.isfinite(d) for v, d in result.scan)
        assert 0.525 < result.var_p_opt < 0.980
        assert result.var_p_opt == pytest.approx(CLEAN_PARAMS.m_pairs * CLEAN_PARAMS.b_pairs**2,
                                                  rel=5e-3)

    def test_scan_points_past_the_bound_rejected(self):
        # CLEAN_PARAMS' interval is half of var_p_max wide, so the largest
        # scan_points asks for about 2^58 knots, 2^61 bytes: numpy sizes the
        # lattice, its allocation fails at once (past any address space), and
        # one point more is refused before any work
        from twinbeam.fit import _MAX_SCAN_POINTS

        f = model_histogram(CLEAN_PARAMS, DET_S, DET_I)
        with pytest.raises(DomainError, match=f"{_MAX_SCAN_POINTS} points does not fit"):
            reconstruct(f, unit_dark(), DET_S, DET_I, scan_points=_MAX_SCAN_POINTS)
        with pytest.raises(DomainError, match=r"must lie in \[2, "):
            reconstruct(f, unit_dark(), DET_S, DET_I, scan_points=_MAX_SCAN_POINTS + 1)

    def test_boundary_optimum_flagged_for_reference_data(self):
        # data simulated at the reference state: the declination decreases
        # into the infeasibility edge, so the optimum sits on the boundary
        params = TwinBeamParams(179.0, 0.055, 8e-6, 320.0, 8e-3, 12.0)
        cfg = SimConfig(params,
                        DetectorModel(0.243, 10**4, 1e-4),
                        DetectorModel(0.235, 10**4, 1e-4),
                        frames=3 * 10**5, seed=1)
        f, dark = simulate_histogram(cfg)
        result = reconstruct(f, dark, cfg.detector_s, cfg.detector_i, scan_points=60)
        assert result.at_boundary

    def test_monotone_data_refinement(self):
        # doubling the simulated frames must not increase the median
        # recovery error of the paired variance
        truth = CLEAN_PARAMS.m_pairs * CLEAN_PARAMS.b_pairs**2
        d_s = DetectorModel(0.31, 2000, 1e-4)
        d_i = DetectorModel(0.27, 2000, 1e-4)
        errors = {30_000: [], 60_000: []}
        for k in range(10):
            for frames in errors:
                cfg = SimConfig(CLEAN_PARAMS, d_s, d_i, frames=frames, seed=1000 + k)
                f, dark = simulate_histogram(cfg)
                r = reconstruct(f, dark, d_s, d_i, scan_points=30)
                errors[frames].append(abs(r.var_p_opt - truth) / truth)
        assert np.median(errors[60_000]) <= np.median(errors[30_000]) * 1.2

    @pytest.mark.parametrize("seed", [44, 50])
    def test_round_off_noise_variance_at_upper_endpoint(self, seed):
        # var_p_max, where one noise variance is a round-off residue
        # (M ~ 1e17, B ~ 1e-16), is the open end of the valid interval and is
        # not scanned itself; the declination curve must stay finite and
        # continuous up to the last scan point below it
        params = TwinBeamParams(20.0, 0.5, 2.0, 2.0, 2.0, 2.0)
        d_s = DetectorModel(0.3, 1000, 1e-4)
        d_i = DetectorModel(0.28, 1000, 1e-4)
        f, dark = simulate_histogram(SimConfig(params, d_s, d_i, frames=20_000, seed=seed))
        result = reconstruct(f, dark, d_s, d_i, scan_points=20)
        (_, before), (_, last) = result.scan[-2:]
        assert math.isfinite(last) and before < last < 2 * before
        assert 0 < result.var_p_opt < result.scan[-1][0]
        # one ulp inside the interval the residue is still there, though the
        # scan lattice stops a step short of it: the forward model must
        # treat that noise component as the Poisson term it is
        detected = dark_corrected_moments(photocount_moments(f), photocount_moments(dark))
        family = inversion_family(detected, d_s.efficiency, d_i.efficiency)
        edge = mode_parameters(invert_at(family, np.nextafter(family.var_p_range[1], 0)))
        assert max(edge.m_noise_s, edge.m_noise_i) > 1e16
        cut = default_cutoffs(edge)
        photons = joint_photon_distribution(edge, cut)
        counts = ForwardModel(d_s, d_i, cut, cut)(edge)
        for table in (photons, counts):
            assert np.all(np.isfinite(table.probs))
            assert 0 <= table.truncation_mass <= 1e-9

    @pytest.mark.parametrize("seed", [44, 50])
    def test_scan_lattice_stops_short_of_var_p_max(self, seed):
        # on these seeds the upper end of the interval is var_p_max, where a
        # noise variance is a round-off residue.  The scan's last knot lies
        # one lattice spacing below it, more than two thirds of a step once
        # the interval spans two steps, and the optimum lies lower, so no
        # evaluation comes within half a step of it.
        params = TwinBeamParams(20.0, 0.5, 2.0, 2.0, 2.0, 2.0)
        d_s = DetectorModel(0.3, 1000, 1e-4)
        d_i = DetectorModel(0.28, 1000, 1e-4)
        f, dark = simulate_histogram(SimConfig(params, d_s, d_i, frames=20_000, seed=seed))
        detected = dark_corrected_moments(photocount_moments(f), photocount_moments(dark))
        var_p_max = inversion_family(detected, d_s.efficiency, d_i.efficiency).var_p_max
        result = reconstruct(f, dark, d_s, d_i, scan_points=20)
        assert var_p_max - result.scan[-1][0] > var_p_max / 20 / 2

    def test_scan_is_sorted_and_contains_grid(self):
        f = model_histogram(CLEAN_PARAMS, DET_S, DET_I)
        result = reconstruct(f, unit_dark(), DET_S, DET_I, scan_points=25)
        vps = [v for v, _ in result.scan]
        assert vps == sorted(vps)
        assert len(result.scan) >= 25

    def test_one_forward_evaluation_per_scan_point(self, monkeypatch):
        # the optimum is one of the evaluated points, so its declination,
        # parameters and moments are read back, not computed a second time;
        # the response tables are built once per fit, one per arm
        import twinbeam.fit

        f = model_histogram(CLEAN_PARAMS, DET_S, DET_I)
        calls, tables = [], []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return joint_photon_distribution(*args, **kwargs)

        def counted_table(*args):
            tables.append(args[0])
            return response_table(*args)

        monkeypatch.setattr(twinbeam.fit, "joint_photon_distribution", counted)
        monkeypatch.setattr(twinbeam.fit, "response_table", counted_table)
        result = reconstruct(f, unit_dark(), DET_S, DET_I, scan_points=25)
        assert len(calls) == len(result.scan)
        assert (result.var_p_opt, result.declination) in result.scan
        assert result.params in calls
        assert tables == [DET_S, DET_I]


@given(var_p_max=st.floats(1e-6, 1e6), scan_points=st.integers(2, 1000),
       top=st.floats(0.0, 1.0, exclude_min=True), low=st.floats(0.0, 1.0, exclude_max=True))
@example(var_p_max=11.40222346938777, scan_points=2, top=1.0, low=0.6949)  # the runtime-deps CI run
@example(var_p_max=1.0, scan_points=200, top=1.0, low=1.0 - 2**-52)  # two ulps wide
@example(var_p_max=1.0, scan_points=4, top=1.0, low=0.5)  # the width is two steps
def test_scan_lattice_spans_interval(var_p_max, scan_points, top, low):
    """Whatever the interval's width against one step, from a few ulps to
    var_p_max itself, the scan has a knot, every knot lies strictly inside,
    and the knots are at most a step apart, up to the rounding of each
    knot (two ulps of hi)."""
    from twinbeam.fit import _scan_lattice

    hi = var_p_max * top
    lo = hi * low
    assume(np.nextafter(lo, hi) < hi)  # a double lies strictly inside
    step = var_p_max / scan_points
    knots = _scan_lattice(lo, hi, step)
    inner = knots[1:-1]
    assert inner.size >= 1
    assert knots[0] == lo and knots[-1] == hi
    assert np.all((lo < inner) & (inner < hi))
    assert np.diff(knots).max() <= step + 4 * np.finfo(float).eps * hi


class TestImpossibleInputs:
    # rejected before anything is fitted: the detector cannot have made them

    def test_count_above_pixels_rejected(self):
        f = model_histogram(CLEAN_PARAMS, DET_S, DET_I)
        with pytest.raises(ValidationError, match=r"the histogram has a frame with \d+ "
                           "signal counts, above the arm's 20 pixels"):
            reconstruct(f, unit_dark(), DetectorModel(0.31, 20), DET_I)

    def test_dark_count_above_pixels_rejected(self):
        dark = Histogram2D(np.array([[9.0, 0.0, 0.0, 1.0]]), 10.0)
        with pytest.raises(ValidationError, match="the dark record has a frame with 3 "
                           "idler counts, above the arm's 2 pixels"):
            reconstruct(unit_dark(), dark, DET_S, DetectorModel(0.27, 2, 0.01))

    @pytest.mark.parametrize("totals, d_s, arm", [
        ((1, 0), DET_S, "signal"),
        ((1, 1), DetectorModel(0.31, 10**5, 1e-6), "idler"),  # signal total 1 expected
    ])
    def test_dark_count_at_zero_rate_rejected(self, totals, d_s, arm):
        # one dark count contradicts a zero rate, however few frames
        with pytest.raises(ValidationError, match=f"the {arm} arm's dark record holds 1 "):
            reconstruct(unit_dark(), dark_record(10, *totals), d_s, DET_I)

    @pytest.mark.parametrize("sds, rejected", [(-8, True), (-6, False), (0, False),
                                               (6, False), (8, True)])
    def test_dark_rate_rejected_outside_bernstein_bound(self, sds, rejected):
        # the dark total is Binomial(10^9, 1e-6): mean 1000, sd 31.6.  The
        # two-sided Bernstein bound falls to DARK_ALPHA = 1e-9 at a distance
        # of 214 from the mean, 6.8 sd, where the exact tail is 3e-11
        from twinbeam.fit import _check_dark_rate

        d = DetectorModel(0.3, 1000, 1e-6)
        total = 1000 + round(sds * math.sqrt(1000.0))
        dark = dark_record(10**6, total, total)
        if rejected:
            with pytest.raises(ValidationError, match="the signal arm's dark record"):
                _check_dark_rate(dark, (d, d))
        else:
            _check_dark_rate(dark, (d, d))
