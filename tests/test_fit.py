import math

import numpy as np
import pytest

from twinbeam import (
    DetectorModel,
    Histogram2D,
    JointDistribution,
    ReconstructionError,
    SimConfig,
    TwinBeamParams,
    ValidationError,
    dark_corrected_moments,
    declination,
    default_cutoffs,
    invert_at,
    inversion_family,
    joint_photon_distribution,
    mode_parameters,
    photocount_distribution,
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


def model_histogram(params, d_s, d_i, m_max=40):
    cut = default_cutoffs(params)
    jd = joint_photon_distribution(params, cut)
    t_s = response_table(d_s, m_max, cut[0])
    t_i = response_table(d_i, m_max, cut[1])
    pc = photocount_distribution(jd, t_s, t_i)
    counts = pc.probs / pc.probs.sum()
    return Histogram2D(counts, 1.0)


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
        cut = default_cutoffs(CLEAN_PARAMS)
        jd = joint_photon_distribution(CLEAN_PARAMS, cut)
        t_s = response_table(cfg.detector_s, f.counts.shape[0] + 5, cut[0])
        t_i = response_table(cfg.detector_i, f.counts.shape[1] + 5, cut[1])
        pc = photocount_distribution(jd, t_s, t_i)
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

    def test_no_scan_point_inside_interval_raises(self):
        # CLEAN_PARAMS give the interval (0.525, 0.980) with var_p_max at its
        # open upper end; the one lattice point (0.490) misses it
        f = model_histogram(CLEAN_PARAMS, DET_S, DET_I)
        with pytest.raises(ReconstructionError):
            reconstruct(f, unit_dark(), DET_S, DET_I, scan_points=2)

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
        counts = photocount_distribution(photons, response_table(d_s, cut[0], cut[0]),
                                         response_table(d_i, cut[1], cut[1]))
        for table in (photons, counts):
            assert np.all(np.isfinite(table.probs))
            assert 0 <= table.truncation_mass <= 1e-9

    @pytest.mark.parametrize("seed", [44, 50])
    def test_scan_lattice_stops_short_of_var_p_max(self, seed):
        # var_p_max * k / scan_points at k = scan_points is var_p_max itself
        # up to round-off and never strictly inside the interval; the lattice
        # must not depend on how that product rounds.  On these seeds the
        # upper end of the interval is var_p_max and the optimum lies lower,
        # so no evaluation comes near it.
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
        # parameters and moments are read back, not computed a second time
        import twinbeam.fit

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return joint_photon_distribution(*args, **kwargs)

        monkeypatch.setattr(twinbeam.fit, "joint_photon_distribution", counted)
        f = model_histogram(CLEAN_PARAMS, DET_S, DET_I)
        result = reconstruct(f, unit_dark(), DET_S, DET_I, scan_points=25)
        assert len(calls) == len(result.scan)
        assert (result.var_p_opt, result.declination) in result.scan
        assert result.params in calls
