import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinbeam import (
    DetectorModel,
    SimConfig,
    TwinBeamParams,
    ValidationError,
    default_cutoffs,
    detector_response,
    joint_photon_distribution,
    photocount_distribution,
    photocount_moments,
    response_table,
    sample_frame,
    simulate_histogram,
)

SMALL_PARAMS = TwinBeamParams(8.0, 0.25, 1.5, 0.3, 1.0, 0.4)
DET = DetectorModel(efficiency=0.3, pixels=1000, dark_rate=0.002)


def small_config(frames=10**5, seed=42):
    return SimConfig(SMALL_PARAMS, DET, DET, frames=frames, seed=seed)


class TestDeterminism:
    def test_identical_seeds_identical_histograms(self):
        h1, d1 = simulate_histogram(small_config(frames=20_000))
        h2, d2 = simulate_histogram(small_config(frames=20_000))
        assert np.array_equal(h1.counts, h2.counts)
        assert np.array_equal(d1.counts, d2.counts)

    def test_distinct_seeds_differ(self):
        h1, _ = simulate_histogram(small_config(frames=20_000, seed=1))
        h2, _ = simulate_histogram(small_config(frames=20_000, seed=2))
        assert not np.array_equal(h1.counts, h2.counts)

    def test_single_frame(self):
        h, dark = simulate_histogram(small_config(frames=1))
        assert h.counts.sum() == 1.0
        assert h.total_frames == 1.0


def masked_detect_counts(rng, photons, d):
    """Pixel throwing as a masked pass over every frame per photon: the
    reference for the random stream that ``_detect_counts`` consumes."""
    detected = rng.binomial(photons, d.efficiency)
    lit = np.zeros(photons.size, dtype=np.int64)
    remaining = detected.copy()
    while True:
        active = remaining > 0
        if not active.any():
            break
        fresh = rng.random(int(active.sum())) >= lit[active] / d.pixels
        lit[active] += fresh
        remaining[active] -= 1
    if d.dark_rate > 0:
        lit += rng.binomial(d.pixels - lit, d.dark_rate)
    return lit


class TestRandomStream:
    @given(photons=st.lists(st.integers(0, 300), min_size=1, max_size=200),
           pixels=st.integers(1, 400),
           dark_rate=st.sampled_from([0.0, 1e-3, 0.2]),
           seed=st.integers(0, 2**32 - 1))
    def test_detection_matches_masked_loop_bit_for_bit(self, photons, pixels,
                                                       dark_rate, seed):
        from twinbeam.simgen import _detect_counts
        d = DetectorModel(efficiency=0.4, pixels=pixels, dark_rate=dark_rate)
        photons = np.array(photons, dtype=np.int64)
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _detect_counts(rng_new, photons, d)
        want = masked_detect_counts(rng_ref, photons, d)
        assert np.array_equal(got, want)
        # both consumed the same stream
        assert rng_new.random() == rng_ref.random()

    def test_histograms_are_pinned(self):
        # any change in the number or order of random draws changes these
        # digests; noise bursts saturate the 200-pixel signal arm
        cfg = SimConfig(TwinBeamParams(10.0, 0.3, 0.01, 50.0, 0.02, 20.0),
                        DetectorModel(0.3, 200, 0.01), DetectorModel(0.25, 150, 0.005),
                        frames=5000, seed=2024)
        h, dark = simulate_histogram(cfg)
        assert h.counts.shape == (33, 20)
        digests = [hashlib.sha256(np.ascontiguousarray(x.counts, dtype="<f8").tobytes())
                   .hexdigest() for x in (h, dark)]
        assert digests == [
            "05514673fc9c795bd6f895636c3b221e5ee535aa8d88fb74200a9271191e87ad",
            "23ee27d722f22c76810b3252c4338d52f2f48de3298694ac6deeabc62a55e5f7",
        ]


class TestDegenerateConfigs:
    def test_vacuum_without_dark_is_always_zero(self):
        cfg = SimConfig(TwinBeamParams(1.0, 0, 0, 0, 0, 0),
                        DetectorModel(0.3, 100, 0.0),
                        DetectorModel(0.3, 100, 0.0), frames=500, seed=3)
        h, dark = simulate_histogram(cfg)
        assert h.counts.shape == (1, 1)
        assert h.counts[0, 0] == 500.0
        assert dark.counts[0, 0] == 500.0

    def test_zero_dark_rate_dark_histogram_is_point_mass(self):
        cfg = SimConfig(SMALL_PARAMS, DetectorModel(0.3, 100, 0.0),
                        DetectorModel(0.3, 100, 0.0), frames=1000, seed=4)
        _, dark = simulate_histogram(cfg)
        assert dark.counts[0, 0] == 1000.0

    def test_near_unit_efficiency_pairs_match(self):
        cfg = SimConfig(TwinBeamParams(4.0, 0.5, 0, 0, 0, 0),
                        DetectorModel(0.999999, 10**6, 0.0),
                        DetectorModel(0.999999, 10**6, 0.0),
                        frames=4000, seed=5)
        h, _ = simulate_histogram(cfg)
        equal_mass = np.trace(h.counts) / h.total_frames
        assert equal_mass > 0.999

    def test_frames_validation(self):
        with pytest.raises(ValidationError):
            SimConfig(SMALL_PARAMS, DET, DET, frames=0, seed=1)


class TestAgainstForwardModel:
    def test_sample_moments_converge(self):
        cfg = small_config(frames=10**5)
        h, _ = simulate_histogram(cfg)
        sampled = photocount_moments(h)

        cut = default_cutoffs(SMALL_PARAMS)
        jd = joint_photon_distribution(SMALL_PARAMS, cut)
        t = response_table(DET, 60, max(cut))
        pc = photocount_distribution(jd, t, t)
        m = np.arange(61, dtype=float)
        marg_s = pc.probs.sum(axis=1)
        marg_i = pc.probs.sum(axis=0)
        mean_s = m @ marg_s
        mean_i = m @ marg_i
        var_s = (m * m) @ marg_s - mean_s**2
        se_mean = np.sqrt(var_s / cfg.frames)
        assert abs(sampled.mean_s - mean_s) < 5 * se_mean
        assert abs(sampled.mean_i - mean_i) < 5 * se_mean
        # cross moment
        cross = m @ pc.probs @ m
        assert sampled.cross == pytest.approx(cross, rel=0.02)

    def test_per_cell_frequencies_match_forward_model(self):
        # full chain: sampled (m_s, m_i) frequencies vs the photon-number
        # convolution pushed through both response tables
        frames = 3 * 10**5
        cfg = small_config(frames=frames, seed=77)
        h, _ = simulate_histogram(cfg)
        cut = default_cutoffs(SMALL_PARAMS)
        jd = joint_photon_distribution(SMALL_PARAMS, cut)
        t = response_table(DET, max(h.counts.shape) + 5, max(cut))
        pc = photocount_distribution(jd, t, t)
        expected = pc.probs * frames
        rows, cols = h.counts.shape
        obs = h.counts
        worst = 0.0
        for i in range(rows):
            for j in range(cols):
                e = expected[i, j]
                if e < 25.0:
                    continue
                se = np.sqrt(e * (1 - pc.probs[i, j]))
                worst = max(worst, abs(obs[i, j] - e) / se)
        assert worst < 4.5  # 4 SE with a small multiplicity allowance

    def test_pixel_detection_matches_closed_form_response(self, rng):
        # inject a fixed photon number and compare the empirical counts with
        # the closed-form response column; validates the binomial-coefficient
        # reading of the response formula at unit-test scale
        d = DetectorModel(efficiency=0.243, pixels=1000, dark_rate=0.001)
        trials = 10**5
        from twinbeam.simgen import _detect_counts
        for n in (0, 1, 5, 20):
            counts = _detect_counts(rng, np.full(trials, n, dtype=np.int64), d)
            hist = np.bincount(counts, minlength=30)
            for m in range(12):
                p = detector_response(d, m, n)
                se = np.sqrt(max(p * (1 - p) * trials, 1.0))
                assert abs(hist[m] - p * trials) < 4.5 * se

    def test_sample_frame_consistent_with_batch(self):
        cfg = small_config(frames=1, seed=11)
        rng1 = np.random.default_rng(99)
        rng2 = np.random.default_rng(99)
        a = sample_frame(cfg, rng1)
        from twinbeam.simgen import _sample_batch
        b = _sample_batch(cfg, rng2, 1)
        assert a == (int(b[0][0]), int(b[1][0]))
