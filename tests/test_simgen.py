import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twinbeam import (
    DetectorModel,
    DomainError,
    ForwardModel,
    SimConfig,
    TwinBeamParams,
    ValidationError,
    default_cutoffs,
    detector_response,
    photocount_moments,
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


def sequential_histograms(cfg):
    """The whole stream drawn in order on one generator: the three
    components, both arms through ``masked_detect_counts``, then the dark
    tallies.  The reference for ``simulate_histogram``."""
    rng = np.random.default_rng(cfg.seed)
    p, frames = cfg.params, cfg.frames

    def component(m, b):
        if m == 0 or b == 0:
            return np.zeros(frames, dtype=np.int64)
        return rng.poisson(rng.gamma(m, b, frames))

    pairs = component(p.m_pairs, p.b_pairs)
    n_s = pairs + component(p.m_noise_s, p.b_noise_s)
    n_i = pairs + component(p.m_noise_i, p.b_noise_i)
    m_s = masked_detect_counts(rng, n_s, cfg.detector_s)
    m_i = masked_detect_counts(rng, n_i, cfg.detector_i)
    dark = [rng.binomial(d.pixels, d.dark_rate, frames) for d in (cfg.detector_s, cfg.detector_i)]

    def table(a, b):
        counts = np.zeros((a.max() + 1, b.max() + 1))
        np.add.at(counts, (a, b), 1.0)
        return counts

    return table(m_s, m_i), table(*dark)


class TestRandomStream:
    @given(photons=st.lists(st.integers(0, 300), min_size=1, max_size=200),
           pixels=st.integers(1, 400),
           dark_rate=st.sampled_from([0.0, 1e-3, 0.2]),
           seed=st.integers(0, 2**32 - 1),
           block=st.sampled_from([1, 2, 7, 1 << 16]))  # frames per block
    def test_detection_matches_masked_loop_bit_for_bit(self, photons, pixels,
                                                       dark_rate, seed, block):
        from twinbeam import simgen
        d = DetectorModel(efficiency=0.4, pixels=pixels, dark_rate=dark_rate)
        photons = np.array(photons, dtype=np.int64)
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simgen, "_BLOCK", block)
            got = simgen._detect_counts(rng_new, photons, d)
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


README_PARAMS = TwinBeamParams(179.0, 0.055, 8e-6, 320.0, 8e-3, 12.0)
README_DET_S = DetectorModel(0.243, 10000, 1e-4)
README_DET_I = DetectorModel(0.235, 10000, 1e-4)
BRIGHT_PARAMS = TwinBeamParams(10.0, 3.0, 1.0, 5.0, 1.0, 5.0)  # about 35 photons per frame
# 40,000 photons per frame on average: the photon counts pass int16
WIDE_PARAMS = TwinBeamParams(1.0, 40000.0, 0.01, 50.0, 0, 0)
WIDE_DET = DetectorModel(0.05, 40, 0.01)

detectors = st.builds(
    DetectorModel,
    efficiency=st.floats(0.05, 0.95),
    # few pixels saturate an arm; 2,000 pixels at dark rate 0.05 or 0.6
    # put the dark binomials outside numpy's inversion range
    pixels=st.sampled_from([1, 3, 40, 2000]),
    dark_rate=st.sampled_from([0.0, 1e-3, 0.05, 0.6]))

states = st.builds(TwinBeamParams,
                   m_pairs=st.floats(0.5, 30.0), b_pairs=st.floats(0.0, 3.0),
                   m_noise_s=st.sampled_from([0.0, 0.01, 2.0]), b_noise_s=st.floats(0.0, 40.0),
                   m_noise_i=st.sampled_from([0.0, 0.01, 2.0]), b_noise_i=st.floats(0.0, 40.0))


class TestStreamOrder:
    """``simulate_histogram`` draws the whole stream in order on one
    generator: its histograms are those of ``sequential_histograms``."""

    @given(params=states, detector_s=detectors, detector_i=detectors,
           frames=st.integers(1, 3000), seed=st.integers(0, 2**63))
    # zero dark rate; a saturated signal arm; pixels x dark rate >= 30;
    # efficiency > 0.5; the README state; and photon counts past int16
    @example(SMALL_PARAMS, DetectorModel(0.3, 1000, 0.0), DetectorModel(0.3, 1000, 0.0),
             2000, 1)
    @example(TwinBeamParams(10.0, 0.3, 0.01, 50.0, 0.02, 20.0), DetectorModel(0.3, 200, 0.01),
             DetectorModel(0.25, 150, 0.005), 5000, 2024)
    @example(SMALL_PARAMS, DetectorModel(0.3, 1000, 0.05), DetectorModel(0.3, 1000, 0.05),
             2000, 3)
    @example(BRIGHT_PARAMS, DetectorModel(0.9, 40, 0.01), DetectorModel(0.7, 40, 0.01), 2000, 4)
    @example(README_PARAMS, README_DET_S, README_DET_I, 3000, 1)
    @example(WIDE_PARAMS, WIDE_DET, WIDE_DET, 50, 3)
    # the README state over two blocks; only the signal arm, or only the
    # idler arm, may light every one of its 40 pixels; 2,000 pixels at dark
    # rate 0.05 put the signal arm's dark binomials outside inversion
    @example(README_PARAMS, README_DET_S, README_DET_I, 100_000, 1)
    @example(BRIGHT_PARAMS, DetectorModel(0.9, 40, 0.01), DET, 2000, 4)
    @example(SMALL_PARAMS, DetectorModel(0.3, 2000, 0.05), DET, 2000, 5)
    @example(BRIGHT_PARAMS, DET, DetectorModel(0.9, 40, 0.01), 2000, 6)
    def test_matches_sequential_reference(self, params, detector_s, detector_i, frames, seed):
        cfg = SimConfig(params, detector_s, detector_i, frames=frames, seed=seed)
        h, dark = simulate_histogram(cfg)
        want_h, want_dark = sequential_histograms(cfg)
        assert np.array_equal(h.counts, want_h)
        assert np.array_equal(dark.counts, want_dark)


class TestBlocks:
    """Every stage runs over blocks of ``simgen._BLOCK`` frames.  At a few
    frames per block every stage, and every throw pass, crosses block
    boundaries; the draws are still those of one sequential pass."""

    @given(params=states, detector_s=detectors, detector_i=detectors,
           frames=st.integers(1, 300), seed=st.integers(0, 2**63),
           block=st.sampled_from([2, 7]))
    # a saturated signal arm; the README state; photon counts that pass
    # int16 in a later block than the first
    @example(BRIGHT_PARAMS, DetectorModel(0.9, 40, 0.01), DetectorModel(0.7, 40, 0.01),
             300, 4, 7)
    @example(README_PARAMS, README_DET_S, README_DET_I, 300, 1, 7)
    @example(WIDE_PARAMS, WIDE_DET, WIDE_DET, 50, 20, 7)
    def test_small_blocks_match_sequential_reference(self, params, detector_s, detector_i,
                                                     frames, seed, block):
        from twinbeam import simgen
        cfg = SimConfig(params, detector_s, detector_i, frames=frames, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simgen, "_BLOCK", block)
            h, dark = simulate_histogram(cfg)
        want_h, want_dark = sequential_histograms(cfg)
        assert np.array_equal(h.counts, want_h)
        assert np.array_equal(dark.counts, want_dark)

    def test_working_memory_per_frame(self):
        # the module docstring's bound: 12 bytes per frame, plus block-sized
        # temporaries, a few 8-byte elements per frame of a block on each
        # thread (six blocks allowed).  At 10**6 frames the allowance for
        # the temporaries is a fifth of the bound, so 16 bytes per frame
        # exceed it
        import tracemalloc

        from twinbeam import simgen
        frames = 10**6
        cfg = SimConfig(README_PARAMS, README_DET_S, README_DET_I, frames=frames, seed=1)
        simulate_histogram(SimConfig(README_PARAMS, README_DET_S, README_DET_I,
                                     frames=100, seed=1))  # first-call set-up
        tracemalloc.start()
        try:
            simulate_histogram(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * frames + 6 * 8 * simgen._BLOCK

    def test_per_frame_types(self):
        from twinbeam import simgen
        assert [simgen._int_type(n) for n in (1, 127, 128, 32767, 32768, 2**31 - 1, 2**31)] == [
            np.int8, np.int8, np.int16, np.int16, np.int32, np.int32, np.int64]
        n_s, n_i = simgen._photon_counts(np.random.default_rng(1), README_PARAMS, 1000)
        assert n_s.dtype == n_i.dtype == np.int16
        todo = simgen._detected(np.random.default_rng(2), n_s, README_DET_S)
        assert todo.dtype == np.int16
        # 10,000 pixels
        assert simgen._fire(np.random.default_rng(3), todo, README_DET_S).dtype == np.int16
        # the bright state's photon counts pass int16, and the detected
        # counts follow their type
        n_s, n_i = simgen._photon_counts(np.random.default_rng(3), WIDE_PARAMS, 50)
        assert n_s.dtype == n_i.dtype == np.int32
        assert simgen._detected(np.random.default_rng(2), n_s, WIDE_DET).dtype == np.int32

    def test_counts_that_do_not_fit_raise(self):
        from twinbeam import simgen
        most = np.iinfo(np.int32).max
        # a component that adds nothing here leaves the largest count as it
        # is, in place
        for t in (np.int16, np.int32):
            counts = np.array([0, np.iinfo(t).max], dtype=t)
            assert simgen._add_component(np.random.default_rng(3), 1e-9, 1.0, counts) is counts
            assert counts.tolist() == [0, np.iinfo(t).max]
        # a sum past int16 widens the counts, the Poisson draws as drawn
        counts = np.array([0, 32767], dtype=np.int16)
        wide = simgen._add_component(np.random.default_rng(4), 5.0, 2.0, counts)
        ref = np.random.default_rng(4)
        assert wide.dtype == np.int32
        assert wide.tolist() == (ref.poisson(ref.gamma(5.0, 2.0, 2)) + [0, 32767]).tolist()
        # one component of 3e9 photons a frame, and a sum past 2**31 - 1
        counts = np.zeros(3, np.int16)
        with pytest.raises(DomainError, match="photons; at most 2147483647"):
            simgen._add_component(np.random.default_rng(4), 1.0, 3e9, counts)
        assert np.all(counts == 0)  # nothing written
        counts = np.full(3, most - 10, np.int32)
        with pytest.raises(DomainError):
            simgen._add_component(np.random.default_rng(5), 100.0, 1.0, counts)
        assert np.all(counts == most - 10)  # nothing written


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

    @pytest.mark.parametrize("frames, seed", [(10, -3), (10, True), (True, 1), (10, 2.0)],
                             ids=["negative-seed", "bool-seed", "bool-frames", "float-seed"])
    def test_seed_and_frames_validation(self, frames, seed):
        with pytest.raises(ValidationError):
            SimConfig(SMALL_PARAMS, DET, DET, frames=frames, seed=seed)


class TestAgainstForwardModel:
    def test_sample_moments_converge(self):
        cfg = small_config(frames=10**5)
        h, _ = simulate_histogram(cfg)
        sampled = photocount_moments(h)

        pc = ForwardModel(DET, DET, (60, 60), default_cutoffs(SMALL_PARAMS))(SMALL_PARAMS)
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
        m_max = max(h.counts.shape) + 5
        pc = ForwardModel(DET, DET, (m_max, m_max), default_cutoffs(SMALL_PARAMS))(SMALL_PARAMS)
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


def numpy_inversion(n, p, u):
    """numpy's ``random_binomial_inversion`` (numpy/random/src/distributions/
    distributions.c) transcribed: the X that the draw ``u`` gives for ``n``
    trials at ``p`` <= 0.5, or None where it reaches bound + 1, from which
    numpy restarts with a new draw."""
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    np_ = n * p
    bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
    x, px = 0, qn
    while u > px:
        x += 1
        if x > bound:
            return None
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


def numpy_draw(n, p, m):
    """What numpy's own ``Generator.binomial`` gives for ``n`` trials at ``p``
    from the double m·2**-53, or None where it takes a second output."""
    from twinbeam import simgen
    rng, one = simgen._first_output(m), simgen._first_output(m)
    x = int(rng.binomial(n, p))
    one.bit_generator.random_raw()
    return x if rng.bit_generator.state == one.bit_generator.state else None


def generators(seed, count=2):
    return [np.random.default_rng(seed) for _ in range(count)]


README_TABLES = [(0.243, (1, 123)), (0.235, (1, 127)), (1e-4, (9700, 10000))]


class TestExactBinomial:
    """``simgen._binomial`` reads numpy's inversion sampler from threshold
    tables: the same values and the same stream as ``Generator.binomial``."""

    @given(p=st.one_of(st.floats(1e-5, 1 - 1e-5),
                       st.sampled_from([0.5, 0.243, 0.235, 0.7, 1e-4, 1 - 1e-4])),
           lo=st.integers(0, 200), width=st.sampled_from([0, 1, 5, 40, 300]),
           slack=st.sampled_from([0, 3, 50]), size=st.integers(1, 600),
           zeros=st.booleans(), dtype=st.sampled_from([np.int16, np.int32]),
           seed=st.integers(0, 2**63))
    # a block past the inversion limit inside rows that invert at first
    @example(0.3, 0, 300, 0, 200, False, np.int16, 1)
    def test_matches_numpy(self, p, lo, width, slack, size, zeros, dtype, seed):
        from twinbeam import simgen
        n = np.random.default_rng(seed).integers(lo, lo + width + 1, size).astype(dtype)
        if zeros:
            n[::3] = 0
        rows = (0 if zeros else max(lo - slack, 0), lo + width + slack)
        # rows past the inversion limit get no table; a block that reaches
        # them takes numpy's call
        inverting = [k for k in range(rows[0], rows[1] + 1) if simgen._inverts(k, p)]
        table = simgen._table(p, (rows[0], inverting[-1]) if inverting else None)
        got_rng, want_rng = generators(seed + 1)
        got = simgen._binomial(got_rng, n, p, table)
        want = want_rng.binomial(n, p)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("d", [README_DET_S, DetectorModel(0.3, 1000, 0.0),
                                   DetectorModel(0.3, 7, 0.6), DetectorModel(0.3, 2000, 0.05)],
                             ids=["readme", "no-dark", "dark-above-half", "btpe"])
    def test_scalar_trials_match_numpy(self, d):
        from twinbeam import simgen
        got_rng, want_rng = generators(5)
        for size in (1, 1000, 1 << 16):
            got = simgen._dark(got_rng, d, size, simgen._table(d.dark_rate, (d.pixels, d.pixels)))
            assert np.array_equal(got, want_rng.binomial(d.pixels, d.dark_rate, size))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_other_bit_generators_take_numpy_call(self):
        from twinbeam import simgen
        n = np.arange(200, dtype=np.int16) % 40
        got_rng, want_rng = (np.random.Generator(np.random.MT19937(3)) for _ in range(2))
        got = simgen._binomial(got_rng, n, 0.243, simgen._table(0.243, (0, 39)))
        assert np.array_equal(got, want_rng.binomial(n, 0.243))
        assert got_rng.random() == want_rng.random()  # the same stream consumed

    @pytest.mark.parametrize("low, high", [(40, 55), (55, 70)], ids=["below", "above"])
    def test_block_outside_table_takes_numpy_call(self, low, high):
        from twinbeam import simgen
        n = np.arange(low, high + 1, dtype=np.int16)
        got_rng, want_rng = generators(6)
        got = simgen._binomial(got_rng, n, 0.25, simgen._table(0.25, (50, 60)))
        assert np.array_equal(got, want_rng.binomial(n, 0.25))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_restart_takes_numpy_call(self):
        # U = 1 - 2**-53 runs binomial(10000, 1e-4) past bound = 15, so numpy
        # restarts and takes a second output; the table sees the restart and
        # hands the block to numpy from the state before it
        from twinbeam import simgen
        m = 2**53 - 1
        probe, got_rng, want_rng = (simgen._first_output(m) for _ in range(3))
        assert int(probe.bit_generator.random_raw()) >> 11 == m
        table = simgen._table(1e-4, (10000, 10000))
        r = 10000 - table.lo
        assert table.tau[r, table.bound[r]] <= m  # the draw reaches bound + 1
        n = np.array([10000], dtype=np.int16)
        got = simgen._binomial(got_rng, n, 1e-4, table)
        assert np.array_equal(got, want_rng.binomial(n, 1e-4))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        probe.bit_generator.random_raw()
        assert want_rng.bit_generator.state == probe.bit_generator.state  # two outputs

    def test_no_table_where_numpy_samples_otherwise(self, monkeypatch):
        from twinbeam import simgen
        monkeypatch.setattr(simgen, "_Inversion", None)  # never reached
        assert simgen._table(0.0, (0, 39)) is None
        assert simgen._table(0.243, None) is None
        assert simgen._table(0.243, (0, 0)) is None  # no n > 0
        assert simgen._table(0.243, (0, 124)) is None  # 124·0.243 > 30
        assert simgen._table(1e-4, (0, 10000)) is None  # past _ROWS_MOST rows
        assert simgen._tables_match_numpy()  # the installed numpy, probed
        monkeypatch.setattr(simgen, "_tables_match_numpy", lambda: False)
        assert simgen._table(0.243, (0, 39)) is None
        n = np.arange(300, dtype=np.int16) % 40
        got_rng, want_rng = generators(4)
        assert np.array_equal(simgen._binomial(got_rng, n, 0.243, None),
                              want_rng.binomial(n, 0.243))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_no_table_for_blocks_that_never_invert(self, monkeypatch):
        # one frame past 30/0.2 = 150 photons sends its whole block to
        # numpy's call, so the table serves only the other blocks' rows
        from twinbeam import simgen
        asked, table = [], simgen._table
        monkeypatch.setattr(simgen, "_table", lambda p, rows: asked.append(rows) or table(p, rows))
        d = DetectorModel(0.2, 1000, 0.0)
        photons = np.full(3 * simgen._BLOCK, 50, dtype=np.int16)
        photons[::simgen._BLOCK] = 200
        simgen._detected(np.random.default_rng(1), photons, d)
        photons[simgen._BLOCK] = 60
        simgen._detected(np.random.default_rng(1), photons, d)
        assert asked == [None, (0, 60)]

    @pytest.mark.parametrize("p, rows", README_TABLES, ids=["eta-s", "eta-i", "dark"])
    def test_thresholds_against_numpy(self, p, rows):
        # numpy's own sampler, from a double placed on either side of each
        # threshold: below tau_k it gives less than k, at tau_k k or more,
        # or (k = bound + 1) a restart
        from twinbeam import simgen
        table = simgen._Inversion(p, *rows)
        for r, n in enumerate(range(rows[0], rows[1] + 1, 3)):
            r = n - rows[0]
            for k in range(1, int(table.bound[r]) + 2):
                tau = int(table.tau[r, k - 1])
                if tau < simgen._NEVER:
                    x = numpy_draw(n, p, tau)
                    assert x is None or x >= k
                x = numpy_draw(n, p, tau - 1)
                assert x is not None and x < k

    @pytest.mark.parametrize("p, rows", README_TABLES, ids=["eta-s", "eta-i", "dark"])
    def test_thresholds_against_numpy_transcription(self, p, rows):
        # the README efficiencies over every n that inverts, and the README
        # dark rate over 300 unlit-pixel counts: every k up to bound + 1 is
        # reached at tau_k and not at tau_k - 1
        from twinbeam import simgen
        table = simgen._Inversion(p, *rows)
        for r, n in enumerate(range(rows[0], rows[1] + 1)):
            bound = int(table.bound[r])
            for k in range(1, bound + 2):
                tau = int(table.tau[r, k - 1])
                assert 0 < tau <= simgen._NEVER
                if tau < simgen._NEVER:
                    x = numpy_inversion(n, p, tau * 2.0**-53)
                    assert x is None or x >= k
                x = numpy_inversion(n, p, (tau - 1) * 2.0**-53)
                assert x is not None and x < k
            assert np.all(table.tau[r, bound + 1:] == simgen._NEVER)

    def test_one_table_kept_per_p(self, monkeypatch):
        from twinbeam import simgen
        monkeypatch.setattr(simgen, "_tables", {})
        first = simgen._table(0.25, (50, 60))
        assert simgen._table(0.25, (52, 58)) is first
        # p above 0.5 reads the table at 1 - p
        assert simgen._table(0.75, (52, 58)) is first
        # rows outside it: built over the kept rows and the needed ones
        grown = simgen._table(0.25, (65, 70))
        assert (grown.lo, grown.hi) == (50, 70)
        # every row is the row a table of its own gives
        alone = simgen._Inversion(0.25, 70, 70)
        r = 70 - grown.lo
        assert np.array_equal(grown.lookup[:, r], alone.lookup[:, 0])
        assert np.array_equal(grown.tau[r, :alone.tau.shape[1]], alone.tau[0])
        # a union past _ROWS_MOST rows: the needed rows alone
        monkeypatch.setattr(simgen, "_ROWS_MOST", 32)
        alone = simgen._table(0.25, (100, 110))
        assert (alone.lo, alone.hi) == (100, 110)
        # the _TABLES_KEPT most recently used tables are kept
        for p in (0.1, 0.2, 0.3, 0.4, 0.1, 0.35):
            simgen._table(p, (1, 30))
        assert list(simgen._tables) == [0.3, 0.4, 0.1, 0.35]

    def test_tables_are_built_only_where_trials_invert(self, monkeypatch):
        from twinbeam import simgen
        monkeypatch.setattr(simgen, "_tables", {})
        built = []
        init = simgen._Inversion.__init__

        def record(self, p, lo, hi):
            built.append(p)
            init(self, p, lo, hi)

        monkeypatch.setattr(simgen._Inversion, "__init__", record)
        cfg = SimConfig(README_PARAMS, README_DET_S, DetectorModel(0.235, 10000, 2e-4),
                        frames=5000, seed=1)
        h, dark = simulate_histogram(cfg)
        # the signal arm's one block holds a frame of 125 photons, past
        # 30/0.243, so it takes numpy's call and no table at 0.243 is built
        assert sorted(built) == [1e-4, 2e-4, 0.235]
        want_h, want_dark = sequential_histograms(cfg)
        assert np.array_equal(h.counts, want_h)
        assert np.array_equal(dark.counts, want_dark)


class TestTally:
    def test_table_that_does_not_fit_raises_domain_error(self, monkeypatch, tmp_path):
        # numpy refuses every 2-D table past 100 cells: the 2,000-frame run
        # needs 11 x 11 cells, its dark tallies 10 x 9
        import json

        from twinbeam.cli import main
        zeros = np.zeros

        def no_room(shape, *args, **kwargs):
            if isinstance(shape, tuple) and len(shape) == 2 and shape[0] * shape[1] > 100:
                raise MemoryError
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", no_room)
        with pytest.raises(DomainError, match=r"a \d+ x \d+ table of photocount pairs"):
            simulate_histogram(small_config(frames=2000))
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "params": {"m_pairs": 8.0, "b_pairs": 0.25, "m_noise_s": 1.5,
                       "b_noise_s": 0.3, "m_noise_i": 1.0, "b_noise_i": 0.4},
            "detector_s": {"efficiency": 0.3, "pixels": 1000, "dark_rate": 0.002},
            "detector_i": {"efficiency": 0.3, "pixels": 1000, "dark_rate": 0.002},
            "frames": 2000, "seed": 42}))
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
