"""Seeded Monte Carlo generation of synthetic photocount histograms.

The generator works at the pixel level on purpose: photon counts are drawn
per component (gamma-Poisson, which is exactly the Mandel-Rice law for real
mode counts, with the pair draw shared by both arms), every photon is
Bernoulli-detected and thrown onto a uniformly random pixel, and a pixel
fires when it holds at least one detected photon or a dark event.  That
makes the simulator an independent check of the closed-form detector
response rather than a resampling of it.

One seeded PCG64 stream feeds every draw, in this order: the three
components (pairs, signal noise, idler noise); the signal arm (detection
binomial, one throw uniform per detected photon, dark binomial over the
unlit pixels); the idler arm, likewise; the two dark tallies.  The
components use rejection samplers, so their length in the stream is known
only once they are drawn.  Every binomial after them with
``n·min(p, 1 - p) <= 30`` runs numpy's inversion sampler, which takes one
64-bit output per element with ``n > 0``, and a uniform takes one output.
So once the signal arm's detected photons are drawn, the idler arm's
offset is known (their sum, plus one per frame for the dark binomial), and
once the idler's are drawn, so is the dark tallies' offset.
``simulate_histogram`` starts each of those on a copy of the generator
advanced to its offset (``PCG64.advance``): a worker thread runs the idler
arm while this thread runs the signal arm and then the dark tallies.  A
result is kept only if its copy started in the state the stream really
reaches there; otherwise, and wherever the offset is not known in advance
(an arm that may light every pixel, or a dark binomial outside the
inversion range), the rest is drawn in stream order from the true state.
So the histograms are bit-identical to one sequential pass for every
configuration, whichever path runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import DetectorModel, Histogram2D, TwinBeamParams, _is_integer

__all__ = ["SimConfig", "sample_frame", "simulate_histogram"]

# numpy's binomial uses inversion, one output per draw, while n·min(p, 1-p)
# is at most this
_INVERSION_LIMIT = 30.0


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one simulated measurement run."""

    params: TwinBeamParams
    detector_s: DetectorModel
    detector_i: DetectorModel
    frames: int
    seed: int

    def __post_init__(self):
        if not (_is_integer(self.frames) and self.frames >= 1):
            raise ValidationError(f"SimConfig: frames must be an integer >= 1, got {self.frames!r}")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValidationError(f"SimConfig: seed must be an integer >= 0, got {self.seed!r}")


def _component_counts(rng: np.random.Generator, m_modes: float, b_mean: float,
                      size: int) -> np.ndarray:
    if m_modes == 0 or b_mean == 0:
        return np.zeros(size, dtype=np.int64)
    return rng.poisson(rng.gamma(m_modes, b_mean, size))


def _photon_counts(rng: np.random.Generator, p: TwinBeamParams,
                   size: int) -> tuple[np.ndarray, np.ndarray]:
    """Incident photons per frame on each arm: the shared pairs plus that
    arm's noise."""
    pairs = _component_counts(rng, p.m_pairs, p.b_pairs, size)
    n_s = _component_counts(rng, p.m_noise_s, p.b_noise_s, size)
    n_s += pairs
    n_i = _component_counts(rng, p.m_noise_i, p.b_noise_i, size)
    n_i += pairs
    return n_s, n_i


def _detected(rng: np.random.Generator, photons: np.ndarray,
              d: DetectorModel) -> np.ndarray:
    return rng.binomial(photons, d.efficiency)


def _fire(rng: np.random.Generator, todo: np.ndarray, d: DetectorModel) -> np.ndarray:
    """Fired-pixel counts of frames holding ``todo`` detected photons each."""
    # Pass k throws the k-th photon of every frame holding at least k, one
    # uniform per frame in frame order, as a masked pass over all frames
    # would.  The photon lands on a fresh pixel when its uniform is
    # >= lit/pixels.  Before pass k, lit <= k - 1, and rounded division is
    # monotone, so a uniform >= (k - 1)/pixels is a sure hit: ``lit`` starts
    # as if every photon hit, and only the few uniforms below that bound are
    # resolved against their frame's count.
    lit = todo.copy()
    holding = np.cumsum(np.bincount(todo)[::-1])[::-1]  # frames with >= k photons
    frames = None  # the frames holding >= k photons at the last pass that needed them
    for k in range(1, holding.size):
        u = rng.random(holding[k])
        near = np.flatnonzero(u < (k - 1) / d.pixels)
        if near.size:
            frames = np.flatnonzero(todo >= k) if frames is None else frames[todo[frames] >= k]
            f = frames[near]
            # k - 1 less the misses so far: the pixels this frame has lit
            lit[f[u[near] < (k - 1 - todo[f] + lit[f]) / d.pixels]] -= 1
    if d.dark_rate > 0:
        lit += rng.binomial(d.pixels - lit, d.dark_rate)
    return lit


def _detect_counts(rng: np.random.Generator, photons: np.ndarray,
                   d: DetectorModel) -> np.ndarray:
    """Fired-pixel counts for a batch of frames under one detector."""
    return _fire(rng, _detected(rng, photons, d), d)


def _fire_draws(todo: np.ndarray, d: DetectorModel) -> int | None:
    """Outputs ``_fire(rng, todo, d)`` takes from the stream, or None where
    that is not known in advance: a frame may light every pixel (and skip
    its dark draw), or the dark binomial may leave the inversion range."""
    thrown = int(todo.sum())
    if d.dark_rate == 0:
        return thrown
    if (todo.max() >= d.pixels
            or d.pixels * min(d.dark_rate, 1.0 - d.dark_rate) > _INVERSION_LIMIT):
        return None
    return thrown + todo.size


def _dark_tallies(rng: np.random.Generator, cfg: SimConfig) -> Histogram2D:
    return _tally(*(rng.binomial(d.pixels, d.dark_rate, cfg.frames)
                    for d in (cfg.detector_s, cfg.detector_i)), cfg.frames)


def _ahead(rng: np.random.Generator, skip: int | None) -> np.random.Generator | None:
    """A new generator ``skip`` outputs further along ``rng``'s stream, or
    None where ``skip`` is None."""
    if skip is None:
        return None
    bitgen = np.random.PCG64()
    bitgen.state = rng.bit_generator.state
    return np.random.Generator(bitgen.advance(skip))


def _redraw(rng: np.random.Generator, cfg: SimConfig,
            photons_i: np.ndarray | None = None):
    """The rest of the stream, drawn in order from its true state ``rng``:
    the idler arm when its photons are given, then the dark tallies."""
    m_i = None if photons_i is None else _detect_counts(rng, photons_i, cfg.detector_i)
    return m_i, _dark_tallies(rng, cfg)


def sample_frame(cfg: SimConfig, rng: np.random.Generator) -> tuple[int, int]:
    """Draw one (m_s, m_i) photocount pair, advancing the supplied generator."""
    m_s, m_i = _sample_batch(cfg, rng, 1)
    return int(m_s[0]), int(m_i[0])


def _sample_batch(cfg: SimConfig, rng: np.random.Generator,
                  size: int) -> tuple[np.ndarray, np.ndarray]:
    n_s, n_i = _photon_counts(rng, cfg.params, size)
    return _detect_counts(rng, n_s, cfg.detector_s), _detect_counts(rng, n_i, cfg.detector_i)


def _tally(m_s: np.ndarray, m_i: np.ndarray, frames: int) -> Histogram2D:
    rows, cols = int(m_s.max()) + 1, int(m_i.max()) + 1
    counts = np.bincount(m_s.astype(np.intp) * cols + m_i, minlength=rows * cols)
    return Histogram2D(counts.reshape(rows, cols), float(frames))


def simulate_histogram(cfg: SimConfig) -> tuple[Histogram2D, Histogram2D]:
    """Simulate a full run; returns (signal-idler histogram, dark histogram).

    The dark histogram records the same number of frames with no incident
    photons (dark events only) on both arms.  Identical seeds give
    bit-identical histograms; the idler arm and the dark tallies run at
    their predicted stream offsets, overlapped with the signal arm (see the
    module docstring).
    """
    # imported here: it loads logging, which no other command needs
    from concurrent.futures import ThreadPoolExecutor

    d_s, d_i = cfg.detector_s, cfg.detector_i
    rng = np.random.default_rng(cfg.seed)
    n_s, n_i = _photon_counts(rng, cfg.params, cfg.frames)
    todo_s = _detected(rng, n_s, d_s)
    del n_s
    # the idler arm starts where the signal arm's throws and dark draws end
    idler_rng = _ahead(rng, _fire_draws(todo_s, d_s))
    with ThreadPoolExecutor(max_workers=1) as worker:
        if idler_rng is not None:
            idler_start = idler_rng.bit_generator.state
            detected = worker.submit(_detected, idler_rng, n_i, d_i)
        m_s = _fire(rng, todo_s, d_s)
        del todo_s
        todo_i = None if idler_rng is None else detected.result()
        if todo_i is None or rng.bit_generator.state != idler_start:
            m_i, dark = _redraw(rng, cfg, n_i)
        else:
            del n_i
            # the dark tallies start where the idler arm's throws and dark draws end
            dark_rng = _ahead(idler_rng, _fire_draws(todo_i, d_i))
            fired = worker.submit(_fire, idler_rng, todo_i, d_i)
            del todo_i
            if dark_rng is not None:
                dark_start = dark_rng.bit_generator.state
                dark = _dark_tallies(dark_rng, cfg)
            m_i = fired.result()
            if dark_rng is None or idler_rng.bit_generator.state != dark_start:
                _, dark = _redraw(idler_rng, cfg)
    return _tally(m_s, m_i, cfg.frames), dark
