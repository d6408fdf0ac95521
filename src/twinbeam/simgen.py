"""Seeded Monte Carlo generation of synthetic photocount histograms.

The generator works at the pixel level on purpose: photon counts are drawn
per component (gamma-Poisson, which is exactly the Mandel-Rice law for real
mode counts, with the pair draw shared by both arms), every photon is
Bernoulli-detected and thrown onto a uniformly random pixel, and a pixel
fires when it holds at least one detected photon or a dark event.  That
makes the simulator an independent check of the closed-form detector
response rather than a resampling of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import DetectorModel, Histogram2D, TwinBeamParams

__all__ = ["SimConfig", "sample_frame", "simulate_histogram"]


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one simulated measurement run."""

    params: TwinBeamParams
    detector_s: DetectorModel
    detector_i: DetectorModel
    frames: int
    seed: int

    def __post_init__(self):
        if not (isinstance(self.frames, (int, np.integer)) and self.frames >= 1):
            raise ValidationError(f"SimConfig: frames must be an integer >= 1, got {self.frames}")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValidationError(f"SimConfig: seed must be an integer, got {self.seed!r}")


def _component_counts(rng: np.random.Generator, m_modes: float, b_mean: float,
                      size: int) -> np.ndarray:
    if m_modes == 0 or b_mean == 0:
        return np.zeros(size, dtype=np.int64)
    intensity = rng.gamma(m_modes, b_mean, size)
    return rng.poisson(intensity).astype(np.int64)


def _detect_counts(rng: np.random.Generator, photons: np.ndarray,
                   d: DetectorModel) -> np.ndarray:
    """Fired-pixel counts for a batch of frames under one detector."""
    todo = rng.binomial(photons, d.efficiency)  # detected photons
    lit = np.zeros(photons.size, dtype=np.int64)
    # Throw detected photons one at a time: a photon lands on a fresh pixel
    # with probability 1 - lit/pixels.  Only the frames that still hold
    # photons are kept, compacted in frame order, so pass k draws one uniform
    # per frame with at least k detected photons, in frame order, and compares
    # it with the same lit/pixels as a masked pass over all frames would: the
    # random stream and the counts do not depend on the compaction.
    # Dropping the full-length count array and holding the rest as int32 keep
    # the loop's peak memory below that of the masked pass.
    frames = np.flatnonzero(todo)
    todo = todo[frames].astype(np.int32)
    lit_now = np.zeros(frames.size)  # integers, exact in float64
    finishing = np.bincount(todo)
    for thrown in range(1, finishing.size):
        lit_now += rng.random(frames.size) >= lit_now / d.pixels
        if finishing[thrown]:
            # frames done now keep this value; the others are overwritten later
            lit[frames] = lit_now
            keep = np.flatnonzero(todo != thrown)
            frames = frames[keep]
            todo = todo[keep]
            lit_now = lit_now[keep]
    if d.dark_rate > 0:
        lit += rng.binomial(d.pixels - lit, d.dark_rate)
    return lit


def sample_frame(cfg: SimConfig, rng: np.random.Generator) -> tuple[int, int]:
    """Draw one (m_s, m_i) photocount pair, advancing the supplied generator."""
    m_s, m_i = _sample_batch(cfg, rng, 1)
    return int(m_s[0]), int(m_i[0])


def _sample_batch(cfg: SimConfig, rng: np.random.Generator,
                  size: int) -> tuple[np.ndarray, np.ndarray]:
    p = cfg.params
    pairs = _component_counts(rng, p.m_pairs, p.b_pairs, size)
    n_s = pairs + _component_counts(rng, p.m_noise_s, p.b_noise_s, size)
    n_i = pairs + _component_counts(rng, p.m_noise_i, p.b_noise_i, size)
    m_s = _detect_counts(rng, n_s, cfg.detector_s)
    m_i = _detect_counts(rng, n_i, cfg.detector_i)
    return m_s, m_i


def _tally(m_s: np.ndarray, m_i: np.ndarray, frames: int) -> Histogram2D:
    rows, cols = int(m_s.max()) + 1, int(m_i.max()) + 1
    counts = np.bincount(m_s.astype(np.intp) * cols + m_i, minlength=rows * cols)
    return Histogram2D(counts.reshape(rows, cols), float(frames))


def simulate_histogram(cfg: SimConfig) -> tuple[Histogram2D, Histogram2D]:
    """Simulate a full run; returns (signal-idler histogram, dark histogram).

    The dark histogram records the same number of frames with no incident
    photons (dark events only) on both arms.  Identical seeds give
    bit-identical histograms.
    """
    rng = np.random.default_rng(cfg.seed)
    m_s, m_i = _sample_batch(cfg, rng, cfg.frames)
    d_s = rng.binomial(cfg.detector_s.pixels, cfg.detector_s.dark_rate, cfg.frames)
    d_i = rng.binomial(cfg.detector_i.pixels, cfg.detector_i.dark_rate, cfg.frames)
    return _tally(m_s, m_i, cfg.frames), _tally(d_s, d_i, cfg.frames)
