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

Every stage runs over blocks of ``_BLOCK`` frames, in stream order: a
sampler called block by block takes the same outputs as one call, and a
throw pass draws each block's uniforms in turn.  Per-frame results are kept
in full-length arrays of the narrowest type that holds them.  Photon counts
start as int16; a block whose sum does not fit widens them through
``_int_type`` (int32), and a frame of 2**31 or more photons raises
``DomainError``.  Detected counts take the type of the photon counts,
fired counts the type that holds both the pixel count and the most
detected photons (int16 at 10,000 pixels), and the signal arm's dark
counts the type that holds the pixel count; the idler arm's dark counts
are tallied block by block.  The gamma draws of a component all come
before its Poisson draws, so they are held, in block-sized arrays, until
their block's Poisson draws are taken.  That sets the working memory at 12
bytes per frame: one component's gamma draws (8) beside both arms' photon
counts (2 + 2).  Later stages hold less: the two arms overlapped hold the
signal arm's detected counts, the idler arm's photons and detected counts
(2 + 2 + 2) and the signal arm's fired counts; after them, fired counts,
the idler's detected counts and the signal arm's dark counts.  Every other
temporary is block-sized, a few 8-byte elements per frame of a block on
each thread.  At the README state and 10**6 frames the tracemalloc peak is
12.5 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .model import DetectorModel, Histogram2D, TwinBeamParams, _is_integer

__all__ = ["SimConfig", "sample_frame", "simulate_histogram"]

# numpy's binomial uses inversion, one output per draw, while n·min(p, 1-p)
# is at most this
_INVERSION_LIMIT = 30.0

# frames per block: a block temporary of 8-byte elements is 512 kB, and each
# numpy call still spans 65,536 elements, so the Python loops add little
_BLOCK = 1 << 16


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


def _int_type(largest: int) -> type[np.signedinteger]:
    """The narrowest signed integer type that holds 0 to ``largest``."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if largest <= np.iinfo(t).max)


def _split(a: np.ndarray) -> list[np.ndarray]:
    """Views of ``a`` in consecutive blocks of ``_BLOCK`` frames."""
    return [a[i:i + _BLOCK] for i in range(0, a.size, _BLOCK)]


def _add_component(rng: np.random.Generator, m_modes: float, b_mean: float,
                   counts: np.ndarray) -> np.ndarray:
    """``counts`` plus one gamma-Poisson component's photons per frame,
    written in place while ``counts``' type holds them; a block whose sum
    does not fit widens the counts through ``_int_type``, and a frame of
    2**31 or more photons raises, with nothing written."""
    if m_modes == 0 or b_mean == 0:
        return counts
    # every gamma draw comes before the first Poisson draw; each block of
    # them is released once its Poisson draws are taken
    means = [rng.gamma(m_modes, b_mean, c.size) for c in _split(counts)]
    means.reverse()
    for start in range(0, counts.size, _BLOCK):
        n = counts[start:start + _BLOCK] + rng.poisson(means.pop())
        top = int(n.max())
        if top > np.iinfo(counts.dtype).max:
            wide = _int_type(top)
            if wide is np.int64:
                raise DomainError(f"simulate_histogram: a frame holds {top} photons; "
                                  f"at most {np.iinfo(np.int32).max} are supported")
            counts = counts.astype(wide)
        counts[start:start + _BLOCK] = n
    return counts


def _photon_counts(rng: np.random.Generator, p: TwinBeamParams,
                   size: int) -> tuple[np.ndarray, np.ndarray]:
    """Incident photons per frame on each arm: the shared pairs plus that
    arm's noise."""
    pairs = _add_component(rng, p.m_pairs, p.b_pairs, np.zeros(size, dtype=np.int16))
    n_s = _add_component(rng, p.m_noise_s, p.b_noise_s, pairs.copy())
    # the pairs are not needed again
    n_i = _add_component(rng, p.m_noise_i, p.b_noise_i, pairs)
    return n_s, n_i


def _detected(rng: np.random.Generator, photons: np.ndarray,
              d: DetectorModel) -> np.ndarray:
    todo = np.empty_like(photons)  # no more than the photons
    for t, n in zip(_split(todo), _split(photons)):
        t[...] = rng.binomial(n, d.efficiency)
    return todo


def _fire(rng: np.random.Generator, todo: np.ndarray, d: DetectorModel) -> np.ndarray:
    """Fired-pixel counts of frames holding ``todo`` detected photons each."""
    # Pass k throws the k-th photon of every frame holding at least k, one
    # uniform per frame in frame order, as a masked pass over all frames
    # would; a pass runs block by block, so each block draws the uniforms of
    # its own frames.  The photon lands on a fresh pixel when its uniform is
    # >= lit/pixels.  Before pass k, lit <= k - 1, and rounded division is
    # monotone, so a uniform >= (k - 1)/pixels is a sure hit: ``lit`` starts
    # as if every photon hit (so its type holds the most photons, as well as
    # the pixels), and only the few uniforms below that bound are resolved
    # against their frame's count.
    top = int(todo.max())
    lit = todo.astype(_int_type(max(d.pixels, top)))
    # holding[b, k]: the frames of block b holding >= k photons
    holding = np.array([np.bincount(t, minlength=top + 1) for t in _split(todo)])
    holding = holding[:, ::-1].cumsum(axis=1)[:, ::-1]
    for k in range(1, top + 1):
        for b in np.flatnonzero(holding[:, k]):
            u = rng.random(holding[b, k])
            near = np.flatnonzero(u < (k - 1) / d.pixels)
            if near.size:
                start = b * _BLOCK
                f = start + np.flatnonzero(todo[start:start + _BLOCK] >= k)[near]
                # k - 1 less the misses so far: the pixels this frame has lit
                lit[f[u[near] < (k - 1 - todo[f] + lit[f]) / d.pixels]] -= 1
    if d.dark_rate > 0:
        for m in _split(lit):
            m += rng.binomial(d.pixels - m, d.dark_rate)
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
    d_s, d_i = cfg.detector_s, cfg.detector_i
    dark_s = np.empty(cfg.frames, dtype=_int_type(d_s.pixels))
    for m in _split(dark_s):
        m[...] = rng.binomial(d_s.pixels, d_s.dark_rate, m.size)
    # every signal-arm draw comes first; the idler arm's are drawn block by
    # block as the tally reaches them
    return _tally(((m, rng.binomial(d_i.pixels, d_i.dark_rate, m.size))
                   for m in _split(dark_s)), cfg.frames)


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


def _tally(blocks, frames: int) -> Histogram2D:
    """Histogram of the (m_s, m_i) count pairs of ``blocks``, one block at a
    time: rows 0 to the largest m_s, columns 0 to the largest m_i."""
    counts = np.zeros((1, 1), dtype=np.int64)
    for m_s, m_i in blocks:
        shape = (max(counts.shape[0], int(m_s.max()) + 1),
                 max(counts.shape[1], int(m_i.max()) + 1))
        if shape != counts.shape:
            counts = np.pad(counts, [(0, n - c) for n, c in zip(shape, counts.shape)])
        cell = m_s.astype(np.intp)
        cell *= shape[1]
        cell += m_i
        counts += np.bincount(cell, minlength=counts.size).reshape(shape)
    return Histogram2D(counts, float(frames))


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
    return _tally(zip(_split(m_s), _split(m_i)), cfg.frames), dark
