"""Seeded Monte Carlo generation of synthetic photocount histograms.

The generator works at the pixel level on purpose: photon counts are drawn
per component (gamma-Poisson, which is exactly the Mandel-Rice law for real
mode counts, with the pair draw shared by both arms), every photon is
Bernoulli-detected and thrown onto a uniformly random pixel, and a pixel
fires when it holds at least one detected photon or a dark event.  That
makes the simulator an independent check of the closed-form detector
response rather than a resampling of it.

One seeded PCG64 stream feeds every draw, taken in order on the calling
thread: the three components (pairs, signal noise, idler noise); the
signal arm (detection binomial, one throw uniform per detected photon, dark
binomial over the unlit pixels); the idler arm, likewise; the two dark
tallies.  ``_sample_batch`` draws the components and both arms, for
``simulate_histogram`` and ``sample_frame`` alike, and ``_dark_tallies``
the rest.

numpy draws a binomial with ``n·min(p, 1 - p) <= 30`` by its inversion
sampler, one 64-bit output per element with ``n > 0`` unless the element
restarts.  Those binomials are read from exact tables of that sampler
(``_binomial``, ``_Inversion``): per p and per n, the smallest 53-bit draw
that reaches each count, and a bucket table on the draw's top bits.  They
give numpy's values from numpy's outputs, so the stream is the one
``Generator.binomial`` takes; a block with an n outside the inversion
range, or an element that restarts, takes numpy's own call.  Each stage
looks its table up once, for the trials its blocks hold that invert; one
table is kept per p (four at most, of at most ``_ROWS_MOST`` rows, 1.7 MB
each) and grown over the union of the rows kept and needed.  Trials that
span more rows take numpy's call.

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
counts (2 + 2).  Later stages hold less: each arm holds its photons,
detected and fired counts beside the other arm's photon or fired counts
(2 + 2 + 2 + 2), and the dark tallies both arms' fired counts and the
signal arm's dark counts.  Every other temporary is block-sized, a few
8-byte elements per frame of a block.  At the README state and 10**6
frames the tracemalloc peak is 12.5 MB.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .model import DetectorModel, Histogram2D, TwinBeamParams, _is_integer

__all__ = ["SimConfig", "sample_frame", "simulate_histogram"]

# numpy's binomial runs its inversion sampler while n·min(p, 1 - p) is at
# most this, and BTPE beyond: inversion takes one output per element with
# n > 0, and one more each time an element restarts (see ``_Inversion``)
_INVERSION_LIMIT = 30.0

# a draw's top bits pick one of 2**10 buckets of the unit interval
_BUCKET_BITS = 10
# marks a bucket that a threshold splits, or where an element may restart
_SPLIT = 0x80
# a threshold above every 53-bit draw
_NEVER = 1 << 53
# threshold rows of one table at most: a row is 1 kB of buckets and 8 bytes
# per threshold (at most 87), so a table is 1.7 MB at most; trials that span
# more rows take numpy's call
_ROWS_MOST = 1 << 10
# tables kept between calls, one per p: a run reads four (two efficiencies,
# two dark rates)
_TABLES_KEPT = 4

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


def _inverts(n: int, p: float) -> bool:
    """Whether numpy's binomial draws ``n`` trials at ``p`` by inversion."""
    return n * min(p, 1.0 - p) <= _INVERSION_LIMIT


class _Inversion:
    """numpy's inversion sampler at ``p`` <= 0.5, tabulated exactly for the
    trials n = ``lo`` to ``hi``.

    For n trials the sampler (``random_binomial_inversion`` in numpy's
    ``distributions.c``) draws U = m·2**-53 from the 53-bit integer m of one
    64-bit output and runs ``while U > px: X += 1; U -= px; px = ((n - X + 1)
    ·p·px)/(X·q)`` from ``px = exp(n·log1p(-p))``, q = 1 - p; an element that
    reaches X = bound + 1 restarts with a new output.  The ``px`` do not
    depend on U, and each rounded subtraction is monotone in U, so "reaches
    X >= k" holds exactly for m >= ``tau[n, k]``, the smallest m that reaches
    k: a draw gives X = #{k : m >= tau[n, k]}.  Each threshold is found by
    bisection on that float recursion, run on arrays with numpy's own
    rounded operations, in a window around the cumulative probability
    (opened to every m where the window's ends do not bracket it).  ``exp``,
    ``log1p`` and ``sqrt`` are evaluated once per row, on scalars, through
    the C library calls numpy's sampler makes; ``_tables_match_numpy`` checks
    the installed sampler against this one.

    ``lookup[b, n - lo]`` is the X of every m in bucket b (the top
    ``_BUCKET_BITS`` bits of m), or ``_SPLIT`` where a threshold lies inside
    the bucket or an element may restart there; only those draws are
    compared with ``tau``.
    """

    def __init__(self, p: float, lo: int, hi: int):
        q = 1.0 - p
        px_rows, bounds = [], []
        for n in range(lo, hi + 1):
            np_ = n * p
            bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
            px = [math.exp(n * math.log1p(-p))]
            for x in range(1, bound + 1):
                px.append(((n - x + 1) * p * px[-1]) / (x * q))
            px_rows.append(px)
            bounds.append(bound)
        self.lo, self.hi, self.bound = lo, hi, np.array(bounds)
        # px[r, j]: padded with 2.0, which no U exceeds
        px = np.full((len(bounds), max(bounds) + 1), 2.0)
        for row, values in zip(px, px_rows):
            row[:len(values)] = values

        def passes(m: np.ndarray) -> np.ndarray:
            # U_j > px[j] at step j, for the draw m[r, j]: U_j is the draw
            # less px[0] to px[j - 1], rounded step by step as numpy does
            u = m * 2.0**-53
            for j in range(px.shape[1] - 1):
                u[:, j + 1:] -= px[:, j, None]
            return u > px

        # Step j's test passes exactly from the smallest m = sigma[r, j] on,
        # and X >= k needs steps 0 to k - 1, so tau[r, k - 1] is the largest
        # sigma up to j = k - 1.  The sigma lie within a few units of the
        # cumulative sums (8 at most over 10**5 thresholds of numpy 2.4's
        # sampler): a window of 16 on each side holds them, and an end that
        # fails its test opens the window to every m.
        guess = (np.minimum(np.cumsum(px, axis=1), 1.0) * 2.0**53).astype(np.int64)
        below = np.maximum(guess - 16, 0)
        below[passes(below)] = -1
        above = np.minimum(guess + 16, _NEVER)
        above[(above < _NEVER) & ~passes(np.minimum(above, _NEVER - 1))] = _NEVER
        # below never passes, above always does (-1 and _NEVER by definition)
        while np.any(above - below > 1):
            mid = (below + above) // 2
            hit = passes(mid)
            below = np.where(hit, below, mid)
            above = np.where(hit, mid, above)
        # columns past a row's bound hold the padding, which never passes
        np.maximum.accumulate(above, axis=1, out=above)
        self.tau = above
        edges = np.arange(1 << _BUCKET_BITS, dtype=np.int64) << (53 - _BUCKET_BITS)
        tops = edges + (1 << (53 - _BUCKET_BITS)) - 1
        self.lookup = np.empty((edges.size, len(bounds)), dtype=np.uint8)
        for r, (tau, bound) in enumerate(zip(self.tau, bounds)):
            first = np.searchsorted(tau, edges, side="right")
            last = np.searchsorted(tau, tops, side="right")
            self.lookup[:, r] = np.where((first == last) & (last <= bound), first, _SPLIT)


def _first_output(m: int) -> np.random.Generator:
    """A PCG64 generator whose next output is ``m << 11``, so that its next
    double is m·2**-53: one LCG step before a state whose two halves XOR to
    that word, with the top six bits, the XSL-RR rotation, clear."""
    mult = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier
    bitgen = np.random.PCG64(0)
    state = bitgen.state
    high = 1 << 32
    after = (high << 64) | (high ^ (m << 11))
    state["state"]["state"] = (after - state["state"]["inc"]) * pow(mult, -1, 1 << 128) % (1 << 128)
    bitgen.state = state
    return np.random.Generator(bitgen)


@functools.cache
def _tables_match_numpy() -> bool:
    """Whether the installed numpy's sampler starts from q**n =
    exp(n·log1p(-p)), as ``_Inversion`` does: two draws on either side of the
    first threshold of 10,000 trials at 1e-4, which exp(n·log(1 - p)) moves
    366 draws up.  Where it does not, no table is read."""
    n, p = 10000, 1e-4
    tau = math.floor(math.exp(n * math.log1p(-p)) * 2.0**53) + 1
    return _first_output(tau - 1).binomial(n, p) == 0 and _first_output(tau).binomial(n, p) == 1


_tables: dict[float, _Inversion] = {}
_tables_lock = threading.Lock()


def _table(p: float, rows: tuple[int, int] | None) -> _Inversion | None:
    """The table ``_binomial`` reads for trials ``rows`` = (lo, hi) at
    ``p``, or None where numpy's call draws every block: no rows, p = 0, no
    n > 0, an n that does not invert, a span past ``_ROWS_MOST``, or a
    sampler that ``_tables_match_numpy`` rejects.

    One table is kept per p, the ``_TABLES_KEPT`` most recently used.  Where
    a call needs rows outside it, it is built anew over the kept rows and the
    needed ones, or over the needed ones alone where that union passes
    ``_ROWS_MOST``.  Tables are built under a lock, so that callers on
    several threads share each one.
    """
    if rows is None or p == 0.0:
        return None
    lo, hi = max(rows[0], 1), rows[1]
    if hi < lo or hi - lo >= _ROWS_MOST or not _inverts(hi, p) or not _tables_match_numpy():
        return None
    p = min(p, 1.0 - p)
    with _tables_lock:
        kept = _tables.pop(p, None)
        if kept is not None and kept.lo <= lo and hi <= kept.hi:
            table = kept
        else:
            if kept is not None and max(hi, kept.hi) - min(lo, kept.lo) < _ROWS_MOST:
                lo, hi = min(lo, kept.lo), max(hi, kept.hi)
            table = _Inversion(p, lo, hi)
        _tables[p] = table  # the most recently used last
        if len(_tables) > _TABLES_KEPT:
            del _tables[next(iter(_tables))]
        return table


def _binomial(rng: np.random.Generator, n: np.ndarray, p: float,
              table: _Inversion | None) -> np.ndarray:
    """``rng.binomial(n, p)``: the same values, in a type that holds them,
    from the same outputs of the stream.

    Where ``table`` is ``_table(p, rows)`` for rows that hold every n > 0 of
    the block, on a PCG64 stream, the draws are read from it (for p > 0.5,
    as numpy does, n less a draw at 1 - p): one output per element with
    n > 0, taken with ``random_raw``.  Where the table is None or does not
    hold the block, and where an element would restart, the block takes
    numpy's own call, from the state before it.
    """
    if table is None or not isinstance(rng.bit_generator, np.random.PCG64):
        return rng.binomial(n, p)
    drawn = n if n.min() > 0 else n[n != 0]  # n = 0 draws nothing
    if drawn.size and not table.lo <= drawn.min() <= drawn.max() <= table.hi:
        return rng.binomial(n, p)
    state = rng.bit_generator.state
    raw = rng.bit_generator.random_raw(drawn.size)
    cell = np.right_shift(raw, 64 - _BUCKET_BITS, out=np.empty(raw.size, dtype=np.intp),
                          casting="unsafe")
    cell *= table.bound.size
    cell += drawn
    cell -= table.lo
    x = table.lookup.reshape(-1)[cell]
    del cell
    split = np.flatnonzero(x == _SPLIT)
    if split.size:
        row = drawn[split] - table.lo
        m = (raw[split] >> 11).astype(np.int64)
        exact = np.count_nonzero(m[:, None] >= table.tau[row], axis=1)
        if np.any(exact > table.bound[row]):
            rng.bit_generator.state = state
            return rng.binomial(n, p)
        x[split] = exact
    if drawn is not n:
        x, drawn = np.zeros(n.shape, dtype=np.uint8), x
        x[n != 0] = drawn
    return n - x if p > 0.5 else x


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
    try:
        pairs = np.zeros(size, dtype=np.int16)
    except (ValueError, MemoryError):  # past numpy's largest dimension, or out of memory
        raise DomainError(f"simulate_histogram: {size} frames do not fit in memory") from None
    pairs = _add_component(rng, p.m_pairs, p.b_pairs, pairs)
    n_s = _add_component(rng, p.m_noise_s, p.b_noise_s, pairs.copy())
    # the pairs are not needed again
    n_i = _add_component(rng, p.m_noise_i, p.b_noise_i, pairs)
    return n_s, n_i


def _detected(rng: np.random.Generator, photons: np.ndarray, d: DetectorModel) -> np.ndarray:
    """Detected photons per frame, in the photon counts' type, which holds
    them."""
    todo = np.empty_like(photons)
    # the table serves 0 to the most photons of a block whose every frame
    # inverts; a block with a frame past that takes numpy's call
    tops = [top for top in (int(n.max()) for n in _split(photons)) if _inverts(top, d.efficiency)]
    table = _table(d.efficiency, (0, max(tops)) if tops else None)
    for t, n in zip(_split(todo), _split(photons)):
        t[...] = _binomial(rng, n, d.efficiency, table)
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
        # the trials: the pixels the photons left unlit
        table = _table(d.dark_rate, (max(d.pixels - top, 0), d.pixels))
        for m in _split(lit):
            m += _binomial(rng, d.pixels - m, d.dark_rate, table)
    return lit


def _detect_counts(rng: np.random.Generator, photons: np.ndarray,
                   d: DetectorModel) -> np.ndarray:
    """Fired-pixel counts for a batch of frames under one detector."""
    return _fire(rng, _detected(rng, photons, d), d)


def _dark(rng: np.random.Generator, d: DetectorModel, size: int,
          table: _Inversion | None) -> np.ndarray:
    """Dark-fired pixels of ``size`` frames without photons, read from
    ``table`` = ``_table(d.dark_rate, (d.pixels, d.pixels))``."""
    return _binomial(rng, np.broadcast_to(d.pixels, size), d.dark_rate, table)


def _dark_tallies(rng: np.random.Generator, cfg: SimConfig) -> Histogram2D:
    d_s, d_i = cfg.detector_s, cfg.detector_i
    table_s, table_i = (_table(d.dark_rate, (d.pixels, d.pixels)) for d in (d_s, d_i))
    dark_s = np.empty(cfg.frames, dtype=_int_type(d_s.pixels))
    for m in _split(dark_s):
        m[...] = _dark(rng, d_s, m.size, table_s)
    # every signal-arm draw comes first; the idler arm's are drawn block by
    # block as the tally reaches them
    return _tally(((m, _dark(rng, d_i, m.size, table_i)) for m in _split(dark_s)),
                  cfg.frames)


def sample_frame(cfg: SimConfig, rng: np.random.Generator) -> tuple[int, int]:
    """Draw one (m_s, m_i) photocount pair, advancing the supplied generator."""
    m_s, m_i = _sample_batch(cfg, rng, 1)
    return int(m_s[0]), int(m_i[0])


def _sample_batch(cfg: SimConfig, rng: np.random.Generator,
                  size: int) -> tuple[np.ndarray, np.ndarray]:
    """Fired-pixel counts per frame on each arm, in stream order: the
    components, the signal arm, the idler arm."""
    n_s, n_i = _photon_counts(rng, cfg.params, size)
    m_s = _detect_counts(rng, n_s, cfg.detector_s)
    del n_s  # each arm's photon counts are dropped once it is detected
    return m_s, _detect_counts(rng, n_i, cfg.detector_i)


def _tally(blocks, frames: int) -> Histogram2D:
    """Histogram of the (m_s, m_i) count pairs of ``blocks``, one block at a
    time: rows 0 to the largest m_s, columns 0 to the largest m_i.  Each
    block's pairs are added into the table in place, so the table is the one
    allocation of its size; where it cannot be allocated, ``DomainError``
    names its shape."""
    counts = np.zeros((0, 0), dtype=np.int64)
    for m_s, m_i in blocks:
        shape = (max(counts.shape[0], int(m_s.max()) + 1),
                 max(counts.shape[1], int(m_i.max()) + 1))
        if shape != counts.shape:
            try:
                grown = np.zeros(shape, dtype=np.int64)
            except MemoryError:
                raise DomainError(f"simulate_histogram: a {shape[0]} x {shape[1]} table of "
                                  f"photocount pairs does not fit in memory") from None
            grown[:counts.shape[0], :counts.shape[1]] = counts
            counts = grown
        cell = m_s.astype(np.intp)
        cell *= shape[1]
        cell += m_i
        np.add.at(counts.reshape(-1), cell, 1)
    return Histogram2D(counts, float(frames))


def simulate_histogram(cfg: SimConfig) -> tuple[Histogram2D, Histogram2D]:
    """Simulate a full run; returns (signal-idler histogram, dark histogram).

    The dark histogram records the same number of frames with no incident
    photons (dark events only) on both arms.  Identical seeds give
    bit-identical histograms.
    """
    rng = np.random.default_rng(cfg.seed)
    m_s, m_i = _sample_batch(cfg, rng, cfg.frames)
    return _tally(zip(_split(m_s), _split(m_i)), cfg.frames), _dark_tallies(rng, cfg)
