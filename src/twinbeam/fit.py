"""Least-square declination between model and measured photocount tables and
the one-dimensional search over the paired variance that selects the
reconstructed state.

The moments fix every parameter but ``var_p``, and the members of the
inversion family that are valid states fill a closed-form open interval
(``MomentInversionFamily.var_p_range``).  The declination is scanned on an
even lattice of at least one point strictly inside it, and the best bracket
is refined by golden-section search, so every evaluation is a valid state.
A minimum within one lattice step of an interval endpoint is flagged
``at_boundary``; the experimental optimum of this kind of data lives there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError
from .model import (
    DetectorModel,
    FieldMoments,
    Histogram2D,
    JointDistribution,
    TwinBeamParams,
)
from .moments import (
    dark_corrected_moments,
    inversion_family,
    invert_at,
    mode_parameters,
    photocount_moments,
)
from .photostat import (
    default_cutoffs,
    joint_photon_distribution,
    photocount_distribution,
    response_table,
)

__all__ = ["ForwardModel", "ReconstructionResult", "declination", "reconstruct"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0

TABLE_MARGIN = 16  # extra photocount rows beyond the histogram support
REFINE_REL_WIDTH = 1e-4  # golden-section stopping width, relative to var_p_max
DARK_ALPHA = 1e-9  # largest tail probability at which a dark record rejects its rate
# most scan points, 2^59 - 1 on a 64-bit build: half numpy's longest float64
# array (see reconstruct)
_MAX_SCAN_POINTS = np.iinfo(np.intp).max // 16


def declination(p_c: JointDistribution, f: Histogram2D) -> float:
    """Euclidean distance between a model count table and a normalized
    histogram, over the union of their supports."""
    if not f.is_normalized:
        raise ValidationError("declination: histogram must be normalized to total 1")
    rows = max(p_c.probs.shape[0], f.counts.shape[0])
    cols = max(p_c.probs.shape[1], f.counts.shape[1])
    diff = np.zeros((rows, cols))
    diff[:p_c.probs.shape[0], :p_c.probs.shape[1]] = p_c.probs
    diff[:f.counts.shape[0], :f.counts.shape[1]] -= f.counts
    return float(math.sqrt(float((diff * diff).sum())))


@dataclass(frozen=True)
class ForwardModel:
    """Count table of a state: the joint photon table on ``[0, cutoffs]``
    through each arm's pixel response, whose rows reach the counts
    ``extents``.  Both response tables are built once, here.

    Cutoff rule: ``reconstruct`` takes ``default_cutoffs`` once per fit, at
    the midpoint of ``var_p_range`` (each endpoint zeroes a moment).  Most
    optima sit near its lower end, where the photon mass left outside the
    table reaches 1.04e-4 over the 120 fits of the benchmark's seed pool and
    4.8e-5 at the README's seed 1.
    """

    d_s: DetectorModel
    d_i: DetectorModel
    extents: tuple[int, int]
    cutoffs: tuple[int, int]
    tables: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(map(
            response_table, (self.d_s, self.d_i), self.extents, self.cutoffs)))

    def __call__(self, params: TwinBeamParams) -> JointDistribution:
        return photocount_distribution(joint_photon_distribution(params, self.cutoffs),
                                       *self.tables)


@dataclass(frozen=True)
class ReconstructionResult:
    """Output of the declination minimization; ``var_p_opt`` and ``params``
    are derived from the optimum's ``field_moments``."""

    field_moments: FieldMoments
    declination: float
    scan: tuple[tuple[float, float], ...]
    at_boundary: bool
    var_p_opt: float = field(init=False)
    params: TwinBeamParams = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "var_p_opt", self.field_moments.var_p)
        object.__setattr__(self, "params", mode_parameters(self.field_moments))
        if self.declination < 0:
            raise ValidationError("ReconstructionResult: declination must be >= 0")
        vps = [v for v, _ in self.scan]
        if any(b < a for a, b in zip(vps, vps[1:])):
            raise ValidationError("ReconstructionResult: scan must be sorted by var_p")


def _golden_section(obj, lo: float, hi: float, tol: float) -> float:
    """Golden-section minimization over the bracket ``(lo, hi)``.

    Only interior points are evaluated; the better of the two final probes
    is returned.
    """
    a = lo
    h = hi - lo
    steps = max(1, int(math.ceil(math.log(tol / h) / math.log(_INV_PHI))))
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    yc, yd = obj(c), obj(d)
    for _ in range(steps):
        h *= _INV_PHI
        if yc < yd:
            d, yd = c, yc
            c = a + _INV_PHI_SQ * h
            yc = obj(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * h
            yd = obj(d)
    return c if yc < yd else d


_ARMS = ("signal", "idler")


def _checked_extents(f: Histogram2D, dark: Histogram2D, dark_means: tuple[float, float],
                     detectors: tuple[DetectorModel, DetectorModel]) -> tuple[int, int]:
    """Last count row of each arm's response table: the histogram's extent
    plus ``TABLE_MARGIN``, capped at the arm's pixel count.  Arm by arm,
    raises :class:`ValidationError` for a nonzero cell above the pixel
    count, in the histogram or in the dark record (a count the detector
    cannot make), then for a dark rate that the dark record contradicts.

    Each pixel of an arm fires dark with probability p in each of the
    record's F frames, independently, so the arm's dark total T, its entry
    of ``dark_means`` times F, is exactly Binomial(N, p) with N = pixels F.
    At p = 0 any count contradicts the rate.  Otherwise Bernstein's
    inequality bounds the two-sided tail,
    ``P(|T - Np| >= t) <= 2 exp(-t^2 / (2 (Np(1 - p) + t/3)))``, and the
    rate is rejected when that bound at the observed ``t`` is below
    ``DARK_ALPHA``: a true rate is rejected with probability below it.
    """
    for axis, (arm, d, dark_mean) in enumerate(zip(_ARMS, detectors, dark_means)):
        for name, h in (("histogram", f), ("dark record", dark)):
            top = int(np.flatnonzero(h.counts.any(axis=1 - axis))[-1])
            if top > d.pixels:
                raise ValidationError(
                    f"reconstruct: the {name} has a frame with {top} {arm} "
                    f"counts, above the arm's {d.pixels} pixels")
        total = dark_mean * dark.total_frames
        mean = d.pixels * dark.total_frames * d.dark_rate
        t = abs(total - mean)
        if (total > 0.0 if d.dark_rate == 0.0 else
                t * t > 2.0 * (mean * (1.0 - d.dark_rate) + t / 3.0)
                * math.log(2.0 / DARK_ALPHA)):
            raise ValidationError(
                f"reconstruct: the {arm} arm's dark record holds {total:.6g} counts "
                f"over {dark.total_frames:.6g} frames of {d.pixels} pixels, where "
                f"its dark rate {d.dark_rate:g} expects {mean:.6g}")
    return tuple(min(d.pixels, f.counts.shape[axis] - 1 + TABLE_MARGIN)
                 for axis, d in enumerate(detectors))


def _scan_lattice(lo: float, hi: float, step: float) -> np.ndarray:
    """``n + 2`` evenly spaced knots from ``lo`` to ``hi``, with
    ``n = max(1, ceil((hi - lo)/step) - 1)``: the ``n`` scan points between
    the ends are at most ``step`` apart, and each lies strictly inside.  A
    lone one is the midpoint, exact but for one rounding when ``lo >= hi/2``
    (Sterbenz), so neither end if a double lies between them, and ``hi/4``
    or more from either end otherwise.  More are over ``2 step/3`` apart, far
    beyond the few ulps of ``hi`` that rounding moves them.
    """
    return np.linspace(lo, hi, max(1, math.ceil((hi - lo) / step) - 1) + 2)


def reconstruct(f: Histogram2D, dark: Histogram2D,
                d_s: DetectorModel, d_i: DetectorModel,
                scan_points: int = 200) -> ReconstructionResult:
    """Reconstruct the twin-beam state from a histogram and its dark record.

    Pipeline: photocount moments -> dark correction -> feasibility -> the
    open ``var_p`` interval of valid states -> declination scan ->
    golden-section refinement.

    ``scan_points`` sets the step ``var_p_max / scan_points`` of the scan
    lattice (``_scan_lattice``), and the best scan point is refined between
    its neighbouring knots to ``REFINE_REL_WIDTH * var_p_max``.
    ``at_boundary`` is set when the optimum lies within one lattice step (or
    that width, if larger) of an endpoint.  One :class:`ForwardModel` serves
    every evaluation; its response tables reach ``TABLE_MARGIN`` counts
    beyond the histogram's extent.  Every ``var_p`` is evaluated once; the
    optimum is one of the evaluated points.  Raises :class:`ValidationError`
    for a count above an arm's pixel count or a dark rate that the dark
    record contradicts, both checked per arm by ``_checked_extents``.

    ``scan_points`` must lie in ``[2, _MAX_SCAN_POINTS]``, else
    :class:`DomainError`.  The upper bound is half the length of numpy's
    longest float64 array: the interval lies in ``[0, var_p_max]``, so the
    lattice has at most ``scan_points + 1`` knots in exact arithmetic, and
    the two rounded divisions that size it add at most 3 units of roundoff
    of that, so the lattice stays far below the length at which numpy
    refuses it outright, which a larger ``scan_points`` can pass.  A lattice
    that numpy sizes but the memory cannot hold raises :class:`DomainError`
    as well.
    """
    if not 2 <= scan_points <= _MAX_SCAN_POINTS:
        raise DomainError(f"reconstruct: scan_points must lie in [2, {_MAX_SCAN_POINTS}], "
                          f"got {scan_points}")
    mom, dark_mom = photocount_moments(f), photocount_moments(dark)
    extents = _checked_extents(f, dark, (dark_mom.mean_s, dark_mom.mean_i), (d_s, d_i))
    detected = dark_corrected_moments(mom, dark_mom)
    family = inversion_family(detected, d_s.efficiency, d_i.efficiency)
    lo, hi = family.var_p_range
    step = family.var_p_max / scan_points
    try:
        knots = _scan_lattice(lo, hi, step)
    except MemoryError:
        raise DomainError(f"reconstruct: a scan of {scan_points} points does not fit "
                          "in memory") from None

    f_norm = f.normalized()
    forward = ForwardModel(d_s, d_i, extents, default_cutoffs(
        mode_parameters(invert_at(family, (lo + hi) / 2.0))))

    # var_p -> (declination, field moments)
    evaluations: dict[float, tuple[float, FieldMoments]] = {}

    def objective(var_p: float) -> float:
        if var_p not in evaluations:
            fm = invert_at(family, var_p)
            evaluations[var_p] = (declination(forward(mode_parameters(fm)), f_norm), fm)
        return evaluations[var_p][0]

    best = int(np.argmin([objective(v) for v in knots[1:-1]]))
    width = REFINE_REL_WIDTH * family.var_p_max
    var_p_opt = _golden_section(objective, knots[best], knots[best + 2], width)
    decl_opt, fm_opt = evaluations[var_p_opt]
    at_boundary = bool(min(var_p_opt - lo, hi - var_p_opt) <= max(width, step))

    scan = tuple(sorted((v, e[0]) for v, e in evaluations.items()))
    return ReconstructionResult(fm_opt, decl_opt, scan, at_boundary)
