"""Least-square declination between model and measured photocount tables and
the one-dimensional search over the paired variance that selects the
reconstructed state.

The moments fix every parameter but ``var_p``, and the members of the
inversion family that are valid states fill a closed-form open interval
(``MomentInversionFamily.var_p_range``).  The declination is scanned on the
lattice points that fall inside it and the best bracket is refined by
golden-section search, so every evaluation is a valid state.  A minimum
within one lattice step of an interval endpoint is flagged ``at_boundary``;
the experimental optimum of this kind of data typically lives there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ReconstructionError, ValidationError
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

__all__ = ["ReconstructionResult", "declination", "reconstruct"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0

TABLE_MARGIN = 16  # extra photocount rows beyond the histogram support
REFINE_REL_WIDTH = 1e-4  # golden-section stopping width, relative to var_p_max


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
class ReconstructionResult:
    """Output of the declination minimization."""

    var_p_opt: float
    params: TwinBeamParams
    field_moments: FieldMoments
    declination: float
    scan: tuple[tuple[float, float], ...]
    at_boundary: bool

    def __post_init__(self):
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


def reconstruct(f: Histogram2D, dark: Histogram2D,
                d_s: DetectorModel, d_i: DetectorModel,
                scan_points: int = 200) -> ReconstructionResult:
    """Reconstruct the twin-beam state from a histogram and its dark record.

    Pipeline: photocount moments -> dark correction -> feasibility -> the
    open ``var_p`` interval of valid states -> declination scan ->
    golden-section refinement.

    ``scan_points`` sets the lattice ``var_p_max * k / scan_points``,
    ``k = 1..scan_points - 1`` (never ``var_p_max`` itself); only the points
    strictly inside the interval are evaluated.  The best of them is refined
    between its neighbours (an interval endpoint where it has none) to
    ``REFINE_REL_WIDTH * var_p_max``.  ``at_boundary`` is set when the
    optimum lies within one lattice step (or that width, if larger) of an
    endpoint.  The response tables reach ``TABLE_MARGIN`` counts beyond the
    histogram support.  Every ``var_p`` is evaluated once; the optimum is
    one of the evaluated points.  Raises :class:`ReconstructionError` when
    no lattice point falls inside the interval.
    """
    if scan_points < 2:
        raise DomainError("reconstruct: scan_points must be >= 2")
    detected = dark_corrected_moments(photocount_moments(f), photocount_moments(dark))
    family = inversion_family(detected, d_s.efficiency, d_i.efficiency)
    lo, hi = family.var_p_range
    grid = family.var_p_max * np.arange(1, scan_points) / scan_points
    grid = grid[(grid > lo) & (grid < hi)]
    if grid.size == 0:
        raise ReconstructionError(
            "reconstruct: no scan point falls inside the valid var_p interval "
            f"({lo:.6g}, {hi:.6g})")

    f_norm = f.normalized()
    # photon cutoffs are sized once, at the interval's midpoint: each endpoint
    # zeroes a moment and has no mode decomposition, and the cap keeps the
    # table bounded where a noise tail grows heavy
    cutoffs = default_cutoffs(mode_parameters(invert_at(family, (lo + hi) / 2.0)))
    table_s = response_table(d_s, min(d_s.pixels, f.counts.shape[0] - 1 + TABLE_MARGIN),
                             cutoffs[0])
    table_i = response_table(d_i, min(d_i.pixels, f.counts.shape[1] - 1 + TABLE_MARGIN),
                             cutoffs[1])

    # var_p -> (declination, params, field moments)
    evaluations: dict[float, tuple[float, TwinBeamParams, FieldMoments]] = {}

    def objective(var_p: float) -> float:
        if var_p not in evaluations:
            fm = invert_at(family, var_p)
            params = mode_parameters(fm)
            p_c = photocount_distribution(
                joint_photon_distribution(params, cutoffs), table_s, table_i)
            evaluations[var_p] = (declination(p_c, f_norm), params, fm)
        return evaluations[var_p][0]

    best = int(np.argmin([objective(v) for v in grid]))
    width = REFINE_REL_WIDTH * family.var_p_max
    var_p_opt = _golden_section(
        objective,
        grid[best - 1] if best > 0 else lo,
        grid[best + 1] if best + 1 < grid.size else hi,
        width)
    decl_opt, params_opt, fm_opt = evaluations[var_p_opt]
    step = family.var_p_max / scan_points
    at_boundary = bool(min(var_p_opt - lo, hi - var_p_opt) <= max(width, step))

    scan = tuple(sorted((v, e[0]) for v, e in evaluations.items()))
    return ReconstructionResult(var_p_opt, params_opt, fm_opt, decl_opt,
                                scan, at_boundary)
