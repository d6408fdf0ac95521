"""Domain types shared across the package.

All types are immutable after construction and validate their invariants in
``__post_init__``, so an instance that exists is valid and no consumer checks
again (a ``Histogram2D``'s counts sum to a positive total, say).  The module
performs no physics; it only defines the records the other modules exchange.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "TwinBeamParams",
    "DetectorModel",
    "Histogram2D",
    "PhotocountMoments",
    "DetectedIntensityMoments",
    "FieldMoments",
    "JointDistribution",
    "QdiiGrid",
    "validate",
]

_HIST_TOTAL_RTOL = 1e-9
_JOINT_NEG_TOL = 1e-12
_JOINT_MASS_TOL = 1e-6


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValidationError(f"{name}: non-finite value {v!r}")


def _is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_axis(name: str, ax: np.ndarray) -> None:
    """An intensity axis of a QDII grid: a 1-D float array of at least two
    finite points, starting at or above 0 and strictly increasing; a finite
    last point then leaves every point finite, so one pass checks it."""
    _require(ax.ndim == 1 and ax.size >= 2 and 0.0 <= ax[0] and math.isfinite(ax[-1])
             and (ax[1:] > ax[:-1]).all(),
             f"{name} must be a 1-D axis of at least two finite points, "
             "the first >= 0, each above the one before")


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only float array with ``a``'s values: ``a`` itself when it is
    already a read-only float array that owns its memory (no view can write
    to it), otherwise a copy."""
    if not (isinstance(a, np.ndarray) and a.dtype == float
            and not a.flags.writeable and a.flags.owndata):
        a = np.array(a, dtype=float, copy=True)
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TwinBeamParams:
    """Six-parameter paired + noise decomposition of a twin beam.

    ``m_pairs`` paired modes with ``b_pairs`` photon pairs per mode carry the
    correlated part; each arm additionally holds an independent multi-thermal
    noise field (``m_noise_a`` modes, ``b_noise_a`` photons per mode).  Mode
    counts are real-valued; a zero mode count means the component is absent.
    """

    m_pairs: float
    b_pairs: float
    m_noise_s: float
    b_noise_s: float
    m_noise_i: float
    b_noise_i: float

    def __post_init__(self):
        vals = (self.m_pairs, self.b_pairs, self.m_noise_s, self.b_noise_s,
                self.m_noise_i, self.b_noise_i)
        _finite("TwinBeamParams", *vals)
        _require(all(v >= 0 for v in vals), "TwinBeamParams: all fields must be >= 0")
        _require(not (self.b_pairs > 0 and self.m_pairs == 0),
                 "TwinBeamParams: m_pairs must be > 0 when b_pairs > 0")

    @property
    def mean_pairs(self) -> float:
        return self.m_pairs * self.b_pairs

    @property
    def mean_noise_s(self) -> float:
        return self.m_noise_s * self.b_noise_s

    @property
    def mean_noise_i(self) -> float:
        return self.m_noise_i * self.b_noise_i


@dataclass(frozen=True)
class DetectorModel:
    """Binary-pixel detector: ``pixels`` pixels, per-photon detection
    probability ``efficiency``, per-pixel dark-fire probability ``dark_rate``.

    ``efficiency`` lives in the open interval (0, 1), the range the moment
    inversion accepts (``moments._check_efficiencies``).
    """

    efficiency: float
    pixels: int
    dark_rate: float = 0.0

    def __post_init__(self):
        _require(0.0 < self.efficiency < 1.0,
                 f"DetectorModel: efficiency must lie in (0, 1), got {self.efficiency}")
        _require(_is_integer(self.pixels) and self.pixels >= 1,
                 f"DetectorModel: pixels must be an integer >= 1, got {self.pixels!r}")
        _require(0.0 <= self.dark_rate < 1.0,
                 f"DetectorModel: dark_rate must lie in [0, 1), got {self.dark_rate}")


@dataclass(frozen=True)
class Histogram2D:
    """Joint photocount tally ``counts[m_s, m_i]`` over ``total_frames`` frames.

    Cells are reals so that raw frame tallies and normalized histograms share
    the type; a normalized histogram has ``total_frames == 1``.
    """

    counts: np.ndarray
    total_frames: float

    def __post_init__(self):
        object.__setattr__(self, "counts", _readonly(self.counts))
        _require(self.counts.ndim == 2, "Histogram2D: counts must be a 2D table")
        _require(np.all(np.isfinite(self.counts)), "Histogram2D: non-finite cell")
        _require(np.all(self.counts >= 0), "Histogram2D: negative cell")
        _finite("Histogram2D", self.total_frames)
        _require(self.total_frames > 0, "Histogram2D: total_frames must be > 0")
        total = float(self.counts.sum())
        _require(total > 0, "Histogram2D: the counts sum to 0")
        tol = _HIST_TOTAL_RTOL * max(1.0, self.total_frames)
        _require(abs(total - self.total_frames) <= tol,
                 f"Histogram2D: counts sum {total} != total_frames {self.total_frames}")

    def normalized(self) -> "Histogram2D":
        """Return the frequency histogram (cells sum to 1)."""
        return Histogram2D(self.counts / self.total_frames, 1.0)

    @property
    def is_normalized(self) -> bool:
        return abs(self.total_frames - 1.0) <= _HIST_TOTAL_RTOL


@dataclass(frozen=True)
class PhotocountMoments:
    """First and second moments of a joint count distribution.

    Used both for signal-idler photocounts and for dark counts.
    """

    mean_s: float
    mean_i: float
    mean_sq_s: float
    mean_sq_i: float
    cross: float

    def __post_init__(self):
        _finite("PhotocountMoments", self.mean_s, self.mean_i,
                self.mean_sq_s, self.mean_sq_i, self.cross)
        _require(self.mean_s >= 0 and self.mean_i >= 0,
                 "PhotocountMoments: means must be >= 0")
        _require(self.cross >= 0, "PhotocountMoments: cross moment of counts must be >= 0")
        # allow a little slack for round-off in <m^2> >= <m>^2
        slack = 1e-12 * max(1.0, self.mean_sq_s, self.mean_sq_i)
        _require(self.mean_sq_s >= self.mean_s**2 - slack,
                 "PhotocountMoments: mean_sq_s < mean_s^2 (negative variance)")
        _require(self.mean_sq_i >= self.mean_i**2 - slack,
                 "PhotocountMoments: mean_sq_i < mean_i^2 (negative variance)")


@dataclass(frozen=True)
class DetectedIntensityMoments:
    """Dark-corrected intensity moments at the detected (photoelectron) level.

    Variances may legitimately sit below the shot-noise level, so they are
    unconstrained in sign.  Negative means can only arise from an
    overcorrected dark subtraction; they are kept (not clamped) and exposed
    through :attr:`has_negative_mean` so callers can flag them.
    """

    mean_s: float
    mean_i: float
    var_s: float
    var_i: float
    cov: float

    def __post_init__(self):
        _finite("DetectedIntensityMoments", self.mean_s, self.mean_i,
                self.var_s, self.var_i, self.cov)

    @property
    def has_negative_mean(self) -> bool:
        return self.mean_s < 0 or self.mean_i < 0


@dataclass(frozen=True)
class FieldMoments:
    """First and second intensity moments of the three pre-detection fields."""

    mean_p: float
    mean_s: float
    mean_i: float
    var_p: float
    var_s: float
    var_i: float

    def __post_init__(self):
        vals = (self.mean_p, self.mean_s, self.mean_i,
                self.var_p, self.var_s, self.var_i)
        _finite("FieldMoments", *vals)
        _require(all(v >= 0 for v in vals),
                 f"FieldMoments: all six moments must be >= 0, got {vals}")


@dataclass(frozen=True)
class JointDistribution:
    """Truncated joint probability table over photon or photocount numbers.

    ``probs[n_s, n_i]`` covers ``[0, n_s_max] x [0, n_i_max]``;
    ``truncation_mass`` is the probability lying outside the table, by
    default ``1 - total``, summed once with the checks.
    """

    probs: np.ndarray
    truncation_mass: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "probs", _readonly(self.probs))
        _require(self.probs.ndim == 2, "JointDistribution: probs must be a 2D table")
        _require(np.all(np.isfinite(self.probs)), "JointDistribution: non-finite entry")
        _require(float(self.probs.min(initial=0.0)) >= -_JOINT_NEG_TOL,
                 "JointDistribution: entry below round-off tolerance")
        total = float(self.probs.sum())
        if self.truncation_mass is None:
            object.__setattr__(self, "truncation_mass", 1.0 - total)
        _require(abs(total + self.truncation_mass - 1.0) <= _JOINT_MASS_TOL,
                 f"JointDistribution: total {total} + truncation {self.truncation_mass} != 1")

    @property
    def total(self) -> float:
        return float(self.probs.sum())


@dataclass(frozen=True)
class QdiiGrid:
    """Sampled quasi-distribution of integrated intensities on a 2D grid.

    ``values[j, k]`` approximates the density at ``(w_s_axis[j], w_i_axis[k])``
    and may be negative for orderings above the threshold value.
    """

    w_s_axis: np.ndarray
    w_i_axis: np.ndarray
    values: np.ndarray
    ordering: float

    def __post_init__(self):
        object.__setattr__(self, "w_s_axis", _readonly(self.w_s_axis))
        object.__setattr__(self, "w_i_axis", _readonly(self.w_i_axis))
        object.__setattr__(self, "values", _readonly(self.values))
        _check_axis("QdiiGrid: w_s_axis", self.w_s_axis)
        _check_axis("QdiiGrid: w_i_axis", self.w_i_axis)
        _require(self.values.shape == (self.w_s_axis.size, self.w_i_axis.size),
                 "QdiiGrid: values shape does not match axes")
        _require(np.all(np.isfinite(self.values)), "QdiiGrid: non-finite value")
        _require(-1.0 < self.ordering <= 1.0,
                 f"QdiiGrid: ordering must lie in (-1, 1], got {self.ordering}")

    @property
    def normalization(self) -> float:
        """Trapezoidal integral of ``values`` over the grid, ``w_s @ values @
        w_i`` with the trapezoid weight vectors of the two axes: half the
        widths of the two cells beside each point."""
        w_s, w_i = (np.convolve(np.diff(ax), [0.5, 0.5]) for ax in (self.w_s_axis, self.w_i_axis))
        return float(w_s @ (self.values @ w_i))


_VALIDATABLE = (TwinBeamParams, DetectorModel, Histogram2D, PhotocountMoments,
                DetectedIntensityMoments, FieldMoments, JointDistribution, QdiiGrid)


def validate(value):
    """Re-run the invariant checks of a domain value and return it.

    Construction already validates, so this is mainly useful at external
    input boundaries and as an idempotence guarantee.
    """
    if not isinstance(value, _VALIDATABLE):
        raise ValidationError(f"validate: unsupported type {type(value).__name__}")
    value.__post_init__()
    return value
