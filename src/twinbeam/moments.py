"""Moment pipeline: photocount moments -> dark-corrected detected intensity
moments -> feasibility -> one-parameter family of pre-detection field moments
-> mode parameters.

The inversion is exactly determined only up to the paired-field variance
``var_p``; every other moment follows linearly from it.  The family is
parametrized by ``var_p`` and its valid members, those whose six moments are
all positive, fill the open interval ``MomentInversionFamily.var_p_range``,
known in closed form; the inversion has a solution exactly when it is not
empty.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleMomentsError
from .model import (
    DetectedIntensityMoments,
    FieldMoments,
    Histogram2D,
    PhotocountMoments,
    TwinBeamParams,
)

__all__ = [
    "MomentInversionFamily",
    "photocount_moments",
    "dark_corrected_moments",
    "feasibility",
    "inversion_family",
    "invert_at",
    "component_mode_params",
    "mode_parameters",
    "field_moments_from_params",
    "detected_from_field",
]


def photocount_moments(h: Histogram2D) -> PhotocountMoments:
    """Exact first and second moments of the normalized histogram."""
    w = h.counts / float(h.counts.sum())
    ms = np.arange(h.counts.shape[0], dtype=float)
    mi = np.arange(h.counts.shape[1], dtype=float)
    ws = w.sum(axis=1)
    wi = w.sum(axis=0)
    return PhotocountMoments(
        mean_s=float(ms @ ws),
        mean_i=float(mi @ wi),
        mean_sq_s=float((ms * ms) @ ws),
        mean_sq_i=float((mi * mi) @ wi),
        cross=float(ms @ w @ mi),
    )


def dark_corrected_moments(signal_idler: PhotocountMoments,
                           dark: PhotocountMoments) -> DetectedIntensityMoments:
    """Remove dark-count contributions from the photocount moments.

    Mean: subtract the dark mean.  Variance: subtract the shot-noise term and
    the dark excess variance.  Covariance: subtract the dark covariance.
    A negative corrected mean is kept as-is but triggers a warning.
    """
    m, d = signal_idler, dark
    mean_s = m.mean_s - d.mean_s
    mean_i = m.mean_i - d.mean_i
    var_s = m.mean_sq_s - m.mean_s**2 - m.mean_s - d.mean_sq_s + d.mean_s**2 + d.mean_s
    var_i = m.mean_sq_i - m.mean_i**2 - m.mean_i - d.mean_sq_i + d.mean_i**2 + d.mean_i
    cov = m.cross - m.mean_s * m.mean_i - d.cross + d.mean_s * d.mean_i
    out = DetectedIntensityMoments(mean_s, mean_i, var_s, var_i, cov)
    if out.has_negative_mean:
        warnings.warn(
            "dark correction produced a negative mean intensity "
            f"(mean_s={mean_s:.3g}, mean_i={mean_i:.3g})",
            stacklevel=2,
        )
    return out


def _check_efficiencies(eta_s: float, eta_i: float) -> None:
    for name, eta in (("eta_s", eta_s), ("eta_i", eta_i)):
        if not (0.0 < eta < 1.0):
            raise DomainError(f"{name} must lie in (0, 1), got {eta}")


def feasibility(detected: DetectedIntensityMoments, eta_s: float, eta_i: float) -> float:
    """Margin of the efficiency inequality: ``eta_s`` minus the smallest
    signal efficiency compatible with the detected moments at the given
    efficiency ratio.  A margin >= 0 is necessary for a solution, not
    sufficient (a covariance <= 0 passes it); :func:`inversion_family` decides.
    """
    _check_efficiencies(eta_s, eta_i)
    alpha = eta_i / eta_s
    denom = min(detected.mean_s, detected.mean_i / alpha)
    if denom <= 0:
        raise InfeasibleMomentsError(
            "feasibility: corrected mean intensities must be positive")
    rhs = (detected.cov / alpha - min(detected.var_s, detected.var_i / alpha**2)) / denom
    return eta_s - rhs


@dataclass(frozen=True)
class MomentInversionFamily:
    """One-parameter family of field-moment solutions.

    ``var_p_max`` is fixed by the requirement that both noise variances stay
    non-negative; :func:`invert_at` accepts any ``var_p`` in
    ``(0, var_p_max]``.  Every moment is linear in ``var_p``, so the members
    with all six moments positive, the ones that decompose into mode
    parameters, are exactly the open interval ``var_p_range``.
    """

    detected: DetectedIntensityMoments
    efficiencies: tuple[float, float]
    var_p_max: float

    @property
    def var_p_range(self) -> tuple[float, float]:
        """Open interval ``(lo, hi)`` of the members with positive moments.

        ``lo`` keeps both noise means and ``var_p`` positive, ``hi`` the
        pair mean and both noise variances.  The bounds are computed as
        :func:`invert_at` computes the moments, so every ``var_p`` strictly
        inside gives six positive moments in floating point too.
        """
        eta_s, eta_i = self.efficiencies
        c = self.cov_scaled
        lo = max(c - self.detected.mean_s / eta_s, c - self.detected.mean_i / eta_i, 0.0)
        return (lo, min(self.var_p_max, c))

    @property
    def cov_scaled(self) -> float:
        """cov / (eta_s * eta_i) = mean_p + var_p for every family member."""
        return self.detected.cov / (self.efficiencies[0] * self.efficiencies[1])


def inversion_family(detected: DetectedIntensityMoments,
                     eta_s: float, eta_i: float) -> MomentInversionFamily:
    """The family of the moment inversion; :class:`InfeasibleMomentsError`
    exactly when its interval ``var_p_range`` of valid members is empty."""
    _check_efficiencies(eta_s, eta_i)
    var_p_max = min(detected.var_s / eta_s**2, detected.var_i / eta_i**2)
    family = MomentInversionFamily(detected, (eta_s, eta_i), var_p_max)
    lo, hi = family.var_p_range
    if not lo < hi:
        raise InfeasibleMomentsError(
            f"moment inversion infeasible: valid var_p interval ({lo:.4g}, {hi:.4g}) is empty")
    return family


def invert_at(family: MomentInversionFamily, var_p: float, *,
              atol: float = 0.0) -> FieldMoments:
    """Field moments of the family member with paired variance ``var_p``.

    Each output moment must come out non-negative; a value in ``[-atol, 0)``
    is snapped to zero (``atol > 0`` is meant for inputs whose published
    precision cannot resolve the boundary), anything lower raises.
    """
    if not (0.0 < var_p <= family.var_p_max):
        raise DomainError(
            f"var_p={var_p} outside the allowed interval (0, {family.var_p_max:.6g}]")
    eta_s, eta_i = family.efficiencies
    det = family.detected
    c = family.cov_scaled
    raw = {
        "mean_p": c - var_p,
        "mean_s": det.mean_s / eta_s - c + var_p,
        "mean_i": det.mean_i / eta_i - c + var_p,
        "var_p": var_p,
        "var_s": det.var_s / eta_s**2 - var_p,
        "var_i": det.var_i / eta_i**2 - var_p,
    }
    clipped = {}
    for name, value in raw.items():
        if value < -atol:
            raise InfeasibleMomentsError(
                f"invert_at: {name} = {value:.6g} < 0 at var_p = {var_p:.6g} "
                "(inconsistent efficiencies or var_p)")
        clipped[name] = max(value, 0.0)
    return FieldMoments(**clipped)


def component_mode_params(mean: float, var: float) -> tuple[float, float]:
    """Mode count and mean photon number per mode of one field component.

    Returns ``(modes, per_mode_mean) = (mean^2/var, var/mean)``.  A component
    with ``mean == var == 0`` is absent and maps to ``(0, 0)``.
    """
    if mean < 0 or var < 0:
        raise DomainError(f"component_mode_params: negative moment ({mean}, {var})")
    if mean == 0:
        if var == 0:
            return (0.0, 0.0)
        raise DomainError(
            f"component_mode_params: zero mean with positive variance {var} "
            "has no finite mode decomposition")
    if var == 0:
        raise DomainError(
            f"component_mode_params: zero variance with positive mean {mean} "
            "is the Poissonian limit (modes -> infinity); not a family member")
    return (mean * mean / var, var / mean)


def mode_parameters(fm: FieldMoments) -> TwinBeamParams:
    """Convert the six field moments into the six state parameters."""
    m_p, b_p = component_mode_params(fm.mean_p, fm.var_p)
    m_s, b_s = component_mode_params(fm.mean_s, fm.var_s)
    m_i, b_i = component_mode_params(fm.mean_i, fm.var_i)
    return TwinBeamParams(m_p, b_p, m_s, b_s, m_i, b_i)


def field_moments_from_params(params: TwinBeamParams) -> FieldMoments:
    """Inverse of :func:`mode_parameters`: mean = M*B, var = M*B^2."""
    return FieldMoments(
        mean_p=params.m_pairs * params.b_pairs,
        mean_s=params.m_noise_s * params.b_noise_s,
        mean_i=params.m_noise_i * params.b_noise_i,
        var_p=params.m_pairs * params.b_pairs**2,
        var_s=params.m_noise_s * params.b_noise_s**2,
        var_i=params.m_noise_i * params.b_noise_i**2,
    )


def detected_from_field(fm: FieldMoments, eta_s: float, eta_i: float) -> DetectedIntensityMoments:
    """Forward map from pre-detection field moments to detected moments."""
    _check_efficiencies(eta_s, eta_i)
    return DetectedIntensityMoments(
        mean_s=eta_s * (fm.mean_p + fm.mean_s),
        mean_i=eta_i * (fm.mean_p + fm.mean_i),
        var_s=eta_s**2 * (fm.var_p + fm.var_s),
        var_i=eta_i**2 * (fm.var_p + fm.var_i),
        cov=eta_s * eta_i * (fm.mean_p + fm.var_p),
    )
