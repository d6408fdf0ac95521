"""Photon-number and photocount statistics of the three-component model.

The joint photon-number distribution is the two-fold convolution of three
Mandel-Rice (negative-binomial with real shape) components: one shared pair
count feeding both arms plus an independent noise count per arm.  It is
computed as one matrix product ``(T_s diag(pair)) T_i^T``, where ``T_s`` and
``T_i`` are the lower-triangular Toeplitz matrices of the two noise pmfs.
Detection is a binary-pixel response applied independently per arm.

Both counting laws (Mandel-Rice, binomial dark counts) are cumulative sums
of logs of positive ratios: no term cancels and no special function is used.

The closed-form pixel response is an alternating sum that cancels
catastrophically for more than a few counts.  Every response value is
instead computed from an all-positive occupancy recurrence over photons
that starts from the binomial law of dark-fired pixels, which is the same
response without cancellation; the tests check it against the closed form
in extended precision.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, GridResolutionError, ValidationError
from .model import DetectorModel, FieldMoments, JointDistribution, TwinBeamParams

__all__ = [
    "mandel_rice",
    "mandel_rice_pmf",
    "default_cutoffs",
    "joint_photon_distribution",
    "detector_response",
    "response_table",
    "photocount_distribution",
    "sum_distribution",
    "noise_reduction_factor",
]

CUTOFF_CAP = 512
CUTOFF_TAIL_MASS = 1e-10


def _log_mandel_rice(n_max: int, m_modes: float, b_mean: float) -> np.ndarray:
    """Log Mandel-Rice probabilities for n = 0..n_max (m_modes, b_mean > 0).

    A cumulative sum of log ratios: ``-M log1p(B)`` at n = 0, then
    ``log((n - 1 + M)/n * B/(1 + B))`` per step.  Each ratio is positive and
    formed directly, so nothing cancels, also when M >> n: a variance that
    is a round-off residue gives M ~ 1e17 and B ~ 1e-16, a component that
    must stay the Poisson(M B) it is.
    """
    n = np.arange(1, n_max + 1, dtype=float)
    steps = np.log((n - 1.0 + m_modes) / n * (b_mean / (1.0 + b_mean)))
    return np.cumsum(np.concatenate(([-m_modes * math.log1p(b_mean)], steps)))


def mandel_rice(n: int, m_modes: float, b_mean: float) -> float:
    """Mandel-Rice probability of n photons in m_modes modes with b_mean
    photons per mode, evaluated in log space."""
    if n < 0 or int(n) != n:
        raise DomainError(f"mandel_rice: n must be a non-negative integer, got {n}")
    if m_modes <= 0 or b_mean <= 0:
        raise DomainError(
            "mandel_rice: requires m_modes > 0 and b_mean > 0; a vanishing "
            "component is a point mass handled by the caller")
    return float(np.exp(_log_mandel_rice(int(n), m_modes, b_mean)[-1]))


def mandel_rice_pmf(n_max: int, m_modes: float, b_mean: float) -> np.ndarray:
    """Vector of Mandel-Rice probabilities for n = 0..n_max.

    A component with ``m_modes == 0`` or ``b_mean == 0`` is a point mass at 0.
    """
    if n_max < 0:
        raise DomainError("mandel_rice_pmf: n_max must be >= 0")
    if m_modes == 0 or b_mean == 0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    return np.exp(_log_mandel_rice(n_max, m_modes, b_mean))


def _component_cutoff(m_modes: float, b_mean: float) -> int:
    """Smallest n with cumulative component mass >= 1 - CUTOFF_TAIL_MASS,
    capped at CUTOFF_CAP."""
    cdf = np.cumsum(mandel_rice_pmf(CUTOFF_CAP, m_modes, b_mean))
    return min(CUTOFF_CAP, int(np.searchsorted(cdf, 1.0 - CUTOFF_TAIL_MASS)))


def default_cutoffs(params: TwinBeamParams) -> tuple[int, int]:
    """Photon-number cutoffs covering each arm to a tail mass of
    ``CUTOFF_TAIL_MASS`` per component.

    Per-arm cutoff is the sum of the pair-component and noise-component
    cutoffs, capped at ``CUTOFF_CAP``.
    """
    c_pair = _component_cutoff(params.m_pairs, params.b_pairs)
    c_s = _component_cutoff(params.m_noise_s, params.b_noise_s)
    c_i = _component_cutoff(params.m_noise_i, params.b_noise_i)
    return (min(CUTOFF_CAP, c_pair + c_s), min(CUTOFF_CAP, c_pair + c_i))


def _toeplitz(pmf: np.ndarray, columns: int) -> np.ndarray:
    """Lower-triangular Toeplitz matrix ``T[n, k] = pmf[n - k]`` (0 for
    ``n < k``) with ``pmf.size`` rows and ``columns`` columns, as a read-only
    strided view of the zero-padded pmf."""
    padded = np.concatenate((np.zeros(columns - 1), pmf))
    return sliding_window_view(padded, columns)[:, ::-1]


def _chain_product(a: np.ndarray, m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``a @ m @ c`` in the order that needs fewer multiply-adds, left to
    right on a tie: ``p r (q + t)`` against ``q t (p + r)``, for ``a`` of
    shape (p, q), ``m`` of shape (q, r) and ``c`` of shape (r, t)."""
    p, (q, r), t = a.shape[0], m.shape, c.shape[1]
    return (a @ m) @ c if p * r * (q + t) <= q * t * (p + r) else a @ (m @ c)


def joint_photon_distribution(params: TwinBeamParams,
                              cutoffs: tuple[int, int]) -> JointDistribution:
    """Joint signal-idler photon-number table on [0, n_s_max] x [0, n_i_max].

    The shared pair count couples the arms; the noise components convolve in
    independently, so the table is one matrix product
    ``(T_s diag(pair)) T_i^T`` with ``T_a[n, k] = noise_a[n - k]`` the
    lower-triangular Toeplitz matrix of each arm's noise pmf.  The
    probability outside the table, ``1 - total``, is the table's own
    ``truncation_mass`` (never renormalized away).
    """
    n_s_max, n_i_max = int(cutoffs[0]), int(cutoffs[1])
    n_pair_max = min(n_s_max, n_i_max)
    pair = mandel_rice_pmf(n_pair_max, params.m_pairs, params.b_pairs)
    noise_s = mandel_rice_pmf(n_s_max, params.m_noise_s, params.b_noise_s)
    noise_i = mandel_rice_pmf(n_i_max, params.m_noise_i, params.b_noise_i)
    t_s = _toeplitz(noise_s, n_pair_max + 1)
    t_i = _toeplitz(noise_i, n_pair_max + 1)
    probs = (t_s * pair) @ t_i.T
    probs.setflags(write=False)  # handed over, not copied
    p = JointDistribution(probs)
    if p.truncation_mass > 0.5:
        raise GridResolutionError(
            f"joint_photon_distribution: cutoffs {cutoffs} leave "
            f"{p.truncation_mass:.3f} of the probability outside the table")
    return p


# ---------------------------------------------------------------------------
# detector response
# ---------------------------------------------------------------------------

def _log_dark_binomial(m_max: int, npix: int, dark: float) -> np.ndarray:
    """Log Binomial(npix, dark) probabilities for j = 0..m_max (0 < dark < 1).

    A cumulative sum of log ratios, as in ``_log_mandel_rice``: ``npix
    log1p(-dark)`` at j = 0, then ``log((npix - j + 1)/j * dark/(1 - dark))``
    per step, each ratio positive and formed directly.
    """
    j = np.arange(1, m_max + 1, dtype=float)
    steps = np.log((npix - j + 1.0) / j * (dark / (1.0 - dark)))
    return np.cumsum(np.concatenate(([npix * math.log1p(-dark)], steps)))


def response_table(d: DetectorModel, m_max: int, n_max: int) -> np.ndarray:
    """Read-only table[m, n]: probability of m fired pixels given n incident
    photons, for m = 0..m_max, n = 0..n_max.

    A pixel fires if it holds a detected photon or a dark event, and the
    number fired does not depend on which comes first.  So column 0 is the
    binomial law of dark-fired pixels, and each further photon is detected
    with probability eta and then fires a new pixel with probability
    ``1 - j/npix``.  Every term of this occupancy recurrence is
    non-negative, so nothing cancels; the tests check it against the
    closed-form alternating sum in extended precision.  Column n sums to the
    captured probability of n photons, 1 when m_max covers its support.
    """
    if not (0 <= m_max <= d.pixels):
        raise DomainError(f"response_table: m_max must lie in [0, {d.pixels}], got {m_max}")
    if n_max < 0:
        raise DomainError(f"response_table: n_max must be >= 0, got {n_max}")
    eta, npix = d.efficiency, d.pixels
    js = np.arange(m_max + 1, dtype=float)
    stay = (1.0 - eta) + eta * js / npix
    up = eta * (1.0 - js / npix)
    out = np.empty((m_max + 1, n_max + 1))
    if d.dark_rate == 0.0:
        col = np.zeros(m_max + 1)
        col[0] = 1.0
    else:
        col = np.exp(_log_dark_binomial(m_max, npix, d.dark_rate))
    out[:, 0] = col
    for n in range(1, n_max + 1):
        nxt = col * stay
        nxt[1:] += col[:-1] * up[:-1]
        col = nxt
        out[:, n] = col
    out.setflags(write=False)
    return out


def detector_response(d: DetectorModel, m: int, n: int) -> float:
    """Probability of m photocounts given n incident photons: the ``[m, n]``
    entry of :func:`response_table`."""
    return float(response_table(d, m, n)[m, n])


def photocount_distribution(p: JointDistribution, table_s: np.ndarray,
                            table_i: np.ndarray) -> JointDistribution:
    """Push the photon-number table through both arms' response tables
    (``response_table``).

    The output truncation mass combines the photon-level truncation with the
    count mass lost above the tables' last rows.  The three-factor product
    is taken by ``_chain_product``.
    """
    n_s = p.probs.shape[0] - 1
    n_i = p.probs.shape[1] - 1
    if table_s.shape[1] <= n_s or table_i.shape[1] <= n_i:
        raise ValidationError(
            f"photocount_distribution: response tables cover n <= "
            f"({table_s.shape[1] - 1}, {table_i.shape[1] - 1}) but the "
            f"distribution needs ({n_s}, {n_i})")
    counts = _chain_product(table_s[:, :n_s + 1], p.probs, table_i[:, :n_i + 1].T)
    counts.setflags(write=False)  # handed over, not copied
    return JointDistribution(counts)


def sum_distribution(p: JointDistribution) -> np.ndarray:
    """Distribution of the summed signal + idler number, p_sum[k]."""
    n_s, n_i = p.probs.shape
    idx = np.add.outer(np.arange(n_s), np.arange(n_i)).ravel()
    return np.bincount(idx, weights=p.probs.ravel(), minlength=n_s + n_i - 1)


def noise_reduction_factor(fm: FieldMoments) -> float:
    """Variance of the signal-idler count difference over its shot-noise level.

    0 for a pure paired field, >= 1 without pairing; the paper-scale twin
    beam sits around 0.1.  Along the moment inversion family
    (``moments.invert_at``) it does not depend on ``var_p``: its numerator
    is minus the margin of ``qdii.nonclassicality``, and its denominator is
    ``mean_s/eta_s + mean_i/eta_i`` in the detected moments.
    """
    denom = 2.0 * fm.mean_p + fm.mean_s + fm.mean_i
    if denom <= 0:
        raise DomainError("noise_reduction_factor: zero total mean intensity")
    return 1.0 + (fm.var_s + fm.var_i - 2.0 * fm.mean_p) / denom
