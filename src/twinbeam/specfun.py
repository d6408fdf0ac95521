"""Special functions and summation primitives used by the statistics modules.

Everything here is evaluated in log space with explicit signs, because the
model routinely produces factors (gamma functions of nearly-zero mode counts,
Bessel functions of order 178 to thousands) far outside the linear double
range.  The ascending Bessel series has one routine for its coefficients and
term count, ``_ascending_log_coefficients``: ``log_bessel_i_array`` sums it
where the scaled library function underflows, and ``qdii`` builds its
separable grid factors from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, NumericsError

__all__ = [
    "SignedLog",
    "AlternatingSumResult",
    "log_gamma",
    "log_bessel_i",
    "log_bessel_i_array",
    "sinc",
    "alternating_sum",
]


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as (log|x|, sign).

    ``sign == 0`` iff the represented value is exactly zero, in which case the
    log magnitude is ``-inf`` by convention.
    """

    log_magnitude: float
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise DomainError(f"SignedLog: sign must be -1, 0 or +1, got {self.sign}")
        if self.sign == 0 and self.log_magnitude != -math.inf:
            raise DomainError("SignedLog: zero value must carry log_magnitude = -inf")

    @classmethod
    def from_value(cls, x: float) -> "SignedLog":
        if x == 0:
            return cls(-math.inf, 0)
        return cls(math.log(abs(x)), 1 if x > 0 else -1)

    @classmethod
    def zero(cls) -> "SignedLog":
        return cls(-math.inf, 0)

    def value(self) -> float:
        """Linear-scale value; may overflow to +/-inf for huge magnitudes."""
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)


@dataclass(frozen=True)
class AlternatingSumResult:
    """Outcome of a compensated signed summation."""

    value: SignedLog
    cancellation_digits: float


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (isinstance(x, (int, float, np.floating, np.integer)) and math.isfinite(x)):
        raise DomainError(f"log_gamma: argument must be a finite real, got {x!r}")
    if x <= 0:
        raise DomainError(f"log_gamma: argument must be > 0, got {x}")
    from scipy import special as sp

    return float(sp.gammaln(x))


# most terms log_bessel_i_array's series sums, and most log terms it holds
_FALLBACK_MAX_TERMS = 100_000
_FALLBACK_BLOCK = 1 << 18


def _ascending_log_coefficients(order: float, log_q: float,
                                max_terms: int) -> np.ndarray | None:
    """``log c_j = -log j! - log G(order+1+j)`` of the ascending series
    ``I_order(z) = (z/2)^order sum_j c_j q^j``, ``q = z^2/4`` (Abramowitz &
    Stegun 9.6.10), up to the first term past the largest one whose tail is
    below eps of the sum at ``q = exp(log_q)``; None past ``max_terms``.
    Past ``j = (-order + sqrt(order^2 + 8q)) / 2`` the ratio ``q / (j (order
    + j))`` of successive terms is at most 1/2, so 55 more terms reach eps.
    """
    from scipy import special as sp

    root_q = math.exp(min(log_q, 1400.0) / 2.0)  # past e^1400, max_terms binds
    j_half = (math.hypot(order, math.sqrt(8.0) * root_q) - order) / 2.0
    j = np.arange(min(math.ceil(j_half) + 56, max_terms + 1), dtype=float)
    log_c = -sp.gammaln(j + 1.0) - sp.gammaln(order + 1.0 + j)
    log_t = log_c + j * log_q
    log_r = np.diff(log_t)
    # past the largest term the ratios fall, so a geometric series bounds
    # the tail: sum_{i >= j} t_i <= t_j / (1 - r_j)
    with np.errstate(divide="ignore"):
        log_tail = log_t[:-1] - np.log1p(-np.exp(np.minimum(log_r, 0.0)))
    log_sum = np.logaddexp.reduce(log_t)
    cut = np.flatnonzero((log_r < 0.0)
                         & (log_tail < log_sum + math.log(np.finfo(float).eps)))
    return log_c[:cut[0]] if cut.size else None


def log_bessel_i_array(order: float, x: np.ndarray) -> np.ndarray:
    """log I_order(x) elementwise for arguments x >= 0 and orders >= -1
    (I_{-1} = I_1).  The exponentially scaled library routine serves where it
    stays in range; where it underflows (large order, small argument) the
    ascending series is summed in log space, max-shifted.  Those arguments
    are sorted in descending order and summed in blocks of at most
    ``_FALLBACK_BLOCK`` log terms, each with the coefficients
    ``_ascending_log_coefficients`` gives at its first, largest argument.
    Past ``_FALLBACK_MAX_TERMS`` terms it raises ``NumericsError``.
    """
    from scipy import special as sp

    if order == -1:
        order = 1.0
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    pos = x > 0
    scaled = np.zeros(x.shape)
    scaled[pos] = sp.ive(order, x[pos])
    ok = pos & (scaled > 1e-290)
    out[ok] = np.log(scaled[ok]) + x[ok]
    hard = pos & ~ok
    if hard.any():
        # log x - log 2, since x / 2 underflows at the smallest subnormal
        log_half = np.log(x[hard]) - math.log(2.0)
        # descending, so that each block is sized at its first argument
        rank = np.argsort(log_half)[::-1]
        log_sum = np.empty(log_half.size)
        lo = 0
        while lo < rank.size:
            top = log_half[rank[lo]]
            log_c = _ascending_log_coefficients(order, 2.0 * top, _FALLBACK_MAX_TERMS)
            if log_c is None:
                raise NumericsError(f"log_bessel_i: order {order} at {math.exp(top) * 2.0:.6g} "
                                    f"needs more than {_FALLBACK_MAX_TERMS} series terms")
            block = rank[lo:lo + max(1, _FALLBACK_BLOCK // log_c.size)]
            # log(c_j q^j), a column per x
            log_t = log_c[:, None] + np.multiply.outer(np.arange(log_c.size),
                                                       2.0 * log_half[block])
            peak = log_t.max(axis=0)
            log_sum[block] = peak + np.log(np.exp(log_t - peak).sum(axis=0))
            lo += block.size
        out[hard] = order * log_half + log_sum
    # at x = 0: I_0 = 1, I_order = 0 for order > 0, divergent for order < 0
    out[~pos] = 0.0 if order == 0 else (-math.inf if order > 0 else math.inf)
    return out


def log_bessel_i(order: float, x: float) -> SignedLog:
    """Log of the modified Bessel function I_order(x) with sign.

    Supports real orders >= -1 and x >= 0; the scalar form of
    ``log_bessel_i_array``.
    """
    if not math.isfinite(order) or not math.isfinite(x):
        raise DomainError("log_bessel_i: arguments must be finite")
    if order < -1:
        raise DomainError(f"log_bessel_i: order must be >= -1, got {order}")
    if x < 0:
        raise DomainError(f"log_bessel_i: argument must be >= 0, got {x}")
    log_magnitude = float(log_bessel_i_array(order, np.array([x]))[0])
    if log_magnitude == -math.inf:
        return SignedLog.zero()
    return SignedLog(log_magnitude, 1)


def sinc(x):
    """sin(x)/x for scalars or arrays.  Below |x| = 1e-4 the quotient is within
    1.1e-16 of the Taylor series, so only x = 0 needs its own value, 1."""
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    zero = arr == 0
    safe = np.where(zero, 1.0, arr)
    out = np.sin(safe)
    out /= safe
    out[zero] = 1.0
    return float(out[0]) if scalar else out


def alternating_sum(terms: Sequence[SignedLog] | Iterable[SignedLog]) -> AlternatingSumResult:
    """Compensated (error-free-transformation) sum of signed log-scale terms.

    The terms are rescaled by the largest magnitude, summed with Neumaier
    compensation, and the estimated cancellation loss is reported as
    ``log10(sum of |terms| / |result|)`` decimal digits.
    """
    terms = list(terms)
    live = [t for t in terms if t.sign != 0]
    if not live:
        return AlternatingSumResult(SignedLog.zero(), 0.0)
    lmax = max(t.log_magnitude for t in live)
    if lmax == math.inf:
        raise DomainError("alternating_sum: infinite-magnitude term")
    total = 0.0
    comp = 0.0
    abs_total = 0.0
    for t in live:
        v = t.sign * math.exp(t.log_magnitude - lmax)
        abs_total += abs(v)
        s = total + v
        if abs(total) >= abs(v):
            comp += (total - s) + v
        else:
            comp += (v - s) + total
        total = s
    total += comp
    if total == 0.0:
        return AlternatingSumResult(SignedLog.zero(), math.inf)
    loss = math.log10(abs_total / abs(total)) if abs_total > 0 else 0.0
    value = SignedLog(lmax + math.log(abs(total)), 1 if total > 0 else -1)
    return AlternatingSumResult(value, max(0.0, loss))
