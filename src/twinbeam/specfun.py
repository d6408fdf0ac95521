"""Special functions and summation primitives used by the statistics modules.

Everything here is evaluated in log space with explicit signs, because the
model routinely produces factors (gamma functions of nearly-zero mode counts,
Bessel functions of order ~178) far outside the linear double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

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


def _log_bessel_series(order: float, x: np.ndarray) -> np.ndarray:
    # ascending series, leading term factored out; all terms positive.  Each
    # point stops adding terms once its own series has converged.
    from scipy import special as sp

    lead = order * np.log(x / 2.0) - sp.gammaln(order + 1.0)
    q = x * x / 4.0
    term = np.ones_like(x)
    total = np.ones_like(x)
    live = np.arange(x.size)
    k = 0
    while live.size and k <= 100000:
        k += 1
        term[live] *= q[live] / (k * (order + k))
        total[live] += term[live]
        live = live[term[live] > 1e-18 * total[live]]
    return lead + np.log(total)


def log_bessel_i_array(order: float, x: np.ndarray) -> np.ndarray:
    """log I_order(x) elementwise for an array of arguments x >= 0.

    Uses the exponentially scaled library routine where it stays in range
    and the ascending series (in log space) on all points where the scaled
    value underflows, which happens for large order and small argument.
    Orders must be >= -1; I_{-1} = I_1.
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
        out[hard] = _log_bessel_series(order, x[hard])
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


_SINC_SWITCH = 1e-4


def sinc(x):
    """sin(x)/x with the removable singularity handled by a short Taylor
    series for |x| < 1e-4.  Accepts scalars or arrays."""
    arr = np.asarray(x, dtype=float)
    scalar = np.isscalar(x) or arr.ndim == 0
    arr = arr.reshape(-1) if scalar else arr
    small = np.abs(arr) < _SINC_SWITCH
    safe = np.where(small, 1.0, arr)
    out = np.sin(safe) / safe
    if small.any():
        near = arr[small]
        out[small] = 1.0 - near * near / 6.0 + near**4 / 120.0
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
