"""Special functions and summation primitives used by the statistics modules.

Everything here is evaluated in log space with explicit signs, because the
model routinely produces factors (gamma functions of nearly-zero mode counts,
Bessel functions of order 178 to thousands) far outside the linear double
range.  The ascending Bessel series has one routine for its coefficients and
term count, ``_ascending_log_coefficients``: ``log_bessel_i_array`` sums it
where the scaled library function underflows, and ``qdii`` builds its
separable grid factors from it.

Only ``log_bessel_i_array`` loads SciPy, for its exponentially scaled
Bessel function ``ive``.  Everything else here is the standard library and
numpy: ``math.lgamma`` for the log-gamma values (a cached table of them
for the log-factorials), Stirling's series for the array of them that the
Bessel series' coefficients take (``_log_gamma_array``) and for log B(a, b)
(``_log_beta``), the regularized incomplete gamma function P(a, x) on an
array (``regularized_gamma_p``: its series and Legendre's continued
fraction) and the regularized incomplete beta function at one point
(``regularized_beta``: its continued fraction).
"""

from __future__ import annotations

import functools
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
    "regularized_gamma_p",
    "regularized_beta",
    "sinc",
    "alternating_sum",
]

_EPS = float(np.finfo(float).eps)


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
    return math.lgamma(x)


def _log_factorials(size: int) -> np.ndarray:
    """log j! for j < size, as a read-only view of a table of ``math.lgamma``
    values kept per power of two of the size, so a process keeps at most
    one table per doubling."""
    return _log_factorial_table(max(size - 1, 1).bit_length())[:size]


@functools.cache
def _log_factorial_table(bits: int) -> np.ndarray:
    table = np.array([math.lgamma(j) for j in range(1, (1 << bits) + 1)])
    table.setflags(write=False)
    return table


# Stirling's series of log G(z), Abramowitz & Stegun 6.1.41, to its z^-11
# term; from z = 13 on, the first term left out, 7 / (1092 z^13), is below
# 1e-18 of log G(z)
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0)
_STIRLING_FROM = 13.0


def _stirling_tail(w):
    """``log G(w) - ((w - 1/2) log w - w + log(2 pi) / 2)`` for w >= 13,
    a scalar or an array, from the series."""
    r = 1.0 / (w * w)
    tail = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        tail = tail * r + c
    return tail / w


def _log_gamma_array(z: np.ndarray) -> np.ndarray:
    """log G(z) for each z > 0 of an array: Stirling's series from z = 13
    on, ``math.lgamma`` below.  A call of ``math.lgamma`` costs about 0.1
    us, so a table of a few hundred values costs more than the series'
    dozen array operations."""
    out = np.empty(z.shape)
    big = z >= _STIRLING_FROM
    w = z[big]
    out[big] = (w - 0.5) * np.log(w) - w + (0.5 * math.log(2.0 * math.pi) + _stirling_tail(w))
    out[~big] = [math.lgamma(v) for v in z[~big].tolist()]
    return out


def _log_beta(a: float, b: float) -> float:
    """``log B(a, b)`` for a, b > 0.  From a larger argument of 13 on,
    ``log G(big) - log G(big + small)`` is taken from Stirling's series as
    ``-(big + small - 1/2) log1p(small / big) - small log big + small`` plus
    the difference of the series' tails: terms of the size of ``small log
    big``, where the three log-gamma values are as large as ``big log
    big`` and cancel."""
    small, big = min(a, b), max(a, b)
    if big < _STIRLING_FROM:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (math.lgamma(small) - (big + small - 0.5) * math.log1p(small / big)
            - small * math.log(big) + small + (_stirling_tail(big) - _stirling_tail(big + small)))


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
    root_q = math.exp(min(log_q, 1400.0) / 2.0)  # past e^1400, max_terms binds
    j_half = (math.hypot(order, math.sqrt(8.0) * root_q) - order) / 2.0
    j = np.arange(min(math.ceil(j_half) + 56, max_terms + 1), dtype=float)
    log_c = -_log_factorials(j.size) - _log_gamma_array(order + 1.0 + j)
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


# P(a, x) sums its series below x = a + _GAMMA_SERIES_SPAN and takes
# Legendre's continued fraction for Q = 1 - P from there on.  For a <= 1
# Q's bound is below eps/2 from x = a + 36 on, so only a larger a takes the
# fraction, and a lattice is not split between the two parts; for a small a
# the series takes about 100 terms at the span, and both parts take about
# 2 sqrt(a) near x = a (see regularized_gamma_p)
_GAMMA_SERIES_SPAN = 36.0
# most series terms, and most fraction levels, regularized_gamma_p takes
_GAMMA_MAX_TERMS = 10_000
# log of half the smallest subnormal double: a value below it rounds to 0
_LOG_HALF_SUBNORMAL = -1075.0 * math.log(2.0)
_LOG_HALF_EPS = math.log(_EPS / 2.0)


def regularized_gamma_p(a: float, x) -> np.ndarray:
    """The regularized incomplete gamma function ``P(a, x) = g(a, x) /
    G(a)`` for a > 0, on a 1-D array of finite x >= 0.

    P is exactly 1 where a bound puts Q = 1 - P below eps/2
    (``_log_q_bound``), so it is off by less than a rounding there.  The
    bound is less than twice Q where Q < eps/4, so every point where 1 - Q
    rounds to 1 is exactly 1.  Elsewhere, below ``x = a +
    _GAMMA_SERIES_SPAN``, it sums the series of Abramowitz & Stegun 6.5.29,
    whose terms are all positive (``_gamma_p_series``); from there on it
    takes ``1 - Q``, with Q from Legendre's continued fraction, A&S 6.5.31
    (``_gamma_q_fraction``).  Each part fixes its term count or depth once,
    at the argument that needs the most, and evaluates every point with it.
    Both need about ``2 sqrt(a)`` near x = a; past ``_GAMMA_MAX_TERMS`` they
    raise ``NumericsError``, which takes a point within a few standard
    deviations ``sqrt(a)`` of a at a > 10^6 or so.
    """
    x = np.asarray(x, dtype=float)
    if not (math.isfinite(a) and a > 0):
        raise DomainError(f"regularized_gamma_p: a must be finite and > 0, got {a}")
    if x.size == 0:
        return np.zeros(0)
    lo, hi = float(x.min()), float(x.max())
    if not (lo >= 0 and hi < math.inf):
        raise DomainError("regularized_gamma_p: x must be finite and >= 0")
    split = a + _GAMMA_SERIES_SPAN
    # the bound falls with x, so when it is eps/2 or more at hi it is at
    # every point
    start = max(a, 1.0)
    if hi < start or _log_q_bound(a, hi) >= _LOG_HALF_EPS:
        if lo > 0 and hi < split:
            return _gamma_p_series(a, x, hi)
        one = np.zeros(x.shape, dtype=bool)
    else:
        one = x >= start
        one[one] = _log_q_bound(a, x[one]) < _LOG_HALF_EPS
    out = one.astype(float)  # P(a, 0) = 0
    series = (x > 0) & (x < split) & ~one
    if series.any():
        out[series] = _gamma_p_series(a, x[series], float(x[series].max()))
    fraction = (x >= split) & ~one
    if fraction.any():
        out[fraction] = 1.0 - _gamma_q_fraction(a, x[fraction])
    return out


def _log_q_bound(a: float, x):
    """log of ``x^a e^-x / (G(a) (x + 1 - max(a, 1)))``, a bound on Q(a, x)
    for ``x >= max(a, 1)`` that falls with x there: ``t^(a-1) e^-t`` is at
    most ``x^(a-1) e^-x e^-(t-x)(1-(a-1)/x)`` for t >= x > a - 1, since
    ``log(t/x) <= (t-x)/x``."""
    return a * np.log(x) - x - math.lgamma(a) - np.log(x + (1.0 - max(a, 1.0)))


def _gamma_p_series(a: float, x: np.ndarray, top: float) -> np.ndarray:
    """``P(a, x)`` for ``0 < x <= top`` by its series, ``x^a e^-x / G(a+1)
    sum_k t_k y^k`` with ``y = x / top`` and ``t_k = top^k / ((a+1) ...
    (a+k))`` the terms at ``top``.

    Past the largest term the ratio ``r = top / (a+k+1)`` of the next term
    to ``t_k`` falls with k, so the tail after ``t_k`` is at most ``t_k r /
    (1 - r)``; the series ends at the first term where that is at most
    eps/4 of the largest term, and so of the sum.  At a smaller x every
    term shrinks by ``y^k``, the later ones more, so the tail's share is
    smaller still.  The powers ``y^k`` are one ``exp`` of the outer product
    of k and ``log y`` (``einsum`` forms it faster than ``multiply.outer``),
    and the sum is one product with the ``t_k``.

    Below ``top = a + 1`` every ratio is below ``top / (a+1)``, so the sum
    is at most ``(a+1) / (a+1-top)``; when that times the prefactor at
    ``top`` rounds to 0, so does P at every x, P growing with x.
    """
    log_front = a * math.log(top) - math.lgamma(a + 1.0)
    if (top < a + 1.0 and log_front - top + math.log((a + 1.0) / (a + 1.0 - top))
            < _LOG_HALF_SUBNORMAL):
        return np.zeros(x.shape)
    terms = [1.0]
    k, term = 0, 1.0
    while top >= a + k + 1.0:  # up to the largest term
        k += 1
        term *= top / (a + k)
        terms.append(term)
    floor = _EPS / 4.0 * term
    while True:
        r = top / (a + k + 1.0)
        if term * r <= floor * (1.0 - r):
            break
        if k == _GAMMA_MAX_TERMS:
            raise NumericsError(f"regularized_gamma_p: the series at a = {a:.6g}, "
                                f"x = {top:.6g} needs more than {_GAMMA_MAX_TERMS} terms")
        k += 1
        term *= r
        terms.append(term)
    log_y = np.log(x) - math.log(top)  # x / top may underflow
    powers = np.einsum("k,j->kj", np.arange(len(terms), dtype=float), log_y)
    total = np.array(terms) @ np.exp(powers, out=powers)
    total *= np.exp(a * log_y - x + log_front)
    return total


def _gamma_q_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """``Q(a, x) = x^a e^-x / (G(a) f)`` for ``x > a + 1``, with Legendre's
    continued fraction in its even form, ``f = x + 1 - a - 1 (1 - a) / (x
    + 3 - a - 2 (2 - a) / (x + 5 - a - ...))``, evaluated from level n up
    at every x.  n is the depth at which the modified Lentz method
    (Numerical Recipes, 2nd ed., 6.2) converges to eps at the smallest x;
    a larger x converges in fewer levels.
    """
    lo = float(x.min())
    b = lo + 1.0 - a
    c, d = math.inf, 1.0 / b
    n = 0
    while abs(c * d - 1.0) > _EPS:
        if n == _GAMMA_MAX_TERMS:
            raise NumericsError(f"regularized_gamma_p: the fraction at a = {a:.6g}, "
                                f"x = {lo:.6g} needs more than {_GAMMA_MAX_TERMS} levels")
        n += 1
        step = -n * (n - a)
        b += 2.0
        d = 1.0 / (step * d + b)
        c = b + step / c
    f = x + (2.0 * n + 1.0 - a)
    for i in range(n, 0, -1):
        f = (x + (2.0 * i - 1.0 - a)) - i * (i - a) / f
    return np.exp(a * np.log(x) - x - math.lgamma(a)) / f


def regularized_beta(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function ``I_x(a, b)`` for a, b > 0
    and 0 <= x <= 1.

    Below ``x = (a+1)/(a+b+2)`` it is ``x^a (1-x)^b / (a B(a, b))`` times
    the continued fraction of Abramowitz & Stegun 26.5.8 (``_beta_fraction``);
    above, it is ``1 - I_(1-x)(b, a)``, whose fraction converges there.  The
    prefactor is one exp of ``a log x + b log(1-x) - log B(a, b)``
    (``_log_beta``), both logs taken from x itself: ``b log(1 - x)`` from a
    rounded ``1 - x`` would be off by b units of roundoff.
    """
    if not (a > 0 and b > 0 and 0.0 <= x <= 1.0 and math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"regularized_beta: need a, b > 0 and 0 <= x <= 1, got "
                          f"x={x}, a={a}, b={b}")
    if x == 0.0 or x == 1.0:
        return float(x)
    log_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_fraction(1.0 - x, b, a, log_front)
    return _beta_fraction(x, a, b, log_front)


def _beta_fraction(x: float, a: float, b: float, log_front: float) -> float:
    """``exp(log_front) / a`` times the continued fraction of A&S 26.5.8,
    ``1/(1+ d_1/(1+ d_2/(1+ ...)))``, evaluated by the modified Lentz
    method to eps: ``I_x(a, b)`` for x below ``(a+1)/(a+b+2)`` when
    ``log_front = log(x^a (1-x)^b / B(a, b))``."""
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    m = 0
    while True:
        m += 1
        even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m))
        d = 1.0 / (1.0 + even * d)
        c = 1.0 + even / c
        h *= c * d
        odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0))
        d = 1.0 / (1.0 + odd * d)
        c = 1.0 + odd / c
        step = c * d
        h *= step
        if abs(step - 1.0) <= _EPS:
            return math.exp(log_front) * h / a


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
