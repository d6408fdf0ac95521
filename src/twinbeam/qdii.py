"""Quasi-distributions of integrated intensities (QDII) and non-classicality
diagnostics.

The paired-field density has two regimes separated by a threshold ordering
``s_th``: below it a smooth non-negative modified-Bessel form, above it an
oscillatory sinc-kernel form whose negative strips parallel to the diagonal
are the signature of pairwise emission.  Both are evaluated on the grid of
two 1-D axes, and both as products ``L @ R.T`` of two factor tables, one
per axis, with one column per separable term:

* Bessel branch: the ascending series of the Bessel function gives
  ``p(x, y) = sum_j F_j(x) F_j(y)``, with the coefficients and the term
  count K of ``specfun._ascending_log_coefficients`` at the largest product
  ``x_max y_max``.  K grows without bound toward ``s_th``; the series is
  used while K is at most the number of points on the two axes and at most
  2,000, otherwise the Bessel function is evaluated once per distinct
  argument.  Without pairs correlation (``b_pairs = 0``) the density is
  one product of two gamma densities, rank 1.
* Sinc branch: the kernel ``a sinc(v/a)/pi`` is a Fourier integral over a
  finite band, which an n-node Gauss-Legendre rule turns into 2n separable
  cosine and sine terms.  n is the fewest nodes for which the rule's
  error bound (Abramowitz & Stegun 25.4.30) is below eps at the largest
  ``|x - y|``; the quadrature is used while 2n is at most a third of the
  points on the two axes and at most 1,000, otherwise the closed form is
  evaluated per cell.

Each branch hands ``_paired_values`` a per-axis factor function, or None
past its rank limit, and that function alone picks the factored or the
per-cell path.  The sinc form is a closed-form interference expression, not
an exact Fourier inversion: ``sqrt(g(x) g(y))`` times the kernel, g the
pair field's gamma density.  As printed it is not normalized, so every value
is divided by its total mass, itself a closed form.  The full-field QDII is
the convolution of the paired density with one multi-thermal noise density
per arm.  It needs uniform axes: each noise measure is binned onto the grid lattice, and
the convolution is one product of lower-triangular Toeplitz matrices per
arm, ``T_s @ paired @ T_i^T``, taken in row blocks that skip the zero
triangle of each; a factored density is convolved as ``(T_s @ L) @ (T_i @
R).T`` instead when that does fewer multiply-adds, which it does while the
rank is well below the number of lattice points.  Every
operand of that product is set to 0 below ``tiny/eps`` (``_flush_below``).
Without pairs the QDII is the product of the two noise densities.  Every
grid ends in the same check: its trapezoid integral,
``QdiiGrid.normalization``, must lie within 5 % of 1.  A value past the
double range raises ``NumericsError``, no warning first, at a point or on a
grid (``_overflow_raises``); an inf a BLAS thread left unflagged fails the
grid's finite-value check (``_checked_grid``).

Each input rule is stated once.  ``joint_qdii_grid`` checks both axes by
the rule of ``QdiiGrid`` (``model._check_axis``) before any evaluation.
Every density here, of shape (mode count) m, carries ``w^(m-1)``: at w = 0
it is 0 for m > 1, finite for m = 1 and divergent for m < 1, which raises
``DomainError``, as m <= 0 does (``_gamma_support``).

The grids load SciPy only on the per-argument Bessel path, for
``specfun.log_bessel_i_array``'s ``ive``: the scalar log-gamma values
are ``math.lgamma``'s, the binned noise masses differences of
``specfun.regularized_gamma_p`` and the sinc mass
``specfun.regularized_beta``.

Work that depends only on its inputs is done once.  A Gauss-Legendre rule
is computed once per node count.  The last paired density is kept, keyed
by state, ordering, both axes and the rank limits, so the paired-only grid
and the noise-convolved grid of one state and axes evaluate it once.  The
convolution lattice of an axis that starts at 0 is that axis itself, which
is what lets the two grids share it.  Kept arrays are read-only.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridResolutionError, NumericsError, ValidationError
from .model import FieldMoments, QdiiGrid, TwinBeamParams, _check_axis
from .moments import field_moments_from_params
from .photostat import _toeplitz
from .specfun import (_ascending_log_coefficients, _log_factorials, log_bessel_i_array,
                      regularized_beta, regularized_gamma_p, sinc)

__all__ = [
    "OrderingContext",
    "ThresholdDiagnostics",
    "NonclassicalityVerdict",
    "characteristic_function",
    "ordering_threshold",
    "nonclassicality",
    "paired_qdii",
    "thermal_qdii",
    "joint_qdii_grid",
]

NORMALIZATION_TOL = 0.05
# most terms of the Bessel series a grid is evaluated with (see _bessel_factor)
_SERIES_MAX_TERMS = 2000
# largest rank, twice the node count, of the sinc quadrature (see _sinc_factor)
_SINC_MAX_RANK = 1000
# convolution operands are set to 0 below tiny/eps = 2^-970 (see _flush_below)
_FLUSH_FLOOR = np.finfo(float).tiny / np.finfo(float).eps
# rows per block of a product with a triangular Toeplitz matrix (see
# _triangular_product and the README's numerical notes)
_TRIANGLE_ROWS = 24


def _check_ordering(s: float) -> None:
    if not (-1.0 < s <= 1.0):
        raise DomainError(f"ordering parameter must lie in (-1, 1], got {s}")


def _overflow(kind: str, flag: int) -> None:
    raise NumericsError(f"{kind}: a QDII value passes the double range")


_overflow_raises = np.errstate(over="call", call=_overflow)


@dataclass(frozen=True)
class OrderingContext:
    """Derived quantities of the paired field at ordering ``s``.

    ``k_p_s`` changes sign exactly at ``s_th_paired``: positive below
    (Bessel regime), negative above (sinc regime).
    """

    s: float
    b_p_s: float
    d_p: float
    k_p_s: float
    s_th_paired: float

    def __post_init__(self):
        _check_ordering(self.s)
        if not self.b_p_s > 0:
            raise ValidationError(
                "OrderingContext: b_p_s must be positive (vacuum at normal "
                "ordering has a singular density)")

    @classmethod
    def for_params(cls, b_pairs: float, s: float) -> "OrderingContext":
        if b_pairs < 0:
            raise DomainError(f"b_pairs must be >= 0, got {b_pairs}")
        b = b_pairs + (1.0 - s) / 2.0
        d = math.sqrt(b_pairs * (b_pairs + 1.0))
        k = -s * b_pairs + (1.0 - s) ** 2 / 4.0
        s_th = 1.0 + 2.0 * (b_pairs - d)
        return cls(s, b, d, k, s_th)


@dataclass(frozen=True)
class ThresholdDiagnostics:
    """Threshold ordering of the full three-component field.

    ``s_th`` is NaN when the radicand is negative (no ordering makes the
    signal-idler difference noiseless); the radicand is reported either way.
    """

    s_th: float
    beta: float
    gamma: float
    radicand: float

    @property
    def is_real(self) -> bool:
        return self.radicand >= 0


@dataclass(frozen=True)
class NonclassicalityVerdict:
    """Moment criterion: paired correlation vs summed noise variances."""

    margin: float
    nonclassical: bool
    paired_correlation: float
    noise_variance: float


def characteristic_function(params: TwinBeamParams, s_s: float, s_i: float) -> complex:
    """Normal-ordering characteristic function of the three-component field."""
    base_s = 1.0 - 1j * s_s * params.b_noise_s
    base_i = 1.0 - 1j * s_i * params.b_noise_i
    bp = params.b_pairs
    base_p = 1.0 - 1j * s_s * bp - 1j * s_i * bp + s_s * s_i * bp
    out = 1.0 + 0.0j
    for base, modes, label in ((base_s, params.m_noise_s, "signal noise"),
                               (base_i, params.m_noise_i, "idler noise"),
                               (base_p, params.m_pairs, "paired")):
        if modes == 0:
            continue
        if abs(base) < 1e-12:
            raise DomainError(
                f"characteristic_function: {label} factor has a pole at "
                f"(s_s={s_s}, s_i={s_i})")
        out *= base ** (-modes)
    return out


def ordering_threshold(params: TwinBeamParams) -> ThresholdDiagnostics:
    """Threshold ordering s_th of the full field: where the variance of the
    signal-idler intensity difference vanishes, sigma^2 + 2*beta*sigma +
    gamma = 0 with sigma = (1-s)/2, so s_th = 1 + 2*(beta - sqrt(beta^2 -
    gamma)).  beta and gamma are the total mean and minus the rounded margin
    :func:`nonclassicality` judges by, over the total mode count, so a
    non-classical state has s_th <= 1 and a classical one s_th >= 1 or NaN
    (gamma > beta^2).  s_th can read exactly 1 for a non-classical state:
    ``1 + y`` rounds to 1 when |y| is below half an ulp of 1.  A grid below
    s_th may still be negative: with few-mode noise, the README truth
    state's (s_th 0.652) has cells at -0.14 of its peak at s = 0.64.
    """
    total = params.m_noise_s + params.m_noise_i + 2.0 * params.m_pairs
    if total <= 0:
        raise DomainError("ordering_threshold: all mode counts are zero")
    fm = field_moments_from_params(params)
    beta = (fm.mean_s + fm.mean_i + 2.0 * fm.mean_p) / total
    gamma = -nonclassicality(fm).margin / total
    radicand = beta * beta - gamma
    s_th = 1.0 + 2.0 * (beta - math.sqrt(radicand)) if radicand >= 0 else math.nan
    return ThresholdDiagnostics(s_th, beta, gamma, radicand)


def nonclassicality(fm: FieldMoments) -> NonclassicalityVerdict:
    """Moment criterion of non-classicality.

    The field is non-classical iff twice the mean pair intensity exceeds the
    summed noise variances.  :func:`ordering_threshold` forms its gamma from
    this margin, so a non-classical verdict comes with s_th <= 1 and a
    classical one with s_th >= 1 or NaN.

    Along the moment inversion family (``moments.invert_at``) the margin
    does not depend on ``var_p``: ``mean_p``, ``var_s`` and ``var_i`` each
    fall by ``var_p``, so the margin is ``2 cov/(eta_s eta_i) - var_s/eta_s^2
    - var_i/eta_i^2`` in the detected moments.  Computed, it moves by
    rounding only: 17.879961899590572 to ...576 across the valid interval of
    the README run.
    """
    paired = 2.0 * fm.mean_p
    noise = fm.var_s + fm.var_i
    margin = float(paired - noise)
    return NonclassicalityVerdict(margin, margin > 0, float(paired), float(noise))


# ---------------------------------------------------------------------------
# paired-field density
# ---------------------------------------------------------------------------

def _series_half_log_coefficients(ctx: OrderingContext, m: float, log_corner: float,
                                  max_terms: int) -> np.ndarray | None:
    """Half the log coefficients ``A_j`` of the separable series of the
    Bessel-branch density, ``sum_j exp(A_j + (m-1+j) log(x y) - b (x+y)/k)``,
    or None if it needs more than ``max_terms`` terms.  ``A_j = log c_j +
    2j log(d/k) - log G(m) - m log k`` with the ``c_j`` of
    ``specfun._ascending_log_coefficients`` at ``q = (d/k)^2 x y``, sized at
    the corner ``log_corner = log(x_max y_max)``, passed as a log because a
    product of two tiny coordinates underflows.
    """
    log_ratio = math.log(ctx.d_p / ctx.k_p_s)
    log_c = _ascending_log_coefficients(m - 1.0, 2.0 * log_ratio + log_corner, max_terms)
    if log_c is None:
        return None
    return 0.5 * (log_c + 2.0 * np.arange(log_c.size) * log_ratio - math.lgamma(m)
                  - m * math.log(ctx.k_p_s))


def _series_factors(ctx: OrderingContext, m: float, half_a: np.ndarray,
                    w: np.ndarray) -> np.ndarray:
    """``F[i, j] = exp(A_j / 2 + (m-1+j) log w_i - b w_i / k)``: the density
    is ``F_s @ F_i.T``.  Each factor is at most ``sqrt(p(w, w))``, so none
    overflows."""
    expo = (half_a + np.multiply.outer(np.log(w), m - 1.0 + np.arange(half_a.size))
            - (ctx.b_p_s * w / ctx.k_p_s)[:, None])
    return np.exp(expo)


def _flush_below(a: np.ndarray) -> np.ndarray:
    """``a`` with its entries of magnitude below ``_FLUSH_FLOOR`` set to 0,
    in place: every operand of the noise convolution, the factor tables,
    the per-cell grids and the ``L @ R.T`` that ``_convolve_uniform`` forms.

    The floor is ``tiny/eps``, not ``tiny``: a kept entry times a binned
    noise mass of at least eps is a normal double, and OpenBLAS multiplies
    subnormal numbers far more slowly (README, numerical notes); smaller
    masses can still give subnormal products, correct but slower.

    A flushed grid cell moves by less than the floor f, a paired cell
    ``sum_j L[x, j] R[y, j]`` of flushed factors by at most ``f (sum_j
    |R[y, j]| + sum_j |L[x, j]|)``, and a convolved cell by at most that
    bound summed over the cells it collects, weighted by their noise
    masses, which sum to at most 1 per Toeplitz row.
    """
    a[np.abs(a) < _FLUSH_FLOOR] = 0.0
    return a


def _bessel_distinct(ctx: OrderingContext, m: float,
                     x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bessel-branch density on the grid of axes ``x``, ``y``, with the
    Bessel function evaluated once per distinct argument."""
    k, b, d = ctx.k_p_s, ctx.b_p_s, ctx.d_p
    log_prod = np.log(x)[:, None] + np.log(y)[None, :]
    arg = 2.0 * d * np.exp(log_prod / 2.0) / k
    # the argument depends on x * y only, so a grid repeats most values
    distinct, where = np.unique(arg.ravel(), return_inverse=True)
    log_i = log_bessel_i_array(m - 1.0, distinct)[where].reshape(arg.shape)
    ln = ((m - 1.0) / 2.0 * log_prod - math.lgamma(m) - math.log(k)
          - (m - 1.0) * math.log(d) - b * (x[:, None] + y[None, :]) / k + log_i)
    return np.exp(ln)


def _bessel_factor(ctx: OrderingContext, m: float, x: np.ndarray,
                   y: np.ndarray) -> Callable[[np.ndarray], np.ndarray] | None:
    """Per-axis factor F of the Bessel-branch density on the grid of axes
    ``x``, ``y``, the grid being ``F(x) @ F(y).T``; None when the series
    needs more terms than the grid's limit."""
    if ctx.d_p == 0.0:
        # uncorrelated limit b_pairs -> 0: product of two gamma densities
        return lambda w: np.exp(_log_gamma_density(m, ctx.b_p_s, w))[:, None]
    # the series while it needs no more terms than the grid has points, and
    # at most _SERIES_MAX_TERMS, below the crossovers the README lists
    log_corner = math.log(x.max()) + math.log(y.max())
    half_a = _series_half_log_coefficients(
        ctx, m, log_corner, min(x.size + y.size, _SERIES_MAX_TERMS))
    if half_a is None:
        return None
    return lambda w: _series_factors(ctx, m, half_a, w)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], by
    Golub & Welsch (Math. Comp. 23, 1969): the eigenvalues of the Jacobi
    matrix of the Legendre polynomials, whose off-diagonal is ``k /
    sqrt(4k^2 - 1)``, and twice the squared first components of its
    eigenvectors.  Computed once per n, as read-only arrays; the grids ask
    for n <= _SINC_MAX_RANK / 2, so the kept rules take at most 2 MB."""
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    weights = 2.0 * vectors[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _quadrature_nodes(omega: float, max_nodes: int) -> int | None:
    """Fewest Gauss-Legendre nodes that integrate ``cos(omega (1 + tau))``
    over [-1, 1] within eps, or None past ``max_nodes``.  The error of the
    n-point rule is ``2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) f^(2n)(xi)``
    (Abramowitz & Stegun 25.4.30), and ``|f^(2n)| <= omega^(2n)``.  The
    ratio of successive bounds falls with n, so the bound rises and then
    falls, and the first n below eps is the smallest that stays below it.
    """
    n = np.arange(1.0, max_nodes + 1)
    log_fact = _log_factorials(2 * max_nodes + 1)
    log_bound = ((2.0 * n + 1.0) * math.log(2.0) + 4.0 * log_fact[1:max_nodes + 1]
                 - np.log(2.0 * n + 1.0) - 3.0 * log_fact[2:2 * max_nodes + 1:2]
                 + 2.0 * n * math.log(max(omega, np.finfo(float).tiny)))
    fits = np.flatnonzero(log_bound <= math.log(np.finfo(float).eps))
    return int(n[fits[0]]) if fits.size else None


def _gamma_support(m: float, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points ``w >= 0`` at which a density of shape m, carrying
    ``w^(m-1)``, is evaluated, as a mask and their values: w = 0 is dropped
    for m > 1 (density 0), kept for m = 1 (finite) and raises for m < 1
    (divergent), as m <= 0 does.  A kept w = 0 is given as 1e-300, so that
    the paired factors' ``log w`` stays finite (``0 log 0`` is NaN).  Their
    scale ``b_pairs + (1-s)/2`` is at least 5e-17 for s < 1, and at s = 1
    the sinc mass raises for ``b_pairs <= 1e-200``, so ``1e-300 / scale``
    is negligible there.  The gamma density itself takes w = 0 exactly
    (``_thermal_values``)."""
    if not m > 0:
        raise DomainError(f"mode count must be > 0, got {m}: a field of no modes "
                          "is a point mass at w = 0, not representable as a density")
    zero = w == 0
    if m < 1 and zero.any():
        raise DomainError(f"a density of {m} < 1 modes diverges at w = 0; "
                          "use strictly positive grid points")
    keep = ~zero if m > 1 else np.ones(w.shape, dtype=bool)
    return keep, np.where(zero, 1e-300, w)[keep]


def _log_gamma_density(m: float, b: float, w: np.ndarray) -> np.ndarray:
    """``log g(w)`` for the gamma density g of shape m and scale b on points
    ``w > 0``, and at w = 0 for m = 1: a multi-thermal noise density is g,
    and the sinc-branch density is ``sqrt(g(x) g(y))`` times its kernel."""
    power = 0.0 if m == 1 else (m - 1.0) * np.log(w)
    return power - (math.lgamma(m) + m * math.log(b)) - w / b


def _sinc_direct(ctx: OrderingContext, m: float,
                 x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sinc-branch density on the grid of axes ``x``, ``y``, evaluated per
    cell and divided by its closed-form total mass."""
    b = ctx.b_p_s
    a = math.sqrt(-ctx.k_p_s)
    scale = a / (math.pi * _sinc_normalization(m, b, -ctx.k_p_s))
    envelope = np.exp(np.add.outer(0.5 * _log_gamma_density(m, b, x),
                                   0.5 * _log_gamma_density(m, b, y)))
    return envelope * sinc(np.subtract.outer(x, y) / a) * scale


def _sinc_factor(ctx: OrderingContext, m: float, x: np.ndarray,
                 y: np.ndarray) -> Callable[[np.ndarray], np.ndarray] | None:
    """Per-axis factor F of the sinc-branch density on the grid of axes
    ``x``, ``y``, the grid being ``F(x) @ F(y).T``, from a Gauss-Legendre
    rule; None when the rule needs a rank above the grid's limit.  The
    density is divided by its closed-form total mass.

    The kernel is the Fourier integral ``a sinc(v/a)/pi = (a^2/pi)
    int_0^{1/a} cos(t v) dt``.  With ``t = (1 + tau)/(2a)`` and n nodes it
    is ``(a/2pi) sum_q w_q cos(t_q v)``, and ``cos(t_q (x - y)) = cos(t_q x)
    cos(t_q y) + sin(t_q x) sin(t_q y)`` makes the density a sum of 2n
    separable terms.  ``cos(t v)`` is ``cos(omega (1 + tau))`` in tau with
    ``omega = |v| / (2a)``, so n comes from the largest ``|x - y|``.

    A grid's trapezoid sum of this density is its mass only while the step
    stays below ``2 pi / (1/a + 8.5 sigma)``, the kernel's band ``1/a``
    widened by the envelope's: ``floor(span (1/a + 8.5 sigma) / (2 pi)) +
    2`` cells on an axis of that span (``_sinc_cells``).  That makes the
    integral right, not the density resolved point by point.
    """
    b = ctx.b_p_s
    a = math.sqrt(-ctx.k_p_s)
    omega = max(x.max() - y.min(), y.max() - x.min()) / (2.0 * a)
    # the quadrature while its rank is at most a third of the points on the
    # two axes, and at most _SINC_MAX_RANK, near the crossovers the README lists
    n = _quadrature_nodes(omega, min((x.size + y.size) // 3, _SINC_MAX_RANK) // 2)
    if n is None:
        return None
    mass = _sinc_normalization(m, b, -ctx.k_p_s)
    tau, weights = _gauss_legendre(n)
    t = (1.0 + tau) / (2.0 * a)
    root_w = np.tile(np.sqrt(weights * a / (2.0 * math.pi * mass)), 2)

    def factor(w: np.ndarray) -> np.ndarray:
        phase = np.multiply.outer(w, t)
        return (np.hstack((np.cos(phase), np.sin(phase)))
                * np.outer(np.exp(0.5 * _log_gamma_density(m, b, w)), root_w))

    return factor


def _sinc_normalization(m: float, b: float, kt: float) -> float:
    """Total mass of the raw sinc-branch expression, in closed form.

    Writing ``a sinc(v/a)/pi`` as ``(a^2/2pi) int_{-1/a}^{1/a} e^{itv} dt``
    turns both intensity integrals into gamma-type Fourier integrals; the
    substitution ``t = tan(theta)/(2b)`` and Legendre's duplication formula
    leave ``kt * I_x(1/2, m/2)`` with ``x = 4b^2 / (4b^2 + kt)``, the
    regularized incomplete beta function.  It tends to ``kt = |K|`` as m
    grows.
    """
    total = kt * regularized_beta(4.0 * b * b / (4.0 * b * b + kt), 0.5, m / 2.0)
    if not total > 0:
        raise NumericsError(
            f"sinc-branch normalization is not positive for m={m}, b={b}, kt={kt}")
    return total


def _axis_factor(f: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """A factor table on a whole axis, from its rows at the ``keep`` points:
    the other rows are 0, and so are the entries ``_flush_below`` drops."""
    f = _flush_below(f)
    if keep.all():
        return f
    out = np.zeros((keep.size, f.shape[1]))
    out[keep] = f
    return out


def _paired_values(ctx: OrderingContext, m_pairs: float, ws: np.ndarray,
                   wi: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Paired density on the grid of the 1-D axes ``ws`` (rows) and ``wi``
    (columns), both non-negative.

    Both branches are products of per-axis factors: the result is ``(L,
    R)`` with the grid ``L @ R.T``, from the factor of ``_bessel_factor`` (a
    series, rank K) or ``_sinc_factor`` (a quadrature, rank 2n), unless the
    rank would exceed the limit of that branch; then ``_bessel_distinct`` or
    ``_sinc_direct`` evaluates the grid and the result is ``(grid, None)``.
    Equal axes give ``(L, L)``, which BLAS multiplies as a symmetric
    product.  A point ``_gamma_support`` drops is a zero row of its factor.
    The sinc branch is divided by its closed-form total mass.

    The last result is kept, as read-only arrays, and returned again for the
    same state, ordering and axes under the same limits: a paired-only
    grid and the noise convolution of the same axes share one evaluation.
    """
    return _last_paired_values(ctx, float(m_pairs), ws.tobytes(), wi.tobytes(),
                               (_SERIES_MAX_TERMS, _SINC_MAX_RANK, _FLUSH_FLOOR))


@functools.lru_cache(maxsize=1)
def _last_paired_values(ctx: OrderingContext, m_pairs: float, ws_bytes: bytes,
                        wi_bytes: bytes,
                        limits: tuple[int, int, float]) -> tuple[np.ndarray, np.ndarray | None]:
    """``_paired_values`` on the axes held in ``ws_bytes`` and
    ``wi_bytes``; ``limits``, the rank limits and the flush floor in
    force, only keys the cache."""
    values = _evaluate_paired(ctx, m_pairs, np.frombuffer(ws_bytes), np.frombuffer(wi_bytes))
    for a in values:
        if a is not None:
            a.setflags(write=False)
    return values


def _evaluate_paired(ctx: OrderingContext, m_pairs: float, ws: np.ndarray,
                     wi: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The uncached body of ``_paired_values``."""
    if ctx.k_p_s == 0.0:
        raise DomainError("paired density at the branch boundary s = s_th is "
                          "singular (both closed forms are); use a one-sided offset")
    bessel = ctx.k_p_s > 0
    rows, x = _gamma_support(m_pairs, ws)
    cols, y = _gamma_support(m_pairs, wi)
    if not (rows.any() and cols.any()):
        return np.zeros((ws.size, wi.size)), None
    factor = (_bessel_factor if bessel else _sinc_factor)(ctx, m_pairs, x, y)
    if factor is None:
        out = np.zeros((ws.size, wi.size))
        out[np.ix_(rows, cols)] = (_bessel_distinct if bessel else _sinc_direct)(
            ctx, m_pairs, x, y)
        return _flush_below(out), None
    f_s = _axis_factor(factor(x), rows)
    if np.array_equal(ws, wi):
        return f_s, f_s
    return f_s, _axis_factor(factor(y), cols)


def _as_grid(values: tuple[np.ndarray, np.ndarray | None]) -> np.ndarray:
    """A paired density ``(L, R)`` or ``(grid, None)`` as a grid."""
    left, right = values
    return left if right is None else left @ right.T


@_overflow_raises
def paired_qdii(ctx: OrderingContext, m_pairs: float, w_s: float, w_i: float) -> float:
    """Paired-field quasi-distribution value at one intensity point.

    Dispatches on the sign of ``ctx.k_p_s``: the non-negative Bessel form
    below the threshold ordering, the signed sinc form above it, divided by
    its total mass, ``|K| I_x(1/2, m/2)`` in closed form.  The branch
    boundary itself is excluded (both closed forms are singular there).
    """
    if w_s < 0 or w_i < 0:
        raise DomainError("paired_qdii: intensities must be >= 0")
    # uncached, so that a point does not evict the density a grid keeps
    point = np.array([[w_s], [w_i]], dtype=float)
    return float(_as_grid(_evaluate_paired(ctx, m_pairs, *point))[0, 0])


@_overflow_raises
def thermal_qdii(m_modes: float, b_mean: float, s: float, w: float) -> float:
    """Multi-thermal noise density at ordering ``s`` (a gamma density with
    shape ``m_modes`` and scale ``b_mean + (1-s)/2``); the scalar form of
    ``_thermal_values``."""
    _check_ordering(s)
    if w < 0:
        raise DomainError(f"thermal_qdii: intensity must be >= 0, got {w}")
    b_s = b_mean + (1.0 - s) / 2.0
    if not (b_mean >= 0 and b_s > 0):
        raise DomainError(f"thermal_qdii: b_mean {b_mean} must be >= 0 and the "
                          f"effective scale b_mean + (1-s)/2 = {b_s} > 0")
    return float(_thermal_values(m_modes, b_s, np.array([w], dtype=float))[0])


# ---------------------------------------------------------------------------
# full-field grid
# ---------------------------------------------------------------------------

def _binned_thermal_kernel(m_modes: float, b_scaled: float, h: float,
                           n_bins: int) -> np.ndarray:
    """Gamma noise measure discretized onto a uniform lattice of pitch h.

    Bin k carries the exact mass of [(k-1/2)h, (k+1/2)h); bin 0 therefore
    absorbs everything the grid resolution cannot distinguish from zero
    shift, which includes the near-1 atom of nearly-zero-shape components.
    """
    # the CDF at the bin edges, differenced; its running maximum keeps a
    # rounding of P near 1 from making a bin negative
    cdf = regularized_gamma_p(m_modes, np.arange(0.5, n_bins) * h / b_scaled)
    return np.diff(np.maximum.accumulate(cdf), prepend=0.0)


def _thermal_values(m_modes: float, b_scaled: float, w: np.ndarray) -> np.ndarray:
    """Gamma density of shape ``m_modes`` and scale ``b_scaled`` on an array
    of intensities ``w >= 0``, 0 at the points ``_gamma_support`` drops."""
    keep, _ = _gamma_support(m_modes, w)
    out = np.zeros(w.shape)
    out[keep] = np.exp(_log_gamma_density(m_modes, b_scaled, w[keep]))
    return out


def _noise_only_grid(params: TwinBeamParams, s: float,
                     ws: np.ndarray, wi: np.ndarray) -> QdiiGrid:
    """Pairs absent: the QDII factorizes into two thermal densities; an arm
    with no field is a point mass, which ``_gamma_support`` rejects."""
    sigma = (1.0 - s) / 2.0
    f_s = _thermal_values(params.m_noise_s, params.b_noise_s + sigma, ws)
    f_i = _thermal_values(params.m_noise_i, params.b_noise_i + sigma, wi)
    return _checked_grid(ws, wi, np.outer(f_s, f_i), s)


def _checked_grid(ws: np.ndarray, wi: np.ndarray, values: np.ndarray, s: float,
                  ctx: OrderingContext | None = None, m_pairs: float = 0.0) -> QdiiGrid:
    """The grid, once its trapezoid integral is within 5 % of 1.  ``values``
    is handed over, C-ordered and owning its memory: it is set read-only,
    so the grid keeps it uncopied.  On the sinc branch (``ctx.k_p_s < 0``)
    the error names the cells that branch needs, ``floor(span (1/a + 8.5
    sigma) / (2 pi)) + 2`` (``_sinc_cells``): at that count the trapezoid
    sum of the paired density is its mass, though the density itself is
    not resolved point by point."""
    values.setflags(write=False)
    try:
        grid = QdiiGrid(ws, wi, values, s)
    except ValidationError as exc:  # axes and s are checked: a value is not finite
        raise NumericsError(f"joint_qdii_grid: {exc}: a value passes the double range") from exc
    mass = grid.normalization
    if abs(mass - 1.0) > NORMALIZATION_TOL:
        advice = "enlarge or refine the axes"
        if ctx is not None and ctx.k_p_s < 0:
            span = max(ws[-1] - ws[0], wi[-1] - wi[0])
            advice = (f"the sinc branch needs {_sinc_cells(ctx, m_pairs, span)} cells "
                      f"on an axis spanning {span:.6g}")
        raise GridResolutionError(
            f"joint_qdii_grid: grid integral {mass:.4f} deviates "
            f"from 1 by more than 5%; {advice}")
    return grid


def _sinc_cells(ctx: OrderingContext, m: float, span: float) -> int:
    """Fewest cells of a uniform axis spanning ``span`` on which the
    trapezoid sum of the sinc-branch density of m modes is its integral.

    By Poisson summation the sum over a grid of step h is the integral plus
    the density's transform at the multiples of ``2 pi / h``.  Along ``x -
    y`` the kernel is band-limited to ``1/a``, ``a = sqrt(-k_p_s)``; the
    envelope ``sqrt(g(x) g(y))`` widens that band by the transform of
    ``sqrt(g)``, whose squared magnitude ``(1 + 4 b^2 t^2)^(-(m+1)/2)`` is
    close to a Gaussian of width ``sigma = 1 / (2 b sqrt(m+1))`` for many
    modes.  The first alias, at ``2 pi / h``, holds about ``erfc(d / (sigma
    sqrt 2))`` of the mass, d its distance past the band edge ``1/a``, so
    ``h < 2 pi / (1/a + 8.5 sigma)`` leaves it below eps.  That is
    ``floor(span (1/a + 8.5 sigma) / (2 pi)) + 2`` cells.  With ``h``
    just below ``2 pi a``, the band alone, the alias is about half the mass
    on each side: the sum is ``2 floor(h / (2 pi a)) + 1`` times the mass
    past that step, and more than 1 just below it.  The count makes the
    integral right; it does not resolve the density point by point, which
    at this step has about one sample per lobe of the kernel.
    """
    band = 1.0 / math.sqrt(-ctx.k_p_s) + 8.5 / (2.0 * ctx.b_p_s * math.sqrt(m + 1.0))
    return math.floor(span * band / (2.0 * math.pi)) + 2


def _is_uniform(axis: np.ndarray) -> bool:
    d = np.diff(axis)
    return bool(d.max() - d.min() <= 1e-9 * d.mean())


def _noise_toeplitz(m_modes: float, b_scaled: float, h: float,
                    n_bins: int) -> np.ndarray:
    """Lower-triangular Toeplitz matrix of one arm's binned noise measure:
    ``T @ x`` convolves ``x`` with it along the lattice.  A noise-free arm
    gives the identity."""
    if m_modes > 0:
        kernel = _binned_thermal_kernel(m_modes, b_scaled, h, n_bins)
    else:
        kernel = np.zeros(n_bins)
        kernel[0] = 1.0
    return _toeplitz(kernel, n_bins)


def _triangular_product(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``t @ m`` for ``t`` the last rows of a lower-triangular matrix: row r
    of ``t`` is 0 past column ``lo + r``, ``lo = columns - rows``.  Each
    block of ``_TRIANGLE_ROWS`` rows is multiplied by the columns up to its
    last row's diagonal only, so the zero triangle costs no multiply-adds
    but those within the blocks (``_triangular_madds``).  Only zero terms
    are dropped, so no sum has more terms than the dense product's."""
    rows, lo = t.shape[0], t.shape[1] - t.shape[0]
    out = np.empty((rows, m.shape[1]))
    for a in range(0, rows, _TRIANGLE_ROWS):
        b = min(a + _TRIANGLE_ROWS, rows)
        np.matmul(t[a:b, :lo + b], m[:lo + b], out=out[a:b])
    return out


def _triangular_madds(rows: int, columns: int) -> int:
    """Multiply-adds of ``_triangular_product`` per column of ``m``, for
    ``t`` of shape (rows, columns)."""
    ends = [min(a + _TRIANGLE_ROWS, rows) for a in range(0, rows, _TRIANGLE_ROWS)]
    return sum((b - a) * (columns - rows + b) for a, b in zip([0, *ends], ends))


def _toeplitz_chain(t_s: np.ndarray, p: np.ndarray, t_i: np.ndarray) -> np.ndarray:
    """``t_s @ p @ t_i.T`` for two triangular ``t_s``, ``t_i`` (see
    ``_triangular_product``), the right product first, ``t_s @ (t_i @
    p.T).T``, in ``c_i n_s + c_s rows_i`` multiply-adds, ``c`` the
    ``_triangular_madds`` of each and ``n_s`` the columns of ``t_s``.  The
    grid is C-ordered, so ``QdiiGrid`` keeps it uncopied.  On two windows
    from 0 the other order costs the same (README, numerical notes)."""
    return _triangular_product(t_s, _triangular_product(t_i, p.T).T)


def _lattice(axis: np.ndarray) -> tuple[int, float, np.ndarray]:
    """The convolution lattice of a uniform axis of pitch h: the axis itself,
    after the ``lo`` points ``axis[0] - k h`` (k = lo, ..., 1, at most four
    times the axis length) that reach down toward zero, clipped at 0.
    Returns ``(lo, h, lattice)``; an axis from 0 is its own lattice, so its
    paired density is the one a paired-only grid of that axis evaluates."""
    h = float(axis[1] - axis[0])
    lo = min(int(round(axis[0] / h)), axis.size * 4)
    return lo, h, np.maximum(np.concatenate((axis[0] - h * np.arange(lo, 0, -1), axis)), 0.0)


def _convolve_uniform(params: TwinBeamParams, ctx: OrderingContext,
                      ws: np.ndarray, wi: np.ndarray) -> np.ndarray:
    """Convolution with the noise measures binned onto the grid lattice.

    The paired density is sampled on ``_lattice``, the axes extended down
    toward zero so that noise shifts can move mass into the requested
    window.  The noise kernel is the outer product of the two arms' per-bin
    masses, so the convolution separates into ``T_s @ paired @ T_i^T``; only
    the rows of each Toeplitz matrix that fall in the window are formed, and
    every product with one skips its zero triangle (``_triangular_product``).
    A paired density given as factors ``L @ R.T`` is convolved as ``(T_s @
    L) @ (T_i @ R).T`` or as ``T_s @ (L @ R.T) @ T_i.T``, whichever does
    fewer multiply-adds, the three-factor product counted in the one order
    ``_toeplitz_chain`` takes.  ``L @ R.T`` is flushed as every operand is
    (``_flush_below``).  Every path returns a new C-ordered array.
    """
    sigma = (1.0 - ctx.s) / 2.0
    lo_s, h_s, lat_s = _lattice(ws)
    lo_i, h_i, lat_i = _lattice(wi)
    left, right = _paired_values(ctx, params.m_pairs, lat_s, lat_i)
    t_s = _noise_toeplitz(params.m_noise_s, params.b_noise_s + sigma, h_s, lat_s.size)[lo_s:]
    t_i = _noise_toeplitz(params.m_noise_i, params.b_noise_i + sigma, h_i, lat_i.size)[lo_i:]
    if right is not None:
        (rows_s, n_s), (rows_i, n_i) = t_s.shape, t_i.shape
        c_s, c_i = _triangular_madds(rows_s, n_s), _triangular_madds(rows_i, n_i)
        rank = left.shape[1]
        if rank * (c_s + c_i + rows_s * rows_i) <= n_s * n_i * rank + c_i * n_s + c_s * rows_i:
            return _triangular_product(t_s, left) @ _triangular_product(t_i, right).T
        left = _flush_below(left @ right.T)
    return _toeplitz_chain(t_s, left, t_i)


@_overflow_raises
def joint_qdii_grid(params: TwinBeamParams, s: float,
                    w_s_axis, w_i_axis, *,
                    paired_only: bool = False) -> QdiiGrid:
    """Full-field QDII on a rectangular intensity grid.

    The paired density (see ``_paired_values``: a product of per-axis
    factor tables on both branches, or a grid where the rank would pass the
    branch's limit) is convolved with the per-arm noise densities: the
    noise measures are binned onto the grid lattice (their sub-resolution
    mass lands in the zero-shift bin) and the convolution is a product with
    one lower-triangular Toeplitz matrix per arm, applied to the factors or
    to their product, whichever needs fewer multiply-adds.  The
    unresolvably-small noise shifts of reconstructed states thus collapse
    onto a point mass at zero, which keeps the nearly-empty noise arms
    well-behaved.  Both axes are checked before any evaluation
    (``ValidationError``).  The convolution needs uniform axes and raises
    ``DomainError`` otherwise; paired-only and noise-free grids accept any
    increasing axes.  Above the threshold ordering the paired density is
    the sinc form divided by its closed-form total mass.
    """
    _check_ordering(s)
    ws = np.asarray(w_s_axis, dtype=float)
    wi = np.asarray(w_i_axis, dtype=float)
    _check_axis("joint_qdii_grid: w_s_axis", ws)
    _check_axis("joint_qdii_grid: w_i_axis", wi)
    if params.m_pairs == 0:
        if paired_only:
            raise DomainError("joint_qdii_grid: no paired component to isolate")
        return _noise_only_grid(params, s, ws, wi)
    ctx = OrderingContext.for_params(params.b_pairs, s)
    if paired_only or (params.m_noise_s == 0 and params.m_noise_i == 0):
        values = _as_grid(_paired_values(ctx, params.m_pairs, ws, wi))
    elif _is_uniform(ws) and _is_uniform(wi):
        values = _convolve_uniform(params, ctx, ws, wi)
    else:
        raise DomainError(
            "joint_qdii_grid: the noise convolution needs uniformly spaced "
            "axes; use np.linspace axes or paired_only=True")
    return _checked_grid(ws, wi, values, s, ctx, params.m_pairs)
