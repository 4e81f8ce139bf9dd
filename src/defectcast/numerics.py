"""Shared numerical kernels.

Least squares on a pivoted QR, the distribution functions needed by the
screening and regression layers (Student t, F, studentized range), and a
small deterministic PRNG used for every stochastic step in the package.

The least-squares kernels call direct LAPACK ``dgeqp3``/``dorgqr``/``dtrtrs``
with the arguments that scipy.linalg's own wrappers pass, so every factor and
solution is bit for bit the wrapper's, without the wrapper's per-call
overhead.  ``dgeqp3`` is the BLAS-3 column-pivoted QR of Quintana-Orti, Sun
and Bischof (SIAM J. Sci. Comput. 19(5), 1998).  Both solvers run one shared
input check: a 2-d design, a 1-d target with one entry per design row, and
finite values, else NumericalError.

Both solvers also take a stack of S designs (S x n x p) and targets
(S x n), and a 2-d call is a stack of one through the same body.  A stack
runs the checks and the workspace lookups once, and takes the triangles,
diagonals, rank cutoffs and pivots of all its factors at once.  Each
matrix keeps its own ``dgeqp3``/``dorgqr``/``dtrtrs`` calls, and every
product over its n rows (``Q[:, :rank].T @ y``, ``z @ w``, the residual)
stays a 2-d product of that one matrix.  So each LAPACK and BLAS call sees
the operands a lone solve would pass, and a stacked solution has the bits
of its matrix solved alone.  A stack raises a fault when any of its
matrices faults; the resampling loop, not the solvers, orders faults by
split.

The t and F CDFs are scipy.special's ``stdtr`` and ``fdtr``, the Cephes
routines (Moshier, *Methods and Programs for Mathematical Functions*, 1989).
Callers form a p-value as a tail through them -- ``2 * t_cdf(-|t|, df)`` and
``P(F(d1, d2) > f) = f_cdf(1 / f, d2, d1)`` -- so small p-values keep their
digits instead of rounding to 0 in ``1 - cdf``.  The studentized range's
upper tail evaluates the classical double integral with one fixed 64-node
Gauss-Legendre rule in each direction, each on a window centred on its
integrand rather than on the chi density, and writes the range's tail as a
sum of nonnegative terms, so no tail is formed by subtracting from 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import (
    dgeqp3 as _dgeqp3,
    dorgqr as _dorgqr,
    dtrtrs as _dtrtrs,
)
from scipy.special import (
    fdtr as _fdtr,
    ndtr as _ndtr,
    stdtr as _stdtr,
)

from ._errors import NumericalError

__all__ = [
    "LeastSquaresSolution",
    "RandomStream",
    "solve_least_squares",
    "min_norm_least_squares",
    "unscaled_covariance",
    "dot",
    "t_cdf",
    "f_cdf",
    "studentized_range_sf",
    "studentized_range_cdf",
]


# ---------------------------------------------------------------------------
# deterministic PRNG
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
# Weyl increment and output-mixing multipliers of SplitMix64.
_WEYL = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Distinct odd constant used only for deriving child-stream seeds.
_SPLIT = 0xD1B54A32D192ED03
# The same constants and the finalizer's shifts as numpy scalars, for the
# vectorized stream.
_U_WEYL, _U_MIX1, _U_MIX2 = np.uint64(_WEYL), np.uint64(_MIX1), np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class RandomStream:
    """Counter-based SplitMix64 stream.

    The i-th raw output (i = 1, 2, ...) is mix64(seed + i * WEYL) where all
    arithmetic wraps modulo 2**64 and mix64 is the standard SplitMix64
    finalizer.  Everything is plain unsigned 64-bit integer arithmetic, so an
    identical seed yields an identical stream on every platform and library
    version.  Child streams for concurrency or per-repetition seeding come
    from ``split(index)``: child seed = mix64(seed + (index + 1) * SPLIT)
    with SPLIT a different odd constant, so child streams never alias the
    parent's outputs.

    Uniform doubles take the top 53 bits of a raw output, giving values in
    [0, 1).  Normal deviates use the Box-Muller transform (two uniforms per
    pair, no cached spare).  Random subsets and orders are drawn as keys:
    the smallest m of n uniforms index a uniform random m-subset, their
    argsort a uniform random order (Knuth, *TAOCP* Vol. 2, section 3.4.2).
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise NumericalError("RandomStream seed must be an integer")
        self._seed = int(seed) & _MASK64
        self._count = 0

    @property
    def seed(self) -> int:
        return self._seed

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform doubles in [0, 1)."""
        if n < 0:
            raise NumericalError("draw count must be nonnegative")
        u = _uniforms(np.uint64(self._seed), self._count, n)
        self._count += n
        return u

    def normals(self, n: int) -> np.ndarray:
        """n standard normal deviates via Box-Muller."""
        if n < 0:
            raise NumericalError("draw count must be nonnegative")
        pairs = (n + 1) // 2
        u1 = self.uniforms(pairs)
        u2 = self.uniforms(pairs)
        # 1 - u1 lies in (0, 1], keeping the log argument positive.
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = 2.0 * math.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n]

    def split_subsets(self, count: int, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Row i: the indices of the m smallest of ``split(i).uniforms(n)``
        (0 < m <= n; exactly m even where keys tie) and of the others, sorted."""
        seeds = np.array([self.split(i).seed for i in range(count)], dtype=np.uint64)
        rows = np.argpartition(_uniforms(seeds[:, None], 0, n), m - 1)
        small, rest = rows[:, :m], rows[:, m:]
        small.sort()
        rest.sort()
        return small, rest

    def split(self, index: int) -> "RandomStream":
        """Independent child stream for the given nonnegative index."""
        if index < 0:
            raise NumericalError("split index must be nonnegative")
        child = _mix64((self._seed + (index + 1) * _SPLIT) & _MASK64)
        return RandomStream(child)


def _uniforms(seed, start: int, n: int) -> np.ndarray:
    """Raw outputs ``start + 1 .. start + n`` of the streams of a uint64
    ``seed`` (a scalar, or a column of seeds for one row each) as uniform
    doubles: the top 53 bits of each, times 2**-53."""
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= _U_WEYL
    z = z + seed
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    z >>= _U11
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


# ---------------------------------------------------------------------------
# least squares
# ---------------------------------------------------------------------------

# ``dot`` sums a longer product over consecutive chunks of this many elements
_DOT_CHUNK = 8192


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """``float(x @ y)`` of two 1-d arrays, with the same bits under any BLAS
    thread count.  OpenBLAS splits a ``ddot`` of more than about 10,000
    elements over its threads, whose partial sums then add up in another
    order (Demmel and Nguyen, *Fast Reproducible Floating-Point Summation*,
    ARITH 2013).  So up to ``_DOT_CHUNK`` elements this is ``x @ y``, and
    a longer product is the sum, in order, of ``x @ y`` over consecutive
    chunks of that size."""
    if x.shape[0] <= _DOT_CHUNK:
        return float(x @ y)
    total = 0.0
    for i in range(0, x.shape[0], _DOT_CHUNK):
        total += float(x[i : i + _DOT_CHUNK] @ y[i : i + _DOT_CHUNK])
    return total


@dataclass(frozen=True)
class LeastSquaresSolution:
    """A full-rank fit and its factor: ``design[:, piv] = Q @ r``.  The fit
    of a stack of S designs has a leading axis of S on every field but
    ``rank``: coefficients S x p, one residual sum of squares per design,
    and each design's ``r`` and ``piv``."""

    coefficients: np.ndarray
    residual_sum_squares: float | np.ndarray
    rank: int
    r: np.ndarray
    piv: np.ndarray


_EPS = float(np.finfo(float).eps)


# how many (routine, argument shapes) keys keep their LAPACK workspace size
_WORKSPACE_SHAPES = 256


@lru_cache(maxsize=_WORKSPACE_SHAPES)
def _workspace(routine, shapes: tuple[tuple[int, ...], ...]) -> int:
    """The ``lwork`` that a ``lwork=-1`` query of ``routine`` returns for
    array arguments of these shapes.  LAPACK sizes a workspace from the
    dimensions alone, so one query serves every call of those shapes."""
    query = routine(*(np.zeros(shape) for shape in shapes), lwork=-1)
    return int(query[-2][0])


def _lapack(routine, name: str, lwork: int, *args, **kwargs):
    """``routine``'s outputs before ``work`` and ``info``, run with a
    workspace of ``lwork``.  A negative ``info`` (an illegal argument)
    raises ValueError."""
    out = routine(*args, lwork=lwork, **kwargs)
    if out[-1] < 0:
        raise ValueError(f"illegal value in {-out[-1]}th argument of internal {name}")
    return out[:-2]


@lru_cache(maxsize=_WORKSPACE_SHAPES)
def _below_diagonal(k: int, p: int) -> np.ndarray:
    """The read-only k x p mask of the entries below the diagonal."""
    mask = np.tri(k, p, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _pivoted_qr(designs: np.ndarray):
    """Economic column-pivoted QR of each design of a stack (S x n x p),
    ``designs[s][:, piv[s]] = q[s] @ r[s]`` with 0-based ``piv``, and each
    design's numerical rank.  ``q`` holds each design's n x k factor as
    LAPACK returns it, k = min(n, p); ``r`` is S x k x p, ``piv`` S x p
    and ``rank`` a list of S ints.  Size-0 designs get empty factors
    without a LAPACK call.

    Each design gets its own ``dgeqp3`` and ``dorgqr`` calls; the
    triangles, the diagonals and the rank cutoff are taken for the whole
    stack.  Each ``r[s]`` has ``np.triu``'s bytes and C order:
    ``_solve_upper`` picks its ``dtrtrs`` arguments by memory order."""
    stack, n, p = designs.shape
    k = min(n, p)
    if not (stack and k):
        q = [np.empty((n, k)) for _ in range(stack)]
        piv = np.tile(np.arange(p, dtype=np.int32), (stack, 1))
        return q, np.empty((stack, k, p)), piv, [0] * stack
    # the designs share their shapes, so each routine's workspace size
    # comes from one lookup
    geqp3 = _workspace(_dgeqp3, ((n, p),))
    orgqr = _workspace(_dorgqr, ((n, k), (k,)))
    r = np.empty((stack, k, p))
    piv = np.empty((stack, p), dtype=np.int32)
    q = []
    for s, design in enumerate(designs):
        qr, piv[s], tau = _lapack(_dgeqp3, "geqp3", geqp3, design)
        # r is copied out before dorgqr overwrites qr with q
        r[s] = qr[:k]
        q.append(_lapack(_dorgqr, "gorgqr/gungqr", orgqr, qr[:, :k], tau, overwrite_a=1)[0])
    piv -= 1
    np.copyto(r, 0.0, where=_below_diagonal(k, p))
    diag = abs(r.diagonal(0, 1, 2))
    rank = np.add.reduce(diag > max(n, p) * _EPS * diag[:, :1], axis=1)
    return q, r, piv, rank.tolist()


def _solve_upper(r: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """x with ``r @ x = b`` (``r.T @ x = b`` for trans=1), r upper
    triangular.  A C-ordered r goes to LAPACK as its lower-triangular
    transpose.  An empty b gets an empty x without a LAPACK call."""
    if b.size == 0:
        return np.empty_like(b)
    if r.flags.f_contiguous:
        x, info = _dtrtrs(r, b, lower=False, trans=trans)
    else:
        x, info = _dtrtrs(r.T, b, lower=True, trans=not trans)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _checked_inputs(design, target) -> tuple[np.ndarray, np.ndarray, bool]:
    """Both solvers' input check: a 2-d float design and a 1-d float target
    with one entry per design row, or stacks of S of them (S x n x p and
    S x n), with finite values only, else NumericalError.  Returns the
    stacks, one design being a stack of one, and whether it was one."""
    x = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    single = x.ndim == 2 and y.ndim == 1
    if single:
        x, y = x[None], y[None]
    if x.ndim != 3 or y.ndim != 2:
        raise NumericalError("design must be 2-d and target 1-d, or stacks of them")
    if y.shape != x.shape[:2]:
        raise NumericalError("design and target row counts differ")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NumericalError("non-finite values in least-squares inputs")
    return x, y, single


def solve_least_squares(design, target) -> LeastSquaresSolution:
    """Minimum-RSS coefficients for ``design @ b ~ target``, or for each
    design and target of a stack.

    Solved through a column-pivoted QR factorization, never through the
    normal equations.  A design's faults come in this order: non-finite
    values, too few rows, then a numerical rank below its column count,
    which raises NumericalError naming the first dependent column in
    ``column``.  A stack raises such a fault when any design has one.
    """
    x, y, single = _checked_inputs(design, target)
    stack, n, p = x.shape
    if n < p:
        raise NumericalError(f"under-determined system: {n} rows for {p} columns")
    q, r, piv, rank = _pivoted_qr(x)
    deficient = [s for s, kept in enumerate(rank) if kept < p]
    if deficient:
        s = deficient[0]
        column = int(piv[s, rank[s]])
        err = NumericalError(
            f"design is rank deficient (rank {rank[s]} of {p}): "
            f"column {column} is linearly dependent on the others"
        )
        err.column = column
        raise err
    coef, rss = np.empty((stack, p)), np.empty(stack)
    for s, (qs, rs, order, xs, ys) in enumerate(zip(q, r, piv, x, y)):
        coef[s, order] = _solve_upper(rs, qs.T @ ys)
        residual = ys - xs @ coef[s]
        rss[s] = dot(residual, residual)
    if single:
        return LeastSquaresSolution(coef[0], float(rss[0]), p, r[0], piv[0])
    return LeastSquaresSolution(coef, rss, p, r, piv)


def min_norm_least_squares(design, target) -> np.ndarray:
    """The minimum-norm minimizer of ``||design @ b - target||``, any rank,
    or of each design and target of a stack.

    Numerical rank comes from the same column-pivoted QR and cutoff as
    ``solve_least_squares``.  The kept rows of R are factored once more (a
    complete orthogonal decomposition), so directions the data leave
    undetermined get exactly zero weight instead of rounding noise.  The
    designs of a stack that share a rank share that second factorization
    call.  A stack with a non-finite value raises NumericalError.
    """
    x, y, single = _checked_inputs(design, target)
    q, r, piv, rank = _pivoted_qr(x)
    coef = np.empty(x.shape[::2])
    for kept in sorted(set(rank)):
        group = [s for s, each in enumerate(rank) if each == kept]
        # x[:, piv] = q @ r, so the least-squares solutions u solve
        # r[:kept] @ u = q[:, :kept].T @ y; with r[:kept].T[:, piv2] = z @ t
        # the smallest is u = z @ w where t.T @ w = (q[:, :kept].T @ y)[piv2]
        z, t, piv2, _ = _pivoted_qr(r[group, :kept].transpose(0, 2, 1))
        for s, zs, ts, order in zip(group, z, t, piv2):
            w = _solve_upper(ts, (q[s][:, :kept].T @ y[s])[order], trans=1)
            coef[s, piv[s]] = zs @ w
    return coef[0] if single else coef


def unscaled_covariance(solution: LeastSquaresSolution) -> np.ndarray:
    """(X'X)^-1 for the design ``solution`` was fitted on, for coefficient
    SEs, from the pivoted QR factor the fit already computed."""
    p = solution.r.shape[1]
    rinv = _solve_upper(solution.r, np.eye(p))
    m = rinv @ rinv.T
    cov = np.empty((p, p))
    cov[np.ix_(solution.piv, solution.piv)] = m
    return cov


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------


def t_cdf(x: float, df: float) -> float:
    """CDF of Student's t with df degrees of freedom."""
    if df <= 0:
        raise NumericalError(f"t_cdf needs df > 0, got {df}")
    if math.isnan(x):
        raise NumericalError("t_cdf got NaN")
    return float(_stdtr(df, x))


def f_cdf(x: float, df1: float, df2: float) -> float:
    """CDF of the F distribution with (df1, df2) degrees of freedom."""
    if df1 <= 0 or df2 <= 0:
        raise NumericalError(f"f_cdf needs positive dfs, got ({df1}, {df2})")
    if math.isnan(x):
        raise NumericalError("f_cdf got NaN")
    if x <= 0.0:
        return 0.0
    return float(_fdtr(df1, df2, x))


# ---------------------------------------------------------------------------
# studentized range
# ---------------------------------------------------------------------------


# The fixed rule: 64 Gauss-Legendre nodes on [-1, 1] in each direction.  A
# 32-node rule misses the k = 2 identity by a relative 9e-6.
_NODE_COUNT = 64
# half-width of the z window around w / 2, in standard deviations of z
_Z_HALF_WIDTH = 9.0
# half-width of the s window, in standard deviations of the integrand in s
_S_HALF_WIDTH = 12.0


@lru_cache(maxsize=1)
def _gl_rule():
    nodes, weights = np.polynomial.legendre.leggauss(_NODE_COUNT)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _checked_range_arguments(q: float, k: int, df: float, name: str) -> None:
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise NumericalError(f"studentized range needs integer k >= 2, got {k}")
    if df < 1:
        raise NumericalError(f"studentized range needs df >= 1, got {df}")
    if math.isnan(q):
        raise NumericalError(f"{name} got NaN")


def studentized_range_sf(q: float, k: int, df: float) -> float:
    """Upper tail P(Q > q) of the studentized range for k groups and df error
    degrees of freedom.

    Q = R / S, with R the range of k iid standard normals and S the scale
    sqrt(chi2_df / df) (Lund and Lund, Algorithm AS 190, 1983; Copenhaver
    and Holland, J. Statist. Comput. Simul. 30, 1988).  The range's tail at
    w = q * s is

        P(R > w) = k * int phi(z) Phi(z - w)
                       * sum_{i=0}^{k-2} Phi(z)^i (Phi(z) - Phi(z - w))^(k-2-i) dz,

    a sum of nonnegative terms, so a tail far below the double precision of
    1 keeps its digits.  Both integrals use one fixed 64-node Gauss-Legendre
    rule on a window centred on the integrand: z on w / 2 +- 9, where
    phi(z) Phi(z - w) peaks, and s on s* +- 12 / sqrt(2 (df + q^2 / 2))
    (clipped at 0) with s* = sqrt((df - 1) / (df + q^2 / 2)), the peak of
    the chi density times the range's Gaussian-like tail.  A window on the
    chi density alone misses the mass of large q, where the tail comes from
    small s.  At k = 2 this matches 2 * t_cdf(-q / sqrt(2), df) to a
    relative 1e-11 for df from 1 to 7800.
    """
    _checked_range_arguments(q, k, df, "studentized_range_sf")
    if q <= 0.0:
        return 1.0
    if math.isinf(q):
        return 0.0

    df = float(df)
    nodes, weights = _gl_rule()
    # sqrt(df + q^2 / 2) without overflowing q^2
    spread = math.hypot(math.sqrt(df), q / math.sqrt(2.0))
    centre = math.sqrt(df - 1.0) / spread
    half = _S_HALF_WIDTH / (math.sqrt(2.0) * spread)
    lo = max(centre - half, 0.0)
    span = 0.5 * (centre + half - lo)
    s = lo + span * (nodes + 1.0)
    ln_norm = (df / 2.0) * math.log(df) - (df / 2.0 - 1.0) * math.log(2.0) - math.lgamma(df / 2.0)
    density = np.exp(ln_norm + (df - 1.0) * np.log(s) - df * s * s / 2.0)

    # one row of z nodes per scale node
    w = (q * s)[:, None]
    z = 0.5 * w + _Z_HALF_WIDTH * nodes
    top = _ndtr(z)
    low = _ndtr(z - w)
    between = top - low
    np.maximum(between, 0.0, out=between)
    # sum_i top^i between^(k-2-i) by Horner's rule in top
    terms = np.ones_like(z)
    power = np.ones_like(z)
    for _ in range(k - 2):
        power *= between
        terms *= top
        terms += power
    terms *= low
    terms *= np.exp(-0.5 * z * z)
    range_tail = (k * _Z_HALF_WIDTH / math.sqrt(2.0 * math.pi)) * (terms @ weights)
    return min(span * float(weights @ (density * range_tail)), 1.0)


def studentized_range_cdf(q: float, k: int, df: float) -> float:
    """CDF of the studentized range, ``1 - studentized_range_sf(q, k, df)``.

    A p-value is the upper tail itself; this form loses every digit of a
    tail below about 1e-16.
    """
    _checked_range_arguments(q, k, df, "studentized_range_cdf")
    return 1.0 - studentized_range_sf(q, k, df)
