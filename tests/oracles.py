"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the package's own numerical routes:
exact rational arithmetic for least squares, direct density integration for
the CDFs, Monte Carlo for the studentized range, textbook formulas computed
with plain loops for the screening statistics.  Two package routes are the
exceptions, kept as references that the current code must equal: the
per-split evaluation path (``cross_validate_by_split`` and its siblings),
a table, an ``ols_fit`` and a ``train_recalibration`` per split, and the
per-matrix least-squares solvers that the stacked ones replaced
(``solve_least_squares_per_matrix`` and its siblings), with the n-row
consequent solve that the cell solve replaced (``consequents_by_rows``).
``perturb_quantification`` is no oracle: it makes
shifted codings for tests from the package's ``RandomStream``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _integrate(fn, lo, hi, panels=48):
    """Composite 48-node Gauss-Legendre integral of fn over [lo, hi]."""
    total = 0.0
    width = (hi - lo) / panels
    for i in range(panels):
        a = lo + i * width
        mid = a + width / 2.0
        half = width / 2.0
        pts = mid + half * _GL_NODES
        total += half * float(np.sum(_GL_WEIGHTS * fn(pts)))
    return total


def t_cdf_by_integration(x: float, df: float) -> float:
    c = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(
        df * math.pi
    )
    dens = lambda t: c * (1.0 + t * t / df) ** (-(df + 1) / 2.0)
    half = _integrate(dens, 0.0, abs(x))
    return 0.5 + half if x >= 0 else 0.5 - half


def f_cdf_by_integration(x: float, df1: float, df2: float) -> float:
    if x <= 0:
        return 0.0
    ln_b = (
        math.lgamma(df1 / 2.0) + math.lgamma(df2 / 2.0) - math.lgamma((df1 + df2) / 2.0)
    )
    c = math.exp((df1 / 2.0) * math.log(df1 / df2) - ln_b)

    # substitute t = u^2 so the df1 = 1 endpoint singularity vanishes
    def dens_u(u):
        t = u * u
        return c * t ** (df1 / 2.0 - 1.0) * (1.0 + df1 * t / df2) ** (
            -(df1 + df2) / 2.0
        ) * 2.0 * u

    return _integrate(dens_u, 0.0, math.sqrt(x))


def t_tail_by_integration(x: float, df: float) -> float:
    """P(T > x) for x > 0: the t density integrated over the tail itself, so
    a tiny tail keeps its relative accuracy."""
    ln_c = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )

    # substitute s = x / w, mapping the tail (x, inf) onto (0, 1]
    def dens_w(w):
        s = x / w
        return np.exp(ln_c - (df + 1) / 2.0 * np.log1p(s * s / df)) * x / (w * w)

    return _integrate(dens_w, 0.0, 1.0)


def f_tail_by_integration(x: float, df1: float, df2: float) -> float:
    """P(F > x) for x > 0: the F density integrated over the tail itself."""
    ln_c = (
        (df1 / 2.0) * math.log(df1 / df2)
        - math.lgamma(df1 / 2.0)
        - math.lgamma(df2 / 2.0)
        + math.lgamma((df1 + df2) / 2.0)
    )

    # substitute t = x / u^2, mapping (x, inf) onto (0, 1] with an integrand
    # that behaves like u^(df2 - 1) at u = 0
    def dens_u(u):
        t = x / (u * u)
        ln_dens = (
            ln_c
            + (df1 / 2.0 - 1.0) * np.log(t)
            - (df1 + df2) / 2.0 * np.log1p(df1 * t / df2)
        )
        return np.exp(ln_dens) * 2.0 * x / u**3

    return _integrate(dens_u, 0.0, 1.0)


def studentized_range_by_simulation(
    q: float, k: int, df: int, replicates: int, seed: int, chunk: int = 1_000_000
) -> float:
    """P(studentized range <= q) estimated from iid replicates."""
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < replicates:
        m = min(chunk, replicates - done)
        z = rng.standard_normal((m, k))
        spread = z.max(axis=1) - z.min(axis=1)
        scale = np.sqrt(rng.chisquare(df, m) / df)
        hits += int(np.count_nonzero(spread <= q * scale))
        done += m
    return hits / replicates


def rational_least_squares(design_rows, target) -> list[float]:
    """Exact normal-equations solve over the rationals (Gaussian elimination)."""
    x = [[Fraction(v) for v in row] for row in design_rows]
    y = [Fraction(v) for v in target]
    n, p = len(x), len(x[0])
    a = [[sum(x[i][r] * x[i][c] for i in range(n)) for c in range(p)] for r in range(p)]
    b = [sum(x[i][r] * y[i] for i in range(n)) for r in range(p)]
    for col in range(p):
        pivot = max(range(col, p), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            raise ZeroDivisionError("singular normal equations")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(p):
            if r == col:
                continue
            factor = a[r][col] / a[col][col]
            for c in range(col, p):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    return [float(b[r] / a[r][r]) for r in range(p)]


def pivoted_qr_by_scipy(design: np.ndarray):
    """scipy.linalg's economic column-pivoted QR and the numerical rank under
    the package's cutoff: the wrapper route that ``numerics`` replaced with
    direct LAPACK calls, whose factors must equal these bit for bit."""
    import scipy.linalg

    q, r, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    n, p = design.shape
    tol = max(n, p) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    return q, r, piv, int(np.count_nonzero(diag > tol))


def lapack_by_query(routine, name: str, lwork, *args, **kwargs):
    """``numerics._lapack`` with a ``lwork=-1`` workspace query before
    every call in place of the given ``lwork``: the path that the cached
    workspace size replaced."""
    query = routine(*args, lwork=-1, **kwargs)
    out = routine(*args, lwork=int(query[-2][0]), **kwargs)
    if out[-1] < 0:
        raise ValueError(f"illegal value in {-out[-1]}th argument of internal {name}")
    return out[:-2]


# The per-matrix least-squares solvers that the stacked ones in ``numerics``
# replaced, as they were: one design and target per call, and their own
# LAPACK calls (``numerics._solve_upper`` still solves one triangle).  The
# stacked solvers must equal them bit for bit, matrix by matrix, and raise
# a fault that one of the faulty matrices raises alone.


def pivoted_qr_per_matrix(design: np.ndarray):
    """Economic column-pivoted QR of one design, ``design[:, piv] = q @ r``
    with 0-based ``piv``, a C-ordered ``r`` and the numerical rank."""
    from scipy.linalg.lapack import dgeqp3, dorgqr

    n, p = design.shape
    k = min(n, p)
    if design.size == 0:
        q, r, piv = np.empty((n, k)), np.empty((k, p)), np.arange(p, dtype=np.int32)
    else:
        qr, piv, tau = lapack_by_query(dgeqp3, "geqp3", None, design)
        piv -= 1
        # r is copied out before dorgqr overwrites qr with q
        r = qr[:k].copy()
        for i in range(1, k):
            r[i, :i] = 0.0
        (q,) = lapack_by_query(dorgqr, "gorgqr/gungqr", None, qr[:, :k], tau, overwrite_a=1)
    diag = abs(r.diagonal())
    tol = max(n, p) * np.finfo(float).eps * diag[0] if k else 0.0
    return q, r, piv, int(np.count_nonzero(diag > tol))


def _checked_per_matrix(design, target) -> tuple[np.ndarray, np.ndarray]:
    from defectcast._errors import NumericalError

    x = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    if x.ndim != 2 or y.ndim != 1:
        raise NumericalError("design must be 2-d and target 1-d")
    if y.shape[0] != x.shape[0]:
        raise NumericalError("design and target row counts differ")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NumericalError("non-finite values in least-squares inputs")
    return x, y


def solve_least_squares_per_matrix(design, target):
    """One design's full-rank least-squares fit as a
    ``LeastSquaresSolution``, or the NumericalError of its first fault
    (a rank deficit names its column in ``column``)."""
    from defectcast._errors import NumericalError
    from defectcast.numerics import LeastSquaresSolution, _solve_upper, dot

    x, y = _checked_per_matrix(design, target)
    n, p = x.shape
    if n < p:
        raise NumericalError(f"under-determined system: {n} rows for {p} columns")
    q, r, piv, rank = pivoted_qr_per_matrix(x)
    if rank < p:
        err = NumericalError(
            f"design is rank deficient (rank {rank} of {p}): "
            f"column {piv[rank]} is linearly dependent on the others"
        )
        err.column = int(piv[rank])
        raise err
    b_perm = _solve_upper(r, q.T @ y)
    coef = np.empty(p)
    coef[piv] = b_perm
    residual = y - x @ coef
    return LeastSquaresSolution(coef, dot(residual, residual), rank, r, piv)


def min_norm_least_squares_per_matrix(design, target) -> np.ndarray:
    """One design's minimum-norm least-squares solution by a complete
    orthogonal decomposition, any rank."""
    from defectcast.numerics import _solve_upper

    x, y = _checked_per_matrix(design, target)
    q, r, piv, rank = pivoted_qr_per_matrix(x)
    z, t, piv2, _ = pivoted_qr_per_matrix(r[:rank].T)
    w = _solve_upper(t, (q[:, :rank].T @ y)[piv2], trans=1)
    coef = np.empty(x.shape[1])
    coef[piv] = z @ w
    return coef


def least_squares_by_scipy(design: np.ndarray, target: np.ndarray):
    """Coefficients and RSS of a full-rank fit, solved on the scipy.linalg
    factor with ``solve_triangular``."""
    import scipy.linalg

    q, r, piv, _ = pivoted_qr_by_scipy(design)
    coef = np.empty(design.shape[1])
    coef[piv] = scipy.linalg.solve_triangular(r, q.T @ target)
    residual = target - design @ coef
    return coef, float(residual @ residual)


def min_norm_least_squares_by_scipy(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The minimum-norm solution by a complete orthogonal decomposition,
    both factorizations and the triangular solve through scipy.linalg."""
    import scipy.linalg

    q, r, piv, rank = pivoted_qr_by_scipy(design)
    z, t, piv2, _ = pivoted_qr_by_scipy(r[:rank].T)
    w = scipy.linalg.solve_triangular(t, (q[:, :rank].T @ target)[piv2], trans="T")
    coef = np.empty(design.shape[1])
    coef[piv] = z @ w
    return coef


def spearman_rank_difference(x, y) -> float:
    """rho via 1 - 6*sum(d^2)/(n(n^2-1)); valid only when neither side has ties."""
    n = len(x)
    rx = _plain_ranks(x)
    ry = _plain_ranks(y)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def _plain_ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0] * len(values)
    for pos, idx in enumerate(order, start=1):
        ranks[idx] = pos
    return ranks


def rank_average_by_loop(values) -> np.ndarray:
    """Average ranks by walking each run of ties in sorted order: the
    reference ``transform.rank_average`` must match bit for bit."""
    vals = np.asarray(values, dtype=float)
    order = np.argsort(vals, kind="stable")
    ranks = np.empty(vals.size, dtype=float)
    i = 0
    while i < vals.size:
        j = i
        while j + 1 < vals.size and vals[order[j + 1]] == vals[order[i]]:
            j += 1
        # positions i..j (0-based) share the average rank
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def anova_by_hand(groups: dict) -> tuple[float, int, int]:
    """(F, df_between, df_within) from explicit sums of squares."""
    all_vals = [v for vals in groups.values() for v in vals]
    n = len(all_vals)
    k = len(groups)
    grand = sum(all_vals) / n
    ssb = 0.0
    ssw = 0.0
    for vals in groups.values():
        mean = sum(vals) / len(vals)
        ssb += len(vals) * (mean - grand) ** 2
        ssw += sum((v - mean) ** 2 for v in vals)
    if ssw == 0.0:
        return math.inf if ssb > 0 else 0.0, k - 1, n - k
    return (ssb / (k - 1)) / (ssw / (n - k)), k - 1, n - k


def groups_by_row_loop(response, codes, labels) -> dict:
    """{label: (count, mean, within-group sum of squares)} by a per-row
    loop, groups in first-seen order; a non-finite response or code -1 is
    missing."""
    values: dict = {}
    for y, c in zip(response, codes):
        if math.isfinite(y) and c >= 0:
            values.setdefault(labels[c], []).append(y)
    out = {}
    for label, vals in values.items():
        mean = math.fsum(vals) / len(vals)
        out[label] = (len(vals), mean, math.fsum((v - mean) ** 2 for v in vals))
    return out


def pearson(x, y) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(
        sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)
    )
    return num / den


def finite_difference_gradient(loss, params: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar loss at params."""
    grad = np.empty_like(params, dtype=float)
    for i in range(params.size):
        up = params.copy()
        down = params.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (loss(up) - loss(down)) / (2.0 * step)
    return grad


def consequents_by_rows(coefficients, design, y, codes, consequents) -> np.ndarray:
    """Each fit's least-squares consequents solved on its n-row design, the
    form that ``recalibration.ConsequentFit`` compresses to category cells:
    arguments as that class takes them, a stack of S fits.  Row i of fit
    s's design is each coded column's coefficient times the one-hot of the
    row's code, in column order; the target is minus the residual at the
    starting consequents.  A fit whose gradient norm there is below 1e-10
    keeps its start; the others add the per-matrix minimum-norm solution.
    Returns the S x K consequents."""
    from defectcast.regression import linear_score

    keep = [j for j in range(design.shape[-1]) if j not in codes]
    q0 = np.concatenate([np.zeros(0), *consequents.values()])
    out = np.tile(q0, (len(y), 1))
    for s in range(len(y)):
        a = np.concatenate([
            np.zeros((y.shape[1], 0)),
            *(coefficients[s, j] * np.eye(q.size)[codes[j][s]] for j, q in consequents.items()),
        ], axis=1)
        r0 = linear_score(coefficients[s, keep], design[s][:, keep]) + a @ q0 - y[s]
        gradient = (2.0 / y.shape[1]) * (a.T @ r0)
        if not math.sqrt(gradient @ gradient) < 1e-10:
            out[s] += min_norm_least_squares_per_matrix(a, -r0)
    return out


def min_norm_consequents(design: np.ndarray, target: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Least-squares consequents nearest to ``start``: start plus the
    pseudoinverse solution for the residual target, the limit of gradient
    descent on ||design @ q - target||^2 from ``start``."""
    return start + np.linalg.pinv(design) @ (target - design @ start)


def _pop_sd_plain(values) -> float:
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / n)


def best_split_brute_force(columns, kinds, y, min_leaf):
    """Exhaustive argmax of sd reduction over every candidate split.

    columns maps name -> value list (floats, or int codes for categoricals);
    kinds maps name -> 'numeric' | 'categorical'.  Numeric candidates are
    midpoints of consecutive distinct values (left = strictly below);
    categorical candidates are prefixes of the codes ordered by mean
    response (ties by code).  Returns (name, spec, sdr) where spec is the
    threshold or the left-code tuple; first maximum wins, variables in
    given order, thresholds ascending, prefixes shortest first.
    """
    n = len(y)
    sd_parent = _pop_sd_plain(y)
    best = (None, None, 0.0)
    for name in columns:
        vals = columns[name]
        if kinds[name] == "numeric":
            distinct = sorted(set(vals))
            cands = [
                (distinct[i] + distinct[i + 1]) / 2.0
                for i in range(len(distinct) - 1)
            ]
            for thr in cands:
                left = [y[i] for i in range(n) if vals[i] < thr]
                right = [y[i] for i in range(n) if vals[i] >= thr]
                if len(left) < min_leaf or len(right) < min_leaf:
                    continue
                sdr = sd_parent - (
                    len(left) / n * _pop_sd_plain(left)
                    + len(right) / n * _pop_sd_plain(right)
                )
                if sdr > best[2]:
                    best = (name, thr, sdr)
        else:
            present = sorted(set(vals))
            means = sorted(
                (sum(y[i] for i in range(n) if vals[i] == c)
                 / sum(1 for v in vals if v == c), c)
                for c in present
            )
            order = [c for _, c in means]
            for j in range(1, len(order)):
                left_codes = set(order[:j])
                left = [y[i] for i in range(n) if vals[i] in left_codes]
                right = [y[i] for i in range(n) if vals[i] not in left_codes]
                if len(left) < min_leaf or len(right) < min_leaf:
                    continue
                sdr = sd_parent - (
                    len(left) / n * _pop_sd_plain(left)
                    + len(right) / n * _pop_sd_plain(right)
                )
                if sdr > best[2]:
                    best = (name, tuple(sorted(left_codes)), sdr)
    return best


def model_tree_by_mask_loop(
    ds, response, predictors, codings=None, min_leaf_size=None,
    sd_fraction=0.05, response_transform="none",
):
    """Model tree grown by scoring every candidate split on its row masks.

    The split search of ``defectcast.modeltree.fit_model_tree`` before it
    moved to a sorted prefix-sum scan: every midpoint and every category
    prefix builds a boolean mask and scores both children with a two-pass
    population sd, O(n^2) per node.  Leaves are fitted with the package's
    own ``_leaf_fit``, so the trees compare with ``==``.
    """
    from defectcast.dataset import listwise_complete
    from defectcast.modeltree import ModelTree, TreeNode, _leaf_fit

    def pop_sd(values):
        return float(np.sqrt(np.mean((values - values.mean()) ** 2)))

    def category_order(codes, y):
        present = np.unique(codes)
        means = sorted((float(y[codes == c].mean()), int(c)) for c in present)
        return [c for _, c in means]

    codings = codings or {}
    data = listwise_complete(ds, [response] + list(predictors))
    n = data.row_count
    if min_leaf_size is None:
        min_leaf_size = max(4, math.ceil(0.1 * n))
    y = data.columns[response].astype(float)
    numeric_like, subset_only = {}, {}
    for name in predictors:
        if data.spec(name).kind == "numeric":
            numeric_like[name] = data.columns[name].astype(float)
        elif name in codings:
            numeric_like[name] = data.encode(name, codings[name])
        else:
            subset_only[name] = data.columns[name].astype(np.int64)
    leaf_predictors = [v for v in predictors if v in numeric_like]
    sd_floor = sd_fraction * pop_sd(y)

    def grow(indices):
        y_node = y[indices]
        node_n = indices.size
        node_sd = pop_sd(y_node)

        def leaf():
            model = _leaf_fit(
                data.take(indices),
                response,
                {v: numeric_like[v][indices] for v in leaf_predictors},
                codings,
                response_transform,
            )
            return TreeNode(n=node_n, sd=node_sd, model=model)

        if node_sd < sd_floor or node_n < 2 * min_leaf_size:
            return leaf()
        best_sdr, best = 0.0, None
        for name in predictors:
            if name in numeric_like:
                vals = numeric_like[name][indices]
                distinct = np.unique(vals)
                splits = [
                    (vals < t, (float(t), None, None))
                    for t in [(distinct[i] + distinct[i + 1]) / 2.0
                              for i in range(distinct.size - 1)]
                ]
            else:
                codes = subset_only[name][indices]
                order = category_order(codes, y_node)
                cats = data.spec(name).categories
                splits = [
                    (np.isin(codes, order[:j]), (
                        None,
                        tuple(cats[c] for c in sorted(order[:j])),
                        tuple(cats[c] for c in sorted(order[j:])),
                    ))
                    for j in range(1, len(order))
                ]
            for mask, split in splits:
                nl = int(mask.sum())
                nr = node_n - nl
                if nl < min_leaf_size or nr < min_leaf_size:
                    continue
                sdr = node_sd - (
                    nl / node_n * pop_sd(y_node[mask])
                    + nr / node_n * pop_sd(y_node[~mask])
                )
                if sdr > best_sdr:
                    best_sdr, best = sdr, (name, split, mask)
        if best is None:
            return leaf()
        name, (threshold, left_labels, right_labels), mask = best
        return TreeNode(
            n=node_n, sd=node_sd, variable=name, threshold=threshold,
            left_labels=left_labels, right_labels=right_labels,
            sd_reduction=best_sdr,
            left=grow(indices[mask]), right=grow(indices[~mask]),
        )

    return ModelTree(
        response=response, response_transform=response_transform,
        predictors=tuple(predictors), root=grow(np.arange(n)),
        min_leaf_size=min_leaf_size, sd_floor=sd_floor,
    )


def order_by_swap_loop(keys) -> np.ndarray:
    """The rows of ``keys`` from the smallest key up, by a selection swap
    loop: step j swaps the smallest of rows j .. n - 1 (the lowest row
    index among equal keys) into place j.  The stable argsort, one
    comparison at a time."""
    keys = list(keys)
    order = list(range(len(keys)))
    for j in range(len(order)):
        best = min(range(j, len(order)), key=lambda i: (keys[order[i]], order[i]))
        order[j], order[best] = order[best], order[j]
    return np.array(order, dtype=np.int_)


def split_rows_by_sorted_keys(seed: int, repetition: int, n: int, m: int):
    """A random split's train and test rows by a full sort: the stable
    argsort of the n uniform keys of ``RandomStream(seed).split(repetition)``,
    cut after its first m rows, each half in row order."""
    from defectcast.numerics import RandomStream

    order = np.argsort(RandomStream(seed).split(repetition).uniforms(n), kind="stable")
    return np.sort(order[:m]), np.sort(order[m:])


def unscaled_covariance_by_refactoring(design: np.ndarray) -> np.ndarray:
    """(X'X)^-1 from a fresh column-pivoted QR of the design, the same
    factorization the least-squares solve runs, computed a second time."""
    import scipy.linalg

    _, r, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    p = design.shape[1]
    rinv = scipy.linalg.solve_triangular(r, np.eye(p))
    cov = np.empty((p, p))
    cov[np.ix_(piv, piv)] = rinv @ rinv.T
    return cov


def nfa_eval(nfa, value: float) -> float:
    """One unit's defuzzified output at one input: the firing-strength-
    weighted sum of its consequents, added to 0.0 in anchor order in plain
    Python floats."""
    from defectcast.recalibration import firing_strengths

    total = 0.0
    for s, q in zip(firing_strengths(nfa, [value])[0].tolist(), nfa.consequents):
        total += s * q
    return total


def perturb_quantification(
    mapping: dict[str, float], max_shift: float, seed: int
) -> dict[str, float]:
    """``mapping`` with independent uniform shifts in [-max_shift,
    max_shift] per category.

    Labels are shifted in sorted order so the result depends only on the
    mapping contents and the seed.
    """
    from defectcast._errors import ConfigError
    from defectcast.numerics import RandomStream

    if max_shift < 0:
        raise ConfigError(f"max_shift must be nonnegative, got {max_shift}")
    labels = sorted(mapping)
    shifts = (2.0 * RandomStream(seed).uniforms(len(labels)) - 1.0) * max_shift
    return {
        label: mapping[label] + float(shift)
        for label, shift in zip(labels, shifts)
    }


def unit_outputs_by_strengths(nfa, values) -> np.ndarray:
    """One unit's outputs on n input values as its firing strengths weigh
    its consequents, added to 0.0 one anchor at a time in anchor order:
    the n-row fuzzy form whose bits the anchor lookup keeps."""
    from defectcast.recalibration import firing_strengths

    total = np.zeros(len(values))
    for q, strengths in zip(nfa.consequents, firing_strengths(nfa, values).T):
        total = total + q * strengths
    return total


def one_row_prediction(model, row, nfas=None, back_transform=False):
    """The linear predictor summed on one row dict in plain Python floats:
    intercept, then each term in model order.  A label reads its value from
    the model's fit-time codings; with ``nfas`` each categorical value is
    routed through its unit.  The reference that ``model_predict`` and
    ``recalibrated_predict`` must equal with ``==``."""
    by_var = None if nfas is None else {nfa.variable: nfa for nfa in nfas}
    total = model.intercept
    for term in model.terms:
        value = row[term.variable]
        if isinstance(value, str):
            value = model.codings[term.variable][value]
        if by_var is not None and term.variable in model.codings:
            value = nfa_eval(by_var[term.variable], value)
        total += term.coefficient * value
    if back_transform:
        return {"ln": math.exp, "ln1p": math.expm1}[model.response_transform](total)
    return total


def serialize_csv_by_rows(ds, handle) -> None:
    """A dataset written as CSV one cell at a time: the row loop that
    ``dataset.serialize_csv`` must match byte for byte."""
    import csv

    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(ds.variable_names)
    decoded = {s.name: ds.labels(s.name) for s in ds.schema if s.is_categorical}
    missing = {s.name: ds.missing(s.name) for s in ds.schema}
    for i in range(ds.row_count):
        row = []
        for spec in ds.schema:
            if missing[spec.name][i]:
                row.append("")
            elif spec.is_categorical:
                row.append(decoded[spec.name][i])
            else:
                row.append(repr(float(ds.columns[spec.name][i])))
        writer.writerow(row)


def load_csv_by_rows(source, schema):
    """A CSV read one cell at a time against a schema: the row loop that
    ``dataset.load_csv`` must match in every value, category list and
    DataError message.  ``source`` is CSV text."""
    import csv
    import io
    from dataclasses import replace

    from defectcast._errors import DataError
    from defectcast.dataset import Dataset

    specs = tuple(schema)
    reader = csv.reader(io.StringIO(source, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("CSV has no header row") from None
    positions: dict[str, int] = {}
    for i, name in enumerate(header):
        if name in positions and any(s.name == name for s in specs):
            raise DataError(f"duplicate CSV column {name!r}")
        positions.setdefault(name, i)
    for spec in specs:
        if spec.name not in positions:
            raise DataError(f"CSV is missing required column {spec.name!r}")

    open_coded = {s.name for s in specs if s.is_categorical and not s.categories}
    categories: dict[str, list[str]] = {
        s.name: list(s.categories) for s in specs if s.is_categorical
    }
    code_of: dict[str, dict[str, int]] = {
        name: {label: i for i, label in enumerate(labels)}
        for name, labels in categories.items()
    }

    raw: dict[str, list] = {s.name: [] for s in specs}
    width = len(header)
    for row_number, row in enumerate(reader, start=1):
        if len(row) != width:
            raise DataError(
                f"malformed CSV at data row {row_number}: "
                f"expected {width} fields, got {len(row)}"
            )
        for spec in specs:
            cell = row[positions[spec.name]]
            if cell == "":
                raw[spec.name].append(math.nan if spec.kind == "numeric" else -1)
                continue
            if spec.kind == "numeric":
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"non-numeric value {cell!r} for {spec.name!r} "
                        f"at data row {row_number}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"non-finite value {cell!r} for {spec.name!r} "
                        f"at data row {row_number}"
                    )
                raw[spec.name].append(value)
            else:
                codes = code_of[spec.name]
                if cell not in codes:
                    if spec.name not in open_coded:
                        raise DataError(
                            f"unknown category {cell!r} for {spec.name!r} "
                            f"at data row {row_number}"
                        )
                    if spec.kind == "binary" and len(categories[spec.name]) >= 2:
                        raise DataError(
                            f"binary variable {spec.name!r} saw a third label {cell!r} "
                            f"at data row {row_number}"
                        )
                    codes[cell] = len(categories[spec.name])
                    categories[spec.name].append(cell)
                raw[spec.name].append(codes[cell])

    final_specs = []
    for spec in specs:
        if spec.is_categorical:
            found = tuple(categories[spec.name])
            if spec.kind == "binary" and len(found) != 2:
                raise DataError(
                    f"binary variable {spec.name!r} has {len(found)} observed "
                    f"categories, needs exactly 2"
                )
            if spec.kind == "categorical" and len(found) < 2:
                raise DataError(
                    f"categorical variable {spec.name!r} has {len(found)} observed "
                    f"categories, needs at least 2"
                )
            if spec.name in open_coded:
                # recode first-seen codes to sorted ones; the trailing -1
                # keeps missing cells missing
                labels = tuple(sorted(found))
                recode = [labels.index(label) for label in found] + [-1]
                raw[spec.name] = np.array(recode, dtype=np.int32)[raw[spec.name]]
                found = labels
            final_specs.append(replace(spec, categories=found))
        else:
            final_specs.append(spec)

    columns = {
        s.name: np.asarray(raw[s.name], dtype=np.int32 if s.is_categorical else np.float64)
        for s in final_specs
    }
    return Dataset(final_specs, columns)


def _split_fit(plan, train_ds, context):
    """One split's fit and recalibration on its own table of rows."""
    from defectcast._errors import DataError, NumericalError
    from defectcast.recalibration import train_recalibration, units_for
    from defectcast.regression import ols_fit

    try:
        model = ols_fit(
            train_ds, plan.response, plan.predictors, plan.codings,
            plan.response_transform,
        )
        units = units_for(model.codings)
        trained = train_recalibration(model, units, train_ds)[0] if plan.recalibrate else units
        return model, trained
    except (DataError, NumericalError) as err:
        raise DataError(f"{context}: {err}") from None


def _split_row(label, model, trained, data, indices, plan):
    """One split's report row, scored on its own table of test rows with
    one ``mmre`` and one ``pred_at`` call per number."""
    from defectcast.evaluation import ExperimentRow, _improvement, mmre, pred_at, raw_counts
    from defectcast.recalibration import recalibrated_predict
    from defectcast.regression import model_predict

    t = plan.response_transform
    test = data.take(indices)
    actuals = raw_counts(test.columns[plan.response], t)
    include_pred = len(indices) >= plan.min_test_for_pred
    scores = []
    for preds in (
        raw_counts(model_predict(model, test), t),
        raw_counts(recalibrated_predict(model, trained, test), t),
    ):
        error = mmre(actuals, preds)
        pred = (
            {m: pred_at(actuals, preds, m) for m in plan.pred_thresholds}
            if include_pred
            else None
        )
        scores.append((error, pred))
    (base, base_pred), (recal, recal_pred) = scores
    return ExperimentRow(
        label=label,
        n_test=len(indices),
        baseline_mmre=base,
        recalibrated_mmre=recal,
        improvement_pct=_improvement(base, recal),
        baseline_pred=base_pred,
        recalibrated_pred=recal_pred,
    )


def _report_by_split(protocol, parameters, data, plan, splits):
    """The protocols' shared loop, one ``Dataset.take`` per train and test
    row set, one ``ols_fit`` and one ``train_recalibration`` per split: the
    per-split path the encoded evaluation must match."""
    from defectcast.evaluation import ExperimentReport, _averages

    rows = []
    for label, context, train, test in splits:
        model, trained = _split_fit(plan, data.take(train), context)
        rows.append(_split_row(label, model, trained, data, test, plan))
    return ExperimentReport(
        protocol=protocol, parameters=parameters, rows=tuple(rows), averages=_averages(rows)
    )


def cross_validate_by_split(ds, plan, k, seed):
    from defectcast.evaluation import _prepare_data, kfold_plan

    data = _prepare_data(ds, plan)
    folds = kfold_plan(data.row_count, k, seed)
    splits = [
        (f"fold {i + 1}", f"fold {i + 1}", folds.train(i), folds.fold(i)) for i in range(k)
    ]
    parameters = {"k": k, "seed": seed, "n": data.row_count}
    return _report_by_split("cross_validation", parameters, data, plan, splits)


def random_split_by_split(ds, plan, train_fraction, repetitions, seed):
    from defectcast.evaluation import _prepare_data

    data = _prepare_data(ds, plan)
    n = data.row_count
    train_size = math.floor(train_fraction * n + 0.5)
    splits = [
        (f"rep {r + 1}", f"repetition {r + 1}",
         *split_rows_by_sorted_keys(seed, r, n, train_size))
        for r in range(repetitions)
    ]
    parameters = {
        "train_fraction": train_fraction, "train_size": train_size,
        "repetitions": repetitions, "seed": seed, "n": n,
    }
    return _report_by_split("random_split", parameters, data, plan, splits)


def resubstitution_by_split(ds, plan):
    from defectcast.evaluation import _prepare_data

    data = _prepare_data(ds, plan)
    every = np.arange(data.row_count)
    return _report_by_split(
        "resubstitution", {"n": data.row_count}, data, plan,
        [("all data", "all data", every, every)],
    )


def generate_synthetic_by_rows(config, seed: int):
    """The synthetic generator with its labels, ratings and adjustment
    factors built row by row: the reference ``evaluation.generate_synthetic``
    must match in data and CSV bytes."""
    from defectcast.dataset import Dataset, VariableSpec
    from defectcast.evaluation import DEV_TYPE_LABELS, _rank_to_pearson, _ratings_for_sum
    from defectcast.numerics import RandomStream
    from defectcast.transform import compute_vaf

    n = config.n
    master = RandomStream(seed)
    z_fp = master.split(0).normals(n)
    e_noise = master.split(1).normals(n)
    t_noise = master.split(2).normals(n)
    dev_u = master.split(3).uniforms(n)
    vaf_u = master.split(4).uniforms(n)
    y_noise = master.split(5).normals(n)

    ln_fp = config.fp_ln_mean + config.fp_ln_sd * z_fp
    fp = np.exp(ln_fp)

    r_e = _rank_to_pearson(config.effort_rank_target)
    ln_eff = config.effort_ln_mean + config.effort_ln_sd * (
        r_e * z_fp + math.sqrt(1.0 - r_e * r_e) * e_noise
    )
    efforts = np.exp(ln_eff)

    r_t = _rank_to_pearson(config.team_rank_target)
    ln_team = config.team_ln_mean + config.team_ln_sd * (
        r_t * z_fp + math.sqrt(1.0 - r_t * r_t) * t_noise
    )
    team = np.maximum(1.0, np.rint(np.exp(ln_team)))

    weights = np.array(config.dev_type_weights, dtype=float)
    cum = np.cumsum(weights / weights.sum())
    dev_codes = np.searchsorted(cum, dev_u, side="right")
    dev_codes = np.minimum(dev_codes, len(DEV_TYPE_LABELS) - 1)
    dev_labels = [DEV_TYPE_LABELS[c] for c in dev_codes]
    enhancement = np.array(
        [1.0 if lab == config.enhancement_label else 0.0 for lab in dev_labels]
    )

    levels = config.vaf_levels
    level_idx = np.minimum((vaf_u * len(levels)).astype(np.int64), len(levels) - 1)
    ratings_rows = []
    vaf_values = np.empty(n)
    for i in range(n):
        total = round((levels[level_idx[i]] - 0.65) * 100.0)
        ratings = _ratings_for_sum(int(total))
        ratings_rows.append(ratings)
        vaf_values[i] = compute_vaf(ratings)
    vaf_labels = [f"{levels[level_idx[i]]:.2f}" for i in range(n)]

    c = config.coefficients
    ln_defects = (
        c.intercept
        + c.fp_ln * ln_fp
        + c.vaf * vaf_values
        + c.enhancement * enhancement
        + config.noise_sd * y_noise
    )
    defects = np.exp(ln_defects)

    schema = [
        VariableSpec("defects", "response", "numeric", transform="ln"),
        VariableSpec("fp", "predictor", "numeric", transform="ln"),
        VariableSpec("efforts", "predictor", "numeric", transform="ln"),
        VariableSpec("max_team_size", "predictor", "numeric"),
        VariableSpec("dev_type", "predictor", "categorical", categories=DEV_TYPE_LABELS),
        VariableSpec(
            "vaf",
            "predictor",
            "categorical",
            categories=tuple(f"{v:.2f}" for v in levels),
        ),
    ]
    columns: dict[str, np.ndarray] = {
        "defects": defects,
        "fp": fp,
        "efforts": efforts,
        "max_team_size": team,
    }
    label_to_code = {f"{v:.2f}": i for i, v in enumerate(levels)}
    columns["dev_type"] = dev_codes.astype(np.int32)
    columns["vaf"] = np.array(
        [label_to_code[lab] for lab in vaf_labels], dtype=np.int32
    )
    for j in range(14):
        name = f"gsc_{j + 1:02d}"
        schema.append(VariableSpec(name, "excluded", "numeric"))
        columns[name] = np.array([row[j] for row in ratings_rows], dtype=float)
    return Dataset(schema, columns)
