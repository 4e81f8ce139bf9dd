"""Piecewise-linear model trees grown by standard-deviation reduction.

Each internal node splits on one predictor: numeric columns at a midpoint
between consecutive distinct values, categorical columns on a label subset
chosen from prefixes of the categories ordered by mean response.  Growth
stops when a node's spread falls below an absolute floor (a fraction of the
root spread) or when no split leaves both children at the minimum leaf
size.  Each leaf carries its own least-squares model over the numeric and
quantified predictors, with linearly dependent columns dropped one at a
time until the fit succeeds.

Node spread is the population standard deviation, which makes the
reduction score of every candidate split nonnegative.

Split search runs in two steps per node.  ``_split_scan`` scores every
candidate of one predictor in a single pass: it stable-sorts the rows by a
split key (the predictor's value, or a category's rank in the mean-response
order, so a subset prefix is a threshold on the rank), takes prefix sums of
the mean-centered response and its square, and reads each child's variance
off the sums at the boundary ``np.searchsorted(sorted_key, bound, "left")``,
which counts ``key < bound`` exactly.  With each score it returns a rounding
bound ``err`` that covers both the prefix-sum arithmetic and the two-pass
``_pop_sd`` arithmetic of scoring that split on its row masks.  Only
candidates that can reach the node's best lower bound ``max(score - err)``
are then rescored exactly, by ``_pop_sd`` on masks, in the exhaustive
order (predictors as given, thresholds ascending, prefixes shortest first)
with a strict ``>`` against 0.0.  Every split that attains the exhaustive
maximum survives the shortlist, so the chosen split and its
``sd_reduction`` are bit-identical to scoring every candidate on masks,
while the exact work per node no longer grows with its row count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._errors import ConfigError, DataError, NumericalError
from .dataset import Dataset, listwise_complete
from .regression import LinearModel, ols_fit

__all__ = ["TreeNode", "ModelTree", "fit_model_tree"]


def _pop_sd(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean((values - values.mean()) ** 2)))


@dataclass(frozen=True)
class TreeNode:
    """One tree node; a leaf iff ``model`` is set, a split otherwise."""

    n: int
    sd: float
    model: LinearModel | None = None
    variable: str | None = None
    threshold: float | None = None
    left_labels: tuple[str, ...] | None = None
    right_labels: tuple[str, ...] | None = None
    sd_reduction: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.model is not None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"kind": "leaf", "n": self.n, "sd": self.sd, "model": self.model.to_dict()}
        out = {
            "kind": "split",
            "n": self.n,
            "sd": self.sd,
            "variable": self.variable,
            "sd_reduction": self.sd_reduction,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }
        if self.threshold is not None:
            out["threshold"] = self.threshold
        else:
            out["left_labels"] = list(self.left_labels)
            out["right_labels"] = list(self.right_labels)
        return out


@dataclass(frozen=True)
class ModelTree:
    response: str
    response_transform: str
    predictors: tuple[str, ...]
    root: TreeNode
    min_leaf_size: int
    sd_floor: float

    @property
    def leaf_count(self) -> int:
        def count(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)

        return count(self.root)

    @property
    def depth(self) -> int:
        def down(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(down(node.left), down(node.right))

        return down(self.root)

    def to_dict(self) -> dict:
        return {
            "response": self.response,
            "response_transform": self.response_transform,
            "predictors": list(self.predictors),
            "min_leaf_size": self.min_leaf_size,
            "sd_floor": self.sd_floor,
            "leaf_count": self.leaf_count,
            "depth": self.depth,
            "root": self.root.to_dict(),
        }

    def to_text(self) -> str:
        lines: list[str] = []

        def walk(node: TreeNode, depth: int) -> None:
            pad = "  " * depth
            if node.is_leaf:
                lines.append(
                    f"{pad}leaf: {node.model.formula()} "
                    f"(n={node.n}, sd={node.sd:.4g})"
                )
                return
            if node.threshold is not None:
                cond = f"{node.variable} < {node.threshold!r}"
            else:
                cond = f"{node.variable} in {{{', '.join(node.left_labels)}}}"
            lines.append(f"{pad}if {cond} (n={node.n}, sd={node.sd:.4g})")
            walk(node.left, depth + 1)
            lines.append(f"{pad}else")
            walk(node.right, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines) + "\n"


_U = np.finfo(float).eps / 2.0  # unit roundoff of float64


def _split_scan(key, bounds, y, node_sd, min_leaf_size):
    """Score every split ``key < bound`` of one node from one sorted scan.

    Returns ``(cand, nl, score, err)`` for the bounds that leave at least
    ``min_leaf_size`` rows on each side: their positions in ``bounds``, left
    counts, sd reductions from prefix sums, and bounds with
    ``|score - exact| <= err``, where ``exact`` is the reduction that
    ``_pop_sd`` on the split's row masks computes.  A NaN bound is dropped,
    as ``key < nan`` leaves no row on the left.

    The bound is first order in the unit roundoff u with gamma = (n+3)u /
    (1 - (n+3)u) covering any summation over the node, doubled to cover
    the second-order terms while n*u is small.  For a child of k rows with
    q = sum(c^2)/k over the node's centered responses c, P = sum|c| and
    ymax = max|y|, the prefix-sum variance is off the true one by at most
    dva = (3 gamma + 7u) q + e1 (2 sqrt(q) + e1), e1 = 3 gamma P/k + u sqrt(q)
    (centering, sums, the mean and its square, the subtraction), and the
    two-pass variance by at most dve = b^2 + gamma (v + dva + b^2) with
    b = gamma ymax the error of its uncentered mean.  The two variances
    then differ by d <= dva + dve, so their square roots differ by at most
    d / sqrt(max(v, d)): the usual d / sqrt(v), and sqrt(d) from
    |sqrt(a) - sqrt(b)| <= sqrt(|a - b|) when a child is nearly constant.
    """
    n = key.size
    order = np.argsort(key, kind="stable")
    nl = np.searchsorted(key[order], bounds, side="left")
    cand = np.flatnonzero(
        (nl >= min_leaf_size) & (n - nl >= min_leaf_size) & ~np.isnan(bounds)
    )
    nl = nl[cand]
    nr = n - nl
    c = (y - y.mean())[order]
    s1 = np.concatenate(([0.0], np.cumsum(c)))
    s2 = np.concatenate(([0.0], np.cumsum(c * c)))

    gamma = (n + 3) * _U / (1.0 - (n + 3) * _U)
    spread, abs_sum = s2[-1], float(np.abs(c).sum())
    b = gamma * float(np.abs(y).max())

    def child(k, sum1, sum2):
        mean = sum1 / k
        v = np.maximum(sum2 / k - mean * mean, 0.0)
        q = spread / k
        e1 = 3.0 * gamma * abs_sum / k + _U * np.sqrt(q)
        dva = (3.0 * gamma + 7.0 * _U) * q + e1 * (2.0 * np.sqrt(q) + e1)
        d = dva + b * b + gamma * (v + dva + b * b)
        sd = np.sqrt(v)
        return sd, d / np.sqrt(np.maximum(v, d)) + _U * (2.0 * sd + np.sqrt(d))

    sd_l, err_l = child(nl, s1[nl], s2[nl])
    sd_r, err_r = child(nr, s1[-1] - s1[nl], s2[-1] - s2[nl])
    wl, wr = nl / n, nr / n
    score = node_sd - (wl * sd_l + wr * sd_r)
    err = 2.0 * (
        wl * err_l + wr * err_r + 8.0 * _U * (node_sd + wl * sd_l + wr * sd_r)
    )
    return cand, nl, score, err


def _category_order(codes: np.ndarray, y: np.ndarray) -> list[int]:
    """Codes present in the node, ordered by mean response then code."""
    present = np.unique(codes)
    means = [(float(y[codes == c].mean()), int(c)) for c in present]
    means.sort()
    return [c for _, c in means]


def _leaf_fit(ds, response, leaf_values, codings, response_transform):
    """Leaf OLS with dependent columns dropped until the solve succeeds.

    ``leaf_values`` maps each usable regressor to its numeric values on the
    leaf rows.  Columns constant within the leaf are excluded up front (the
    intercept already covers them); remaining dependent columns are removed
    one at a time, the solver-named one when possible, the last otherwise.
    """
    active = [v for v, vals in leaf_values.items() if np.unique(vals).size > 1]
    n = ds.row_count
    while active and n <= len(active) + 1:
        active.pop()
    while True:
        try:
            return ols_fit(ds, response, active, codings, response_transform)
        except NumericalError as err:
            if not active:
                raise
            name = getattr(err, "variable", None)
            if name in active:
                active.remove(name)
            else:
                active.pop()
        except DataError as err:
            if "zero variance" not in str(err):
                raise
            y = ds.columns[response].astype(float)
            return LinearModel(
                response=response,
                response_transform=response_transform,
                intercept=float(y.mean()),
                intercept_p=0.0,
                terms=(),
                r_squared=0.0,
                n=n,
                codings={},
            )


def fit_model_tree(
    ds: Dataset,
    response: str,
    predictors: list[str],
    codings: dict[str, dict[str, float]] | None = None,
    min_leaf_size: int | None = None,
    sd_fraction: float = 0.05,
    response_transform: str = "none",
) -> ModelTree:
    """Grow a model tree on rows listwise complete over all variables.

    ``min_leaf_size`` defaults to max(4, ceil(0.1 * n)).  Numeric
    predictors and categorical ones with a mapping in ``codings`` supply
    threshold splits and leaf regressors; other categorical predictors
    supply subset splits only.
    """
    if not predictors:
        raise ConfigError("model tree needs at least one predictor")
    if not (0.0 < sd_fraction < 1.0):
        raise ConfigError(f"sd_fraction must be in (0, 1), got {sd_fraction}")
    codings = codings or {}
    data = listwise_complete(ds, [response] + list(predictors))
    n = data.row_count
    if min_leaf_size is None:
        min_leaf_size = max(4, math.ceil(0.1 * n))
    if min_leaf_size < 2:
        raise ConfigError(f"min_leaf_size must be at least 2, got {min_leaf_size}")
    if data.spec(response).is_categorical:
        raise DataError(f"response {response!r} must be numeric")
    y = data.columns[response].astype(float)

    numeric_like: dict[str, np.ndarray] = {}
    subset_only: dict[str, np.ndarray] = {}
    for name in predictors:
        spec = data.spec(name)
        if spec.kind == "numeric":
            numeric_like[name] = data.columns[name].astype(float)
        elif name in codings:
            numeric_like[name] = data.encode(name, codings[name])
        else:
            subset_only[name] = data.columns[name].astype(np.int64)
    leaf_predictors = [v for v in predictors if v in numeric_like]

    root_sd = _pop_sd(y)
    sd_floor = sd_fraction * root_sd

    def grow(indices: np.ndarray) -> TreeNode:
        y_node = y[indices]
        node_n = indices.size
        node_sd = _pop_sd(y_node)

        def leaf() -> TreeNode:
            model = _leaf_fit(
                data.take(indices),
                response,
                {v: numeric_like[v][indices] for v in leaf_predictors},
                codings,
                response_transform,
            )
            return TreeNode(n=node_n, sd=node_sd, model=model)

        # node_sd == 0 admits no positive reduction (child sds are >= 0)
        if node_sd < sd_floor or node_sd == 0.0 or node_n < 2 * min_leaf_size:
            return leaf()

        scans = []  # (name, key, bounds, category order, cand, nl, score + err)
        floor = -np.inf  # the best lower bound max(score - err) over predictors
        for name in predictors:
            if name in numeric_like:
                key = numeric_like[name][indices]
                distinct = np.unique(key)
                bounds = (distinct[:-1] + distinct[1:]) / 2.0
                order = None
            else:
                codes = subset_only[name][indices]
                order = _category_order(codes, y_node)
                rank = np.zeros(len(data.spec(name).categories), dtype=np.int64)
                rank[order] = np.arange(len(order))
                key = rank[codes]
                bounds = np.arange(1, len(order))
            cand, nls, score, err = _split_scan(key, bounds, y_node, node_sd, min_leaf_size)
            high, low = score + err, score - err
            # keep only what can reach this predictor's best lower bound; a NaN
            # score (non-finite responses) compares False and is kept
            best_low = low.max(initial=-np.inf)
            near = ~(high < best_low)
            scans.append((name, key, bounds, order, cand[near], nls[near], high[near]))
            floor = np.maximum(floor, best_low)  # NaN propagates

        best_sdr = 0.0
        best = None  # (variable, threshold, left_labels, right_labels, mask)
        for name, key, bounds, order, cand, nls, high in scans:
            keep = ~((high < floor) | (high <= 0.0))
            for i, nl in zip(cand[keep].tolist(), nls[keep].tolist()):
                mask = key < bounds[i]
                nr = node_n - nl
                sdr = node_sd - (
                    nl / node_n * _pop_sd(y_node[mask])
                    + nr / node_n * _pop_sd(y_node[~mask])
                )
                if sdr > best_sdr:
                    best_sdr = sdr
                    if order is None:
                        best = (name, float(bounds[i]), None, None, mask)
                    else:
                        categories = data.spec(name).categories
                        left_labels = tuple(categories[c] for c in sorted(order[: bounds[i]]))
                        right_labels = tuple(categories[c] for c in sorted(order[bounds[i] :]))
                        best = (name, None, left_labels, right_labels, mask)

        if best is None:
            return leaf()
        name, threshold, left_labels, right_labels, mask = best
        return TreeNode(
            n=node_n,
            sd=node_sd,
            variable=name,
            threshold=threshold,
            left_labels=left_labels,
            right_labels=right_labels,
            sd_reduction=best_sdr,
            left=grow(indices[mask]),
            right=grow(indices[~mask]),
        )

    root = grow(np.arange(n))
    return ModelTree(
        response=response,
        response_transform=response_transform,
        predictors=tuple(predictors),
        root=root,
        min_leaf_size=min_leaf_size,
        sd_floor=sd_floor,
    )
