"""Metric screening: rank correlation, one-way ANOVA, Tukey HSD, merging.

These tests decide which candidate predictors carry signal before any model
is fit.  Numeric predictors are screened by Spearman rank correlation
against the response; categorical ones by one-way ANOVA with Tukey HSD
pairwise follow-up, and statistically indistinguishable categories can then
be merged.  A category that filters left without rows is dropped the same
way a merge recodes its column.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from ._errors import ConfigError, DataError
from .dataset import Dataset, VariableSpec, complete_rows, listwise_complete
from .numerics import dot, f_cdf, studentized_range_sf, t_cdf
from .transform import rank_average

__all__ = [
    "SpearmanResult",
    "GroupTable",
    "AnovaResult",
    "TukeyPair",
    "ScreeningReport",
    "spearman",
    "group_table",
    "anova_oneway",
    "tukey_hsd",
    "merge_categories",
    "apply_category_merge",
    "drop_empty_categories",
    "screen_dataset",
]


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    p_value: float
    n: int


def spearman(x, y) -> SpearmanResult:
    """Spearman rank correlation with tie-averaged ranks.

    Pairs with a NaN (missing) or infinite value on either side are
    dropped.  The two-sided p comes from t = rho * sqrt((n - 2) / (1 -
    rho^2)) against t(n - 2); rho = +-1 reports p = 0.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise DataError("spearman expects two 1-d arrays of equal length")
    keep = np.isfinite(xv) & np.isfinite(yv)
    xv, yv = xv[keep], yv[keep]
    n = xv.size
    if n < 3:
        raise DataError(f"spearman needs at least 3 complete pairs, got {n}")
    rx = rank_average(xv)
    ry = rank_average(yv)
    sx = rx - rx.mean()
    sy = ry - ry.mean()
    denom = math.sqrt(dot(sx, sx) * dot(sy, sy))
    if denom == 0.0:
        raise DataError("spearman undefined: a ranked column has zero variance")
    rho = dot(sx, sy) / denom
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = 2.0 * t_cdf(-abs(t), n - 2)
    return SpearmanResult(rho=rho, p_value=p, n=n)


@dataclass(frozen=True)
class GroupTable:
    """A response grouped by category code: the count and mean of each
    non-empty group in code order, and the pooled within-group sum of
    squares.  ANOVA and Tukey HSD both read one table."""

    labels: tuple[str, ...]
    counts: np.ndarray
    means: np.ndarray
    ssw: float


def group_table(response, codes, labels: Sequence[str]) -> GroupTable:
    """Group ``response`` by integer ``codes``; code c is group ``labels[c]``.

    A row whose response is NaN (missing) or infinite, or whose code is -1
    (missing), is dropped.  Counts, sums and within-group sums of squares
    come from ``np.bincount``; a group with no rows is left out.  At least
    2 non-empty groups and more rows than groups are required.
    """
    y = np.asarray(response, dtype=float)
    codes = np.asarray(codes)
    keep = np.isfinite(y) & (codes >= 0)
    y, codes = y[keep], codes[keep]
    k = len(labels)
    if codes.size and codes.max() >= k:
        raise DataError(f"category code {codes.max()} has no label ({k} labels)")
    counts = np.bincount(codes, minlength=k)
    means = np.bincount(codes, weights=y, minlength=k) / np.maximum(counts, 1)
    deviations = y - means[codes]
    ssw = float(np.bincount(codes, weights=deviations * deviations, minlength=k).sum())
    present = np.flatnonzero(counts)
    if present.size < 2:
        raise DataError(f"screening needs at least 2 non-empty groups, got {present.size}")
    if y.size <= present.size:
        raise DataError(
            f"screening needs more observations ({y.size}) than groups ({present.size})"
        )
    return GroupTable(tuple(labels[c] for c in present), counts[present], means[present], ssw)


@dataclass(frozen=True)
class AnovaResult:
    f_value: float
    df_between: int
    df_within: int
    p_value: float
    group_counts: dict[str, int]
    group_means: dict[str, float]


def anova_oneway(table: GroupTable) -> AnovaResult:
    """One-way fixed-effects ANOVA of a response across the table's groups.

    A zero within-group sum of squares with nonzero between-group variation
    reports F = +inf and p = 0.
    """
    k = len(table.labels)
    n = int(table.counts.sum())
    grand = float(table.counts @ table.means) / n
    ssb = float(table.counts @ (table.means - grand) ** 2)
    df_b, df_w = k - 1, n - k
    if table.ssw == 0.0:
        f = math.inf if ssb > 0.0 else 0.0
        p = 0.0 if ssb > 0.0 else 1.0
    else:
        f = (ssb / df_b) / (table.ssw / df_w)
        # upper tail P(F(df_b, df_w) > f) as the lower tail of F(df_w, df_b)
        p = f_cdf(1.0 / f, df_w, df_b) if f > 0.0 else 1.0
    return AnovaResult(
        f_value=f,
        df_between=df_b,
        df_within=df_w,
        p_value=p,
        group_counts=dict(zip(table.labels, table.counts.tolist())),
        group_means=dict(zip(table.labels, table.means.tolist())),
    )


@dataclass(frozen=True)
class TukeyPair:
    group_i: str
    group_j: str
    mean_difference: float
    p_adjusted: float
    significant: bool


def tukey_hsd(table: GroupTable, alpha: float = 0.05) -> list[TukeyPair]:
    """Tukey HSD pairwise comparisons (Tukey-Kramer for unequal sizes).

    Pairs are listed in the table's group order.  For each unordered pair,
    q = |mean_i - mean_j| / sqrt((MSW / 2) * (1/n_i + 1/n_j)) and the
    adjusted p is the studentized-range upper tail P(Q > q) with k = number
    of groups and the ANOVA within-group df, taken from
    ``studentized_range_sf`` directly rather than as ``1 - cdf``, so a
    well-separated pair keeps its small p-value; one that underflows a
    double reads 0.0.  A zero MSW gives p = 1 for equal means and 0
    otherwise.
    """
    k = len(table.labels)
    df_w = int(table.counts.sum()) - k
    msw = table.ssw / df_w
    counts, means = table.counts.tolist(), table.means.tolist()
    pairs = []
    for a in range(k):
        for b in range(a + 1, k):
            diff = means[a] - means[b]
            if msw == 0.0:
                p_adj = 1.0 if diff == 0.0 else 0.0
            else:
                q = abs(diff) / math.sqrt((msw / 2.0) * (1.0 / counts[a] + 1.0 / counts[b]))
                p_adj = studentized_range_sf(q, k, df_w)
            pairs.append(
                TukeyPair(
                    group_i=table.labels[a],
                    group_j=table.labels[b],
                    mean_difference=diff,
                    p_adjusted=p_adj,
                    significant=p_adj < alpha,
                )
            )
    return pairs


# ---------------------------------------------------------------------------
# category merging
# ---------------------------------------------------------------------------


def _merge(
    var: VariableSpec, pairs_to_merge: Sequence[tuple[str, str]]
) -> tuple[VariableSpec, dict[str, str]]:
    """The merged spec, and every old category mapped to its new label."""
    if not var.is_categorical:
        raise DataError(f"cannot merge categories of numeric variable {var.name!r}")
    relabel = {label: label for label in var.categories}
    for a, b in pairs_to_merge:
        if a == b:
            raise DataError(f"merge pair ({a!r}, {b!r}) names the same label twice")
        for label in (a, b):
            if label not in var.categories:
                raise DataError(f"merge references unknown category {label!r} of {var.name!r}")
            if relabel[label] != label:
                raise DataError(f"overlapping merge clusters: label {label!r} appears twice")
            relabel[label] = f"{a}+{b}"
    # each merged label lands at the first of its two pieces
    categories = tuple(dict.fromkeys(relabel[label] for label in var.categories))
    if len(categories) != len(var.categories) - len(pairs_to_merge):
        raise DataError(f"merging {var.name!r} would give two categories one label")
    if len(categories) < 2:
        raise DataError(f"merging would leave {var.name!r} with fewer than 2 categories")
    return _with_categories(var, categories), relabel


def _with_categories(var: VariableSpec, categories: tuple[str, ...]) -> VariableSpec:
    """``var`` narrowed to ``categories``; two left make it kind 'binary'."""
    kind = "binary" if len(categories) == 2 else "categorical"
    return replace(var, kind=kind, categories=categories)


def _relabeled(ds: Dataset, new: VariableSpec, relabel: dict[str, str]) -> Dataset:
    """``ds`` with ``new`` as the spec of its variable and the column
    recoded by one lookup table over the old codes: the rows of each old
    category move to the code of ``relabel[label]`` in ``new``, and those
    of a label ``relabel`` lacks become missing.  Row count and order are
    unchanged."""
    old = ds.spec(new.name)
    # new code of each old code; the trailing -1 keeps missing cells (-1) missing
    recode = [
        new.categories.index(relabel[label]) if label in relabel else -1
        for label in old.categories
    ]
    schema = tuple(new if s.name == new.name else s for s in ds.schema)
    columns = dict(ds.columns)
    columns[new.name] = np.array(recode + [-1], dtype=np.int32)[ds.columns[new.name]]
    return Dataset(schema, columns)


def merge_categories(
    var: VariableSpec, pairs_to_merge: Sequence[tuple[str, str]]
) -> VariableSpec:
    """Merge the given label pairs into single categories.

    Each pair must name two distinct existing labels, and no label may
    appear in more than one pair (overlapping clusters are rejected).  The
    merged label is "<first>+<second>" and sits at the earlier position of
    its two pieces; the relative order of everything else is unchanged.
    A result with two categories left becomes kind 'binary'.
    """
    return _merge(var, pairs_to_merge)[0]


def apply_category_merge(
    ds: Dataset, variable: str, pairs_to_merge: Sequence[tuple[str, str]]
) -> Dataset:
    """Dataset counterpart of merge_categories: recodes the column in place.

    Category frequencies of merged labels add; every other label keeps its
    rows.  Row count and order are unchanged.
    """
    new, relabel = _merge(ds.spec(variable), pairs_to_merge)
    return _relabeled(ds, new, relabel)


def drop_empty_categories(
    ds: Dataset, fitted: Sequence[str] = ()
) -> tuple[Dataset, dict[str, list[str]]]:
    """Drop every category that no row holds, from each categorical
    variable that keeps at least 2 categories, and recode its column.  A
    variable among ``fitted`` counts only the rows complete over all of
    ``fitted``, the rows a fit on them uses; its other rows are incomplete
    already, and the cells of a category it drops become missing.  A
    variable left with fewer keeps its categories, as a constant column
    does.  Returns the dataset and the dropped labels by variable."""
    complete = complete_rows(ds, fitted)
    dropped = {}
    for spec in ds.schema:
        if not spec.is_categorical:
            continue
        codes = ds.columns[spec.name]
        held = complete if spec.name in fitted else codes >= 0
        counts = np.bincount(codes[held], minlength=len(spec.categories))
        kept = tuple(label for label, n in zip(spec.categories, counts) if n)
        if 2 <= len(kept) < len(spec.categories):
            ds = _relabeled(ds, _with_categories(spec, kept), {k: k for k in kept})
            dropped[spec.name] = [label for label in spec.categories if label not in kept]
    return ds, dropped


# ---------------------------------------------------------------------------
# dataset-level screening
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScreeningReport:
    """All screening results for one response against candidate predictors."""

    response: str
    alpha: float
    correlations: dict[str, SpearmanResult]
    anova: dict[str, AnovaResult]
    tukey: dict[str, list[TukeyPair]]

    def significant_predictors(self) -> list[str]:
        names = []
        for name, res in self.correlations.items():
            if res.p_value < self.alpha and name not in names:
                names.append(name)
        for name, res in self.anova.items():
            if res.p_value < self.alpha and name not in names:
                names.append(name)
        return names

    def to_dict(self) -> dict:
        return {
            "response": self.response,
            "alpha": self.alpha,
            "correlations": {k: asdict(v) for k, v in self.correlations.items()},
            "anova": {k: asdict(v) for k, v in self.anova.items()},
            "multiple_comparisons": {
                k: [asdict(p) for p in pairs] for k, pairs in self.tukey.items()
            },
        }


def screen_dataset(
    ds: Dataset,
    response: str,
    predictors: Sequence[str],
    alpha: float = 0.05,
    dual_treatment: Sequence[str] = (),
    codings: dict[str, dict[str, float]] | None = None,
) -> ScreeningReport:
    """Run the full screening battery for one response.

    Numeric predictors get Spearman.  Categorical predictors get ANOVA, plus
    Tukey HSD when at least 3 groups are observed; both read one group
    table built from the category codes, so groups and pairs come in
    category order whatever the row order.  Variables listed in
    ``dual_treatment`` are screened both ways: a categorical one contributes
    a Spearman on its values under its mapping in ``codings``,
    which must hold one; a numeric one contributes an ANOVA grouped by its
    distinct observed values in ascending order.
    """
    codings = codings or {}
    resp_spec = ds.spec(response)
    if resp_spec.is_categorical:
        raise DataError(f"screening response {response!r} must be numeric")
    y = ds.columns[response]

    correlations: dict[str, SpearmanResult] = {}
    anova: dict[str, AnovaResult] = {}
    tukey: dict[str, list[TukeyPair]] = {}

    for name in predictors:
        spec = ds.spec(name)
        dual = name in dual_treatment
        if spec.kind == "numeric":
            x = ds.columns[name]
            correlations[name] = spearman(x, y)
            if dual:
                # one group per distinct present value, in ascending order
                present = ~np.isnan(x)
                codes = np.full(x.size, -1)
                values, codes[present] = np.unique(x[present], return_inverse=True)
                table = group_table(y, codes, [str(v) for v in values.tolist()])
                anova[name] = anova_oneway(table)
        else:
            table = group_table(y, ds.columns[name], spec.categories)
            anova[name] = anova_oneway(table)
            if len(table.labels) >= 3:
                tukey[name] = tukey_hsd(table, alpha=alpha)
            if dual:
                mapping = codings.get(name)
                if mapping is None:
                    raise ConfigError(f"dual treatment of {name!r} needs a quantification")
                complete = listwise_complete(ds, [name, response])
                correlations[name] = spearman(
                    complete.encode(name, mapping), complete.columns[response]
                )
    return ScreeningReport(
        response=response,
        alpha=alpha,
        correlations=correlations,
        anova=anova,
        tukey=tukey,
    )
