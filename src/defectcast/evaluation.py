"""Accuracy metrics, evaluation protocols, and the synthetic generator.

Metrics (MMRE, Pred(m)) are computed on raw defect counts, with ln-scale
model output back-transformed first.  Three protocols share one report
shape: k-fold cross-validation, repeated random splits, and resubstitution
(fit and evaluate on all rows, clearly labeled).  Every protocol is a pure
function of (data, plan, seed): reports are byte-identical across runs.

Each protocol encodes its prepared table once: the design matrix with its
intercept column, the response on the model and count scales, and each
categorical predictor's firing strengths under its identity-started unit.
None of these depend on the split.  A split then only gathers rows of
those arrays: it solves plain OLS coefficients (no inference), fits the
consequents, and scores its test rows through ``recalibration.score``, the
arithmetic ``recalibration.predict`` runs on an encoded table.  Rows are
gathered before any product, so each split computes on the same arrays a
table of its own rows would have given, and the report bytes match.

The generator emits a project dataset with the shape this package models:
size in function points with log-normal spread, 14 system-characteristic
ratings condensed into an adjustment factor, a three-level development
type, effort rank-correlated with size, a weakly linked team-size column,
and a defect count following the built-in reference coefficients on the
log scale plus normal noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from ._errors import ConfigError, DataError, NumericalError
from .dataset import Dataset, VariableSpec, listwise_complete
from .numerics import RandomStream
from .recalibration import Routes, fit_consequents, routes_for, score, units_for
from .regression import (
    Quantification,
    back_transform_array,
    design_columns,
    ols_coefficients,
    response_values,
)
from .screening import spearman
from .transform import apply_schema_transforms, compute_vaf

__all__ = [
    "EvalMetrics",
    "FoldPlan",
    "ExperimentRow",
    "ExperimentReport",
    "ModelingPlan",
    "ReferenceCoefficients",
    "DEFAULT_COEFFICIENTS",
    "GeneratorConfig",
    "mmre",
    "pred_at",
    "raw_counts",
    "kfold_plan",
    "cross_validate",
    "random_split_experiment",
    "resubstitution_experiment",
    "generate_synthetic",
    "quantification_from_labels",
    "perturb_quantification",
]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _check_metric_inputs(actuals, predictions) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actuals, dtype=float)
    p = np.asarray(predictions, dtype=float)
    if a.size == 0:
        raise DataError("metric inputs are empty")
    if a.shape != p.shape:
        raise DataError(
            f"actuals and predictions differ in length ({a.size} vs {p.size})"
        )
    if np.any(a <= 0):
        raise DataError("nonpositive actual value; relative error is undefined")
    return a, p


def mmre(actuals, predictions) -> float:
    """Mean magnitude of relative error over raw counts."""
    a, p = _check_metric_inputs(actuals, predictions)
    return float(np.mean(np.abs(a - p) / a))


def pred_at(actuals, predictions, m: float) -> float:
    """Fraction of rows whose relative error is at most m."""
    if m < 0:
        raise ConfigError(f"threshold must be nonnegative, got {m}")
    a, p = _check_metric_inputs(actuals, predictions)
    return float(np.mean(np.abs(a - p) / a <= m))


@dataclass(frozen=True)
class EvalMetrics:
    mmre: float
    pred: dict[float, float]
    n: int


def _metrics(actuals, predictions, thresholds, include_pred) -> EvalMetrics:
    """``mmre`` and ``pred_at`` at each threshold, from one input check and
    one relative-error vector."""
    a, p = _check_metric_inputs(actuals, predictions)
    errors = np.abs(a - p) / a
    pred = {}
    if include_pred:
        for m in thresholds:
            pred[m] = float(np.mean(errors <= m))
    return EvalMetrics(mmre=float(np.mean(errors)), pred=pred, n=len(actuals))


# ---------------------------------------------------------------------------
# fold planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldPlan:
    """Seeded shuffle + round-robin fold assignment; sizes differ by <= 1."""

    n: int
    k: int
    seed: int
    assignment: np.ndarray

    def fold(self, i: int) -> np.ndarray:
        if not (0 <= i < self.k):
            raise ConfigError(f"fold index {i} out of range for k={self.k}")
        return np.nonzero(self.assignment == i)[0]

    def train(self, i: int) -> np.ndarray:
        if not (0 <= i < self.k):
            raise ConfigError(f"fold index {i} out of range for k={self.k}")
        return np.nonzero(self.assignment != i)[0]


def kfold_plan(n: int, k: int, seed: int) -> FoldPlan:
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ConfigError(f"cannot split {n} rows into {k} folds")
    perm = RandomStream(seed).permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    for j in range(n):
        assignment[perm[j]] = j % k
    return FoldPlan(n=n, k=k, seed=seed, assignment=assignment)


# ---------------------------------------------------------------------------
# modeling plan and report assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelingPlan:
    """What to fit and how to judge it inside an evaluation protocol.

    Every fit is plain OLS on all of ``predictors``: selection happens
    before the plan is made (the pipeline passes the stepwise-selected
    variables).  ``refit_regression`` controls whether each fold refits
    the regression (True) or reuses one model fit on all rows with only
    the recalibration retrained per fold (False).
    """

    response: str
    predictors: tuple[str, ...]
    quantifications: tuple[Quantification, ...] = ()
    response_transform: str = "ln"
    recalibrate: bool = True
    pred_thresholds: tuple[float, ...] = (0.25,)
    min_test_for_pred: int = 10
    refit_regression: bool = True

    def __post_init__(self):
        if not self.predictors:
            raise ConfigError("modeling plan needs at least one predictor")
        object.__setattr__(self, "predictors", tuple(self.predictors))
        object.__setattr__(self, "quantifications", tuple(self.quantifications))
        object.__setattr__(self, "pred_thresholds", tuple(self.pred_thresholds))
        for m in self.pred_thresholds:
            if m < 0:
                raise ConfigError(f"threshold must be nonnegative, got {m}")
        if self.min_test_for_pred < 1:
            raise ConfigError("min_test_for_pred must be at least 1")

    def quantification_map(self) -> dict[str, Quantification]:
        return {q.variable: q for q in self.quantifications}


@dataclass(frozen=True)
class ExperimentRow:
    label: str
    n_test: int
    baseline_mmre: float
    recalibrated_mmre: float
    improvement_pct: float
    baseline_pred: dict[float, float] | None
    recalibrated_pred: dict[float, float] | None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "n_test": self.n_test,
            "baseline_mmre": self.baseline_mmre,
            "recalibrated_mmre": self.recalibrated_mmre,
            "improvement_pct": self.improvement_pct,
            "baseline_pred": (
                {str(k): v for k, v in self.baseline_pred.items()}
                if self.baseline_pred is not None
                else None
            ),
            "recalibrated_pred": (
                {str(k): v for k, v in self.recalibrated_pred.items()}
                if self.recalibrated_pred is not None
                else None
            ),
        }


@dataclass(frozen=True)
class ExperimentReport:
    protocol: str
    parameters: dict
    rows: tuple[ExperimentRow, ...]
    averages: ExperimentRow

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "parameters": dict(self.parameters),
            "rows": [r.to_dict() for r in self.rows],
            "averages": self.averages.to_dict(),
        }

    def to_text(self) -> str:
        headers = ["", "n_test", "baseline MMRE", "recalibrated MMRE", "improvement %"]
        with_pred = all(r.baseline_pred is not None for r in self.rows)
        thresholds = sorted(self.rows[0].baseline_pred) if with_pred and self.rows else []
        for m in thresholds:
            headers.append(f"baseline Pred({m:g})")
            headers.append(f"recalibrated Pred({m:g})")
        table = [headers]
        for r in list(self.rows) + [self.averages]:
            line = [
                r.label,
                str(r.n_test),
                f"{r.baseline_mmre:.4f}",
                f"{r.recalibrated_mmre:.4f}",
                f"{r.improvement_pct:.2f}",
            ]
            for m in thresholds:
                if r.baseline_pred is None:
                    line.extend(["-", "-"])
                else:
                    line.append(f"{r.baseline_pred[m]:.4f}")
                    line.append(f"{r.recalibrated_pred[m]:.4f}")
            table.append(line)
        widths = [max(len(row[c]) for row in table) for c in range(len(headers))]
        out = [f"protocol: {self.protocol}"]
        for key, value in self.parameters.items():
            out.append(f"{key}: {value}")
        out.append("")
        for row in table:
            out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        return "\n".join(out) + "\n"


def _improvement(baseline: float, recalibrated: float) -> float:
    if baseline == 0.0:
        return 0.0  # both models exact; nothing to improve
    return (baseline - recalibrated) / baseline * 100.0


def raw_counts(values: np.ndarray, transform: str) -> np.ndarray:
    """Model-scale response values back on the count scale, through
    ``back_transform_array`` like the predictions."""
    if transform == "none":
        return values
    return back_transform_array(values, transform)


def _averages(rows: list[ExperimentRow]) -> ExperimentRow:
    n = len(rows)
    base = sum(r.baseline_mmre for r in rows) / n
    recal = sum(r.recalibrated_mmre for r in rows) / n
    imp = sum(r.improvement_pct for r in rows) / n
    with_pred = all(r.baseline_pred is not None for r in rows)
    base_pred = recal_pred = None
    if with_pred:
        thresholds = rows[0].baseline_pred.keys()
        base_pred = {m: sum(r.baseline_pred[m] for r in rows) / n for m in thresholds}
        recal_pred = {m: sum(r.recalibrated_pred[m] for r in rows) / n for m in thresholds}
    return ExperimentRow(
        label="average",
        n_test=sum(r.n_test for r in rows),
        baseline_mmre=base,
        recalibrated_mmre=recal,
        improvement_pct=imp,
        baseline_pred=base_pred,
        recalibrated_pred=recal_pred,
    )


def _prepare_data(ds: Dataset, plan: ModelingPlan) -> Dataset:
    """Materialize declared column transforms, then narrow to the response
    and the plan's predictors and reduce to complete rows.

    A response column that declares its own transform must agree with the
    plan; a response already on the model scale declares 'none' and the
    plan alone records how to get back to counts.
    """
    declared = ds.spec(plan.response).transform
    if declared != "none" and declared != plan.response_transform:
        raise ConfigError(
            f"response {plan.response!r} declares transform {declared!r} "
            f"but the plan expects {plan.response_transform!r}"
        )
    data, _ = apply_schema_transforms(ds)
    used = [plan.response, *plan.predictors]
    return listwise_complete(data.select(used), used)


@dataclass(frozen=True)
class _Encoded:
    """What no split changes, for every row of a prepared table: the design
    (a column of ones, then each predictor on the model scale), the
    response on the model scale and on the count scale, and a route per
    categorical predictor through its identity-started unit."""

    design: np.ndarray
    y: np.ndarray
    actuals: np.ndarray
    routes: Routes


def _encode(data: Dataset, plan: ModelingPlan) -> _Encoded:
    quants = plan.quantification_map()
    design, codings = design_columns(data, plan.predictors, quants)
    return _Encoded(
        design=design,
        y=response_values(data, plan.response),
        actuals=raw_counts(data.columns[plan.response], plan.response_transform),
        routes=routes_for(design, plan.predictors, codings, units_for(codings, quants)),
    )


def _coefficients(enc: _Encoded, rows: np.ndarray | slice, plan: ModelingPlan) -> np.ndarray:
    sol, _ = ols_coefficients(enc.design[rows], enc.y[rows], plan.predictors, plan.response)
    return sol.coefficients


def _split_row(
    label: str,
    context: str,
    enc: _Encoded,
    plan: ModelingPlan,
    train: np.ndarray,
    test: np.ndarray,
    fixed: np.ndarray | None,
) -> ExperimentRow:
    """Fit on the ``train`` rows (unless ``fixed`` coefficients are given),
    recalibrate on them, and score the ``test`` rows with and without the
    units.  Each array is gathered by row before any arithmetic, so every
    product sees the arrays a per-split table would have produced."""
    consequents = [q for _, q in enc.routes.values()]
    try:
        coef = fixed if fixed is not None else _coefficients(enc, train, plan)
        if plan.recalibrate:
            train_routes = {j: (s[train], q) for j, (s, q) in enc.routes.items()}
            consequents, _ = fit_consequents(
                coef, enc.design[train], enc.y[train], train_routes
            )
    except (DataError, NumericalError) as err:
        raise DataError(f"{context}: {err}") from None
    design = enc.design[test]
    test_routes = {
        j: (s[test], q) for (j, (s, _)), q in zip(enc.routes.items(), consequents)
    }
    base_preds = score(coef, design)
    recal_preds = score(coef, design, test_routes)
    if plan.response_transform != "none":
        base_preds = back_transform_array(base_preds, plan.response_transform)
        recal_preds = back_transform_array(recal_preds, plan.response_transform)
    actuals = enc.actuals[test]
    include_pred = len(test) >= plan.min_test_for_pred
    base = _metrics(actuals, base_preds, plan.pred_thresholds, include_pred)
    recal = _metrics(actuals, recal_preds, plan.pred_thresholds, include_pred)
    return ExperimentRow(
        label=label,
        n_test=len(test),
        baseline_mmre=base.mmre,
        recalibrated_mmre=recal.mmre,
        improvement_pct=_improvement(base.mmre, recal.mmre),
        baseline_pred=base.pred if include_pred else None,
        recalibrated_pred=recal.pred if include_pred else None,
    )


def cross_validate(ds: Dataset, plan: ModelingPlan, k: int, seed: int) -> ExperimentReport:
    """Per fold: fit on the training folds, recalibrate on the same
    training folds, evaluate baseline and recalibrated models on the
    held-out fold.  All randomness comes from the fold shuffle; fold work
    itself is deterministic, so any execution order yields the same report.
    """
    data = _prepare_data(ds, plan)
    fold_plan = kfold_plan(data.row_count, k, seed)
    enc = _encode(data, plan)
    fixed = None if plan.refit_regression else _coefficients(enc, slice(None), plan)
    rows = [
        _split_row(
            f"fold {i + 1}", f"fold {i + 1}", enc, plan,
            fold_plan.train(i), fold_plan.fold(i), fixed,
        )
        for i in range(k)
    ]
    return ExperimentReport(
        protocol="cross_validation",
        parameters={"k": k, "seed": seed, "n": data.row_count,
                    "refit_regression": plan.refit_regression},
        rows=tuple(rows),
        averages=_averages(rows),
    )


def random_split_experiment(
    ds: Dataset, plan: ModelingPlan, train_fraction: float, repetitions: int, seed: int
) -> ExperimentReport:
    """Repeated seeded train/test splits; train size rounds half up."""
    if not (0.0 < train_fraction < 1.0):
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if repetitions < 1:
        raise ConfigError(f"repetitions must be at least 1, got {repetitions}")
    data = _prepare_data(ds, plan)
    n = data.row_count
    train_size = math.floor(train_fraction * n + 0.5)
    if train_size < 1 or train_size >= n:
        raise DataError(
            f"train_fraction {train_fraction} leaves no usable split of {n} rows"
        )
    master = RandomStream(seed)
    enc = _encode(data, plan)
    fixed = None if plan.refit_regression else _coefficients(enc, slice(None), plan)
    rows = []
    for r in range(repetitions):
        perm = master.split(r).permutation(n)
        train_idx = np.sort(perm[:train_size])
        test_idx = np.sort(perm[train_size:])
        rows.append(
            _split_row(f"rep {r + 1}", f"repetition {r + 1}", enc, plan, train_idx, test_idx, fixed)
        )
    return ExperimentReport(
        protocol="random_split",
        parameters={
            "train_fraction": train_fraction,
            "train_size": train_size,
            "repetitions": repetitions,
            "seed": seed,
            "n": n,
            "refit_regression": plan.refit_regression,
        },
        rows=tuple(rows),
        averages=_averages(rows),
    )


def resubstitution_experiment(ds: Dataset, plan: ModelingPlan) -> ExperimentReport:
    """Fit, recalibrate, and evaluate on all rows (optimistic by design)."""
    data = _prepare_data(ds, plan)
    every = np.arange(data.row_count)
    row = _split_row("all data", "all data", _encode(data, plan), plan, every, every, None)
    return ExperimentReport(
        protocol="resubstitution",
        parameters={"n": data.row_count},
        rows=(row,),
        averages=_averages([row]),
    )


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceCoefficients:
    """Log-scale generating model: intercept + fp_ln*ln(size) +
    vaf*adjustment + enhancement*indicator."""

    intercept: float = -5.939
    fp_ln: float = 0.704
    vaf: float = 6.011
    enhancement: float = -1.480


DEFAULT_COEFFICIENTS = ReferenceCoefficients()

DEV_TYPE_LABELS = ("New Development", "Re-development", "Enhancement")


@dataclass(frozen=True)
class GeneratorConfig:
    n: int = 64
    noise_sd: float = 0.5
    fp_ln_mean: float = 5.0
    fp_ln_sd: float = 1.0
    effort_ln_mean: float = 7.5
    effort_ln_sd: float = 1.1
    effort_rank_target: float = 0.62
    team_ln_mean: float = 1.5
    team_ln_sd: float = 0.7
    team_rank_target: float = 0.20
    vaf_levels: tuple[float, ...] = (0.65, 0.90, 1.00, 1.10, 1.35)
    dev_type_weights: tuple[float, ...] = (0.35, 0.10, 0.55)
    enhancement_label: str = "Enhancement"
    coefficients: ReferenceCoefficients = field(default_factory=ReferenceCoefficients)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be positive, got {self.n}")
        if self.noise_sd < 0:
            raise ConfigError(f"noise_sd must be nonnegative, got {self.noise_sd}")
        for name in ("fp_ln_sd", "effort_ln_sd", "team_ln_sd"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("effort_rank_target", "team_rank_target"):
            if not (-1.0 < getattr(self, name) < 1.0):
                raise ConfigError(f"{name} must be strictly inside (-1, 1)")
        object.__setattr__(self, "vaf_levels", tuple(sorted(self.vaf_levels)))
        if not self.vaf_levels:
            raise ConfigError("vaf_levels must be nonempty")
        for level in self.vaf_levels:
            total = round((level - 0.65) * 100.0)
            if not (0 <= total <= 70) or abs((65 + total) / 100.0 - level) > 1e-12:
                raise ConfigError(
                    f"vaf level {level} is not attainable from integer ratings"
                )
        object.__setattr__(self, "dev_type_weights", tuple(self.dev_type_weights))
        if len(self.dev_type_weights) != len(DEV_TYPE_LABELS):
            raise ConfigError(
                f"need {len(DEV_TYPE_LABELS)} development-type weights"
            )
        if any(w < 0 for w in self.dev_type_weights) or sum(self.dev_type_weights) <= 0:
            raise ConfigError("dev_type_weights must be nonnegative with positive sum")
        if self.enhancement_label not in DEV_TYPE_LABELS:
            raise ConfigError(
                f"enhancement_label must be one of {DEV_TYPE_LABELS}"
            )


def _rank_to_pearson(rho: float) -> float:
    # exact for bivariate normals: r = 2 sin(pi * rho / 6)
    return 2.0 * math.sin(math.pi * rho / 6.0)


def _ratings_for_sum(total: int) -> list[int]:
    ratings = [0] * 14
    fives, rest = divmod(total, 5)
    for i in range(fives):
        ratings[i] = 5
    if rest and fives < 14:
        ratings[fives] = rest
    return ratings


def generate_synthetic(config: GeneratorConfig, seed: int) -> Dataset:
    """Deterministic synthetic project data; see the module docstring.

    Substreams of the master seed drive each column, so adding a column
    never disturbs the others.  Metadata records the generator parameters
    and the achieved rank correlations.
    """
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
    enhancement = (dev_codes == DEV_TYPE_LABELS.index(config.enhancement_label)).astype(float)

    # each level's ratings and adjustment factor once, gathered per row
    levels = config.vaf_levels
    level_idx = np.minimum((vaf_u * len(levels)).astype(np.int64), len(levels) - 1)
    level_ratings = [_ratings_for_sum(round((v - 0.65) * 100.0)) for v in levels]
    vaf_values = np.array([compute_vaf(r) for r in level_ratings])[level_idx]
    ratings_table = np.array(level_ratings, dtype=float)

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
    columns["dev_type"] = dev_codes.astype(np.int32)
    columns["vaf"] = level_idx.astype(np.int32)
    for j in range(14):
        name = f"gsc_{j + 1:02d}"
        schema.append(VariableSpec(name, "excluded", "numeric"))
        columns[name] = ratings_table[level_idx, j]

    missing = {
        name: np.zeros(n, dtype=bool) for name in columns
    }
    achieved_efforts = spearman(ln_fp, ln_eff).rho if n >= 3 else None
    achieved_team = spearman(ln_fp, team).rho if n >= 3 else None
    metadata = {
        "generator": {
            "seed": seed,
            "config": asdict(config),
            "achieved_spearman_fp_efforts": achieved_efforts,
            "achieved_spearman_fp_team": achieved_team,
            "dev_type_counts": {
                lab: int((dev_codes == i).sum())
                for i, lab in enumerate(DEV_TYPE_LABELS)
            },
        }
    }
    return Dataset(schema, columns, missing, metadata=metadata)


def quantification_from_labels(ds: Dataset, variable: str) -> Quantification:
    """Initial quantification read off numeric-looking category labels."""
    spec = ds.spec(variable)
    if not spec.is_categorical:
        raise DataError(f"variable {variable!r} is not categorical")
    mapping = {}
    for label in spec.categories:
        try:
            mapping[label] = float(label)
        except ValueError:
            raise DataError(
                f"category {label!r} of {variable!r} is not a numeric label"
            ) from None
    return Quantification(variable=variable, mapping=mapping, source="initial")


def perturb_quantification(
    quant: Quantification, max_shift: float, seed: int
) -> Quantification:
    """Independent uniform shifts in [-max_shift, max_shift] per category.

    Labels are shifted in sorted order so the result depends only on the
    mapping contents and the seed.
    """
    if max_shift < 0:
        raise ConfigError(f"max_shift must be nonnegative, got {max_shift}")
    labels = sorted(quant.mapping)
    shifts = (2.0 * RandomStream(seed).uniforms(len(labels)) - 1.0) * max_shift
    mapping = {
        label: quant.mapping[label] + float(shift)
        for label, shift in zip(labels, shifts)
    }
    return Quantification(variable=quant.variable, mapping=mapping, source="initial")
