"""Accuracy metrics, evaluation protocols, and the synthetic generator.

Metrics (MMRE, Pred(m)) are computed on raw defect counts.  Predictors
return the model scale, and ``raw_counts`` is the one back-transform from
there to counts, for predictions and actuals alike.  Three protocols run
one loop (``_experiment``) over their lists of train/test splits: k-fold
cross-validation, repeated random splits, and resubstitution (one split
that fits and evaluates on all rows, clearly labeled).  A protocol only
checks its arguments and builds its splits.  Every protocol is a pure
function of (data, plan, seed): reports are byte-identical across runs.
Folds and random splits are drawn as uniform keys, not by a shuffle.

The loop encodes the prepared table once: the design matrix, the response
on the model and count scales, and each categorical column's anchor codes.
It then walks the splits in blocks: runs of consecutive splits with the
same train and test sizes, each cut to at most ``_BLOCK_CELLS`` gathered
training-design cells.  Random splits all have one size, and k-fold sizes
never grow from fold to fold, so the blocks keep split order.  A block
gathers its rows once into stacked arrays.  The two least-squares solves,
the plain OLS coefficients (no inference) and ``ConsequentFit``'s solve on
category cells, each run once per block on the stacked designs; the
solvers in ``numerics`` still factor each split's matrix on its own.  One
``linear_score`` call scores the test designs with and without the units'
outputs, and the counts, the actuals check and the metrics run once per
block too.  Rows are gathered before any product, elementwise arithmetic
does not depend on the stacking, and each LAPACK call sees the matrix a
lone split would pass, so the report bytes match those of each split's
own table.  Faults are ordered in one place: a block of several splits that
raises runs again one split at a time, in split order, so the run raises
the fault of the first faulty split.

The generator emits a project dataset with the shape this package models:
size in function points with log-normal spread, 14 system-characteristic
ratings condensed into an adjustment factor, a three-level development
type, effort rank-correlated with size, a weakly linked team-size column,
and a defect count following the built-in reference coefficients on the
log scale plus normal noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._errors import ConfigError, DataError, NumericalError
from .dataset import Dataset, VariableSpec, listwise_complete
from .numerics import RandomStream
from .recalibration import ConsequentFit, coded_columns, units_for, with_unit_outputs
from .regression import design_columns, linear_score, ols_coefficients, response_values
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
    "SYNTHETIC_COLUMNS",
    "mmre",
    "pred_at",
    "raw_counts",
    "kfold_plan",
    "cross_validate",
    "random_split_experiment",
    "resubstitution_experiment",
    "generate_synthetic",
    "synthetic_schema",
    "quantification_from_labels",
]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _check_actuals(actuals: np.ndarray) -> None:
    """Raise DataError unless relative errors are defined on ``actuals``,
    one array of any shape."""
    if actuals.size == 0:
        raise DataError("metric inputs are empty")
    if (actuals <= 0).any():
        raise DataError("nonpositive actual value; relative error is undefined")


def _check_metric_inputs(actuals, predictions) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actuals, dtype=float)
    p = np.asarray(predictions, dtype=float)
    if a.ndim != 1:
        raise DataError(f"metric inputs must be 1-d, got {a.ndim} dimensions")
    if a.size == 0:
        raise DataError("metric inputs are empty")
    if a.shape != p.shape:
        raise DataError(
            f"actuals and predictions differ in length ({a.size} vs {p.size})"
        )
    for name, values in (("actual", a), ("prediction", p)):
        if not np.isfinite(values).all():
            raise DataError(f"non-finite {name} value; relative error is undefined")
    _check_actuals(a)
    return a, p


def mmre(actuals, predictions) -> float:
    """Mean magnitude of relative error over raw counts."""
    a, p = _check_metric_inputs(actuals, predictions)
    return float(_metrics(a, p, ()).mmre)


def pred_at(actuals, predictions, m: float) -> float:
    """Fraction of rows whose relative error is at most m."""
    if not m >= 0:  # NaN too
        raise ConfigError(f"threshold must be nonnegative, got {m}")
    a, p = _check_metric_inputs(actuals, predictions)
    return float(_metrics(a, p, (m,)).pred[m])


@dataclass(frozen=True)
class EvalMetrics:
    """MMRE and Pred at each threshold over ``n`` rows; for stacked rows,
    arrays over the leading axes."""

    mmre: float | np.ndarray
    pred: dict[float, float | np.ndarray]
    n: int


def _metrics(actuals: np.ndarray, predictions: np.ndarray, thresholds) -> EvalMetrics:
    """``mmre`` and ``pred_at`` at each threshold, from one relative-error
    array, along the last axis of float arrays that broadcast, whose
    actuals ``_check_actuals`` has passed.  ``np.add.reduce(errors,
    axis=-1) / n`` is the sum and division ``np.mean`` runs on each row,
    without its dispatch, and a hit count over ``n`` is the correctly
    rounded mean of the hits."""
    errors = np.abs(actuals - predictions) / actuals
    n = errors.shape[-1]
    pred = {m: np.add.reduce(errors <= m, axis=-1, dtype=np.intp) / n for m in thresholds}
    return EvalMetrics(mmre=np.add.reduce(errors, axis=-1) / n, pred=pred, n=n)


# ---------------------------------------------------------------------------
# fold planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldPlan:
    """Seeded key order + round-robin fold assignment; sizes differ by <= 1."""

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
    """Fold i mod k for the i-th row in the stable argsort of n uniform keys."""
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ConfigError(f"cannot split {n} rows into {k} folds")
    assignment = np.empty(n, dtype=np.int64)
    assignment[np.argsort(RandomStream(seed).uniforms(n), kind="stable")] = np.arange(n) % k
    return FoldPlan(n=n, k=k, seed=seed, assignment=assignment)


# ---------------------------------------------------------------------------
# modeling plan and report assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelingPlan:
    """What to fit and how to judge it inside an evaluation protocol.

    Every fit is plain OLS on all of ``predictors``: selection happens
    before the plan is made (the pipeline passes the stepwise-selected
    variables), and every split refits it on its own training rows; no
    split reuses coefficients fit on rows it tests.  ``codings`` maps each
    categorical predictor's labels to values, as a model's ``codings``
    do; a binary predictor left out is coded 0/1.
    """

    response: str
    predictors: tuple[str, ...]
    codings: dict[str, dict[str, float]] = field(default_factory=dict)
    response_transform: str = "ln"
    recalibrate: bool = True
    pred_thresholds: tuple[float, ...] = (0.25,)
    min_test_for_pred: int = 10

    def __post_init__(self):
        if not self.predictors:
            raise ConfigError("modeling plan needs at least one predictor")
        object.__setattr__(self, "predictors", tuple(self.predictors))
        object.__setattr__(self, "pred_thresholds", tuple(self.pred_thresholds))
        for m in self.pred_thresholds:
            if not m >= 0:  # NaN too
                raise ConfigError(f"threshold must be nonnegative, got {m}")
        if self.min_test_for_pred < 1:
            raise ConfigError("min_test_for_pred must be at least 1")


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


def _improvement(baseline: float, recalibrated: float) -> float:
    """Relative MMRE reduction from baseline to recalibrated, in percent."""
    if baseline == 0.0:
        return 0.0  # both models exact; nothing to improve
    return (baseline - recalibrated) / baseline * 100.0


def raw_counts(values: np.ndarray, transform: str) -> np.ndarray:
    """Model-scale values (predictions and actuals alike) back on the count
    scale, the one way to counts, so every count on the report comes from
    one formula.  Values of a response without a transform are returned as
    they are.  ``math.exp``/``math.expm1`` per element on Python floats,
    not ``np.exp``: the two differ in the last bit on a few percent of
    inputs.  A count beyond the float range raises NumericalError naming
    the first model-scale value that overflows."""
    if transform == "none":
        return values
    if transform == "ln":
        fn = math.exp
    elif transform == "ln1p":
        fn = math.expm1
    else:
        raise DataError(f"back-transform undefined for response transform {transform!r}")
    cells = values.tolist()
    rest = iter(cells)
    try:
        return np.fromiter(map(fn, rest), float, count=len(cells))
    except OverflowError:
        # map stops on the value that overflowed, the last one taken from rest
        value = cells[len(cells) - sum(1 for _ in rest) - 1]
        raise NumericalError(
            f"back-transform overflows: model-scale value {value!r} has no finite count"
        ) from None


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
    response on the model scale and on the count scale, and each
    categorical column's anchor codes and identity consequents."""

    design: np.ndarray
    y: np.ndarray
    actuals: np.ndarray
    codes: dict[int, np.ndarray]
    anchors: dict[int, np.ndarray]


def _encode(data: Dataset, plan: ModelingPlan) -> _Encoded:
    design, codings = design_columns(data, plan.predictors, plan.codings)
    codes, anchors = coded_columns(design, plan.predictors, codings, units_for(codings))
    return _Encoded(
        design=design,
        y=response_values(data, plan.response),
        actuals=raw_counts(data.columns[plan.response], plan.response_transform),
        codes=codes,
        anchors=anchors,
    )


# the most gathered OLS training-design cells (splits x rows x columns) that one
# block holds: it bounds only those S x n x p designs, as cell designs do not grow
_BLOCK_CELLS = 1 << 14


def _blocks(splits, columns: int):
    """``splits`` in runs of consecutive splits with equal train and test
    sizes, each run cut to at most ``_BLOCK_CELLS`` training-design cells
    of ``columns`` columns (one split at the least)."""
    block, size = [], None
    for split in splits:
        if block and (
            (len(split[2]), len(split[3])) != size
            or (len(block) + 1) * size[0] * columns > _BLOCK_CELLS
        ):
            yield block
            block = []
        block.append(split)
        size = (len(split[2]), len(split[3]))
    if block:
        yield block


def _block_rows(block, enc: _Encoded, plan: ModelingPlan, rows: list) -> None:
    """Append the report rows of a block of splits to ``rows``, once the
    whole block has passed its checks.

    Each split fits OLS on its train rows, recalibrates on them, and scores
    its test rows with and without the units.  Each solve runs for the
    block in one stacked call, so a block raises when any of its splits
    faults: a fit or consequent fault in the context of the block's first
    split, then a count overflow, then a nonpositive actual.
    ``_experiment`` replays a faulty block split by split, which orders
    its faults."""
    train = np.array([split[2] for split in block])
    train_design, train_y = enc.design.take(train, axis=0), enc.y.take(train)
    try:
        sol, _ = ols_coefficients(train_design, train_y, plan.predictors, plan.response)
        coef = sol.coefficients
        if plan.recalibrate:
            fit = ConsequentFit(
                coef, train_design, train_y,
                {j: c.take(train) for j, c in enc.codes.items()}, enc.anchors,
            )
            fit.solve()
    except (DataError, NumericalError) as err:
        raise DataError(f"{block[0][1]}: {err}") from None

    test = np.array([split[3] for split in block])
    design = enc.design.take(test, axis=0)
    # the identity consequents are the anchors, which equal the design values
    recal = design
    if plan.recalibrate and enc.codes:
        codes = {j: c.take(test) for j, c in enc.codes.items()}
        recal = with_unit_outputs(design, codes, fit.consequents())
    # base then recalibrated scores of each split
    scores = linear_score(coef[:, None], np.stack((design, recal), axis=1))
    counts = raw_counts(scores.reshape(-1), plan.response_transform)
    actuals = enc.actuals.take(test)
    _check_actuals(actuals)
    t = test.shape[1]
    include_pred = t >= plan.min_test_for_pred
    metrics = _metrics(
        actuals[:, None, :],
        counts.reshape(len(block), 2, t),
        plan.pred_thresholds if include_pred else (),
    )
    mmres = metrics.mmre.tolist()
    preds = {m: p.tolist() for m, p in metrics.pred.items()}
    for s, split in enumerate(block):
        base, recal = mmres[s]
        rows.append(ExperimentRow(
            label=split[0],
            n_test=t,
            baseline_mmre=base,
            recalibrated_mmre=recal,
            improvement_pct=_improvement(base, recal),
            baseline_pred={m: p[s][0] for m, p in preds.items()} if include_pred else None,
            recalibrated_pred={m: p[s][1] for m, p in preds.items()} if include_pred else None,
        ))


def _experiment(
    protocol: str, parameters: dict, data: Dataset, plan: ModelingPlan, splits
) -> ExperimentReport:
    """The protocols' one loop: encode the prepared table once, then one
    report row per ``(label, context, train rows, test rows)`` in
    ``splits``, block by block; each split fits its own OLS on its train
    rows (see ``_block_rows``).  A block of several splits that faults
    runs again as blocks of one, in split order, so the fault raised is
    the one that scoring the splits one at a time raises first."""
    enc = _encode(data, plan)
    rows = []
    for block in _blocks(splits, enc.design.shape[1]):
        try:
            _block_rows(block, enc, plan, rows)
        except (DataError, NumericalError):
            if len(block) == 1:
                raise
            for split in block:
                _block_rows([split], enc, plan, rows)
    return ExperimentReport(
        protocol=protocol, parameters=parameters, rows=tuple(rows), averages=_averages(rows)
    )


def cross_validate(ds: Dataset, plan: ModelingPlan, k: int, seed: int) -> ExperimentReport:
    """Per fold: fit on the training folds, recalibrate on the same
    training folds, evaluate baseline and recalibrated models on the
    held-out fold.  All randomness comes from the fold keys; fold work
    itself is deterministic, so any execution order yields the same report.
    """
    data = _prepare_data(ds, plan)
    folds = kfold_plan(data.row_count, k, seed)
    splits = [
        (f"fold {i + 1}", f"fold {i + 1}", folds.train(i), folds.fold(i)) for i in range(k)
    ]
    parameters = {"k": k, "seed": seed, "n": data.row_count}
    return _experiment("cross_validation", parameters, data, plan, splits)


def random_split_experiment(
    ds: Dataset, plan: ModelingPlan, train_fraction: float, repetitions: int, seed: int
) -> ExperimentReport:
    """Repeated seeded train/test splits; train size m rounds half up.
    Repetition r trains on the rows of the m smallest uniform keys of child
    stream r, a uniform m-subset (Knuth, *TAOCP* Vol. 2, section 3.4.2)."""
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
    trains, tests = RandomStream(seed).split_subsets(repetitions, n, train_size)
    splits = [
        (f"rep {r + 1}", f"repetition {r + 1}", trains[r], tests[r]) for r in range(repetitions)
    ]
    parameters = {
        "train_fraction": train_fraction, "train_size": train_size,
        "repetitions": repetitions, "seed": seed, "n": n,
    }
    return _experiment("random_split", parameters, data, plan, splits)


def resubstitution_experiment(ds: Dataset, plan: ModelingPlan) -> ExperimentReport:
    """Fit, recalibrate, and evaluate on all rows (optimistic by design)."""
    data = _prepare_data(ds, plan)
    every = np.arange(data.row_count)
    return _experiment(
        "resubstitution", {"n": data.row_count}, data, plan,
        [("all data", "all data", every, every)],
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

# the generator's columns in schema order: the response, five predictors,
# then the 14 system-characteristic ratings
SYNTHETIC_COLUMNS = (
    "defects", "fp", "efforts", "max_team_size", "dev_type", "vaf",
    *(f"gsc_{j:02d}" for j in range(1, 15)),
)


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


def synthetic_schema(config: GeneratorConfig) -> tuple[VariableSpec, ...]:
    """The schema of ``generate_synthetic(config, seed)`` at any seed."""
    # (role, kind, transform, categories) of each column, in SYNTHETIC_COLUMNS order
    declared = [
        ("response", "numeric", "ln", ()),
        ("predictor", "numeric", "ln", ()),
        ("predictor", "numeric", "ln", ()),
        ("predictor", "numeric", "none", ()),
        ("predictor", "categorical", "none", DEV_TYPE_LABELS),
        ("predictor", "categorical", "none", tuple(f"{v:.2f}" for v in config.vaf_levels)),
    ] + [("excluded", "numeric", "none", ())] * 14
    return tuple(VariableSpec(name, *d) for name, d in zip(SYNTHETIC_COLUMNS, declared))


def generate_synthetic(config: GeneratorConfig, seed: int) -> Dataset:
    """Deterministic synthetic project data; see the module docstring.

    Substreams of the master seed drive each column, so adding a column
    never disturbs the others.
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

    values = (defects, fp, efforts, team, dev_codes, level_idx, *ratings_table[level_idx].T)
    return Dataset(synthetic_schema(config), dict(zip(SYNTHETIC_COLUMNS, values)))


def quantification_from_labels(ds: Dataset, variable: str) -> dict[str, float]:
    """Initial label→value mapping read off numeric-looking category
    labels."""
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
    return mapping
