"""Linear-model backbone: OLS with inference, stepwise selection, and
optimal scaling of categorical predictors.

Categorical predictors enter a fit through ``codings``: a plain
``{label: value}`` mapping per variable, keyed by variable name.  A binary
variable without one is coded 0/1 by category order.  The optimal-scaling
fit (``catreg_fit``) alternates OLS with per-category least-squares updates
of the quantifications until R^2 stops improving; ordinal variables are
projected monotone by pool-adjacent-violators inside each pass.

A fitted ``LinearModel`` records each categorical term's label to number
mapping in ``codings``, and scoring reads no other.  ``linear_score`` is
the one predictor, for one fit or a stack of them: ``model_predict`` is
the ``linear_score`` of a model's ``model_design``, and ``recalibration``
and ``evaluation`` score through it too.  Predictions stay on the model
scale (the response as fitted); ``evaluation.raw_counts`` is the one way
from there to counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._errors import ConfigError, ConvergenceError, DataError, NumericalError
from .dataset import Dataset, listwise_complete, sample_sd
from .numerics import LeastSquaresSolution, dot, solve_least_squares, t_cdf, unscaled_covariance

__all__ = [
    "ModelTerm",
    "LinearModel",
    "StepwiseStep",
    "StepwiseTrace",
    "CatregResult",
    "ols_fit",
    "stepwise_fit",
    "catreg_fit",
    "model_predict",
]

# catreg stops once a pass raises R^2 by less than this, and gives up
# (ConvergenceError) if it is still improving after this many passes
_CATREG_TOL = 1e-8
_CATREG_MAX_ITER = 500


@dataclass(frozen=True)
class ModelTerm:
    variable: str
    coefficient: float
    std_coefficient: float
    std_error: float
    t_value: float
    p_value: float


@dataclass(frozen=True)
class LinearModel:
    """A fitted linear model plus the codings needed to reuse it on rows.

    ``codings`` stores, for every categorical term, the label to number
    mapping actually used at fit time (a supplied coding or the 0/1 binary
    coding).  Prediction values labels by these codings alone.
    ``response_transform`` records how the response column had been
    transformed before fitting ('none', 'ln', or 'ln1p').
    """

    response: str
    response_transform: str
    intercept: float
    intercept_p: float
    terms: tuple[ModelTerm, ...]
    r_squared: float
    n: int
    codings: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(t.variable for t in self.terms)

    def term(self, variable: str) -> ModelTerm:
        for t in self.terms:
            if t.variable == variable:
                return t
        raise DataError(f"model has no term for {variable!r}")

    def formula(self) -> str:
        resp = self.response
        if self.response_transform == "ln":
            resp = f"ln({resp})"
        elif self.response_transform == "ln1p":
            resp = f"ln1p({resp})"
        parts = [f"{resp} = {self.intercept:.4g}"]
        for t in self.terms:
            sign = "-" if t.coefficient < 0 else "+"
            parts.append(f"{sign} {abs(t.coefficient):.4g}*{t.variable}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        return {
            "response": self.response,
            "response_transform": self.response_transform,
            "intercept": self.intercept,
            "intercept_p": self.intercept_p,
            "r_squared": self.r_squared,
            "n": self.n,
            "terms": [
                {
                    "variable": t.variable,
                    "coefficient": t.coefficient,
                    "std_coefficient": t.std_coefficient,
                    "std_error": t.std_error,
                    "t_value": t.t_value,
                    "p_value": t.p_value,
                }
                for t in self.terms
            ],
            "codings": {k: dict(v) for k, v in self.codings.items()},
            "formula": self.formula(),
        }


def design_columns(
    ds: Dataset,
    predictors: Sequence[str],
    codings: dict[str, dict[str, float]] | None = None,
) -> tuple[np.ndarray, dict[str, dict[str, float]]]:
    """The design matrix, a column of ones and then one numeric column per
    predictor in order, plus the codings used.

    Rows must already be listwise complete for the predictors.  Categorical
    predictors need a label to value mapping in ``codings`` unless binary,
    in which case they are coded 0/1 by category order.
    """
    codings = codings or {}
    cols = [np.ones(ds.row_count)]
    used: dict[str, dict[str, float]] = {}
    for name in predictors:
        spec = ds.spec(name)
        if spec.kind == "numeric":
            cols.append(ds.columns[name])
            continue
        if name in codings:
            mapping = dict(codings[name])
        elif spec.kind == "binary" or len(spec.categories) == 2:
            mapping = {label: float(i) for i, label in enumerate(spec.categories)}
        else:
            raise DataError(
                f"categorical predictor {name!r} has {len(spec.categories)} "
                f"categories and no quantification"
            )
        used[name] = mapping
        cols.append(ds.encode(name, mapping))
    return np.column_stack(cols), used


def response_values(ds: Dataset, response: str) -> np.ndarray:
    spec = ds.spec(response)
    if spec.is_categorical:
        raise DataError(f"response {response!r} must be numeric")
    return ds.columns[response].astype(float)


def _total_sum_squares(y: np.ndarray) -> float | np.ndarray:
    """Sum of squared deviations of float64 ``y`` from its mean, or of each
    row of a stack ``y``.  The sums are the ones ``np.mean`` and
    ``ndarray.sum`` run, so the bits equal ``((y - y.mean()) ** 2).sum()``
    without that form's dispatch; a row of a stack sums as it would
    alone."""
    d = y - (np.add.reduce(y, axis=-1) / y.shape[-1])[..., None]
    tss = np.add.reduce(d * d, axis=-1)
    return float(tss) if y.ndim == 1 else tss


def ols_coefficients(
    design: np.ndarray, y: np.ndarray, predictors: Sequence[str], response: str
) -> tuple[LeastSquaresSolution, float | np.ndarray]:
    """The solve of ``ols_fit`` without its inference: least-squares
    coefficients of a ``design_columns`` design and the total sum of
    squares of ``y``, or of each fit of a stack (designs S x n x p and
    responses S x n) in one ``solve_least_squares`` call.

    Raises DataError for too few rows or a response without variance, and
    NumericalError naming the first collinear predictor.  A stack raises
    the first faulty fit's fault, with that fit's index in ``index``; a
    fit's solve fault comes before its response's lack of variance.
    """
    n, columns = design.shape[-2:]
    p = columns - 1
    if n <= p + 1:
        raise DataError(
            f"OLS needs more than {p + 1} complete rows for {p} predictors, got {n}"
        )
    tss = _total_sum_squares(y)
    constant = np.flatnonzero(np.reshape(tss, -1) == 0.0)
    try:
        sol = solve_least_squares(design, y)
    except NumericalError as err:
        # a fault past an earlier fit's constant response gives way to it below
        if not constant.size or err.index <= constant[0]:
            col = getattr(err, "column", None)
            if col is None:
                raise
            name = "intercept" if col == 0 else predictors[col - 1]
            named = NumericalError(
                f"collinear design: {name!r} is linearly dependent on the other terms"
            )
            named.variable, named.index = name, err.index
            raise named from None
    if constant.size:
        err = DataError(f"response {response!r} has zero variance on the fit rows")
        err.index = int(constant[0])
        raise err
    return sol, tss


def ols_fit(
    ds: Dataset,
    response: str,
    predictors: Sequence[str],
    codings: dict[str, dict[str, float]] | None = None,
    response_transform: str = "none",
) -> LinearModel:
    """Ordinary least squares with t-based inference per coefficient.

    Categorical predictors are valued by their mapping in ``codings``
    (binary ones default to 0/1), as in ``design_columns``.  Standardized
    coefficients use sample (n-1) standard deviations.  The dataset is
    reduced to rows listwise complete over the response and all predictors
    before fitting.
    """
    predictors = list(predictors)
    data = listwise_complete(ds, [response] + predictors)
    n = data.row_count
    p = len(predictors)
    y = response_values(data, response)
    design, used = design_columns(data, predictors, codings)
    sol, tss = ols_coefficients(design, y, predictors, response)
    coef = sol.coefficients
    rss = sol.residual_sum_squares
    sd_y = sample_sd(y)
    r_squared = 1.0 - rss / tss

    df = n - p - 1
    sigma2 = rss / df
    cov = sigma2 * unscaled_covariance(sol)
    ses = np.sqrt(np.maximum(np.diag(cov), 0.0))

    def _p_of(b: float, se: float) -> float:
        if se == 0.0:
            return 1.0 if b == 0.0 else 0.0
        return 2.0 * t_cdf(-abs(b / se), df)

    terms = []
    for j, name in enumerate(predictors, start=1):
        b = float(coef[j])
        se = float(ses[j])
        t = math.inf if se == 0.0 and b != 0.0 else (0.0 if se == 0.0 else b / se)
        beta = b * sample_sd(design[:, j]) / sd_y
        terms.append(
            ModelTerm(
                variable=name,
                coefficient=b,
                std_coefficient=float(beta),
                std_error=se,
                t_value=float(t),
                p_value=_p_of(b, se),
            )
        )
    return LinearModel(
        response=response,
        response_transform=response_transform,
        intercept=float(coef[0]),
        intercept_p=_p_of(float(coef[0]), float(ses[0])),
        terms=tuple(terms),
        r_squared=float(r_squared),
        n=n,
        codings=used,
    )


# ---------------------------------------------------------------------------
# stepwise selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepwiseStep:
    action: str  # 'enter' or 'remove'
    variable: str
    p_value: float


@dataclass(frozen=True)
class StepwiseTrace:
    steps: tuple[StepwiseStep, ...]
    included: tuple[str, ...]
    final_model: LinearModel


def stepwise_fit(
    ds: Dataset,
    response: str,
    candidates: Sequence[str],
    p_enter: float = 0.05,
    p_remove: float = 0.10,
    codings: dict[str, dict[str, float]] | None = None,
    response_transform: str = "none",
) -> StepwiseTrace:
    """Forward-entry stepwise regression with backward removal.

    Each pass enters the excluded candidate with the smallest p below
    ``p_enter``, then removes included variables whose p exceeds
    ``p_remove`` (largest first) until none does.  Ties in p break on |t|
    (the larger enters, the smaller leaves), and only then on candidate
    order, so p-values that both underflow to 0 still rank by signal.
    Rows are fixed up front: listwise complete over the response and every
    candidate, so all fits see the same data.  The procedure stops when a
    full pass changes nothing or after 2 * len(candidates) actions.
    ``steps`` and ``included`` record the entry path; ``final_model`` is the
    fit on the included set in candidate order, so two paths to one set
    give one model.
    """
    if not candidates:
        raise ConfigError("stepwise needs at least one candidate")
    if p_enter > p_remove:
        raise ConfigError(
            f"p_enter ({p_enter}) must not exceed p_remove ({p_remove})"
        )
    candidates = list(candidates)
    data = listwise_complete(ds, [response] + candidates)

    def _fit(variables: list[str]) -> LinearModel:
        return ols_fit(data, response, variables, codings, response_transform)

    included: list[str] = []
    steps: list[StepwiseStep] = []
    max_actions = 2 * len(candidates)
    while len(steps) < max_actions:
        changed = False
        # entry
        best_var, best_key = None, None
        for var in candidates:
            if var in included:
                continue
            try:
                trial = _fit(included + [var])
            except NumericalError:
                continue  # collinear with current model, ineligible
            term = trial.term(var)
            key = (term.p_value, -abs(term.t_value))
            if term.p_value < p_enter and (best_key is None or key < best_key):
                best_var, best_key = var, key
        if best_var is not None:
            included.append(best_var)
            steps.append(StepwiseStep("enter", best_var, best_key[0]))
            changed = True
        # removal sweep
        while included and len(steps) < max_actions:
            model = _fit(included)
            worst = max(model.terms, key=lambda t: (t.p_value, -abs(t.t_value)))
            if worst.p_value > p_remove:
                included.remove(worst.variable)
                steps.append(StepwiseStep("remove", worst.variable, worst.p_value))
                changed = True
            else:
                break
        if not changed:
            break
    return StepwiseTrace(
        steps=tuple(steps),
        included=tuple(included),
        final_model=_fit([var for var in candidates if var in included]),
    )


# ---------------------------------------------------------------------------
# optimal scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatregResult:
    """The final OLS fit on the optimal quantifications, which it records
    in ``model.codings``, plus the iteration count and the R^2 path."""

    model: LinearModel
    iterations: int
    r_squared_path: tuple[float, ...]


def _pav_weighted(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted least-squares projection onto nondecreasing sequences."""
    blocks = [[float(v), float(w)] for v, w in zip(values, weights)]
    merged: list[list[float]] = []
    counts: list[int] = []
    for v, w in blocks:
        merged.append([v, w])
        counts.append(1)
        while len(merged) > 1 and merged[-2][0] > merged[-1][0]:
            v2, w2 = merged.pop()
            c2 = counts.pop()
            v1, w1 = merged[-1]
            total = w1 + w2
            merged[-1] = [(v1 * w1 + v2 * w2) / total if total > 0 else 0.0, total]
            counts[-1] += c2
        # zero-weight categories just follow their block
    out = np.empty(values.size)
    pos = 0
    for (v, _), c in zip(merged, counts):
        out[pos : pos + c] = v
        pos += c
    return out


def _monotone_projection(means: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Best monotone fit to the category means, in either direction."""
    up = _pav_weighted(means, weights)
    down = -_pav_weighted(-means, weights)
    err_up = float(weights @ (means - up) ** 2)
    err_down = float(weights @ (means - down) ** 2)
    return up if err_up <= err_down else down


def _standardize(col: np.ndarray) -> np.ndarray | None:
    centered = col - col.mean()
    var = float(np.mean(centered**2))
    if var <= 0.0:
        return None
    return centered / math.sqrt(var)


def catreg_fit(
    ds: Dataset,
    response: str,
    predictors: Sequence[str],
    scaling: dict[str, str] | None = None,
    response_transform: str = "none",
) -> CatregResult:
    """Alternating-least-squares optimal scaling regression.

    Categorical predictors get data-driven quantifications: each pass runs
    OLS on the current quantified columns, then per variable (in the order
    given) replaces each category's value with the category mean of the
    working target (current residual plus that variable's own contribution),
    projects ordinal variables monotone, restandardizes to mean 0 and
    variance 1 over the fit rows, and re-estimates that variable's
    coefficient.  R^2 never decreases; iteration stops when it improves by
    less than ``_CATREG_TOL``.
    """
    scaling = scaling or {}
    for name, level in scaling.items():
        if level not in ("nominal", "ordinal"):
            raise ConfigError(f"unknown scaling level {level!r} for {name!r}")
    predictors = list(predictors)
    data = listwise_complete(ds, [response] + predictors)
    n = data.row_count
    p = len(predictors)
    if n <= p + 1:
        raise DataError(
            f"optimal scaling needs more than {p + 1} complete rows, got {n}"
        )
    y = response_values(data, response)

    numeric = [v for v in predictors if data.spec(v).kind == "numeric"]
    categorical = [v for v in predictors if data.spec(v).is_categorical]
    if not categorical:
        raise ConfigError("optimal scaling needs at least one categorical predictor")

    codes: dict[str, np.ndarray] = {}
    k_of: dict[str, int] = {}
    counts: dict[str, np.ndarray] = {}
    for name in categorical:
        spec = data.spec(name)
        codes[name] = data.columns[name].astype(np.int64)
        k = len(spec.categories)
        k_of[name] = k
        cnt = np.bincount(codes[name], minlength=k).astype(float)
        empty = [spec.categories[i] for i in range(k) if cnt[i] == 0]
        if empty:
            raise DataError(
                f"categories of {name!r} with zero training rows: {empty}"
            )
        counts[name] = cnt

    # initial quantification: standardized category index
    z: dict[str, np.ndarray] = {}
    for name in categorical:
        col = _standardize(codes[name].astype(float))
        if col is None:
            raise DataError(f"predictor {name!r} is constant on the fit rows")
        z[name] = col

    numeric_block = (
        np.column_stack([data.columns[v].astype(float) for v in numeric])
        if numeric
        else np.empty((n, 0))
    )
    tss = _total_sum_squares(y)
    if tss == 0.0:
        raise DataError(f"response {response!r} has zero variance on the fit rows")

    def _design() -> np.ndarray:
        cols = [np.ones(n), numeric_block] + [z[v][:, None] for v in categorical]
        return np.hstack([c if c.ndim == 2 else c[:, None] for c in cols])

    cat_positions = {v: 1 + len(numeric) + i for i, v in enumerate(categorical)}

    r2_path: list[float] = []
    previous_r2 = -math.inf
    iterations = 0
    for iterations in range(1, _CATREG_MAX_ITER + 1):
        design = _design()
        sol = solve_least_squares(design, y)
        coef = sol.coefficients.copy()
        r2 = 1.0 - sol.residual_sum_squares / tss
        r2_path.append(float(r2))
        if r2 - previous_r2 < _CATREG_TOL and iterations > 1:
            break
        previous_r2 = r2

        residual = y - design @ coef
        for name in categorical:
            b = float(coef[cat_positions[name]])
            working = residual + b * z[name]
            sums = np.bincount(codes[name], weights=working, minlength=k_of[name])
            means = sums / counts[name]
            if name in scaling and scaling[name] == "ordinal":
                means = _monotone_projection(means, counts[name])
            col = _standardize(means[codes[name]])
            if col is None:
                continue  # no usable signal this pass; keep previous values
            new_b = dot(col, working) / n  # population-variance-1 column
            residual = working - new_b * col
            z[name] = col
            coef[cat_positions[name]] = new_b

    if iterations == _CATREG_MAX_ITER and r2_path[-1] - r2_path[-2] >= _CATREG_TOL:
        raise ConvergenceError(
            f"optimal scaling did not converge within {_CATREG_MAX_ITER} iterations"
        )

    # every category has a row (checked above): read its value off the first
    quantified = {}
    for name in categorical:
        first_rows = np.unique(codes[name], return_index=True)[1]
        quantified[name] = dict(zip(data.spec(name).categories, z[name][first_rows].tolist()))
    model = ols_fit(data, response, predictors, quantified, response_transform)
    return CatregResult(
        model=model,
        iterations=iterations,
        r_squared_path=tuple(r2_path),
    )


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def model_design(model: LinearModel, ds: Dataset) -> np.ndarray:
    """The ``design_columns`` design of the model's terms on every row of
    ``ds``, with labels valued by the model's fit-time codings.  A missing
    cell raises DataError naming its variable, so no prediction comes back
    NaN."""
    for name in model.variables:
        if ds.spec(name).kind == "numeric" and np.isnan(ds.columns[name]).any():
            raise DataError(f"missing value in numeric variable {name!r}")
    design, _ = design_columns(ds, model.variables, model.codings)
    return design


def model_coefficients(model: LinearModel) -> np.ndarray:
    """The model's coefficient vector: the intercept, then each term's
    coefficient, in the order of its ``model_design`` columns."""
    return np.array([model.intercept, *(t.coefficient for t in model.terms)])


def linear_score(coefficients: np.ndarray, design: np.ndarray) -> np.ndarray:
    """The linear predictor of each row of ``design``: ``coefficients[0]``,
    then each term's coefficient times its column added in column order.
    Every prediction is summed here.  Stacked fits score alike:
    coefficients ``... x p`` and design ``... x n x p``."""
    total = np.full(design.shape[:-1], coefficients[..., :1])
    for j in range(1, design.shape[-1]):
        total = total + coefficients[..., j, None] * design[..., j]
    return total


def model_predict(model: LinearModel, ds: Dataset) -> np.ndarray:
    """The model's prediction for every row of ``ds``, on the model scale:
    the ``linear_score`` of its ``model_design``."""
    return linear_score(model_coefficients(model), model_design(model, ds))
