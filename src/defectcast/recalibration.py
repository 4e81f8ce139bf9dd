"""Neuro-fuzzy recalibration of categorical quantifications.

Each categorical model variable gets one single-input recalibration unit:
triangular memberships anchored at the variable's distinct quantification
values, normalized firing strengths, and one constant consequent per
anchor.  Consequents start as the anchors themselves, so an untrained unit
is the identity map on anchor values and recalibrated predictions coincide
with plain model predictions.

Training is batch gradient descent on the mean squared error of the
model-scale predictions.  Membership (premise) parameters stay frozen;
only consequents move.  With frozen premises the prediction is linear in
the consequents, so the loss is a convex quadratic and the trained unit
can be checked against a closed-form least-squares solve.

``predict`` scores every row of a dataset in one array pass, with units
(recalibrated) or without (baseline); ``model_predict`` and
``recalibrated_predict`` are the one-row forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import ConfigError, DataError
from .dataset import Dataset, listwise_complete
from .regression import LinearModel, Quantification, back_transform_value, row_value

__all__ = [
    "Nfa",
    "RecalibrationConfig",
    "TrainingTrace",
    "init_nfa",
    "units_for",
    "nfa_eval",
    "train_recalibration",
    "predict",
    "recalibrated_predict",
    "trained_quantification",
]


@dataclass(frozen=True)
class Nfa:
    """One recalibration unit: anchors, memberships, consequents.

    ``widths`` are half the gap to each anchor's nearest neighbor; the
    triangular membership around anchor k reaches zero at distance
    2*widths[k], so memberships of all other anchors vanish exactly at an
    anchor while adjacent triangles still overlap between anchors.
    """

    variable: str
    input_anchors: tuple[float, ...]
    widths: tuple[float, ...]
    consequents: tuple[float, ...]
    trained: bool = False

    def __post_init__(self):
        k = len(self.input_anchors)
        if k < 1:
            raise ConfigError(f"unit for {self.variable!r} needs at least one anchor")
        if len(self.widths) != k or len(self.consequents) != k:
            raise ConfigError(
                f"unit for {self.variable!r} has mismatched parameter lengths"
            )
        if any(b <= a for a, b in zip(self.input_anchors, self.input_anchors[1:])):
            raise ConfigError(
                f"anchors of {self.variable!r} must be strictly increasing"
            )
        if any(w <= 0 for w in self.widths):
            raise ConfigError(f"widths of {self.variable!r} must be positive")

    def with_consequents(self, consequents) -> "Nfa":
        return Nfa(
            variable=self.variable,
            input_anchors=self.input_anchors,
            widths=self.widths,
            consequents=tuple(float(q) for q in consequents),
            trained=True,
        )

    def to_dict(self) -> dict:
        return {
            "variable": self.variable,
            "input_anchors": list(self.input_anchors),
            "widths": list(self.widths),
            "consequents": list(self.consequents),
            "trained": self.trained,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Nfa":
        return cls(
            variable=data["variable"],
            input_anchors=tuple(data["input_anchors"]),
            widths=tuple(data["widths"]),
            consequents=tuple(data["consequents"]),
            trained=data["trained"],
        )


@dataclass(frozen=True)
class RecalibrationConfig:
    learning_rate: float = 0.01
    max_epochs: int = 1000
    tolerance: float = 1e-6
    rate_halving: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.max_epochs <= 0:
            raise ConfigError(f"max_epochs must be positive, got {self.max_epochs}")
        if self.tolerance <= 0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True)
class TrainingTrace:
    epochs: int
    mse_path: tuple[float, ...]
    initial_gradient_norm: float
    converged: bool
    final_learning_rate: float


def init_nfa(quantification: Quantification) -> Nfa:
    """Identity-initialized unit over the quantification's distinct values."""
    anchors = sorted(set(quantification.mapping.values()))
    if len(anchors) == 1:
        widths = [1.0]
    else:
        widths = []
        for i, a in enumerate(anchors):
            gaps = []
            if i > 0:
                gaps.append(a - anchors[i - 1])
            if i < len(anchors) - 1:
                gaps.append(anchors[i + 1] - a)
            widths.append(min(gaps) / 2.0)
    return Nfa(
        variable=quantification.variable,
        input_anchors=tuple(float(a) for a in anchors),
        widths=tuple(widths),
        consequents=tuple(float(a) for a in anchors),
        trained=False,
    )


def firing_strengths(nfa: Nfa, values) -> np.ndarray:
    """Normalized membership degrees, one row per input value.

    Rows sum to 1.  Inputs where every triangular membership is zero (deep
    between widely separated anchors, or beyond the outer anchors) fall
    back to a one-hot on the nearest anchor, ties to the lower index.
    """
    x = np.atleast_1d(np.asarray(values, dtype=float))
    c = np.array(nfa.input_anchors)
    w = np.array(nfa.widths)
    mu = np.maximum(0.0, 1.0 - np.abs(x[:, None] - c[None, :]) / (2.0 * w[None, :]))
    total = mu.sum(axis=1)
    dead = total == 0.0
    if np.any(dead):
        nearest = np.argmin(np.abs(x[dead, None] - c[None, :]), axis=1)
        mu[dead] = 0.0
        mu[np.nonzero(dead)[0], nearest] = 1.0
        total[dead] = 1.0
    return mu / total[:, None]


def nfa_eval(nfa: Nfa, value: float) -> float:
    """Defuzzified output: firing-strength-weighted sum of consequents."""
    strengths = firing_strengths(nfa, [value])[0]
    return float(strengths @ np.array(nfa.consequents))


def _categorical_terms(model: LinearModel) -> list[str]:
    return [t.variable for t in model.terms if t.variable in model.codings]


def units_for(model: LinearModel, quantifications: dict[str, Quantification]) -> list[Nfa]:
    """One identity-initialized unit per categorical term of the model,
    anchored at the supplied quantification or else the fit-time coding."""
    units = []
    for variable, coding in model.codings.items():
        quant = quantifications.get(variable)
        if quant is None:
            quant = Quantification(variable, dict(coding), source="initial")
        units.append(init_nfa(quant))
    return units


def train_recalibration(
    model: LinearModel,
    nfas: list[Nfa],
    ds: Dataset,
    cfg: RecalibrationConfig = RecalibrationConfig(),
) -> tuple[list[Nfa], TrainingTrace]:
    """Batch gradient descent on the consequents of every unit.

    The prediction for a row is the model's linear form with each
    categorical term's value routed through its unit; the gradient of the
    batch MSE in a consequent q_k is (2/n) * B_v * sum of that anchor's
    firing strengths times the residuals.  With ``rate_halving`` a step
    that increases the MSE is rejected and retried at half the rate, so
    the recorded epoch MSE path is nonincreasing.
    """
    by_var = {nfa.variable: nfa for nfa in nfas}
    cat_terms = _categorical_terms(model)
    missing = [v for v in cat_terms if v not in by_var]
    if missing:
        raise DataError(f"missing recalibration unit for categorical terms: {missing}")
    extra = [v for v in by_var if v not in cat_terms]
    if extra:
        raise DataError(f"units for variables that are not categorical terms: {extra}")

    needed = [model.response] + [t.variable for t in model.terms]
    data = listwise_complete(ds, needed)
    n = data.row_count
    if n == 0:
        raise DataError("no complete rows to train on")
    if data.spec(model.response).is_categorical:
        raise DataError(f"response {model.response!r} must be numeric")
    y = data.columns[model.response].astype(float)

    # fixed part of the prediction: intercept plus all numeric terms
    base = np.full(n, model.intercept)
    for term in model.terms:
        if term.variable in model.codings:
            continue
        base = base + term.coefficient * data.columns[term.variable].astype(float)

    # frozen firing strengths and coefficient per unit, in cat_terms order
    strengths: dict[str, np.ndarray] = {}
    coeffs: dict[str, float] = {}
    sizes: dict[str, int] = {}
    for var in cat_terms:
        nfa = by_var[var]
        # units see the fit-time coding of each label
        strengths[var] = firing_strengths(nfa, data.encode(var, model.codings[var]))
        coeffs[var] = model.term(var).coefficient
        sizes[var] = len(nfa.input_anchors)

    offsets: dict[str, slice] = {}
    pos = 0
    for var in cat_terms:
        offsets[var] = slice(pos, pos + sizes[var])
        pos += sizes[var]
    if cat_terms:
        q = np.concatenate([np.array(by_var[var].consequents) for var in cat_terms])
    else:
        q = np.zeros(0)

    def fitted(params: np.ndarray) -> np.ndarray:
        out = base.copy()
        for var in cat_terms:
            out += coeffs[var] * (strengths[var] @ params[offsets[var]])
        return out

    def mse(params: np.ndarray) -> float:
        r = fitted(params) - y
        return float(r @ r) / n

    def gradient(params: np.ndarray) -> np.ndarray:
        r = fitted(params) - y
        g = np.empty_like(params)
        for var in cat_terms:
            g[offsets[var]] = (2.0 / n) * coeffs[var] * (strengths[var].T @ r)
        return g

    current_mse = mse(q)
    mse_path = [current_mse]
    grad = gradient(q)
    grad_norm0 = float(np.sqrt(grad @ grad))
    rate = cfg.learning_rate
    converged = False
    epochs = 0

    if grad_norm0 < 1e-10:
        converged = True
    else:
        for _ in range(cfg.max_epochs):
            if cfg.rate_halving:
                while True:
                    trial = q - rate * grad
                    trial_mse = mse(trial)
                    if trial_mse <= current_mse:
                        break
                    rate /= 2.0
                    if rate < 1e-18:
                        break
                if rate < 1e-18:
                    converged = True  # no descent possible at any usable rate
                    break
            else:
                trial = q - rate * grad
                trial_mse = mse(trial)
            q = trial
            epochs += 1
            mse_path.append(trial_mse)
            change = abs(current_mse - trial_mse)
            scale = max(current_mse, np.finfo(float).tiny)
            current_mse = trial_mse
            if change / scale < cfg.tolerance:
                converged = True
                break
            grad = gradient(q)
            if cfg.rate_halving:
                rate *= 1.1

    trained = [by_var[var].with_consequents(q[offsets[var]]) for var in cat_terms]
    trace = TrainingTrace(
        epochs=epochs,
        mse_path=tuple(mse_path),
        initial_gradient_norm=grad_norm0,
        converged=converged,
        final_learning_rate=rate,
    )
    return trained, trace


def recalibrated_predict(
    model: LinearModel,
    nfas: list[Nfa],
    row: dict,
    back_transform: bool = False,
    quantifications: dict[str, Quantification] | None = None,
) -> float:
    """Model prediction with categorical values routed through their units.

    Identical to ``model_predict`` except that every categorical term's
    quantification value passes through its unit first; untrained units
    change nothing.  Labels resolve through ``quantifications`` first,
    then the model's fit-time codings.
    """
    by_var = {nfa.variable: nfa for nfa in nfas}
    total = model.intercept
    for term in model.terms:
        value = row_value(model.codings, quantifications, row, term.variable)
        if term.variable in model.codings:
            nfa = by_var.get(term.variable)
            if nfa is None:
                raise DataError(
                    f"missing recalibration unit for categorical term {term.variable!r}"
                )
            value = nfa_eval(nfa, value)
        total += term.coefficient * value
    if back_transform:
        return back_transform_value(total, model.response_transform)
    return total


def predict(
    model: LinearModel,
    ds: Dataset,
    quantifications: dict[str, Quantification] | None = None,
    units: list[Nfa] | None = None,
    back_transform: bool = False,
) -> np.ndarray:
    """Predictions for every row of ``ds``, one array pass per model term.

    Without ``units`` each element equals ``model_predict`` on that row;
    with them, ``recalibrated_predict``.  The sum keeps the one-row order
    (intercept, then each term in model order) and the back-transform runs
    per element through ``back_transform_value``, so the two agree to the
    bit.  Labels resolve through ``quantifications`` first, then the
    model's fit-time codings.
    """
    quantifications = quantifications or {}
    by_var = None if units is None else {nfa.variable: nfa for nfa in units}
    total = np.full(ds.row_count, model.intercept)
    for term in model.terms:
        if ds.spec(term.variable).is_categorical:
            quant = quantifications.get(term.variable)
            mapping = (
                quant.mapping if quant is not None else model.codings.get(term.variable, {})
            )
            values = ds.encode(term.variable, mapping)
        else:
            values = ds.columns[term.variable]
        if by_var is not None and term.variable in model.codings:
            nfa = by_var.get(term.variable)
            if nfa is None:
                raise DataError(
                    f"missing recalibration unit for categorical term {term.variable!r}"
                )
            values = firing_strengths(nfa, values) @ np.array(nfa.consequents)
        total = total + term.coefficient * values
    if back_transform:
        return np.array(
            [back_transform_value(v, model.response_transform) for v in total.tolist()]
        )
    return total


def trained_quantification(nfa: Nfa, quantification: Quantification) -> Quantification:
    """Final per-category values: each category's anchor output.

    Firing at an anchor is one-hot, so this reads off the consequent of
    the anchor the category maps to.
    """
    if nfa.variable != quantification.variable:
        raise ConfigError(
            f"unit is for {nfa.variable!r}, quantification for "
            f"{quantification.variable!r}"
        )
    mapping = {
        label: nfa_eval(nfa, value) for label, value in quantification.mapping.items()
    }
    return Quantification(
        variable=nfa.variable, mapping=mapping, source="recalibrated"
    )
