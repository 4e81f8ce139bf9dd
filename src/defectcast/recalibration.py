"""Neuro-fuzzy recalibration of categorical quantifications.

Each categorical model variable gets one single-input recalibration unit:
triangular memberships anchored at the variable's distinct quantification
values, normalized firing strengths, and one constant consequent per
anchor.  Consequents start as the anchors themselves, so an untrained unit
is the identity map on anchor values and recalibrated predictions coincide
with plain model predictions.

Training minimizes the mean squared error of the model-scale predictions
over the consequents; membership (premise) parameters stay frozen.  With
frozen premises the prediction is linear in the consequents, so training
is one exact linear least-squares solve: the minimum-norm correction from
the identity start, which is where gradient descent from that start would
converge.

Prediction and training each run in two steps: ``regression.model_design``
turns a table into a design matrix and ``routes_for`` adds each
categorical term's firing strengths; ``score`` and ``fit_consequents`` do
the arithmetic on those arrays.  ``recalibrated_predict`` scores every row
of a table with units, as ``regression.model_predict`` does without them;
both sum through ``regression.linear_score`` and return the model scale,
which ``evaluation.raw_counts`` takes to counts.  Resampling experiments
encode their table once and hand row subsets of the arrays to ``score``
and ``fit_consequents`` directly.

``fit_consequents`` returns the consequents alone, since a resampling
split reads nothing else.  ``train_recalibration`` runs the same solve and
is the one place a ``TrainingTrace`` is built.  A unit is written out
through ``Nfa.to_dict``; nothing parses one back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._errors import ConfigError, DataError
from .dataset import Dataset, listwise_complete
from .numerics import min_norm_least_squares
from .regression import LinearModel, linear_score, model_design, response_values

__all__ = [
    "Nfa",
    "TrainingTrace",
    "units_for",
    "train_recalibration",
    "recalibrated_predict",
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


@dataclass(frozen=True)
class TrainingTrace:
    """What one training did: ``epochs`` counts solves (0 when the identity
    start is already optimal, else 1), ``mse_path`` is (initial, final)
    MSE, and ``final_gradient_norm`` is the optimality gap left."""

    epochs: int
    mse_path: tuple[float, ...]
    initial_gradient_norm: float
    converged: bool
    final_gradient_norm: float


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


def units_for(codings: dict[str, dict[str, float]]) -> list[Nfa]:
    """One identity-initialized unit per variable of ``codings`` (a model's
    fit-time codings), in their order, anchored at the coding's distinct
    values."""
    units = []
    for variable, coding in codings.items():
        anchors = tuple(float(a) for a in sorted(set(coding.values())))
        # half the gap to the nearest neighbor; a lone anchor gets width 1
        gaps = [b - a for a, b in zip(anchors, anchors[1:])]
        widths = tuple(
            min(gaps[max(i - 1, 0) : i + 1]) / 2.0 if gaps else 1.0
            for i in range(len(anchors))
        )
        units.append(Nfa(variable, anchors, widths, anchors))
    return units


# A route sends one design column through a unit: it maps the column's
# index to the unit's firing strengths on the design's rows and the
# consequents that weigh them.
Routes = dict[int, tuple[np.ndarray, np.ndarray]]


def routes_for(
    design: np.ndarray,
    variables: Sequence[str],
    codings: dict[str, dict[str, float]],
    units: list[Nfa],
) -> Routes:
    """A route for each coded variable's design column (``variables[j]``
    in column ``j + 1``), in column order, through the unit of its
    variable."""
    by_var = {nfa.variable: nfa for nfa in units}
    routes: Routes = {}
    for j, variable in enumerate(variables, start=1):
        if variable not in codings:
            continue
        nfa = by_var.get(variable)
        if nfa is None:
            raise DataError(f"missing recalibration unit for categorical term {variable!r}")
        routes[j] = (firing_strengths(nfa, design[:, j]), np.array(nfa.consequents))
    return routes


def score(coefficients, design: np.ndarray, routes: Routes | None = None) -> np.ndarray:
    """The ``linear_score`` of an encoded design: ``coefficients[0]``, then
    each term's coefficient times its column, in column order.  A routed
    column is replaced by its unit's output, the ``linear_score`` of the
    firing strengths with the consequents as coefficients: summed in anchor
    order one column at a time, so a row's score depends on that row
    alone."""
    routes = routes or {}

    def column(j: int) -> np.ndarray:
        route = routes.get(j)
        if route is None:
            return design[:, j]
        strengths, consequents = route
        return linear_score(0.0, zip(consequents, strengths.T), design.shape[0])

    terms = ((coefficients[j], column(j)) for j in range(1, design.shape[1]))
    return linear_score(coefficients[0], terms, design.shape[0])


class _ConsequentFit:
    """One least-squares solve for the consequents of ``routes`` on an
    encoded design.  The prediction is ``base + a @ q``: ``base`` is the
    intercept plus every unrouted term, and ``a`` holds each routed term's
    coefficient times its firing strengths, in route order.  ``q`` is the
    solution from the routes' consequents ``q0``; ``solves`` is 0 when
    ``q0`` is already optimal, else 1."""

    def __init__(self, coefficients, design: np.ndarray, y: np.ndarray, routes: Routes):
        n = design.shape[0]
        if n == 0:
            raise DataError("no complete rows to train on")
        unrouted = (
            (coefficients[j], design[:, j])
            for j in range(1, design.shape[1])
            if j not in routes
        )
        base = linear_score(coefficients[0], unrouted, n)
        blocks = [coefficients[j] * strengths for j, (strengths, _) in routes.items()]
        self.base, self.y, self.routes = base, y, routes
        self.a = np.concatenate(blocks, axis=1) if blocks else np.zeros((n, 0))
        q0 = np.concatenate([q for _, q in routes.values()]) if routes else np.zeros(0)
        self.r0 = self.residual(q0)
        self.gradient_norm0 = self.gradient_norm(self.r0)
        # a NaN gradient also solves, so non-finite inputs raise NumericalError
        self.solves = 0 if self.gradient_norm0 < 1e-10 else 1
        self.q = q0 + min_norm_least_squares(self.a, -self.r0) if self.solves else q0

    def residual(self, params: np.ndarray) -> np.ndarray:
        return self.base + self.a @ params - self.y

    def gradient_norm(self, r: np.ndarray) -> float:
        g = (2.0 / r.size) * (self.a.T @ r)
        return math.sqrt(g @ g)

    def consequents(self) -> list[np.ndarray]:
        """``q`` cut into each route's consequents, in route order."""
        out, pos = [], 0
        for _, start in self.routes.values():
            out.append(self.q[pos : pos + start.size])
            pos += start.size
        return out


def fit_consequents(
    coefficients, design: np.ndarray, y: np.ndarray, routes: Routes
) -> list[np.ndarray]:
    """The arithmetic of ``train_recalibration`` on an encoded design:
    least-squares consequents of every route, in route order, from the
    routes' consequents as the start.  It returns the consequents only;
    ``train_recalibration`` alone builds a training record."""
    return _ConsequentFit(coefficients, design, y, routes).consequents()


def _coefficients(model: LinearModel) -> list[float]:
    return [model.intercept, *(t.coefficient for t in model.terms)]


def train_recalibration(
    model: LinearModel,
    nfas: list[Nfa],
    ds: Dataset,
) -> tuple[list[Nfa], TrainingTrace]:
    """Least-squares consequents of every unit, solved exactly: the
    ``model_design`` of the complete rows with the fit-time codings and its
    routes, then the solve of ``fit_consequents``, returned with its
    ``TrainingTrace``.

    The prediction for a row is the model's linear form with each
    categorical term's value routed through its unit.  Premises are
    frozen, so it is ``base + A @ q`` with ``A = [B_v * S_v ...]``: each
    categorical term's coefficient times its firing strengths, in term
    order.  This is the consequent step of ANFIS hybrid learning (Jang
    1993).  The solution is the minimum-norm correction from the identity
    start ``q0``, the point gradient descent from ``q0`` converges to:
    every step moves along the row space of ``A``, so consequents the data
    cannot identify (a constant shift across units, an anchor no row
    fires) keep their starting values.
    """
    by_var = {nfa.variable: nfa for nfa in nfas}
    cat_terms = [t.variable for t in model.terms if t.variable in model.codings]
    missing = [v for v in cat_terms if v not in by_var]
    if missing:
        raise DataError(f"missing recalibration unit for categorical terms: {missing}")
    extra = [v for v in by_var if v not in cat_terms]
    if extra:
        raise DataError(f"units for variables that are not categorical terms: {extra}")

    data = listwise_complete(ds, [model.response, *model.variables])
    y = response_values(data, model.response)
    design = model_design(model, data)
    routes = routes_for(design, model.variables, model.codings, nfas)
    fit = _ConsequentFit(_coefficients(model), design, y, routes)
    r0, r = fit.r0, fit.residual(fit.q)
    trace = TrainingTrace(
        epochs=fit.solves,
        mse_path=(float(r0 @ r0) / y.size, float(r @ r) / y.size),
        initial_gradient_norm=fit.gradient_norm0,
        converged=True,
        final_gradient_norm=fit.gradient_norm(r),
    )
    trained = [by_var[v].with_consequents(q) for v, q in zip(cat_terms, fit.consequents())]
    return trained, trace


def recalibrated_predict(model: LinearModel, units: list[Nfa], ds: Dataset) -> np.ndarray:
    """The model's prediction for every row of ``ds``, on the model scale,
    with each categorical term's value routed through its unit: the
    ``model_design`` and its routes, summed by ``score``.

    Untrained units change nothing, so with them this equals
    ``regression.model_predict``.  Labels are valued by the model's
    fit-time codings.
    """
    design = model_design(model, ds)
    routes = routes_for(design, model.variables, model.codings, units)
    return score(_coefficients(model), design, routes)
