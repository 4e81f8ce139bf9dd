"""Neuro-fuzzy recalibration of categorical quantifications.

Each categorical model variable gets one unit: triangular memberships
anchored at the variable's distinct quantification values, and one
constant consequent per anchor.  Every input is a label, whose value sits
on one anchor, where that membership is 1 and every other is exactly 0.
So a unit is a lookup from label to its anchor's consequent, a zero-order
Sugeno system (Jang 1993); a value on no anchor raises DataError.
Consequents start as the anchors, so an untrained unit is the identity.

Training re-estimates the category values with the model's coefficients
fixed: the prediction is linear in the consequents, so it is one exact
least-squares solve.  ``coded_columns`` turns a design into each coded
column's anchor codes; training works on those arrays.
``ConsequentFit`` is the one training arithmetic, on stacked blocks of
fits, solved on category cells: ``evaluation`` passes a block of
resampling splits, and ``train_recalibration`` a block of one.  Units
have no scoring of their own: ``with_unit_outputs`` writes their outputs
over the coded columns of a copy of the design, which
``regression.linear_score`` then scores like any other.  A unit is
written out through ``Nfa.to_dict``; nothing parses one back.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from ._errors import ConfigError, DataError
from .dataset import Dataset, listwise_complete
from .numerics import dot, min_norm_least_squares
from .regression import (
    LinearModel, linear_score, model_coefficients, model_design, response_values,
)

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
        return replace(self, consequents=tuple(float(q) for q in consequents), trained=True)

    def to_dict(self) -> dict:
        return asdict(self)


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
    """Normalized membership degrees, one row per input value: the fuzzy
    definition of a unit.  At its anchors they are the one-hot of the
    anchor, which is what the lookup of ``coded_columns`` stands for.

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


def _anchor_codes(nfa: Nfa, values: np.ndarray) -> np.ndarray:
    """Each value's anchor index; a value on no anchor raises DataError."""
    anchors = np.array(nfa.input_anchors)
    codes = np.minimum(np.searchsorted(anchors, values), anchors.size - 1)
    off = anchors[codes] != values
    if off.any():
        raise DataError(
            f"value {float(values[off][0])!r} of {nfa.variable!r} is on no anchor "
            f"of its recalibration unit"
        )
    return codes


def coded_columns(
    design: np.ndarray,
    variables: Sequence[str],
    codings: dict[str, dict[str, float]],
    units: list[Nfa],
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """The anchor codes of each coded variable's design column
    (``variables[j]`` in column ``j + 1``) under the unit of its variable,
    and that unit's consequents, each keyed by column, in column order."""
    by_var = {nfa.variable: nfa for nfa in units}
    codes, consequents = {}, {}
    for j, variable in enumerate(variables, start=1):
        if variable not in codings:
            continue
        nfa = by_var.get(variable)
        if nfa is None:
            raise DataError(f"missing recalibration unit for categorical term {variable!r}")
        codes[j] = _anchor_codes(nfa, design[:, j])
        consequents[j] = np.array(nfa.consequents)
    return codes, consequents


def with_unit_outputs(design: np.ndarray, codes, consequents) -> np.ndarray:
    """A copy of ``design`` whose coded columns hold their units' outputs:
    in column ``j``, the consequent of ``consequents[j]`` at each row's
    code of ``codes[j]``.  Stacked fits work alike: design S x n x p,
    codes S x n and consequents S x K, each fit reading its own."""
    out = design.copy()
    for j, c in codes.items():
        out[..., j] = np.take_along_axis(consequents[j], c, axis=-1)
    return out


class ConsequentFit:
    """The least-squares consequents of the coded columns of a block of S
    encoded designs, stacked: coefficients S x p, design S x n x p,
    response S x n and codes S x n per coded column, all fits starting
    from consequents ``q0``.  A row's prediction is ``base`` (intercept and
    uncoded terms) plus ``a @ q``, ``a`` each coded coefficient times the
    one-hot of the row's code.  Rows with equal codes share ``a``, so the
    consequent step of ANFIS (Jang, IEEE SMC 23(3), 1993) is solved on
    category cells, every combination of anchors in mixed radix (each row
    its own cell where they outnumber the rows): ``a`` is S x C x K, and
    ``system`` weights each cell by the root of its row count, which keeps
    the normal equations and so the minimum-norm solution.  Cells do not
    depend on the other fits of a block, so each fit's matrix is a lone
    fit's.  ``solve`` runs the block in one stacked call; ``consequents``
    hands each fit's consequents to ``with_unit_outputs``."""

    def __init__(self, coefficients, design, y, codes, consequents):
        splits, n = y.shape
        if n == 0:
            raise DataError("no complete rows to train on")
        keep = [j for j in range(design.shape[-1]) if j not in codes]
        self.base = linear_score(coefficients[:, keep], design[..., keep])
        self.y = y
        # each coded column's slice of q, in column order
        sizes = [q.size for q in consequents.values()]
        ends = np.cumsum([0, *sizes]).tolist()
        self.slices = {j: slice(lo, hi) for j, lo, hi in zip(consequents, ends, ends[1:])}
        cells, self.cell = math.prod(sizes), np.zeros((splits, n), dtype=np.intp)
        if cells <= n:
            cell_codes, stride = {}, cells
            for j, size in zip(self.slices, sizes):
                stride //= size
                self.cell += codes[j] * stride
                cell_codes[j] = np.arange(cells) // stride % size
        else:
            cells, cell_codes = n, codes
            self.cell += np.arange(n)
        self.a = np.empty((splits, cells, ends[-1]))
        for j, cut in self.slices.items():
            onehot = np.eye(cut.stop - cut.start).take(cell_codes[j], axis=0)
            np.multiply(coefficients[:, j, None, None], onehot, out=self.a[..., cut])
        # fit s numbers its cells from s * cells on, so one bincount spans the block
        self.cell += cells * np.arange(splits)[:, None]
        self.counts = np.bincount(self.cell.ravel(), minlength=splits * cells).reshape(splits, -1)
        q0 = np.concatenate([np.zeros(0), *consequents.values()])
        self.q = np.tile(q0, (splits, 1))
        self.r0 = self.residuals()
        self.gradient_norm0 = self.gradient_norms(self.r0)

    def _cell_sums(self, r: np.ndarray) -> np.ndarray:
        """Each fit's sum of the residuals ``r`` over each cell, S x C."""
        return np.bincount(self.cell.ravel(), r.ravel(), self.counts.size).reshape(len(r), -1)

    def system(self) -> tuple[np.ndarray, np.ndarray]:
        """Each fit's cell rows times the roots of their counts, and minus
        each cell's residual sum at ``q0`` over that root (0 if empty)."""
        root = np.sqrt(self.counts)
        target = np.divide(-self._cell_sums(self.r0), root, out=np.zeros_like(root), where=root > 0)
        return self.a * root[..., None], target

    def solve(self) -> int:
        """Each fit's minimum-norm correction of ``q0``, solved for the
        block in one ``min_norm_least_squares`` call; a fit whose ``q0`` is
        already optimal keeps it.  The number of fits solved."""
        # a NaN gradient also solves, so non-finite inputs raise NumericalError
        need = np.flatnonzero(~(self.gradient_norm0 < 1e-10))
        if not need.size:
            return 0
        a, b = self.system()
        if need.size < len(self.q):
            a, b = a[need], b[need]
        self.q[need] += min_norm_least_squares(a, b)
        return need.size

    def residuals(self) -> np.ndarray:
        """Each fit's residual on each row at its current consequents."""
        return self.base + (self.a @ self.q[..., None]).take(self.cell) - self.y

    def gradient_norms(self, r: np.ndarray) -> np.ndarray:
        """The norm of each fit's MSE gradient at residuals ``r``."""
        g = (2.0 / r.shape[1]) * (self.a.transpose(0, 2, 1) @ self._cell_sums(r)[..., None])
        return np.sqrt((g.transpose(0, 2, 1) @ g)[:, 0, 0])

    def consequents(self) -> dict[int, np.ndarray]:
        """``q`` cut into each coded column's consequents, S x K each."""
        return {j: self.q[:, cut] for j, cut in self.slices.items()}


def train_recalibration(
    model: LinearModel,
    nfas: list[Nfa],
    ds: Dataset,
) -> tuple[list[Nfa], TrainingTrace]:
    """Least-squares consequents of every unit, solved exactly on the
    complete rows of ``ds`` by ``ConsequentFit`` as a block of one fit,
    returned with its ``TrainingTrace``.

    The prediction is ``base + A @ q`` with ``A = [B_v * onehot(codes_v)
    ...]``: each categorical term's coefficient times the one-hot of its
    rows' anchor codes, in term order, so each category's value is
    re-estimated with the other coefficients fixed.  This is the consequent
    step of ANFIS hybrid learning (Jang 1993), solved on category cells.
    The solution is the minimum-norm correction from the identity start
    ``q0``, the point gradient descent from ``q0`` converges to:
    consequents the data cannot identify (a constant shift across units, a
    category with no rows) keep their starting values.
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
    codes, starts = coded_columns(design, model.variables, model.codings, nfas)
    fit = ConsequentFit(
        model_coefficients(model)[None], design[None], y[None],
        {j: c[None] for j, c in codes.items()}, starts,
    )
    solves = fit.solve()
    r0, r = fit.r0[0], fit.residuals()
    trace = TrainingTrace(
        epochs=solves,
        mse_path=(dot(r0, r0) / y.size, dot(r[0], r[0]) / y.size),
        initial_gradient_norm=float(fit.gradient_norm0[0]),
        converged=True,
        final_gradient_norm=float(fit.gradient_norms(r)[0]),
    )
    consequents = fit.consequents().values()
    return [by_var[v].with_consequents(q[0]) for v, q in zip(cat_terms, consequents)], trace


def recalibrated_predict(model: LinearModel, units: list[Nfa], ds: Dataset) -> np.ndarray:
    """The model's prediction for every row of ``ds``, on the model scale,
    with each label's value replaced by its unit's consequent: the
    ``linear_score`` of the ``model_design`` with its ``coded_columns``
    written over by ``with_unit_outputs``.

    Untrained units change nothing, so with them this equals
    ``regression.model_predict``.  Labels are valued by the model's
    fit-time codings; a numeric input of a categorical term must be one of
    its unit's anchors.
    """
    design = model_design(model, ds)
    codes, consequents = coded_columns(design, model.variables, model.codings, units)
    return linear_score(model_coefficients(model), with_unit_outputs(design, codes, consequents))
