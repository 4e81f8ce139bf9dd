"""Recalibration units: firing strengths, anchor lookups, gradients, convex training."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectcast import recalibration
from defectcast._errors import ConfigError, DataError, NumericalError
from defectcast.dataset import Dataset, VariableSpec
from defectcast.evaluation import raw_counts
from defectcast.numerics import solve_least_squares
from defectcast.recalibration import (
    Nfa,
    TrainingTrace,
    firing_strengths,
    recalibrated_predict,
    train_recalibration,
    units_for,
)
from defectcast.regression import (
    LinearModel, ModelTerm, linear_score, model_design, model_predict, ols_fit,
)

import oracles
from test_regression import make_dataset, numeric_schema, rows_table


VAF_LEVELS = {"0.65": 0.65, "0.90": 0.90, "1.00": 1.00, "1.10": 1.10, "1.35": 1.35}


class TestInitNfa:
    """Identity-initialized units, one per coding, as ``units_for`` builds them."""

    def test_binary_mapping(self):
        nfa = units_for({"dev": {"A": 0.0, "B": 1.0}})[0]
        assert nfa.input_anchors == (0.0, 1.0)
        assert nfa.widths == (0.5, 0.5)
        assert nfa.consequents == (0.0, 1.0)
        assert not nfa.trained

    def test_single_category_constant(self):
        nfa = units_for({"v": {"only": 3.5}})[0]
        assert nfa.widths == (1.0,)
        for x in (-100.0, 0.0, 3.5, 7.0, 1e6):
            assert oracles.nfa_eval(nfa, x) == 3.5

    def test_five_level_widths(self):
        nfa = units_for({"vaf": dict(VAF_LEVELS)})[0]
        assert nfa.input_anchors == (0.65, 0.90, 1.00, 1.10, 1.35)
        want = (0.125, 0.05, 0.05, 0.05, 0.125)
        for got, expect in zip(nfa.widths, want):
            assert got == pytest.approx(expect, abs=1e-15)

    def test_duplicate_values_collapse(self):
        nfa = units_for({"g": {"a": 1.0, "b": 2.0, "c": 1.0}})[0]
        assert nfa.input_anchors == (1.0, 2.0)

    def test_anchor_order_independent_of_mapping_order(self):
        a = units_for({"g": {"x": 2.0, "y": -1.0, "z": 0.5}})[0]
        assert a.input_anchors == (-1.0, 0.5, 2.0)

    @pytest.mark.xfail(
        raises=ConfigError, strict=True,
        reason="half a 5e-324 gap rounds to a zero width, which Nfa rejects",
    )
    def test_subnormal_gap_is_a_valid_coding(self):
        nfa = units_for({"v": {"a": 0.0, "b": 5e-324}})[0]
        assert nfa.input_anchors == (0.0, 5e-324)

    def test_invalid_unit_parameters(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            Nfa("v", (1.0, 1.0), (0.5, 0.5), (1.0, 1.0))
        with pytest.raises(ConfigError, match="positive"):
            Nfa("v", (0.0, 1.0), (0.5, 0.0), (0.0, 1.0))
        with pytest.raises(ConfigError, match="mismatched"):
            Nfa("v", (0.0, 1.0), (0.5,), (0.0, 1.0))


class TestFiringStrengths:
    def _vaf_nfa(self):
        return units_for({"vaf": dict(VAF_LEVELS)})[0]

    def test_rows_sum_to_one(self):
        nfa = self._vaf_nfa()
        xs = np.linspace(-1.0, 3.0, 801)
        w = firing_strengths(nfa, xs)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(w >= 0.0)

    def test_one_hot_at_anchors(self):
        nfa = self._vaf_nfa()
        w = firing_strengths(nfa, nfa.input_anchors)
        np.testing.assert_allclose(w, np.eye(5), atol=0.0)

    def test_midpoint_of_two_anchor_unit(self):
        nfa = units_for({"dev": {"A": 0.0, "B": 1.0}})[0]
        assert oracles.nfa_eval(nfa, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_far_outside_clamps_to_nearest(self):
        nfa = self._vaf_nfa()
        assert oracles.nfa_eval(nfa, -50.0) == 0.65
        assert oracles.nfa_eval(nfa, 50.0) == 1.35

    def test_dead_zone_tie_prefers_lower_index(self):
        # anchors far apart relative to their widths leave a dead middle
        nfa = Nfa("v", (0.0, 10.0), (0.5, 0.5), (-1.0, 1.0))
        w = firing_strengths(nfa, [5.0])[0]
        assert w.tolist() == [1.0, 0.0]

    def test_gathered_rows_equal_strengths_of_gathered_values(self):
        # evaluation computes strengths once per table and gathers rows per
        # split; that must equal, bit for bit, strengths of the gathered values
        nfa = units_for({"v": {"a": 0.0, "b": 1.0, "c": 10.0, "d": 11.0}})[0]
        rng = np.random.default_rng(9)
        x = np.concatenate(
            [
                [0.0, 1.0, 10.0, 11.0],  # anchors
                [5.0, 5.5, -3.0, 40.0],  # dead zones, and a tie at 5.5
                rng.uniform(-2.0, 13.0, 200),
            ]
        )
        whole = firing_strengths(nfa, x)
        for idx in (
            np.sort(rng.choice(x.size, 37, replace=False)),
            rng.permutation(x.size),
            np.array([5, 5, 4, 0]),
            np.array([], dtype=np.int64),
        ):
            assert np.array_equal(whole[idx], firing_strengths(nfa, x[idx]))

    def test_untrained_identity_at_anchors(self):
        nfa = self._vaf_nfa()
        for a in nfa.input_anchors:
            assert abs(oracles.nfa_eval(nfa, a) - a) < 1e-9

    def test_interpolation_between_anchors(self):
        nfa = self._vaf_nfa().with_consequents([0.6, 0.95, 1.1, 1.2, 1.3])
        got = oracles.nfa_eval(nfa, 0.95)
        lo, hi = sorted((0.95, 1.1))
        assert lo < got < hi


def _training_setup(seed=5, n=60, shift=None):
    """Model + data where the response follows the model exactly or with a
    per-category consequent shift; returns (model, nfas, ds, quant)."""
    rng = np.random.default_rng(seed)
    labels = ["0.65", "1.00", "1.35"]
    values = {"0.65": 0.65, "1.00": 1.00, "1.35": 1.35}
    codes = rng.integers(0, 3, n)
    x = rng.normal(0.0, 1.0, n)
    effective = dict(values)
    if shift:
        for k, dv in shift.items():
            effective[k] = effective[k] + dv
    y = 0.3 + 0.7 * x + 2.0 * np.array([effective[labels[c]] for c in codes])
    cols = {"y": y.tolist(), "x": x.tolist(), "vaf": [labels[c] for c in codes]}
    schema = [
        VariableSpec("y", "response", "numeric"),
        VariableSpec("x", "predictor", "numeric"),
        VariableSpec("vaf", "predictor", "categorical", categories=tuple(labels)),
    ]
    ds = make_dataset(cols, schema)
    model = ols_fit(ds, "y", ["x", "vaf"], {"vaf": values})
    nfas = units_for(model.codings)
    return model, nfas, ds, values


class TestTraining:
    def test_self_generated_data_already_optimal(self):
        model, nfas, ds, _ = _training_setup(shift=None)
        trained, trace = train_recalibration(model, nfas, ds)
        assert trace.initial_gradient_norm < 1e-10
        assert trace.epochs == 0
        assert trace.converged
        assert trained[0].consequents == nfas[0].consequents

    def test_recovers_shifted_category(self):
        # fit the exact model on clean data, then regenerate the response
        # with one category's effective value shifted by +0.2
        model, nfas, ds, quant = _training_setup()
        x = ds.columns["x"].astype(float)
        labels = ds.labels("vaf")
        b_x = model.term("x").coefficient
        b_v = model.term("vaf").coefficient
        shifted = {"0.65": 0.65, "1.00": 1.20, "1.35": 1.35}
        y2 = model.intercept + b_x * x + b_v * np.array([shifted[l] for l in labels])
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("x", "predictor", "numeric"),
            VariableSpec("vaf", "predictor", "categorical",
                         categories=("0.65", "1.00", "1.35")),
        ]
        ds2 = make_dataset({"y": y2.tolist(), "x": x.tolist(), "vaf": labels}, schema)
        trained, _ = train_recalibration(model, nfas, ds2)
        final = {lab: oracles.nfa_eval(trained[0], quant[lab]) for lab in quant}
        assert final["1.00"] == pytest.approx(1.20, abs=1e-12)
        assert final["0.65"] == pytest.approx(0.65, abs=1e-12)
        assert final["1.35"] == pytest.approx(1.35, abs=1e-12)

    def test_matches_closed_form_solution(self):
        model, nfas, ds, quant = _training_setup(seed=11, shift={"0.65": -0.15, "1.35": 0.1})
        trained, trace = train_recalibration(model, nfas, ds)
        # closed form: prediction is linear in consequents
        y = ds.columns["y"].astype(float)
        x = ds.columns["x"].astype(float)
        b_x = model.term("x").coefficient
        b_v = model.term("vaf").coefficient
        base = model.intercept + b_x * x
        inputs = np.array([quant[lab] for lab in ds.labels("vaf")])
        w = firing_strengths(nfas[0], inputs)
        sol = solve_least_squares(b_v * w, y - base)
        got = np.array(trained[0].consequents)
        np.testing.assert_allclose(got, sol.coefficients, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        model, nfas, ds, quant = _training_setup(seed=13, shift={"1.00": 0.3})
        y = ds.columns["y"].astype(float)
        x = ds.columns["x"].astype(float)
        b_x = model.term("x").coefficient
        b_v = model.term("vaf").coefficient
        base = model.intercept + b_x * x
        inputs = np.array([quant[lab] for lab in ds.labels("vaf")])
        w = firing_strengths(nfas[0], inputs)
        n = len(y)

        def loss(params):
            r = base + b_v * (w @ params) - y
            return float(r @ r) / n

        def analytic(params):
            r = base + b_v * (w @ params) - y
            return (2.0 / n) * b_v * (w.T @ r)

        checked = 0
        for _ in range(100):
            params = rng.normal(0.0, 2.0, 3)
            got = analytic(params)
            want = oracles.finite_difference_gradient(loss, params, step=1e-6)
            denom = max(float(np.linalg.norm(want)), 1e-8)
            assert float(np.linalg.norm(got - want)) / denom < 1e-4
            checked += 1
        assert checked == 100

    def test_final_mse_below_initial(self):
        model, nfas, ds, _ = _training_setup(seed=19, shift={"1.00": 0.2})
        _, trace = train_recalibration(model, nfas, ds)
        assert trace.mse_path[-1] < trace.mse_path[0]

    def test_missing_unit_for_categorical_term(self):
        model, _, ds, _ = _training_setup()
        with pytest.raises(DataError, match="missing recalibration unit"):
            train_recalibration(model, [], ds)

    def test_unit_for_unknown_variable(self):
        model, nfas, ds, _ = _training_setup()
        stray = units_for({"other": {"a": 0.0, "b": 1.0}})[0]
        with pytest.raises(DataError, match="not categorical terms"):
            train_recalibration(model, nfas + [stray], ds)

    def test_no_categorical_terms_is_noop(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=20)
        y = 2.0 * x + rng.normal(0, 0.1, 20)
        from test_regression import numeric_schema

        ds = make_dataset({"y": y.tolist(), "x": x.tolist()}, numeric_schema("y", "x"))
        model = ols_fit(ds, "y", ["x"])
        trained, trace = train_recalibration(model, [], ds)
        assert trained == []
        assert trace.epochs == 0
        assert trace.converged

    def test_single_row_exact_fit(self):
        labels = ["lo", "hi"]
        cols = {"y": [5.0, 4.0], "vaf": ["lo", "hi"]}
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("vaf", "predictor", "categorical", categories=tuple(labels)),
        ]
        ds = make_dataset(cols, schema)
        quant = {"lo": 0.0, "hi": 1.0}
        # hand-built model so the 2-row dataset is no constraint
        from defectcast.regression import LinearModel, ModelTerm

        model = LinearModel(
            response="y",
            response_transform="none",
            intercept=1.0,
            intercept_p=0.0,
            terms=(ModelTerm("vaf", 2.0, 0.0, 0.0, 0.0, 0.0),),
            r_squared=0.0,
            n=2,
            codings={"vaf": quant},
        )
        one_row = ds.take([0])
        nfas = units_for(model.codings)
        trained, _ = train_recalibration(model, nfas, one_row)
        got = recalibrated_predict(model, trained, one_row)
        assert got[0] == pytest.approx(5.0, abs=1e-12)


def _two_unit_setup(seed=61, n=300):
    """Noisy data with two quantified categorical terms, so the unit
    columns are rank-deficient: each unit's firing strengths sum to one,
    and a constant shift between the units is not identified.
    Returns (model, units, ds, design, target) with the design and the
    target built independently of the trainer."""
    rng = np.random.default_rng(seed)
    vaf_labels = list(VAF_LEVELS)
    dev_values = {"new": 0.0, "redev": 0.4, "enh": 1.0}
    dev_labels = list(dev_values)
    vaf_codes = rng.integers(0, len(vaf_labels), n)
    dev_codes = rng.integers(0, len(dev_labels), n)
    x = rng.normal(0.0, 1.0, n)
    vaf = np.array([VAF_LEVELS[vaf_labels[c]] for c in vaf_codes])
    dev = np.array([dev_values[dev_labels[c]] for c in dev_codes])
    bump = np.where(vaf_codes == 2, 0.3, 0.0) - np.where(dev_codes == 1, 0.2, 0.0)
    y = 0.5 + 0.8 * x + 1.2 * vaf - 0.6 * dev + bump + rng.normal(0.0, 0.1, n)
    schema = [
        VariableSpec("y", "response", "numeric"),
        VariableSpec("x", "predictor", "numeric"),
        VariableSpec("vaf", "predictor", "categorical", categories=tuple(vaf_labels)),
        VariableSpec("dev", "predictor", "categorical", categories=tuple(dev_labels)),
    ]
    cols = {
        "y": y.tolist(),
        "x": x.tolist(),
        "vaf": [vaf_labels[c] for c in vaf_codes],
        "dev": [dev_labels[c] for c in dev_codes],
    }
    ds = make_dataset(cols, schema)
    quants = {
        "vaf": dict(VAF_LEVELS),
        "dev": dev_values,
    }
    model = ols_fit(ds, "y", ["x", "vaf", "dev"], quants)
    units = units_for(model.codings)
    design = np.hstack([
        model.term(u.variable).coefficient
        * firing_strengths(u, [quants[u.variable][l] for l in ds.labels(u.variable)])
        for u in units
    ])
    target = y - model.intercept - model.term("x").coefficient * x
    return model, units, ds, design, target


class TestExactSolve:
    def test_two_units_reach_min_norm_optimum(self):
        model, units, ds, design, target = _two_unit_setup()
        assert design.shape[1] == 8
        assert np.linalg.matrix_rank(design) == 7
        trained, trace = train_recalibration(model, units, ds)
        start = np.concatenate([u.consequents for u in units])
        want = oracles.min_norm_consequents(design, target, start)
        got = np.concatenate([u.consequents for u in trained])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        assert trace.epochs == 1 and trace.converged
        assert trace.initial_gradient_norm > 1e-3
        assert trace.final_gradient_norm < 1e-13
        assert trace.mse_path[-1] < trace.mse_path[0]

    def test_category_absent_from_training_keeps_its_anchor(self):
        # a fold without 'redev' rows: that anchor fires nowhere, so the
        # design has a zero column on top of the unidentified shift, and the
        # rank cutoff must drop both directions, not fit rounding noise
        model, units, ds, design, target = _two_unit_setup()
        seen = [i for i, lab in enumerate(ds.labels("dev")) if lab != "redev"]
        trained, trace = train_recalibration(model, units, ds.take(seen))
        dev = next(u for u in trained if u.variable == "dev")
        assert dev.consequents[dev.input_anchors.index(0.4)] == 0.4
        start = np.concatenate([u.consequents for u in units])
        want = oracles.min_norm_consequents(design[seen], target[seen], start)
        got = np.concatenate([u.consequents for u in trained])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        assert trace.final_gradient_norm < 1e-13

    def test_non_finite_coefficient_is_a_numerical_error(self):
        from defectcast.regression import LinearModel, ModelTerm

        quant = {"lo": 0.0, "hi": 1.0}
        ds = make_dataset(
            {"y": [1.0, 2.0, 3.0], "vaf": ["lo", "hi", "lo"]},
            [
                VariableSpec("y", "response", "numeric"),
                VariableSpec("vaf", "predictor", "categorical", categories=("lo", "hi")),
            ],
        )
        model = LinearModel(
            response="y",
            response_transform="none",
            intercept=1.0,
            intercept_p=0.0,
            terms=(ModelTerm("vaf", math.nan, 0.0, 0.0, 0.0, 0.0),),
            r_squared=0.0,
            n=3,
            codings={"vaf": quant},
        )
        with pytest.raises(NumericalError, match="non-finite"):
            train_recalibration(model, units_for(model.codings), ds)


@st.composite
def _consequent_blocks(draw):
    """A block of 1 to 40 fits of an intercept, a numeric column and a
    coded column with four anchors, on 12 rows each.  Each fit has its own
    coefficients, codes (a category may have no rows) and response:
    "noisy" fits need a solve, "optimal" ones sit within rounding of their
    starting consequents (a gradient norm below 1e-10, but a residual that
    is not exactly 0), "flat" ones have a zero coded coefficient (rank 0),
    and "non-finite" ones a NaN response."""
    kinds = draw(st.lists(
        st.sampled_from(["noisy"] * 4 + ["optimal", "optimal", "flat", "non-finite"]),
        min_size=1, max_size=40,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    splits, n = len(kinds), 12
    anchors = np.array([0.5, 0.9, 1.0, 1.4])
    codes = rng.integers(0, draw(st.integers(1, 4)), size=(splits, n))
    design = np.stack(
        [np.ones((splits, n)), rng.normal(size=(splits, n)), anchors[codes]], axis=-1
    )
    coefficients = rng.normal(size=(splits, 3))
    y = linear_score(coefficients, design) + rng.normal(size=(splits, n))
    for s, kind in enumerate(kinds):
        if kind == "optimal":
            y[s] = linear_score(coefficients[s], design[s]) + 1e-13 * rng.normal(size=n)
        elif kind == "flat":
            coefficients[s, 2] = 0.0
        elif kind == "non-finite":
            y[s, rng.integers(0, n)] = np.nan
    return coefficients, design, y, {2: codes}, {2: anchors}


@st.composite
def _cell_blocks(draw):
    """A block of 1 to 12 fits of an intercept, a numeric column and one to
    three coded columns of one to five anchors each, on 1 to 40 rows.  Some
    cells of the cross have no rows; a coded column may miss one of its
    categories in a fit ("absent"), repeat another coded column's codes
    ("crossed", a rank-deficient cross) or hold one code ("constant").
    Three columns of five anchors have more cells than rows, so each row
    is a cell of its own."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    splits, n = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    design = [np.ones((splits, n)), rng.normal(size=(splits, n))]
    codes, anchors = {}, {}
    for j, size in enumerate(sizes, start=2):
        kind = draw(st.sampled_from(["random", "random", "absent", "crossed", "constant"]))
        c = rng.integers(0, size, size=(splits, n))
        if kind == "absent":
            gone = draw(st.integers(0, size - 1))
            c[c == gone] = (gone + 1) % size
        elif kind == "crossed" and j > 2:
            c = codes[j - 1] % size
        elif kind == "constant":
            c[:] = draw(st.integers(0, size - 1))
        anchors[j] = np.cumsum(rng.uniform(0.2, 1.0, size))
        codes[j] = c
        design.append(anchors[j][c])
    design = np.stack(design, axis=-1)
    signs = rng.choice([-1.0, 1.0], size=(splits, design.shape[-1]))
    coefficients = signs * rng.uniform(0.5, 2.0, size=(splits, design.shape[-1]))
    y = linear_score(coefficients, design) + rng.normal(size=(splits, n))
    return coefficients, design, y, codes, anchors


class TestConsequentBlock:
    @settings(max_examples=200, deadline=None)
    @given(case=_cell_blocks())
    def test_cell_solve_equals_the_row_solve(self, case):
        """The minimum-norm consequents solved on category cells equal those
        solved on each fit's n-row design within 1e-12 relative to the
        largest consequent: the two designs share their row space."""
        coefficients, design, y, codes, anchors = case
        fit = recalibration.ConsequentFit(coefficients, design, y, codes, anchors)
        cells, target = fit.system()
        assert np.isfinite(cells).all() and np.isfinite(target).all()
        assert (target[fit.counts == 0] == 0.0).all()
        assert (cells[fit.counts == 0] == 0.0).all()
        fit.solve()
        want = oracles.consequents_by_rows(coefficients, design, y, codes, anchors)
        scale = np.maximum(1.0, np.abs(want).max(axis=1, keepdims=True))
        assert (np.abs(fit.q - want) <= 1e-12 * scale).all()

    @settings(max_examples=100, deadline=None)
    @given(case=_consequent_blocks())
    def test_block_solve_equals_each_lone_fit(self, case):
        """A block's one stacked solve gives each fit the bits of its lone
        fit solved by the per-matrix solver; a fit whose gradient norm is
        below 1e-10 keeps its starting consequents exactly and is not
        counted; a block with a non-finite fit raises a fault that one of
        its faulty fits raises alone."""
        coefficients, design, y, codes, anchors = case
        want, solved, faults = [], 0, []
        for s in range(len(y)):
            lone = recalibration.ConsequentFit(
                coefficients[s : s + 1], design[s : s + 1], y[s : s + 1],
                {j: c[s : s + 1] for j, c in codes.items()}, anchors,
            )
            if lone.gradient_norm0[0] < 1e-10:
                want.append(lone.q[0])
                continue
            cells, target = lone.system()
            try:
                step = oracles.min_norm_least_squares_per_matrix(cells[0], target[0])
            except NumericalError as err:
                faults.append(str(err))
                continue
            want.append(lone.q[0] + step)
            solved += 1
        fit = recalibration.ConsequentFit(coefficients, design, y, codes, anchors)
        if faults:
            with pytest.raises(NumericalError) as info:
                fit.solve()
            assert str(info.value) in faults
            return
        assert fit.solve() == solved
        assert np.array(want).tobytes() == fit.q.tobytes()


class TestRecalibratedPredict:
    def test_untrained_equals_model_predict(self):
        model, nfas, ds, quant = _training_setup(seed=29)
        rng = np.random.default_rng(31)
        labels = list(quant)
        rows = [
            {"x": float(rng.normal()), "vaf": labels[int(rng.integers(0, 3))]}
            for _ in range(1000)
        ]
        table = rows_table(rows, ds.schema)
        a = model_predict(model, table)
        b = recalibrated_predict(model, nfas, table)
        assert a.tolist() == b.tolist()

    def test_trained_improves_training_mmre(self):
        model, nfas, ds, quant = _training_setup(seed=37, shift={"1.00": 0.3})
        trained, _ = train_recalibration(model, nfas, ds)
        y = ds.columns["y"].astype(float)

        def mmre(units):
            return float(np.mean(np.abs(y - recalibrated_predict(model, units, ds)) / np.abs(y)))

        assert mmre(trained) <= mmre(nfas)

    def test_back_transform(self):
        model, nfas, ds, quant = _training_setup(seed=41)
        lnmodel = ols_fit(ds, "y", ["x", "vaf"], {"vaf": quant}, response_transform="ln")
        table = rows_table([{"x": 0.5, "vaf": "1.00"}], ds.schema)
        lin = recalibrated_predict(lnmodel, nfas, table)
        raw = raw_counts(lin, lnmodel.response_transform)
        assert raw[0] == pytest.approx(math.exp(lin[0]), rel=1e-12)

    def test_missing_unit_raises(self):
        model, _, ds, _ = _training_setup()
        table = rows_table([{"x": 0.0, "vaf": "1.00"}], ds.schema)
        with pytest.raises(DataError, match="missing recalibration unit"):
            recalibrated_predict(model, [], table)

    @pytest.mark.parametrize("missing", [None, math.nan])
    @pytest.mark.parametrize("variable", ["x", "vaf"])
    def test_missing_value_names_variable(self, variable, missing):
        model, nfas, ds, _ = _training_setup()
        rows = [{"x": 0.0, "vaf": "1.00"}, {"x": 0.0, "vaf": "1.00", variable: missing}]
        with pytest.raises(DataError, match=f"missing value in .* variable '{variable}'"):
            recalibrated_predict(model, nfas, rows_table(rows, ds.schema))

    def test_numeric_input_routed_through_unit(self):
        model, nfas, ds, quant = _training_setup()
        trained = [nfas[0].with_consequents([0.1, 0.2, 0.3])]
        labels = rows_table([{"x": 0.0, "vaf": "1.00"}], ds.schema)
        values = rows_table([{"x": 0.0, "vaf": 1.00}], numeric_schema("y", "x", "vaf"))
        via_label = recalibrated_predict(model, trained, labels)
        via_value = recalibrated_predict(model, trained, values)
        assert via_label[0] == via_value[0]


def _mixed_setup(transform, seed=53, n=80):
    """Numeric, binary (0/1 coded) and quantified categorical terms on a
    positive count response; returns (model, quants, trained units, ds)."""
    rng = np.random.default_rng(seed)
    vaf_labels = ["0.65", "1.00", "1.35"]
    kinds = ["base", "extra"]
    vaf_codes = rng.integers(0, 3, n)
    kind_codes = rng.integers(0, 2, n)
    x = rng.normal(0.0, 1.0, n)
    vaf = np.array([float(vaf_labels[c]) for c in vaf_codes])
    shift = np.where(vaf_codes == 1, 0.4, 0.0)  # gives the units something to learn
    ln_y = 0.5 + 0.6 * x + 1.5 * vaf + shift - 0.7 * kind_codes + rng.normal(0, 0.2, n)
    counts = np.rint(np.exp(ln_y)) + 1.0
    y = np.log(counts) if transform == "ln" else np.log1p(counts)
    schema = [
        VariableSpec("y", "response", "numeric"),
        VariableSpec("x", "predictor", "numeric"),
        VariableSpec("kind", "predictor", "binary", categories=tuple(kinds)),
        VariableSpec("vaf", "predictor", "categorical", categories=tuple(vaf_labels)),
    ]
    cols = {
        "y": y.tolist(),
        "x": x.tolist(),
        "kind": [kinds[c] for c in kind_codes],
        "vaf": [vaf_labels[c] for c in vaf_codes],
    }
    ds = make_dataset(cols, schema)
    quants = {"vaf": {lab: float(lab) for lab in vaf_labels}}
    model = ols_fit(ds, "y", ["x", "kind", "vaf"], quants, response_transform=transform)
    trained, _ = train_recalibration(model, units_for(model.codings), ds)
    return model, quants, trained, ds


class TestBatchPredict:
    @pytest.mark.parametrize("transform", ["ln", "ln1p"])
    @pytest.mark.parametrize("back", [False, True])
    def test_equals_one_row_wrappers_exactly(self, transform, back):
        # each row's prediction equals the plain-float oracle, on the whole
        # table and on a one-row table of its own: a row's score depends on
        # that row alone.  Numbers between and beyond the anchors score
        # through the model, and a unit rejects them
        model, _, trained, ds = _mixed_setup(transform)
        assert [u.variable for u in trained] == ["kind", "vaf"]
        assert any(u.consequents != u.input_anchors for u in trained)
        kind, vaf = ds.labels("kind"), ds.labels("vaf")
        rows = [
            {"x": float(ds.columns["x"][i]), "kind": kind[i], "vaf": vaf[i]}
            for i in range(ds.row_count)
        ]
        # numbers for the categorical terms, between and beyond the anchors
        rng = np.random.default_rng(59)
        numbers = [
            {"x": float(x), "kind": float(k), "vaf": float(v)}
            for x, k, v in zip(
                rng.normal(size=40), rng.uniform(-0.5, 1.5, 40), rng.uniform(0.3, 1.7, 40)
            )
        ]
        numeric = rows_table(numbers, numeric_schema("y", "x", "kind", "vaf"))
        transform = model.response_transform if back else "none"
        for table, table_rows in ((ds, rows), (numeric, numbers)):
            base = raw_counts(model_predict(model, table), transform)
            for i, row in enumerate(table_rows):
                want = oracles.one_row_prediction(model, row, back_transform=back)
                assert base[i] == want
                one_row = table.take([i])
                assert raw_counts(model_predict(model, one_row), transform)[0] == want
        recal = raw_counts(recalibrated_predict(model, trained, ds), transform)
        for i, row in enumerate(rows):
            want_recal = oracles.one_row_prediction(
                model, row, nfas=trained, back_transform=back
            )
            assert recal[i] == want_recal
            assert want_recal == raw_counts(
                recalibrated_predict(model, trained, ds.take([i])), transform
            )[0]
        assert not np.array_equal(raw_counts(model_predict(model, ds), transform), recal)
        with pytest.raises(DataError, match="of 'kind' is on no anchor"):
            recalibrated_predict(model, trained, numeric)

    @pytest.mark.parametrize("back", [False, True])
    def test_intercept_only_model(self, back):
        from defectcast.regression import LinearModel

        model = LinearModel(
            response="y", response_transform="ln", intercept=1.25, intercept_p=0.0,
            terms=(), r_squared=0.0, n=10,
        )
        want = oracles.one_row_prediction(model, {}, back_transform=back)
        assert want == (math.exp(1.25) if back else 1.25)
        _, _, _, ds = _mixed_setup("ln")
        transform = model.response_transform if back else "none"
        for table in (ds.take([0]), ds):
            want_all = [want] * table.row_count
            assert raw_counts(model_predict(model, table), transform).tolist() == want_all
            assert raw_counts(recalibrated_predict(model, [], table), transform).tolist() == want_all

    def test_untrained_units_equal_baseline(self):
        model, _, _, ds = _mixed_setup("ln")
        base = model_predict(model, ds)
        untrained = units_for(model.codings)
        assert np.array_equal(recalibrated_predict(model, untrained, ds), base)

    def test_missing_unit_raises(self):
        model, _, trained, ds = _mixed_setup("ln")
        with pytest.raises(DataError, match="missing recalibration unit.*'vaf'"):
            recalibrated_predict(model, trained[:1], ds)

    def test_unmapped_category_message_matches_one_row_path(self):
        # a table whose vaf declares a label the model's codings lack
        model, _, trained, ds = _mixed_setup("ln")
        schema = [
            replace(s, categories=(*s.categories, "1.10")) if s.name == "vaf" else s
            for s in ds.schema
        ]
        vaf = ds.labels("vaf")
        vaf[5] = "1.10"
        columns = {"y": ds.columns["y"].tolist(), "x": ds.columns["x"].tolist()}
        table = make_dataset({**columns, "kind": ds.labels("kind"), "vaf": vaf}, schema)
        with pytest.raises(DataError) as one:
            model_predict(model, table.take([5]))
        assert str(one.value) == "no quantification value for category '1.10' of 'vaf'"
        for predict in (
            lambda: model_predict(model, table),
            lambda: recalibrated_predict(model, trained, table),
        ):
            with pytest.raises(DataError) as batch:
                predict()
            assert str(batch.value) == str(one.value)

    def test_missing_category_raises(self):
        model, quants, _, ds = _mixed_setup("ln")
        vaf = ds.labels("vaf")
        vaf[3] = ""
        holed = make_dataset(
            {
                "y": ds.columns["y"].tolist(),
                "x": ds.columns["x"].tolist(),
                "kind": ds.labels("kind"),
                "vaf": vaf,
            },
            ds.schema,
        )
        with pytest.raises(DataError, match="^missing value in categorical variable 'vaf'$"):
            model_predict(model, holed)
        with pytest.raises(DataError, match="^missing value in categorical variable 'vaf'$"):
            holed.encode("vaf", quants["vaf"])


# category values away from zero, so no gap between two anchors is subnormal
# coding values stay 1e-3 or more away from zero, so that no gap between
# two of them is subnormal: units_for still rejects such a coding (see
# TestInitNfa.test_subnormal_gap_is_a_valid_coding)
_VALUES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
_REALS = st.floats(-1e3, 1e3)


@st.composite
def _coded_case(draw):
    """A hand-built model with a numeric term and two coded terms, trained
    units with random consequents, and a table of labels.  Each coding
    draws its labels' values from a pool of one to k distinct values, so
    labels share values and a coding may have a lone anchor; coefficients
    take either sign."""
    codings, columns, specs = {}, {}, [VariableSpec("y", "response", "numeric")]
    n = draw(st.integers(1, 20))
    columns["y"] = np.zeros(n)
    specs.append(VariableSpec("x", "predictor", "numeric"))
    columns["x"] = np.array(draw(st.lists(_REALS, min_size=n, max_size=n)))
    for name in ("g", "h"):
        k = draw(st.integers(2, 5))
        pool = draw(st.lists(_VALUES, min_size=1, max_size=k, unique=True))
        labels = tuple(f"{name}{i}" for i in range(k))
        codings[name] = {label: draw(st.sampled_from(pool)) for label in labels}
        specs.append(VariableSpec(name, "predictor", "categorical", categories=labels))
        columns[name] = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    model = LinearModel(
        response="y", response_transform="ln", intercept=draw(_REALS), intercept_p=0.0,
        terms=tuple(
            ModelTerm(v, draw(st.floats(-10.0, 10.0)), 0.0, 0.0, 0.0, 0.0) for v in ("x", "g", "h")
        ),
        r_squared=0.0, n=n, codings=codings,
    )
    units = [
        u.with_consequents(draw(st.lists(_REALS, min_size=len(u.input_anchors),
                                         max_size=len(u.input_anchors))))
        for u in units_for(codings)
    ]
    return model, units, Dataset(specs, columns)


class TestAnchorLookup:
    @settings(max_examples=60, deadline=None)
    @given(case=_coded_case())
    def test_lookup_equals_fuzzy_unit(self, case):
        model, units, ds = case
        design = model_design(model, ds)
        codes, consequents = recalibration.coded_columns(
            design, model.variables, model.codings, units
        )
        for (j, c), unit in zip(codes.items(), units):
            values = np.array(list(model.codings[unit.variable].values()))
            lookup = np.array(unit.consequents)[recalibration._anchor_codes(unit, values)]
            assert lookup.tolist() == [oracles.nfa_eval(unit, v) for v in values]
            assert np.array_equal(
                consequents[j][c], oracles.unit_outputs_by_strengths(unit, design[:, j])
            )
        # the training design of a block of one fit, here against the x
        # column as a target: each row's cell row, each coefficient times
        # the one-hot of the codes, has the bits of that coefficient times
        # the firing strengths
        coefficients = np.array([model.intercept, *(t.coefficient for t in model.terms)])
        fit = recalibration.ConsequentFit(
            coefficients[None], design[None], design[None, :, 1],
            {j: c[None] for j, c in codes.items()}, consequents,
        )
        blocks = [
            coefficients[j] * recalibration.firing_strengths(u, design[:, j])
            for j, u in zip(codes, units)
        ]
        assert np.array_equal(fit.a[0][fit.cell[0]], np.hstack(blocks))
        predicted = recalibrated_predict(model, units, ds)
        for i in range(ds.row_count):
            row = {"x": float(ds.columns["x"][i])}
            row.update({v: ds.spec(v).categories[ds.columns[v][i]] for v in ("g", "h")})
            assert predicted[i] == oracles.one_row_prediction(model, row, nfas=units)
        # a block of three fits with their own consequents and row orders,
        # stacked: each fit's scores have the bits of its lone prediction
        fits = [
            units,
            [u.with_consequents(u.consequents[::-1]) for u in units],
            [u.with_consequents(np.array(u.consequents) * 0.5 - 1.0) for u in units],
        ]
        orders = np.array([
            np.arange(ds.row_count), np.arange(ds.row_count)[::-1],
            np.roll(np.arange(ds.row_count), 1),
        ])
        stacked = {
            j: np.array([fit_units[i].consequents for fit_units in fits])
            for i, j in enumerate(codes)
        }
        scores = linear_score(
            np.tile(coefficients, (len(fits), 1)),
            recalibration.with_unit_outputs(
                design.take(orders, axis=0), {j: c.take(orders) for j, c in codes.items()}, stacked
            ),
        )
        for fit_units, order, got in zip(fits, orders, scores):
            assert np.array_equal(got, recalibrated_predict(model, fit_units, ds).take(order))

    def test_numeric_input_off_the_anchors_raises(self):
        model, nfas, ds, _ = _training_setup()
        on = rows_table([{"x": 0.0, "vaf": 1.00}], numeric_schema("y", "x", "vaf"))
        assert recalibrated_predict(model, nfas, on)[0] == model_predict(model, on)[0]
        off = rows_table([{"x": 0.0, "vaf": 1.00}, {"x": 0.0, "vaf": 0.9}],
                         numeric_schema("y", "x", "vaf"))
        with pytest.raises(DataError, match="^value 0.9 of 'vaf' is on no anchor"):
            recalibrated_predict(model, nfas, off)

    def test_unit_missing_a_coding_value_raises(self):
        # a hand-built unit without the anchor of label '1.00'
        model, nfas, ds, _ = _training_setup()
        unit = Nfa("vaf", (0.65, 1.35), (0.35, 0.35), (0.6, 1.4))
        for call in (
            lambda: recalibrated_predict(model, [unit], ds),
            lambda: train_recalibration(model, [unit], ds),
        ):
            with pytest.raises(DataError, match="^value 1.0 of 'vaf' is on no anchor"):
                call()
