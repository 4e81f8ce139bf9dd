"""Model-tree growth against a brute-force split oracle."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectcast._errors import ConfigError, DataError
from defectcast.dataset import Dataset, VariableSpec
from defectcast import modeltree
from defectcast.modeltree import fit_model_tree
from defectcast.regression import model_predict, ols_fit

import oracles
from test_regression import make_dataset, numeric_schema, rows_table


def collect_nodes(node, out=None):
    if out is None:
        out = []
    out.append(node)
    if not node.is_leaf:
        collect_nodes(node.left, out)
        collect_nodes(node.right, out)
    return out


def leaf_predictions(node, ds):
    """Each row's prediction by the model of the leaf its values reach,
    for a tree whose splits are all thresholds on numeric columns."""
    preds = np.empty(ds.row_count)

    def route(node, rows):
        if node.is_leaf:
            preds[rows] = model_predict(node.model, ds.take(rows))
            return
        left = ds.columns[node.variable][rows] < node.threshold
        route(node.left, rows[left])
        route(node.right, rows[~left])

    route(node, np.arange(ds.row_count))
    return preds


class TestRootSplitOracle:
    def test_numeric_root_matches_brute_force(self):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            n = 60
            x1 = rng.uniform(0, 10, n)
            x2 = rng.uniform(0, 10, n)
            y = np.where(x1 < 5.0, 0.0, 4.0) + 0.5 * x2 + rng.normal(0, 0.4, n)
            ds = make_dataset(
                {"y": y.tolist(), "x1": x1.tolist(), "x2": x2.tolist()},
                numeric_schema("y", "x1", "x2"),
            )
            tree = fit_model_tree(ds, "y", ["x1", "x2"], min_leaf_size=6)
            name, thr, sdr = oracles.best_split_brute_force(
                {"x1": x1.tolist(), "x2": x2.tolist()},
                {"x1": "numeric", "x2": "numeric"},
                y.tolist(),
                min_leaf=6,
            )
            assert tree.root.variable == name
            assert tree.root.threshold == pytest.approx(thr, abs=1e-12)
            assert tree.root.sd_reduction == pytest.approx(sdr, abs=1e-10)

    def test_categorical_root_matches_brute_force(self):
        rng = np.random.default_rng(200)
        n = 80
        labels = ["a", "b", "c", "d"]
        shift = {"a": 0.0, "b": 0.3, "c": 5.0, "d": 5.4}
        codes = rng.integers(0, 4, n)
        y = np.array([shift[labels[c]] for c in codes]) + rng.normal(0, 0.3, n)
        ds = make_dataset(
            {"y": y.tolist(), "g": [labels[c] for c in codes]},
            [
                VariableSpec("y", "response", "numeric"),
                VariableSpec("g", "predictor", "categorical", categories=tuple(labels)),
            ],
        )
        tree = fit_model_tree(ds, "y", ["g"], min_leaf_size=8)
        name, left_codes, sdr = oracles.best_split_brute_force(
            {"g": codes.tolist()}, {"g": "categorical"}, y.tolist(), min_leaf=8
        )
        assert name == "g"
        assert tree.root.left_labels == tuple(labels[c] for c in left_codes)
        assert tree.root.left_labels == ("a", "b")
        assert tree.root.sd_reduction == pytest.approx(sdr, abs=1e-10)

    def test_mixed_predictors_oracle(self):
        rng = np.random.default_rng(300)
        n = 70
        x = rng.uniform(0, 1, n)
        labels = ["p", "q", "r"]
        codes = rng.integers(0, 3, n)
        y = 2.0 * x + np.array([0.0, 0.1, 3.0])[codes] + rng.normal(0, 0.2, n)
        ds = make_dataset(
            {"y": y.tolist(), "x": x.tolist(), "g": [labels[c] for c in codes]},
            [
                VariableSpec("y", "response", "numeric"),
                VariableSpec("x", "predictor", "numeric"),
                VariableSpec("g", "predictor", "categorical", categories=tuple(labels)),
            ],
        )
        tree = fit_model_tree(ds, "y", ["x", "g"], min_leaf_size=7)
        name, spec, sdr = oracles.best_split_brute_force(
            {"x": x.tolist(), "g": codes.tolist()},
            {"x": "numeric", "g": "categorical"},
            y.tolist(),
            min_leaf=7,
        )
        assert tree.root.variable == name
        assert tree.root.sd_reduction == pytest.approx(sdr, abs=1e-10)


class TestGrowth:
    def _piecewise(self, seed=1, n=200):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 10, n)
        y = np.where(x < 5.0, 1.0 * x, 10.0 + 3.0 * (x - 5.0))
        y = y + rng.normal(0, 0.1, n)
        ds = make_dataset(
            {"y": y.tolist(), "x": x.tolist()}, numeric_schema("y", "x")
        )
        return ds, x, y

    def test_recovers_piecewise_structure(self):
        ds, x, y = self._piecewise()
        tree = fit_model_tree(ds, "y", ["x"])
        assert not tree.root.is_leaf
        assert 4.5 < tree.root.threshold < 5.5
        grid = np.linspace(0.2, 9.8, 60)
        truth = np.where(grid < 5.0, grid, 10.0 + 3.0 * (grid - 5.0))
        preds = leaf_predictions(tree.root, rows_table([{"x": g} for g in grid], ds.schema))
        # a few grid points straddle the fitted cut; judge the bulk
        inside = np.abs(grid - tree.root.threshold) > 0.3
        assert np.max(np.abs(preds[inside] - truth[inside])) < 0.5

    def test_sd_reduction_nonnegative_everywhere(self):
        ds, _, _ = self._piecewise(seed=2)
        tree = fit_model_tree(ds, "y", ["x"])
        for node in collect_nodes(tree.root):
            if not node.is_leaf:
                assert node.sd_reduction >= -1e-12

    def test_leaf_sizes_respected(self):
        ds, _, _ = self._piecewise(seed=3)
        tree = fit_model_tree(ds, "y", ["x"], min_leaf_size=15)
        for node in collect_nodes(tree.root):
            if node.is_leaf:
                assert node.n >= 15

    def test_resubstitution_beats_global_ols(self):
        rng = np.random.default_rng(7)
        n = 150
        x1 = rng.uniform(0, 10, n)
        x2 = rng.normal(size=n)
        y = np.where(x1 < 4.0, 5.0 + 2.0 * x2, -3.0 - 1.0 * x2) + rng.normal(0, 0.3, n)
        ds = make_dataset(
            {"y": y.tolist(), "x1": x1.tolist(), "x2": x2.tolist()},
            numeric_schema("y", "x1", "x2"),
        )
        tree = fit_model_tree(ds, "y", ["x1", "x2"])
        preds = leaf_predictions(tree.root, ds)
        tree_rss = float(((y - preds) ** 2).sum())
        flat = ols_fit(ds, "y", ["x1", "x2"])
        coef = np.array([flat.intercept] + [t.coefficient for t in flat.terms])
        flat_rss = float(
            ((y - np.column_stack([np.ones(n), x1, x2]) @ coef) ** 2).sum()
        )
        assert tree_rss <= flat_rss + 1e-9

    def test_step_function_stops_at_two_leaves(self):
        rng = np.random.default_rng(11)
        n = 100
        x = rng.uniform(0, 1, n)
        y = np.where(x < 0.5, 0.0, 10.0) + rng.normal(0, 0.01, n)
        ds = make_dataset({"y": y.tolist(), "x": x.tolist()}, numeric_schema("y", "x"))
        tree = fit_model_tree(ds, "y", ["x"])
        # children are nearly pure, far below the 5 percent floor
        assert tree.depth == 1
        assert tree.leaf_count == 2

    def test_small_sample_single_leaf(self):
        ds = make_dataset(
            {"y": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
             "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]},
            numeric_schema("y", "x"),
        )
        tree = fit_model_tree(ds, "y", ["x"], min_leaf_size=6)
        assert tree.leaf_count == 1
        at_3 = model_predict(tree.root.model, rows_table([{"x": 3.0}], ds.schema))
        assert at_3[0] == pytest.approx(3.0, abs=1e-8)

    def test_constant_response_single_mean_leaf(self):
        ds = make_dataset(
            {"y": [2.5] * 12, "x": list(range(12))}, numeric_schema("y", "x")
        )
        tree = fit_model_tree(ds, "y", ["x"])
        assert tree.leaf_count == 1
        assert model_predict(tree.root.model, rows_table([{"x": 100.0}], ds.schema))[0] == 2.5

    def test_duplicate_predictor_tie_breaks_low_index(self):
        rng = np.random.default_rng(13)
        n = 40
        x = rng.uniform(0, 10, n)
        y = np.where(x < 5.0, 0.0, 6.0) + rng.normal(0, 0.2, n)
        ds = make_dataset(
            {"y": y.tolist(), "x1": x.tolist(), "x2": x.tolist()},
            numeric_schema("y", "x1", "x2"),
        )
        tree = fit_model_tree(ds, "y", ["x1", "x2"], min_leaf_size=5)
        assert tree.root.variable == "x1"
        # identical columns: the leaf fits must have dropped one
        for node in collect_nodes(tree.root):
            if node.is_leaf:
                assert len(node.model.terms) <= 1

    def test_quantified_categorical_splits_on_threshold(self):
        rng = np.random.default_rng(17)
        n = 90
        labels = ["0.65", "1.0", "1.35"]
        values = {"0.65": 0.65, "1.0": 1.0, "1.35": 1.35}
        codes = rng.integers(0, 3, n)
        v = np.array([values[labels[c]] for c in codes])
        y = 8.0 * v + rng.normal(0, 0.2, n)
        ds = make_dataset(
            {"y": y.tolist(), "vaf": [labels[c] for c in codes]},
            [
                VariableSpec("y", "response", "numeric"),
                VariableSpec("vaf", "predictor", "categorical", categories=tuple(labels)),
            ],
        )
        tree = fit_model_tree(ds, "y", ["vaf"], codings={"vaf": values}, min_leaf_size=10)
        assert tree.root.threshold is not None
        assert tree.root.left_labels is None
        # leaf models take vaf by its quantified value
        got = leaf_predictions(tree.root, rows_table([{"vaf": 1.35}], numeric_schema("y", "vaf")))
        assert got[0] == pytest.approx(8.0 * 1.35, abs=0.5)


class TestTreeApi:
    def _tree(self):
        rng = np.random.default_rng(19)
        n = 80
        x = rng.uniform(0, 10, n)
        labels = ["a", "b", "c"]
        codes = rng.integers(0, 3, n)
        y = np.where(x < 5, 0.0, 3.0) + np.array([0.0, 0.2, 2.0])[codes]
        y = y + rng.normal(0, 0.2, n)
        ds = make_dataset(
            {"y": y.tolist(), "x": x.tolist(), "g": [labels[c] for c in codes]},
            [
                VariableSpec("y", "response", "numeric"),
                VariableSpec("x", "predictor", "numeric"),
                VariableSpec("g", "predictor", "categorical", categories=tuple(labels)),
            ],
        )
        return fit_model_tree(ds, "y", ["x", "g"], min_leaf_size=8)

    def test_text_rendering(self):
        text = self._tree().to_text()
        assert "if " in text
        assert "leaf: " in text
        assert "else" in text
        assert text.endswith("\n")

    def test_dict_json_serializable(self):
        data = self._tree().to_dict()
        blob = json.dumps(data)
        back = json.loads(blob)
        assert back["root"]["kind"] == "split"
        assert back["leaf_count"] == self._tree().leaf_count

    def test_no_predictors_rejected(self):
        ds = make_dataset({"y": [1.0, 2.0], "x": [1.0, 2.0]}, numeric_schema("y", "x"))
        with pytest.raises(ConfigError, match="predictor"):
            fit_model_tree(ds, "y", [])

    def test_tiny_sample_degenerates_to_leaf(self):
        ds = make_dataset(
            {"y": [1.0, 2.0, 3.0], "x": [3.0, 2.0, 1.0]}, numeric_schema("y", "x")
        )
        tree = fit_model_tree(ds, "y", ["x"])
        assert tree.leaf_count == 1

    def test_single_row_rejected(self):
        text = "y,x\n1.0,2.0\n"
        import io
        from defectcast.dataset import load_csv

        ds = load_csv(io.StringIO(text), numeric_schema("y", "x"))
        with pytest.raises(DataError, match="complete rows"):
            fit_model_tree(ds, "y", ["x"])

    def test_bad_sd_fraction(self):
        ds, = [make_dataset({"y": list(map(float, range(20))), "x": list(map(float, range(20)))},
                            numeric_schema("y", "x"))]
        with pytest.raises(ConfigError, match="sd_fraction"):
            fit_model_tree(ds, "y", ["x"], sd_fraction=1.5)


def _x_column(rng, kind, n):
    if kind == "ties":
        return rng.integers(0, 6, n).astype(float)
    if kind == "adjacent":
        # adjacent floats: every midpoint rounds onto one of its two ends
        ladder = [1.0]
        for _ in range(7):
            ladder.append(float(np.nextafter(ladder[-1], 2.0)))
        return np.array(ladder)[rng.integers(0, len(ladder), n)]
    return rng.uniform(0.0, 10.0, n)


def _y_column(rng, kind, x):
    step = np.where(x < np.median(x), 0.0, 3.0)
    if kind == "offset":
        return 1e6 + step + rng.normal(0.0, 1e-3, x.size)
    if kind == "flat":
        # children with zero or nearly zero variance
        return step + rng.choice([0.0, 1e-13], x.size)
    return step + 0.5 * x + rng.normal(0.0, 1.0, x.size)


@st.composite
def tree_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(8, 90))
    x_kind = draw(st.sampled_from(["uniform", "ties", "adjacent"]))
    y_kind = draw(st.sampled_from(["noise", "offset", "flat"]))
    x1 = _x_column(rng, x_kind, n)
    # x2 duplicates x1 now and then, so equal scores tie across predictors
    x2 = x1.copy() if draw(st.booleans()) else _x_column(rng, x_kind, n)
    y = _y_column(rng, y_kind, x1)
    labels = ["a", "b", "c", "d"]
    g = rng.integers(0, 4, n)
    h = rng.integers(0, 3, n)
    y = y + np.array([0.0, 0.0, 1.0, 2.0])[g]
    columns = {
        "y": y.tolist(), "x1": x1.tolist(), "x2": x2.tolist(),
        "g": [labels[c] for c in g], "h": [labels[c] for c in h],
    }
    schema = [
        VariableSpec("y", "response", "numeric"),
        VariableSpec("x1", "predictor", "numeric"),
        VariableSpec("x2", "predictor", "numeric"),
        VariableSpec("g", "predictor", "categorical", categories=tuple(labels)),
        VariableSpec("h", "predictor", "categorical", categories=tuple(labels[:3])),
    ]
    predictors = draw(st.permutations(["x1", "x2", "g", "h"]))
    # h is quantified (threshold splits), g is subset-only
    quant = {"h": {"a": 0.5, "b": 1.0, "c": 1.0}}
    # min_leaf_size at the boundary: n // 2 leaves exactly one legal size
    leaf = draw(st.sampled_from([None, 2, 3, max(2, n // 2), max(2, (n + 1) // 2)]))
    return make_dataset(columns, schema), list(predictors), quant, leaf


class TestScanMatchesMaskLoop:
    @settings(max_examples=200, deadline=None)
    @given(tree_cases())
    def test_tree_identical_to_mask_loop(self, case):
        ds, predictors, quant, leaf = case
        got = fit_model_tree(ds, "y", predictors, quant, min_leaf_size=leaf)
        want = oracles.model_tree_by_mask_loop(
            ds, "y", predictors, quant, min_leaf_size=leaf
        )
        assert got.to_dict() == want.to_dict()

    def test_adjacent_float_midpoints_land_on_endpoints(self):
        a = 1.0
        b = float(np.nextafter(a, 2.0))
        c = float(np.nextafter(b, 2.0))
        # ties round to even: the first midpoint falls on a, the second on c
        assert ((a + b) / 2.0, (b + c) / 2.0) == (a, c)
        x = [a] * 6 + [b] * 6 + [c] * 8
        y = [0.0] * 6 + [0.1] * 6 + [5.0] * 8
        ds = make_dataset({"y": y, "x": x}, numeric_schema("y", "x"))
        tree = fit_model_tree(ds, "y", ["x"], min_leaf_size=2)
        want = oracles.model_tree_by_mask_loop(ds, "y", ["x"], min_leaf_size=2)
        assert tree.to_dict() == want.to_dict()
        # "x < c" puts a and b left; "x < a" (the other midpoint) is empty
        assert tree.root.threshold == c
        assert (tree.root.left.n, tree.root.right.n) == (12, 8)

    def test_nan_predictor_values_are_missing_rows(self):
        rng = np.random.default_rng(5)
        n = 40
        x = rng.uniform(0.0, 10.0, n)
        x[::7] = math.nan
        # the NaN rows differ most from the rest, but NaN is the missing
        # marker, so listwise deletion drops them before any split
        y = np.where(np.isnan(x), 9.0, np.where(x < 5.0, 0.0, 1.0))
        y = y + rng.normal(0.0, 0.1, n)
        ds = Dataset(numeric_schema("y", "x"), {"y": y, "x": x})
        tree = fit_model_tree(ds, "y", ["x"], min_leaf_size=4)
        assert tree.root.n == n - 6
        want = oracles.model_tree_by_mask_loop(ds, "y", ["x"], min_leaf_size=4)
        assert tree.to_dict() == want.to_dict()


class TestScanErrorBound:
    @pytest.mark.parametrize("kind", ["offset", "flat", "huge", "skewed"])
    def test_err_bounds_every_candidate(self, kind):
        # |scan score - mask score| <= err is what makes the shortlist exact
        rng = np.random.default_rng(37)
        for n in (12, 300, 2500):
            x = rng.integers(0, 40, n).astype(float) if kind == "flat" else rng.uniform(0, 10, n)
            step = np.where(x < 5.0, 0.0, 3.0)
            y = {
                "offset": 1e6 + step + rng.normal(0.0, 1e-3, n),
                "flat": step + rng.choice([0.0, 1e-13], n),
                "huge": 1e12 + 1e8 * rng.normal(size=n),
                "skewed": np.exp(rng.normal(0.0, 3.0, n)),
            }[kind]
            distinct = np.unique(x)
            bounds = (distinct[:-1] + distinct[1:]) / 2.0
            node_sd = modeltree._pop_sd(y)
            cand, nls, score, err = modeltree._split_scan(x, bounds, y, node_sd, 2)
            assert cand.size > 0
            for i, nl, approx, bound in zip(cand, nls, score, err):
                mask = x < bounds[i]
                exact = node_sd - (
                    nl / n * modeltree._pop_sd(y[mask])
                    + (n - nl) / n * modeltree._pop_sd(y[~mask])
                )
                assert abs(approx - exact) <= bound


class TestSplitSearchCost:
    def test_exact_rechecks_per_node_do_not_grow_with_rows(self, monkeypatch):
        # scoring every midpoint on masks ran two _pop_sd per candidate (O(n^2))
        calls = []
        original = modeltree._pop_sd

        def counting(values):
            calls.append(values.size)
            return original(values)

        monkeypatch.setattr(modeltree, "_pop_sd", counting)
        per_node = []
        for n in (500, 4000):
            rng = np.random.default_rng(29)
            x1 = rng.uniform(0.0, 10.0, n)
            x2 = rng.uniform(0.0, 10.0, n)
            g = rng.integers(0, 4, n)
            y = (np.where(x1 < 5.0, 0.0, 4.0) + 0.3 * x2
                 + np.array([0.0, 0.5, 1.0, 2.0])[g] + rng.normal(0.0, 0.5, n))
            ds = make_dataset(
                {"y": y.tolist(), "x1": x1.tolist(), "x2": x2.tolist(),
                 "g": ["abcd"[c] for c in g]},
                [
                    VariableSpec("y", "response", "numeric"),
                    VariableSpec("x1", "predictor", "numeric"),
                    VariableSpec("x2", "predictor", "numeric"),
                    VariableSpec("g", "predictor", "categorical", categories=tuple("abcd")),
                ],
            )
            del calls[:]
            tree = fit_model_tree(ds, "y", ["x1", "x2", "g"])
            nodes = collect_nodes(tree.root)
            # one _pop_sd for the root sd, one per node for its own sd
            rechecks = len(calls) - 1 - len(nodes)
            per_node.append(rechecks / len(nodes))
        assert per_node[1] <= per_node[0] <= 4.0
