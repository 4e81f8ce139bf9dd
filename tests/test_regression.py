"""Regression fits against exact-arithmetic and closed-form oracles."""

import io
import math

import numpy as np
import pytest
import scipy.stats

from defectcast import regression
from defectcast._errors import ConfigError, DataError, NumericalError
from defectcast.dataset import VariableSpec, load_csv, sample_sd
from defectcast.numerics import solve_least_squares, t_cdf
from defectcast.evaluation import raw_counts
from defectcast.regression import catreg_fit, model_predict, ols_fit, stepwise_fit

import oracles


def make_dataset(columns, schema):
    """A table loaded from CSV text of ``columns``; None or NaN is an empty
    (missing) cell."""
    names = [s.name for s in schema]
    lines = [",".join(names)]
    n = len(columns[names[0]])
    for i in range(n):
        cells = []
        for s in schema:
            v = columns[s.name][i]
            if isinstance(v, str):
                cells.append(v)
            else:
                cells.append("" if v is None or math.isnan(v) else repr(float(v)))
        lines.append(",".join(cells))
    return load_csv(io.StringIO("\n".join(lines) + "\n"), schema)


def rows_table(rows, schema):
    """A table of row dicts over ``schema``; a variable a row leaves out is
    a missing cell."""
    return make_dataset({s.name: [row.get(s.name) for row in rows] for s in schema}, schema)


def numeric_schema(*names):
    out = [VariableSpec(names[0], "response", "numeric")]
    out.extend(VariableSpec(n, "predictor", "numeric") for n in names[1:])
    return out


class TestOlsFit:
    def _random_case(self, seed, n=30, p=3):
        rng = np.random.default_rng(seed)
        cols = {"y": None}
        x = rng.normal(size=(n, p))
        y = 1.5 + x @ np.arange(1, p + 1) + rng.normal(0, 0.7, n)
        cols = {"y": y.tolist()}
        names = ["y"]
        for j in range(p):
            name = f"x{j + 1}"
            cols[name] = x[:, j].tolist()
            names.append(name)
        ds = make_dataset(cols, numeric_schema(*names))
        return ds, names[1:], x, y

    def test_matches_rational_oracle(self):
        for seed in (1, 2, 3):
            ds, predictors, x, y = self._random_case(seed)
            model = ols_fit(ds, "y", predictors)
            rows = [[1.0] + list(map(float, r)) for r in x]
            want = oracles.rational_least_squares(rows, [float(v) for v in y])
            assert abs(model.intercept - want[0]) < 1e-10
            for j, term in enumerate(model.terms, start=1):
                assert abs(term.coefficient - want[j]) < 1e-10

    def test_r_squared_is_squared_correlation(self):
        ds, predictors, x, y = self._random_case(5)
        model = ols_fit(ds, "y", predictors)
        coef = np.array([model.intercept] + [t.coefficient for t in model.terms])
        fitted = np.column_stack([np.ones(len(y)), x]) @ coef
        r = oracles.pearson(fitted.tolist(), y.tolist())
        assert abs(model.r_squared - r * r) < 1e-10

    def test_standard_errors_match_direct_inverse(self):
        ds, predictors, x, y = self._random_case(7)
        model = ols_fit(ds, "y", predictors)
        design = np.column_stack([np.ones(len(y)), x])
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        resid = y - design @ coef
        df = len(y) - design.shape[1]
        sigma2 = float(resid @ resid) / df
        cov = sigma2 * np.linalg.inv(design.T @ design)
        ses = np.sqrt(np.diag(cov))
        for j, term in enumerate(model.terms, start=1):
            assert abs(term.std_error - ses[j]) < 1e-8 * max(1.0, ses[j])

    def test_inference_identical_to_refactored_design(self):
        """Standard errors and p-values from the fit's own QR factor equal,
        bit for bit, those from factoring the design a second time."""
        for seed in (7, 11, 23):
            ds, predictors, x, y = self._random_case(seed, n=25, p=4)
            model = ols_fit(ds, "y", predictors)
            design = np.column_stack([np.ones(len(y)), x])
            sol = solve_least_squares(design, y)
            df = len(y) - design.shape[1]
            unscaled = oracles.unscaled_covariance_by_refactoring(design)
            cov = sol.residual_sum_squares / df * unscaled
            ses = np.sqrt(np.maximum(np.diag(cov), 0.0))
            coef = sol.coefficients
            p_values = [2.0 * t_cdf(-abs(b / se), df) for b, se in zip(coef, ses)]
            assert model.intercept_p == p_values[0]
            for j, term in enumerate(model.terms, start=1):
                assert term.std_error == ses[j]
                assert term.p_value == p_values[j]

    def test_strong_term_p_values_are_tails(self):
        # |t| of 26.7 and 30.2 on 56 df: 1 - t_cdf rounds both p to 0
        ds, predictors, x, y = self._random_case(11, n=60)
        model = ols_fit(ds, "y", predictors)
        for term in model.terms:
            want = 2.0 * oracles.t_tail_by_integration(abs(term.t_value), 56)
            assert abs(term.p_value / want - 1.0) < 1e-9
        assert all(0.0 < t.p_value < 1e-16 for t in model.terms[1:])
        assert 0.0 < model.intercept_p < 1e-16

    def test_p_values_match_t_distribution(self):
        ds, predictors, x, y = self._random_case(11)
        model = ols_fit(ds, "y", predictors)
        df = len(y) - len(predictors) - 1
        for term in model.terms:
            want = 2.0 * scipy.stats.t.sf(abs(term.t_value), df)
            assert abs(term.p_value - want) < 1e-10
        design = np.column_stack([np.ones(len(y)), x])
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        resid = y - design @ coef
        sigma2 = float(resid @ resid) / df
        se0 = math.sqrt(sigma2 * np.linalg.inv(design.T @ design)[0, 0])
        want0 = 2.0 * scipy.stats.t.sf(abs(coef[0]) / se0, df)
        assert abs(model.intercept_p - want0) < 1e-8

    def test_standardized_coefficients(self):
        ds, predictors, x, y = self._random_case(13)
        model = ols_fit(ds, "y", predictors)
        sd_y = sample_sd(y)
        for j, term in enumerate(model.terms):
            want = term.coefficient * sample_sd(x[:, j]) / sd_y
            assert abs(term.std_coefficient - want) < 1e-12
        # standardized inputs: B and Beta coincide
        zs = {"y": ((y - y.mean()) / sd_y).tolist()}
        names = ["y"]
        for j, name in enumerate(predictors):
            zs[name] = ((x[:, j] - x[:, j].mean()) / sample_sd(x[:, j])).tolist()
            names.append(name)
        zds = make_dataset(zs, numeric_schema(*names))
        zmodel = ols_fit(zds, "y", predictors)
        for term in zmodel.terms:
            assert abs(term.coefficient - term.std_coefficient) < 1e-10

    def test_affine_response_scaling(self):
        ds, predictors, x, y = self._random_case(17)
        base = ols_fit(ds, "y", predictors)
        cols = {"y": (3.0 * y + 10.0).tolist()}
        for j, name in enumerate(predictors):
            cols[name] = x[:, j].tolist()
        scaled = ols_fit(make_dataset(cols, numeric_schema("y", *predictors)), "y", predictors)
        assert abs(scaled.intercept - (3.0 * base.intercept + 10.0)) < 1e-8
        for b, s in zip(base.terms, scaled.terms):
            assert abs(s.coefficient - 3.0 * b.coefficient) < 1e-9
            assert abs(s.p_value - b.p_value) < 1e-9
        assert abs(scaled.r_squared - base.r_squared) < 1e-12

    def test_collinear_predictor_named(self):
        rng = np.random.default_rng(3)
        x1 = rng.normal(size=20)
        cols = {
            "y": rng.normal(size=20).tolist(),
            "x1": x1.tolist(),
            "x2": (2.0 * x1).tolist(),
        }
        ds = make_dataset(cols, numeric_schema("y", "x1", "x2"))
        with pytest.raises(NumericalError, match="collinear design"):
            ols_fit(ds, "y", ["x1", "x2"])

    def test_binary_auto_coding(self):
        rng = np.random.default_rng(21)
        n = 24
        flag = rng.integers(0, 2, n)
        y = 1.0 + 2.0 * flag + rng.normal(0, 0.2, n)
        cols = {
            "y": y.tolist(),
            "kind": ["old" if f == 0 else "new" for f in flag],
        }
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("kind", "predictor", "binary", categories=("old", "new")),
        ]
        ds = make_dataset(cols, schema)
        model = ols_fit(ds, "y", ["kind"])
        assert model.codings["kind"] == {"old": 0.0, "new": 1.0}
        # same fit as explicit numeric recode
        nds = make_dataset(
            {"y": y.tolist(), "kind": flag.astype(float).tolist()},
            numeric_schema("y", "kind"),
        )
        want = ols_fit(nds, "y", ["kind"])
        assert abs(model.terms[0].coefficient - want.terms[0].coefficient) < 1e-12
        assert abs(model.r_squared - want.r_squared) < 1e-12

    def test_quantification_applied(self):
        rng = np.random.default_rng(22)
        n = 30
        codes = rng.integers(0, 3, n)
        values = np.array([0.65, 1.0, 1.35])
        y = 2.0 + 4.0 * values[codes] + rng.normal(0, 0.3, n)
        labels = ["low", "mid", "high"]
        cols = {"y": y.tolist(), "vaf": [labels[c] for c in codes]}
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("vaf", "predictor", "categorical", categories=tuple(labels)),
        ]
        ds = make_dataset(cols, schema)
        quant = {"low": 0.65, "mid": 1.0, "high": 1.35}
        model = ols_fit(ds, "y", ["vaf"], {"vaf": quant})
        nds = make_dataset(
            {"y": y.tolist(), "vaf": values[codes].tolist()},
            numeric_schema("y", "vaf"),
        )
        want = ols_fit(nds, "y", ["vaf"])
        assert abs(model.terms[0].coefficient - want.terms[0].coefficient) < 1e-12
        assert model.codings["vaf"] == quant

    def test_multilevel_categorical_needs_quantification(self):
        cols = {"y": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "g": ["a", "b", "c", "a", "b", "c"]}
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("g", "predictor", "categorical"),
        ]
        ds = make_dataset(cols, schema)
        with pytest.raises(DataError, match="no quantification"):
            ols_fit(ds, "y", ["g"])

    def test_too_few_rows(self):
        ds = make_dataset(
            {"y": [1.0, 2.0, 3.0], "x1": [1.0, 2.0, 3.0], "x2": [2.0, 1.0, 2.0]},
            numeric_schema("y", "x1", "x2"),
        )
        with pytest.raises(DataError, match="complete rows"):
            ols_fit(ds, "y", ["x1", "x2"])

    def test_constant_response_rejected(self):
        ds = make_dataset(
            {"y": [2.0] * 8, "x1": list(range(8))}, numeric_schema("y", "x1")
        )
        with pytest.raises(DataError, match="zero variance"):
            ols_fit(ds, "y", ["x1"])

    @pytest.mark.parametrize(
        "kinds",
        [
            ["fit", "constant", "collinear"],
            ["fit", "collinear", "constant"],
            ["fit", "both", "constant"],
            ["constant", "fit", "fit"],
            ["fit", "fit", "fit"],
        ],
    )
    def test_stacked_fits_raise_the_first_fits_fault(self, kinds):
        """A stack of fits raises a fault that one of its faulty fits raises
        alone, and a stack without one gets each lone fit's bits.  A lone
        fit with a collinear design and a constant response raises the
        collinearity."""
        rng = np.random.default_rng(4)
        design = np.stack([np.ones((3, 9)), rng.normal(size=(3, 9)), rng.normal(size=(3, 9))], -1)
        y = rng.normal(size=(3, 9))
        for s, kind in enumerate(kinds):
            if kind in ("collinear", "both"):
                design[s, :, 2] = 2.0 * design[s, :, 1]
            if kind in ("constant", "both"):
                y[s] = 1.5
        args = (["x1", "x2"], "y")
        lone, faults = [], []
        for s, kind in enumerate(kinds):
            try:
                lone.append(regression.ols_coefficients(design[s], y[s], *args))
            except (DataError, NumericalError) as err:
                faults.append((type(err), str(err)))
                collinear = kind in ("collinear", "both")
                assert faults[-1][1].startswith("collinear design" if collinear else "response")
        if faults:
            with pytest.raises((DataError, NumericalError)) as info:
                regression.ols_coefficients(design, y, *args)
            assert (type(info.value), str(info.value)) in faults
            return
        sol, tss = regression.ols_coefficients(design, y, *args)
        assert sol.coefficients.tobytes() == np.array([f[0].coefficients for f in lone]).tobytes()
        assert tss.tolist() == [f[1] for f in lone]

    def test_listwise_rows_dropped(self):
        text = "y,x1\n1.0,2.0\n2.0,\n3.0,4.0\n,5.0\n4.0,6.0\n5.0,8.0\n"
        ds = load_csv(io.StringIO(text), numeric_schema("y", "x1"))
        model = ols_fit(ds, "y", ["x1"])
        assert model.n == 4


KIND_SCHEMA = [
    VariableSpec("y", "response", "numeric"),
    VariableSpec("size", "predictor", "numeric"),
    VariableSpec("kind", "predictor", "binary", categories=("base", "extra")),
]


class TestModelPredict:
    def _model(self):
        rng = np.random.default_rng(31)
        n = 25
        x = rng.normal(size=n)
        flag = rng.integers(0, 2, n)
        y = 0.5 + 1.2 * x - 0.8 * flag + rng.normal(0, 0.1, n)
        cols = {
            "y": y.tolist(),
            "size": x.tolist(),
            "kind": ["base" if f == 0 else "extra" for f in flag],
        }
        return ols_fit(make_dataset(cols, KIND_SCHEMA), "y", ["size", "kind"],
                       response_transform="ln")

    def test_linear_predictor(self):
        model = self._model()
        rows = [{"size": 2.0, "kind": "extra"}, {"size": -1.0, "kind": "base"}]
        got = model_predict(model, rows_table(rows, KIND_SCHEMA))
        want = model.intercept + model.term("size").coefficient * 2.0
        want += model.term("kind").coefficient * 1.0
        assert abs(got[0] - want) < 1e-12
        assert abs(got[1] - (model.intercept - model.term("size").coefficient)) < 1e-12

    def test_back_transform_is_exp(self):
        model = self._model()
        table = rows_table([{"size": 1.3, "kind": "base"}], KIND_SCHEMA)
        lin = model_predict(model, table)
        raw = raw_counts(lin, model.response_transform)
        assert raw[0] == pytest.approx(math.exp(lin[0]), rel=1e-12)

    def test_numeric_value_bypasses_coding(self):
        # a numeric column for a categorical term is used as given
        model = self._model()
        labels = rows_table([{"size": 0.0, "kind": "extra"}], KIND_SCHEMA)
        values = rows_table([{"size": 0.0, "kind": 1.0}], numeric_schema("y", "size", "kind"))
        assert model_predict(model, labels)[0] == model_predict(model, values)[0]

    def test_missing_variable(self):
        table = rows_table([{"size": 1.0}], numeric_schema("y", "size"))
        with pytest.raises(DataError, match="unknown variable 'kind'"):
            model_predict(self._model(), table)

    def test_unknown_label(self):
        schema = KIND_SCHEMA[:2] + [
            VariableSpec("kind", "predictor", "categorical", categories=("base", "other"))
        ]
        table = rows_table([{"size": 1.0, "kind": "other"}], schema)
        with pytest.raises(DataError, match="no quantification value for category 'other'"):
            model_predict(self._model(), table)

    @pytest.mark.parametrize("missing", [None, math.nan])
    @pytest.mark.parametrize("variable", ["size", "kind"])
    def test_missing_value_names_variable(self, variable, missing):
        # a missing cell raises, numeric or categorical: a NaN size does not
        # come back as a NaN prediction
        rows = [{"size": 1.0, "kind": "base"}, {"size": 1.0, "kind": "base", variable: missing}]
        with pytest.raises(DataError, match=f"missing value in .* variable '{variable}'"):
            model_predict(self._model(), rows_table(rows, KIND_SCHEMA))


class TestStepwise:
    def _signal_noise_dataset(self, seed=41, n=60):
        rng = np.random.default_rng(seed)
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        x3 = rng.normal(size=n)
        y = 2.0 * x1 - 1.5 * x2 + rng.normal(0, 0.5, n)
        cols = {"y": y.tolist(), "x1": x1.tolist(), "x2": x2.tolist(), "x3": x3.tolist()}
        return make_dataset(cols, numeric_schema("y", "x1", "x2", "x3"))

    def test_selects_signal_drops_noise(self):
        trace = stepwise_fit(self._signal_noise_dataset(), "y", ["x1", "x2", "x3"])
        assert set(trace.included) == {"x1", "x2"}
        assert trace.final_model.variables == trace.included
        entered = [s.variable for s in trace.steps if s.action == "enter"]
        assert entered[0] == "x1"  # strongest signal first

    def test_fixed_point_conditions(self):
        ds = self._signal_noise_dataset(seed=43)
        candidates = ["x1", "x2", "x3"]
        trace = stepwise_fit(ds, "y", candidates, p_enter=0.05, p_remove=0.10)
        final = trace.final_model
        for term in final.terms:
            assert term.p_value <= 0.10
        for var in candidates:
            if var in trace.included:
                continue
            try:
                refit = ols_fit(ds, "y", list(trace.included) + [var])
            except NumericalError:
                continue
            assert refit.term(var).p_value >= 0.05

    def test_removal_of_superseded_proxy(self):
        # xs proxies x1 + x2 and wins entry alone, then loses to the parts
        rng = np.random.default_rng(47)
        n = 80
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        xs = x1 + x2 + rng.normal(0, 0.8, n)
        y = x1 + x2 + rng.normal(0, 0.15, n)
        cols = {"y": y.tolist(), "xs": xs.tolist(), "x1": x1.tolist(), "x2": x2.tolist()}
        ds = make_dataset(cols, numeric_schema("y", "xs", "x1", "x2"))
        trace = stepwise_fit(ds, "y", ["xs", "x1", "x2"])
        actions = [(s.action, s.variable) for s in trace.steps]
        assert ("enter", "xs") == actions[0]
        assert ("remove", "xs") in actions
        assert set(trace.included) == {"x1", "x2"}

    def test_entry_order_free_of_candidate_order_when_p_underflows(self):
        # x2 proxies x1; alone, x1 has |t| near 363 and x2 near 205 on 1998
        # df, so both p are 0.0 even as tails and only |t| can rank them
        rng = np.random.default_rng(2000)
        n = 2000
        x1 = rng.normal(size=n)
        x2 = x1 + rng.normal(0, 0.3, n)
        x3 = rng.normal(size=n)
        y = x1 + 0.5 * x2 + rng.normal(0, 0.1, n)
        cols = {"y": y.tolist(), "x1": x1.tolist(), "x2": x2.tolist(), "x3": x3.tolist()}
        ds = make_dataset(cols, numeric_schema("y", "x1", "x2", "x3"))
        alone = [ols_fit(ds, "y", [v]).terms[0] for v in ("x1", "x2")]
        assert [t.p_value for t in alone] == [0.0, 0.0]
        assert abs(alone[0].t_value) > abs(alone[1].t_value) > 39.0
        traces = [
            stepwise_fit(ds, "y", order)
            for order in (["x1", "x2", "x3"], ["x2", "x1", "x3"], ["x3", "x2", "x1"])
        ]
        for trace in traces:
            assert trace.steps == traces[0].steps
        assert [(s.action, s.variable) for s in traces[0].steps] == [
            ("enter", "x1"),
            ("enter", "x2"),
        ]

    def test_nothing_significant(self):
        rng = np.random.default_rng(53)
        n = 40
        cols = {
            "y": rng.normal(size=n).tolist(),
            "x1": rng.normal(size=n).tolist(),
            "x2": rng.normal(size=n).tolist(),
        }
        ds = make_dataset(cols, numeric_schema("y", "x1", "x2"))
        trace = stepwise_fit(ds, "y", ["x1", "x2"], p_enter=1e-6)
        assert trace.included == ()
        assert trace.final_model.terms == ()
        assert trace.final_model.r_squared == 0.0

    def test_bad_thresholds(self):
        ds = self._signal_noise_dataset()
        with pytest.raises(ConfigError, match="p_enter"):
            stepwise_fit(ds, "y", ["x1"], p_enter=0.2, p_remove=0.1)

    def test_no_candidates(self):
        ds = self._signal_noise_dataset()
        with pytest.raises(ConfigError, match="candidate"):
            stepwise_fit(ds, "y", [])

    def test_action_cap_terminates(self):
        ds = self._signal_noise_dataset()
        trace = stepwise_fit(ds, "y", ["x1", "x2", "x3"])
        assert len(trace.steps) <= 6


class TestCatreg:
    def _nominal_dataset(self, seed=61, n=90):
        rng = np.random.default_rng(seed)
        effects = {"a": 0.0, "b": 3.0, "c": 1.0, "d": -2.0}
        labels = list(effects)
        codes = rng.integers(0, 4, n)
        x = rng.normal(size=n)
        y = 1.0 + 0.8 * x + np.array([effects[labels[c]] for c in codes])
        y = y + rng.normal(0, 0.3, n)
        cols = {"y": y.tolist(), "x": x.tolist(), "g": [labels[c] for c in codes]}
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("x", "predictor", "numeric"),
            VariableSpec("g", "predictor", "categorical", categories=tuple(labels)),
        ]
        return make_dataset(cols, schema), effects

    def test_r_squared_path_nondecreasing(self):
        ds, _ = self._nominal_dataset()
        result = catreg_fit(ds, "y", ["x", "g"])
        path = result.r_squared_path
        assert all(b - a >= -1e-12 for a, b in zip(path, path[1:]))

    def test_beats_integer_coding(self):
        ds, effects = self._nominal_dataset()
        result = catreg_fit(ds, "y", ["x", "g"])
        labels = list(effects)
        integer = {lab: float(i) for i, lab in enumerate(labels)}
        floor = ols_fit(ds, "y", ["x", "g"], {"g": integer})
        assert result.model.r_squared >= floor.r_squared - 1e-12
        # non-monotone effects: optimal scaling should win by a wide margin
        assert result.model.r_squared > floor.r_squared + 0.1

    def test_recovers_effect_ordering(self):
        ds, effects = self._nominal_dataset()
        result = catreg_fit(ds, "y", ["x", "g"])
        quant = result.model.codings["g"]
        labels = list(effects)
        fitted = [quant[lab] for lab in labels]
        truth = [effects[lab] for lab in labels]
        order_f = np.argsort(fitted).tolist()
        order_t = np.argsort(truth).tolist()
        assert order_f == order_t or order_f == order_t[::-1]

    def test_quantification_standardized_over_rows(self):
        ds, effects = self._nominal_dataset()
        result = catreg_fit(ds, "y", ["x", "g"])
        quant = result.model.codings["g"]
        labels = ds.labels("g")
        values = np.array([quant[lab] for lab in labels])
        assert abs(values.mean()) < 1e-9
        assert abs(np.mean((values - values.mean()) ** 2) - 1.0) < 1e-9

    def test_binary_matches_dummy_ols(self):
        rng = np.random.default_rng(67)
        n = 50
        flag = rng.integers(0, 2, n)
        x = rng.normal(size=n)
        y = 0.4 * x + 1.7 * flag + rng.normal(0, 0.4, n)
        cols = {
            "y": y.tolist(),
            "x": x.tolist(),
            "kind": ["p" if f == 0 else "q" for f in flag],
        }
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("x", "predictor", "numeric"),
            VariableSpec("kind", "predictor", "binary", categories=("p", "q")),
        ]
        ds = make_dataset(cols, schema)
        result = catreg_fit(ds, "y", ["x", "kind"])
        dummy = ols_fit(ds, "y", ["x", "kind"])
        assert abs(result.model.r_squared - dummy.r_squared) < 1e-9

    def test_ordinal_quantification_monotone(self):
        rng = np.random.default_rng(71)
        n = 120
        effects = np.array([0.0, 1.0, 1.2, 2.5])
        labels = ["none", "low", "mid", "high"]
        codes = rng.integers(0, 4, n)
        y = effects[codes] + rng.normal(0, 0.6, n)
        cols = {"y": y.tolist(), "grade": [labels[c] for c in codes]}
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("grade", "predictor", "categorical", categories=tuple(labels)),
        ]
        ds = make_dataset(cols, schema)
        result = catreg_fit(ds, "y", ["grade"], scaling={"grade": "ordinal"})
        quant = result.model.codings["grade"]
        vals = [quant[lab] for lab in labels]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)

    def test_ordinal_noisy_order_still_monotone(self):
        # true effects violate the declared order; projection must hold anyway
        rng = np.random.default_rng(73)
        n = 100
        effects = np.array([0.0, 2.0, 1.0, 3.0])
        labels = ["s0", "s1", "s2", "s3"]
        codes = rng.integers(0, 4, n)
        y = effects[codes] + rng.normal(0, 0.4, n)
        cols = {"y": y.tolist(), "stage": [labels[c] for c in codes]}
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("stage", "predictor", "categorical", categories=tuple(labels)),
        ]
        ds = make_dataset(cols, schema)
        result = catreg_fit(ds, "y", ["stage"], scaling={"stage": "ordinal"})
        quant = result.model.codings["stage"]
        vals = [quant[lab] for lab in labels]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)
        nominal = catreg_fit(ds, "y", ["stage"]).model.r_squared
        assert result.model.r_squared <= nominal + 1e-12

    def test_converges_quickly(self):
        ds, _ = self._nominal_dataset()
        result = catreg_fit(ds, "y", ["x", "g"])
        assert result.iterations < 50

    def test_final_model_predicts_with_labels(self):
        ds, _ = self._nominal_dataset()
        result = catreg_fit(ds, "y", ["x", "g"])
        got = model_predict(result.model, rows_table([{"x": 0.0, "g": "b"}], ds.schema))[0]
        quant = result.model.codings["g"]
        want = result.model.intercept
        want += result.model.term("g").coefficient * quant["b"]
        assert abs(got - want) < 1e-12

    def test_empty_category_rejected(self):
        cols = {"y": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "g": ["a", "b", "a", "b", "a", "b"]}
        schema = [
            VariableSpec("y", "response", "numeric"),
            VariableSpec("g", "predictor", "categorical", categories=("a", "b", "c")),
        ]
        ds = make_dataset(cols, schema)
        with pytest.raises(DataError, match="zero training rows"):
            catreg_fit(ds, "y", ["g"])

    def test_needs_categorical(self):
        ds = make_dataset(
            {"y": [1.0, 2.0, 3.0, 4.0], "x": [1.0, 3.0, 2.0, 4.0]},
            numeric_schema("y", "x"),
        )
        with pytest.raises(ConfigError, match="categorical"):
            catreg_fit(ds, "y", ["x"])

    def test_bad_scaling_level(self):
        ds, _ = self._nominal_dataset()
        with pytest.raises(ConfigError, match="scaling level"):
            catreg_fit(ds, "y", ["x", "g"], scaling={"g": "spline"})
