"""Ten end-to-end acceptance checks, one test per item.

Run with -v to get a single pass/fail line per criterion.  Every expected
value is either exact arithmetic, an independent brute-force oracle from
``oracles.py``, or a qualitative pattern count with its threshold stated
inline; stated runtime budgets are asserted where the criterion has one.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.stats

import oracles
from test_recalibration import _training_setup
from test_regression import make_dataset, numeric_schema
from test_screening import table_of

from defectcast.dataset import VariableSpec, listwise_complete
from defectcast.evaluation import (
    GeneratorConfig,
    ModelingPlan,
    cross_validate,
    generate_synthetic,
    kfold_plan,
    mmre,
    pred_at,
    quantification_from_labels,
)
from defectcast.goldens import reference_prediction
from defectcast.modeltree import fit_model_tree
from defectcast.numerics import studentized_range_cdf
from defectcast.pipeline import load_config, run_pipeline
from defectcast.recalibration import (
    Nfa,
    firing_strengths,
    train_recalibration,
    units_for,
)
from defectcast.regression import (
    catreg_fit,
    ols_fit,
    stepwise_fit,
)
from defectcast.screening import anova_oneway, spearman
from defectcast.transform import apply_schema_transforms, compute_vaf

DEV_QUANT = {"New Development": 0.0, "Re-development": 0.0, "Enhancement": 1.0}


def test_01_reference_prediction_anchor():
    value = reference_prediction(18.0, 0.65, "New Development")
    assert 0.95 <= value <= 1.05
    extreme = reference_prediction(20000.0, 1.35, "Enhancement")
    assert math.isfinite(extreme) and extreme > 0.0
    reference_prediction(18.0, 0.65, "New Development")  # warm
    start = time.perf_counter()
    for _ in range(1000):
        reference_prediction(18.0, 0.65, "New Development")
    per_call = (time.perf_counter() - start) / 1000
    assert per_call < 1e-3


def test_02_vaf_endpoints_bit_exact():
    assert compute_vaf([0] * 14) == 0.65
    assert compute_vaf([5] * 14) == 1.35


def test_03_statistical_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(301)

    # Spearman vs the rank-difference formula (continuous data, no ties)
    x = rng.normal(size=25).tolist()
    y = (np.array(x) * 0.6 + rng.normal(size=25)).tolist()
    assert abs(spearman(x, y).rho - oracles.spearman_rank_difference(x, y)) < 1e-9

    # ANOVA F vs explicit sums of squares
    groups = ["a"] * 10 + ["b"] * 12 + ["c"] * 8
    resp = (rng.normal(size=30) + np.array([0.0] * 10 + [0.8] * 12 + [1.5] * 8)).tolist()
    got = anova_oneway(table_of(resp, groups))
    want_f, dfb, dfw = oracles.anova_by_hand(
        {g: [v for v, gg in zip(resp, groups) if gg == g] for g in "abc"}
    )
    assert abs(got.f_value - want_f) < 1e-9
    assert (got.df_between, got.df_within) == (dfb, dfw)
    assert abs(got.p_value - scipy.stats.f.sf(want_f, dfb, dfw)) < 1e-9

    # OLS coefficients vs exact rational normal equations on a 20x4 design,
    # p-values vs the reference t distribution
    n, p = 20, 3
    design = rng.normal(size=(n, p)).round(3)
    target = (1.0 + design @ np.array([2.0, -1.0, 0.5]) + rng.normal(0, 0.5, n)).round(3)
    cols = {"y": target.tolist()}
    names = [f"x{j}" for j in range(p)]
    for j, name in enumerate(names):
        cols[name] = design[:, j].tolist()
    ds = make_dataset(cols, numeric_schema("y", *names))
    model = ols_fit(ds, "y", names)
    rows = [[1.0] + design[i].tolist() for i in range(n)]
    exact = oracles.rational_least_squares(rows, target.tolist())
    assert abs(model.intercept - exact[0]) < 1e-9
    for j, term in enumerate(model.terms, start=1):
        assert abs(term.coefficient - exact[j]) < 1e-9
        want_p = 2.0 * scipy.stats.t.sf(abs(term.t_value), n - p - 1)
        assert abs(term.p_value - want_p) < 1e-9

    # F equals t^2 on two groups
    two_groups = ["a"] * 12 + ["b"] * 14
    two_resp = (rng.normal(size=26) + np.array([0.0] * 12 + [0.7] * 14)).tolist()
    f2 = anova_oneway(table_of(two_resp, two_groups)).f_value
    a_vals = two_resp[:12]
    b_vals = two_resp[12:]
    ma, mb = sum(a_vals) / 12, sum(b_vals) / 14
    pooled = (
        sum((v - ma) ** 2 for v in a_vals) + sum((v - mb) ** 2 for v in b_vals)
    ) / (12 + 14 - 2)
    t_stat = (ma - mb) / math.sqrt(pooled * (1 / 12 + 1 / 14))
    assert abs(f2 - t_stat * t_stat) < 1e-6

    # studentized range at k=2 collapses to a folded t
    for df in (5.0, 10.0, 30.0):
        for q in (0.5, 1.0, 2.0, 3.0, 4.0):
            folded = 2.0 * scipy.stats.t.cdf(q / math.sqrt(2.0), df) - 1.0
            assert abs(studentized_range_cdf(q, 2, df) - folded) < 1e-6

    # quadrature vs 1e7-replicate Monte Carlo at (k=3, df=10, q=3.88)
    mc = oracles.studentized_range_by_simulation(3.88, 3, 10, 10_000_000, seed=97531)
    assert abs(studentized_range_cdf(3.88, 3, 10) - mc) < 0.003

    assert time.perf_counter() - start < 60.0


def test_04_recalibration_unit_math():
    start = time.perf_counter()
    rng = np.random.default_rng(401)

    # (a) normalized firing strengths sum to one on 1e4 random inputs
    checked = 0
    for k in (2, 3, 4, 6):
        anchors = tuple(np.sort(rng.uniform(-2.0, 2.0, k) * np.arange(1, k + 1)))
        unit = units_for({"v": {str(i): a for i, a in enumerate(anchors)}})[0]
        inputs = rng.uniform(anchors[0] - 2.0, anchors[-1] + 2.0, 2500)
        w = firing_strengths(unit, inputs)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
        checked += inputs.size
    assert checked == 10_000

    # (b) analytic consequent gradient vs central finite differences,
    # and the trainer's reported initial gradient ties to the same formula
    model, nfas, ds, quant = _training_setup(seed=13, shift={"1.00": 0.3})
    y = ds.columns["y"].astype(float)
    x = ds.columns["x"].astype(float)
    base = model.intercept + model.term("x").coefficient * x
    b_v = model.term("vaf").coefficient
    w = firing_strengths(nfas[0], np.array([quant[l] for l in ds.labels("vaf")]))
    n = len(y)

    def loss(params):
        r = base + b_v * (w @ params) - y
        return float(r @ r) / n

    def analytic(params):
        r = base + b_v * (w @ params) - y
        return (2.0 / n) * b_v * (w.T @ r)

    for _ in range(100):
        params = rng.normal(0.0, 2.0, 3)
        got = analytic(params)
        want = oracles.finite_difference_gradient(loss, params, step=1e-6)
        denom = max(float(np.linalg.norm(want)), 1e-8)
        assert float(np.linalg.norm(got - want)) / denom < 1e-4

    _, trace = train_recalibration(model, nfas, ds)
    init_norm = float(np.linalg.norm(analytic(np.array(nfas[0].input_anchors))))
    assert abs(trace.initial_gradient_norm - init_norm) < 1e-8 * (1.0 + init_norm)

    # (c) training reaches the closed-form convex optimum
    for seed in range(10):
        f_rng = np.random.default_rng(1000 + seed)
        shift = {
            lab: float(f_rng.uniform(-0.3, 0.3)) for lab in ("0.65", "1.00", "1.35")
        }
        model, nfas, ds, quant = _training_setup(seed=2000 + seed, shift=shift)
        trained, _ = train_recalibration(model, nfas, ds)
        y = ds.columns["y"].astype(float)
        x = ds.columns["x"].astype(float)
        base = model.intercept + model.term("x").coefficient * x
        b_v = model.term("vaf").coefficient
        w = firing_strengths(
            nfas[0], np.array([quant[l] for l in ds.labels("vaf")])
        )
        optimum = np.linalg.lstsq(b_v * w, y - base, rcond=None)[0]
        np.testing.assert_allclose(
            np.array(trained[0].consequents), optimum, atol=1e-12
        )

    assert time.perf_counter() - start < 30.0


def test_05_recalibration_improvement_pattern():
    # n=64 synthetic with sigma=0.3 noise and per-level adjustment shifts up
    # to +-0.1; 8-fold CV must favor recalibration in >=16 of 20 seeds with
    # mean improvement >=10%
    start = time.perf_counter()
    wins = 0
    improvements = []
    for seed in range(20):
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.3), seed=seed)
        shifted = oracles.perturb_quantification(
            quantification_from_labels(ds, "vaf"), 0.1, seed + 500
        )
        plan = ModelingPlan(
            response="defects",
            predictors=("fp", "vaf", "dev_type"),
            codings={"vaf": shifted, "dev_type": DEV_QUANT},
            response_transform="ln",
        )
        report = cross_validate(ds, plan, 8, seed)
        improvements.append(report.averages.improvement_pct)
        wins += report.averages.improvement_pct > 0
    assert wins >= 16, f"recalibration won only {wins}/20 seeds"
    mean_improvement = sum(improvements) / len(improvements)
    assert mean_improvement >= 10.0, f"mean improvement {mean_improvement:.1f}%"
    assert time.perf_counter() - start < 120.0


def test_06_stepwise_selection_pattern():
    # correlated efforts and a noise team-size column: stepwise keeps exactly
    # {fp, vaf, dev_type} and the full fit leaves the other two nonsignificant
    # in >=40 of 50 seeds each
    start = time.perf_counter()
    names = ["fp", "efforts", "max_team_size", "dev_type", "vaf"]
    exact_selection = 0
    both_nonsignificant = 0
    for seed in range(50):
        ds = generate_synthetic(GeneratorConfig(), seed=seed)
        transformed, _ = apply_schema_transforms(ds)
        prepared = listwise_complete(transformed, ["defects"] + names)
        quants = {
            "dev_type": DEV_QUANT,
            "vaf": quantification_from_labels(ds, "vaf"),
        }
        trace = stepwise_fit(prepared, "defects", names, codings=quants)
        if set(trace.included) == {"fp", "vaf", "dev_type"}:
            exact_selection += 1
        full = ols_fit(prepared, "defects", names, codings=quants)
        if (
            full.term("efforts").p_value > 0.05
            and full.term("max_team_size").p_value > 0.05
        ):
            both_nonsignificant += 1
    assert exact_selection >= 40, f"exact selection in {exact_selection}/50 seeds"
    assert both_nonsignificant >= 40, f"nonsignificant in {both_nonsignificant}/50"
    assert time.perf_counter() - start < 60.0


def test_07_evaluation_arithmetic_and_fold_balance():
    assert mmre([100.0, 50.0, 20.0, 10.0], [120.0, 40.0, 30.0, 10.0]) == 0.225
    assert pred_at([100.0, 50.0, 20.0, 10.0], [120.0, 40.0, 30.0, 10.0], 0.25) == 0.75
    for k in (8, 4):
        plan = kfold_plan(64, k, seed=3)
        assert [len(plan.fold(i)) for i in range(k)] == [64 // k] * k


def test_08_pipeline_determinism(tmp_path):
    config = {
        "data": {"synthetic": {"n": 64, "noise_sd": 0.5}},
        "regression": {
            "response": "defects",
            "candidates": ["fp", "efforts", "max_team_size", "dev_type", "vaf"],
            "stepwise": True,
            "scaling": {"dev_type": "nominal", "vaf": "ordinal"},
        },
        "recalibration": {"enabled": True},
        "evaluation": {"k_values": [4], "train_fractions": [0.8], "repetitions": 2},
        "seed": 808,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    run_pipeline(load_config(cfg_path, out_override=str(tmp_path / "a")))
    run_pipeline(load_config(cfg_path, out_override=str(tmp_path / "b")))
    first = (tmp_path / "a" / "report.json").read_bytes()
    assert first == (tmp_path / "b" / "report.json").read_bytes()
    run_pipeline(
        load_config(cfg_path, out_override=str(tmp_path / "c"), seed_override=809)
    )
    assert first != (tmp_path / "c" / "report.json").read_bytes()
    assert tuple(kfold_plan(64, 8, 808).assignment) != tuple(
        kfold_plan(64, 8, 809).assignment
    )


def _catreg_fixtures():
    rng = np.random.default_rng(901)
    fixtures = []

    n = 80
    x = rng.normal(size=n)
    flags = ["A" if v < 0.5 else "B" for v in rng.uniform(size=n)]
    y = 0.5 + 0.9 * x + np.array([0.0 if f == "A" else 1.4 for f in flags])
    y = y + rng.normal(0, 0.3, n)
    schema = [
        VariableSpec("y", "response", "numeric"),
        VariableSpec("x", "predictor", "numeric"),
        VariableSpec("g", "predictor", "binary", categories=("A", "B")),
    ]
    binary = make_dataset(
        {"y": y.tolist(), "x": x.tolist(), "g": flags}, schema
    )
    fixtures.append(("binary", binary, ["x", "g"], {}))

    n = 90
    effects = {"a": 0.0, "b": 3.0, "c": 1.0, "d": -2.0}
    labels = list(effects)
    codes = rng.integers(0, 4, n)
    x = rng.normal(size=n)
    y = 1.0 + 0.8 * x + np.array([effects[labels[c]] for c in codes])
    y = y + rng.normal(0, 0.3, n)
    schema = [
        VariableSpec("y", "response", "numeric"),
        VariableSpec("x", "predictor", "numeric"),
        VariableSpec("g", "predictor", "categorical", categories=tuple(labels)),
    ]
    nominal = make_dataset(
        {"y": y.tolist(), "x": x.tolist(), "g": [labels[c] for c in codes]}, schema
    )
    fixtures.append(("nominal", nominal, ["x", "g"], {"g": "nominal"}))

    n = 120
    grade_effects = np.array([0.0, 1.0, 1.2, 2.5])
    grade_labels = ["none", "low", "mid", "high"]
    codes = rng.integers(0, 4, n)
    y = grade_effects[codes] + rng.normal(0, 0.6, n)
    schema = [
        VariableSpec("y", "response", "numeric"),
        VariableSpec(
            "grade", "predictor", "categorical", categories=tuple(grade_labels)
        ),
    ]
    ordinal = make_dataset(
        {"y": y.tolist(), "grade": [grade_labels[c] for c in codes]}, schema
    )
    fixtures.append(("ordinal", ordinal, ["grade"], {"grade": "ordinal"}))
    return fixtures


def test_09_optimal_scaling_properties():
    fixtures = _catreg_fixtures()

    # binary categorical: alternating least squares cannot beat (or trail)
    # the one-dummy OLS fit
    _, binary, predictors, _ = fixtures[0]
    cat = catreg_fit(binary, "y", predictors)
    dummy = ols_fit(binary, "y", predictors, {"g": {"A": 0.0, "B": 1.0}})
    assert abs(cat.model.r_squared - dummy.r_squared) < 1e-9

    # fit trace never decreases on any bundled fixture
    for name, ds, predictors, scaling in fixtures:
        result = catreg_fit(ds, "y", predictors, scaling=scaling)
        path = result.r_squared_path
        assert all(b - a >= -1e-12 for a, b in zip(path, path[1:])), name

    # declared ordinal order survives into the quantification
    _, ordinal, _, _ = fixtures[2]
    result = catreg_fit(ordinal, "y", ["grade"], scaling={"grade": "ordinal"})
    quant = result.model.codings["grade"]
    values = [quant[lab] for lab in ("none", "low", "mid", "high")]
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)


def test_10_model_tree_split_recovery():
    recovered = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 200
        x = rng.uniform(0, 10, n)
        z = rng.uniform(0, 10, n)  # pure noise competitor
        y = np.where(x < 5.0, 1.0 * x, 10.0 + 3.0 * (x - 5.0))
        y = y + rng.normal(0, 0.1, n)
        ds = make_dataset(
            {"y": y.tolist(), "x": x.tolist(), "z": z.tolist()},
            numeric_schema("y", "x", "z"),
        )
        tree = fit_model_tree(ds, "y", ["x", "z"])
        assert not tree.root.is_leaf
        if tree.root.variable == "x" and 4.5 < tree.root.threshold < 5.5:
            recovered += 1

        # the chosen root split must equal the exhaustive-scan argmax
        min_leaf = max(4, math.ceil(0.1 * n))
        name, threshold, sdr = oracles.best_split_brute_force(
            {"x": x.tolist(), "z": z.tolist()},
            {"x": "numeric", "z": "numeric"},
            y.tolist(),
            min_leaf,
        )
        assert tree.root.variable == name
        assert abs(tree.root.threshold - threshold) < 1e-12
        assert abs(tree.root.sd_reduction - sdr) < 1e-9
    assert recovered == 20, f"root split recovered in {recovered}/20 seeds"
