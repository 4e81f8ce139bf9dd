"""Metrics, fold planning, evaluation protocols, synthetic generator."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from defectcast import evaluation, numerics, recalibration, regression
from defectcast._errors import ConfigError, DataError, NumericalError
from defectcast.dataset import Dataset, VariableSpec, serialize_csv
from defectcast.evaluation import (
    DEFAULT_COEFFICIENTS,
    GeneratorConfig,
    ModelingPlan,
    cross_validate,
    generate_synthetic,
    kfold_plan,
    mmre,
    pred_at,
    quantification_from_labels,
    random_split_experiment,
    raw_counts,
    resubstitution_experiment,
)
from defectcast.numerics import RandomStream
from defectcast.regression import ols_fit
from defectcast.screening import spearman
from defectcast.transform import apply_schema_transforms

FIXTURE_ACTUALS = [100.0, 50.0, 20.0, 10.0]
FIXTURE_PREDICTIONS = [120.0, 40.0, 30.0, 10.0]


def dev_type_quantification():
    return {"New Development": 0.0, "Re-development": 0.0, "Enhancement": 1.0}


def standard_plan(ds, vaf_quant=None, **overrides):
    if vaf_quant is None:
        vaf_quant = quantification_from_labels(ds, "vaf")
    kwargs = dict(
        response="defects",
        predictors=("fp", "vaf", "dev_type"),
        codings={"vaf": vaf_quant, "dev_type": dev_type_quantification()},
        response_transform="ln",
    )
    kwargs.update(overrides)
    return ModelingPlan(**kwargs)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_mmre_fixture_hand_arithmetic(self):
        # oracle: plain-python evaluation of the definition
        mres = [
            abs(a - p) / a for a, p in zip(FIXTURE_ACTUALS, FIXTURE_PREDICTIONS)
        ]
        assert mres == [0.2, 0.2, 0.5, 0.0]
        assert mmre(FIXTURE_ACTUALS, FIXTURE_PREDICTIONS) == pytest.approx(
            sum(mres) / 4, abs=1e-15
        )
        assert mmre(FIXTURE_ACTUALS, FIXTURE_PREDICTIONS) == pytest.approx(
            0.225, abs=1e-15
        )

    def test_mmre_exact_predictions(self):
        assert mmre([3.0, 7.0], [3.0, 7.0]) == 0.0

    def test_mmre_rejects_nonpositive_actual(self):
        with pytest.raises(DataError):
            mmre([10.0, 0.0], [9.0, 1.0])
        with pytest.raises(DataError):
            mmre([10.0, -2.0], [9.0, 1.0])

    def test_mmre_rejects_empty(self):
        with pytest.raises(DataError):
            mmre([], [])

    def test_mmre_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            mmre([1.0, 2.0], [1.0])

    def test_metrics_reject_a_table(self):
        with pytest.raises(DataError, match="1-d"):
            mmre([[1.0, 2.0], [3.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DataError, match="1-d"):
            pred_at([[1.0, 2.0]], [[1.0, 1.0]], 0.25)

    def test_mmre_and_pred_at_equal_their_mean_forms(self):
        # both read the one relative-error formula in _metrics; it gives
        # the bits of np.mean over the errors and over the hits
        rng = np.random.default_rng(9)
        for n in (1, 2, 7, 64, 300, 2000):
            actuals = rng.uniform(1.0, 100.0, n)
            predictions = actuals * rng.uniform(0.2, 1.8, n)
            errors = np.abs(actuals - predictions) / actuals
            assert mmre(actuals, predictions).hex() == float(np.mean(errors)).hex()
            for m in (0.0, 0.25, 1.0):
                got = pred_at(actuals, predictions, m)
                assert got.hex() == float(np.mean(errors <= m)).hex()

    def test_pred_fixture(self):
        assert pred_at(FIXTURE_ACTUALS, FIXTURE_PREDICTIONS, 0.25) == pytest.approx(
            0.75, abs=1e-15
        )

    def test_pred_huge_threshold_is_one(self):
        assert pred_at(FIXTURE_ACTUALS, FIXTURE_PREDICTIONS, 100.0) == 1.0

    def test_pred_zero_threshold_counts_exact_hits(self):
        assert pred_at([10.0, 20.0], [11.0, 19.0], 0.0) == 0.0
        assert pred_at(FIXTURE_ACTUALS, FIXTURE_PREDICTIONS, 0.0) == 0.25

    def test_pred_rejects_negative_threshold(self):
        with pytest.raises(ConfigError):
            pred_at(FIXTURE_ACTUALS, FIXTURE_PREDICTIONS, -0.1)

    def test_pred_rejects_nan_threshold(self):
        # NaN fails every comparison, so `m < 0` let it through
        with pytest.raises(ConfigError, match="threshold must be nonnegative"):
            pred_at(FIXTURE_ACTUALS, FIXTURE_PREDICTIONS, math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["actual", "prediction"])
    def test_metrics_reject_non_finite_input(self, side, bad):
        # NaN passes the `<= 0` check on actuals, and an infinite value
        # gives an infinite or NaN relative error; both used to come back
        # as the metric
        actuals, predictions = [10.0, 20.0, 30.0], [11.0, 19.0, 30.0]
        if side == "actual":
            actuals[1] = bad
        else:
            predictions[1] = bad
        for metric in (lambda: mmre(actuals, predictions),
                       lambda: pred_at(actuals, predictions, 0.25)):
            with pytest.raises(DataError, match=f"non-finite {side} value"):
                metric()

    def test_pred_monotone_in_threshold(self):
        stream = RandomStream(11)
        actuals = np.exp(stream.split(0).normals(200)) + 1.0
        predictions = actuals * (1.0 + 0.5 * stream.split(1).normals(200))
        grid = np.linspace(0.0, 2.0, 101)
        values = [pred_at(actuals, predictions, m) for m in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


# ---------------------------------------------------------------------------
# fold planning
# ---------------------------------------------------------------------------


    def test_metrics_equal_mmre_and_pred_at(self):
        """The split kernel's numbers are ``mmre``'s and ``pred_at``'s to
        the last bit, at every test size a split can have here."""
        rng = np.random.default_rng(5)
        thresholds = (0.0, 0.1, 0.25, 0.5, 1.0, 10.0)
        for n in range(1, 301):
            actuals = rng.uniform(1.0, 100.0, n)
            predictions = actuals * rng.uniform(0.2, 1.8, n)
            predictions[::7] = actuals[::7]  # exact hits count at threshold 0
            predictions[3::11] = 1.25 * actuals[3::11]  # errors at or next to 0.25
            got = evaluation._metrics(actuals, predictions, thresholds)
            assert got.mmre.hex() == mmre(actuals, predictions).hex()
            want = {m: pred_at(actuals, predictions, m).hex() for m in thresholds}
            assert {m: v.hex() for m, v in got.pred.items()} == want
            assert got.n == n
        assert evaluation._metrics(actuals, predictions, ()).pred == {}


class TestRawCounts:
    @pytest.mark.parametrize("transform", ["ln", "ln1p"])
    def test_raw_counts_equals_element_loop(self, transform):
        rng = np.random.default_rng(21)
        values = np.concatenate(
            [rng.normal(0.0, 4.0, 5000), [0.0, -0.0, 1e-300, -1e-17, 709.0, -745.5]]
        )
        fn = {"ln": math.exp, "ln1p": math.expm1}[transform]
        loop = np.array([fn(v) for v in values.tolist()])
        got = raw_counts(values, transform)
        assert got.dtype == loop.dtype and got.shape == loop.shape
        assert (got == loop).all()
        assert got.tobytes() == loop.tobytes()  # -0.0 keeps its sign

    def test_raw_counts_edges(self):
        empty = raw_counts(np.array([]), "ln")
        assert empty.dtype == np.float64 and empty.shape == (0,)
        values = np.array([1.5, -0.0])
        assert raw_counts(values, "none") is values
        with pytest.raises(DataError, match="back-transform undefined"):
            raw_counts(np.array([]), "sqrt")
        for transform in ("ln", "ln1p"):
            # the first value that overflows is named, not the largest
            with pytest.raises(NumericalError, match=r"model-scale value 710\.0 "):
                raw_counts(np.array([1.0, 710.0, 2e6, 711.0]), transform)


class TestFoldPlan:
    def test_64_rows_8_folds_exactly_8_each(self):
        plan = kfold_plan(64, 8, seed=1)
        sizes = [len(plan.fold(i)) for i in range(8)]
        assert sizes == [8] * 8

    def test_10_rows_4_folds_sizes_3322(self):
        plan = kfold_plan(10, 4, seed=5)
        sizes = sorted(len(plan.fold(i)) for i in range(4))
        assert sizes == [2, 2, 3, 3]

    def test_folds_partition_rows(self):
        plan = kfold_plan(37, 5, seed=9)
        seen = np.concatenate([plan.fold(i) for i in range(5)])
        assert sorted(seen.tolist()) == list(range(37))
        for i in range(5):
            assert set(plan.fold(i).tolist()).isdisjoint(plan.train(i).tolist())
            union = sorted(plan.fold(i).tolist() + plan.train(i).tolist())
            assert union == list(range(37))

    def test_deterministic_per_seed(self):
        a = kfold_plan(50, 7, seed=123)
        b = kfold_plan(50, 7, seed=123)
        assert np.array_equal(a.assignment, b.assignment)
        c = kfold_plan(50, 7, seed=124)
        assert not np.array_equal(a.assignment, c.assignment)

    @pytest.mark.parametrize("n, k", [(2, 2), (23, 4), (64, 8), (500, 7)])
    def test_folds_deal_the_stable_argsort_of_the_keys(self, n, k):
        for seed in (0, 13, 20260822, 2**64 - 1):
            order = np.argsort(RandomStream(seed).uniforms(n), kind="stable")
            want = np.empty(n, dtype=np.int64)
            want[order] = np.arange(n) % k
            assert np.array_equal(kfold_plan(n, k, seed).assignment, want)

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigError):
            kfold_plan(10, 1, seed=0)
        with pytest.raises(ConfigError):
            kfold_plan(4, 5, seed=0)

    def test_rejects_out_of_range_fold_index(self):
        plan = kfold_plan(10, 2, seed=0)
        with pytest.raises(ConfigError):
            plan.fold(2)
        with pytest.raises(ConfigError):
            plan.train(-1)


class TestRandomSplitRows:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        sizes=st.integers(2, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
        repetitions=st.integers(1, 12),
    )
    def test_draw_is_a_sorted_subset_and_its_complement(self, seed, sizes, repetitions):
        """Each repetition trains on m distinct rows of [0, n) in increasing
        order and tests on the others, also in order; the rows are those of
        the m smallest of its child stream's n keys, the same for the same
        seed, and a repetition's rows do not depend on how many there are."""
        n, m = sizes
        trains, tests = RandomStream(seed).split_subsets(repetitions, n, m)
        assert trains.shape == (repetitions, m) and tests.shape == (repetitions, n - m)
        for r, (train, test) in enumerate(zip(trains, tests)):
            assert (np.diff(train) > 0).all() and (np.diff(test) > 0).all()
            assert 0 <= train[0] and train[-1] < n
            assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(n))
            want_train, want_test = oracles.split_rows_by_sorted_keys(seed, r, n, m)
            assert np.array_equal(train, want_train) and np.array_equal(test, want_test)
        again = RandomStream(seed).split_subsets(repetitions, n, m)
        assert all(np.array_equal(a, b) for a, b in zip(again, (trains, tests)))
        more = RandomStream(seed).split_subsets(repetitions + 5, n, m)
        assert np.array_equal(more[0][:repetitions], trains)
        assert np.array_equal(more[1][:repetitions], tests)
        first = RandomStream(seed).split_subsets(1, n, m)
        assert np.array_equal(first[0][0], trains[0])

    def test_tied_keys_still_give_m_rows(self, monkeypatch):
        # every key equal: argpartition still cuts exactly m rows
        monkeypatch.setattr(
            numerics, "_uniforms", lambda seed, start, n: np.full((len(seed), n), 0.5)
        )
        trains, tests = RandomStream(3).split_subsets(4, 10, 6)
        assert trains.shape == (4, 6) and tests.shape == (4, 4)
        for train, test in zip(trains, tests):
            assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(10))


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_noise_free_rows_satisfy_reference_model(self):
        # oracle: the generating formula evaluated from raw columns only
        cfg = GeneratorConfig(n=64, noise_sd=0.0)
        ds = generate_synthetic(cfg, seed=42)
        c = cfg.coefficients
        ln_defects = np.log(ds.columns["defects"])
        ln_fp = np.log(ds.columns["fp"])
        vaf = np.array([float(label) for label in ds.labels("vaf")])
        enh = np.array(
            [1.0 if label == "Enhancement" else 0.0 for label in ds.labels("dev_type")]
        )
        expected = c.intercept + c.fp_ln * ln_fp + c.vaf * vaf + c.enhancement * enh
        assert np.max(np.abs(ln_defects - expected)) < 1e-12

    def test_large_sample_ols_recovers_coefficients(self):
        # n sized so +-0.05 is ~4 standard errors even for the intercept,
        # whose estimate extrapolates ~5 design sds below the data
        cfg = GeneratorConfig(n=20000, noise_sd=0.5)
        ds = generate_synthetic(cfg, seed=7)
        data, _ = apply_schema_transforms(ds)
        quants = {
            "vaf": quantification_from_labels(ds, "vaf"),
            "dev_type": dev_type_quantification(),
        }
        model = ols_fit(
            data, "defects", ["fp", "vaf", "dev_type"], quants, response_transform="ln"
        )
        c = cfg.coefficients
        assert model.intercept == pytest.approx(c.intercept, abs=0.05)
        assert model.term("fp").coefficient == pytest.approx(c.fp_ln, abs=0.05)
        assert model.term("vaf").coefficient == pytest.approx(c.vaf, abs=0.05)
        assert model.term("dev_type").coefficient == pytest.approx(
            c.enhancement, abs=0.05
        )

    def test_achieved_effort_correlation_near_target(self):
        cfg = GeneratorConfig(n=1000)
        ds = generate_synthetic(cfg, seed=3)
        achieved = spearman(ds.columns["fp"], ds.columns["efforts"]).rho
        assert abs(achieved - cfg.effort_rank_target) < 0.1

    def test_team_correlation_weaker_than_effort(self):
        ds = generate_synthetic(GeneratorConfig(n=1000), seed=3)
        fp = ds.columns["fp"]
        assert abs(spearman(fp, ds.columns["max_team_size"]).rho) < abs(
            spearman(fp, ds.columns["efforts"]).rho
        )

    def test_deterministic_and_seed_sensitive(self):
        cfg = GeneratorConfig(n=40)
        assert generate_synthetic(cfg, seed=9) == generate_synthetic(cfg, seed=9)
        assert generate_synthetic(cfg, seed=9) != generate_synthetic(cfg, seed=10)

    @pytest.mark.parametrize("n", [64, 2000])
    @pytest.mark.parametrize("seed", [20260822, 31415926])
    @pytest.mark.parametrize(
        "settings",
        [{}, {"enhancement_label": "Re-development", "vaf_levels": (1.2, 0.9)}],
    )
    def test_matches_row_by_row_generator(self, n, seed, settings):
        cfg = GeneratorConfig(n=n, **settings)
        ds = generate_synthetic(cfg, seed)
        expected = oracles.generate_synthetic_by_rows(cfg, seed)
        assert ds == expected
        assert {k: v.dtype for k, v in ds.columns.items()} == {
            k: v.dtype for k, v in expected.columns.items()
        }
        written = []
        for table in (ds, expected):
            buffer = io.StringIO()
            serialize_csv(table, buffer)
            written.append(buffer.getvalue())
        assert written[0] == written[1]

    def test_rating_columns_reproduce_vaf_labels(self):
        ds = generate_synthetic(GeneratorConfig(n=50), seed=21)
        ratings = np.column_stack(
            [ds.columns[f"gsc_{j + 1:02d}"] for j in range(14)]
        )
        assert ratings.min() >= 0 and ratings.max() <= 5
        assert np.array_equal(ratings, ratings.astype(int))
        labels = ds.labels("vaf")
        for i in range(ds.row_count):
            total = int(ratings[i].sum())
            assert (65 + total) / 100.0 == float(labels[i])

    def test_schema_shape(self):
        ds = generate_synthetic(GeneratorConfig(n=12), seed=2)
        roles = {s.name: s.role for s in ds.schema}
        assert roles["defects"] == "response"
        assert roles["fp"] == roles["dev_type"] == "predictor"
        assert all(roles[f"gsc_{j + 1:02d}"] == "excluded" for j in range(14))
        assert ds.spec("defects").transform == "ln"
        assert ds.spec("dev_type").categories == (
            "New Development",
            "Re-development",
            "Enhancement",
        )
        team = ds.columns["max_team_size"]
        assert team.min() >= 1.0
        assert np.array_equal(team, np.rint(team))

    def test_rejects_invalid_config(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(n=0)
        with pytest.raises(ConfigError):
            GeneratorConfig(noise_sd=-0.1)
        with pytest.raises(ConfigError):
            GeneratorConfig(vaf_levels=(0.655,))
        with pytest.raises(ConfigError):
            GeneratorConfig(vaf_levels=(0.64,))
        with pytest.raises(ConfigError):
            GeneratorConfig(dev_type_weights=(0.5, 0.5))
        with pytest.raises(ConfigError):
            GeneratorConfig(enhancement_label="enhancement")
        with pytest.raises(ConfigError):
            GeneratorConfig(effort_rank_target=1.0)

    def test_default_coefficients_are_the_reference_values(self):
        c = DEFAULT_COEFFICIENTS
        assert (c.intercept, c.fp_ln, c.vaf, c.enhancement) == (
            -5.939,
            0.704,
            6.011,
            -1.480,
        )


class TestQuantificationHelpers:
    def test_labels_to_values(self):
        ds = generate_synthetic(GeneratorConfig(n=30), seed=4)
        quant = quantification_from_labels(ds, "vaf")
        for label, value in quant.items():
            assert value == float(label)

    def test_rejects_numeric_variable(self):
        ds = generate_synthetic(GeneratorConfig(n=30), seed=4)
        with pytest.raises(DataError):
            quantification_from_labels(ds, "fp")

    def test_rejects_non_numeric_labels(self):
        ds = generate_synthetic(GeneratorConfig(n=30), seed=4)
        with pytest.raises(DataError):
            quantification_from_labels(ds, "dev_type")

    def test_perturbation_bounded_and_deterministic(self):
        ds = generate_synthetic(GeneratorConfig(n=30), seed=4)
        quant = quantification_from_labels(ds, "vaf")
        shifted = oracles.perturb_quantification(quant, 0.2, seed=77)
        again = oracles.perturb_quantification(quant, 0.2, seed=77)
        assert shifted == again
        for label in quant:
            assert abs(shifted[label] - quant[label]) <= 0.2
        assert shifted != quant

    def test_zero_shift_is_identity(self):
        ds = generate_synthetic(GeneratorConfig(n=30), seed=4)
        quant = quantification_from_labels(ds, "vaf")
        assert oracles.perturb_quantification(quant, 0.0, seed=1) == quant

    def test_rejects_negative_shift(self):
        ds = generate_synthetic(GeneratorConfig(n=30), seed=4)
        quant = quantification_from_labels(ds, "vaf")
        with pytest.raises(ConfigError):
            oracles.perturb_quantification(quant, -0.1, seed=1)


# ---------------------------------------------------------------------------
# cross-validation protocol
# ---------------------------------------------------------------------------


class TestCrossValidate:
    def test_negative_threshold_rejected_whatever_the_test_size(self):
        # the folds of 64 rows are far below min_test_for_pred, so Pred is
        # never scored; the threshold used to pass unchecked
        ds = generate_synthetic(GeneratorConfig(n=64), seed=11)
        with pytest.raises(ConfigError, match="threshold must be nonnegative"):
            cross_validate(
                ds,
                standard_plan(ds, pred_thresholds=(-0.5,), min_test_for_pred=100),
                k=4,
                seed=5,
            )

    def test_noise_free_models_agree_and_are_near_exact(self):
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.0), seed=11)
        report = cross_validate(ds, standard_plan(ds), k=8, seed=5)
        for row in report.rows:
            assert row.baseline_mmre < 1e-8
            assert row.recalibrated_mmre == pytest.approx(
                row.baseline_mmre, abs=1e-12
            )

    def test_perturbed_quantification_recalibration_improves(self):
        wins = 0
        improvements = []
        for seed in range(20):
            ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=seed)
            vq = oracles.perturb_quantification(
                quantification_from_labels(ds, "vaf"), 0.25, seed + 1000
            )
            report = cross_validate(ds, standard_plan(ds, vaf_quant=vq), k=8, seed=seed + 7)
            improvements.append(report.averages.improvement_pct)
            if report.averages.improvement_pct > 0:
                wins += 1
        assert wins >= 16
        assert sum(improvements) / len(improvements) > 10.0

    def test_averages_row_is_arithmetic_mean(self):
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        report = cross_validate(ds, standard_plan(ds), k=4, seed=2)
        rows = report.rows
        k = len(rows)
        assert report.averages.baseline_mmre == pytest.approx(
            sum(r.baseline_mmre for r in rows) / k, abs=1e-12
        )
        assert report.averages.recalibrated_mmre == pytest.approx(
            sum(r.recalibrated_mmre for r in rows) / k, abs=1e-12
        )
        assert report.averages.improvement_pct == pytest.approx(
            sum(r.improvement_pct for r in rows) / k, abs=1e-12
        )
        for m in (0.25,):
            assert report.averages.baseline_pred[m] == pytest.approx(
                sum(r.baseline_pred[m] for r in rows) / k, abs=1e-12
            )

    def test_improvement_recomputable_from_mmre_columns(self):
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        report = cross_validate(ds, standard_plan(ds), k=8, seed=2)
        for row in report.rows:
            expected = (
                (row.baseline_mmre - row.recalibrated_mmre) / row.baseline_mmre * 100.0
            )
            assert row.improvement_pct == pytest.approx(expected, abs=1e-12)

    def test_pred_gated_on_heldout_size(self):
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        plan = standard_plan(ds)
        small_folds = cross_validate(ds, plan, k=8, seed=2)  # held-out 8 < 10
        assert all(r.baseline_pred is None for r in small_folds.rows)
        assert small_folds.averages.baseline_pred is None
        big_folds = cross_validate(ds, plan, k=4, seed=2)  # held-out 16
        assert all(r.baseline_pred is not None for r in big_folds.rows)
        assert 0.25 in big_folds.averages.recalibrated_pred

    def test_heldout_rows_cover_dataset_once(self):
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        report = cross_validate(ds, standard_plan(ds), k=8, seed=2)
        assert sum(r.n_test for r in report.rows) == 64
        assert report.averages.n_test == 64

    def test_byte_identical_reports(self):
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        plan = standard_plan(ds)
        a = cross_validate(ds, plan, k=8, seed=2)
        b = cross_validate(ds, plan, k=8, seed=2)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_fold_too_small_reports_which_fold(self):
        ds = generate_synthetic(GeneratorConfig(n=6, noise_sd=0.5), seed=1)
        with pytest.raises(DataError, match=r"fold 1:"):
            cross_validate(ds, standard_plan(ds), k=3, seed=0)

    def test_fixed_regression_mode_runs_and_is_labeled(self):
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        fixed = cross_validate(
            ds, standard_plan(ds, refit_regression=False), k=8, seed=2
        )
        refit = cross_validate(ds, standard_plan(ds), k=8, seed=2)
        assert fixed.parameters["refit_regression"] is False
        assert refit.parameters["refit_regression"] is True
        assert fixed.to_dict() != refit.to_dict()

    def test_transform_mismatch_rejected(self):
        ds = generate_synthetic(GeneratorConfig(n=64), seed=1)
        with pytest.raises(ConfigError, match="transform"):
            cross_validate(ds, standard_plan(ds, response_transform="none"), k=4, seed=0)

    def test_pretransformed_data_equivalent_to_raw(self):
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        plan = standard_plan(ds)
        pre, _ = apply_schema_transforms(ds)
        assert cross_validate(pre, plan, k=8, seed=2).to_dict() == cross_validate(
            ds, plan, k=8, seed=2
        ).to_dict()


# ---------------------------------------------------------------------------
# random splits and resubstitution
# ---------------------------------------------------------------------------


class TestRandomSplit:
    def test_train_size_rounds_half_up(self):
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        report = random_split_experiment(
            ds, standard_plan(ds), train_fraction=0.8, repetitions=2, seed=1
        )
        # 0.8 * 64 = 51.2 -> train 51, test 13
        assert report.parameters["train_size"] == 51
        assert all(r.n_test == 13 for r in report.rows)

    def test_three_fractions_ten_repetitions(self):
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        plan = standard_plan(ds)
        for fraction in (0.6, 0.7, 0.8):
            report = random_split_experiment(
                ds, plan, train_fraction=fraction, repetitions=10, seed=4
            )
            assert report.protocol == "random_split"
            assert len(report.rows) == 10
            expected_test = 64 - math.floor(fraction * 64 + 0.5)
            assert all(r.n_test == expected_test for r in report.rows)

    def test_same_seed_identical_reports(self):
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        plan = standard_plan(ds)
        a = random_split_experiment(ds, plan, 0.7, repetitions=3, seed=9)
        b = random_split_experiment(ds, plan, 0.7, repetitions=3, seed=9)
        assert a.to_dict() == b.to_dict()
        c = random_split_experiment(ds, plan, 0.7, repetitions=3, seed=10)
        assert a.to_dict() != c.to_dict()

    def test_rejects_bad_parameters(self):
        ds = generate_synthetic(GeneratorConfig(n=20), seed=1)
        plan = standard_plan(ds)
        with pytest.raises(ConfigError):
            random_split_experiment(ds, plan, 0.0, repetitions=2, seed=1)
        with pytest.raises(ConfigError):
            random_split_experiment(ds, plan, 1.0, repetitions=2, seed=1)
        with pytest.raises(ConfigError):
            random_split_experiment(ds, plan, 0.5, repetitions=0, seed=1)

    @pytest.mark.parametrize("repetitions", [5, 10])
    def test_encodes_once_and_takes_no_rows_per_repetition(self, monkeypatch, repetitions):
        """The table is encoded once per experiment, and the repetitions
        gather rows of its arrays: no ``Dataset.take``, and no firing
        strengths at all, as a unit is a lookup on anchor codes."""
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        plan = standard_plan(ds)
        calls = {"encode": 0, "take": 0, "firing_strengths": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(evaluation, "_encode", counted("encode", evaluation._encode))
        monkeypatch.setattr(Dataset, "take", counted("take", Dataset.take))
        monkeypatch.setattr(
            recalibration,
            "firing_strengths",
            counted("firing_strengths", recalibration.firing_strengths),
        )
        random_split_experiment(ds, plan, 0.8, repetitions=repetitions, seed=4)
        assert calls == {"encode": 1, "take": 0, "firing_strengths": 0}

    def test_unknown_plan_variable_named(self):
        ds = generate_synthetic(GeneratorConfig(n=20), seed=1)
        plan = standard_plan(ds, predictors=("fp", "nope"))
        with pytest.raises(DataError, match="unknown variable 'nope'"):
            random_split_experiment(ds, plan, 0.5, repetitions=1, seed=1)

    def test_degenerate_split_rejected(self):
        ds = generate_synthetic(GeneratorConfig(n=10), seed=1)
        with pytest.raises(DataError):
            random_split_experiment(ds, standard_plan(ds), 0.99, repetitions=1, seed=1)


class TestResubstitution:
    def test_single_labeled_row_over_all_data(self):
        ds = generate_synthetic(GeneratorConfig(n=40, noise_sd=0.5), seed=17)
        report = resubstitution_experiment(ds, standard_plan(ds))
        assert report.protocol == "resubstitution"
        assert len(report.rows) == 1
        assert report.rows[0].label == "all data"
        assert report.rows[0].n_test == 40
        assert report.rows[0].baseline_pred is not None

    def test_noise_free_near_zero_error(self):
        ds = generate_synthetic(GeneratorConfig(n=40, noise_sd=0.0), seed=17)
        report = resubstitution_experiment(ds, standard_plan(ds))
        assert report.rows[0].baseline_mmre < 1e-8
        assert report.rows[0].recalibrated_mmre < 1e-8


class TestReportRendering:
    def test_dict_round_trips_through_json(self):
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        report = cross_validate(ds, standard_plan(ds), k=4, seed=2)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["protocol"] == "cross_validation"
        assert len(payload["rows"]) == 4
        assert payload["rows"][0]["baseline_pred"]["0.25"] == pytest.approx(
            report.rows[0].baseline_pred[0.25]
        )


class TestPlanValidation:
    def test_rejects_empty_predictors(self):
        with pytest.raises(ConfigError):
            ModelingPlan(response="y", predictors=())

    def test_rejects_bad_pred_minimum(self):
        with pytest.raises(ConfigError):
            ModelingPlan(response="y", predictors=("x",), min_test_for_pred=0)

    def test_rejects_nan_threshold(self):
        with pytest.raises(ConfigError, match="threshold must be nonnegative, got nan"):
            ModelingPlan(response="y", predictors=("x",), pred_thresholds=(0.25, math.nan))


class TestColumnarScoring:
    def test_label_decoding_does_not_grow_with_rows(self, monkeypatch):
        # scoring one row at a time decoded a whole column per row (O(n^2))
        calls = []
        original = Dataset.labels

        def counting(self, name):
            calls.append(name)
            return original(self, name)

        monkeypatch.setattr(Dataset, "labels", counting)
        per_size = []
        for n in (64, 500):
            ds = generate_synthetic(GeneratorConfig(n=n), 7)
            del calls[:]
            cross_validate(ds, standard_plan(ds), 4, 11)
            per_size.append(len(calls))
        assert per_size[0] == per_size[1]


# ---------------------------------------------------------------------------
# the encoded protocols against the per-split path
# ---------------------------------------------------------------------------


QUANTIFICATIONS_OF_C = (
    {"lo": 1.0, "mid": 2.0, "hi": 3.0},
    {"lo": 0.0, "mid": 1.0, "hi": 10.0},  # a dead zone between the units' outer anchors
    {"lo": -0.4, "mid": 0.0, "hi": 0.0},  # two labels on one anchor
)


def mixed_dataset(n, seed, transform, b_yes=None, y=None):
    """A numeric ``x``, a binary ``b`` and a three-level categorical ``c``
    driving a positive response ``y`` that declares ``transform``."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    b = rng.integers(0, 2, n) if b_yes is None else np.isin(np.arange(n), b_yes)
    c = rng.integers(0, 3, n)
    eta = 1.5 + 0.5 * x - 0.4 * b + 0.3 * c + 0.3 * rng.normal(0.0, 1.0, n)
    if y is None:
        y = {"ln": np.exp(eta), "ln1p": np.expm1(np.abs(eta) + 0.1)}.get(
            transform, np.abs(eta) + 0.5
        )
    schema = [
        VariableSpec("y", "response", "numeric", transform=transform),
        VariableSpec("x", "predictor", "numeric"),
        VariableSpec("b", "predictor", "binary", categories=("no", "yes")),
        VariableSpec("c", "predictor", "categorical", categories=("lo", "mid", "hi")),
    ]
    columns = {
        "y": np.asarray(y, dtype=float),
        "x": x,
        "b": b.astype(np.int32),
        "c": c.astype(np.int32),
    }
    return Dataset(schema, columns)


def outcome(protocol, *args):
    """A report's dict, or the type and message of the error it raised."""
    try:
        return protocol(*args).to_dict()
    except (ConfigError, DataError, NumericalError) as err:
        return type(err).__name__, str(err)


def mixed_plan(predictors, transform, c_values=QUANTIFICATIONS_OF_C[0], quantify_b=False, **kw):
    codings = {"c": c_values}
    if quantify_b:
        codings["b"] = {"no": -1.0, "yes": 2.5}
    return ModelingPlan(
        response="y",
        predictors=tuple(predictors),
        codings={name: c for name, c in codings.items() if name in predictors},
        response_transform=transform,
        **kw,
    )


class TestEncodedEvaluationMatchesPerSplitPath:
    """Every protocol encodes its table once and gathers rows per split; the
    per-split path in ``oracles`` takes a table per split, refits with
    ``ols_fit`` and trains with ``train_recalibration``.  In this path a
    categorical value always sits on its unit's anchor, so the dead zone
    of ``QUANTIFICATIONS_OF_C[1]`` holds no rows; the firing-strength bit
    test in test_recalibration covers values inside it."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(12, 40),
        data_seed=st.integers(0, 2**16),
        transform=st.sampled_from(["ln", "ln1p", "none"]),
        predictors=st.permutations(["x", "b", "c"]).flatmap(
            lambda order: st.integers(1, 3).map(lambda m: order[:m])
        ),
        c_values=st.sampled_from(QUANTIFICATIONS_OF_C),
        quantify_b=st.booleans(),
        refit=st.booleans(),
        recalibrate=st.booleans(),
        min_test=st.sampled_from([1, 5, 100]),
        k=st.integers(2, 5),
        train_fraction=st.sampled_from([0.5, 0.7, 0.9]),
        repetitions=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    def test_reports_equal_per_split_path(
        self, n, data_seed, transform, predictors, c_values, quantify_b, refit,
        recalibrate, min_test, k, train_fraction, repetitions, seed,
    ):
        ds = mixed_dataset(n, data_seed, transform)
        plan = mixed_plan(
            predictors, transform, c_values, quantify_b,
            refit_regression=refit, recalibrate=recalibrate,
            pred_thresholds=(0.25, 0.5), min_test_for_pred=min_test,
        )
        assert outcome(cross_validate, ds, plan, k, seed) == outcome(
            oracles.cross_validate_by_split, ds, plan, k, seed
        )
        split_args = (ds, plan, train_fraction, repetitions, seed)
        assert outcome(random_split_experiment, *split_args) == outcome(
            oracles.random_split_by_split, *split_args
        )
        assert outcome(resubstitution_experiment, ds, plan) == outcome(
            oracles.resubstitution_by_split, ds, plan
        )

    def test_collinear_repetition_named(self):
        n, fraction, seed = 24, 0.75, 3
        _, test_rows = oracles.split_rows_by_sorted_keys(seed, 0, n, math.floor(fraction * n + 0.5))
        # 'b' is 'yes' only on repetition 1's test rows, so its training
        # column is constant and collinear with the intercept
        ds = mixed_dataset(n, 1, "ln", b_yes=test_rows[:2])
        for refit in (True, False):
            plan = mixed_plan(("x", "b"), "ln", refit_regression=refit)
            args = (ds, plan, fraction, 3, seed)
            got = outcome(random_split_experiment, *args)
            assert got == outcome(oracles.random_split_by_split, *args)
            if refit:
                assert got == (
                    "DataError",
                    "repetition 1: collinear design: 'b' is linearly dependent "
                    "on the other terms",
                )

    def test_collinear_fold_named(self):
        n, k, seed = 24, 4, 8
        fold_two = kfold_plan(n, k, seed).fold(1)
        ds = mixed_dataset(n, 2, "ln", b_yes=fold_two[:3])
        plan = mixed_plan(("b", "x"), "ln")
        got = outcome(cross_validate, ds, plan, k, seed)
        assert got == outcome(oracles.cross_validate_by_split, ds, plan, k, seed)
        assert got == (
            "DataError",
            "fold 2: collinear design: 'b' is linearly dependent on the other terms",
        )

    @pytest.mark.parametrize(
        "n, y, transform, expected",
        [
            (20, np.ones(20), "ln",
             "fold 1: response 'y' has zero variance on the fit rows"),
            (6, None, "ln",
             "fold 1: OLS needs more than 4 complete rows for 3 predictors, got 4"),
            (20, np.r_[np.full(10, 3.0), 0.0, np.arange(1.0, 10.0)], "none",
             "nonpositive actual value; relative error is undefined"),
        ],
    )
    def test_error_messages_kept(self, n, y, transform, expected):
        ds = mixed_dataset(n, 4, transform, y=y)
        plan = mixed_plan(("x", "b", "c"), transform)
        got = outcome(cross_validate, ds, plan, 3, 0)
        assert got == outcome(oracles.cross_validate_by_split, ds, plan, 3, 0)
        assert got == ("DataError", expected)


# ---------------------------------------------------------------------------
# the block loop
# ---------------------------------------------------------------------------


def _recording_blocks(monkeypatch):
    """Record the number of splits in each block ``_experiment`` runs."""
    sizes = []
    original = evaluation._block_rows

    def wrapper(block, *args):
        sizes.append(len(block))
        return original(block, *args)

    monkeypatch.setattr(evaluation, "_block_rows", wrapper)
    return sizes


class TestBlockLoop:
    """Runs of equal-sized splits are scored as stacked blocks; each case
    equals the per-split path in ``oracles``."""

    def test_kfold_with_two_fold_sizes(self, monkeypatch):
        # 23 rows in 4 folds: test folds of 6, 6, 6 and 5 rows
        n, k, seed = 23, 4, 5
        ds = mixed_dataset(n, 3, "ln")
        sizes = _recording_blocks(monkeypatch)
        for refit in (True, False):
            plan = mixed_plan(("x", "b", "c"), "ln", refit_regression=refit)
            got = outcome(cross_validate, ds, plan, k, seed)
            assert isinstance(got, dict)
            assert got == outcome(oracles.cross_validate_by_split, ds, plan, k, seed)
        assert sizes == [3, 1, 3, 1]

    def test_more_splits_than_one_block_holds(self, monkeypatch):
        ds = mixed_dataset(30, 6, "ln")
        # 21 training rows of an intercept, x and c: three splits a block
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", 3 * 21 * 3)
        sizes = _recording_blocks(monkeypatch)
        for recalibrate in (True, False):
            plan = mixed_plan(("x", "c"), "ln", recalibrate=recalibrate)
            args = (ds, plan, 0.7, 10, 11)
            got = outcome(random_split_experiment, *args)
            assert isinstance(got, dict)
            assert got == outcome(oracles.random_split_by_split, *args)
        assert sizes == [3, 3, 3, 1] * 2

    @pytest.mark.parametrize("overflowing, collinear", [(0, 1), (1, 0)])
    def test_first_faulty_split_of_a_block_raises(self, monkeypatch, overflowing, collinear):
        """One repetition's count overflows and the other's fit is
        collinear, in one block: the earlier repetition's fault is raised."""
        n, fraction, seed = 24, 0.75, 3
        tests = [oracles.split_rows_by_sorted_keys(seed, r, n, 18)[1].tolist() for r in range(2)]
        # 'b' is 'yes' only on rows that the collinear repetition tests and
        # the other trains on, so only the collinear one trains on a
        # constant 'b'
        yes = [i for i in tests[collinear] if i not in tests[overflowing]][:2]
        ds = mixed_dataset(n, 1, "ln", b_yes=yes)
        x = ds.columns["x"].copy()
        x[tests[overflowing][0]] = 1e6  # a prediction of about 5e5 on the ln scale
        ds = Dataset(ds.schema, {**ds.columns, "x": x})
        sizes = _recording_blocks(monkeypatch)
        plan = mixed_plan(("x", "b", "c"), "ln")
        args = (ds, plan, fraction, 2, seed)
        got = outcome(random_split_experiment, *args)
        assert sizes == [2]
        assert got == outcome(oracles.random_split_by_split, *args)
        if overflowing == 0:
            assert got[0] == "NumericalError"
            assert got[1].startswith("back-transform overflows: model-scale value ")
        else:
            assert got == (
                "DataError",
                "repetition 1: collinear design: 'b' is linearly dependent on the other terms",
            )

    def test_counts_and_solves_do_not_grow_per_split(self, monkeypatch):
        """Counts are made, scores summed and each least-squares solver
        called once per block, while every split still gets its own
        factorizations: one ``dgeqp3`` for its OLS fit and two for its
        minimum-norm consequent solve."""
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        plan = standard_plan(ds)
        calls = dict.fromkeys(
            ("raw_counts", "solve_least_squares", "min_norm_least_squares", "linear_score",
             "dgeqp3"),
            0,
        )

        def counted(module, name, key=None):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                # a workspace query (lwork=-1) is no factorization
                if kwargs.get("lwork") != -1:
                    calls[key or name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(evaluation, "raw_counts")
        counted(regression, "solve_least_squares")
        counted(recalibration, "min_norm_least_squares")
        # every binding of regression.linear_score that the loop reaches
        counted(evaluation, "linear_score")
        counted(recalibration, "linear_score")
        counted(numerics, "_dgeqp3", "dgeqp3")
        sizes = _recording_blocks(monkeypatch)
        per_repetitions = {}
        for repetitions in (5, 50):
            calls.update(dict.fromkeys(calls, 0))
            sizes.clear()
            random_split_experiment(ds, plan, 0.8, repetitions=repetitions, seed=4)
            per_repetitions[repetitions] = dict(calls, blocks=len(sizes))
        few, many = per_repetitions[5], per_repetitions[50]
        assert few["raw_counts"] == many["raw_counts"]
        assert few["linear_score"] == many["linear_score"] > 0
        # 51 training rows of 4 columns: all 50 repetitions fit one block
        assert few["blocks"] == many["blocks"] == 1
        for solver in ("solve_least_squares", "min_norm_least_squares"):
            assert few[solver] == many[solver] == 1
        assert few["dgeqp3"] == 3 * 5
        assert many["dgeqp3"] == 3 * 50
