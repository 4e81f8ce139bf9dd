"""Metrics, fold planning, evaluation protocols, synthetic generator."""

import json
import math

import numpy as np
import pytest

from defectcast._errors import ConfigError, DataError
from defectcast.dataset import Dataset
from defectcast.evaluation import (
    DEFAULT_COEFFICIENTS,
    GeneratorConfig,
    ModelingPlan,
    cross_validate,
    generate_synthetic,
    kfold_plan,
    mmre,
    perturb_quantification,
    pred_at,
    quantification_from_labels,
    random_split_experiment,
    resubstitution_experiment,
)
from defectcast.numerics import RandomStream
from defectcast.regression import Quantification, ols_fit
from defectcast.screening import spearman
from defectcast.transform import apply_schema_transforms

FIXTURE_ACTUALS = [100.0, 50.0, 20.0, 10.0]
FIXTURE_PREDICTIONS = [120.0, 40.0, 30.0, 10.0]


def dev_type_quantification():
    return Quantification(
        "dev_type",
        {"New Development": 0.0, "Re-development": 0.0, "Enhancement": 1.0},
        source="initial",
    )


def standard_plan(ds, vaf_quant=None, **overrides):
    if vaf_quant is None:
        vaf_quant = quantification_from_labels(ds, "vaf")
    kwargs = dict(
        response="defects",
        predictors=("fp", "vaf", "dev_type"),
        quantifications=(vaf_quant, dev_type_quantification()),
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
        achieved = ds.metadata["generator"]["achieved_spearman_fp_efforts"]
        assert abs(achieved - cfg.effort_rank_target) < 0.1
        # metadata figure must match a recomputation from the columns
        recomputed = spearman(ds.columns["fp"], ds.columns["efforts"]).rho
        assert achieved == pytest.approx(recomputed, abs=1e-12)

    def test_team_correlation_weaker_than_effort(self):
        ds = generate_synthetic(GeneratorConfig(n=1000), seed=3)
        meta = ds.metadata["generator"]
        assert abs(meta["achieved_spearman_fp_team"]) < abs(
            meta["achieved_spearman_fp_efforts"]
        )

    def test_deterministic_and_seed_sensitive(self):
        cfg = GeneratorConfig(n=40)
        assert generate_synthetic(cfg, seed=9) == generate_synthetic(cfg, seed=9)
        assert generate_synthetic(cfg, seed=9) != generate_synthetic(cfg, seed=10)

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
        for label, value in quant.mapping.items():
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
        shifted = perturb_quantification(quant, 0.2, seed=77)
        again = perturb_quantification(quant, 0.2, seed=77)
        assert shifted.mapping == again.mapping
        for label in quant.mapping:
            assert abs(shifted.mapping[label] - quant.mapping[label]) <= 0.2
        assert shifted.mapping != quant.mapping

    def test_zero_shift_is_identity(self):
        ds = generate_synthetic(GeneratorConfig(n=30), seed=4)
        quant = quantification_from_labels(ds, "vaf")
        assert perturb_quantification(quant, 0.0, seed=1).mapping == quant.mapping

    def test_rejects_negative_shift(self):
        ds = generate_synthetic(GeneratorConfig(n=30), seed=4)
        quant = quantification_from_labels(ds, "vaf")
        with pytest.raises(ConfigError):
            perturb_quantification(quant, -0.1, seed=1)


# ---------------------------------------------------------------------------
# cross-validation protocol
# ---------------------------------------------------------------------------


class TestCrossValidate:
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
            vq = perturb_quantification(
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
        assert a.to_text() == b.to_text()

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
    def test_two_narrow_row_subsets_per_repetition(self, monkeypatch, repetitions):
        """Each repetition copies rows twice (train and test), and only the
        response and the plan's predictors, never the whole table."""
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        plan = standard_plan(ds)
        widths = []
        take = Dataset.take

        def counting_take(self, indices):
            widths.append(len(self.schema))
            return take(self, indices)

        monkeypatch.setattr(Dataset, "take", counting_take)
        random_split_experiment(ds, plan, 0.8, repetitions=repetitions, seed=4)
        assert widths == [4] * (2 * repetitions)

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
    def test_text_table_contains_all_rows(self):
        ds = generate_synthetic(GeneratorConfig(n=64, noise_sd=0.5), seed=13)
        report = cross_validate(ds, standard_plan(ds), k=4, seed=2)
        text = report.to_text()
        for row in report.rows:
            assert row.label in text
        assert "average" in text
        assert "improvement %" in text
        assert text.endswith("\n")

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
