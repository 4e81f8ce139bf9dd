"""Config loading, stage orchestration, CLI exit codes, report invariants."""

import dataclasses
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectcast import pipeline, recalibration, regression
from defectcast._errors import ConfigError, DataError, DefectcastError, NumericalError
from defectcast.cli import main
from defectcast.dataset import VariableSpec
from defectcast.evaluation import (
    SYNTHETIC_COLUMNS,
    GeneratorConfig,
    ModelingPlan,
    generate_synthetic,
)
from defectcast.modeltree import fit_model_tree
from defectcast.pipeline import (
    STAGE_SECTIONS,
    STAGES,
    _atomic_write,
    _write_json,
    load_config,
    render_summary,
    run_pipeline,
    run_stage,
)
from defectcast.regression import stepwise_fit
from defectcast.numerics import t_cdf
from defectcast.screening import group_table, screen_dataset, spearman

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
REPO_FIXTURE = FIXTURES / "synthetic_config.json"


def small_config(**overrides) -> dict:
    config = {
        "data": {"synthetic": {"n": 64, "noise_sd": 0.5}},
        "screening": {"alpha": 0.05},
        "regression": {
            "response": "defects",
            "candidates": ["fp", "efforts", "max_team_size", "dev_type", "vaf"],
            "stepwise": True,
            "scaling": {"dev_type": "nominal", "vaf": "ordinal"},
        },
        "recalibration": {"enabled": True},
        "evaluation": {
            "k_values": [4],
            "train_fractions": [0.8],
            "repetitions": 2,
        },
        "seed": 414243,
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def load_small(tmp_path, out="out", **overrides):
    path = write_config(tmp_path, small_config(**overrides))
    return load_config(path, out_override=str(tmp_path / out))


CSV_TEXT = (
    "defects,fp,dev_type\n"
    + "\n".join(
        f"{d},{f},{t}"
        for d, f, t in [
            (3.0, 100, "Enhancement"),
            (2.0, 50, "New Development"),
            (5.0, 200, "Enhancement"),
            (7.0, 300, "New Development"),
            (4.0, 120, "Enhancement"),
            (6.0, 250, "New Development"),
            (9.0, 400, "Enhancement"),
            (8.0, 350, "New Development"),
        ]
    )
    + "\n"
)


def csv_config(data_path) -> dict:
    return {
        "data": {"path": str(data_path)},
        "schema": [
            {"name": "defects", "role": "response", "kind": "numeric", "transform": "ln"},
            {"name": "fp", "role": "predictor", "kind": "numeric", "transform": "ln"},
            {
                "name": "dev_type",
                "role": "predictor",
                "kind": "binary",
                "categories": ["New Development", "Enhancement"],
            },
        ],
        "regression": {
            "response": "defects",
            "candidates": ["fp", "dev_type"],
            "stepwise": False,
        },
        "evaluation": {},
    }


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class TestConfig:
    def test_bundled_fixture_parses(self):
        cfg = load_config(REPO_FIXTURE)
        assert cfg.synthetic.n == 64
        assert cfg.response == "defects"
        assert cfg.k_values == (8, 4)
        assert cfg.train_fractions == (0.6, 0.7, 0.8)
        assert cfg.scaling == {"dev_type": "nominal", "vaf": "ordinal"}
        assert cfg.stepwise and cfg.recalibrate_enabled

    def test_rejects_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {**small_config(), "bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [("learning_rate", 0.01), ("max_epochs", 1000), ("tolerance", 1e-6),
         ("rate_halving", True)],
    )
    def test_rejects_gradient_descent_recalibration_keys(self, tmp_path, key, value):
        # recalibration is an exact solve; it takes no optimiser settings
        config = small_config(recalibration={"enabled": True, key: value})
        with pytest.raises(ConfigError, match=f"recalibration.*'{key}'"):
            load_config(write_config(tmp_path, config))

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    @pytest.mark.parametrize(
        "section, key, literal",
        [
            ("evaluation", "pred_thresholds", "[NaN]"),
            ("screening", "alpha", "NaN"),
            ("regression", "p_enter", "NaN"),
            ("data", "noise_sd", "Infinity"),
            ("data", "noise_sd", "-Infinity"),
            ("data", "noise_sd", "1e999"),
        ],
        ids=["pred_thresholds", "alpha", "p_enter", "noise_sd", "minus-noise_sd", "big-noise_sd"],
    )
    def test_rejects_non_finite_numbers(self, tmp_path, section, key, literal):
        # json.loads takes NaN and Infinity and reads 1e999 as infinity, and
        # NaN passes the schema's bounds: these used to run, write files and
        # fail late, or not at all
        config = small_config()
        target = config["data"]["synthetic"] if section == "data" else config[section]
        target[key] = "@"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace('"@"', literal), encoding="utf-8")
        number = literal.strip("[]")
        with pytest.raises(ConfigError, match=f"non-finite number {number}$"):
            load_config(path, out_override=str(tmp_path / "out"))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_data_needs_exactly_one_source(self, tmp_path):
        config = small_config()
        config["data"] = {}
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write_config(tmp_path, config))

    def test_path_requires_schema(self, tmp_path):
        config = small_config()
        config["data"] = {"path": "whatever.csv"}
        with pytest.raises(ConfigError, match="schema"):
            load_config(write_config(tmp_path, config))

    def test_synthetic_source_rejects_a_schema_section(self, tmp_path):
        # the generator declares its own columns: a schema section beside it
        # was hashed into the provenance and then ignored
        config = small_config()
        config["schema"] = [
            {"name": "defects", "role": "response", "transform": "none"},
            {"name": "fp"},
        ]
        with pytest.raises(ConfigError, match="synthetic source takes no 'schema'"):
            load_config(write_config(tmp_path, config))

    def test_ordinal_scaling_needs_declared_categories(self, tmp_path):
        # undeclared labels load sorted, which is no declared order, so an
        # ordinal scaling of them is refused
        config = json.loads((FIXTURES / "csv_config.json").read_text(encoding="utf-8"))
        config["data"]["path"] = str(FIXTURES / "projects.csv")
        vaf = next(entry for entry in config["schema"] if entry["name"] == "vaf")
        del vaf["categories"]
        with pytest.raises(ConfigError, match="ordinal scaling of 'vaf' needs its categories"):
            load_config(write_config(tmp_path, config))
        config["regression"]["scaling"]["vaf"] = "nominal"
        assert load_config(write_config(tmp_path, config)).scaling["vaf"] == "nominal"

    def test_scaling_level_on_a_numeric_candidate_rejected(self, tmp_path):
        # optimal scaling quantifies categorical predictors only: a level on a
        # numeric candidate did nothing, yet the report listed it as used
        config = json.loads((FIXTURES / "csv_config.json").read_text(encoding="utf-8"))
        config["data"]["path"] = str(FIXTURES / "projects.csv")
        config["regression"]["scaling"] = {"fp": "nominal"}
        with pytest.raises(
            ConfigError, match="^scaling level given for 'fp', which is not categorical$"
        ):
            load_config(write_config(tmp_path, config))
        config = small_config()
        config["regression"]["scaling"]["efforts"] = "ordinal"
        with pytest.raises(
            ConfigError, match="^scaling level given for 'efforts', which is not categorical$"
        ):
            load_config(write_config(tmp_path, config))

    def test_unknown_variable_references_rejected(self, tmp_path):
        config = small_config()
        config["regression"]["candidates"] = ["fp", "nonexistent"]
        with pytest.raises(ConfigError, match="nonexistent"):
            load_config(write_config(tmp_path, config))

        config = small_config()
        config["filters"] = [{"kind": "non_missing", "variable": "ghost"}]
        with pytest.raises(ConfigError, match="ghost"):
            load_config(write_config(tmp_path, config))

    def test_response_among_the_candidates_rejected(self, tmp_path, capsys):
        # the response as its own predictor fitted R^2 1 and MMRE 0
        config = json.loads((FIXTURES / "csv_config.json").read_text(encoding="utf-8"))
        config["data"]["path"] = str(FIXTURES / "projects.csv")
        config["regression"]["candidates"].append("defects")
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "defectcast: the response 'defects' is listed among the candidates\n"
        )
        assert not out.exists()

    def test_duplicate_candidates_rejected(self, tmp_path):
        # a candidate listed twice made the design rank deficient at 'fit'
        config = small_config()
        config["regression"]["candidates"].append("fp")
        with pytest.raises(
            ConfigError,
            match=r"^config schema violation at regression/candidates: .*'fp'\] has non-unique",
        ):
            load_config(write_config(tmp_path, config), out_override=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, values",
        [("k_values", [4, 4]), ("train_fractions", [0.7, 0.7]), ("pred_thresholds", [0.25, 0.25])],
    )
    def test_repeated_evaluation_values_rejected(self, tmp_path, key, values):
        # a repeated k or train fraction ran its protocol twice and reported
        # it twice, and a repeated threshold ran to exit 0
        config = small_config()
        config["evaluation"][key] = values
        path = write_config(tmp_path, config)
        with pytest.raises(
            ConfigError,
            match=rf"^config schema violation at evaluation/{key}: .* has non-unique elements$",
        ):
            load_config(path, out_override=str(tmp_path / "out"))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [True, False])
    def test_refit_regression_key_rejected(self, tmp_path, capsys, value):
        # the fixed-model protocol is gone: every split refits its own OLS,
        # so a config that still names the switch is an unknown key
        config = small_config()
        config["evaluation"]["refit_regression"] = value
        path = write_config(tmp_path, config)
        with pytest.raises(
            ConfigError,
            match=r"^config schema violation at evaluation: .*'refit_regression'",
        ):
            load_config(path, out_override=str(tmp_path / "out"))
        capsys.readouterr()
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert "refit_regression" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    def test_packaged_schema_is_a_valid_schema(self):
        # load_config validates against the packaged schema without checking
        # the schema itself, so a broken schema must fail here
        from jsonschema.validators import validator_for

        doc = pipeline._schema_document()
        validator_for(doc).check_schema(doc)

    def test_scaling_must_target_candidates(self, tmp_path):
        config = small_config()
        config["regression"]["scaling"] = {"defects": "nominal"}
        with pytest.raises(ConfigError, match="defects"):
            load_config(write_config(tmp_path, config))

    def test_unknown_scaling_level_is_a_schema_violation(self, tmp_path):
        config = small_config()
        config["regression"]["scaling"] = {"dev_type": "interval"}
        with pytest.raises(
            ConfigError, match="^config schema violation at regression/scaling/dev_type: "
        ):
            load_config(write_config(tmp_path, config))

    def test_seed_required_with_stochastic_steps(self, tmp_path):
        config = small_config()
        del config["seed"]
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path, config))

    def test_csv_config_without_stochastic_steps_needs_no_seed(self, tmp_path):
        data = tmp_path / "proj.csv"
        data.write_text(CSV_TEXT, encoding="utf-8")
        cfg = load_config(write_config(tmp_path, csv_config(data)))
        assert cfg.seed == 0

    def test_seed_override_changes_hash(self, tmp_path):
        path = write_config(tmp_path, small_config())
        base = load_config(path)
        other = load_config(path, seed_override=7)
        assert other.seed == 7
        assert base.config_hash() != other.config_hash()

    def test_seed_override_checked_like_a_file_value(self, tmp_path):
        path = write_config(tmp_path, small_config())
        with pytest.raises(ConfigError, match="^config schema violation at seed: -3 is less"):
            load_config(path, seed_override=-3)

    def test_out_override_checked_like_a_file_value(self, tmp_path, monkeypatch):
        # an empty --out wrote every output into the working directory
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, small_config())
        with pytest.raises(ConfigError, match="^config schema violation at output_dir: "):
            load_config(path, out_override="")
        assert main(["--config", str(path), "--out", ""]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_hash_ignores_output_dir(self, tmp_path):
        path = write_config(tmp_path, small_config())
        a = load_config(path, out_override=str(tmp_path / "a"))
        b = load_config(path, out_override=str(tmp_path / "b"))
        assert a.config_hash() == b.config_hash()

    def test_out_dir_precedence(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, small_config(output_dir="fromconfig"))
        assert load_config(path).output_dir == "fromconfig"
        monkeypatch.setenv("DEFECTCAST_OUT", "fromenv")
        assert load_config(path).output_dir == "fromenv"
        assert load_config(path, out_override="fromflag").output_dir == "fromflag"

    @pytest.mark.parametrize(
        "section, settings, message",
        [
            ("tree", {"min_leaf_size": 1}, "tree/min_leaf_size: 1 is less than the minimum of 2"),
            ("tree", {"sd_fraction": 0}, "tree/sd_fraction: 0 is less than or equal to"),
            ("tree", {"sd_fraction": 1}, "tree/sd_fraction: 1 is greater than or equal to"),
            (
                "regression",
                {"p_enter": 0.2, "p_remove": 0.1},
                r"p_enter \(0.2\) must not exceed p_remove \(0.1\)",
            ),
        ],
    )
    def test_out_of_range_settings_fail_at_load(self, tmp_path, section, settings, message):
        # the tree and fit stages reject these too, but only after the
        # earlier stages have written their files
        config = small_config()
        config[section] = {**config.get(section, {}), **settings}
        path = write_config(tmp_path, config)
        with pytest.raises(ConfigError, match=message):
            load_config(path, out_override=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_p_enter_above_p_remove_allowed_without_stepwise(self, tmp_path):
        config = small_config()
        config["regression"].update(stepwise=False, p_enter=0.2, p_remove=0.1)
        assert not load_config(write_config(tmp_path, config)).stepwise

    @pytest.mark.parametrize(
        "where, edit",
        [
            ("regression/candidates", lambda c: c["regression"].update(candidates=[])),
            ("data/synthetic", lambda c: c["data"]["synthetic"].update(bogus=1)),
            (
                "data/synthetic/coefficients",
                lambda c: c["data"]["synthetic"].update(coefficients={"slope": 1.0}),
            ),
        ],
    )
    def test_schema_rejects_what_load_config_does_not_recheck(self, tmp_path, where, edit):
        # an empty candidate list and unknown generator or coefficient keys
        # never reach the config types: the packaged schema stops them
        config = small_config()
        edit(config)
        with pytest.raises(ConfigError, match=f"^config schema violation at {where}: "):
            load_config(write_config(tmp_path, config))

    def test_schema_entries_default_to_numeric_predictors(self, tmp_path):
        data = tmp_path / "proj.csv"
        data.write_text(CSV_TEXT, encoding="utf-8")
        config = csv_config(data)
        config["schema"][1] = {"name": "fp"}
        cfg = load_config(write_config(tmp_path, config))
        assert cfg.schema[1] == VariableSpec("fp", "predictor", "numeric")
        assert cfg.schema[2].categories == ("New Development", "Enhancement")

    def test_synthetic_configs_reference_the_generated_columns(self, tmp_path):
        ds = generate_synthetic(GeneratorConfig(n=3), 1)
        assert ds.variable_names == SYNTHETIC_COLUMNS
        config = small_config(filters=[{"kind": "non_missing", "variable": "gsc_14"}])
        assert load_config(write_config(tmp_path, config)).filters[0].variable == "gsc_14"

    @pytest.mark.parametrize(
        "key, entries, message",
        [
            (
                "merges",
                [{"variable": "dev_type", "pairs": [["New Development", "Maintenance"]]}],
                "merge references unknown category 'Maintenance' of 'dev_type'",
            ),
            (
                "filters",
                [{"kind": "in_set", "variable": "dev_type", "labels": ["Maintenance"]}],
                r"filter on 'dev_type' references unknown categories \['Maintenance'\]",
            ),
            (
                "filters",
                [{"kind": "range", "variable": "dev_type", "low": 1}],
                "range filter needs a numeric variable, got 'dev_type'",
            ),
            (
                "filters",
                [{"kind": "in_set", "variable": "fp", "labels": ["100"]}],
                "in_set filter needs a categorical variable, got 'fp'",
            ),
        ],
        ids=[
            "merge-unknown-label",
            "in-set-unknown-label",
            "range-on-categorical",
            "in-set-on-numeric",
        ],
    )
    def test_category_and_kind_faults_fail_at_load(self, tmp_path, key, entries, message):
        # the prepare stage rejects these too, but only after synth has
        # run; the generator's schema is known at load
        config = json.loads(REPO_FIXTURE.read_text(encoding="utf-8"))
        config[key] = entries
        path = write_config(tmp_path, config)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            load_config(path, out_override=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_labels_unchecked_where_categories_are_not_declared(self, tmp_path):
        # undeclared categories are known only once the data is read
        data = tmp_path / "proj.csv"
        data.write_text(CSV_TEXT, encoding="utf-8")
        config = csv_config(data)
        config["schema"][2] = {"name": "dev_type", "kind": "categorical"}
        config["filters"] = [{"kind": "in_set", "variable": "dev_type", "labels": ["Other"]}]
        config["merges"] = [{"variable": "dev_type", "pairs": [["Other", "Enhancement"]]}]
        load_config(write_config(tmp_path, config))
        config["filters"] = [{"kind": "range", "variable": "dev_type", "high": 2}]
        with pytest.raises(ConfigError, match="range filter needs a numeric variable"):
            load_config(write_config(tmp_path, config))

    def test_omitted_settings_take_the_library_defaults(self, tmp_path):
        # load_config restates these defaults; they must match the library's
        config = small_config()
        del config["screening"]["alpha"]
        cfg = load_config(write_config(tmp_path, config))

        def default(func, name):
            return inspect.signature(func).parameters[name].default

        plan = {f.name: f.default for f in dataclasses.fields(ModelingPlan)}
        assert cfg.alpha == default(screen_dataset, "alpha")
        assert cfg.tree_sd_fraction == default(fit_model_tree, "sd_fraction")
        assert cfg.tree_min_leaf == default(fit_model_tree, "min_leaf_size")
        assert cfg.p_enter == default(stepwise_fit, "p_enter")
        assert cfg.p_remove == default(stepwise_fit, "p_remove")
        assert cfg.pred_thresholds == plan["pred_thresholds"]
        assert cfg.min_test_for_pred == plan["min_test_for_pred"]


# ---------------------------------------------------------------------------
# pipeline runs
# ---------------------------------------------------------------------------

EXPECTED_SECTIONS = {
    "provenance",
    "synthetic_data",
    "data_preparation",
    "normality",
    "rank_correlations",
    "group_screening",
    "model_tree",
    "optimal_scaling",
    "regression",
    "stepwise",
    "recalibration",
    "resubstitution",
    "cross_validation",
    "random_splits",
}


class TestPipelineRun:
    def test_full_run_writes_all_artifacts(self, tmp_path):
        cfg = load_small(tmp_path)
        report = run_pipeline(cfg)
        assert set(report) == EXPECTED_SECTIONS
        out = tmp_path / "out"
        for name in (
            "report.json",
            "model.json",
            "recalibration.json",
            "qq.csv",
            "tree.txt",
            "prepared.csv",
            "prepared.schema.json",
        ):
            assert (out / name).is_file(), name
        # the config and seed determine the generated rows; prepared.csv
        # holds them, so the source is never written as well
        for name in ("synthetic.csv", "synthetic.schema.json"):
            assert not (out / name).exists(), name
        on_disk = json.loads((out / "report.json").read_text())
        assert set(on_disk) == EXPECTED_SECTIONS

    @pytest.mark.parametrize("scaling", [True, False])
    def test_model_file_quantifications_and_sources(self, tmp_path, scaling):
        # with scaling, catreg's values for every categorical candidate; without
        # it, the numeric-label ones at their labels, and the binary dev_type
        # (non-numeric labels, coded 0/1 in the model) is left out
        config = json.loads((FIXTURES / "csv_config.json").read_text(encoding="utf-8"))
        config["data"]["path"] = str(FIXTURES / "projects.csv")
        if not scaling:
            del config["regression"]["scaling"]
        cfg = load_config(write_config(tmp_path, config), out_override=str(tmp_path / "out"))
        report = run_stage("fit", cfg)
        model = json.loads((tmp_path / "out" / "model.json").read_text(encoding="utf-8"))
        quants = model["quantifications"]
        if scaling:
            assert set(quants) == {"dev_type", "vaf"}
            assert {q["source"] for q in quants.values()} == {"catreg"}
            assert {name: q["mapping"] for name, q in quants.items()} == (
                report["optimal_scaling"]["quantifications"]
            )
        else:
            labels = ("0.65", "0.90", "1.00", "1.10", "1.35")
            assert quants == {
                "vaf": {"mapping": {lab: float(lab) for lab in labels}, "source": "initial"}
            }
            assert "dev_type" in model["full_model"]["codings"]

    def test_reruns_byte_identical(self, tmp_path):
        run_pipeline(load_small(tmp_path, out="a"))
        run_pipeline(load_small(tmp_path, out="b"))
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_report_independent_of_blas_thread_count(self, tmp_path):
        # at 12,000 rows OpenBLAS splits a dot product over its threads; one
        # and two threads must still write the same report
        config = json.loads(REPO_FIXTURE.read_text(encoding="utf-8"))
        config["data"]["synthetic"]["n"] = 12_000
        path = write_config(tmp_path, config)
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(pipeline.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            argv = ["--config", str(path), "--out", str(tmp_path / threads)]
            subprocess.run(
                [sys.executable, "-m", "defectcast.cli", *argv],
                env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True, capture_output=True,
            )
        assert (tmp_path / "1" / "report.json").read_bytes() == (
            tmp_path / "2" / "report.json"
        ).read_bytes()

    def test_resampling_report_independent_of_the_process(self, tmp_path):
        # the bundled 64 rows with k 8, 4, 2, five train fractions and 150
        # repetitions: two processes that differ in string hashing and in
        # the BLAS thread count must write the same report bytes, so no
        # output may hang on set or dict order of strings, on unwritten
        # memory or on the summation order of a threaded product
        config = json.loads(REPO_FIXTURE.read_text(encoding="utf-8"))
        config["evaluation"].update(
            k_values=[8, 4, 2], train_fractions=[0.5, 0.6, 0.7, 0.8, 0.9], repetitions=150
        )
        path = write_config(tmp_path, config)
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(pipeline.__file__).resolve().parents[1])
        runs = {"a": ("1", "0"), "b": ("2", "4242")}
        for name, (threads, hash_seed) in runs.items():
            subprocess.run(
                [sys.executable, "-m", "defectcast.cli", "--config", str(path),
                 "--out", str(tmp_path / name)],
                env={**env, "OPENBLAS_NUM_THREADS": threads, "PYTHONHASHSEED": hash_seed},
                check=True, capture_output=True,
            )
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_tukey_p_values_within_two_group_bounds(self, tmp_path):
        # every pair's q recomputed from the prepared data: P(Q_k > q) lies
        # between the two-group tail 2 * t_cdf(-q / sqrt(2), df) and C(k, 2)
        # times it, up to the kernel's relative 1e-9.  At 2000 rows the
        # well-separated pairs carry tails far below 1e-16
        config = json.loads(REPO_FIXTURE.read_text(encoding="utf-8"))
        config["data"]["synthetic"]["n"] = 2000
        cfg = load_config(write_config(tmp_path, config), out_override=str(tmp_path / "out"))
        run = pipeline._Run(cfg)
        report = run_stage("screen", cfg, run)
        data = run.prepared
        checked = 0
        for name, pairs in report["group_screening"]["multiple_comparisons"].items():
            spec = data.spec(name)
            table = group_table(data.columns[cfg.response], data.columns[name], spec.categories)
            k = len(table.labels)
            df = int(table.counts.sum()) - k
            msw = table.ssw / df
            index = {label: i for i, label in enumerate(table.labels)}
            for pair in pairs:
                a, b = index[pair["group_i"]], index[pair["group_j"]]
                scale = math.sqrt((msw / 2.0) * (1.0 / table.counts[a] + 1.0 / table.counts[b]))
                q = abs(table.means[a] - table.means[b]) / scale
                two = 2.0 * t_cdf(-q / math.sqrt(2.0), df)
                p = pair["p_adjusted"]
                assert two * (1.0 - 1e-9) <= p <= math.comb(k, 2) * two * (1.0 + 1e-9), (
                    name,
                    pair,
                    two,
                )
                checked += 1
        assert checked == 13

    def test_csv_fixture_stages_compose(self, tmp_path):
        # the CSV fixture: schema defaults, declared categories, empty
        # cells in a predictor, a categorical and the response, a range
        # filter and a merge; its six stages run one after another write
        # the report of one whole run
        def cfg(out):
            return load_config(
                FIXTURES / "csv_config.json",
                data_override=str(FIXTURES / "projects.csv"),
                out_override=str(tmp_path / out),
            )

        report = run_pipeline(cfg("whole"))
        prep = report["data_preparation"]
        assert (prep["rows_loaded"], prep["rows_after_filters"], prep["rows_complete"]) == (
            50, 47, 44,
        )
        staged = cfg("staged")
        for stage in STAGES[1:]:
            run_stage(stage, staged)
        whole = (tmp_path / "whole" / "report.json").read_bytes()
        assert (tmp_path / "staged" / "report.json").read_bytes() == whole

    def test_seed_changes_fold_assignments(self, tmp_path):
        path = write_config(tmp_path, small_config())
        run_pipeline(load_config(path, out_override=str(tmp_path / "a")))
        run_pipeline(
            load_config(path, out_override=str(tmp_path / "b"), seed_override=999)
        )
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        fold_sizes = lambda rep: [r["n_test"] for r in rep["cross_validation"][0]["rows"]]
        assert fold_sizes(a) == fold_sizes(b)  # balance is seed-independent
        assert a != b

    def test_stage_composition_equals_monolithic(self, tmp_path):
        run_pipeline(load_small(tmp_path, out="mono"))
        staged_cfg = load_small(tmp_path, out="staged")
        for stage in STAGES:
            run_stage(stage, staged_cfg)
        assert (tmp_path / "mono" / "report.json").read_bytes() == (
            tmp_path / "staged" / "report.json"
        ).read_bytes()
        assert (tmp_path / "mono" / "model.json").read_bytes() == (
            tmp_path / "staged" / "model.json"
        ).read_bytes()

    def test_resubstitution_keeps_rows_a_dropped_candidate_holes(self, tmp_path):
        # the selected model is fit on the 102 rows complete over every
        # candidate; the report's one resubstitution refits it on the 120
        # rows complete over the selected predictors
        rng = np.random.default_rng(120)
        empty = set(rng.choice(120, 18, replace=False).tolist())
        lines = ["defects,fp,dev_type,noise"]
        for i in range(120):
            fp = round(math.exp(rng.normal(5.0, 0.8)), 1)
            kind = "Enhancement" if i % 3 == 0 else "New Development"
            mean = 0.05 * fp * (0.4 if kind == "Enhancement" else 1.0)
            defects = max(1, round(mean * math.exp(rng.normal(0, 0.3))))
            noise = "" if i in empty else round(rng.normal(0, 1), 3)
            lines.append(f"{defects},{fp},{kind},{noise}")
        data = tmp_path / "proj.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = csv_config(data)
        config["schema"].append({"name": "noise", "role": "predictor", "kind": "numeric"})
        config["regression"].update(candidates=["fp", "dev_type", "noise"], stepwise=True)
        cfg = load_config(write_config(tmp_path, config), out_override=str(tmp_path / "out"))
        report = run_pipeline(cfg)
        assert report["stepwise"]["included"] == ["fp", "dev_type"]
        assert report["regression"]["selected_model"]["n"] == 102
        assert report["resubstitution"]["parameters"]["n"] == 120
        resub = report["resubstitution"]["averages"]
        assert resub["baseline_mmre"] == pytest.approx(0.280808, abs=1e-6)
        assert "resubstitution_mmre" not in report["recalibration"]
        assert (
            f"resubstitution: MMRE {resub['baseline_mmre']:.4f} -> "
            f"{resub['recalibrated_mmre']:.4f}"
        ) in render_summary(report)

    def test_zero_count_under_ln1p_is_a_data_error(self, tmp_path):
        # ln1p admits zero counts, but relative error against a zero actual
        # is undefined, so scoring fails; ln1p(0) = 0 is a valid training
        # target, so the units still train
        rng = np.random.default_rng(120)
        lines = ["defects,fp,dev_type"]
        for i in range(120):
            fp = round(math.exp(rng.normal(5.0, 0.8)), 1)
            kind = "Enhancement" if i % 3 == 0 else "New Development"
            mean = 0.05 * fp * (0.4 if kind == "Enhancement" else 1.0)
            defects = 0 if i in (17, 90) else max(1, round(mean * math.exp(rng.normal(0, 0.3))))
            lines.append(f"{defects},{fp},{kind}")
        data = tmp_path / "proj.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = csv_config(data)
        config["schema"][0]["transform"] = "ln1p"
        path = write_config(tmp_path, config)
        cfg = load_config(path, out_override=str(tmp_path / "out"))
        with pytest.raises(DataError, match="^step 'evaluate': nonpositive actual value"):
            run_pipeline(cfg)
        assert "resubstitution" not in json.loads((tmp_path / "out" / "report.json").read_text())
        staged = tmp_path / "staged"
        assert main(["--config", str(path), "--out", str(staged), "--stage", "recalibrate"]) == 0
        assert (staged / "recalibration.json").exists()

    def test_csv_with_byte_order_mark_and_crlf_line_ends(self, tmp_path):
        # Excel's "CSV UTF-8" export: a leading U+FEFF, which the header
        # check must not read as part of the first column's name
        marked = "\ufeff" + CSV_TEXT.replace("\n", "\r\n")
        outputs = {}
        for name, text in [("plain", CSV_TEXT), ("marked", marked)]:
            data = tmp_path / f"{name}.csv"
            data.write_bytes(text.encode("utf-8"))
            path = write_config(tmp_path, csv_config(data), f"{name}.json")
            run_stage("prepare", load_config(path, out_override=str(tmp_path / name)))
            out = tmp_path / name
            outputs[name] = [(out / f).read_bytes() for f in ("prepared.csv", "qq.csv")]
        assert outputs["marked"] == outputs["plain"]

    def test_synth_then_fit_reproduces_model_file(self, tmp_path):
        run_pipeline(load_small(tmp_path, out="mono"))
        cfg = load_small(tmp_path, out="partial")
        run_stage("synth", cfg)
        run_stage("fit", cfg)
        assert (tmp_path / "mono" / "model.json").read_bytes() == (
            tmp_path / "partial" / "model.json"
        ).read_bytes()

    def test_evaluate_refits_model_file_of_another_config(self, tmp_path, capsys):
        # model.json from config B used to be evaluated under config C
        config_c = small_config()
        config_c["regression"] = {
            "response": "defects",
            "candidates": ["fp", "dev_type"],
            "stepwise": False,
            "scaling": {"dev_type": "nominal"},
        }
        path_b = write_config(tmp_path, small_config(), "b.json")
        path_c = write_config(tmp_path, config_c, "c.json")
        mixed = tmp_path / "mixed"
        for stage in ("synth", "prepare", "fit"):
            run_stage(stage, load_config(path_b, out_override=str(mixed)))
        fitted_b = json.loads((mixed / "model.json").read_text())["model"]
        code = main(["--config", str(path_c), "--out", str(mixed), "--stage", "evaluate"])
        assert code == 0
        # C's evaluate starts a new report, which removes B's files
        assert not (mixed / "model.json").exists()
        mono = run_pipeline(load_config(path_c, out_override=str(tmp_path / "mono")))
        assert fitted_b["terms"] != mono["regression"]["selected_model"]["terms"]
        staged = json.loads((mixed / "report.json").read_text())
        for section in STAGE_SECTIONS["evaluate"]:
            assert staged[section] == mono[section], section

    def test_screen_stage_emits_only_its_sections(self, tmp_path):
        cfg = load_small(tmp_path)
        run_stage("screen", cfg)
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc.pop("provenance") == cfg.provenance()
        assert sorted(doc) == ["group_screening", "rank_correlations"]

    def test_report_indented_with_sorted_keys(self, tmp_path):
        cfg = load_small(tmp_path)
        run_stage("screen", cfg)
        report_text = (tmp_path / "out" / "report.json").read_text()
        assert report_text == json.dumps(
            json.loads(report_text), indent=2, sort_keys=True
        ) + "\n"

    def test_temp_names_unique_per_write(self, tmp_path):
        # whatever already sits at '<name>.tmp' must not block the write
        cfg = load_small(tmp_path)
        blocker = tmp_path / "out" / "report.json.tmp"
        blocker.mkdir(parents=True)
        run_stage("screen", cfg)
        out = tmp_path / "out"
        assert json.loads((out / "report.json").read_text())["rank_correlations"]
        assert [p.name for p in out.glob("*.tmp")] == ["report.json.tmp"]
        assert blocker.is_dir()

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        def fail(handle):
            handle.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _atomic_write(tmp_path / "report.json", fail)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_stage_lists_valid_names(self, tmp_path):
        cfg = load_small(tmp_path)
        with pytest.raises(ConfigError, match="synth, prepare, screen"):
            run_stage("nosuch", cfg)

    def test_stage_errors_name_the_step(self, tmp_path):
        config = small_config()
        config["data"] = {"synthetic": {"n": 6, "noise_sd": 0.5}}
        path = write_config(tmp_path, config)
        cfg = load_config(path, out_override=str(tmp_path / "out"))
        with pytest.raises(DataError, match="step 'fit'"):
            run_stage("fit", cfg)

    def test_disabled_tree_and_recalibration(self, tmp_path):
        config = small_config(
            tree={"enabled": False}, recalibration={"enabled": False}
        )
        path = write_config(tmp_path, config)
        report = run_pipeline(load_config(path, out_override=str(tmp_path / "out")))
        assert report["model_tree"] == {"enabled": False}
        assert report["recalibration"] == {"enabled": False}
        resub = report["resubstitution"]["rows"][0]
        assert resub["recalibrated_mmre"] == pytest.approx(
            resub["baseline_mmre"], abs=1e-12
        )
        assert not (tmp_path / "out" / "tree.txt").exists()

    def test_empty_evaluation_lists(self, tmp_path):
        config = small_config(evaluation={})
        path = write_config(tmp_path, config)
        report = run_pipeline(load_config(path, out_override=str(tmp_path / "out")))
        assert report["cross_validation"] == []
        assert report["random_splits"] == []
        assert report["resubstitution"]["protocol"] == "resubstitution"

    def test_qq_file_matches_complete_rows(self, tmp_path):
        cfg = load_small(tmp_path)
        run_stage("prepare", cfg)
        lines = (tmp_path / "out" / "qq.csv").read_text().strip().splitlines()
        assert lines[0] == "theoretical,ordered"
        pairs = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(pairs) == 64
        assert pairs == sorted(pairs)  # both columns ordered together

    def test_category_merge_applied_in_prepare(self, tmp_path):
        data = tmp_path / "proj.csv"
        rows = ["defects,fp,dev_type"]
        kinds = ["New Development", "Re-development", "Enhancement"]
        for i in range(12):
            rows.append(f"{2.0 + i},{50 * (i + 1)},{kinds[i % 3]}")
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = csv_config(data)
        config["schema"][2] = {
            "name": "dev_type",
            "role": "predictor",
            "kind": "categorical",
            "categories": kinds,
        }
        config["merges"] = [
            {"variable": "dev_type", "pairs": [["New Development", "Re-development"]]}
        ]
        path = write_config(tmp_path, config)
        cfg = load_config(path, out_override=str(tmp_path / "out"))
        run_stage("prepare", cfg)
        sidecar = json.loads((tmp_path / "out" / "prepared.schema.json").read_text())
        digest = hashlib.sha256(data.read_bytes()).hexdigest()
        assert sidecar["provenance"] == cfg.provenance(digest)
        dev = next(e for e in sidecar["schema"] if e["name"] == "dev_type")
        assert dev["kind"] == "binary"
        assert dev["categories"] == [
            "New Development+Re-development",
            "Enhancement",
        ]


# ---------------------------------------------------------------------------
# summary and CLI
# ---------------------------------------------------------------------------


class TestSummary:
    def test_summary_numbers_come_from_report(self, tmp_path):
        cfg = load_small(tmp_path)
        report = run_pipeline(cfg)
        text = render_summary(report)
        model = report["regression"]["selected_model"]
        assert f"R^2 {model['r_squared']:.4f}" in text
        resub = report["resubstitution"]["averages"]
        assert f"resubstitution: MMRE {resub['baseline_mmre']:.4f}" in text
        cv = report["cross_validation"][0]["averages"]
        assert f"MMRE {cv['baseline_mmre']:.4f}" in text
        norm = report["normality"]
        assert f"{norm['qq_correlation_transformed']:.4f} transformed" in text
        assert str(report["provenance"]["seed"]) in text

    def test_summary_names_no_epochs(self, tmp_path):
        # recalibration trains by one exact solve, not by epochs
        report = run_pipeline(load_small(tmp_path))
        text = render_summary(report)
        assert "resubstitution: MMRE" in text
        assert "epoch" not in text
        # an exact solve either returns or raises, so a solve count and an
        # always-true flag would say nothing, and the gradient it leaves is
        # rounding residue with no stable digits
        assert sorted(report["recalibration"]["training"]) == [
            "final_mse", "initial_gradient_norm", "initial_mse",
        ]


    def test_csv_fixture_has_one_resubstitution_pair(self, tmp_path):
        # recalibrate trains and reports its training only; the summary's
        # resubstitution line reads evaluate's section, the one path
        cfg = load_config(
            FIXTURES / "csv_config.json",
            data_override=str(FIXTURES / "projects.csv"),
            out_override=str(tmp_path / "out"),
        )
        report = run_pipeline(cfg)
        assert sorted(report["recalibration"]) == ["enabled", "training", "units"]
        avg = report["resubstitution"]["averages"]
        line = (
            f"resubstitution: MMRE {avg['baseline_mmre']:.4f} -> "
            f"{avg['recalibrated_mmre']:.4f} ({avg['improvement_pct']:+.2f}%)"
        )
        assert line == "resubstitution: MMRE 0.3350 -> 0.3325 (+0.76%)"
        assert line in render_summary(report).splitlines()

    def test_summary_resubstitution_line_without_recalibration(self, tmp_path):
        report = run_pipeline(load_small(tmp_path, recalibration={"enabled": False}))
        avg = report["resubstitution"]["averages"]
        assert avg["baseline_mmre"] == avg["recalibrated_mmre"]
        text = render_summary(report)
        assert (
            f"resubstitution: MMRE {avg['baseline_mmre']:.4f} -> "
            f"{avg['baseline_mmre']:.4f} (+0.00%)"
        ) in text


class TestCli:
    def test_success_exit_zero_and_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config())
        code = main(
            ["--config", str(path), "--out", str(tmp_path / "out")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "defectcast" in out and "MMRE" in out

    def test_stage_run_prints_sections(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config())
        code = main(
            ["--config", str(path), "--out", str(tmp_path / "out"), "--stage", "prepare"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "data_preparation" in out

    def test_unknown_stage_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config())
        code = main(
            ["--config", str(path), "--out", str(tmp_path / "out"), "--stage", "bogus"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "valid stages" in err

    def test_usage_error_exit_one(self, capsys):
        assert main([]) == 1
        assert "--config" in capsys.readouterr().err

    def test_missing_column_exit_one_names_column(self, tmp_path, capsys):
        data = tmp_path / "proj.csv"
        data.write_text("defects,fp\n3.0,100\n", encoding="utf-8")
        path = write_config(tmp_path, csv_config(data))
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "dev_type" in err

    def test_nonpositive_response_exit_two_names_row(self, tmp_path, capsys):
        bad = CSV_TEXT.replace("2.0,50", "0.0,50")
        data = tmp_path / "proj.csv"
        data.write_text(bad, encoding="utf-8")
        path = write_config(tmp_path, csv_config(data))
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "row 1" in err

    def test_missing_data_file_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, csv_config(tmp_path / "ghost.csv"))
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [8, 8000])
    @pytest.mark.parametrize("stage", [None, "prepare"])
    def test_csv_not_utf8_exit_two_names_file_and_byte(self, tmp_path, capsys, rows, stage):
        # a byte 0xff after the rows: the header check decodes the first
        # chunk of the file and load_csv the rest, and either way the
        # offset counts from the start of the file
        body = CSV_TEXT.split("\n", 1)[1] * (rows // 8)
        raw = (CSV_TEXT.split("\n", 1)[0] + "\n" + body).encode("utf-8") + b"x\xff"
        data = tmp_path / "proj.csv"
        data.write_bytes(raw)
        path = write_config(tmp_path, csv_config(data))
        args = ["--config", str(path), "--out", str(tmp_path / "out")]
        code = main(args + (["--stage", stage] if stage else []))
        err = capsys.readouterr().err
        assert code == 2
        assert f"data file {data} is not valid UTF-8" in err
        assert f"at byte {len(raw) - 1}" in err

    def test_csv_pipeline_end_to_end(self, tmp_path, capsys):
        data = tmp_path / "proj.csv"
        data.write_text(CSV_TEXT, encoding="utf-8")
        path = write_config(tmp_path, csv_config(data))
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["data_preparation"]["rows_loaded"] == 8
        assert report["cross_validation"] == []


def test_traced_names_resolve():
    # perfbench traces these functions by name; a rename must fail here,
    # not only in the traced benchmark run
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"defectcast.{module_name}")
        for qualname in names:
            owner = module
            for attr in qualname.split("."):
                assert hasattr(owner, attr), f"defectcast.{module_name}.{qualname}"
                owner = getattr(owner, attr)
            assert callable(owner)


# ---------------------------------------------------------------------------
# in-memory handoff and file provenance
# ---------------------------------------------------------------------------


def _counting(monkeypatch, name):
    """Replace ``pipeline.<name>`` with a wrapper; returns the list of the
    positional arguments of each call."""
    calls = []
    original = getattr(pipeline, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, wrapper)
    return calls


def _csv_cfg(tmp_path, out="out"):
    data = tmp_path / "proj.csv"
    data.write_text(CSV_TEXT, encoding="utf-8")
    path = write_config(tmp_path, csv_config(data), "csv.json")
    return load_config(path, out_override=str(tmp_path / out))


def _recording_reads(monkeypatch):
    """Record the name of every file opened for reading, through ``open``
    or through ``Path``; returns the list of names."""
    names = []

    def recording(opener):
        def wrapper(file, mode="r", *args, **kwargs):
            if not set(mode) & set("wxa+"):
                names.append(Path(file).name)
            return opener(file, mode, *args, **kwargs)

        return wrapper

    monkeypatch.setattr("builtins.open", recording(open))
    monkeypatch.setattr(Path, "open", recording(Path.open))
    return names


class TestArtifactHandoff:
    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_standalone_stage_reads_back_only_the_report(self, tmp_path, monkeypatch, source):
        # every artifact a full run left behind is an output: a standalone
        # stage recomputes its inputs from the config and its data
        cfg = load_small(tmp_path) if source == "synthetic" else _csv_cfg(tmp_path)
        run_pipeline(cfg)
        loads = _counting(monkeypatch, "load_csv")
        reads = _recording_reads(monkeypatch)
        for stage in ("screen", "tree", "fit", "recalibrate", "evaluate"):
            loads.clear()
            reads.clear()
            run_stage(stage, cfg)
            data_files = [] if source == "synthetic" else ["proj.csv"]
            assert len(loads) == len(data_files), stage
            assert sorted(set(reads)) == sorted(["report.json", *data_files]), stage
            assert reads.count("proj.csv") == len(data_files), stage

    def test_synthetic_run_parses_no_csv(self, tmp_path, monkeypatch):
        loads = _counting(monkeypatch, "load_csv")
        run_pipeline(load_small(tmp_path))
        assert loads == []

    def test_csv_run_parses_its_data_file_once(self, tmp_path, monkeypatch):
        cfg = _csv_cfg(tmp_path)
        loads = _counting(monkeypatch, "load_csv")
        reads = _recording_reads(monkeypatch)
        run_pipeline(cfg)
        assert len(loads) == 1
        assert reads.count("proj.csv") == 1

    @pytest.mark.parametrize("stage", [None, "fit"])
    def test_digest_is_of_the_bytes_parsed(self, tmp_path, monkeypatch, stage):
        cfg = _csv_cfg(tmp_path)
        loads = _counting(monkeypatch, "load_csv")
        report = run_pipeline(cfg) if stage is None else run_stage(stage, cfg)
        [(parsed, _)] = loads
        digest = report["provenance"]["data_source"]["sha256"]
        assert digest == hashlib.sha256(parsed).hexdigest()
        assert digest == hashlib.sha256((tmp_path / "proj.csv").read_bytes()).hexdigest()

    def test_report_written_once_per_run(self, tmp_path, monkeypatch):
        writes = _counting(monkeypatch, "_atomic_write")
        report = run_pipeline(load_small(tmp_path))
        names = [args[0].name for args in writes]
        assert names.count("report.json") == 1
        assert names[-1] == "report.json"
        assert report == json.loads((tmp_path / "out" / "report.json").read_text())

    def test_report_walked_once_per_run(self, tmp_path, monkeypatch):
        # run_stage makes each stage's sections plain before they enter the
        # report, so the final write walks nothing again
        walks = _counting(monkeypatch, "_jsonable")
        report = run_pipeline(load_small(tmp_path))
        walked = [args[0] for args in walks if args[1] == "report.json"]
        assert len(walked) == 1 + len(STAGES)  # the provenance, then each stage
        assert all(len(obj) < len(report) for obj in walked)
        text = (tmp_path / "out" / "report.json").read_text()
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_model_file_walked_once_per_fit(self, tmp_path, monkeypatch):
        walks = _counting(monkeypatch, "_jsonable")
        run_pipeline(load_small(tmp_path))
        assert [args[1] for args in walks].count("model.json") == 1

    @pytest.mark.parametrize("stage", [None, "recalibrate", "evaluate"])
    def test_one_stepwise_selection_per_run(self, tmp_path, monkeypatch, stage):
        # a whole run hands the fit stage's model over as built; a
        # standalone recalibrate or evaluate refits it once in memory
        path = write_config(tmp_path, small_config())
        fits = _counting(monkeypatch, "stepwise_fit")
        argv = ["--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv + (["--stage", stage] if stage else [])) == 0
        assert len(fits) == 1

    @pytest.mark.parametrize("scaling", [False, True])
    def test_fit_stage_fits_the_full_model_once(self, tmp_path, monkeypatch, scaling):
        # optimal scaling ends with the full OLS fit on its quantifications,
        # and the fit stage takes that model instead of fitting it again
        config = small_config()
        config["regression"]["stepwise"] = False
        if not scaling:
            config["regression"]["candidates"].remove("dev_type")
            del config["regression"]["scaling"]
        cfg = load_config(write_config(tmp_path, config), out_override=str(tmp_path / "out"))
        fits = []
        original = regression.ols_fit

        def counting(*args, **kwargs):
            fits.append(list(args[2]))
            return original(*args, **kwargs)

        monkeypatch.setattr(regression, "ols_fit", counting)
        monkeypatch.setattr(pipeline, "ols_fit", counting)
        report = run_stage("fit", cfg)
        assert report["optimal_scaling"]["enabled"] is scaling
        assert fits == [config["regression"]["candidates"]]

    def test_training_record_built_only_by_train_recalibration(self, tmp_path, monkeypatch):
        # resampling splits take the consequents alone; the recalibrate
        # stage's one training is the only one that records a trace
        traces = []
        original = recalibration.TrainingTrace

        def counting(*args, **kwargs):
            traces.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(recalibration, "TrainingTrace", counting)
        trainings = _counting(monkeypatch, "train_recalibration")
        report = run_pipeline(load_small(tmp_path))
        assert len(report["cross_validation"][0]["rows"]) == 4
        assert len(trainings) == 1
        assert len(traces) == len(trainings)

    def test_failed_run_reports_its_finished_stages(self, tmp_path):
        # six rows are too few to fit; the report of an earlier run in the
        # same directory must not survive as this run's
        run_pipeline(load_small(tmp_path))
        cfg = load_small(tmp_path, data={"synthetic": {"n": 6, "noise_sd": 0.5}})
        with pytest.raises(DataError, match="^step 'fit'"):
            run_pipeline(cfg)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["provenance"] == cfg.provenance()
        assert report["synthetic_data"]["rows"] == 6
        assert "model_tree" in report and "regression" not in report

    def test_evaluate_calls_each_protocol_by_name(self, tmp_path, monkeypatch):
        # perfbench's evaluation spans and rows_scored count the calls of
        # these three names: one per k, one per train fraction, and one
        # resubstitution
        cfg = load_small(tmp_path, evaluation={
            "k_values": [4, 2], "train_fractions": [0.8, 0.6, 0.7], "repetitions": 2,
        })
        calls = {
            name: _counting(monkeypatch, name)
            for name in ("cross_validate", "random_split_experiment", "resubstitution_experiment")
        }
        run_pipeline(cfg)
        assert [args[2] for args in calls["cross_validate"]] == [4, 2]
        assert [args[2] for args in calls["random_split_experiment"]] == [0.8, 0.6, 0.7]
        assert len(calls["resubstitution_experiment"]) == 1

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_each_stage_goes_through_module_run_stage(self, tmp_path, monkeypatch, source):
        # perfbench times each stage by rebinding pipeline.run_stage
        cfg = load_small(tmp_path) if source == "synthetic" else _csv_cfg(tmp_path)
        calls = _counting(monkeypatch, "run_stage")
        run_pipeline(cfg)
        expected = STAGES if source == "synthetic" else STAGES[1:]
        assert [args[0] for args in calls] == list(expected)

    def test_stage_files_of_another_source_left_out(self, tmp_path):
        run_pipeline(load_small(tmp_path))
        cfg = _csv_cfg(tmp_path)
        run_stage("prepare", cfg)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["provenance"]["data_source"]["kind"] == "csv"
        assert sorted(report) == ["data_preparation", "normality", "provenance"]

    def test_prepared_csv_of_another_config_recomputed(self, tmp_path):
        filtered = small_config(filters=[{"kind": "range", "variable": "fp", "low": 100}])
        path_a = write_config(tmp_path, filtered, "a.json")
        path_b = write_config(tmp_path, small_config(), "b.json")
        mixed = str(tmp_path / "mixed")
        prep = run_stage("prepare", load_config(path_a, out_override=mixed))
        assert prep["data_preparation"]["rows_after_filters"] < 64
        staged = run_stage("screen", load_config(path_b, out_override=mixed))
        mono = run_pipeline(load_config(path_b, out_override=str(tmp_path / "mono")))
        for section in STAGE_SECTIONS["screen"]:
            assert staged[section] == mono[section], section

    def test_stage_after_synth_of_another_seed_regenerates_its_source(self, tmp_path):
        path = write_config(tmp_path, small_config())
        mixed = str(tmp_path / "mixed")
        run_stage("synth", load_config(path, out_override=mixed, seed_override=1))
        code = main(["--config", str(path), "--out", mixed, "--stage", "prepare", "--seed", "2"])
        assert code == 0
        staged = json.loads((tmp_path / "mixed" / "report.json").read_text())
        mono = run_pipeline(
            load_config(path, out_override=str(tmp_path / "mono"), seed_override=2)
        )
        for section in STAGE_SECTIONS["prepare"]:
            assert staged[section] == mono[section], section

    def test_whole_synthetic_run_writes_one_table_of_its_rows(self, tmp_path, monkeypatch):
        writes = _counting(monkeypatch, "serialize_csv")
        run_pipeline(load_small(tmp_path))
        names = [Path(args[1].name).name.partition(".csv.")[0] for args in writes]
        assert names == ["prepared", "qq"]

    def test_synth_stage_writes_only_the_report(self, tmp_path):
        report = run_stage("synth", load_small(tmp_path))
        assert sorted(report) == ["provenance", "synthetic_data"]
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["report.json"]

    @pytest.mark.parametrize(
        "text", ['{"provenance": {"config_h', "[1, 2]", '{"provenance": [1]}'],
        ids=["truncated", "array", "provenance-not-an-object"],
    )
    def test_report_that_is_not_a_report_is_started_anew(self, tmp_path, text):
        # such a file records no config hash, so it is not this config's report
        cfg = load_small(tmp_path)
        path = tmp_path / "out" / "report.json"
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
        report = run_stage("prepare", cfg)
        assert sorted(report) == ["data_preparation", "normality", "provenance"]
        assert json.loads(path.read_text(encoding="utf-8")) == report

    def test_nan_raises_and_writes_nothing(self, tmp_path):
        with pytest.raises(NumericalError, match="report.json"):
            _write_json(tmp_path / "report.json", {"section": {"value": float("nan")}})
        assert list(tmp_path.iterdir()) == []

    def test_nan_section_fails_its_stage(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            pipeline._STAGE_FUNCS, "screen", lambda run: {"rank_correlations": math.inf}
        )
        with pytest.raises(NumericalError, match="^step 'screen': .*report.json"):
            run_stage("screen", load_small(tmp_path))
        assert list((tmp_path / "out").iterdir()) == []

    def test_nan_section_fails_its_stage_in_a_pipeline_run(self, tmp_path, monkeypatch):
        # the stage fails before its sections enter the report, so the one
        # write holds exactly the stages before it
        monkeypatch.setitem(
            pipeline._STAGE_FUNCS, "tree", lambda run: {"model_tree": [1.0, math.nan]}
        )
        cfg = load_small(tmp_path)
        with pytest.raises(NumericalError, match="^step 'tree': .*report.json"):
            run_pipeline(cfg)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        earlier = ("synth", "prepare", "screen")
        assert sorted(report) == sorted(
            ["provenance", *(s for stage in earlier for s in STAGE_SECTIONS[stage])]
        )


class TestSynthSection:
    @pytest.mark.parametrize("n", [64, 2000])
    @pytest.mark.parametrize("seed", [20260822, 31415926])
    def test_measured_from_the_generated_table(self, tmp_path, n, seed):
        cfg = load_small(tmp_path, data={"synthetic": {"n": n, "noise_sd": 0.5}}, seed=seed)
        section = run_stage("synth", cfg)["synthetic_data"]
        ds = generate_synthetic(cfg.synthetic, cfg.seed)
        # ranks of the log-scale columns, as the generator draws them
        ln_fp = np.log(ds.columns["fp"])
        labels = ds.labels("dev_type")
        assert section == {
            "rows": n,
            "seed": seed,
            "achieved_spearman_fp_efforts": spearman(ln_fp, np.log(ds.columns["efforts"])).rho,
            "achieved_spearman_fp_team": spearman(ln_fp, ds.columns["max_team_size"]).rho,
            "dev_type_counts": {label: labels.count(label) for label in sorted(set(labels))},
        }

    def test_constant_team_column_reports_null(self, tmp_path, capsys):
        # a generated column without rank variance used to fail every stage
        # that regenerates the source, though no stage but synth measures it
        config = json.loads(REPO_FIXTURE.read_text(encoding="utf-8"))
        config["data"]["synthetic"]["team_ln_sd"] = 1e-6
        config["regression"]["candidates"].remove("max_team_size")
        path = write_config(tmp_path, config)
        assert main(["--config", str(path), "--out", str(tmp_path / "whole")]) == 0
        report = json.loads((tmp_path / "whole" / "report.json").read_text())
        assert report["synthetic_data"]["achieved_spearman_fp_team"] is None
        assert report["synthetic_data"]["achieved_spearman_fp_efforts"] is not None
        argv = ["--config", str(path), "--out", str(tmp_path / "staged"), "--stage", "fit"]
        assert main(argv) == 0


class TestOutputDirectory:
    """A run that starts a new report leaves no file of an earlier run."""

    def test_whole_run_removes_files_of_an_earlier_run(self, tmp_path):
        config = json.loads(REPO_FIXTURE.read_text(encoding="utf-8"))
        out = tmp_path / "out"
        run_pipeline(load_config(write_config(tmp_path, config, "a.json"), out_override=str(out)))
        assert (out / "tree.txt").is_file() and (out / "recalibration.json").is_file()
        config["tree"]["enabled"] = False
        config["recalibration"]["enabled"] = False
        run_pipeline(load_config(write_config(tmp_path, config, "b.json"), out_override=str(out)))
        assert sorted(p.name for p in out.iterdir()) == [
            "model.json", "prepared.csv", "prepared.schema.json", "qq.csv", "report.json",
        ]

    def test_failed_run_leaves_only_the_files_of_its_finished_stages(self, tmp_path):
        run_pipeline(load_small(tmp_path))
        cfg = load_small(tmp_path, data={"synthetic": {"n": 6, "noise_sd": 0.5}})
        with pytest.raises(DataError, match="^step 'fit'"):
            run_pipeline(cfg)
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "prepared.csv", "prepared.schema.json", "qq.csv", "report.json", "tree.txt",
        ]
        sidecar = json.loads((out / "prepared.schema.json").read_text())
        assert sidecar["provenance"] == cfg.provenance()

    def test_stage_starting_a_new_report_removes_earlier_files(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 0
        argv = ["--config", str(path), "--out", str(out), "--stage", "prepare", "--seed", "7"]
        assert main(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "prepared.csv", "prepared.schema.json", "qq.csv", "report.json",
        ]
        # the next stage of the same run keeps them
        assert main(argv[:-3] + ["tree", "--seed", "7"]) == 0
        assert (out / "prepared.csv").is_file() and (out / "tree.txt").is_file()

    @pytest.mark.parametrize("stage", [None, "prepare"])
    @pytest.mark.parametrize("below", [False, True])
    def test_output_path_that_is_a_file_is_a_config_error(self, tmp_path, capsys, stage, below):
        # --out naming a file, or a directory under one, once raised
        # NotADirectoryError (whole run) or FileExistsError (a stage)
        path = write_config(tmp_path, small_config())
        blocker = tmp_path / "afile"
        blocker.write_text("mine", encoding="utf-8")
        out = blocker / "sub" if below else blocker
        argv = ["--config", str(path), "--out", str(out)]
        assert main(argv + (["--stage", stage] if stage else [])) == 1
        assert capsys.readouterr().err == (
            f"defectcast: output path {str(blocker)!r} is not a directory\n"
        )
        assert blocker.read_text(encoding="utf-8") == "mine"

    def test_other_files_left_alone(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("mine", encoding="utf-8")
        run_pipeline(load_small(tmp_path))
        run_stage("prepare", load_small(tmp_path, seed=7))
        assert (out / "notes.txt").read_text(encoding="utf-8") == "mine"

    def test_stage_on_changed_data_starts_a_new_report(self, tmp_path):
        # the config is unchanged, so only the data digest tells that the
        # fit stage reads other rows than the prepare stage did
        data = tmp_path / "projects.csv"
        lines = (FIXTURES / "projects.csv").read_text(encoding="utf-8").splitlines(True)
        data.write_text("".join(lines), encoding="utf-8")
        cfg = load_config(_fixture_csv_config(tmp_path, data), out_override=str(tmp_path / "out"))
        run_stage("prepare", cfg)
        data.write_text("".join(lines[:30]), encoding="utf-8")
        report = run_stage("fit", cfg)
        assert sorted(report) == sorted(["provenance", *STAGE_SECTIONS["fit"]])
        digest = hashlib.sha256(data.read_bytes()).hexdigest()
        assert report["provenance"]["data_source"]["sha256"] == digest
        model = json.loads((tmp_path / "out" / "model.json").read_text())
        assert model["provenance"] == report["provenance"]
        assert not (tmp_path / "out" / "prepared.csv").exists()

    def test_synthetic_source_has_no_digest(self, tmp_path):
        assert load_small(tmp_path).provenance()["data_source"] == {"kind": "synthetic", "n": 64}


_FILTERS = [
    [],
    [{"kind": "range", "variable": "fp", "low": 60}],
    [{"kind": "in_set", "variable": "vaf", "labels": ["0.65", "0.90", "1.00", "1.10"]}],
    [{"kind": "non_missing", "variable": "efforts"}],
]


def _outcome(action, out_dir: Path):
    """``report.json`` and ``model.json`` bytes after ``action``, or the error."""
    try:
        action()
    except DefectcastError as err:
        return type(err).__name__, str(err)
    return tuple(
        (out_dir / name).read_bytes() if (out_dir / name).is_file() else None
        for name in ("report.json", "model.json")
    )


@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(40, 64),
    seed=st.integers(0, 2**31 - 1),
    stepwise=st.booleans(),
    scale_vaf=st.booleans(),
    tree=st.booleans(),
    recalibrate=st.booleans(),
    filters=st.sampled_from(_FILTERS),
    merge=st.booleans(),
)
def test_staged_report_equals_monolithic(
    n, seed, stepwise, scale_vaf, tree, recalibrate, filters, merge
):
    config = small_config(
        data={"synthetic": {"n": n, "noise_sd": 0.5}},
        tree={"enabled": tree},
        recalibration={"enabled": recalibrate},
        filters=filters,
        seed=seed,
    )
    config["regression"].update(
        stepwise=stepwise,
        scaling={"dev_type": "nominal", **({"vaf": "ordinal"} if scale_vaf else {})},
    )
    if merge:
        config["merges"] = [
            {"variable": "dev_type", "pairs": [["New Development", "Re-development"]]}
        ]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = write_config(tmp, config)
        mono = load_config(path, out_override=str(tmp / "mono"))
        staged = load_config(path, out_override=str(tmp / "staged"))

        def each_stage():
            for stage in STAGES:
                run_stage(stage, staged)

        expected = _outcome(lambda: run_pipeline(mono), tmp / "mono")
        assert _outcome(each_stage, tmp / "staged") == expected


# ---------------------------------------------------------------------------
# categories that filters leave without rows
# ---------------------------------------------------------------------------

_VAF_LABELS = ["0.65", "0.90", "1.00", "1.10", "1.35"]


def _fixture_csv_config(tmp_path, data=FIXTURES / "projects.csv", filters=None) -> Path:
    """``fixtures/csv_config.json`` on ``data``, with ``filters`` in place of
    its own when given."""
    config = json.loads((FIXTURES / "csv_config.json").read_text(encoding="utf-8"))
    config["data"]["path"] = str(data)
    if filters is not None:
        config["filters"] = filters
    return write_config(tmp_path, config)


class TestEmptiedCategory:
    @pytest.mark.parametrize(
        "filters, dropped",
        [
            (
                [
                    {"kind": "range", "variable": "fp", "low": 20},
                    {"kind": "in_set", "variable": "vaf", "labels": _VAF_LABELS[1:]},
                ],
                "0.65",
            ),
            ([{"kind": "range", "variable": "fp", "low": 400}], "1.35"),
        ],
    )
    def test_filtered_out_category_is_dropped(self, tmp_path, filters, dropped):
        # the category keeps its declared place but no row: the run goes on
        # without it instead of stopping at 'fit' with zero training rows
        out = tmp_path / "out"
        path = _fixture_csv_config(tmp_path, filters=filters)
        assert main(["--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        kept = [label for label in _VAF_LABELS if label != dropped]
        assert report["data_preparation"]["dropped_categories"] == {"vaf": [dropped]}
        assert list(report["group_screening"]["anova"]["vaf"]["group_counts"]) == kept
        assert list(report["regression"]["selected_model"]["codings"]["vaf"]) == kept
        schema = json.loads((out / "prepared.schema.json").read_text())["schema"]
        assert next(s for s in schema if s["name"] == "vaf")["categories"] == kept

    def test_category_with_only_incomplete_rows_is_dropped(self, tmp_path):
        # catreg fits on the rows complete over every candidate: without the
        # six 1.35 rows that have efforts, the one left lacks efforts, so
        # prepare drops 1.35 and empties that row's cell
        header, *lines = _PROJECT_LINES
        rows = [line for line in lines if not (line.endswith(",1.35") and line.split(",")[2])]
        assert len(rows) == 44
        data = tmp_path / "incomplete.csv"
        data.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "out"
        path = _fixture_csv_config(tmp_path, data)
        assert main(["--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["data_preparation"]["dropped_categories"] == {"vaf": ["1.35"]}
        assert list(report["regression"]["selected_model"]["codings"]["vaf"]) == _VAF_LABELS[:-1]

    def test_nothing_dropped_writes_no_key(self, tmp_path):
        report = run_pipeline(
            load_config(_fixture_csv_config(tmp_path), out_override=str(tmp_path / "out"))
        )
        assert "dropped_categories" not in report["data_preparation"]


_PROJECT_LINES = (FIXTURES / "projects.csv").read_text(encoding="utf-8").splitlines()


def test_overflowing_prediction_fails_the_evaluate_step(tmp_path, capsys):
    # one x far outside the rest: the fold that holds it extrapolates to
    # about 2e6 on the ln scale, which has no finite count
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, 40)
    defects = np.exp(1.0 + 2.0 * x + rng.normal(0.0, 0.1, 40))
    x[0], defects[0] = 1e6, 10.0
    data = tmp_path / "extrapolated.csv"
    data.write_text(
        "defects,x\n" + "".join(f"{d!r},{v!r}\n" for d, v in zip(defects.tolist(), x.tolist()))
    )
    config = {
        "data": {"path": str(data)},
        "schema": [{"name": "defects", "role": "response", "transform": "ln"}, {"name": "x"}],
        "regression": {"response": "defects", "candidates": ["x"], "stepwise": False},
        "tree": {"enabled": False},
        "recalibration": {"enabled": False},
        "evaluation": {"k_values": [4]},
        "seed": 20260822,
    }
    path = write_config(tmp_path, config)
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "step 'evaluate': back-transform overflows: model-scale value 2098345." in err


@settings(max_examples=40, deadline=None)
@given(rows=st.sets(st.integers(0, len(_PROJECT_LINES) - 2), min_size=5))
def test_any_row_subset_ends_in_a_report_or_a_defectcast_error(rows):
    # any subset of the project rows, with the fixture's filter and merge,
    # either runs to a report or stops with the package's own error
    header, *lines = _PROJECT_LINES
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "subset.csv"
        data.write_text("\n".join([header, *(lines[i] for i in sorted(rows))]) + "\n")
        cfg = load_config(_fixture_csv_config(tmp, data), out_override=str(tmp / "out"))
        try:
            report = run_pipeline(cfg)
        except DefectcastError:
            return
        assert report["resubstitution"]["rows"][0]["n_test"] >= 1
