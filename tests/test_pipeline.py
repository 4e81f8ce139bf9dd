"""Config loading, stage orchestration, CLI exit codes, report invariants."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectcast import pipeline
from defectcast._errors import ConfigError, DataError, DefectcastError, NumericalError
from defectcast.cli import main
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

REPO_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "synthetic_config.json"


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

    def test_unknown_variable_references_rejected(self, tmp_path):
        config = small_config()
        config["regression"]["candidates"] = ["fp", "nonexistent"]
        with pytest.raises(ConfigError, match="nonexistent"):
            load_config(write_config(tmp_path, config))

        config = small_config()
        config["filters"] = [{"kind": "non_missing", "variable": "ghost"}]
        with pytest.raises(ConfigError, match="ghost"):
            load_config(write_config(tmp_path, config))

    def test_scaling_must_target_candidates(self, tmp_path):
        config = small_config()
        config["regression"]["scaling"] = {"defects": "nominal"}
        with pytest.raises(ConfigError, match="defects"):
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
            "synthetic.csv",
            "synthetic.schema.json",
        ):
            assert (out / name).is_file(), name
        on_disk = json.loads((out / "report.json").read_text())
        assert set(on_disk) == EXPECTED_SECTIONS

    def test_reruns_byte_identical(self, tmp_path):
        run_pipeline(load_small(tmp_path, out="a"))
        run_pipeline(load_small(tmp_path, out="b"))
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

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

    def test_recalibration_resubstitution_matches_evaluate(self, tmp_path):
        report = run_pipeline(load_config(REPO_FIXTURE, out_override=str(tmp_path / "out")))
        recal = report["recalibration"]["resubstitution_mmre"]
        resub = report["resubstitution"]["averages"]
        assert recal["baseline"] == resub["baseline_mmre"]
        assert recal["recalibrated"] == resub["recalibrated_mmre"]
        assert recal["improvement_pct"] == resub["improvement_pct"]

    def test_recalibration_resubstitution_differs_when_stepwise_drops_holed_candidate(
        self, tmp_path
    ):
        # the selected model is fit on the 102 rows complete over every
        # candidate; evaluate refits it on the 120 rows complete over the
        # selected predictors, so the two resubstitution MMREs part
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
        recal = report["recalibration"]["resubstitution_mmre"]["baseline"]
        resub = report["resubstitution"]["averages"]["baseline_mmre"]
        assert recal == pytest.approx(0.278623, abs=1e-6)
        assert resub == pytest.approx(0.280808, abs=1e-6)

    def test_zero_count_under_ln1p_is_a_data_error(self, tmp_path):
        # ln1p admits zero counts, but relative error against a zero actual
        # is undefined; recalibrate used to report Infinity/NaN here
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
        cfg = load_config(write_config(tmp_path, config), out_override=str(tmp_path / "out"))
        with pytest.raises(DataError, match="^step 'recalibrate': nonpositive actual value"):
            run_pipeline(cfg)
        assert not (tmp_path / "out" / "recalibration.json").exists()

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
        code = main(["--config", str(path_c), "--out", str(mixed), "--stage", "evaluate"])
        assert code == 0
        mono = run_pipeline(load_config(path_c, out_override=str(tmp_path / "mono")))
        fitted_b = json.loads((mixed / "model.json").read_text())["model"]
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
        assert sidecar["provenance"] == cfg.provenance()
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
        resub = report["recalibration"]["resubstitution_mmre"]
        assert f"MMRE {resub['baseline']:.4f}" in text
        cv = report["cross_validation"][0]["averages"]
        assert f"MMRE {cv['baseline_mmre']:.4f}" in text
        norm = report["normality"]
        assert f"{norm['qq_correlation_transformed']:.4f} transformed" in text
        assert str(report["provenance"]["seed"]) in text


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
            assert [Path(args[0]).name for args in loads] == data_files, stage
            assert sorted(set(reads)) == sorted(["report.json", *data_files]), stage

    def test_synthetic_run_parses_no_csv(self, tmp_path, monkeypatch):
        loads = _counting(monkeypatch, "load_csv")
        run_pipeline(load_small(tmp_path))
        assert loads == []

    def test_csv_run_parses_its_data_file_once(self, tmp_path, monkeypatch):
        cfg = _csv_cfg(tmp_path)
        loads = _counting(monkeypatch, "load_csv")
        run_pipeline(cfg)
        assert [Path(args[0]).name for args in loads] == ["proj.csv"]

    def test_report_written_once_per_run(self, tmp_path, monkeypatch):
        writes = _counting(monkeypatch, "_atomic_write")
        report = run_pipeline(load_small(tmp_path))
        names = [args[0].name for args in writes]
        assert names.count("report.json") == 1
        assert names[-1] == "report.json"
        assert report == json.loads((tmp_path / "out" / "report.json").read_text())

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

    def test_synthetic_csv_of_another_seed_regenerated(self, tmp_path):
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
