"""The benchmark's workloads: generated inputs, stage calls and report checks.

Every input is a pure function of the workload seed.  Paths written into a
config are relative to the checkout root, because the CSV path enters the
report's provenance hash: an absolute path would make two checkouts of the
same code disagree on the report digest.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIXTURE = Path("fixtures/synthetic_config.json")

# Report sections each stage promises (README, "Pipeline stages and artifacts").
STAGE_SECTIONS = {
    "synth": ("synthetic_data",),
    "prepare": ("data_preparation", "normality"),
    "screen": ("rank_correlations", "group_screening"),
    "tree": ("model_tree",),
    "fit": ("optimal_scaling", "regression", "stepwise"),
    "recalibrate": ("recalibration",),
    "evaluate": ("resubstitution", "cross_validation", "random_splits"),
}
ALL_STAGES = tuple(STAGE_SECTIONS)

DEV_TYPES = ("New Development", "Re-development", "Enhancement")
VAF_LEVELS = ("0.65", "0.90", "1.00", "1.10", "1.35")


@dataclass(frozen=True)
class Plan:
    """What one iteration of a workload runs and what its report must show."""

    config: str  # relative to the checkout root
    out_dir: str  # relative to the checkout root
    stages: tuple[str, ...]
    one_call: bool  # True: one run_pipeline call; False: one run_stage per stage
    expect: dict  # workload-specific facts the report must state


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _full_2000(seed: int, work: Path) -> Plan:
    doc = _fixture()
    doc["data"]["synthetic"]["n"] = 2000
    doc["seed"] = seed
    doc["output_dir"] = str(work / "out")
    _write_json(work / "config.json", doc)
    return Plan(
        str(work / "config.json"), doc["output_dir"], ALL_STAGES, True,
        {"rows": 2000, "k_values": [8, 4], "train_fractions": [0.6, 0.7, 0.8],
         "repetitions": 10},
    )


def _resample_64(seed: int, work: Path) -> Plan:
    doc = _fixture()
    doc["evaluation"].update(
        k_values=[8, 4, 2], train_fractions=[0.5, 0.6, 0.7, 0.8, 0.9], repetitions=150
    )
    doc["seed"] = seed
    doc["output_dir"] = str(work / "out")
    _write_json(work / "config.json", doc)
    return Plan(
        str(work / "config.json"), doc["output_dir"], ALL_STAGES, True,
        {"rows": 64, "k_values": [8, 4, 2],
         "train_fractions": [0.5, 0.6, 0.7, 0.8, 0.9], "repetitions": 150},
    )


def _project_rows(n: int, seed: int) -> list[list[str]]:
    """Projects drawn from the paper's log-linear model form.

    About 2% of projects fall under the 20 function-point filter floor and
    1% have no recorded effort, so filters and listwise deletion both drop
    rows.
    """
    rng = np.random.default_rng(seed)
    z_fp = rng.standard_normal(n)
    ln_fp = 5.0 + z_fp
    ln_eff = 7.5 + 1.1 * (0.6 * z_fp + 0.8 * rng.standard_normal(n))
    team = np.maximum(1.0, np.rint(np.exp(1.5 + 0.7 * (0.2 * z_fp + 0.98 * rng.standard_normal(n)))))
    dev = rng.choice(len(DEV_TYPES), size=n, p=[0.35, 0.10, 0.55])
    vaf = rng.integers(0, len(VAF_LEVELS), size=n)
    vaf_value = np.array([float(VAF_LEVELS[v]) for v in vaf])
    ln_defects = (
        -5.939 + 0.704 * ln_fp + 6.011 * vaf_value - 1.480 * (dev == 2)
        + 0.5 * rng.standard_normal(n)
    )
    effort_missing = rng.random(n) < 0.01
    rows = []
    for i in range(n):
        rows.append([
            repr(float(math.exp(ln_defects[i]))),
            repr(float(math.exp(ln_fp[i]))),
            "" if effort_missing[i] else repr(float(math.exp(ln_eff[i]))),
            repr(float(team[i])),
            DEV_TYPES[dev[i]],
            VAF_LEVELS[vaf[i]],
        ])
    return rows


def _fit_8000(seed: int, work: Path) -> Plan:
    rows = _project_rows(8000, seed)
    data = work / "projects.csv"
    with open(data, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["defects", "fp", "efforts", "max_team_size", "dev_type", "vaf"])
        writer.writerows(rows)
    fixture = _fixture()
    doc = {
        "data": {"path": str(data)},
        "schema": [
            {"name": "defects", "role": "response", "transform": "ln"},
            {"name": "fp", "transform": "ln"},
            {"name": "efforts", "transform": "ln"},
            {"name": "max_team_size"},
            {"name": "dev_type", "kind": "categorical", "categories": list(DEV_TYPES)},
            {"name": "vaf", "kind": "categorical", "categories": list(VAF_LEVELS)},
        ],
        "filters": [{"kind": "range", "variable": "fp", "low": 20}],
        "merges": [{"variable": "dev_type", "pairs": [["New Development", "Re-development"]]}],
        "screening": fixture["screening"],
        "tree": fixture["tree"],
        "regression": fixture["regression"],
        "seed": seed,
        "output_dir": str(work / "out"),
    }
    _write_json(work / "config.json", doc)
    kept = sum(1 for r in rows if float(r[1]) >= 20.0)
    complete = sum(1 for r in rows if float(r[1]) >= 20.0 and r[2] != "")
    return Plan(
        str(work / "config.json"), doc["output_dir"],
        ("prepare", "screen", "tree", "fit"), False,
        {"rows": 8000, "rows_after_filters": kept, "rows_complete": complete,
         "merged_label": "New Development+Re-development"},
    )


def build_warmup(work: Path) -> str:
    """A small whole-pipeline config that touches every stage; returns its path."""
    work.mkdir(parents=True, exist_ok=True)
    doc = _fixture()
    doc["evaluation"].update(k_values=[4], train_fractions=[0.7], repetitions=2)
    doc["output_dir"] = str(work / "out")
    _write_json(work / "config.json", doc)
    return str(work / "config.json")


BUILDERS = {"full-2000": _full_2000, "fit-8000": _fit_8000, "resample-64": _resample_64}


def build(name: str, seed: int, work: Path) -> Plan:
    """Write the workload's config (and data) under ``work`` and return its plan."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, work)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _error_metrics(node, path: str, problems: list[str]) -> None:
    """Every MMRE must be finite and >= 0, every Pred in [0, 1]."""
    if isinstance(node, list):
        for i, item in enumerate(node):
            _error_metrics(item, f"{path}[{i}]", problems)
        return
    if not isinstance(node, dict):
        return
    for key, value in node.items():
        where = f"{path}/{key}"
        if key.endswith("_pred") and value is not None:
            for m, p in value.items():
                if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
                    problems.append(f"{where}/{m} = {p!r} is not in [0, 1]")
        elif key.endswith("_mmre") and isinstance(value, (int, float)):
            if not (math.isfinite(value) and value >= 0.0):
                problems.append(f"{where} = {value!r} is not a finite MMRE >= 0")
        elif key == "resubstitution_mmre":
            for name in ("baseline", "recalibrated"):
                v = value.get(name)
                if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0):
                    problems.append(f"{where}/{name} = {v!r} is not a finite MMRE >= 0")
        else:
            _error_metrics(value, where, problems)


def check_report(plan: Plan, report: dict) -> list[str]:
    """Problems with one report; an empty list means it passes."""
    problems = []
    for stage in plan.stages:
        for section in STAGE_SECTIONS[stage]:
            if section not in report:
                problems.append(f"section {section!r} of stage {stage!r} is missing")
    if "provenance" not in report:
        problems.append("provenance block is missing")
    if problems:
        return problems
    _error_metrics(report, "", problems)

    exp = plan.expect
    prep = report["data_preparation"]
    if prep["rows_loaded"] != exp["rows"]:
        problems.append(f"rows_loaded {prep['rows_loaded']} != {exp['rows']}")
    if "rows_after_filters" in exp:
        for key in ("rows_after_filters", "rows_complete"):
            if prep[key] != exp[key]:
                problems.append(f"{key} {prep[key]} != {exp[key]}")
        quants = report["optimal_scaling"].get("quantifications", {})
        if exp["merged_label"] not in quants.get("dev_type", {}):
            problems.append("dev_type quantification lacks the merged category")
    if "k_values" in exp:
        ks = [e["parameters"]["k"] for e in report["cross_validation"]]
        fractions = [e["parameters"]["train_fraction"] for e in report["random_splits"]]
        reps = {e["parameters"]["repetitions"] for e in report["random_splits"]}
        if ks != exp["k_values"] or fractions != exp["train_fractions"] or reps != {exp["repetitions"]}:
            problems.append(f"evaluation ran k={ks}, fractions={fractions}, repetitions={reps}")
        if report["resubstitution"]["parameters"]["n"] != exp["rows"]:
            problems.append("resubstitution did not score every row")
    r2 = report["regression"]["selected_model"]["r_squared"]
    if not (0.0 <= r2 <= 1.0):
        problems.append(f"selected model R^2 {r2!r} is not in [0, 1]")
    if report["model_tree"]["leaf_count"] < 1:
        problems.append("model tree has no leaves")
    return problems
