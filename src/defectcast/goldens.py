"""Pinned outcome fixtures with explicit bases and tolerances.

The manifest (``goldens_manifest.json``, shipped inside the package) records
a small set of expected outcomes.  Every fixture carries a ``basis`` tag
saying where its expected values come from:

* ``external-reference``: constants adopted from outside reference
  material (e.g. the bundled reference coefficients),
* ``hand-derived``: worked out by hand from the definitions,
* ``definitional``: restates a definition or exact arithmetic identity,
* ``pinned-run``: snapshot of a deterministic run of this package.

``verify_goldens`` recomputes each fixture from scratch and diffs the
result against the manifest field by field; drift is reported with named
fields and per-field deltas.  The whole manifest is regenerable with::

    python3 -m defectcast.goldens

which recomputes every expected block and rewrites the file in place.
"""

from __future__ import annotations

import argparse
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._errors import ConfigError, DataError
from .dataset import Dataset, VariableSpec
from .evaluation import DEFAULT_COEFFICIENTS, kfold_plan, mmre, pred_at, raw_counts
from .pipeline import load_config, run_pipeline
from .regression import LinearModel, ModelTerm, model_predict
from .transform import compute_vaf

MANIFEST_PATH = Path(__file__).with_name("goldens_manifest.json")

REGENERATE_COMMAND = "python3 -m defectcast.goldens"

ALLOWED_BASES = ("external-reference", "hand-derived", "definitional", "pinned-run")


def reference_model() -> LinearModel:
    """The bundled reference model as a ready-to-use LinearModel.

    Coefficients live on the ln(defects) scale; the size predictor enters
    ln-transformed and development type is coded 0/0/1 with enhancements
    as the indicated category.  Inferential fields are zeroed because the
    coefficients are adopted, not fitted here.
    """
    c = DEFAULT_COEFFICIENTS
    zeros = (0.0, 0.0, 0.0, 0.0)
    return LinearModel(
        response="defects",
        response_transform="ln",
        intercept=c.intercept,
        intercept_p=0.0,
        terms=(
            ModelTerm("fp", c.fp_ln, *zeros),
            ModelTerm("vaf", c.vaf, *zeros),
            ModelTerm("dev_type", c.enhancement, *zeros),
        ),
        r_squared=0.0,
        n=0,
        codings={
            "dev_type": {
                "New Development": 0.0,
                "Re-development": 0.0,
                "Enhancement": 1.0,
            }
        },
    )


def reference_prediction(fp: float, vaf: float, dev_type: str) -> float:
    """Predicted raw defect count from the reference model at one project:
    ``model_predict`` on a one-row table of its ln(fp), vaf and
    development type, taken to counts by ``raw_counts``."""
    model = reference_model()
    dev_types = tuple(model.codings["dev_type"])
    if dev_type not in dev_types:
        raise DataError(f"unknown development type {dev_type!r}")
    schema = [VariableSpec(name, "predictor", "numeric") for name in ("fp", "vaf")]
    schema.append(VariableSpec("dev_type", "predictor", "categorical", categories=dev_types))
    values = {"fp": math.log(fp), "vaf": vaf, "dev_type": dev_types.index(dev_type)}
    project = Dataset(schema, {name: np.array([v]) for name, v in values.items()})
    return float(raw_counts(model_predict(model, project), "ln")[0])


# ---------------------------------------------------------------------------
# fixture definitions and recomputation
# ---------------------------------------------------------------------------


def _expected_reference_prediction(inputs: dict) -> dict:
    return {
        "predicted_defects": reference_prediction(
            inputs["fp"], inputs["vaf"], inputs["dev_type"]
        )
    }


def _expected_vaf_endpoints(inputs: dict) -> dict:
    return {
        "all_zero": compute_vaf([0] * 14),
        "all_five": compute_vaf([5] * 14),
    }


def _expected_error_metrics(inputs: dict) -> dict:
    actual = [float(v) for v in inputs["actual"]]
    predicted = [float(v) for v in inputs["predicted"]]
    return {
        "mmre": mmre(actual, predicted),
        "pred": pred_at(actual, predicted, inputs["threshold"]),
    }


def _expected_fold_balance(inputs: dict) -> dict:
    plan = kfold_plan(inputs["n"], inputs["k"], inputs["seed"])
    return {"fold_sizes": [len(plan.fold(i)) for i in range(inputs["k"])]}


def _expected_pipeline_smoke(inputs: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(inputs["config"]), encoding="utf-8")
        cfg = load_config(cfg_path, out_override=str(Path(tmp) / "out"))
        report = run_pipeline(cfg)
    model = report["regression"]["selected_model"]
    resub = report["resubstitution"]["averages"]
    return {
        "sections": sorted(report),
        "rows_complete": report["data_preparation"]["rows_complete"],
        "selected_variables": [t["variable"] for t in model["terms"]],
        "r_squared": model["r_squared"],
        "resubstitution_baseline_mmre": resub["baseline_mmre"],
        "resubstitution_recalibrated_mmre": resub["recalibrated_mmre"],
        "cv_baseline_mmre": report["cross_validation"][0]["averages"]["baseline_mmre"],
        "split_baseline_mmre": report["random_splits"][0]["averages"]["baseline_mmre"],
    }


_CHECKERS = {
    "reference_prediction": _expected_reference_prediction,
    "vaf_endpoints": _expected_vaf_endpoints,
    "error_metrics": _expected_error_metrics,
    "fold_balance": _expected_fold_balance,
    "pipeline_smoke": _expected_pipeline_smoke,
}

_SMOKE_CONFIG = {
    "data": {"synthetic": {"n": 64, "noise_sd": 0.5}},
    "regression": {
        "response": "defects",
        "candidates": ["fp", "efforts", "max_team_size", "dev_type", "vaf"],
        "stepwise": True,
        "scaling": {"dev_type": "nominal", "vaf": "ordinal"},
    },
    "recalibration": {"enabled": True},
    "evaluation": {"k_values": [4], "train_fractions": [0.8], "repetitions": 3},
    "seed": 20260822,
}

# name, kind, basis, description, inputs, tolerance
_FIXTURE_DEFS = (
    (
        "reference-prediction-walkthrough",
        "reference_prediction",
        "external-reference",
        "Reference coefficients at size 18, adjustment 0.65, new development;"
        " the documented expectation is a count near one (0.95 to 1.05).",
        {"fp": 18.0, "vaf": 0.65, "dev_type": "New Development"},
        1e-9,
    ),
    (
        "vaf-endpoints",
        "vaf_endpoints",
        "external-reference",
        "Adjustment factor at all-zero and all-five ratings; both ends exact.",
        {},
        0.0,
    ),
    (
        "error-metric-arithmetic",
        "error_metrics",
        "hand-derived",
        "MMRE and Pred(0.25) on a four-point example; both bit-rational.",
        {
            "actual": [100.0, 50.0, 20.0, 10.0],
            "predicted": [120.0, 40.0, 30.0, 10.0],
            "threshold": 0.25,
        },
        0.0,
    ),
    (
        "fold-balance",
        "fold_balance",
        "definitional",
        "An 8-way fold plan on 64 rows puts exactly 8 rows in every fold.",
        {"n": 64, "k": 8, "seed": 20260822},
        0.0,
    ),
    (
        "pipeline-smoke",
        "pipeline_smoke",
        "pinned-run",
        "Full batch run on the seeded synthetic config; key report numbers"
        " pinned from a deterministic run.",
        {"config": _SMOKE_CONFIG},
        1e-9,
    ),
)


@dataclass(frozen=True)
class GoldenFixture:
    name: str
    kind: str
    basis: str
    description: str
    inputs: dict
    expected: dict
    tolerance: float


@dataclass(frozen=True)
class FixtureResult:
    name: str
    passed: bool
    failures: tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.passed:
            return f"{self.name}: pass"
        return f"{self.name}: FAIL ({'; '.join(self.failures)})"


# ---------------------------------------------------------------------------
# manifest I/O and verification
# ---------------------------------------------------------------------------


def _fixture_from_entry(entry: dict) -> GoldenFixture:
    for key in ("name", "kind", "basis", "expected", "tolerance"):
        if key not in entry:
            raise ConfigError(f"golden fixture entry is missing {key!r}")
    name = entry["name"]
    if entry["basis"] not in ALLOWED_BASES:
        raise ConfigError(
            f"golden {name!r} has unrecognized basis {entry['basis']!r}; "
            f"allowed: {', '.join(ALLOWED_BASES)}"
        )
    if entry["kind"] not in _CHECKERS:
        raise ConfigError(f"golden {name!r} has unknown kind {entry['kind']!r}")
    return GoldenFixture(
        name=name,
        kind=entry["kind"],
        basis=entry["basis"],
        description=entry.get("description", ""),
        inputs=entry.get("inputs", {}),
        expected=entry["expected"],
        tolerance=float(entry["tolerance"]),
    )


def load_manifest(path: str | Path | None = None) -> tuple[GoldenFixture, ...]:
    path = MANIFEST_PATH if path is None else Path(path)
    if not path.is_file():
        raise ConfigError(f"goldens manifest not found: {path}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    return tuple(_fixture_from_entry(entry) for entry in doc["fixtures"])


def _compare(expected, actual, tolerance: float, path: str, failures: list) -> None:
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            failures.append(f"{path}: field set mismatch")
            return
        for key in sorted(expected):
            _compare(expected[key], actual[key], tolerance, f"{path}.{key}", failures)
    elif isinstance(expected, (list, tuple)):
        if not isinstance(actual, (list, tuple)) or len(expected) != len(actual):
            failures.append(f"{path}: length mismatch")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, tolerance, f"{path}[{i}]", failures)
    elif isinstance(expected, bool) or not isinstance(expected, (int, float)):
        if expected != actual:
            failures.append(f"{path}: expected {expected!r}, recomputed {actual!r}")
    else:
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            failures.append(f"{path}: expected a number, recomputed {actual!r}")
            return
        delta = abs(float(expected) - float(actual))
        if math.isnan(delta) or delta > tolerance:
            failures.append(
                f"{path}: expected {expected!r}, recomputed {actual!r} "
                f"(delta {delta:.3e} exceeds tolerance {tolerance:.1e})"
            )


def verify_fixture(fixture: GoldenFixture) -> FixtureResult:
    actual = _CHECKERS[fixture.kind](fixture.inputs)
    failures: list[str] = []
    _compare(fixture.expected, actual, fixture.tolerance, "expected", failures)
    return FixtureResult(fixture.name, not failures, tuple(failures))


def verify_goldens(manifest_path: str | Path | None = None) -> tuple[FixtureResult, ...]:
    """Recompute every golden and diff it against the manifest."""
    return tuple(verify_fixture(f) for f in load_manifest(manifest_path))


# ---------------------------------------------------------------------------
# regeneration
# ---------------------------------------------------------------------------


def build_manifest() -> dict:
    fixtures = []
    for name, kind, basis, description, inputs, tolerance in _FIXTURE_DEFS:
        fixtures.append(
            {
                "name": name,
                "kind": kind,
                "basis": basis,
                "description": description,
                "inputs": inputs,
                "expected": _CHECKERS[kind](inputs),
                "tolerance": tolerance,
            }
        )
    return {
        "format": 1,
        "regenerate": REGENERATE_COMMAND,
        "bases": list(ALLOWED_BASES),
        "fixtures": fixtures,
    }


def write_manifest(path: str | Path | None = None) -> Path:
    path = MANIFEST_PATH if path is None else Path(path)
    path.write_text(
        json.dumps(build_manifest(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="defectcast.goldens",
        description="Regenerate and verify the golden fixture manifest.",
    )
    parser.add_argument(
        "--out", default=None, help="manifest path (default: the packaged file)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the existing manifest instead of rewriting it",
    )
    args = parser.parse_args(argv)
    if not args.check:
        written = write_manifest(args.out)
        print(f"wrote {written}")
    results = verify_goldens(args.out)
    for result in results:
        print(result)
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
