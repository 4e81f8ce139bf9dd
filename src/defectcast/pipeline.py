"""Batch pipeline: configuration, stages, and report assembly.

A JSON config drives six stages (prepare, screen, tree, fit, recalibrate,
evaluate) plus a `synth` stage that persists generated data.  Within one
`run_pipeline` call the stages hand their artifacts over in memory: the
source data, the prepared data and the fitted model go from the stage that
made them to the stages that use them, and `report.json` is written once at
the end.

Files are outputs, never inputs.  A standalone `run_stage` call recomputes
in memory, from the config and its data, whatever the earlier stages would
have handed it.  It then merges its sections into `report.json`, keeping the
sections already there when that file records the current config hash
(`provenance.config_hash`), so running the stages one after another
composes to exactly the monolithic run.  `report.json` is the only file a
run reads back.

Every output file is written atomically (temp + rename) and depends only
on (config bytes, data bytes, seed): no timestamps, no environment leaks.
Reports carry a provenance block with the tool version, a hash of the
effective config, and the master seed.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.resources
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from ._errors import ConfigError, DataError, DefectcastError, NumericalError
from .dataset import (
    Dataset,
    FilterRule,
    VariableSpec,
    apply_filters,
    listwise_complete,
    load_csv,
    serialize_csv,
    summarize,
)
from .evaluation import (
    GeneratorConfig,
    ModelingPlan,
    ReferenceCoefficients,
    cross_validate,
    generate_synthetic,
    mmre,
    quantification_from_labels,
    random_split_experiment,
    raw_counts,
    resubstitution_experiment,
)
from .modeltree import fit_model_tree
from .recalibration import predict, train_recalibration, units_for
from .regression import (
    LinearModel,
    Quantification,
    catreg_fit,
    ols_fit,
    stepwise_fit,
)
from .screening import apply_category_merge, screen_dataset
from .transform import apply_schema_transforms, qq_normal

__all__ = [
    "STAGES",
    "PipelineConfig",
    "load_config",
    "run_stage",
    "run_pipeline",
    "render_summary",
]

STAGES = ("synth", "prepare", "screen", "tree", "fit", "recalibrate", "evaluate")

# sections each stage contributes to report.json
STAGE_SECTIONS = {
    "synth": ("synthetic_data",),
    "prepare": ("data_preparation", "normality"),
    "screen": ("rank_correlations", "group_screening"),
    "tree": ("model_tree",),
    "fit": ("optimal_scaling", "regression", "stepwise"),
    "recalibrate": ("recalibration",),
    "evaluate": ("resubstitution", "cross_validation", "random_splits"),
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Validated pipeline configuration plus the raw dict it came from."""

    raw: dict
    data_path: str | None
    synthetic: GeneratorConfig | None
    schema: tuple[VariableSpec, ...] | None
    filters: tuple[FilterRule, ...]
    merges: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    alpha: float
    dual_treatment: tuple[str, ...]
    tree_enabled: bool
    tree_min_leaf: int | None
    tree_sd_fraction: float
    response: str
    candidates: tuple[str, ...]
    stepwise: bool
    p_enter: float
    p_remove: float
    scaling: dict[str, str]
    recalibrate_enabled: bool
    k_values: tuple[int, ...]
    train_fractions: tuple[float, ...]
    repetitions: int
    pred_thresholds: tuple[float, ...]
    min_test_for_pred: int
    refit_regression: bool
    seed: int
    output_dir: str

    def config_hash(self) -> str:
        # where the reports land is not part of what was computed
        doc = {k: v for k, v in self.raw.items() if k != "output_dir"}
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def provenance(self) -> dict:
        source = (
            {"kind": "csv", "path": self.data_path}
            if self.data_path is not None
            else {"kind": "synthetic", "n": self.synthetic.n}
        )
        return {
            "tool_version": __version__,
            "config_hash": self.config_hash(),
            "seed": self.seed,
            "data_source": source,
        }


def _schema_document() -> dict:
    text = (
        importlib.resources.files("defectcast")
        .joinpath("config_schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def _spec_from_dict(entry: dict) -> VariableSpec:
    return VariableSpec(
        name=entry["name"],
        role=entry.get("role", "predictor"),
        kind=entry.get("kind", "numeric"),
        transform=entry.get("transform", "none"),
        categories=tuple(entry.get("categories", ())),
    )


def _spec_to_dict(spec: VariableSpec) -> dict:
    return {
        "name": spec.name,
        "role": spec.role,
        "kind": spec.kind,
        "transform": spec.transform,
        "categories": list(spec.categories),
    }


def _generator_from_dict(entry: dict) -> GeneratorConfig:
    entry = dict(entry)
    coeffs = entry.pop("coefficients", None)
    kwargs = {}
    for key, value in entry.items():
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    if coeffs is not None:
        kwargs["coefficients"] = ReferenceCoefficients(**coeffs)
    try:
        return GeneratorConfig(**kwargs)
    except TypeError as err:
        raise ConfigError(f"invalid synthetic data settings: {err}") from None


def _filter_from_dict(entry: dict) -> FilterRule:
    return FilterRule(
        kind=entry["kind"],
        variable=entry["variable"],
        labels=tuple(entry.get("labels", ())),
        low=entry.get("low"),
        high=entry.get("high"),
    )


def load_config(
    path: str | Path,
    data_override: str | None = None,
    out_override: str | None = None,
    seed_override: int | None = None,
) -> PipelineConfig:
    """Parse, schema-validate, and semantically check a config file.

    Command-line overrides are folded in before hashing, so the provenance
    hash always reflects the configuration that actually ran.  The output
    directory resolves as: --out flag, then DEFECTCAST_OUT, then the config
    value, then "out".
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None

    import jsonschema

    try:
        jsonschema.validate(raw, _schema_document())
    except jsonschema.ValidationError as err:
        where = "/".join(str(p) for p in err.absolute_path) or "(top level)"
        raise ConfigError(f"config schema violation at {where}: {err.message}") from None

    if data_override is not None:
        raw = {**raw, "data": {"path": str(data_override)}}
    if seed_override is not None:
        raw = {**raw, "seed": int(seed_override)}
    env_out = os.environ.get("DEFECTCAST_OUT")
    if out_override is not None:
        raw = {**raw, "output_dir": str(out_override)}
    elif env_out:
        raw = {**raw, "output_dir": env_out}

    data = raw["data"]
    has_path = "path" in data
    has_synth = "synthetic" in data
    if has_path == has_synth:
        raise ConfigError("data section needs exactly one of 'path' or 'synthetic'")
    schema = None
    if "schema" in raw:
        schema = tuple(_spec_from_dict(e) for e in raw["schema"])
    if has_path and schema is None:
        raise ConfigError("a data path requires a 'schema' section")
    synthetic = _generator_from_dict(data["synthetic"]) if has_synth else None

    names = (
        {s.name for s in schema}
        if schema is not None
        else set(_synthetic_names(synthetic))
    )
    regression = raw.get("regression", {})
    response = regression.get("response", "defects")
    candidates = tuple(regression.get("candidates", ()))
    if not candidates:
        raise ConfigError("regression section must list candidate predictors")
    for name in (response, *candidates):
        if name not in names:
            raise ConfigError(f"config references unknown variable {name!r}")
    scaling = dict(regression.get("scaling", {}))
    for name, level in scaling.items():
        if name not in candidates:
            raise ConfigError(
                f"scaling level given for {name!r}, which is not a candidate"
            )
        if level not in ("nominal", "ordinal"):
            raise ConfigError(f"unknown scaling level {level!r} for {name!r}")

    filters = tuple(_filter_from_dict(e) for e in raw.get("filters", ()))
    for rule in filters:
        if rule.variable not in names:
            raise ConfigError(f"filter references unknown variable {rule.variable!r}")
    merges = []
    for entry in raw.get("merges", ()):
        if entry["variable"] not in names:
            raise ConfigError(
                f"merge references unknown variable {entry['variable']!r}"
            )
        merges.append(
            (entry["variable"], tuple((p[0], p[1]) for p in entry["pairs"]))
        )
    screening = raw.get("screening", {})
    for name in screening.get("dual_treatment", ()):
        if name not in names:
            raise ConfigError(
                f"dual treatment references unknown variable {name!r}"
            )

    tree = raw.get("tree", {})
    recal = raw.get("recalibration", {})
    evaluation = raw.get("evaluation", {})
    k_values = tuple(evaluation.get("k_values", ()))
    fractions = tuple(evaluation.get("train_fractions", ()))

    stochastic = has_synth or bool(k_values) or bool(fractions)
    if stochastic and "seed" not in raw:
        raise ConfigError(
            "a master seed is required when synthetic data or evaluation is enabled"
        )

    return PipelineConfig(
        raw=raw,
        data_path=data.get("path"),
        synthetic=synthetic,
        schema=schema,
        filters=filters,
        merges=tuple(merges),
        alpha=screening.get("alpha", 0.05),
        dual_treatment=tuple(screening.get("dual_treatment", ())),
        tree_enabled=tree.get("enabled", True),
        tree_min_leaf=tree.get("min_leaf_size"),
        tree_sd_fraction=tree.get("sd_fraction", 0.05),
        response=response,
        candidates=candidates,
        stepwise=regression.get("stepwise", True),
        p_enter=regression.get("p_enter", 0.05),
        p_remove=regression.get("p_remove", 0.10),
        scaling=scaling,
        recalibrate_enabled=recal.get("enabled", True),
        k_values=k_values,
        train_fractions=fractions,
        repetitions=evaluation.get("repetitions", 10),
        pred_thresholds=tuple(evaluation.get("pred_thresholds", (0.25,))),
        min_test_for_pred=evaluation.get("min_test_for_pred", 10),
        refit_regression=evaluation.get("refit_regression", True),
        seed=raw.get("seed", 0),
        output_dir=raw.get("output_dir", "out"),
    )


def _synthetic_names(config: GeneratorConfig) -> list[str]:
    names = ["defects", "fp", "efforts", "max_team_size", "dev_type", "vaf"]
    names.extend(f"gsc_{j + 1:02d}" for j in range(14))
    return names


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _jsonable(obj, name: str):
    """``obj`` as ``json.loads`` reads it back from the JSON file ``name``:
    plain numbers, lists for tuples and arrays, and every dict in sorted key
    order.  JSON has no NaN or infinity: such a value raises NumericalError."""

    def plain(obj):
        if isinstance(obj, dict):
            items = sorted(((str(k), v) for k, v in obj.items()), key=lambda kv: kv[0])
            return {k: plain(v) for k, v in items}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        if isinstance(obj, (float, np.floating)):
            if not math.isfinite(obj):
                raise NumericalError(f"cannot write {name}: {obj!r} is not a JSON number")
            return float(obj)
        if isinstance(obj, np.ndarray):
            return [plain(v) for v in obj.tolist()]
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.bool_):
            return bool(obj)
        return obj

    return plain(obj)


def _atomic_write(path: Path, write) -> None:
    """Call ``write(handle)`` on a new temp file in ``path``'s directory,
    then rename it over ``path``.  The temp name is unique to the call, so
    runs that share an output directory never write to one temp file."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, lambda handle: handle.write(text))


def _write_json(path: Path, payload) -> dict:
    """Sorted-key, indented JSON; returns the document as written.  A NaN or
    infinity raises NumericalError before anything is written."""
    doc = _jsonable(payload, path.name)
    _atomic_write_text(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return doc


def _read_current(path: Path, cfg: PipelineConfig) -> dict | None:
    """The JSON document at ``path`` if a run of this same config wrote it:
    its ``provenance.config_hash`` is the current config's.  Else None."""
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("provenance", {}).get("config_hash") != cfg.config_hash():
        return None
    return doc


# ---------------------------------------------------------------------------
# artifact handoff: in memory within a run, recomputed across runs
# ---------------------------------------------------------------------------


@dataclass
class _Run:
    """One run's config and the artifacts its stages have made so far.

    ``run_pipeline`` keeps one for the whole chain, so each stage takes the
    source, prepared and fitted artifacts from the stage that made them.
    A standalone ``run_stage`` starts from an empty one and recomputes in
    memory every artifact it lacks.
    """

    cfg: PipelineConfig
    source: Dataset | None = None
    prepared: Dataset | None = None
    fitted: tuple[LinearModel, dict[str, Quantification]] | None = None
    report: dict = field(default_factory=dict)

    @property
    def out_dir(self) -> Path:
        return Path(self.cfg.output_dir)


def _write_table(run: _Run, name: str, ds: Dataset) -> None:
    """``<name>.csv`` plus its ``<name>.schema.json`` sidecar, which holds
    the schema and the provenance for readers of the CSV.  The old sidecar
    is removed first, so a sidecar never vouches for a CSV another run
    wrote."""
    sidecar = run.out_dir / f"{name}.schema.json"
    sidecar.unlink(missing_ok=True)
    _atomic_write(run.out_dir / f"{name}.csv", lambda handle: serialize_csv(ds, handle))
    _write_json(
        sidecar,
        {
            "provenance": run.cfg.provenance(),
            "schema": [_spec_to_dict(s) for s in ds.schema],
        },
    )


def _check_header(path: str | Path, schema: tuple[VariableSpec, ...]) -> None:
    # config-vs-data mismatch is a configuration fault, reported before load
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            header = next(csv.reader(handle))
        except StopIteration:
            raise DataError(f"data file {path} has no header row") from None
    present = set(header)
    for spec in schema:
        if spec.name not in present:
            raise ConfigError(
                f"config references column {spec.name!r} "
                f"which is missing from the data file"
            )


def _source_dataset(run: _Run) -> Dataset:
    if run.source is not None:
        return run.source
    cfg = run.cfg
    if cfg.data_path is not None:
        path = Path(cfg.data_path)
        if not path.is_file():
            raise DataError(f"data file not found: {path}")
        _check_header(path, cfg.schema)
        run.source = load_csv(path, cfg.schema)
    else:
        run.source = generate_synthetic(cfg.synthetic, cfg.seed)
    return run.source


def _prepare_in_memory(run: _Run):
    source = _source_dataset(run)
    filtered = apply_filters(source, run.cfg.filters)
    for variable, pairs in run.cfg.merges:
        filtered = apply_category_merge(filtered, variable, pairs)
    prepared, applied = apply_schema_transforms(filtered)
    run.prepared = prepared
    return source, filtered, prepared, applied


def _prepared_dataset(run: _Run) -> Dataset:
    if run.prepared is None:
        _prepare_in_memory(run)
    return run.prepared


def _response_transform(run: _Run) -> str:
    """The response's declared transform in the source schema is the model
    scale (the prepared schema shows it as applied)."""
    return _source_dataset(run).spec(run.cfg.response).transform


def _initial_quantifications(
    ds: Dataset, candidates, scaling
) -> dict[str, Quantification]:
    """Numeric-label categoricals start at their labels; other categorical
    candidates must either be binary (auto 0/1) or carry a scaling level so
    optimal scaling can place them."""
    quants: dict[str, Quantification] = {}
    for name in candidates:
        spec = ds.spec(name)
        if not spec.is_categorical:
            continue
        try:
            quants[name] = quantification_from_labels(ds, name)
        except DataError:
            if len(spec.categories) == 2 or name in scaling:
                continue  # binary auto-coding, or optimal scaling will fill it
            raise ConfigError(
                f"categorical candidate {name!r} has non-numeric labels; "
                f"declare a scaling level for it"
            ) from None
    return quants


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def _stage_synth(run: _Run) -> dict:
    cfg = run.cfg
    if cfg.synthetic is None:
        raise ConfigError("stage 'synth' needs a data.synthetic section")
    ds = generate_synthetic(cfg.synthetic, cfg.seed)
    run.source = ds
    _write_table(run, "synthetic", ds)
    meta = ds.metadata["generator"]
    return {
        "synthetic_data": {
            "rows": ds.row_count,
            "seed": meta["seed"],
            "achieved_spearman_fp_efforts": meta["achieved_spearman_fp_efforts"],
            "achieved_spearman_fp_team": meta["achieved_spearman_fp_team"],
            "dev_type_counts": meta["dev_type_counts"],
        }
    }


def _stage_prepare(run: _Run) -> dict:
    cfg = run.cfg
    source, filtered, prepared, applied = _prepare_in_memory(run)
    _write_table(run, "prepared", prepared)

    complete = listwise_complete(prepared, [cfg.response, *cfg.candidates])
    raw_response = filtered.columns[cfg.response]
    raw_missing = filtered.missing[cfg.response]
    qq_raw = qq_normal(raw_response, raw_missing)
    qq_model = qq_normal(prepared.columns[cfg.response], prepared.missing[cfg.response])
    lines = ["theoretical,ordered"]
    for t, o in zip(qq_model.theoretical, qq_model.ordered):
        lines.append(f"{float(t)!r},{float(o)!r}")
    _atomic_write_text(run.out_dir / "qq.csv", "\n".join(lines) + "\n")

    return {
        "data_preparation": {
            "rows_loaded": source.row_count,
            "rows_after_filters": filtered.row_count,
            "rows_complete": complete.row_count,
            "filters": [
                {
                    "kind": r.kind,
                    "variable": r.variable,
                    "labels": list(r.labels),
                    "low": r.low,
                    "high": r.high,
                }
                for r in cfg.filters
            ],
            "merges": [
                {"variable": v, "pairs": [list(p) for p in pairs]}
                for v, pairs in cfg.merges
            ],
            "applied_transforms": applied,
            "summary": summarize(prepared).to_dict(),
        },
        "normality": {
            "response": cfg.response,
            "qq_correlation_raw": qq_raw.correlation,
            "qq_correlation_transformed": qq_model.correlation,
            "n": qq_model.n,
        },
    }


def _stage_screen(run: _Run) -> dict:
    cfg = run.cfg
    data = _prepared_dataset(run)
    quants = _initial_quantifications(data, cfg.candidates, cfg.scaling)
    report = screen_dataset(
        data,
        cfg.response,
        cfg.candidates,
        alpha=cfg.alpha,
        dual_treatment=cfg.dual_treatment,
        quantifications={k: q.mapping for k, q in quants.items()},
    )
    payload = report.to_dict()
    return {
        "rank_correlations": {
            "response": cfg.response,
            "alpha": cfg.alpha,
            "correlations": payload["correlations"],
            "significant_predictors": report.significant_predictors(),
        },
        "group_screening": {
            "anova": payload["anova"],
            "multiple_comparisons": payload["multiple_comparisons"],
        },
    }


def _stage_tree(run: _Run) -> dict:
    cfg = run.cfg
    if not cfg.tree_enabled:
        return {"model_tree": {"enabled": False}}
    data = _prepared_dataset(run)
    quants = _initial_quantifications(data, cfg.candidates, cfg.scaling)
    tree = fit_model_tree(
        data,
        cfg.response,
        cfg.candidates,
        quantifications=quants,
        min_leaf_size=cfg.tree_min_leaf,
        sd_fraction=cfg.tree_sd_fraction,
        response_transform=_response_transform(run),
    )
    text = tree.to_text()
    _atomic_write_text(run.out_dir / "tree.txt", text)
    return {
        "model_tree": {
            "enabled": True,
            "leaf_count": tree.leaf_count,
            "depth": tree.depth,
            "text": text,
            "structure": tree.to_dict(),
        }
    }


def _fit_models(run: _Run):
    """Optimal scaling, the full model and stepwise selection.  Returns the
    ``model.json`` document and the report's scaling and stepwise sections."""
    cfg = run.cfg
    data = _prepared_dataset(run)
    transform = _response_transform(run)
    quants = _initial_quantifications(data, cfg.candidates, cfg.scaling)

    scaling_section = {"enabled": bool(cfg.scaling)}
    if cfg.scaling:
        result = catreg_fit(
            data,
            cfg.response,
            cfg.candidates,
            scaling=cfg.scaling,
            response_transform=transform,
        )
        for quant in result.quantifications:
            quants[quant.variable] = quant
        scaling_section.update(
            {
                "levels": dict(cfg.scaling),
                "iterations": result.iterations,
                "r_squared": result.r_squared_path[-1],
                "r_squared_path": list(result.r_squared_path),
                "quantifications": {
                    q.variable: dict(q.mapping) for q in result.quantifications
                },
            }
        )

    full = ols_fit(
        data, cfg.response, cfg.candidates, quants, response_transform=transform
    )
    stepwise_section = {"enabled": cfg.stepwise}
    selected = full
    if cfg.stepwise:
        trace = stepwise_fit(
            data,
            cfg.response,
            cfg.candidates,
            p_enter=cfg.p_enter,
            p_remove=cfg.p_remove,
            quantifications=quants,
            response_transform=transform,
        )
        selected = trace.final_model
        stepwise_section.update(
            {
                "p_enter": cfg.p_enter,
                "p_remove": cfg.p_remove,
                "steps": [
                    {
                        "action": s.action,
                        "variable": s.variable,
                        "p_value": s.p_value,
                    }
                    for s in trace.steps
                ],
                "included": list(trace.included),
                "model": selected.to_dict(),
            }
        )
    model_doc = _jsonable(
        {
            "provenance": cfg.provenance(),
            "model": selected.to_dict(),
            "full_model": full.to_dict(),
            "quantifications": {
                name: {"mapping": dict(q.mapping), "source": q.source}
                for name, q in quants.items()
            },
        },
        "model.json",
    )
    return model_doc, scaling_section, stepwise_section


def _fitted_from_doc(doc: dict) -> tuple[LinearModel, dict[str, Quantification]]:
    """The selected model and quantifications of a ``model.json`` document.

    The fit stage and every refit come through here, so the
    quantifications keep the document's sorted key order, and with it the
    order of the recalibration units."""
    selected = LinearModel.from_dict(doc["model"])
    quants = {
        name: Quantification(name, dict(entry["mapping"]), source=entry["source"])
        for name, entry in doc["quantifications"].items()
    }
    return selected, quants


def _stage_fit(run: _Run) -> dict:
    model_doc, scaling_section, stepwise_section = _fit_models(run)
    _write_json(run.out_dir / "model.json", model_doc)
    run.fitted = _fitted_from_doc(model_doc)
    return {
        "optimal_scaling": scaling_section,
        "regression": {
            "full_model": model_doc["full_model"],
            "selected_model": model_doc["model"],
        },
        "stepwise": stepwise_section,
    }


def _load_fitted(run: _Run) -> tuple[LinearModel, dict[str, Quantification]]:
    """The fit stage's selected model and quantifications: from this run,
    else refit."""
    if run.fitted is None:
        run.fitted = _fitted_from_doc(_fit_models(run)[0])
    return run.fitted


def _resubstitution_mmre(model, units, quants, data, response_transform):
    back = response_transform != "none"
    actual = raw_counts(data.columns[model.response], response_transform)
    base = predict(model, data, quants, back_transform=back)
    recal = predict(model, data, quants, units=units, back_transform=back)
    return mmre(actual, base), mmre(actual, recal)


def _stage_recalibrate(run: _Run) -> dict:
    """Train units for the selected model and report its resubstitution MMRE.

    This stays apart from evaluate's ``resubstitution_experiment`` on
    purpose.  Here the scored model is the fit stage's selected model, fit
    on rows complete over every candidate; evaluate refits plain OLS on
    rows complete over the selected predictors only.  The two agree to the
    bit when those row sets match, and differ when stepwise drops a
    candidate that has empty cells.
    """
    cfg = run.cfg
    if not cfg.recalibrate_enabled:
        return {"recalibration": {"enabled": False}}
    data = _prepared_dataset(run)
    selected, quants = _load_fitted(run)
    transform = _response_transform(run)
    fit_rows = listwise_complete(data, [cfg.response, *selected.variables])
    units = units_for(selected.codings, quants)
    trained, trace = train_recalibration(selected, units, fit_rows)
    before, after = _resubstitution_mmre(selected, trained, quants, fit_rows, transform)

    unit_payload = [u.to_dict() for u in trained]
    _write_json(
        run.out_dir / "recalibration.json",
        {"provenance": cfg.provenance(), "units": unit_payload},
    )
    improvement = 0.0 if before == 0.0 else (before - after) / before * 100.0
    return {
        "recalibration": {
            "enabled": True,
            "units": unit_payload,
            "training": {
                "epochs": trace.epochs,
                "converged": trace.converged,
                "initial_gradient_norm": trace.initial_gradient_norm,
                "initial_mse": trace.mse_path[0],
                "final_mse": trace.mse_path[-1],
                "final_gradient_norm": trace.final_gradient_norm,
            },
            "resubstitution_mmre": {
                "baseline": before,
                "recalibrated": after,
                "improvement_pct": improvement,
            },
        }
    }


def _evaluation_plan(cfg: PipelineConfig, selected, quants, transform) -> ModelingPlan:
    predictors = selected.variables
    if not predictors:
        raise ConfigError("selected model has no terms; nothing to evaluate")
    return ModelingPlan(
        response=cfg.response,
        predictors=predictors,
        quantifications=tuple(
            quants[name] for name in predictors if name in quants
        ),
        response_transform=transform,
        recalibrate=cfg.recalibrate_enabled,
        pred_thresholds=cfg.pred_thresholds,
        min_test_for_pred=cfg.min_test_for_pred,
        refit_regression=cfg.refit_regression,
    )


def _stage_evaluate(run: _Run) -> dict:
    cfg = run.cfg
    data = _prepared_dataset(run)
    selected, quants = _load_fitted(run)
    plan = _evaluation_plan(cfg, selected, quants, _response_transform(run))
    resub = resubstitution_experiment(data, plan)
    cross = [
        cross_validate(data, plan, k, cfg.seed).to_dict() for k in cfg.k_values
    ]
    splits = [
        random_split_experiment(
            data, plan, fraction, cfg.repetitions, cfg.seed
        ).to_dict()
        for fraction in cfg.train_fractions
    ]
    return {
        "resubstitution": resub.to_dict(),
        "cross_validation": cross,
        "random_splits": splits,
    }


_STAGE_FUNCS = {
    "synth": _stage_synth,
    "prepare": _stage_prepare,
    "screen": _stage_screen,
    "tree": _stage_tree,
    "fit": _stage_fit,
    "recalibrate": _stage_recalibrate,
    "evaluate": _stage_evaluate,
}


def run_stage(stage: str, cfg: PipelineConfig, _run: _Run | None = None) -> dict:
    """Run one stage against the config's output directory.

    Called on its own, the stage recomputes in memory what earlier stages
    would have handed it, merges its sections into ``report.json`` (into
    the sections already there if that file records the current config
    hash, else into a new report) and returns the report.  ``run_pipeline``
    passes its ``_Run`` instead: the stage takes earlier artifacts from it
    in memory and adds its sections to the run's report, which is returned
    unwritten.  Either way a section that JSON cannot hold fails the stage
    before it enters the report.
    """
    if stage not in STAGES:
        raise ConfigError(
            f"unknown stage {stage!r}; valid stages: {', '.join(STAGES)}"
        )
    run = _Run(cfg) if _run is None else _run
    run.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        sections = _jsonable(_STAGE_FUNCS[stage](run), "report.json")
    except DefectcastError as err:
        raise type(err)(f"step {stage!r}: {err}") from None
    if _run is None:
        path = run.out_dir / "report.json"
        earlier = _read_current(path, cfg) or {}
        return _write_json(path, {**earlier, "provenance": cfg.provenance(), **sections})
    run.report.update(sections)
    return run.report


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run every applicable stage in order, handing artifacts over in
    memory, then write ``report.json`` once; returns the report.

    A failed stage still leaves a report of the stages before it, so
    ``report.json`` never shows an earlier run in place of this one."""
    run = _Run(cfg, report={"provenance": cfg.provenance()})
    try:
        for stage in STAGES:
            if stage != "synth" or cfg.synthetic is not None:
                run_stage(stage, cfg, run)
    finally:
        report = _write_json(run.out_dir / "report.json", run.report)
    return report


# ---------------------------------------------------------------------------
# summary rendering
# ---------------------------------------------------------------------------


def render_summary(report: dict) -> str:
    """One-screen digest; every number shown here is read from the report."""
    lines = []
    prov = report.get("provenance", {})
    lines.append(
        f"defectcast {prov.get('tool_version', '?')}  "
        f"seed {prov.get('seed', '?')}  config {prov.get('config_hash', '?')[:12]}"
    )
    prep = report.get("data_preparation")
    if prep:
        lines.append(
            f"data: {prep['rows_loaded']} rows loaded, "
            f"{prep['rows_after_filters']} after filters, "
            f"{prep['rows_complete']} complete"
        )
    norm = report.get("normality")
    if norm:
        lines.append(
            f"normality ({norm['response']}): QQ correlation "
            f"{norm['qq_correlation_raw']:.4f} raw -> "
            f"{norm['qq_correlation_transformed']:.4f} transformed"
        )
    corr = report.get("rank_correlations")
    if corr:
        strongest = sorted(
            corr["correlations"].items(), key=lambda kv: -abs(kv[1]["rho"])
        )
        shown = ", ".join(f"{k} {v['rho']:+.3f}" for k, v in strongest[:4])
        lines.append(f"rank correlations: {shown}")
    tree = report.get("model_tree")
    if tree and tree.get("enabled"):
        lines.append(
            f"model tree: {tree['leaf_count']} leaves, depth {tree['depth']}"
        )
    reg = report.get("regression")
    if reg:
        model = reg["selected_model"]
        terms = ", ".join(
            f"{t['variable']} {t['coefficient']:+.4f}" for t in model["terms"]
        )
        lines.append(
            f"model: intercept {model['intercept']:+.4f}, {terms}  "
            f"(R^2 {model['r_squared']:.4f}, n {model['n']})"
        )
    recal = report.get("recalibration")
    if recal and recal.get("enabled"):
        res = recal["resubstitution_mmre"]
        lines.append(
            f"recalibration: MMRE {res['baseline']:.4f} -> "
            f"{res['recalibrated']:.4f} ({res['improvement_pct']:+.2f}%) "
            f"in {recal['training']['epochs']} epochs"
        )
    for entry in report.get("cross_validation", []):
        avg = entry["averages"]
        lines.append(
            f"{entry['parameters']['k']}-fold: MMRE {avg['baseline_mmre']:.4f} -> "
            f"{avg['recalibrated_mmre']:.4f} ({avg['improvement_pct']:+.2f}%)"
        )
    for entry in report.get("random_splits", []):
        avg = entry["averages"]
        lines.append(
            f"{entry['parameters']['train_fraction']:.0%} splits x"
            f"{entry['parameters']['repetitions']}: "
            f"MMRE {avg['baseline_mmre']:.4f} -> {avg['recalibrated_mmre']:.4f} "
            f"({avg['improvement_pct']:+.2f}%)"
        )
    return "\n".join(lines) + "\n"
