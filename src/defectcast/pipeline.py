"""Batch pipeline: configuration, stages, and report assembly.

A JSON config drives six stages (prepare, screen, tree, fit, recalibrate,
evaluate) plus a `synth` stage that reports on generated data.  Recalibrate
only trains the selected model's units; evaluate does all the scoring, and
its `resubstitution` section is the report's one resubstitution MMRE pair.
Within one `run_pipeline` call the stages hand their artifacts over in
memory: the source data, the prepared data and the fitted model go from the
stage that made them to the stages that use them, and `report.json` is
written once at the end.

Files are outputs, never inputs.  A standalone `run_stage` call recomputes
in memory, from the config and its data, whatever the earlier stages would
have handed it: a generated source is regenerated from its seed, never
read back or written out.  It then merges its sections into `report.json`,
keeping the sections already there when that file records the same
provenance, so running the stages one after another composes to exactly
the monolithic run.  `report.json` is the only file a run reads back.  A
run that starts a new report first removes every file a run writes
(`OUTPUT_FILES`) from its directory, so no file of an earlier run stays
beside it, and a stage writes its files only once it has succeeded.

Every output file is written atomically (temp + rename) and depends only
on (config bytes, data bytes, seed): no timestamps, no environment leaks.
Reports carry a provenance block with the tool version, a hash of the
effective config, the master seed and the data source, with a CSV
source's sha256.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.resources
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from ._errors import ConfigError, DataError, DefectcastError, NumericalError
from .dataset import (
    Dataset,
    FilterRule,
    VariableSpec,
    apply_filters,
    csv_header,
    listwise_complete,
    load_csv,
    serialize_csv,
    summarize,
    utf8_fault,
)
from .evaluation import (
    GeneratorConfig,
    ModelingPlan,
    ReferenceCoefficients,
    cross_validate,
    generate_synthetic,
    quantification_from_labels,
    random_split_experiment,
    resubstitution_experiment,
    synthetic_schema,
)
from .modeltree import fit_model_tree
from .recalibration import train_recalibration, units_for
from .regression import (
    LinearModel,
    catreg_fit,
    ols_fit,
    stepwise_fit,
)
from .screening import (
    apply_category_merge, drop_empty_categories, merge_categories, screen_dataset, spearman,
)
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

# every file a run writes into its output directory
OUTPUT_FILES = (
    "report.json", "prepared.csv", "prepared.schema.json", "qq.csv", "tree.txt",
    "model.json", "recalibration.json",
)


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

    def provenance(self, sha256: str | None = None) -> dict:
        """Tool version, config hash, seed and data source.  A CSV source
        records ``sha256``, the digest of its file's bytes as its run read
        them (``_Run.read_data``); a generated one needs no digest, as the
        config and the tool version fix it."""
        if self.data_path is None:
            source = {"kind": "synthetic", "n": self.synthetic.n}
        else:
            source = {"kind": "csv", "path": self.data_path, "sha256": sha256}
        return {
            "tool_version": __version__,
            "config_hash": self.config_hash(),
            "seed": self.seed,
            "data_source": source,
        }


def _data_file(data_path: str) -> Path:
    path = Path(data_path)
    if not path.is_file():
        raise DataError(f"data file not found: {path}")
    return path


def _schema_document() -> dict:
    text = (
        importlib.resources.files("defectcast")
        .joinpath("config_schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def _finite_number(text: str) -> float:
    # json.loads takes NaN and +-Infinity, which JSON does not define, and
    # reads a number beyond the float range as infinity; the schema's
    # bounds let NaN through, as NaN fails every comparison
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config is not valid JSON: non-finite number {text}")
    return value


def load_config(
    path: str | Path,
    data_override: str | None = None,
    out_override: str | None = None,
    seed_override: int | None = None,
) -> PipelineConfig:
    """Parse, schema-validate, and semantically check a config file.

    Command-line overrides are folded in before validation and hashing, so
    an override is checked like a file value and the provenance hash always
    reflects the configuration that actually ran.  The output directory
    resolves as: --out flag, then DEFECTCAST_OUT, then the config value,
    then "out".
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(
            path.read_text(encoding="utf-8"),
            parse_constant=_finite_number,
            parse_float=_finite_number,
        )
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None

    if data_override is not None:
        raw = {**raw, "data": {"path": str(data_override)}}
    if seed_override is not None:
        raw = {**raw, "seed": int(seed_override)}
    env_out = os.environ.get("DEFECTCAST_OUT")
    if out_override is not None:
        raw = {**raw, "output_dir": str(out_override)}
    elif env_out:
        raw = {**raw, "output_dir": env_out}

    import jsonschema

    try:
        jsonschema.validate(raw, _schema_document())
    except jsonschema.ValidationError as err:
        where = "/".join(str(p) for p in err.absolute_path) or "(top level)"
        raise ConfigError(f"config schema violation at {where}: {err.message}") from None

    data = raw["data"]
    has_path = "path" in data
    has_synth = "synthetic" in data
    if has_path == has_synth:
        raise ConfigError("data section needs exactly one of 'path' or 'synthetic'")
    schema = None
    if "schema" in raw:
        schema = tuple(
            VariableSpec(**{"role": "predictor", "kind": "numeric", **entry})
            for entry in raw["schema"]
        )
    if has_path and schema is None:
        raise ConfigError("a data path requires a 'schema' section")
    if has_synth and schema is not None:
        raise ConfigError("a synthetic source takes no 'schema' section")
    synthetic = None
    if has_synth:
        entry = data["synthetic"]
        coefficients = ReferenceCoefficients(**entry.get("coefficients", {}))
        synthetic = GeneratorConfig(**{**entry, "coefficients": coefficients})

    # the schema of the data as loaded or generated, before any stage
    source = {s.name: s for s in (synthetic_schema(synthetic) if has_synth else schema)}
    regression = raw["regression"]
    response = regression.get("response", "defects")
    candidates = tuple(regression["candidates"])
    if response in candidates:
        raise ConfigError(f"the response {response!r} is listed among the candidates")
    for name in (response, *candidates):
        if name not in source:
            raise ConfigError(f"config references unknown variable {name!r}")
    scaling = dict(regression.get("scaling", {}))
    for name, level in scaling.items():
        if name not in candidates:
            raise ConfigError(
                f"scaling level given for {name!r}, which is not a candidate"
            )
        spec = source[name]
        if not spec.is_categorical:
            raise ConfigError(
                f"scaling level given for {name!r}, which is not categorical"
            )
        # undeclared labels come sorted, which is no declared order
        if level == "ordinal" and not spec.categories:
            raise ConfigError(
                f"ordinal scaling of {name!r} needs its categories declared in order"
            )

    filters = tuple(FilterRule(**entry) for entry in raw.get("filters", ()))
    for rule in filters:
        if rule.variable not in source:
            raise ConfigError(f"filter references unknown variable {rule.variable!r}")
        rule.check(source[rule.variable])
    merges = []
    for entry in raw.get("merges", ()):
        variable = entry["variable"]
        if variable not in source:
            raise ConfigError(f"merge references unknown variable {variable!r}")
        pairs = tuple((p[0], p[1]) for p in entry["pairs"])
        spec = source[variable]
        # labels are known only where categories are declared; prepare
        # merges in turn, so each merge sees the spec the last one left
        if not spec.is_categorical or spec.categories:
            try:
                source[variable] = merge_categories(spec, pairs)
            except DataError as err:
                raise ConfigError(str(err)) from None
        merges.append((variable, pairs))
    screening = raw.get("screening", {})
    for name in screening.get("dual_treatment", ()):
        if name not in source:
            raise ConfigError(
                f"dual treatment references unknown variable {name!r}"
            )

    stepwise = regression.get("stepwise", True)
    p_enter = regression.get("p_enter", 0.05)
    p_remove = regression.get("p_remove", 0.10)
    if stepwise and p_enter > p_remove:
        raise ConfigError(f"p_enter ({p_enter}) must not exceed p_remove ({p_remove})")

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
        stepwise=stepwise,
        p_enter=p_enter,
        p_remove=p_remove,
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


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _jsonable(obj, name: str):
    """``obj`` as ``json.loads`` reads it back from the JSON file ``name``:
    plain numbers (numpy values through ``.tolist()``), lists for tuples and
    arrays, and every dict in sorted key order.  JSON has no NaN or
    infinity: such a value raises NumericalError."""
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False, default=_tolist)
    except ValueError as err:
        raise NumericalError(f"cannot write {name}: {err}") from None
    return json.loads(text)


def _tolist(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not a JSON value")


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


def _json_writer(doc: dict):
    """Writer of the indented JSON of a document that ``_jsonable`` already
    made plain."""
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    return lambda handle: handle.write(text)


def _write_json(path: Path, payload) -> dict:
    """Sorted-key, indented JSON; returns the document as written.  A NaN or
    infinity raises NumericalError before anything is written."""
    doc = _jsonable(payload, path.name)
    _atomic_write(path, _json_writer(doc))
    return doc


def _clear_outputs(out_dir: Path) -> None:
    """Remove every file a run writes from ``out_dir``, and nothing else."""
    for name in OUTPUT_FILES:
        (out_dir / name).unlink(missing_ok=True)


def _read_current(path: Path, provenance: dict) -> dict | None:
    """The JSON document at ``path`` if a run of this same provenance wrote
    it: an object whose ``provenance`` equals ``provenance``, so the same
    config, seed, tool version and data bytes.  Else None, also for a file
    that is not JSON or holds no such object."""
    if not path.is_file():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        written = doc["provenance"]
    except (ValueError, LookupError, TypeError):
        return None
    return doc if written == provenance else None


# ---------------------------------------------------------------------------
# artifact handoff: in memory within a run, recomputed across runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Fit:
    """What ``_fit_models`` built: the full and the selected model, the
    codings ``model.json`` records (catreg's with scaling, else the
    initial ones), and the report's scaling and stepwise sections."""

    full: LinearModel
    selected: LinearModel
    codings: dict[str, dict[str, float]]
    scaling_section: dict
    stepwise_section: dict


@dataclass
class _Run:
    """One run's config and the artifacts its stages have made so far.

    ``run_pipeline`` keeps one for the whole chain, so each stage takes the
    source, the prepared data and the fit from the stage that made them,
    as the objects that stage built.  A standalone ``run_stage`` starts
    from an empty one and recomputes in memory every artifact it lacks.
    """

    cfg: PipelineConfig
    source: Dataset | None = None
    prepared: Dataset | None = None
    fit: _Fit | None = None
    report: dict = field(default_factory=dict)
    # the current stage's files by name, each a writer of a text handle;
    # run_stage writes them once the stage's sections are plain
    files: dict = field(default_factory=dict)
    # a CSV source's digest, and its bytes from their one read to their parse
    data_sha256: str | None = None
    data: bytes | None = None

    def __post_init__(self):
        # a run that cannot write stops before it removes or writes anything
        out = self.out_dir
        path = next((p for p in (out, *out.parents) if p.exists()), out)
        if not path.is_dir():
            raise ConfigError(f"output path {str(path)!r} is not a directory")

    @property
    def out_dir(self) -> Path:
        return Path(self.cfg.output_dir)

    @cached_property
    def provenance(self) -> dict:
        """The config's provenance, taken once per run."""
        if self.cfg.data_path is not None:
            self.read_data()
        return self.cfg.provenance(self.data_sha256)

    def read_data(self) -> None:
        """Read a CSV source's bytes once per run, and hash them as read, so
        the provenance names the bytes that the header check and
        ``load_csv`` parse."""
        if self.data_sha256 is None:
            self.data = _data_file(self.cfg.data_path).read_bytes()
            self.data_sha256 = hashlib.sha256(self.data).hexdigest()

    def add_json(self, name: str, payload) -> dict:
        """Queue ``payload`` as the JSON file ``name``; returns the document
        as it will be written (see ``_jsonable``)."""
        doc = _jsonable(payload, name)
        self.files[name] = _json_writer(doc)
        return doc

    def write_files(self) -> None:
        """Write the queued files, each atomically, and empty the queue."""
        for name, write in self.files.items():
            _atomic_write(self.out_dir / name, write)
        self.files.clear()


def _check_header(run: _Run) -> None:
    # config-vs-data mismatch is a configuration fault, reported before load
    text = io.TextIOWrapper(io.BytesIO(run.data), encoding="utf-8", newline="")
    header = csv_header(csv.reader(text))
    if header is None:
        raise DataError(f"data file {Path(run.cfg.data_path)} has no header row")
    present = set(header)
    for spec in run.cfg.schema:
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
        run.read_data()
        try:
            _check_header(run)
            run.source = load_csv(run.data, cfg.schema)
        except UnicodeDecodeError:
            raise utf8_fault(run.data, f"data file {Path(cfg.data_path)}") from None
        run.data = None  # parsed; only its digest is needed from here
    else:
        run.source = generate_synthetic(cfg.synthetic, cfg.seed)
    return run.source


def _prepare_in_memory(run: _Run):
    cfg = run.cfg
    source = _source_dataset(run)
    filtered = apply_filters(source, cfg.filters)
    for variable, pairs in cfg.merges:
        filtered = apply_category_merge(filtered, variable, pairs)
    # catreg fits on the rows complete over the response and every
    # candidate, so with optimal scaling a category needs one of those
    fitted = (cfg.response, *cfg.candidates) if cfg.scaling else ()
    filtered, dropped = drop_empty_categories(filtered, fitted)
    prepared, applied = apply_schema_transforms(filtered)
    run.prepared = prepared
    return source, filtered, dropped, prepared, applied


def _prepared_dataset(run: _Run) -> Dataset:
    if run.prepared is None:
        _prepare_in_memory(run)
    return run.prepared


def _response_transform(run: _Run) -> str:
    """The response's declared transform in the source schema is the model
    scale (the prepared schema shows it as applied)."""
    return _source_dataset(run).spec(run.cfg.response).transform


def _initial_codings(
    ds: Dataset, candidates, scaling
) -> dict[str, dict[str, float]]:
    """Numeric-label categoricals start at their labels; other categorical
    candidates must either be binary (auto 0/1) or carry a scaling level so
    optimal scaling can place them."""
    codings: dict[str, dict[str, float]] = {}
    for name in candidates:
        spec = ds.spec(name)
        if not spec.is_categorical:
            continue
        try:
            codings[name] = quantification_from_labels(ds, name)
        except DataError:
            if len(spec.categories) == 2 or name in scaling:
                continue  # binary auto-coding, or optimal scaling will fill it
            raise ConfigError(
                f"categorical candidate {name!r} has non-numeric labels; "
                f"declare a scaling level for it"
            ) from None
    return codings


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def _rho(x, y) -> float | None:
    """Spearman's rho, or None where it is undefined: fewer than 3 rows or
    a column without rank variance."""
    try:
        return spearman(x, y).rho
    except DataError:
        return None


def _stage_synth(run: _Run) -> dict:
    cfg = run.cfg
    if cfg.synthetic is None:
        raise ConfigError("stage 'synth' needs a data.synthetic section")
    ds = _source_dataset(run)
    fp, dev_type = ds.columns["fp"], ds.spec("dev_type")
    counts = np.bincount(ds.columns["dev_type"], minlength=len(dev_type.categories))
    return {
        "synthetic_data": {
            "rows": ds.row_count,
            "seed": cfg.seed,
            "achieved_spearman_fp_efforts": _rho(fp, ds.columns["efforts"]),
            "achieved_spearman_fp_team": _rho(fp, ds.columns["max_team_size"]),
            "dev_type_counts": dict(zip(dev_type.categories, counts.tolist())),
        }
    }


def _stage_prepare(run: _Run) -> dict:
    cfg = run.cfg
    source, filtered, dropped, prepared, applied = _prepare_in_memory(run)
    # the sidecar holds the schema and the provenance for readers of the CSV
    run.files["prepared.csv"] = lambda handle: serialize_csv(prepared, handle)
    run.add_json(
        "prepared.schema.json",
        {"provenance": run.provenance, "schema": [asdict(s) for s in prepared.schema]},
    )

    complete = listwise_complete(prepared, [cfg.response, *cfg.candidates])
    qq_raw = qq_normal(filtered.columns[cfg.response])
    qq_model = qq_normal(prepared.columns[cfg.response])
    qq = Dataset(
        [VariableSpec(name, "predictor", "numeric") for name in ("theoretical", "ordered")],
        {"theoretical": qq_model.theoretical, "ordered": qq_model.ordered},
    )
    run.files["qq.csv"] = lambda handle: serialize_csv(qq, handle)

    sections = {
        "data_preparation": {
            "rows_loaded": source.row_count,
            "rows_after_filters": filtered.row_count,
            "rows_complete": complete.row_count,
            "filters": [asdict(r) for r in cfg.filters],
            "merges": [
                {"variable": v, "pairs": [list(p) for p in pairs]}
                for v, pairs in cfg.merges
            ],
            "applied_transforms": applied,
            "summary": summarize(prepared),
        },
        "normality": {
            "response": cfg.response,
            "qq_correlation_raw": qq_raw.correlation,
            "qq_correlation_transformed": qq_model.correlation,
            "n": qq_model.n,
        },
    }
    if dropped:
        sections["data_preparation"]["dropped_categories"] = dropped
    return sections


def _stage_screen(run: _Run) -> dict:
    cfg = run.cfg
    data = _prepared_dataset(run)
    report = screen_dataset(
        data,
        cfg.response,
        cfg.candidates,
        alpha=cfg.alpha,
        dual_treatment=cfg.dual_treatment,
        codings=_initial_codings(data, cfg.candidates, cfg.scaling),
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
    tree = fit_model_tree(
        data,
        cfg.response,
        cfg.candidates,
        codings=_initial_codings(data, cfg.candidates, cfg.scaling),
        min_leaf_size=cfg.tree_min_leaf,
        sd_fraction=cfg.tree_sd_fraction,
        response_transform=_response_transform(run),
    )
    text = tree.to_text()
    run.files["tree.txt"] = lambda handle: handle.write(text)
    return {
        "model_tree": {
            "enabled": True,
            "leaf_count": tree.leaf_count,
            "depth": tree.depth,
            "text": text,
            "structure": tree.to_dict(),
        }
    }


def _fit_models(run: _Run) -> _Fit:
    """Optimal scaling, the full model and stepwise selection, stored on
    ``run`` as built and returned."""
    cfg = run.cfg
    data = _prepared_dataset(run)
    transform = _response_transform(run)
    codings = _initial_codings(data, cfg.candidates, cfg.scaling)

    scaling_section = {"enabled": bool(cfg.scaling)}
    if cfg.scaling:
        result = catreg_fit(
            data,
            cfg.response,
            cfg.candidates,
            scaling=cfg.scaling,
            response_transform=transform,
        )
        # catreg quantifies every categorical candidate and ends with the
        # full OLS fit on those quantifications, which its codings record
        full = result.model
        codings = full.codings
        scaling_section.update(
            {
                "levels": dict(cfg.scaling),
                "iterations": result.iterations,
                "r_squared": result.r_squared_path[-1],
                "r_squared_path": list(result.r_squared_path),
                "quantifications": codings,
            }
        )
    else:
        full = ols_fit(
            data, cfg.response, cfg.candidates, codings, response_transform=transform
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
            codings=codings,
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
    run.fit = _Fit(full, selected, codings, scaling_section, stepwise_section)
    return run.fit


def _stage_fit(run: _Run) -> dict:
    fit = _fit_models(run)
    source = "catreg" if run.cfg.scaling else "initial"
    model_doc = run.add_json(
        "model.json",
        {
            "provenance": run.provenance,
            "model": fit.selected.to_dict(),
            "full_model": fit.full.to_dict(),
            "quantifications": {
                name: {"mapping": mapping, "source": source}
                for name, mapping in fit.codings.items()
            },
        },
    )
    return {
        "optimal_scaling": fit.scaling_section,
        "regression": {
            "full_model": model_doc["full_model"],
            "selected_model": model_doc["model"],
        },
        "stepwise": fit.stepwise_section,
    }


def _load_fitted(run: _Run) -> LinearModel:
    """The selected model: the fit stage's object when this run has it,
    else a refit in memory."""
    return (run.fit or _fit_models(run)).selected


def _stage_recalibrate(run: _Run) -> dict:
    """Train units for the selected model on its complete rows, write them
    to ``recalibration.json`` and report their training record.  Scoring
    them is evaluate's job: its ``resubstitution`` section is the report's
    one resubstitution MMRE pair."""
    cfg = run.cfg
    if not cfg.recalibrate_enabled:
        return {"recalibration": {"enabled": False}}
    selected = _load_fitted(run)
    trained, trace = train_recalibration(
        selected, units_for(selected.codings), _prepared_dataset(run)
    )
    unit_payload = [u.to_dict() for u in trained]
    run.add_json("recalibration.json", {"provenance": run.provenance, "units": unit_payload})
    return {
        "recalibration": {
            "enabled": True,
            "units": unit_payload,
            "training": {
                "initial_gradient_norm": trace.initial_gradient_norm,
                "initial_mse": trace.mse_path[0],
                "final_mse": trace.mse_path[-1],
            },
        }
    }


def _evaluation_plan(cfg: PipelineConfig, selected: LinearModel) -> ModelingPlan:
    if not selected.variables:
        raise ConfigError("selected model has no terms; nothing to evaluate")
    return ModelingPlan(
        response=selected.response,
        predictors=selected.variables,
        codings=selected.codings,
        response_transform=selected.response_transform,
        recalibrate=cfg.recalibrate_enabled,
        pred_thresholds=cfg.pred_thresholds,
        min_test_for_pred=cfg.min_test_for_pred,
        refit_regression=cfg.refit_regression,
    )


def _stage_evaluate(run: _Run) -> dict:
    cfg = run.cfg
    data = _prepared_dataset(run)
    plan = _evaluation_plan(cfg, _load_fitted(run))
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
    the sections already there if that file records the same provenance,
    else into a new report, after removing every file of
    ``OUTPUT_FILES``) and returns the report.  ``run_pipeline`` passes its
    ``_Run`` instead: the stage takes earlier artifacts from it in memory
    and adds its sections to the run's report, which is returned unwritten.
    Either way the stage's files are written, and its sections enter the
    report, only once every section is plain: a section that JSON cannot
    hold fails the stage, and a failed stage writes nothing.
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
    if _run is not None:
        run.write_files()
        run.report.update(sections)
        return run.report
    path = run.out_dir / "report.json"
    earlier = _read_current(path, run.provenance)
    if earlier is None:
        _clear_outputs(run.out_dir)
    run.write_files()
    return _write_json(path, {**(earlier or {}), "provenance": run.provenance, **sections})


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run every applicable stage in order, handing artifacts over in
    memory, then write ``report.json`` once; returns the report.

    The run first removes every file of ``OUTPUT_FILES`` from its output
    directory.  A failed stage still leaves a report of the stages before
    it, beside their files only, so no file shows an earlier run in place
    of this one."""
    run = _Run(cfg)
    _clear_outputs(run.out_dir)
    run.report["provenance"] = _jsonable(run.provenance, "report.json")
    try:
        for stage in STAGES:
            if stage != "synth" or cfg.synthetic is not None:
                run_stage(stage, cfg, run)
    finally:
        # run_stage made every section plain, so only the top-level keys
        # are left to sort
        report = dict(sorted(run.report.items()))
        _atomic_write(run.out_dir / "report.json", _json_writer(report))
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
    resub = report.get("resubstitution")
    if resub:
        avg = resub["averages"]
        lines.append(
            f"resubstitution: MMRE {avg['baseline_mmre']:.4f} -> "
            f"{avg['recalibrated_mmre']:.4f} ({avg['improvement_pct']:+.2f}%)"
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
