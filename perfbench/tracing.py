"""Span tracing of defectcast's public functions, installed from outside.

`Tracer.install` replaces every binding of each traced function: the
defining module's attribute, each `from .x import y` copy in the other
defectcast modules, and the class attribute for `Dataset` methods.
`Tracer.remove` puts the originals back.  Each call records a span
(name, parent, start, end) in memory; nothing is written until `write`.

A module's self time is the time of its spans minus the time covered by
their direct child spans, so time spent in a call into another traced
module is charged to that module.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from time import perf_counter_ns

MODULES = (
    "pipeline", "dataset", "transform", "numerics", "screening",
    "modeltree", "regression", "recalibration", "evaluation",
)

# module -> public functions traced ("Class.method" for class attributes)
TRACED = {
    "pipeline": ("run_stage",),
    "dataset": (
        "Dataset.labels", "Dataset.take", "load_csv", "serialize_csv",
        "listwise_complete", "apply_filters",
    ),
    "transform": ("apply_schema_transforms", "qq_normal"),
    "numerics": (
        "solve_least_squares", "unscaled_covariance", "t_cdf", "f_cdf",
        "studentized_range_cdf",
    ),
    "screening": ("screen_dataset", "tukey_hsd", "apply_category_merge"),
    "modeltree": ("fit_model_tree",),
    "regression": (
        "ols_fit", "stepwise_fit", "catreg_fit", "design_columns", "model_predict",
    ),
    "recalibration": ("train_recalibration", "recalibrated_predict", "firing_strengths"),
    "evaluation": (
        "cross_validate", "random_split_experiment", "resubstitution_experiment",
        "generate_synthetic",
    ),
}

STAGES = ("synth", "prepare", "screen", "tree", "fit", "recalibrate", "evaluate")

_CALLS_AND_S = (
    "dataset.labels", "dataset.take", "dataset.load_csv", "dataset.serialize_csv",
    "dataset.listwise_complete", "transform.apply_schema_transforms",
    "numerics.solve_least_squares", "numerics.unscaled_covariance", "numerics.t_cdf",
    "numerics.f_cdf", "numerics.studentized_range_cdf", "screening.tukey_hsd",
    "regression.ols_fit", "regression.design_columns", "regression.model_predict",
    "recalibration.train_recalibration", "recalibration.recalibrated_predict",
)
_S_ONLY = (
    "dataset.apply_filters", "transform.qq_normal", "screening.screen_dataset",
    "screening.apply_category_merge", "modeltree.fit_model_tree",
    "regression.stepwise_fit", "regression.catreg_fit",
    "evaluation.cross_validate", "evaluation.random_split_experiment",
    "evaluation.resubstitution_experiment", "evaluation.generate_synthetic",
)
_COUNTS = (
    "pipeline.artifact_bytes", "modeltree.leaves", "modeltree.depth",
    "modeltree.leaf_fits", "regression.stepwise.trial_fits",
    "regression.catreg.iterations", "recalibration.epochs",
    "recalibration.firing_strengths.calls", "evaluation.rows_scored",
)


def catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = [(f"pipeline.stage.{s}.s", "s", "lower") for s in STAGES]
    for name in _CALLS_AND_S:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower")]
    out += [(f"{name}.s", "s", "lower") for name in _S_ONLY]
    out += [(name, "bytes" if name.endswith("bytes") else "count", "lower") for name in _COUNTS]
    out += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    out += [
        ("recalibration.converged_ratio", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.covered_ratio", "ratio", "higher"),
    ]
    return out


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.spans: list = []  # (name, parent index, start ns, end ns)
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items() if n.startswith("defectcast")]
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"defectcast.{module_name}")
            for qualname in functions:
                span_name = f"{module_name}.{qualname.split('.')[-1]}"
                if "." in qualname:
                    class_name, attr = qualname.split(".")
                    owner = getattr(module, class_name)
                    self._patch(owner, attr, self._wrap(span_name, owner.__dict__[attr]))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(span_name, original)
                for other in loaded:
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span_name: str, fn):
        spans, stack = self.spans, self._stack
        observe = getattr(self, "_observe_" + span_name.split(".")[1], None)
        stage_span = span_name == "pipeline.run_stage"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"pipeline.stage.{args[0]}" if stage_span else span_name
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    # -- counts read from returned values ------------------------------------

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _observe_train_recalibration(self, result) -> None:
        _, trace = result
        self._add("trainings", 1)
        self._add("recalibration.epochs", trace.epochs)
        self._add("converged", int(trace.converged))

    def _observe_catreg_fit(self, result) -> None:
        self._add("regression.catreg.iterations", result.iterations)

    def _observe_fit_model_tree(self, result) -> None:
        self._add("modeltree.leaves", result.leaf_count)
        self.counts["modeltree.depth"] = max(self.counts.get("modeltree.depth", 0), result.depth)

    def _observe_rows(self, result) -> None:
        self._add("evaluation.rows_scored", sum(row.n_test for row in result.rows))

    _observe_cross_validate = _observe_rows
    _observe_random_split_experiment = _observe_rows
    _observe_resubstitution_experiment = _observe_rows

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded, for a traced wall time."""
        calls: dict[str, int] = {}
        inclusive: dict[str, int] = {}
        self_ns = dict.fromkeys(MODULES, 0)
        within = [""] * len(self.spans)  # innermost tree/stepwise ancestor
        ols_under: dict[str, int] = {}
        for index, (name, parent, start, end) in enumerate(self.spans):
            self_ns[name.split(".")[0]] += end - start
            if parent >= 0:
                self_ns[self.spans[parent][0].split(".")[0]] -= end - start
                within[index] = within[parent]
            if name in ("modeltree.fit_model_tree", "regression.stepwise_fit"):
                within[index] = name
            elif name == "regression.ols_fit":
                ols_under[within[index]] = ols_under.get(within[index], 0) + 1
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0) + end - start

        out = {f"pipeline.stage.{s}.s": inclusive.get(f"pipeline.stage.{s}", 0) / 1e9 for s in STAGES}
        for name in _CALLS_AND_S:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = inclusive.get(name, 0) / 1e9
        for name in _S_ONLY:
            out[f"{name}.s"] = inclusive.get(name, 0) / 1e9
        for name in _COUNTS:
            out[name] = self.counts.get(name, 0)
        out["modeltree.leaf_fits"] = ols_under.get("modeltree.fit_model_tree", 0)
        out["regression.stepwise.trial_fits"] = ols_under.get("regression.stepwise_fit", 0)
        out["recalibration.firing_strengths.calls"] = calls.get("recalibration.firing_strengths", 0)
        for module in MODULES:
            out[f"{module}.self_s"] = self_ns[module] / 1e9
        trainings = self.counts.get("trainings", 0)
        out["recalibration.converged_ratio"] = (
            self.counts.get("converged", 0) / trainings if trainings else 0.0
        )
        out["trace.covered_ratio"] = sum(self_ns.values()) / 1e9 / wall_s
        return out

    def write(self, path, iteration: int, append: bool) -> None:
        """Write the recorded spans as gzipped CSV rows."""
        with gzip.open(path, "at" if append else "wt", encoding="utf-8") as handle:
            if not append:
                handle.write("iteration,index,parent,name,start_ns,end_ns\n")
            for index, (name, parent, start, end) in enumerate(self.spans):
                handle.write(f"{iteration},{index},{parent},{name},{start},{end}\n")
