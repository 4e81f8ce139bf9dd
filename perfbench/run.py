"""Benchmark of defectcast's batch pipeline, through its public API.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of the workloads in BENCHMARK.json, or `all` to run each of them
in turn and print their metrics.  Run it from anywhere; it works in the
checkout that holds it and writes only under `.perfbench_out/` there.

With `--trace 0` it reports the end-to-end metrics: `wall_s`, the median
time of the workload's stage calls; `setup_s`, the median time of a fresh
interpreter importing the pipeline and loading the config; `peak_rss_mb`.
With `--trace 1` it alternates untraced and traced iterations and reports
the per-layer metrics of the traced ones (see tracing.py).

Every iteration's `report.json` is checked (workloads.check_report) and its
sha256 must equal that of every other iteration, and of earlier runs of the
same source tree and seed.  Failed stage calls are counted in the result's
`failed` against `attempted`.  The last line of standard output is the
result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_out")
DEFAULT_SEED = 20260822
WORKLOADS = ("full-2000", "fit-8000", "resample-64")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5
# No second iteration starts after this long, so a run of a much slower
# program still ends well inside its time limit.
SECOND_ITERATION_LIMIT_S = 60.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_benchmark_file() -> str | None:
    """The metric names BENCHMARK.json declares must be the ones emitted."""
    try:
        doc = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        return f"cannot read BENCHMARK.json: {err}"
    declared = (
        {m["name"] for m in doc["end_to_end"]},
        {m["name"] for m in doc["per_layer"]},
        {w["name"] for w in doc["workloads"]},
    )
    emitted = (set(END_TO_END), {name for name, _, _ in tracing.catalog()}, set(WORKLOADS))
    if declared != emitted:
        return "BENCHMARK.json does not list the metrics and workloads run.py emits"
    return None


def code_digest() -> str:
    """sha256 over the package sources, so stored report digests are per code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "defectcast").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def describe(samples: list[float]) -> str:
    if len(samples) < 2:
        return "1 sample"
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return f"median of {len(samples)} samples, quartiles {q1:.4g} .. {q3:.4g}"


def measure_setup(plan) -> list[float]:
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), str(SRC), plan.config],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_once(pipeline, cfg, plan) -> tuple[float, bytes | None]:
    """One iteration in a fresh output directory: (wall seconds, report bytes)."""
    shutil.rmtree(plan.out_dir, ignore_errors=True)
    gc.collect()  # start every iteration from the same collected heap
    start = time.perf_counter()
    try:
        if plan.one_call:
            pipeline.run_pipeline(cfg)
        else:
            for stage in plan.stages:
                pipeline.run_stage(stage, cfg)
    except Exception:  # a failed iteration is counted, not fatal
        traceback.print_exc()
        return time.perf_counter() - start, None
    wall = time.perf_counter() - start
    return wall, Path(plan.out_dir, "report.json").read_bytes()


class Gate:
    """Correctness of each report, and the fail tally with its base."""

    def __init__(self, check, plan, digest_key: str):
        self.check = check
        self.plan = plan
        self.store_path = WORK / "digests.json"
        self.store = (
            json.loads(self.store_path.read_text(encoding="utf-8"))
            if self.store_path.is_file() else {}
        )
        self.key = digest_key
        self.attempted = 0
        self.failed = 0

    def judge(self, data: bytes | None) -> bool:
        self.attempted += len(self.plan.stages)
        if data is None:
            problems = ["a stage call raised"]
        else:
            try:
                problems = self.check(self.plan, json.loads(data))
            except (ValueError, KeyError, TypeError, AttributeError) as err:
                problems = [f"report.json is malformed: {err!r}"]
            digest = hashlib.sha256(data).hexdigest()
            expected = self.store.get(self.key)
            if expected is None and not problems:
                self.store[self.key] = digest
            elif expected is not None and digest != expected:
                problems.append(f"report sha256 {digest} differs from {expected}")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if problems:
            self.failed += len(self.plan.stages)
        return not problems

    def save(self) -> None:
        tmp = self.store_path.with_name(f"digests.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.store, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, self.store_path)


def keep_going(start: float, samples: list[float], seconds: float, minimum: int) -> bool:
    """Whether another iteration fits in the run, or fewer than `minimum` ran."""
    elapsed = time.perf_counter() - start
    if not samples:
        return True
    if len(samples) < minimum:
        return elapsed < SECOND_ITERATION_LIMIT_S
    return elapsed + statistics.median(samples) <= seconds


def measure_untraced(pipeline, cfg, plan, gate, seconds) -> list[float]:
    walls = []
    start = time.perf_counter()
    while keep_going(start, walls, seconds, minimum=2):
        wall, data = run_once(pipeline, cfg, plan)
        gate.judge(data)
        walls.append(wall)
    return walls


def traced_once(pipeline, cfg, plan):
    """One iteration with every traced function wrapped: (tracer, wall, report)."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall, data = run_once(pipeline, cfg, plan)
    finally:
        tracer.remove()
    return tracer, wall, data


def measure_traced(pipeline, cfg, plan, gate, seconds, spans_path) -> dict[str, float]:
    """Pairs of an untraced and a traced iteration; per-layer medians.

    Which of the two runs first alternates from pair to pair, so an order
    effect does not bias the overhead ratio.
    """
    untraced, samples, pairs = [], [], []
    start = time.perf_counter()
    while keep_going(start, pairs, seconds, minimum=1):
        pair_start = time.perf_counter()
        if len(pairs) % 2 == 0:
            plain_wall, plain = run_once(pipeline, cfg, plan)
            tracer, wall, traced = traced_once(pipeline, cfg, plan)
        else:
            tracer, wall, traced = traced_once(pipeline, cfg, plan)
            plain_wall, plain = run_once(pipeline, cfg, plan)
        untraced.append(plain_wall)
        gate.judge(plain)
        if gate.judge(traced) and plain is not None and traced != plain:
            print("check failed: traced report.json differs from untraced", file=sys.stderr)
            gate.failed += len(plan.stages)
        metrics = tracer.metrics(wall)
        metrics["pipeline.artifact_bytes"] = sum(
            p.stat().st_size for p in Path(plan.out_dir).rglob("*") if p.is_file()
        )
        metrics["wall_s"] = wall
        tracer.write(spans_path, len(samples), append=bool(samples))
        samples.append(metrics)
        pairs.append(time.perf_counter() - pair_start)
    out = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    out["trace.overhead_ratio"] = out.pop("wall_s") / statistics.median(untraced) - 1.0
    print(f"traced iterations: {len(samples)}, untraced: {len(untraced)}")
    return out


def run_all(args) -> int:
    """Run every workload in its own process and print its metrics."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        print("\n".join(line for line in done.stdout.splitlines() if not line.startswith("{")))
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}")
            status = 1
        print()
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (SRC / "defectcast" / "__init__.py").is_file():
        print(f"no defectcast sources under {SRC}", file=sys.stderr)
        return 2
    problem = check_benchmark_file()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # Cap BLAS threads at the CPUs this process may use, before numpy loads.
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cpus)
    sys.path.insert(0, str(SRC))
    import defectcast.pipeline as pipeline
    import workloads

    if not Path(pipeline.__file__).resolve().is_relative_to(SRC):
        print(f"defectcast was imported from {pipeline.__file__}, not {SRC}", file=sys.stderr)
        return 2

    plan = workloads.build(args.workload, args.seed, WORK / f"{args.workload}-{args.seed}")
    setup = [] if args.trace else measure_setup(plan)
    cfg = pipeline.load_config(plan.config)
    # Imports inside functions and lru caches fill here, not in iteration 1.
    pipeline.run_pipeline(pipeline.load_config(workloads.build_warmup(WORK / "warmup")))

    gate = Gate(workloads.check_report, plan, f"{code_digest()}:{args.workload}:{args.seed}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"BLAS threads {cpus}  python {sys.version.split()[0]}")
    if args.trace:
        spans = WORK / f"{args.workload}-{args.seed}" / "spans.csv.gz"
        values = measure_traced(pipeline, cfg, plan, gate, args.seconds, spans)
        units = {name: unit for name, unit, _ in tracing.catalog()}
        for name, unit, _ in tracing.catalog():
            print(f"{name:45s} {values[name]:>14.6g} {unit}")
        print(f"spans written to {spans}")
    else:
        walls = measure_untraced(pipeline, cfg, plan, gate, args.seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                  "peak_rss_mb": rss}
        units = END_TO_END
        print(f"wall_s       {values['wall_s']:.4f} s   {describe(walls)}")
        print("wall_s samples: " + " ".join(f"{w:.3f}" for w in walls))
        print(f"setup_s      {values['setup_s']:.4f} s   {describe(setup)}")
        print(f"peak_rss_mb  {rss:.1f} MB   1 sample")
    gate.save()
    ratio = gate.failed / gate.attempted
    print(f"fail_ratio   {ratio:.4g}   {gate.failed} of {gate.attempted} stage calls failed")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
