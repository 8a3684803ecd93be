#!/usr/bin/env python3
"""Host-time benchmark of the report pipeline (see README.md here).

Usage, from the repository root::

    python3 hostbench/run.py --workload compare-grid|mt-grid|stream-cell
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` repeats the workload's timed operation, cold each time,
until the next repetition would end past ``--seconds``, then prints the
end-to-end metrics (medians over the repetitions).  ``--trace 1`` runs
the operation once untraced and once under the benchmark's layer spans
and prints the per-layer metrics.  Every cell's statistics are checked
against ``reference.json``; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every check passed.

Everything the run writes stays under ``.bench_build/hostbench/`` of the
checkout, including the compiled kernel (via ``TMPDIR``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "hostbench"

#: Fresh-process set-up samples per run; setup_s is their median.
SETUP_PROBES = 3
#: Cap on timed repetitions per run.
MAX_REPS = 50
#: Worker processes for the grids: the CPUs available, at most two.
MAX_WORKERS = 2
#: Warm-up: every WARM_UP_STRIDE-th cell, at this trace length.
WARM_UP_RECORDS = 500
WARM_UP_STRIDE = 7

LAYERS = ("cell", "runtime", "service", "kernelsim", "sim", "traces",
          "experiments")
CLASSES = ("native", "virt", "corunner", "mt")


def prepare_environment() -> None:
    """Put ``src/`` on the path and keep every write inside the checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro sources under {ROOT / 'src'}")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ.pop("REPRO_OBS", None)
    sys.path.insert(0, str(ROOT / "src"))


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
class Context:
    """What a run needs before its first timed call."""

    def __init__(self, workload_name: str, seed: int) -> None:
        import suite

        self.workload = suite.WORKLOADS[workload_name]
        self.seed = suite.input_seed(seed)
        self.scale = self.workload.scale(self.seed)
        self.sweep = self.workload.sweep(self.scale)
        self.unique = list(self.sweep.unique_jobs())
        self.records = sum(suite.simulated_records(job)
                           for job in self.unique)
        self.reference = suite.load_reference(workload_name, self.seed)
        if self.workload.kind == "stream":
            os.environ["REPRO_REQUIRE_CCORE"] = "1"
            from repro.sim.columnar import columnar_available

            # Raises under REPRO_REQUIRE_CCORE when the kernel cannot
            # be built or loaded: no fallback to the scalar loop.
            columnar_available()


def warm_up(ctx: Context, run_dir: Path, workers: int) -> None:
    """One untimed pass over a sample of the workload's cells at a tiny
    trace length, through the same engine: first-use costs (lazy
    imports, the pool's first fork, kernel load) stay out of the
    timed repetitions."""
    import dataclasses

    from repro.runtime.engine import Engine
    from repro.runtime.sweep import Sweep
    from repro.service.client import ServiceEngine

    tiny = dataclasses.replace(ctx.scale, trace_length=WARM_UP_RECORDS,
                               warmup=WARM_UP_RECORDS // 5)
    cells = [dataclasses.replace(job, scale=tiny)
             for job in ctx.unique[::WARM_UP_STRIDE] if not job.colocated]
    if ctx.workload.kind == "grid":
        cache_dir = run_dir / "cache-warm-up"
        ServiceEngine.from_options(jobs=workers, cache_dir=str(cache_dir)
                                   ).run_jobs(Sweep.build("warm-up", cells))
        shutil.rmtree(cache_dir, ignore_errors=True)
    else:
        Engine(jobs=1, cache=None).run_jobs(Sweep.build("warm-up", cells))


def setup_probe(workload: str, seed: int) -> None:
    Context(workload, seed)
    print(json.dumps({"ready": time.monotonic()}))


def setup_samples(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        ready = json.loads(proc.stdout.splitlines()[-1])["ready"]
        samples.append(ready - spawned)
    return samples


# ----------------------------------------------------------------------
# one timed repetition
# ----------------------------------------------------------------------
class Rep:
    def __init__(self) -> None:
        self.wall = 0.0
        self.tables = 0.0
        #: cell id -> compute seconds (SweepReport.records).
        self.cell_seconds: dict[str, float] = {}
        self.report = None
        self.results = None
        self.digests: dict[str, str] = {}
        self.tables_digest: str | None = None


def count_kernel_runs(counter: list[int]):
    """Count compiled-kernel runs (a check, not a span: two calls a rep)."""
    from repro.sim import columnar

    original = columnar.run_columnar

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    columnar.run_columnar = counted
    return lambda: setattr(columnar, "run_columnar", original)


def run_rep(ctx: Context, cache_dir: Path | None, workers: int) -> Rep:
    """The workload's timed operation, from a cold state."""
    import spans as tracing
    import suite
    from repro.runtime.engine import Engine
    from repro.service.client import ServiceEngine
    from repro.sim import runner

    # In-process trace caches are not carried between repetitions.
    runner._TRACE_CACHE.clear()
    if ctx.workload.kind == "grid":
        engine = ServiceEngine.from_options(jobs=workers,
                                            cache_dir=str(cache_dir))
    else:
        # The cells run in this process: free the previous repetition's
        # garbage first (the simulators pause the collector in their
        # record loops), so peak RSS does not grow with the repetition
        # count.  Grid cells run in forked workers that inherit this
        # process's collector state, so the grids are left alone.
        gc.collect()
        engine = Engine(jobs=1, cache=None)
    rep = Rep()
    started = time.perf_counter()
    results = engine.run_jobs(ctx.sweep)
    rendered_at = time.perf_counter()
    rendered = ctx.workload.render(results, ctx.scale)
    ended = time.perf_counter()
    rep.wall = ended - started
    rep.tables = ended - rendered_at
    rep.report = engine.last_report
    rep.results = results
    rep.cell_seconds = {tracing.cell_id(record.job): record.seconds
                        for record in rep.report.records
                        if not record.cached}
    rep.digests = suite.cell_digests(results, ctx.unique)
    rep.tables_digest = suite.tables_digest(rendered)
    return rep


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten values beyond it (the
    maximum when there are fewer than eleven values)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} cells"
    return ordered[n - 11], f"p{100 * (n - 10) // n} of {n} cells (10 beyond)"


def peak_rss_mb() -> tuple[float, float]:
    """(this process, its largest waited-for child) ``ru_maxrss``, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
class Checks:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0

    def check(self, digests: dict[str, str], tables: str | None) -> None:
        import suite

        self.attempted += suite.checked_outputs(self.ctx.reference)
        self.failed += suite.count_failures(self.ctx.reference, digests,
                                            tables)

    def crashed(self) -> None:
        import suite

        traceback.print_exc()
        outputs = suite.checked_outputs(self.ctx.reference)
        self.attempted += outputs
        self.failed += outputs


def timed_run(ctx: Context, run_dir: Path, seconds: float, workers: int,
              checks: Checks) -> tuple[dict, list[str]]:
    kernel_runs = [0]
    restore = (count_kernel_runs(kernel_runs)
               if ctx.workload.kind == "stream" else (lambda: None))
    reps: list[Rep] = []
    begin = time.perf_counter()
    try:
        while len(reps) < MAX_REPS:
            cache_dir = run_dir / f"cache-{len(reps)}"
            try:
                rep = run_rep(ctx, cache_dir, workers)
            except Exception:
                checks.crashed()
                break
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            checks.check(rep.digests, rep.tables_digest)
            reps.append(rep)
            elapsed = time.perf_counter() - begin
            if elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
    finally:
        restore()
    if not reps:
        return {}, []
    if ctx.workload.kind == "stream" and kernel_runs[0] != len(reps) * len(
            ctx.unique):
        raise SystemExit("error: the compiled kernel did not run every "
                         f"stream cell ({kernel_runs[0]} kernel runs for "
                         f"{len(reps)} x {len(ctx.unique)} cells); refusing "
                         "to report scalar-loop timings")
    rss = peak_rss_mb()
    setup = setup_samples(ctx.workload.name, ctx.seed)
    # Each cell's compute seconds is its median over the repetitions;
    # the percentiles are then taken over cells.
    cells = [statistics.median(rep.cell_seconds[cell] for rep in reps)
             for cell in reps[0].cell_seconds]
    tail_s, tail_note = tail(cells)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(rep.wall for rep in reps), "s"),
        "records_per_s": (statistics.median(ctx.records / rep.wall
                                            for rep in reps), "1/s"),
        "cell_p50_s": (statistics.median(cells), "s"),
        "cell_tail_s": (tail_s, "s"),
        # The grids' children are their pool workers; stream-cell has
        # none (its only child can be the compiler building the kernel).
        "peak_rss_mb": (rss[0] + (rss[1] if ctx.workload.kind == "grid"
                                  else 0.0), "MB"),
    }
    notes = [f"repetitions: {len(reps)} (wall_s each: "
             + ", ".join(f"{rep.wall:.3f}" for rep in reps) + ")",
             "setup samples: " + ", ".join(f"{s:.3f}" for s in setup),
             f"cell_tail_s: {tail_note}",
             f"peak_rss_mb: {rss[0]:.1f} own + {rss[1]:.1f} largest child"]
    return metrics, notes


def traced_run(ctx: Context, run_dir: Path, workers: int,
               checks: Checks) -> tuple[dict, list[str]]:
    import spans as tracing
    import suite
    from repro.service.client import ServiceEngine
    from repro.service.queue import JobQueue

    metrics: dict[str, tuple[float, str]] = {}
    grid = ctx.workload.kind == "grid"
    kernel_runs = [0]
    restore = count_kernel_runs(kernel_runs) if not grid else (lambda: None)
    try:
        # 1. The untraced operation: the overhead baseline, plus the
        #    runtime/service counters that tracing must not perturb.
        cache_dir = run_dir / "cache-untraced"
        plain = run_rep(ctx, cache_dir, workers)
        checks.check(plain.digests, plain.tables_digest)
        report = plain.report
        metrics["runtime.run_jobs_s"] = (report.wall_seconds, "s")
        metrics["runtime.compute_s"] = (report.compute_seconds, "s")
        metrics["runtime.pool_util"] = (
            report.compute_seconds / (report.wall_seconds * report.workers),
            "ratio")
        metrics["runtime.dedup_ratio"] = (
            report.deduplicated / len(ctx.sweep.jobs), "ratio")
        metrics["experiments.tables_s"] = (plain.tables, "s")
        warm_s = hit_ratio = submit_s = 0.0
        journal_lines = 0
        if grid:
            journal = cache_dir / "service" / "journal.jsonl"
            journal_lines = len(journal.read_text().splitlines())
            # 2. Warm: the same grid again on the filled cache.
            engine = ServiceEngine.from_options(jobs=workers,
                                                cache_dir=str(cache_dir))
            started = time.perf_counter()
            warm = engine.run_jobs(ctx.sweep)
            warm_s = time.perf_counter() - started
            hit_ratio = engine.last_report.cache_hits / len(ctx.unique)
            checks.check(suite.cell_digests(warm, ctx.unique),
                         suite.tables_digest(
                             ctx.workload.render(warm, ctx.scale)))
            # 3. Submitting the grid into a fresh queue.
            queue = JobQueue(run_dir / "queue")
            started = time.perf_counter()
            queue.submit(ctx.unique)
            submit_s = time.perf_counter() - started
        shutil.rmtree(cache_dir, ignore_errors=True)
        metrics["runtime.warm_s"] = (warm_s, "s")
        metrics["runtime.cache_hit_ratio"] = (hit_ratio, "ratio")
        metrics["service.journal_lines"] = (journal_lines, "count")
        metrics["service.submit_s"] = (submit_s, "s")

        generate_s = 0.0
        if not grid:
            from repro.sim.runner import make_trace
            from repro.traces.source import iter_trace_chunks
            from repro.workloads.suite import get as get_workload

            started = time.perf_counter()
            for _ in iter_trace_chunks(make_trace(
                    get_workload(ctx.unique[0].workload), ctx.scale)):
                pass
            generate_s = time.perf_counter() - started

        # 4. The traced operation.
        spill = run_dir / "spans"
        spill.mkdir()
        tracer = tracing.Tracer(spill)
        patch = tracing.install(tracer)
        try:
            if grid:
                traced_wall, digests, tables, passes = _traced_grid(
                    ctx, tracer, run_dir / "cache-traced", workers)
            else:
                traced_wall, digests, tables, passes = _traced_stream(
                    ctx, tracer)
        finally:
            patch.undo()
        checks.check(digests, tables)
        if digests != plain.digests or tables != plain.tables_digest:
            raise SystemExit("error: traced statistics differ from the "
                             "untraced run's")
        tracer.write(WORK / f"last-spans-{ctx.workload.name}.jsonl")
        span_list, counters = tracer.collect()
    finally:
        restore()
    if not grid and kernel_runs[0] != 2 * len(ctx.unique):
        raise SystemExit("error: the compiled kernel did not run every "
                         "stream cell; refusing to report")
    metrics.update(_span_metrics(span_list, counters, ctx, plain.results))
    if not grid:
        # A streamed cell generates inside populate and the record loop;
        # the figure that names generation cost is one clean pass.
        metrics["traces.generate_s"] = (generate_s, "s")
    metrics["traces.passes"] = (passes, "count")
    metrics["obs.overhead_frac"] = (traced_wall / plain.wall - 1.0, "ratio")
    notes = [f"untraced wall {plain.wall:.3f}s, traced wall "
             f"{traced_wall:.3f}s",
             f"spans: {len(span_list)} (written to "
             f"{WORK.relative_to(ROOT)}/last-spans-{ctx.workload.name}.jsonl)"]
    return metrics, notes


def _traced_grid(ctx: Context, tracer, cache_dir: Path, workers: int):
    import suite
    from repro.service.client import ServiceEngine
    from repro.sim import runner

    runner._TRACE_CACHE.clear()
    engine = ServiceEngine.from_options(jobs=workers,
                                        cache_dir=str(cache_dir))
    started = time.perf_counter()
    with tracer.span("wall"):
        with tracer.span("runtime.run_jobs"):
            results = engine.run_jobs(ctx.sweep)
        with tracer.span("experiments.tables"):
            rendered = ctx.workload.render(results, ctx.scale)
    wall = time.perf_counter() - started
    shutil.rmtree(cache_dir, ignore_errors=True)
    yielded = tracer.collect()[1].get("traces.records_yielded", 0)
    return (wall, suite.cell_digests(results, ctx.unique),
            suite.tables_digest(rendered), yielded / ctx.records)


def _traced_stream(ctx: Context, tracer):
    import spans as tracing
    import suite
    from repro.sim.runner import make_trace, run_native
    from repro.workloads.suite import get as get_workload

    digests = {}
    passes = []
    gc.collect()
    started = time.perf_counter()
    with tracer.span("wall"):
        for job in ctx.unique:
            source = suite.CountingSource(
                make_trace(get_workload(job.workload), job.scale))
            with tracer.span("cell", cell=tracing.cell_id(job),
                             cell_attrs={"class": "native"}):
                stats = run_native(
                    job.workload, job.config, scale=job.scale,
                    collect_service=job.collect_service, scheme=job.scheme,
                    trace_source=source, kernel=job.kernel)
            digests[tracing.cell_id(job)] = suite.stats_digest(stats)
            passes.append(source.yielded / source.records)
    wall = time.perf_counter() - started
    return wall, digests, None, statistics.mean(passes)


def _span_metrics(span_list, counters, ctx: Context, results) -> dict:
    import spans as tracing

    selfs = tracing.self_times(span_list)
    by_id = {span.id: span for span in span_list}

    def total(name: str, cls: str | None = None) -> float:
        return sum(selfs[span.id] for span in span_list
                   if span.name == name
                   and (cls is None or span.attrs.get("class") == cls))

    out: dict[str, tuple[float, str]] = {
        "traces.generate_s": (total("traces.generate"), "s"),
        "kernelsim.build_s": (total("kernelsim.build"), "s"),
        "kernelsim.populate_s": (total("kernelsim.populate"), "s"),
        "kernelsim.faults": (sum(
            span.attrs.get("faults", 0) for span in span_list
            if span.name == "kernelsim.populate"
            and getattr(by_id.get(span.parent), "name", None)
            != "kernelsim.populate"), "count"),
        "sim.first_touch_s": (total("sim.first_touch"), "s"),
    }
    classes = {cls: [job for job in ctx.unique
                     if (tracing.cell_class(job) if ctx.workload.kind
                         == "grid" else "native") == cls]
               for cls in CLASSES}
    for cls in CLASSES:
        simulate = total("sim.simulate", cls)
        walks = sum(results[job].walks for job in classes[cls])
        out[f"sim.simulate_s.{cls}"] = (simulate, "s")
        out[f"sim.us_per_walk.{cls}"] = (
            simulate / walks * 1e6 if walks else 0.0, "us")
    out["tlb.walks"] = (sum(results[job].walks for job in ctx.unique),
                        "count")
    segments = counters.get("sim.mt_segments", 0)
    out["sim.mt_segments"] = (segments, "count")
    out["sim.mt_ms_per_segment"] = (
        out["sim.simulate_s.mt"][0] * 1e3 / segments if segments else 0.0,
        "ms")
    layer_self = dict.fromkeys(LAYERS, 0.0)
    root = next(span for span in span_list if span.name == "wall")
    for span in span_list:
        if span is not root:
            layer_self[span.layer] = (layer_self.get(span.layer, 0.0)
                                      + selfs[span.id])
    for layer in LAYERS:
        out[f"self_s.{layer}"] = (layer_self[layer], "s")
    out["obs.uncovered_frac"] = (selfs[root.id] / (root.end - root.start),
                                 "ratio")
    return out


# ----------------------------------------------------------------------
# provenance and output
# ----------------------------------------------------------------------
def git_sha() -> str | None:
    """HEAD's commit from ``.git`` files, without running git (a
    benchmark checkout is usually not a repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("compare-grid", "mt-grid", "stream-cell"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare_environment()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    ctx = Context(args.workload, args.seed)
    workers = (max(1, min(MAX_WORKERS, len(os.sched_getaffinity(0))))
               if ctx.workload.kind == "grid" else 1)
    run_dir = WORK / "runs" / str(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    checks = Checks(ctx)
    try:
        try:
            warm_up(ctx, run_dir, workers)
        except Exception:
            checks.crashed()
        if args.trace:
            metrics, notes = traced_run(ctx, run_dir, workers, checks)
        else:
            metrics, notes = timed_run(ctx, run_dir, args.seconds, workers,
                                       checks)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "input_seed": ctx.seed, "trace": args.trace, "workers": workers,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(), "src_digest": source_digest(),
    }
    failed_frac = checks.failed / checks.attempted if checks.attempted else 1.0
    print("hostbench " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(f"  {'failed_frac':28s} {failed_frac:14.6f} ratio "
          f"({checks.failed} of {checks.attempted} checked outputs)")
    for note in notes:
        print(f"  # {note}")
    correct = checks.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed if checks.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (WORK / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": provenance, "notes": notes},
                   indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
