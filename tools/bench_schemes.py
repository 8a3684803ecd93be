#!/usr/bin/env python3
"""Benchmark the translation-scheme dispatch: wall time per scheme.

Usage::

    PYTHONPATH=src python tools/bench_schemes.py [--output BENCH_schemes.json]
        [--workload mc80] [--trace-length 60000] [--virtualized] [--repeats 3]
        [--seeds 1] [--kernel scalar|columnar]
        [--check-against BENCH_schemes.json [--threshold 1.25]]

Times every registered scheme (`repro.experiments.common.SCHEMES`) on
one fixed workload/trace and records the result in a JSON *trajectory* —
the repository's perf history for the simulator hot path.  Each run
appends one entry (date, interpreter, per-scheme rows) to the output
file's ``entries`` list, so the checked-in ``BENCH_schemes.json`` reads
as a timeline: the PR 2 dict-backed seed, the PR 3 array-backed rewrite,
and whatever comes next.  Three things are tracked:

* **absolute cost** — wall seconds per scheme at the 60k-trace report
  scale, so hot-path regressions show up as a diff in the checked-in
  trajectory;
* **dispatch overhead** — the ``BaselineRadix`` row is the scheme
  layer's price over a scheme-less run of the generic record loop (its
  early entries also include a since-deleted inlined sweep); this row
  moving is the first sign the hot path grew a per-record cost;
* **regressions in CI** — ``--check-against`` reruns the benchmark (CI
  uses a reduced ``--trace-length``) and fails if any scheme is slower
  than the reference entry by more than ``--threshold`` (default
  1.25×), after normalising both sides to seconds per record.

``--seeds N`` replays every scheme on N replicate trace seeds (derived
with ``Scale.with_replicate``, the same axis the experiment tables use)
and records each row's ``seconds`` as the **median over replicates**,
with the per-seed times and their spread stored alongside.  The
``--check-against`` gate therefore compares median-of-replicates on
both sides, so one unlucky trace seed cannot fail (or mask) a perf
regression.  ``--seeds 1`` (the default) reproduces the historical
single-seed rows byte-for-byte.

Simulation statistics ride along (walks, translation-cycle fraction,
scheme counters) so a perf change that silently changes *behaviour* is
visible in the same diff.  Timings exclude trace generation (the trace
cache is pre-warmed) but include process/VM construction and
population, like any real experiment cell.

Each entry also records environment metadata (python version, platform,
core count, git SHA) so the noisy-box trajectory stays interpretable,
and native runs add a ``baseline-mt2`` row timing the multi-tenant
scheduler path (two tenants, flush policy) so the new subsystem sits
under the same perf gate as the scheme dispatch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.common import SCHEMES  # noqa: E402
from repro.stats.kernels import median  # noqa: E402
from repro.sim.multitenant import (  # noqa: E402
    MultiTenantSpec,
    run_native_mt,
)
from repro.sim.runner import (  # noqa: E402
    Scale,
    make_trace,
    run_native,
    run_virtualized,
)
from repro.workloads.suite import ALL_NAMES, get  # noqa: E402


def environment_metadata() -> dict:
    """Environment facts that make a noisy-box trajectory interpretable:
    the same entry measured on a different interpreter, machine or
    commit is comparable only with these recorded alongside it."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def _captured_phases(run) -> dict:
    """Phase breakdown (seconds) for one instrumented run of ``run()``.

    Runs once *outside* the timed repeats, so the recorded ``seconds``
    stay a clean hot-path measurement; the breakdown is attribution,
    not timing.
    """
    from repro.obs.events import capture
    from repro.obs.summary import phase_totals

    with capture() as recorder:
        run()
    batch = recorder.export_batch()
    phases = phase_totals({"pid": batch["pid"]}, batch["events"])
    return {name: round(value, 3) for name, value in phases.items()}


def _replicate_fields(scale: Scale, per_seed: list[float]) -> dict:
    """The row fields describing a replicated timing: the recorded
    ``seconds`` is the median over replicate seeds (what the perf gate
    compares), the per-seed times and their spread ride along so the
    trajectory shows timing dispersion, not just a point."""
    fields = {"seed": scale.seed,
              "seconds": round(median(per_seed), 3)}
    if len(per_seed) > 1:
        fields["per_seed_seconds"] = [round(s, 3) for s in per_seed]
        fields["seed_spread"] = round(max(per_seed) - min(per_seed), 3)
    return fields


def bench_one(name: str, workload: str, scale: Scale, virtualized: bool,
              repeats: int, kernel: str, obs: bool = False,
              seeds: int = 1) -> dict:
    entry = SCHEMES[name]
    config = entry.virt_config if virtualized else entry.native_config
    runner = run_virtualized if virtualized else run_native
    per_seed = []
    stats = None
    for rep in range(seeds):
        rep_scale = scale.with_replicate(rep)
        best = None
        for _ in range(repeats):
            started = time.perf_counter()
            rep_stats = runner(workload, config, scale=rep_scale,
                               scheme=entry.spec, collect_service=False,
                               kernel=kernel)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        if rep == 0:
            # Behaviour statistics come from the base seed, so they stay
            # comparable with the trajectory's single-seed history.
            stats = rep_stats
        per_seed.append(best)
    assert stats is not None
    phases = (_captured_phases(
        lambda: runner(workload, config, scale=scale, scheme=entry.spec,
                       collect_service=False, kernel=kernel))
        if obs else None)
    return {
        **({"phases": phases} if phases is not None else {}),
        "scheme": name,
        "config": config.name,
        "kernel": kernel,
        **_replicate_fields(scale, per_seed),
        "walks": stats.walks,
        "walk_cycles": stats.walk_cycles,
        "translation_fraction": round(stats.walk_fraction, 4),
        "avg_walk_latency": round(stats.avg_walk_latency, 1),
        "scheme_stats": stats.scheme_stats,
    }


#: The multi-tenant perf-gate row: two tenants of the benchmark
#: workload, full-flush switching, a quantum that scales with the trace
#: so CI's reduced lengths see the same switches-per-record density.
MT_ROW = "baseline-mt2"
MT_TENANTS = 2
MT_QUANTUM_DIVISOR = 8


def bench_mt(workload: str, scale: Scale, repeats: int,
             kernel: str, obs: bool = False, seeds: int = 1) -> dict:
    """Time the multi-tenant scheduler path (baseline scheme)."""
    mt = MultiTenantSpec(
        tenants=MT_TENANTS,
        quantum=max(1, scale.trace_length // MT_QUANTUM_DIVISOR),
        switch_policy="flush",
    )
    per_seed = []
    stats = None
    for rep in range(seeds):
        rep_scale = scale.with_replicate(rep)
        best = None
        for _ in range(repeats):
            started = time.perf_counter()
            rep_stats = run_native_mt(workload, mt=mt, scale=rep_scale,
                                      collect_service=False, kernel=kernel)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        if rep == 0:
            stats = rep_stats
        per_seed.append(best)
    assert stats is not None
    phases = (_captured_phases(
        lambda: run_native_mt(workload, mt=mt, scale=scale,
                              collect_service=False, kernel=kernel))
        if obs else None)
    return {
        **({"phases": phases} if phases is not None else {}),
        "scheme": MT_ROW,
        "config": mt.label(),
        "kernel": kernel,
        **_replicate_fields(scale, per_seed),
        "walks": stats.walks,
        "walk_cycles": stats.walk_cycles,
        "translation_fraction": round(stats.walk_fraction, 4),
        "avg_walk_latency": round(stats.avg_walk_latency, 1),
        "scheme_stats": stats.scheme_stats,
    }


def load_trajectory(path: Path) -> dict | None:
    """Read an existing benchmark file in either schema.

    Pre-trajectory files carried one run's ``results`` at top level;
    they are folded into a single-entry trajectory.
    """
    if not path.exists():
        return None
    document = json.loads(path.read_text())
    if "entries" in document:
        return document
    entry = {
        "generated": document.pop("generated", None),
        "python": document.pop("python", None),
        "machine": document.pop("machine", None),
        "results": document.pop("results", []),
    }
    document["entries"] = [entry]
    return document


def atomic_append_entry(path: Path, entry: dict,
                        merged_document) -> dict:
    """Append ``entry`` to a trajectory file without losing concurrent
    writers' entries.

    The read-merge-write sequence runs under an ``fcntl`` lock on a
    sidecar file (``<name>.lock``), so two benches appending to the same
    trajectory — a daemon-triggered run racing a manual one — serialise
    instead of clobbering each other.  ``merged_document()`` is called
    *inside* the lock to (re-)read the current file and produce the
    document to append to; the result is written to a temp file and
    ``os.replace``d into place, so readers never observe a torn JSON.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    lock_path = path.with_name(path.name + ".lock")
    with open(lock_path, "a+", encoding="utf-8") as lock_fh:
        try:
            import fcntl

            fcntl.flock(lock_fh.fileno(), fcntl.LOCK_EX)
        except ImportError:  # non-POSIX: best effort, still atomic
            pass
        document = merged_document()
        document["entries"].append(entry)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(document, indent=2) + "\n")
        os.replace(tmp, path)
    return document


def reference_entry(path: Path, kernel: str = "scalar") -> tuple[dict, dict]:
    """Latest entry measured with ``kernel``, plus its metadata.

    Taking ``entries[-1]`` blindly would gate a columnar run against a
    scalar baseline (or vice versa) — a many-x ratio that either
    trivially passes or meaninglessly fails.  Entries predating the
    ``kernel`` field are scalar by construction.
    """
    document = load_trajectory(path)
    if document is None:
        raise SystemExit(f"reference file {path} does not exist")
    entries = document.get("entries")
    if not entries:
        raise SystemExit(f"reference file {path} has no entries")
    for entry in reversed(entries):
        if entry.get("kernel", "scalar") == kernel:
            return entry, document
    raise SystemExit(
        f"reference file {path} has no entry for kernel {kernel!r} "
        f"({len(entries)} entries for other kernels)")


def check_against(rows: list[dict], trace_length: int, reference: Path,
                  threshold: float, entry: dict, document: dict) -> int:
    """Compare this run against the reference; returns the exit code.

    ``entry``/``document`` are the reference snapshot, loaded *before*
    this run was appended to any output file (the reference and the
    output may be the same path).  Seconds are normalised to per-record
    cost before comparing, so CI can run at a reduced ``--trace-length``
    against the checked-in full-scale trajectory.  A scheme missing
    from the reference is reported but not failed (new schemes start
    their own history).
    """
    ref_length = document.get("trace_length", trace_length)
    ref_rows = {row["scheme"]: row for row in entry["results"]}
    failures = []
    print(f"\nperf check vs {reference} "
          f"(entry {entry.get('generated')}, threshold {threshold:.2f}x)")
    for row in rows:
        ref = ref_rows.get(row["scheme"])
        if ref is None:
            print(f"  {row['scheme']:10s} no reference entry — skipped")
            continue
        measured = row["seconds"] / trace_length
        allowed = threshold * ref["seconds"] / ref_length
        ratio = measured / (ref["seconds"] / ref_length)
        verdict = "ok" if measured <= allowed else "FAIL"
        print(f"  {row['scheme']:10s} {1e6 * measured:8.2f} us/rec "
              f"(ref {1e6 * ref['seconds'] / ref_length:8.2f}, "
              f"{ratio:5.2f}x) {verdict}")
        if measured > allowed:
            failures.append(row["scheme"])
    if failures:
        print(f"perf check FAILED for: {', '.join(failures)}")
        return 1
    print("perf check passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="mc80", choices=ALL_NAMES)
    parser.add_argument("--trace-length", type=int, default=60_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--virtualized", action="store_true")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per scheme; the best time is kept")
    parser.add_argument("--seeds", type=int, default=1,
                        help="replicate trace seeds per scheme "
                             "(Scale.with_replicate); the recorded "
                             "seconds is the median over replicates and "
                             "per-seed times/spread are stored alongside")
    parser.add_argument("--kernel", choices=("scalar", "columnar"),
                        default="scalar",
                        help="simulation engine: the per-record loop or "
                             "the compiled columnar chunk kernel "
                             "(byte-identical statistics)")
    parser.add_argument("--obs", action="store_true",
                        help="attach a per-scheme phase breakdown "
                             "(setup/populate/warmup/measure seconds) "
                             "from one extra instrumented run; timings "
                             "stay uninstrumented")
    parser.add_argument("--output", default=str(REPO_ROOT
                                                / "BENCH_schemes.json"))
    parser.add_argument("--label", default=None,
                        help="optional tag stored with this entry")
    parser.add_argument("--check-against", default=None, metavar="FILE",
                        help="compare against FILE's latest entry and exit "
                             "non-zero on regression (the CI perf gate)")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="allowed slowdown factor for --check-against")
    parser.add_argument("--fresh", action="store_true",
                        help="allow replacing an existing trajectory whose "
                             "run parameters differ from this invocation")
    args = parser.parse_args(argv)

    # Snapshot the reference before anything is written: the reference
    # and --output may be the same file, and comparing a run against the
    # entry it just appended would pass vacuously.
    reference = None
    if args.check_against:
        reference = reference_entry(Path(args.check_against), args.kernel)

    if args.seeds < 1:
        raise SystemExit("--seeds must be >= 1")
    scale = Scale(trace_length=args.trace_length,
                  warmup=args.trace_length // 5, seed=args.seed)
    for rep in range(args.seeds):  # warm the trace cache per seed
        make_trace(get(args.workload), scale.with_replicate(rep))

    rows = []
    for name in SCHEMES:
        row = bench_one(name, args.workload, scale, args.virtualized,
                        args.repeats, args.kernel, obs=args.obs,
                        seeds=args.seeds)
        rows.append(row)
        print(f"{name:10s} {row['seconds']:7.3f}s  "
              f"walks={row['walks']}  "
              f"translation={100 * row['translation_fraction']:.1f}%")
    if not args.virtualized:
        # The multi-tenant scheduler row (native only: the 2D mt path is
        # too slow for the CI gate's wall-clock budget).
        row = bench_mt(args.workload, scale, args.repeats, args.kernel,
                       obs=args.obs, seeds=args.seeds)
        rows.append(row)
        print(f"{row['scheme']:10s} {row['seconds']:7.3f}s  "
              f"walks={row['walks']}  "
              f"translation={100 * row['translation_fraction']:.1f}%")

    baseline = next(r for r in rows if r["scheme"] == "baseline")
    for row in rows:
        row["relative_to_baseline"] = round(
            row["seconds"] / baseline["seconds"], 3)

    env = environment_metadata()
    entry = {
        "generated": time.strftime("%Y-%m-%d"),
        "python": env["python"],
        "machine": env["machine"],
        "env": env,
        "repeats": args.repeats,
        "seeds": args.seeds,
        # Per entry, not in the header: scalar and columnar histories
        # share one trajectory (the statistics are byte-identical; only
        # wall time differs).
        "kernel": args.kernel,
        "results": rows,
    }
    if args.label:
        entry["label"] = args.label

    output = Path(args.output)
    header = {
        "benchmark": "scheme dispatch hot path",
        "tool": "tools/bench_schemes.py",
        "workload": args.workload,
        "mode": "virtualized" if args.virtualized else "native",
        "trace_length": args.trace_length,
        "warmup": scale.warmup,
        "seed": args.seed,
    }

    def merged_document() -> dict:
        # Runs under atomic_append_entry's lock: re-reads the current
        # file so a concurrent bench's fresh entries are merged, not
        # clobbered.
        document = load_trajectory(output)
        # ``repeats`` is a measurement-quality knob, recorded per entry;
        # it does not make entries incomparable and is not part of the
        # header.
        if document is not None and any(
                document.get(key, value) != value
                for key, value in header.items()):
            # Entries are only comparable at equal run parameters; never
            # silently discard an existing history (the checked-in
            # trajectory is the perf gate's reference).
            if not args.fresh:
                raise SystemExit(
                    f"{output} holds a trajectory with different run "
                    "parameters; write elsewhere with --output or pass "
                    "--fresh to replace it")
            document = None
        if document is None:
            document = dict(header)
            document["entries"] = []
        return document

    atomic_append_entry(output, entry, merged_document)
    print(f"wrote {output}")

    if reference is not None:
        ref_entry, ref_document = reference
        return check_against(rows, args.trace_length,
                             Path(args.check_against), args.threshold,
                             ref_entry, ref_document)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
