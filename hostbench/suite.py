"""The benchmark's workloads, their inputs and the correctness gate.

Each workload is built from a seed through the same public entry points
a user reaches with ``repro sweep`` / ``repro scaling``; its cells'
statistics are compared against ``reference.json``, which the scalar
oracle wrote (see ``make_reference.py``).

Import this module only after ``run.py`` has put ``src/`` on the path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.experiments import compare, mt, scaling
from repro.experiments.common import (DEPLOYMENT_SCENARIOS, SCHEMES,
                                      deployment_job)
from repro.runtime.job import NATIVE, Job
from repro.runtime.sweep import Sweep
from repro.sim.runner import STREAM_RECORDS, Scale
from repro.traces.source import TraceSource

from spans import cell_id

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Report-grid trace lengths: the ``repro sweep --trace-length`` geometry
#: (warmup = length // 5), far below STREAM_RECORDS, so grid traces never
#: stream.  Each keeps one cold grid at 6-8 s with two workers on a
#: 2-vCPU VM, so a run holds several repetitions.
COMPARE_GRID_RECORDS = 2_000
MT_GRID_RECORDS = 4_000

#: compare-grid's Figure 3 slice: the four deployment cells of this
#: workload.  A co-runner cell costs a fixed ~1.3 s (the co-runner's
#: cache prefill) whatever the trace length, so all 14 of Figure 3's
#: would take two thirds of the grid; one workload's pair keeps the
#: co-runner class and the two cells Figure 3 shares with compare.
COLOC_WORKLOAD = scaling.WORKLOAD

#: stream-cell trace length: past STREAM_RECORDS (one generation chunk),
#: so the trace streams in two generation chunks.  Warmup is the
#: default report scale's, as in the scaling rungs.
STREAM_CELL_RECORDS = 1_200_000
STREAM_CELL_WARMUP = 12_000
assert STREAM_CELL_RECORDS > STREAM_RECORDS > MT_GRID_RECORDS

#: Input seeds the reference covers.  ``--seed n`` runs input seed n when
#: it is listed here, else ``REFERENCE_SEEDS[n % len(REFERENCE_SEEDS)]``,
#: so every run is checked against the scalar oracle.  42 is the report's
#: default seed; HELD_OUT_SEED was not used while the benchmark was tuned.
HELD_OUT_SEED = 2026
REFERENCE_SEEDS = (42, 1, 2, 3, 4, 5, 6, 7, 8, HELD_OUT_SEED)


def input_seed(seed: int) -> int:
    if seed in REFERENCE_SEEDS:
        return seed
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: "grid" (engine + cache + journal + pool, then tables) or
    #: "stream" (one process, no pool, no cache, compiled kernel).
    kind: str
    #: Trace length of every cell.
    records: int

    def scale(self, seed: int) -> Scale:
        if self.kind == "stream":
            return Scale(trace_length=self.records,
                         warmup=STREAM_CELL_WARMUP, seed=seed)
        return Scale(trace_length=self.records, warmup=self.records // 5,
                     seed=seed)

    def sweep(self, scale: Scale) -> Sweep:
        if self.name == "compare-grid":
            return Sweep.build("report", compare.jobs(scale, seeds=1), [
                deployment_job(COLOC_WORKLOAD, kind, colocated, scale)
                for _, kind, colocated in DEPLOYMENT_SCENARIOS])
        if self.name == "mt-grid":
            return Sweep.build("report", mt.jobs(scale, seeds=1))
        # The scaling rung's pair, as `repro scaling --kernel columnar`
        # builds it (scaling._job).
        return Sweep.build("stream", [
            Job(kind=NATIVE, workload=scaling.WORKLOAD,
                config=SCHEMES[name].native_config, scale=scale,
                scheme=SCHEMES[name].spec, kernel="columnar")
            for name in scaling.SCHEME_NAMES])

    def render(self, results, scale: Scale) -> list[str]:
        """Every table the workload's report sections render."""
        if self.name == "compare-grid":
            tables = list(compare.tables(results, scale, seeds=1))
        elif self.name == "mt-grid":
            tables = list(mt.tables(results, scale, seeds=1))
        else:
            return []
        return [table.render() for table in tables]


WORKLOADS = {w.name: w for w in (
    Workload("compare-grid", "grid", COMPARE_GRID_RECORDS),
    Workload("mt-grid", "grid", MT_GRID_RECORDS),
    Workload("stream-cell", "stream", STREAM_CELL_RECORDS))}


class CountingSource(TraceSource):
    """A TraceSource wrapper counting the records it hands out, so the
    full passes a cell makes over its trace are counted exactly."""

    def __init__(self, inner: TraceSource) -> None:
        self.inner = inner
        self.records = inner.records
        self.yielded = 0

    def chunks(self):
        for chunk in self.inner.chunks():
            self.yielded += len(chunk)
            yield chunk

    def section(self, start: int, stop: int) -> TraceSource:
        return self.inner.section(start, stop)


def simulated_records(job: Job) -> int:
    """Trace records a cell simulates, summed over its tenants."""
    if job.multi_tenant is not None:
        tenants = job.multi_tenant.tenants
        return max(1, job.scale.trace_length // tenants) * tenants
    return job.scale.trace_length


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
def stats_digest(stats) -> str:
    """Digest of every SimStats field, the service distribution's raw
    per-level counts and the scheme counters included."""
    payload = {f.name: getattr(stats, f.name)
               for f in dataclasses.fields(stats)
               if f.name not in ("service", "scheme_stats")}
    payload["service"] = sorted(
        (repr(level), sorted(counts.items()))
        for level, counts in stats.service._counts.items())
    payload["scheme_stats"] = sorted(stats.scheme_stats.items())
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def tables_digest(rendered: list[str]) -> str | None:
    if not rendered:
        return None
    return hashlib.sha256("\n\n".join(rendered).encode()).hexdigest()[:16]


def cell_digests(results, jobs) -> dict[str, str]:
    return {cell_id(job): stats_digest(results[job]) for job in jobs}


def load_reference(workload: str, seed: int) -> dict:
    """``{"cells": {cell id: digest}, "tables": digest | None}``."""
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    try:
        return data["workloads"][workload][str(seed)]
    except KeyError:
        raise SystemExit(
            f"error: {REFERENCE_PATH.name} has no entry for {workload} "
            f"at input seed {seed}; regenerate it with make_reference.py")


def count_failures(reference: dict, digests: dict[str, str],
                   tables: str | None) -> int:
    """Cells whose digest differs from (or is missing in) the reference,
    plus one if the rendered tables differ."""
    failed = sum(1 for cell, digest in reference["cells"].items()
                 if digests.get(cell) != digest)
    failed += sum(1 for cell in digests if cell not in reference["cells"])
    if reference["tables"] != tables:
        failed += 1
    return failed


def checked_outputs(reference: dict) -> int:
    """Outputs one repetition is checked on: its cells, plus the
    rendered tables where the workload renders any."""
    return len(reference["cells"]) + (reference["tables"] is not None)
