"""Benchmark-side tracing: spans around the calls into each layer.

Nothing here touches ``src/``.  :func:`install` replaces a fixed set of
public functions and methods of the ``repro`` package with wrappers that
open a span around the original call; the handle it returns puts the
originals back.  Spans carry a name, start, end, parent span and the
id of the cell they belong to; they are kept in memory and written out
once, when the run ends.

Grid cells run in forked pool workers.  Fork copies the installed
wrappers and the parent's open-span stack into each worker, so a cell
span's parent is the ``runtime.run_jobs`` span that forked it.  A
worker's spans and counters stay in its memory until it exits; a
``multiprocessing.util.Finalize`` hook then writes them to one file per
worker under the run's span directory, which :meth:`Tracer.collect`
merges after the pool has shut down.

``time.perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, so span times
from the parent and from the workers share one timeline.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: str | None
    cell: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span and counter store for one process (plus the
    per-worker files it merges)."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        #: Open spans, innermost last: (span id, cell id, cell attrs).
        self.stack: list[tuple[str, str | None, dict]] = []
        self._next = 0

    # -- recording -----------------------------------------------------
    def _fork_check(self) -> None:
        """First event in a forked worker: drop the parent's finished
        spans (the parent keeps its own copy) and arrange the write-out
        at worker exit."""
        if os.getpid() == self.pid:
            return
        from multiprocessing import util

        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self._next = 0
        util.Finalize(None, self._spill, exitpriority=100)

    def begin(self, name: str, cell: str | None = None,
              cell_attrs: dict | None = None) -> str:
        self._fork_check()
        self._next += 1
        span_id = f"{self.pid}:{self._next}"
        parent_cell, parent_attrs = ((self.stack[-1][1], self.stack[-1][2])
                                     if self.stack else (None, {}))
        self.stack.append((span_id,
                           cell if cell is not None else parent_cell,
                           cell_attrs if cell_attrs is not None
                           else parent_attrs))
        return span_id

    def end(self, span_id: str, name: str, start: float, **attrs) -> None:
        end = time.perf_counter()
        _, cell, cell_attrs = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append(Span(span_id, name, start, end, parent, cell,
                               {**cell_attrs, **attrs}))

    def span(self, name: str, cell: str | None = None,
             cell_attrs: dict | None = None, **attrs):
        return _SpanContext(self, name, cell, cell_attrs, attrs)

    def count(self, name: str, value: float = 1) -> None:
        self._fork_check()
        self.counters[name] = self.counters.get(name, 0) + value

    # -- output --------------------------------------------------------
    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{self.pid}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counters": self.counters}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")

    def collect(self) -> tuple[list[Span], dict[str, float]]:
        """This process's spans and counters plus every exited worker's."""
        spans = list(self.spans)
        counters = dict(self.counters)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            lines = path.read_text(encoding="utf-8").splitlines()
            for name, value in json.loads(lines[0])["counters"].items():
                counters[name] = counters.get(name, 0) + value
            spans.extend(Span(**json.loads(line)) for line in lines[1:])
        return spans, counters

    def write(self, path: Path) -> None:
        spans, counters = self.collect()
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counters": counters}) + "\n")
            for span in sorted(spans, key=lambda s: s.start):
                fh.write(json.dumps(span.__dict__) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, cell, cell_attrs,
                 attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.cell = cell
        self.cell_attrs = cell_attrs
        self.attrs = attrs

    def __enter__(self):
        self.id = self.tracer.begin(self.name, self.cell, self.cell_attrs)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.id, self.name, self.start, **self.attrs)


# ----------------------------------------------------------------------
# layer wrappers
# ----------------------------------------------------------------------
def cell_class(job) -> str:
    """The simulate-time class a grid cell's work is reported under."""
    if job.multi_tenant is not None:
        return "mt"
    if job.colocated:
        return "corunner"
    return "native" if job.kind == "native" else "virt"


def cell_id(job) -> str:
    """A grid cell's id: its label without the engine token (the
    reference digests must survive an engine change)."""
    return job.label().replace(" columnar", "")


class _Patch:
    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self.saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        for owner, name, value in reversed(self.saved):
            setattr(owner, name, value)
        self.saved.clear()


def _spanned(tracer: Tracer, name: str, fn, result_attr=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id = tracer.begin(name)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            attrs = ({result_attr: result}
                     if result_attr and isinstance(result, int) else {})
            tracer.end(span_id, name, start, **attrs)
    return wrapper


def install(tracer: Tracer) -> _Patch:
    """Wrap each layer's public entry points; returns the undo handle."""
    from repro.kernelsim.process import ProcessAddressSpace
    from repro.runtime import engine
    from repro.runtime.cache import ResultCache
    from repro.service.queue import JobQueue
    from repro.sim import multitenant, runner, simulator, virt
    from repro.workloads.base import WorkloadSpec

    patch = _Patch()

    original_execute = engine.execute_job

    @functools.wraps(original_execute)
    def execute_cell(job):
        with tracer.span("cell", cell=cell_id(job),
                         cell_attrs={"class": cell_class(job)}):
            return original_execute(job)

    patch.set(engine, "execute_job", execute_cell)

    for owner, name, span in (
            (JobQueue, "submit", "service.submit"),
            (JobQueue, "claim", "service.claim"),
            (JobQueue, "mark_done", "service.mark_done"),
            (ResultCache, "get", "runtime.cache_get"),
            (ResultCache, "put", "runtime.cache_put"),
            (WorkloadSpec, "build_process", "kernelsim.build"),
            (WorkloadSpec, "generate_trace", "traces.generate"),
            (simulator.NativeSimulation, "run", "sim.simulate"),
            (virt.VirtualizedSimulation, "run", "sim.simulate"),
            (multitenant, "run_native_mt", "sim.mt"),
            (multitenant, "run_virtualized_mt", "sim.mt")):
        patch.set(owner, name, _spanned(tracer, span, owner.__dict__[name]))

    build_vm = _spanned(tracer, "kernelsim.build", runner.build_vm)
    patch.set(runner, "build_vm", build_vm)
    patch.set(multitenant, "build_vm", build_vm)

    # Demand paging: the native path faults pages in through
    # ProcessAddressSpace.populate; the virtualized simulator's populate
    # loop touches each guest page (and its host backing) itself, so
    # its self time (first-touch ordering subtracted) is the same work.
    for owner in (ProcessAddressSpace, virt.VirtualizedSimulation):
        patch.set(owner, "populate",
                  _spanned(tracer, "kernelsim.populate",
                           owner.__dict__["populate"], result_attr="faults"))

    first_touch = _spanned(tracer, "sim.first_touch",
                           simulator.streaming_first_touch_order)
    patch.set(simulator, "streaming_first_touch_order", first_touch)
    patch.set(virt, "streaming_first_touch_order", first_touch)

    original_schedule = multitenant.round_robin_schedule

    @functools.wraps(original_schedule)
    def schedule(lengths, quantum):
        slices = original_schedule(lengths, quantum)
        tracer.count("sim.mt_segments", len(slices))
        return slices

    patch.set(multitenant, "round_robin_schedule", schedule)

    original_iter = simulator.iter_trace_chunks

    @functools.wraps(original_iter)
    def counted_chunks(trace):
        for chunk in original_iter(trace):
            tracer.count("traces.records_yielded", len(chunk))
            yield chunk

    patch.set(simulator, "iter_trace_chunks", counted_chunks)
    patch.set(virt, "iter_trace_chunks", counted_chunks)
    return patch


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> self time: duration minus the part of it that the
    span's children (in any process) cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.id: (span.end - span.start)
            - _covered(children.get(span.id, []), span.start, span.end)
            for span in spans}
