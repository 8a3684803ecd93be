"""One generation per streamed trace axis, shared zero-copy.

A streamed cell (``scale.trace_length > STREAM_RECORDS``) regenerates
its trace chunk by chunk each time it reads it.  That keeps one run's
memory bounded, but a cell reads its trace twice (first-touch
population, then the record loop), and every cell of the same
``(workload, records, seed)`` axis — in this process or in any pool
worker — pays the generation again.

The versioned trace store (:mod:`repro.traces.store`) already gives the
fix: ``payload.npy`` is a plain ``.npy`` that opens as a read-only
memory map.  Before the sweep engine executes its cold cells it enters
:func:`materialized` — each unique streamed axis is materialised
**once**, under ``<cache>/traces`` or, without a result cache, in a
private directory removed when the batch ends — and installs the
mapping with :func:`activate`: as the pool's initializer, or through
:func:`activated` around inline execution.  :func:`lookup` inside
:func:`repro.sim.runner.make_trace` then replays the one on-disk
payload as an :class:`~repro.traces.source.ArraySource` mmap: every
process shares the same page-cache copy, and nothing regenerates a
byte.

Correctness containment:

* the overlay only short-circuits *how* the canonical trace is
  produced, never *what* it contains — ``materialize_trace`` writes
  exactly the ``iter_generated_chunks`` stream the worker would have
  generated, and replaying it through ``ArraySource`` is the same
  replay path every trace-backed job (``Job.trace``) already uses;
* job specs and the result cache are untouched — the overlay is
  per-process runtime state, so cached results and spec hashes cannot
  depend on whether a run was overlay-fed;
* any failure to materialise or validate falls back silently to
  per-worker generation (the pre-overlay behaviour).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

#: Process-global overlay: ``(workload, records, seed) -> trace dir``.
#: Empty outside a sweep's execution (pool workers or an inline batch).
_OVERLAY: dict[tuple[str, int, int], str] = {}

#: Subdirectory of the result-cache root holding shared traces.
TRACES_SUBDIR = "traces"


def shared_trace_dir(cache_root: str | Path) -> Path:
    """Where shared trace payloads live under a result-cache root (same
    lifecycle as the cached results)."""
    return Path(cache_root) / TRACES_SUBDIR


def _valid(path: Path, workload: str, records: int, seed: int) -> bool:
    """Does ``path`` hold a finished trace for exactly this axis?"""
    from repro.traces.store import read_ref

    try:
        ref = read_ref(path)
    except Exception:  # noqa: BLE001 - unreadable == not a trace
        return False
    return (ref.workload == workload and ref.records == records
            and ref.seed == seed)


def _materialize(workload: str, records: int, seed: int,
                 base: Path) -> Path | None:
    """The shared trace directory for one axis, materialising it if no
    valid one exists yet.  Concurrent materialisers race benignly: each
    writes a unique temp directory and renames it into place; the loser
    validates the winner's and discards its own."""
    from repro.traces.store import materialize_trace
    from repro.workloads.suite import get as get_workload

    final = base / f"{workload}-{records}-{seed}"
    if _valid(final, workload, records, seed):
        return final
    tmp = base / f".materialize-{workload}-{records}-{seed}-{os.getpid()}"
    try:
        spec = get_workload(workload)
        materialize_trace(spec, records, seed, tmp, force=True)
        try:
            os.rename(tmp, final)
        except OSError:
            # Another process won the rename; keep its copy if valid.
            shutil.rmtree(tmp, ignore_errors=True)
            if not _valid(final, workload, records, seed):
                return None
        return final
    except Exception:  # noqa: BLE001 - fall back to per-worker gen
        shutil.rmtree(tmp, ignore_errors=True)
        return None


def _streamed_axes(jobs) -> list[tuple[str, int, int]]:
    """The unique ``(workload, records, seed)`` axes of ``jobs`` that
    would stream (records above the runner's ``STREAM_RECORDS``) and
    generate their own trace.  Explicitly trace-backed jobs
    (``job.trace``) already share their payload, and small cells are
    cheaper to regenerate than to touch disk for."""
    from repro.sim.runner import STREAM_RECORDS

    axes: dict[tuple[str, int, int], None] = {}
    for job in jobs:
        if getattr(job, "trace", None) is not None:
            continue
        scale = getattr(job, "scale", None)
        if scale is None or scale.trace_length <= STREAM_RECORDS:
            continue
        axes[(job.workload, scale.trace_length, scale.seed)] = None
    return list(axes)


def prepare(jobs, cache_root: str | Path) -> dict:
    """Materialise every unique streamed generated-trace axis in
    ``jobs`` once under ``cache_root``; returns the overlay mapping for
    :func:`activate`."""
    mapping: dict[tuple[str, int, int], str] = {}
    axes = _streamed_axes(jobs)
    if axes:
        base = shared_trace_dir(cache_root)
        base.mkdir(parents=True, exist_ok=True)
        for key in axes:
            path = _materialize(*key, base)
            if path is not None:
                mapping[key] = str(path)
    return mapping


@contextmanager
def materialized(jobs, cache_root: str | Path | None):
    """:func:`prepare` for the duration of a ``with`` block, yielding the
    overlay mapping.

    With a cache root the payloads stay under ``<cache>/traces`` for
    later runs.  Without one they go to a private ``mkdtemp`` directory
    that is removed when the block exits, so nothing outside the run can
    plant or leave behind a payload it would replay.
    """
    private = None
    if cache_root is None and _streamed_axes(jobs):
        private = tempfile.mkdtemp(prefix="repro-traces-")
        cache_root = private
    try:
        yield prepare(jobs, cache_root) if cache_root is not None else {}
    finally:
        if private is not None:
            shutil.rmtree(private, ignore_errors=True)


@contextmanager
def activated(mapping: dict):
    """:func:`activate` ``mapping`` in this process for a ``with`` block,
    restoring the previous overlay afterwards (inline execution)."""
    previous = dict(_OVERLAY)
    activate(mapping)
    try:
        yield
    finally:
        activate(previous)


def activate(mapping: dict) -> None:
    """Install ``mapping`` as this process's overlay (the worker-pool
    initializer; also callable in-process for tests)."""
    _OVERLAY.clear()
    _OVERLAY.update(mapping)


def deactivate() -> None:
    """Drop the overlay (tests)."""
    _OVERLAY.clear()


def lookup(workload: str, records: int, seed: int):
    """The shared mmap trace for this axis, or ``None``.

    Returns an :class:`~repro.traces.source.ArraySource` over the
    shared read-only payload.  Validation failures (deleted directory,
    rewritten payload) demote to ``None`` — the caller regenerates.
    """
    path = _OVERLAY.get((workload, records, seed))
    if path is None:
        return None
    from repro.traces.source import ArraySource
    from repro.traces.store import open_trace

    try:
        header, payload = open_trace(path)
    except Exception:  # noqa: BLE001 - stale overlay entry
        return None
    if (header.get("workload") != workload
            or header.get("records") != records
            or header.get("seed") != seed):
        return None
    return ArraySource(payload)
