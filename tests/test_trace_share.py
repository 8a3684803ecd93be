"""Zero-copy trace sharing (`repro.traces.share`).

The overlay must never change *what* a cell simulates — only how the
trace bytes reach it.  These tests pin the prepare/activate/lookup
round-trip, byte-identity of an overlay-fed run against plain
generation, one generation per streamed axis through the engine, the
run-scoped private directory of a cache-less run, and the
silent-fallback contract on every failure mode.
"""

from __future__ import annotations

import json
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments.common import SCHEMES
from repro.runtime.engine import Engine
from repro.runtime.job import NATIVE, Job, execute_job
from repro.sim import runner
from repro.sim.runner import Scale, run_native
from repro.traces import share, store
from repro.traces import stream as stream_mod
from repro.traces.source import ArraySource
from repro.traces.stream import chunk_seed, generation_chunks
from repro.workloads.base import WorkloadSpec
from repro.workloads.suite import get as get_workload

STREAMED = 20_000  # > the lowered STREAM_RECORDS below


@pytest.fixture(autouse=True)
def _lowered_threshold(monkeypatch):
    """Make tiny traces 'streamed' so the overlay path engages, and
    guarantee no overlay leaks across tests."""
    monkeypatch.setattr(runner, "STREAM_RECORDS", 10_000)
    yield
    share.deactivate()


def _job(records: int = STREAMED, seed: int = 7) -> Job:
    return Job(kind=NATIVE, workload="mc80",
               scale=Scale(trace_length=records, warmup=records // 5,
                           seed=seed))


def test_prepare_materializes_streamed_axes_once(tmp_path):
    jobs = [_job(seed=7), _job(seed=7), _job(seed=8),
            _job(records=2_000)]  # below threshold: not shared
    overlay = share.prepare(jobs, tmp_path)
    assert set(overlay) == {("mc80", STREAMED, 7), ("mc80", STREAMED, 8)}
    for key, path in overlay.items():
        assert share._valid(type(tmp_path)(path), *key)


def test_prepare_skips_trace_backed_jobs(tmp_path):
    job = _job()
    assert job.trace is None and share.prepare([job], tmp_path)
    # ``prepare`` only reads workload/scale/trace, so a namespace stands
    # in for a trace-backed job (Job validates real TraceRefs).
    trace_backed = SimpleNamespace(workload="mc80", scale=job.scale,
                                   trace="sentinel")
    assert share.prepare([trace_backed], tmp_path) == {}


def test_lookup_replays_the_canonical_chunk_stream(tmp_path):
    overlay = share.prepare([_job()], tmp_path)
    share.activate(overlay)
    source = share.lookup("mc80", STREAMED, 7)
    assert isinstance(source, ArraySource)
    spec = get_workload("mc80")
    expected = spec.generate_trace(STREAMED, seed=7)
    replayed = np.concatenate(list(source.chunks()))
    assert np.array_equal(replayed, expected)
    # Unknown axes miss the overlay.
    assert share.lookup("mc80", STREAMED, 99) is None
    share.deactivate()
    assert share.lookup("mc80", STREAMED, 7) is None


def test_overlay_fed_run_is_byte_identical(tmp_path):
    scale = Scale(trace_length=STREAMED, warmup=STREAMED // 5, seed=7)
    plain = run_native("mc80", scale=scale)
    share.activate(share.prepare([_job()], tmp_path))
    overlaid = run_native("mc80", scale=scale)
    assert plain == overlaid


def test_lookup_falls_back_on_stale_entry(tmp_path):
    overlay = share.prepare([_job()], tmp_path)
    share.activate(overlay)
    for path in overlay.values():
        import shutil

        shutil.rmtree(path)
    assert share.lookup("mc80", STREAMED, 7) is None


def test_prepare_failure_is_silent(tmp_path):
    # An unmaterializable axis (bogus workload) is skipped, not raised.
    bogus = SimpleNamespace(workload="no-such-workload",
                            scale=_job().scale, trace=None)
    assert share.prepare([bogus], tmp_path) == {}


def test_shared_trace_dir_prefers_cache_root(tmp_path):
    assert share.shared_trace_dir(tmp_path) == \
        tmp_path / share.TRACES_SUBDIR
    # No shared per-machine fallback: without a cache root the engine
    # materialises into a private, run-scoped directory instead.
    assert not hasattr(share, "_fallback_dir")


def _scheme_jobs(records: int = STREAMED, seed: int = 7) -> list[Job]:
    """Two cells on one streamed axis (baseline and ASAP)."""
    scale = Scale(trace_length=records, warmup=records // 5, seed=seed)
    return [Job(kind=NATIVE, workload="mc80",
                config=SCHEMES[name].native_config,
                scheme=SCHEMES[name].spec, scale=scale)
            for name in ("baseline", "asap")]


def _count_generation(monkeypatch) -> Counter:
    """Count generator calls per (workload, records, seed): one key per
    generation chunk, since chunk i draws from chunk_seed(seed, i)."""
    calls: Counter = Counter()
    original = WorkloadSpec.generate_trace

    def counted(self, length, seed=0):
        calls[(self.name, length, seed)] += 1
        return original(self, length, seed=seed)

    monkeypatch.setattr(WorkloadSpec, "generate_trace", counted)
    return calls


def test_inline_engine_generates_each_chunk_once(monkeypatch):
    # Several generation chunks per trace, so "once" is per chunk.
    monkeypatch.setattr(stream_mod, "GEN_CHUNK_RECORDS", 8_192)
    jobs = _scheme_jobs()
    chunks = {("mc80", stop - start, chunk_seed(7, index))
              for index, start, stop in generation_chunks(STREAMED)}
    assert len(chunks) == 3

    calls = _count_generation(monkeypatch)
    per_cell = {job: execute_job(job) for job in jobs}
    # Per-cell generation: populate and the record loop, per cell.
    assert calls == {key: 4 for key in chunks}

    calls.clear()
    shared = Engine(jobs=1, cache=None).run_jobs(jobs)
    assert calls == {key: 1 for key in chunks}
    assert shared == per_cell
    assert share._OVERLAY == {}


def test_cacheless_run_ignores_planted_payload_and_cleans_up(
        tmp_path, monkeypatch):
    """A payload at the old shared /tmp location is never read, and a
    run without a cache leaves no trace directory behind."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    job = _job()
    planted = tmp_path / "repro-traces" / f"mc80-{STREAMED}-7"
    # Header fields of the right axis over another seed's records.
    store.materialize_trace(get_workload("mc80"), STREAMED, 8, planted)
    header_path = planted / "header.json"
    header = json.loads(header_path.read_text())
    header["seed"] = 7
    header_path.write_text(json.dumps(header))
    expected = execute_job(job)

    opened = []
    original = store.open_trace

    def spied(path):
        opened.append(Path(path).resolve())
        return original(path)

    monkeypatch.setattr(store, "open_trace", spied)
    result = Engine(jobs=1, cache=None).run_jobs([job])[job]
    assert result == expected
    assert opened and planted.resolve() not in opened
    assert all(path.is_relative_to(tmp_path.resolve()) for path in opened)
    assert [path.name for path in tmp_path.iterdir()] == ["repro-traces"]


def test_cached_run_keeps_traces_under_the_cache(tmp_path):
    from repro.runtime.cache import ResultCache

    job = _job()
    Engine(jobs=1, cache=ResultCache(tmp_path)).run_jobs([job])
    assert share._valid(tmp_path / share.TRACES_SUBDIR
                        / f"mc80-{STREAMED}-7", "mc80", STREAMED, 7)
