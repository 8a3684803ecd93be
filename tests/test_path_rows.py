"""Bulk path rows against the per-page row builder they replaced.

``_PathTable._add`` builds the columnar kernel's path rows — walk lines,
PWC tags, leaf level and frame, and the ASAP replay columns (descriptor
hit, per-level prefetch target line, hole flag) — with sorted-array
lookups and ``searchsorted``.  :func:`reference_rows` below is the
per-page loop it replaced, kept as the oracle: every row must match it
bit for bit, over layouts with holes, VMAs grown past their PT
reservation, 2MB mappings, a nonzero ASID bias and descriptors that
lack a prefetch level.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.range_registers import RangeRegisterFile, VmaDescriptor
from repro.experiments.common import SCHEMES
from repro.pagetable import constants as c
from repro.pagetable.radix import PageFault
from repro.schemes.asap import HoleChecker
from repro.sim import columnar
from repro.sim.columnar import _PATH_COLS, _PathTable
from repro.sim.runner import Scale, run_native
from repro.sim.simulator import NativeSimulation, build_native_descriptors
from repro.tlb.tlb import ASID_SHIFT, asid_bias
from repro.workloads.suite import get as get_workload
from tests.conftest import make_mixed_process, mixed_vpns

needs_backend = pytest.mark.skipif(
    not columnar.columnar_available(),
    reason="no C compiler/cffi for the columnar backend")


def reference_rows(new, process, vbias, asap=None) -> np.ndarray:
    """One row per vpn of sorted ``new``, built page by page."""
    pt = process.page_table
    raw = new & ((1 << ASID_SHIFT) - 1) if vbias else new
    count = new.size
    pages, large = pt.leaf_maps()
    leaf = np.empty(count, dtype=np.int64)
    pframe = np.empty(count, dtype=np.int64)
    for i in range(count):
        vpn = int(raw[i])
        frame = pages.get(vpn)
        if frame is not None:
            leaf[i] = 1
            pframe[i] = frame
            continue
        lframe = large.get(vpn >> 9)
        if lframe is not None:
            leaf[i] = 2
            pframe[i] = lframe + (vpn & 511)
            continue
        process.flat_walk(vpn << 12)
        raise AssertionError("flat_walk did not raise for an unmapped vpn")

    rows = np.empty((count, _PATH_COLS), dtype=np.int64)
    rows[:, 0] = _PathTable._node_lines(raw, 4, pt)
    rows[:, 1] = _PathTable._node_lines(raw, 3, pt)
    rows[:, 2] = _PathTable._node_lines(raw, 2, pt)
    rows[:, 3] = 0
    sel = leaf == 1
    if sel.any():
        rows[sel, 3] = _PathTable._node_lines(raw[sel], 1, pt)
    rows[:, 4] = (raw >> 9) | vbias
    rows[:, 5] = (raw >> 18) | vbias
    rows[:, 6] = (raw >> 27) | vbias
    rows[:, 7] = leaf
    rows[:, 8] = pframe
    rows[:, 9] = (leaf == 2).astype(np.int64)
    rows[:, 10] = 0
    rows[:, 11:15] = -1
    rows[:, 15:19] = 0
    if asap is not None:
        starts, descriptors, levels, hole_checker = asap
        for i in range(count):
            va = int(raw[i]) << 12
            idx = bisect_right(starts, va) - 1
            if idx < 0:
                continue
            descriptor = descriptors[idx]
            if not (descriptor.start <= va < descriptor.end):
                continue
            rows[i, 10] = 1
            for s, level in enumerate(levels):
                target = descriptor.entry_addr(va, level)
                if target is None:
                    continue
                rows[i, 11 + s] = target >> 6
                if hole_checker is not None and hole_checker(va, level):
                    rows[i, 15 + s] = 1
    return rows


def bulk_rows(new, process, vbias, asap=None) -> np.ndarray:
    table = _PathTable()
    table._add(new, process, vbias, asap)
    return table.paths[:table.count]


def asap_context(process, registers: int, drop: list[bool],
                 levels: tuple[int, ...], holes: bool):
    """The (starts, descriptors, levels, hole_checker) replay context,
    with the base of each descriptor's lowest level removed where
    ``drop`` says so (a descriptor lacking a prefetch level)."""
    descriptors = build_native_descriptors(process, 16)
    trimmed = []
    for descriptor, cut in zip(descriptors, drop + [False] * 16):
        bases = descriptor.level_bases
        if cut and len(bases) > 1:
            bases = bases[1:]
        trimmed.append(VmaDescriptor(descriptor.start, descriptor.end,
                                     bases))
    file = RangeRegisterFile(registers)
    file.load(trimmed)
    checker = (HoleChecker(process.vmas, process.asap_layout)
               if holes else None)
    return file._starts, file._descriptors, levels, checker


@given(seed=st.integers(0, 1 << 16),
       count=st.integers(1, 3000),
       layout_levels=st.sampled_from([(1,), (1, 2), (2, 3), (1, 2, 3)]),
       hole_rate=st.sampled_from([0.0, 0.2, 0.7]),
       asid=st.sampled_from([0, 1, 5]),
       prefetch=st.sets(st.integers(1, 4), min_size=1),
       registers=st.integers(1, 3),
       drop=st.lists(st.booleans(), max_size=3),
       holes=st.booleans())
@settings(max_examples=60, deadline=None)
def test_bulk_rows_match_per_page_rows(seed, count, layout_levels,
                                       hole_rate, asid, prefetch,
                                       registers, drop, holes):
    process = make_mixed_process(seed, layout_levels, hole_rate)
    vpns = mixed_vpns(process, count, seed)
    process.populate(vpns)
    vbias = asid_bias(asid)
    new = np.unique(vpns) | vbias
    asap = asap_context(process, registers, drop, tuple(sorted(prefetch)),
                        holes)
    assert np.array_equal(bulk_rows(new, process, vbias, asap),
                          reference_rows(new, process, vbias, asap))
    assert np.array_equal(bulk_rows(new, process, vbias),
                          reference_rows(new, process, vbias))


def test_layout_holes_reach_the_rows():
    """The fixture really produces hole flags and unpinned levels, so the
    equivalence above is not vacuous."""
    process = make_mixed_process(3, (1, 2), 0.5)
    vpns = mixed_vpns(process, 3000, 3)
    process.populate(vpns)
    new = np.unique(vpns)
    rows = bulk_rows(new, process, 0,
                     asap_context(process, 2, [True], (1, 2, 3), True))
    assert rows[:, 10].any() and not rows[:, 10].all()
    assert rows[:, 15].any() and not rows[:, 15].all()
    assert (rows[:, 13] == -1).all()      # no descriptor pins level 3
    assert (rows[:, 9] == 1).any()        # 2MB-backed rows


def test_unmapped_vpn_raises_the_walk_fault():
    process = make_mixed_process(1)
    vpns = mixed_vpns(process, 1000, 1)
    process.populate(vpns[:600])
    new = np.unique(vpns)
    with pytest.raises(PageFault) as expected:
        reference_rows(new, process, 0)
    with pytest.raises(PageFault) as raised:
        bulk_rows(new, process, 0)
    assert str(raised.value) == str(expected.value)


@given(seed=st.integers(0, 1 << 16), hole_rate=st.sampled_from([0.0, 0.5]),
       touch_growth=st.booleans())
@settings(max_examples=20, deadline=None)
def test_hole_mask_matches_scalar_checker(seed, hole_rate, touch_growth):
    process = make_mixed_process(seed, (1, 2), hole_rate)
    heap = next(iter(process.vmas))
    vpns = mixed_vpns(process, 2000, seed)
    if not touch_growth:
        # Leave the heap's growth unfaulted: its tags lie past the
        # region's coverage but in no hole set.
        first = heap.start >> c.PAGE_SHIFT
        vpns = vpns[(vpns < first + 700) | (vpns >= heap.end >> c.PAGE_SHIFT)]
    process.populate(vpns)
    process.brk(heap, 2048 * c.PAGE_SIZE)
    checker = HoleChecker(process.vmas, process.asap_layout)
    rng = np.random.default_rng(seed)
    # Pages inside the VMAs plus VAs around and between them.
    vas = np.concatenate([
        mixed_vpns(process, 500, seed + 1) << c.PAGE_SHIFT,
        rng.integers(0, 1 << 47, size=200),
        np.array([vma.end for vma in process.vmas]
                 + [vma.start - 1 for vma in process.vmas])])
    for level in (1, 2, 3):
        assert checker.mask(vas, level).tolist() == [
            checker(int(va), level) for va in vas]


@needs_backend
def test_asap_with_holes_columnar_matches_scalar(monkeypatch):
    monkeypatch.setenv("REPRO_REQUIRE_CCORE", "1")
    entry = SCHEMES["asap"]
    scalar, col = [
        run_native("mc80", entry.native_config, scheme=entry.spec,
                   scale=Scale(6_000, 1_200, 11), hole_rate=0.3,
                   kernel=kernel)
        for kernel in ("scalar", "columnar")]
    assert scalar.scheme_stats["wasted_on_hole"] > 0
    assert scalar == col


def _asap_sim(kernel: str) -> NativeSimulation:
    spec = get_workload("mc80")
    entry = SCHEMES["asap"]
    process = spec.build_process(
        asap_levels=entry.native_config.native_levels, seed=5)
    return NativeSimulation(process, asap=entry.native_config,
                            scheme=entry.spec, kernel=kernel)


@needs_backend
def test_custom_hole_checker_keeps_the_scalar_loop():
    """A per-VA checker without ``mask`` cannot feed the path rows, so
    the run stays scalar rather than having its checker ignored."""
    trace = get_workload("mc80").generate_trace(4_000, seed=5)
    runs = []
    for kernel in ("scalar", "columnar"):
        sim = _asap_sim(kernel)
        assert columnar.engine_mode(sim, False) == "asap"
        sim.prefetcher.hole_checker = lambda va, level: (va >> 21) & 1 == 1
        assert columnar.engine_mode(sim, False) is None
        runs.append(sim.run(trace, warmup=500))
        assert sim._columnar_paths is None
    assert runs[0] == runs[1]
    assert runs[0].scheme_stats["wasted_on_hole"] > 0
