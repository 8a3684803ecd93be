"""Flat 2D walks and bulk host backing against the object-based oracles.

``NestedPageWalker.walk_flat`` prices the flat per-vpn paths that
``VirtualMachine.flat_nested_path`` builds.  Its contract is the
object-based Figure 7 walk it replaced — kept below as
:func:`reference_walk` over paths from :func:`reference_nested_path`
(the ``WalkStep``-based builder): the same latency and service records
per walk, and after a sequence the same walker counters, PWC arrays and
stats, cache-hierarchy counters and prefetcher stats.  Hypothesis draws
VMs with and without guest/host ASAP, 2MB host pages, 2MB guest VMAs,
a non-zero ASID bias and service collection on or off.

``VirtualMachine._back_range_contiguously`` installs 4KB host backing
one hPT PL1 node at a time; :func:`reference_back_range` is the
per-page loop it replaced.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prefetcher import AsapPrefetcher
from repro.core.range_registers import RangeRegisterFile
from repro.kernelsim.buddy import BuddyAllocator
from repro.kernelsim.hypervisor import VirtualMachine
from repro.kernelsim.phys import PhysicalMemory
from repro.kernelsim.process import ProcessAddressSpace
from repro.kernelsim.pt_layout import AsapPtLayout
from repro.kernelsim.vma import VmaKind
from repro.mem.hierarchy import CacheHierarchy
from repro.pagetable import constants as c
from repro.pagetable.nested import (
    NestedPageWalker,
    NestedStep,
    NestedWalkPath,
)
from repro.pagetable.pwc import SplitPwc
from repro.pagetable.walker import PWC_LABEL
from repro.schemes.asap import HoleChecker
from repro.sim.virt import build_guest_descriptors, build_host_descriptor
from repro.tlb.tlb import asid_bias

GUEST_MEM = 1 << 32
HEAP = 0x5555_0000_0000
#: A 2MB-page guest VMA far from the heap (different PL4/PL3 nodes).
LARGE = 0x7000_0000_0000
HEAP_PAGES = 1500
LARGE_PAGES = 2 * c.ENTRIES_PER_NODE


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def reference_nested_path(vm, va, chains) -> NestedWalkPath:
    """The step-object path builder, with its own per-page host chain
    memo (``chains``) — first use maps the gPA page lazily, as before."""

    def host_chain(gpa):
        page = gpa >> c.PAGE_SHIFT
        cached = chains.get(page)
        if cached is None:
            vm.translate_gpa(gpa)
            hpath = vm.hpt.walk_path(gpa)
            cached = (hpath.steps, hpath.frame << c.PAGE_SHIFT)
            chains[page] = cached
        return cached

    gpath = vm.guest.walk_path(va)
    steps = []
    for gstep in gpath.steps:
        host_steps, page_hpa = host_chain(gstep.entry_addr)
        entry_hpa = page_hpa | (gstep.entry_addr & (c.PAGE_SIZE - 1))
        steps.append(NestedStep(guest_level=gstep.level,
                                gpa=gstep.entry_addr,
                                host_steps=host_steps,
                                entry_host_addr=entry_hpa))
    data_gpa = (gpath.frame << c.PAGE_SHIFT) | (va & (c.PAGE_SIZE - 1))
    host_steps, page_hpa = host_chain(data_gpa)
    steps.append(NestedStep(guest_level=0, gpa=data_gpa,
                            host_steps=host_steps, entry_host_addr=None))
    return NestedWalkPath(
        va=va, steps=tuple(steps),
        data_host_addr=page_hpa | (va & (c.PAGE_SIZE - 1)),
        guest_leaf_level=gpath.leaf_level,
        host_leaf_level=vm.host_page_level)


def _reference_host_walk(walker, step_gpa, host_steps, t, records,
                         host_prefetcher):
    t += walker.host_pwc.latency
    skip_from = walker.host_pwc.probe(step_gpa)
    start = 0
    if skip_from is not None:
        for index, hstep in enumerate(host_steps):
            if hstep.level >= skip_from:
                if records is not None:
                    records.append((f"h{hstep.level}", PWC_LABEL))
                start = index + 1
            else:
                break
    prefetches: dict[int, int] = {}
    if host_prefetcher is not None:
        prefetches = host_prefetcher.on_tlb_miss(step_gpa, t)
    access = walker.hierarchy.access
    last_level = walker.hierarchy.last_level
    for hstep in host_steps[start:]:
        latency = access(hstep.line, t)
        finish = t + latency
        completion = prefetches.get(hstep.level)
        if completion is not None and completion > finish:
            finish = completion
        if records is not None:
            records.append((f"h{hstep.level}", last_level[0]))
        t = finish
        walker.total_accesses += 1
    host_leaf = host_steps[-1].level if host_steps else 1
    walker.host_pwc.insert(step_gpa, host_leaf)
    return t


def reference_walk(walker, path, now=0, guest_prefetches=None,
                   host_prefetcher=None, collect=True):
    """The object-priced 2D walk: ``SplitPwc.probe``/``insert`` per
    dimension, one host 1D walk per guest step.  Returns ``(latency,
    records)`` and updates ``walker``'s counters."""
    records = [] if collect else None
    t = now + walker.guest_pwc.latency
    skip_from = walker.guest_pwc.probe(path.va)
    steps = path.steps
    start = 0
    if skip_from is not None:
        for index, step in enumerate(steps):
            if step.guest_level >= skip_from and step.guest_level != 0:
                if records is not None:
                    records.append((f"g{step.guest_level}", PWC_LABEL))
                start = index + 1
            else:
                break
    access = walker.hierarchy.access
    last_level = walker.hierarchy.last_level
    for step in steps[start:]:
        t = _reference_host_walk(walker, step.gpa, step.host_steps, t,
                                 records, host_prefetcher)
        if step.entry_host_addr is None:
            continue
        latency = access(step.entry_host_addr >> 6, t)
        finish = t + latency
        if guest_prefetches:
            completion = guest_prefetches.get(step.guest_level)
            if completion is not None and completion > finish:
                finish = completion
        if records is not None:
            records.append((f"g{step.guest_level}", last_level[0]))
        t = finish
        walker.total_accesses += 1
    walker.guest_pwc.insert(path.va, path.guest_leaf_level)
    latency = t - now
    walker.walks += 1
    walker.total_latency += latency
    return latency, records


def reference_back_range(vm, gframe, count) -> None:
    """The per-page contiguous backing loop (4KB host pages)."""
    hbase = vm.host_buddy.reserve_contiguous(count)
    for i in range(count):
        if vm.hpt.lookup((gframe + i) << c.PAGE_SHIFT) is None:
            vm.hpt.map_page((gframe + i) << c.PAGE_SHIFT, hbase + i, 1)
    vm._backed_ranges.append((gframe, count))


# ----------------------------------------------------------------------
# machines
# ----------------------------------------------------------------------
def make_vm(guest_asap=(), back_pt=False, host_asap=(), host_page_level=1,
            large_vma=False, seed=3) -> VirtualMachine:
    guest_buddy = BuddyAllocator(PhysicalMemory(GUEST_MEM), seed=seed)
    layout = None
    if guest_asap:
        layout = AsapPtLayout(guest_buddy, levels=guest_asap, seed=seed)
    guest = ProcessAddressSpace(buddy=guest_buddy, asap_layout=layout)
    vm = VirtualMachine(guest, guest_mem_bytes=GUEST_MEM,
                        host_page_level=host_page_level,
                        host_asap_levels=host_asap,
                        back_guest_pt_contiguously=back_pt, seed=seed)
    vm.mmap(HEAP, HEAP_PAGES * c.PAGE_SIZE, kind=VmaKind.HEAP, name="heap")
    if large_vma:
        vm.mmap(LARGE, LARGE_PAGES * c.PAGE_SIZE, name="large",
                page_level=2)
    return vm


def make_machine(vm):
    """A fresh hierarchy, both PWCs, the walker and the ASAP prefetchers
    the VM supports (guest: needs contiguous backing; host: host ASAP)."""
    hierarchy = CacheHierarchy()
    walker = NestedPageWalker(
        hierarchy, SplitPwc(top_level=vm.guest.page_table.levels),
        SplitPwc(top_level=4))
    guest_prefetcher = host_prefetcher = None
    descriptors = build_guest_descriptors(vm, 4)
    if descriptors:
        registers = RangeRegisterFile(4)
        registers.load(descriptors)
        guest_prefetcher = AsapPrefetcher(
            hierarchy, registers, levels=vm.guest.asap_layout.levels,
            hole_checker=HoleChecker(vm.guest.vmas, vm.guest.asap_layout))
    descriptor = build_host_descriptor(vm)
    if descriptor is not None:
        registers = RangeRegisterFile(1)
        registers.load([descriptor])
        host_prefetcher = AsapPrefetcher(
            hierarchy, registers, levels=vm.host_asap_layout.levels)
    return walker, guest_prefetcher, host_prefetcher


def pwc_state(pwc):
    return (pwc.probes, pwc.hits,
            [(level, list(tlb.tags), list(tlb.frames), list(tlb.sizes),
              tlb.stats.hits, tlb.stats.misses) for level, tlb in pwc.view])


def machine_state(walker, guest_prefetcher, host_prefetcher):
    hierarchy = walker.hierarchy
    return {
        "walker": (walker.walks, walker.total_latency,
                   walker.total_accesses),
        "guest_pwc": pwc_state(walker.guest_pwc),
        "host_pwc": pwc_state(walker.host_pwc),
        "served": dict(hierarchy.served),
        "caches": [dataclasses.asdict(cache.stats)
                   for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3)],
        "prefetches": (hierarchy.prefetches_issued,
                       hierarchy.prefetches_dropped),
        "mshrs": hierarchy.mshrs.occupancy,
        "prefetchers": [dataclasses.asdict(p.stats) if p else None
                        for p in (guest_prefetcher, host_prefetcher)],
    }


def host_state(vm) -> dict:
    """Everything host backing can change: hPT maps (insertion order
    included), host buddy and host layout state."""
    pages, large = vm.hpt.leaf_maps()
    buddy = vm.host_buddy
    out = {
        "pages": list(pages.items()),
        "large": list(large.items()),
        "nodes": [list(nodes.items()) for nodes in vm.hpt._nodes_by_level],
        "pools": {name: dataclasses.asdict(pool)
                  for name, pool in buddy._pools.items()},
        "slots": sorted(buddy._used_slots),
        "reserve_top": buddy._reserve_top,
        "reservations": {base: dataclasses.asdict(r)
                         for base, r in buddy._reservations.items()},
        "buddy_stats": dataclasses.asdict(buddy.stats),
        "rng": buddy._rng.getstate(),
        "backed": list(vm._backed_ranges),
    }
    layout = vm.host_asap_layout
    if layout is not None:
        out["layout"] = (
            layout._rng.getstate(), layout.holes_created,
            layout.nodes_placed_in_region,
            sorted((key[1], dataclasses.asdict(region))
                   for key, region in layout._regions.items()))
    return out


# ----------------------------------------------------------------------
# flat 2D walks
# ----------------------------------------------------------------------
guest_asaps = st.sampled_from([(), (1,), (1, 2)])
host_asaps = st.sampled_from([(), (1,), (1, 2)])
#: (vma, page index, byte offset); a small page pool forces repeat walks
#: (PWC hits in both dimensions) next to fresh first walks.
accesses = st.lists(
    st.tuples(st.booleans(), st.integers(0, 40), st.integers(0, 4095)),
    min_size=1, max_size=40)


def _va(large_vma, use_large, page, offset):
    if large_vma and use_large:
        return LARGE + (page * 37 % LARGE_PAGES) * c.PAGE_SIZE + offset
    return HEAP + (page * 53 % HEAP_PAGES) * c.PAGE_SIZE + offset


@settings(max_examples=40, deadline=None)
@given(guest_asap=guest_asaps, back_pt=st.booleans(), host_asap=host_asaps,
       host_page_level=st.sampled_from([1, 2]), large_vma=st.booleans(),
       asid=st.sampled_from([0, 3]), collect=st.booleans(),
       adapter=st.booleans(), draws=accesses)
def test_flat_walk_matches_reference_walk(guest_asap, back_pt, host_asap,
                                          host_page_level, large_vma, asid,
                                          collect, adapter, draws):
    """``walk_flat`` over ``flat_nested_path`` (or the ``walk`` adapter
    over ``nested_path``) prices every walk like :func:`reference_walk`
    and leaves every counter and structure identical."""
    shape = dict(guest_asap=guest_asap, back_pt=back_pt,
                 host_asap=host_asap, host_page_level=host_page_level,
                 large_vma=large_vma)
    ref_vm, flat_vm = make_vm(**shape), make_vm(**shape)
    ref = make_machine(ref_vm)
    flat = make_machine(flat_vm)
    bias = asid_bias(asid)
    for walker, _, _ in (ref, flat):
        walker.guest_pwc.asid_bias = bias
        walker.host_pwc.asid_bias = bias
    ref_walker, ref_guest, ref_host = ref
    flat_walker, flat_guest, flat_host = flat
    chains: dict = {}
    flat_paths: dict = {}
    now = 0
    for use_large, page, offset in draws:
        va = _va(large_vma, use_large, page, offset)
        assert ref_vm.touch(va) == flat_vm.touch(va)
        vpn = va >> c.PAGE_SHIFT
        path = reference_nested_path(ref_vm, va, chains)
        prefetches = ref_guest.on_tlb_miss(va, now) if ref_guest else None
        expected = reference_walk(ref_walker, path, now, prefetches,
                                  ref_host, collect)
        prefetches = flat_guest.on_tlb_miss(va, now) if flat_guest else None
        if adapter:
            assert flat_vm.nested_path(va) == path
            outcome = flat_walker.walk(flat_vm.nested_path(va), now,
                                       prefetches, flat_host, collect)
            got = (outcome.latency, outcome.records if collect else None)
        else:
            cached = flat_paths.get(vpn)
            if cached is None:
                cached = flat_vm.flat_nested_path(
                    va, flat_walker.guest_shifts, flat_walker.host_shifts,
                    bias)
                flat_paths[vpn] = cached
            guest_tags, guest_leaf, frame, large, steps = cached
            assert frame == path.data_frame
            assert large == (path.guest_leaf_level >= 2)
            records = [] if collect else None
            latency = flat_walker.walk_flat(guest_tags, guest_leaf, steps,
                                            now, prefetches, flat_host,
                                            records)
            got = (latency, records)
        assert got == expected
        now += expected[0] + 7
    assert machine_state(*flat) == machine_state(*ref)
    assert host_state(flat_vm) == host_state(ref_vm)


def test_nested_path_is_the_reference_path():
    """``nested_path`` (read off the flat host chains) rebuilds the
    step-object path exactly: entry byte addresses included."""
    for host_page_level in (1, 2):
        vm = make_vm(guest_asap=(1, 2), back_pt=True, host_asap=(1, 2),
                     host_page_level=host_page_level, large_vma=True)
        chains: dict = {}
        for va in (HEAP + 123, HEAP + 600 * c.PAGE_SIZE + 4088,
                   LARGE + 5 * c.PAGE_SIZE + 64):
            vm.touch(va)
            assert vm.nested_path(va) == reference_nested_path(vm, va,
                                                               chains)


# ----------------------------------------------------------------------
# bulk contiguous backing
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(start=st.integers(0, 3 * c.ENTRIES_PER_NODE),
       count=st.integers(1, 4 * c.ENTRIES_PER_NODE),
       premapped=st.lists(st.integers(-40, 5 * c.ENTRIES_PER_NODE),
                          max_size=12),
       overlap=st.booleans(), host_asap=host_asaps)
def test_bulk_backing_matches_per_page_loop(start, count, premapped,
                                            overlap, host_asap):
    """Ranges that cross hPT PL1 nodes, partly pre-mapped (lazily mapped
    pages, or an overlapping earlier backed range), with host PT nodes
    placed by the buddy allocator or the host ASAP layout."""
    gframe = (1 << 18) + start
    bulk, oracle = make_vm(host_asap=host_asap), make_vm(host_asap=host_asap)
    for vm, back in ((bulk, bulk._back_range_contiguously),
                     (oracle, lambda g, n: reference_back_range(oracle, g, n))):
        for page in premapped:
            vm.translate_gpa((gframe + page) << c.PAGE_SHIFT)
        if overlap:
            back(gframe + count // 2, count)
        back(gframe, count)
    assert host_state(bulk) == host_state(oracle)


def test_bulk_backing_of_guest_pt_regions_matches_per_page_loop(
        monkeypatch):
    """A whole VM whose guest PT regions are backed at boot and on
    mmap: the bulk path and the per-page loop leave the same host."""
    shape = dict(guest_asap=(1, 2), back_pt=True, host_asap=(1, 2),
                 large_vma=True)
    bulk = make_vm(**shape)
    monkeypatch.setattr(VirtualMachine, "_back_range_contiguously",
                        reference_back_range)
    oracle = make_vm(**shape)
    assert bulk._backed_ranges
    assert host_state(bulk) == host_state(oracle)
