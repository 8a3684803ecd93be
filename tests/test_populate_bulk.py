"""Run-based demand paging against the per-page ``touch()`` oracle.

``ProcessAddressSpace.populate`` faults pages in run by run (boundary
vpns one at a time, everything between them from one allocator slice
and one leaf-map update).  Its contract is the per-vpn ``touch()`` loop:
the same page-table and node maps (insertion order included), the same
allocator pools, slots, reservations and ``_rng`` state, the same
layout holes, the same fault count, and on an unmapped vpn the same
``SegmentationFault`` with the same stranded faults.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernelsim.buddy import BuddyAllocator
from repro.kernelsim.process import SegmentationFault
from repro.pagetable import constants as c
from repro.sim.order import first_touch_order
from tests.conftest import make_mixed_process, mixed_vpns

UNMAPPED_VPN = 0x1234_0000_0000 >> c.PAGE_SHIFT


def touch_each(process, vpns) -> None:
    """The per-page reference: one touch() per vpn, in order."""
    for vpn in vpns:
        process.touch(int(vpn) << c.PAGE_SHIFT)


def snapshot(process) -> dict:
    """Everything demand paging can change, comparable across two
    processes built alike (regions keyed by VMA start, not identity)."""
    pt = process.page_table
    pages, large = pt.leaf_maps()
    buddy = process.buddy
    out = {
        "pages": list(pages.items()),
        "large": list(large.items()),
        "nodes": [list(nodes.items()) for nodes in pt._nodes_by_level],
        "pools": {name: dataclasses.asdict(pool)
                  for name, pool in buddy._pools.items()},
        "slots": sorted(buddy._used_slots),
        "reserve_top": buddy._reserve_top,
        "reservations": {base: dataclasses.asdict(r)
                         for base, r in buddy._reservations.items()},
        "buddy_stats": dataclasses.asdict(buddy.stats),
        "rng": buddy._rng.getstate(),
        "faults": process.faults,
    }
    layout = process.asap_layout
    if layout is not None:
        starts = {id(vma): vma.start for vma in process.vmas}
        out["layout"] = (
            layout._rng.getstate(), layout.holes_created,
            layout.nodes_placed_in_region,
            sorted((starts[key[0]], key[1],
                    {**dataclasses.asdict(region),
                     "holes": sorted(region.holes)})
                   for key, region in layout._regions.items()))
    return out


def assert_same_outcome(vpns, seed=1, asap_levels=(1, 2), hole_rate=0.0,
                        premapped=()):
    bulk = make_mixed_process(seed, asap_levels, hole_rate)
    oracle = make_mixed_process(seed, asap_levels, hole_rate)
    touch_each(bulk, premapped)
    touch_each(oracle, premapped)
    before = oracle.faults
    try:
        touch_each(oracle, vpns)
    except SegmentationFault as exc:
        expected_error = str(exc)
    else:
        expected_error = None
    if expected_error is None:
        assert bulk.populate(vpns) == oracle.faults - before
    else:
        with pytest.raises(SegmentationFault) as raised:
            bulk.populate(vpns)
        assert str(raised.value) == expected_error
    assert snapshot(bulk) == snapshot(oracle)


@pytest.mark.parametrize("order", ["sequential", "chunked", "demand"])
@pytest.mark.parametrize("asap_levels,hole_rate",
                         [((), 0.0), ((1, 2), 0.0), ((1, 2), 0.3)])
def test_first_touch_orders(order, asap_levels, hole_rate):
    process = make_mixed_process()
    vpns = first_touch_order(mixed_vpns(process, 6000, seed=3), order)
    assert_same_outcome(vpns, asap_levels=asap_levels,
                        hole_rate=hole_rate)


def test_unmapped_vpn_mid_list_strands_the_earlier_faults():
    process = make_mixed_process()
    vpns = mixed_vpns(process, 3000, seed=5).tolist()
    vpns.insert(1700, UNMAPPED_VPN)
    assert_same_outcome(vpns, hole_rate=0.2)


def test_unmapped_vpn_first():
    assert_same_outcome([UNMAPPED_VPN, HEAP_VPN])


HEAP_VPN = next(iter(make_mixed_process().vmas)).start >> c.PAGE_SHIFT


def test_empty_and_already_mapped():
    assert_same_outcome([])
    process = make_mixed_process()
    vpns = mixed_vpns(process, 500, seed=2)
    assert_same_outcome(vpns, premapped=vpns)


@given(seed=st.integers(0, 1 << 16),
       count=st.integers(0, 2500),
       order=st.sampled_from(["sequential", "chunked", "demand", "raw"]),
       asap_levels=st.sampled_from([(), (1,), (1, 2), (2, 3)]),
       hole_rate=st.sampled_from([0.0, 0.1, 0.5]),
       premapped=st.integers(0, 200),
       unmapped_at=st.one_of(st.none(), st.floats(0.0, 1.0)))
@settings(max_examples=40, deadline=None)
def test_matches_touch_oracle(seed, count, order, asap_levels, hole_rate,
                              premapped, unmapped_at):
    process = make_mixed_process(seed)
    drawn = mixed_vpns(process, count, seed)
    # "raw" keeps the duplicates a first-touch order would fold away.
    vpns = (drawn if order == "raw"
            else first_touch_order(drawn, order)).tolist()
    if unmapped_at is not None:
        vpns.insert(int(unmapped_at * len(vpns)), UNMAPPED_VPN)
    assert_same_outcome(vpns, seed=seed, asap_levels=asap_levels,
                        hole_rate=hole_rate,
                        premapped=drawn[:premapped].tolist())


@given(seed=st.integers(0, 1 << 16),
       counts=st.lists(st.integers(0, 60), min_size=1, max_size=8),
       mean_run=st.sampled_from([1.0, 2.5, 8.0, 5000.0]))
@settings(max_examples=40, deadline=None)
def test_alloc_frames_matches_per_frame_loop(seed, counts, mean_run):
    """Run-based alloc_frames: same frames, same pool state and the same
    ``_rng`` draws as alloc_frame per frame, interleaved with another
    pool drawing on the shared generator."""
    bulk = BuddyAllocator(seed=seed, default_mean_run=mean_run,
                          runs_per_arena=2)
    loop = BuddyAllocator(seed=seed, default_mean_run=mean_run,
                          runs_per_arena=2)
    for count in counts:
        assert bulk.alloc_frames(count) == [loop.alloc_frame()
                                            for _ in range(count)]
        assert bulk.alloc_frame("pt") == loop.alloc_frame("pt")
    assert bulk._rng.getstate() == loop._rng.getstate()
    assert ({k: dataclasses.asdict(v) for k, v in bulk._pools.items()}
            == {k: dataclasses.asdict(v) for k, v in loop._pools.items()})
    assert bulk.stats == loop.stats
    assert np.array_equal(sorted(bulk._used_slots), sorted(loop._used_slots))
