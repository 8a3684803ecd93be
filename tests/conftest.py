"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.kernelsim.buddy import BuddyAllocator
from repro.kernelsim.phys import PhysicalMemory
from repro.kernelsim.process import ProcessAddressSpace
from repro.kernelsim.pt_layout import AsapPtLayout
from repro.kernelsim.vma import VmaKind
from repro.mem.hierarchy import CacheHierarchy
from repro.pagetable.constants import LARGE_PAGE_SIZE, PAGE_SIZE

#: A convenient VMA base well inside the canonical lower half.
HEAP_BASE = 0x5555_0000_0000


def make_process(
    heap_pages: int = 4096,
    asap_levels: tuple[int, ...] = (),
    seed: int = 1,
    growable: bool = False,
    page_level: int = 1,
):
    """A process with one heap VMA, optionally with the ASAP PT layout."""
    buddy = BuddyAllocator(PhysicalMemory(1 << 40), seed=seed)
    layout = None
    if asap_levels:
        layout = AsapPtLayout(buddy, levels=asap_levels, seed=seed)
    process = ProcessAddressSpace(buddy=buddy, asap_layout=layout)
    heap = process.mmap(
        HEAP_BASE,
        heap_pages * PAGE_SIZE,
        kind=VmaKind.HEAP,
        name="heap",
        growable=growable,
        page_level=page_level,
    )
    return process, heap


#: Bases of make_mixed_process's other two VMAs (2MB aligned).
MMAP_BASE = 0x6000_0000_0000
LARGE_BASE = 0x7000_0000_0000


def make_mixed_process(
    seed: int = 1,
    asap_levels: tuple[int, ...] = (1, 2),
    hole_rate: float = 0.0,
):
    """A process exercising every demand-paging path: a growable heap
    grown past its PT reservation (failed extensions leave layout
    holes), a plain mapping and a 2MB-backed mapping, on a fragmented
    allocator whose short runs make ``_rng`` draws frequent."""
    buddy = BuddyAllocator(PhysicalMemory(1 << 36), seed=seed,
                           default_mean_run=3.0, runs_per_arena=2)
    layout = None
    if asap_levels:
        layout = AsapPtLayout(buddy, levels=asap_levels, seed=seed,
                              pinned_failure_prob=hole_rate)
    process = ProcessAddressSpace(buddy=buddy, asap_layout=layout)
    heap = process.mmap(HEAP_BASE, 700 * PAGE_SIZE, kind=VmaKind.HEAP,
                        name="heap", growable=True)
    process.mmap(MMAP_BASE, 2500 * PAGE_SIZE, name="mmap")
    process.mmap(LARGE_BASE, 4 * LARGE_PAGE_SIZE, name="large",
                 page_level=2)
    process.brk(heap, 3000 * PAGE_SIZE)
    return process


def mixed_vpns(process, count: int, seed: int):
    """``count`` vpns drawn uniformly from the process's VMAs (with
    repeats), as a numpy array."""
    import numpy as np

    rng = np.random.default_rng(seed)
    spans = [(vma.start // PAGE_SIZE, vma.end // PAGE_SIZE)
             for vma in process.vmas]
    pick = rng.integers(0, len(spans), size=count)
    lo = np.array([s for s, _ in spans])[pick]
    hi = np.array([e for _, e in spans])[pick]
    return lo + (rng.random(count) * (hi - lo)).astype(np.int64)


@pytest.fixture
def hierarchy() -> CacheHierarchy:
    return CacheHierarchy()
