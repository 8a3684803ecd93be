"""A process address space with demand paging over the simulated OS.

Ties the substrates together the way Linux does: a VMA tree describes what
is allocated, the radix page table is populated *lazily* on first touch
(page fault), data frames come from the buddy allocator's ``data`` pool and
PT-node frames from its ``pt`` pool — unless an :class:`AsapPtLayout` is
attached, in which case the prefetch-target levels are placed into their
reserved, sorted regions (§3.3).

Large pages: a VMA created with ``page_level=2`` is backed by 2MB mappings
(512-frame aligned), exercising the §3.5 interaction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernelsim.buddy import BuddyAllocator
from repro.kernelsim.pt_layout import AsapPtLayout
from repro.kernelsim.vma import Vma, VmaKind, VmaTree
from repro.pagetable import constants as c
from repro.pagetable.radix import FaultPath, RadixPageTable, WalkPath


class SegmentationFault(Exception):
    """Access to an address outside every VMA."""


@dataclass
class TouchResult:
    frame: int
    faulted: bool
    leaf_level: int
    created_nodes: list[tuple[int, int, int]]  # (level, tag, phys_base)


def _keys_in(keys: np.ndarray, table: dict[int, int]) -> np.ndarray:
    """Which of ``keys`` are keys of ``table`` (vectorised ``in``)."""
    if not table:
        return np.zeros(keys.shape, dtype=bool)
    return np.isin(keys, np.fromiter(table, dtype=np.int64, count=len(table)))


# Vma gains a page-size attribute through composition here rather than on
# the dataclass: the OS decides backing granularity per mapping request.
class ProcessAddressSpace:
    """One process: VMAs + page table + demand paging."""

    def __init__(
        self,
        buddy: BuddyAllocator | None = None,
        levels: int = 4,
        asap_layout: AsapPtLayout | None = None,
        data_pool: str = "data",
        pt_pool: str = "pt",
    ) -> None:
        self.buddy = buddy or BuddyAllocator()
        self.vmas = VmaTree()
        self.asap_layout = asap_layout
        self.data_pool = data_pool
        self.pt_pool = pt_pool
        self._page_levels: dict[int, int] = {}  # id(vma) -> leaf level
        self._fault_vma: Vma | None = None
        self.page_table = RadixPageTable(levels, node_placer=self._place_node)
        self.faults = 0

    # ------------------------------------------------------------------
    # address-space management
    # ------------------------------------------------------------------
    def mmap(
        self,
        start: int,
        size: int,
        kind: VmaKind = VmaKind.MMAP,
        name: str = "",
        growable: bool = False,
        page_level: int = 1,
    ) -> Vma:
        if start % c.PAGE_SIZE or size % c.PAGE_SIZE:
            raise ValueError("mappings must be page aligned")
        if page_level == 2 and (start % c.LARGE_PAGE_SIZE
                                or size % c.LARGE_PAGE_SIZE):
            raise ValueError("2MB-backed mappings must be 2MB aligned")
        vma = self.vmas.insert(
            Vma(start=start, size=size, kind=kind, name=name,
                growable=growable)
        )
        self._page_levels[id(vma)] = page_level
        if self.asap_layout is not None:
            self.asap_layout.register_vma(vma)
        return vma

    def brk(self, vma: Vma, delta: int) -> None:
        """Grow a VMA upward; PT regions extend lazily on later faults."""
        self.vmas.extend(vma, delta)

    def page_level_of(self, vma: Vma) -> int:
        return self._page_levels[id(vma)]

    # ------------------------------------------------------------------
    # demand paging
    # ------------------------------------------------------------------
    def _place_node(self, level: int, tag: int) -> int:
        vma = self._fault_vma
        if self.asap_layout is not None:
            return self.asap_layout.place_node(vma, level, tag)
        return self.buddy.alloc_frame(self.pt_pool) << c.PAGE_SHIFT

    def touch(self, va: int) -> TouchResult:
        """Translate ``va``, faulting the page in on first access."""
        hit = self.page_table.lookup(va)
        if hit is not None:
            return TouchResult(frame=hit[0], faulted=False,
                               leaf_level=hit[1], created_nodes=[])
        vma = self.vmas.find(va)
        if vma is None:
            raise SegmentationFault(f"{va:#x} is not mapped by any VMA")
        leaf_level = self._page_levels[id(vma)]
        if leaf_level == 2:
            frame = self.buddy.alloc_run(
                c.ENTRIES_PER_NODE, pool=self.data_pool, aligned=True
            )
        else:
            frame = self.buddy.alloc_frame(self.data_pool)
        self._fault_vma = vma
        try:
            created = self.page_table.map_page(va, frame, leaf_level)
        finally:
            self._fault_vma = None
        self.faults += 1
        if leaf_level == 2:
            # The 4KB frame within the large page, as lookup() reports it.
            frame += c.vpn(va) & (c.ENTRIES_PER_NODE - 1)
        return TouchResult(frame=frame, faulted=True, leaf_level=leaf_level,
                           created_nodes=created)

    def populate(self, vpns) -> int:
        """Pre-fault a sequence of vpns (steady-state warm-up) in order;
        returns the number of faults taken.

        The outcome is exactly a :meth:`touch` per vpn — the same frames,
        PT nodes and layout holes, the same allocator state and ``_rng``
        draws (the data and PT pools share them), the same fault count,
        and the same :class:`SegmentationFault` on the first unmapped
        vpn, raised after the faults before it are counted — but it is
        computed run-wise.  Only *boundary* vpns go through
        ``alloc_frame``/``alloc_run`` + ``map_page`` one at a time: the
        first vpn of every PTE node that does not exist yet (its
        ``map_page`` places PT nodes, drawing frames between the data
        frames) and every large-page-backed vpn.  Every vpn between two
        boundaries takes its frame from one run-based ``alloc_frames``
        slice and its leaf from one ``pages.update``.
        """
        vpns = np.asarray(vpns, dtype=np.int64).ravel()
        page_table = self.page_table
        pages, large = page_table.leaf_maps()
        # First occurrences, in order; a vpn mapped before the call
        # takes no fault.
        _, first = np.unique(vpns, return_index=True)
        vpns = vpns[np.sort(first)]
        vpns = vpns[~(_keys_in(vpns, pages)
                      | _keys_in(vpns >> c.LEVEL_BITS, large))]

        vmas = list(self.vmas)
        starts = np.array([vma.start >> c.PAGE_SHIFT for vma in vmas],
                          dtype=np.int64)
        ends = np.array([vma.end >> c.PAGE_SHIFT for vma in vmas],
                        dtype=np.int64)
        which = np.searchsorted(starts, vpns, side="right") - 1
        inside = which >= 0
        if vmas:
            inside &= vpns < ends[np.maximum(which, 0)]
        outside = np.flatnonzero(~inside)
        unmapped = int(vpns[outside[0]]) if outside.size else None
        stop = int(outside[0]) if outside.size else vpns.size
        vpns = vpns[:stop]
        which = which[:stop]
        levels = np.array([self._page_levels[id(vma)] for vma in vmas],
                          dtype=np.int64)[which]
        # A 2MB mapping faults once, at the first vpn of its large page.
        is_large = levels == 2
        groups = vpns >> c.LEVEL_BITS
        keep = ~is_large
        if is_large.any():
            large_at = np.flatnonzero(is_large)
            _, first = np.unique(groups[large_at], return_index=True)
            keep[large_at[first]] = True
            vpns, which, groups, is_large = (
                vpns[keep], which[keep], groups[keep], is_large[keep])
        # The first vpn of a PTE node that does not exist yet creates it.
        small_at = np.flatnonzero(~is_large)
        _, first = np.unique(groups[small_at], return_index=True)
        creators = small_at[first]
        creators = creators[~_keys_in(groups[creators],
                                      page_table.leaf_nodes(1))]
        boundaries = np.union1d(creators, np.flatnonzero(is_large))

        buddy = self.buddy
        data_pool = self.data_pool
        map_page = page_table.map_page
        vpn_list = vpns.tolist()
        which_list = which.tolist()
        large_list = is_large.tolist()
        faults = 0
        try:
            done = 0
            for at in boundaries.tolist() + [len(vpn_list)]:
                if at > done:
                    run = vpn_list[done:at]
                    pages.update(zip(run, buddy.alloc_frames(len(run),
                                                             data_pool)))
                    faults += len(run)
                if at == len(vpn_list):
                    break
                va = vpn_list[at] << c.PAGE_SHIFT
                self._fault_vma = vmas[which_list[at]]
                if large_list[at]:
                    frame = buddy.alloc_run(
                        c.ENTRIES_PER_NODE, pool=data_pool, aligned=True)
                    map_page(va, frame, 2)
                else:
                    map_page(va, buddy.alloc_frame(data_pool), 1)
                self._fault_vma = None
                faults += 1
                done = at + 1
            if unmapped is not None:
                raise SegmentationFault(
                    f"{unmapped << c.PAGE_SHIFT:#x} is not mapped by any VMA")
        finally:
            # Count even the faults a SegmentationFault strands: their
            # frames were allocated and leaves installed, as touch()
            # would have left them.
            self._fault_vma = None
            self.faults += faults
        return faults

    # ------------------------------------------------------------------
    # translation services for the simulator
    # ------------------------------------------------------------------
    def walk_path(self, va: int) -> WalkPath:
        return self.page_table.walk_path(va)

    def flat_walk(self, va: int):
        """Flat walk-path form for the simulator's per-vpn path cache
        (see :meth:`repro.pagetable.radix.RadixPageTable.flat_walk`)."""
        return self.page_table.flat_walk(va)

    def fault_path(self, va: int) -> FaultPath:
        return self.page_table.fault_path(va)

    def frame_of(self, vpn: int) -> int | None:
        return self.page_table.frame_of(vpn)

    def cluster_frames(self, vpn: int) -> list[int | None]:
        return self.page_table.cluster_frames(vpn)

    # ------------------------------------------------------------------
    # Table 2 inventory
    # ------------------------------------------------------------------
    def pt_page_count(self) -> int:
        return self.page_table.node_count()

    def pt_contiguous_regions(self) -> int:
        """Number of maximal physically contiguous runs of PT pages."""
        frames = sorted(self.page_table.node_frames())
        if not frames:
            return 0
        regions = 1
        for prev, cur in zip(frames, frames[1:]):
            if cur != prev + 1:
                regions += 1
        return regions
