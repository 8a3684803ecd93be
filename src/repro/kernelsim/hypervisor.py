"""Nested paging: a guest VM behind a host page table (§3.6, Figure 7).

From the host OS's point of view an entire guest VM is one process whose
"virtual" space is the guest-physical space, mapped by the host page table
(hPT) — Linux/KVM's model, which is why a *single* host VMA descriptor
suffices for host-side ASAP.

The class wires together:

* a guest :class:`ProcessAddressSpace` (its "physical" frames are
  guest-physical, handed out by a guest-side buddy allocator),
* the hPT, a second radix tree translating gPA → host-physical, populated
  lazily as guest frames appear, with 4KB or 2MB host pages (Figure 12),
* optional host-side ASAP layout (sorted hPT PL1/PL2 regions over the one
  host VMA),
* optional *contiguous host backing* for the guest's reserved PT regions —
  the vmcall contract of §3.6 that guest-side ASAP needs so its
  base-plus-offset targets are valid host-physical addresses.
"""

from __future__ import annotations

from repro.kernelsim.buddy import BuddyAllocator
from repro.kernelsim.phys import PhysicalMemory
from repro.kernelsim.process import ProcessAddressSpace, TouchResult
from repro.kernelsim.pt_layout import AsapPtLayout
from repro.kernelsim.vma import Vma, VmaKind
from repro.pagetable import constants as c
from repro.pagetable.nested import NestedStep, NestedWalkPath
from repro.pagetable.radix import RadixPageTable, WalkStep


class VirtualMachine:
    """A guest address space nested behind a host page table."""

    def __init__(
        self,
        guest: ProcessAddressSpace,
        guest_mem_bytes: int,
        host_buddy: BuddyAllocator | None = None,
        host_page_level: int = 1,
        host_asap_levels: tuple[int, ...] = (),
        back_guest_pt_contiguously: bool = False,
        seed: int = 0,
    ) -> None:
        if host_page_level not in (1, 2):
            raise ValueError("host pages are 4KB (1) or 2MB (2)")
        self.guest = guest
        self.guest_mem_bytes = guest_mem_bytes
        host_bytes = max(4 * guest_mem_bytes, 1 << 41)  # >= 2TB host
        self.host_buddy = host_buddy or BuddyAllocator(
            PhysicalMemory(host_bytes), seed=seed + 7
        )
        self.host_page_level = host_page_level
        size = -(-guest_mem_bytes // c.HUGE_PAGE_SIZE) * c.HUGE_PAGE_SIZE
        self.host_vma = Vma(start=0, size=size, kind=VmaKind.OTHER,
                            name="vm-guest-physical")
        self.host_asap_layout: AsapPtLayout | None = None
        if host_asap_levels:
            self.host_asap_layout = AsapPtLayout(
                self.host_buddy, levels=host_asap_levels, seed=seed + 11
            )
            self.host_asap_layout.register_vma(self.host_vma)
        self.back_guest_pt_contiguously = back_guest_pt_contiguously
        self.hpt = RadixPageTable(4, node_placer=self._place_host_node)
        #: Flat host 1D walk per guest-physical page: gframe ->
        #: ``(lines, levels, leaf_level, page_hpa)`` (see :meth:`host_chain`).
        self._host_chains: dict[int, tuple] = {}
        self._backed_ranges: list[tuple[int, int]] = []  # (gframe, count)
        if back_guest_pt_contiguously and guest.asap_layout is not None:
            # Regions already registered before the VM existed (e.g. the
            # guest booted first) get backed now.
            for vma in guest.vmas:
                self._back_vma_regions(vma)

    # ------------------------------------------------------------------
    # host-side placement
    # ------------------------------------------------------------------
    def _place_host_node(self, level: int, tag: int) -> int:
        if self.host_asap_layout is not None:
            return self.host_asap_layout.place_node(self.host_vma, level, tag)
        return self.host_buddy.alloc_frame("hpt") << c.PAGE_SHIFT

    def _map_gpa_page(self, gframe: int) -> None:
        gpa = gframe << c.PAGE_SHIFT
        if self.hpt.lookup(gpa) is not None:
            return
        if self.host_page_level == 1:
            hframe = self.host_buddy.alloc_frame("vm-data")
            self.hpt.map_page(gpa, hframe, 1)
        else:
            large_base = (gframe >> c.LEVEL_BITS) << c.LEVEL_BITS
            hbase = self.host_buddy.alloc_run(
                c.ENTRIES_PER_NODE, pool="vm-data", aligned=True
            )
            self.hpt.map_page(large_base << c.PAGE_SHIFT, hbase, 2)

    def translate_gpa(self, gpa: int) -> int:
        """gPA → host-physical byte address, mapping lazily on first use."""
        hit = self.hpt.lookup(gpa)
        if hit is None:
            self._map_gpa_page(gpa >> c.PAGE_SHIFT)
            hit = self.hpt.lookup(gpa)
            assert hit is not None
        return (hit[0] << c.PAGE_SHIFT) | (gpa & (c.PAGE_SIZE - 1))

    # ------------------------------------------------------------------
    # guest-side interface
    # ------------------------------------------------------------------
    def mmap(self, *args, **kwargs) -> Vma:
        """mmap in the guest; honours the §3.6 vmcall contiguity contract."""
        vma = self.guest.mmap(*args, **kwargs)
        self._back_vma_regions(vma)
        return vma

    def _back_vma_regions(self, vma: Vma) -> None:
        layout = self.guest.asap_layout
        if not self.back_guest_pt_contiguously or layout is None:
            return
        for level in layout.levels:
            region = layout.region(vma, level)
            if region is None:
                continue
            self._back_range_contiguously(region.base_frame,
                                          region.reserved_total)

    def _back_range_contiguously(self, gframe: int, count: int) -> None:
        """Map [gframe, gframe+count) to contiguous host frames."""
        if self.host_page_level == 1:
            hbase = self.host_buddy.reserve_contiguous(count)
            offset = hbase - gframe
            pages, large = self.hpt.leaf_maps()
            end = gframe + count
            span = gframe
            while span < end:
                # One span per hPT PL1 node.  Its first unmapped page goes
                # through map_page (creating nodes, hence placing host PT
                # frames, in per-page order); the rest are leaf installs
                # into the now-present node, in ascending order.
                span_end = min(((span >> c.LEVEL_BITS) + 1) << c.LEVEL_BITS,
                               end)
                if span >> c.LEVEL_BITS not in large:
                    todo = [page for page in range(span, span_end)
                            if page not in pages]
                    if todo:
                        first = todo[0]
                        self.hpt.map_page(first << c.PAGE_SHIFT,
                                          first + offset, 1)
                        pages.update((page, page + offset)
                                     for page in todo[1:])
                span = span_end
        else:
            first_large = gframe >> c.LEVEL_BITS
            last_large = (gframe + count - 1) >> c.LEVEL_BITS
            spans = last_large - first_large + 1
            hbase = self.host_buddy.reserve_contiguous(
                spans * c.ENTRIES_PER_NODE, align=c.ENTRIES_PER_NODE
            )
            for j in range(spans):
                gpa = (first_large + j) << c.LARGE_PAGE_SHIFT
                if self.hpt.lookup(gpa) is None:
                    self.hpt.map_page(gpa, hbase + j * c.ENTRIES_PER_NODE, 2)
        self._backed_ranges.append((gframe, count))

    def touch(self, va: int) -> TouchResult:
        """Demand-page ``va`` in the guest and back everything in the host."""
        result = self.guest.touch(va)
        if result.faulted:
            for _level, _tag, base in result.created_nodes:
                self.translate_gpa(base)
            self.translate_gpa(result.frame << c.PAGE_SHIFT)
        return result

    # ------------------------------------------------------------------
    # 2D walk paths
    # ------------------------------------------------------------------
    def host_chain(self, gframe: int) -> tuple:
        """Flat host 1D walk for guest-physical page ``gframe``:
        ``(lines, levels, leaf_level, page_hpa)`` from
        :meth:`RadixPageTable.flat_walk`, mapping the page lazily on first
        use.  Cached per page — the hPT never remaps a backed page."""
        chain = self._host_chains.get(gframe)
        if chain is None:
            gpa = gframe << c.PAGE_SHIFT
            self.translate_gpa(gpa)
            lines, levels, frame, leaf_level = self.hpt.flat_walk(gpa)
            chain = (lines, levels, leaf_level, frame << c.PAGE_SHIFT)
            self._host_chains[gframe] = chain
        return chain

    def flat_nested_path(
        self,
        va: int,
        guest_shifts: tuple[int, ...] = (),
        host_shifts: tuple[int, ...] = (),
        bias: int = 0,
    ) -> tuple:
        """The Figure 7 schedule for ``va`` in the flat form
        :meth:`NestedPageWalker.walk_flat` prices::

            (guest_tags, guest_leaf_level, data_frame, large, steps)

        with one ``(host_tags, host_lines, host_levels, host_leaf_level,
        gpa, entry_line, guest_level)`` tuple per guest step, root first,
        the data translation last (``entry_line`` −1, ``guest_level`` 0).
        PWC tags are ``(addr >> shift) | bias`` per shift — pass the
        walker's ``guest_shifts``/``host_shifts`` and the run's ASID bias.
        Entry gPAs come straight from the guest's node maps, host chains
        from :meth:`host_chain`.
        """
        entries, glevels, gframe, guest_leaf = \
            self.guest.page_table.flat_entries(va)
        host_chain = self.host_chain
        steps = []
        for gpa, glevel in zip(entries, glevels):
            lines, levels, host_leaf, page_hpa = host_chain(
                gpa >> c.PAGE_SHIFT)
            steps.append((
                tuple((gpa >> shift) | bias for shift in host_shifts),
                lines, levels, host_leaf, gpa,
                (page_hpa | (gpa & (c.PAGE_SIZE - 1))) >> c.LINE_SHIFT,
                glevel,
            ))
        data_gpa = (gframe << c.PAGE_SHIFT) | (va & (c.PAGE_SIZE - 1))
        lines, levels, host_leaf, page_hpa = host_chain(gframe)
        steps.append((
            tuple((data_gpa >> shift) | bias for shift in host_shifts),
            lines, levels, host_leaf, data_gpa, -1, 0,
        ))
        return (
            tuple((va >> shift) | bias for shift in guest_shifts),
            guest_leaf,
            page_hpa >> c.PAGE_SHIFT,
            guest_leaf >= 2,
            tuple(steps),
        )

    def nested_path(self, va: int) -> NestedWalkPath:
        """:meth:`flat_nested_path` as step objects (entry byte addresses
        rebuilt from the lines: PT nodes are page aligned, so an entry's
        low six bits are its gPA's / its index's)."""
        _tags, guest_leaf, frame, _large, flat_steps = \
            self.flat_nested_path(va)
        steps = []
        for _htags, lines, levels, _leaf, gpa, entry_line, glevel \
                in flat_steps:
            host_steps = tuple(
                WalkStep(level, (line << c.LINE_SHIFT)
                         | ((gpa >> c.level_shift(level)) & 7)
                         * c.ENTRY_BYTES)
                for line, level in zip(lines, levels)
            )
            steps.append(NestedStep(
                guest_level=glevel, gpa=gpa, host_steps=host_steps,
                entry_host_addr=None if entry_line < 0
                else (entry_line << c.LINE_SHIFT) | (gpa & 63),
            ))
        return NestedWalkPath(
            va=va,
            steps=tuple(steps),
            data_host_addr=(frame << c.PAGE_SHIFT) | (va & (c.PAGE_SIZE - 1)),
            guest_leaf_level=guest_leaf,
            host_leaf_level=self.host_page_level,
        )

    # ------------------------------------------------------------------
    # descriptors for ASAP (computed the way the OS/hypervisor would)
    # ------------------------------------------------------------------
    def host_descriptor_bases(self) -> dict[int, int]:
        """Range-register bases for the single host VMA (host dimension)."""
        if self.host_asap_layout is None:
            return {}
        return self.host_asap_layout.descriptor_bases(self.host_vma)

    def guest_descriptor_bases(self, vma: Vma) -> dict[int, int]:
        """Host-physical range-register bases for a *guest* VMA.

        Valid only because the guest PT regions are contiguously backed:
        hPA(entry) = hPA(region base) + (entry gPA - region base gPA).
        """
        layout = self.guest.asap_layout
        if layout is None or not self.back_guest_pt_contiguously:
            return {}
        bases = {}
        for level in layout.levels:
            region = layout.region(vma, level)
            if region is None:
                continue
            host_base = self.translate_gpa(region.base_addr)
            bases[level] = host_base - region.first_tag * c.NODE_BYTES
        return bases
