"""The 2D nested page walker (Figure 7) with per-dimension ASAP.

A nested walk interleaves up to five host 1D walks (translating the
guest-physical address of each guest PT node, then of the data page) with
four guest PT entry accesses — up to 24 memory accesses.  Each dimension
has its own split PWC (Table 5); the host PWC is tagged by guest-physical
addresses, the guest PWC by guest-virtual ones.

ASAP applies independently per dimension (§3.6):

* *guest* prefetches are issued once, at 2D-walk start, targeting the
  host-physical lines of the guest PL2/PL1 entries (valid because the
  hypervisor backs the guest PT regions contiguously);
* *host* prefetches are issued at the start of every host 1D walk,
  targeting the host PL2/PL1 entries for that walk's gPA.

Service records are keyed ``"g<level>"`` for guest entry accesses and
``"h<level>"`` for host walk accesses, with the data translation's host
walk counted like any other host walk.

There is one pricing loop, :attr:`NestedPageWalker.walk_flat`, over the
flat per-vpn schedule :meth:`repro.kernelsim.hypervisor.VirtualMachine.
flat_nested_path` builds: plain tuples of host-PWC tags, hPT entry lines
and levels, gPAs and guest-entry lines, with both PWCs probed and filled
through :func:`repro.pagetable.walker.flat_pwc` — the inline PWC the
native walker uses too.  :class:`NestedWalkPath` is the readable
step-object form (tests, introspection); :meth:`NestedPageWalker.walk`
flattens one and prices it with the same loop.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Protocol

from repro.mem.hierarchy import CacheHierarchy
from repro.pagetable import constants as c
from repro.pagetable.pwc import SplitPwc
from repro.pagetable.radix import WalkStep
from repro.pagetable.walker import (
    PWC_LABEL,
    WalkOutcome,
    flat_pwc,
    pwc_shifts,
)


@dataclass(frozen=True)
class NestedStep:
    """One guest-dimension step of a 2D walk: the host 1D walk that
    translates ``gpa`` plus (for PT steps) the guest-entry access itself."""

    guest_level: int  # 4..1 for guest PT levels, 0 for the data address
    gpa: int
    host_steps: tuple[WalkStep, ...]
    entry_host_addr: int | None  # None for the final data translation


@dataclass(frozen=True)
class NestedWalkPath:
    """The full Figure 7 schedule for one guest virtual address."""

    va: int
    steps: tuple[NestedStep, ...]
    data_host_addr: int
    guest_leaf_level: int
    host_leaf_level: int

    @property
    def vpn(self) -> int:
        return self.va >> c.PAGE_SHIFT

    @property
    def data_frame(self) -> int:
        return self.data_host_addr >> c.PAGE_SHIFT


class HostPrefetcher(Protocol):
    """Issued at each host 1D walk start; returns level -> completion."""

    def on_tlb_miss(self, address: int, now: int) -> dict[int, int]: ...


#: Service-record keys by PT level: ``"g<L>"`` for guest entry accesses,
#: ``"h<L>"`` for host walk accesses (index = level; PL5 included).
GUEST_LABELS = tuple(f"g{level}" for level in range(6))
HOST_LABELS = tuple(f"h{level}" for level in range(6))


class NestedPageWalker:
    """Prices Figure 7 schedules against the shared memory hierarchy."""

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        guest_pwc: SplitPwc,
        host_pwc: SplitPwc,
    ) -> None:
        self.hierarchy = hierarchy
        self.guest_pwc = guest_pwc
        self.host_pwc = host_pwc
        self.walks = 0
        self.total_latency = 0
        self.total_accesses = 0
        #: Per-view tag shifts of both PWCs (flat-path construction).
        self.guest_shifts = pwc_shifts(guest_pwc)
        self.host_shifts = pwc_shifts(host_pwc)
        #: The one pricing loop (closure, built once per walker so
        #: multi-tenant segments sharing the walker do not rebuild it).
        self.walk_flat = self._build_walk_flat()

    def walk(
        self,
        path: NestedWalkPath,
        now: int = 0,
        guest_prefetches: dict[int, int] | None = None,
        host_prefetcher: HostPrefetcher | None = None,
        collect: bool = True,
    ) -> WalkOutcome:
        """Price the 2D walk for ``path`` starting at ``now``.

        ``guest_prefetches`` maps guest PT level -> completion time of the
        guest-dimension ASAP prefetches issued at walk start.  With
        ``collect=False`` the per-step service records are skipped (the
        returned outcome carries an empty list); pricing is unchanged.
        A thin adapter: ``path`` is flattened (tags biased by each PWC's
        current :attr:`SplitPwc.asid_bias`) and priced by
        :attr:`walk_flat`.
        """
        gbias = self.guest_pwc.asid_bias
        hbias = self.host_pwc.asid_bias
        steps = tuple(
            (tuple((step.gpa >> shift) | hbias
                   for shift in self.host_shifts),
             tuple(hstep.line for hstep in step.host_steps),
             tuple(hstep.level for hstep in step.host_steps),
             step.host_steps[-1].level if step.host_steps else 1,
             step.gpa,
             -1 if step.entry_host_addr is None
             else step.entry_host_addr >> c.LINE_SHIFT,
             step.guest_level)
            for step in path.steps
        )
        guest_tags = tuple((path.va >> shift) | gbias
                           for shift in self.guest_shifts)
        records: list[tuple[str, str]] | None = [] if collect else None
        latency = self.walk_flat(guest_tags, path.guest_leaf_level, steps,
                                 now, guest_prefetches, host_prefetcher,
                                 records)
        return WalkOutcome(latency=latency,
                           records=records if records is not None else [])

    def _build_walk_flat(self):
        """Build ``walk_flat(guest_tags, guest_leaf_level, steps, now,
        guest_prefetches, host_prefetcher, records) -> latency``.

        ``guest_tags`` holds one guest-PWC tag per view entry; ``steps``
        is the flat Figure 7 schedule, one tuple per guest step (root
        first, data translation last)::

            (host_tags, host_lines, host_levels, host_leaf_level,
             gpa, entry_line, guest_level)

        — the host 1D walk translating ``gpa`` (its host-PWC tags and
        the hPT entry lines/levels, root first), then the guest-entry
        access at host-physical line ``entry_line`` (−1 for the data
        step, whose ``guest_level`` is 0).  Each host walk probes the
        host PWC, asks ``host_prefetcher`` (if any) for completions,
        prices the levels the PWC could not skip with the overlap rule,
        and inserts into the host PWC; the guest PWC is probed once at
        walk start and filled once at the end.  ``records`` (a list, or
        None to skip service records) receives ``("g<L>"|"h<L>",
        label)`` pairs.
        """
        guest_probe, guest_insert = flat_pwc(self.guest_pwc)
        host_probe, host_insert = flat_pwc(self.host_pwc)
        guest_latency = self.guest_pwc.params.latency
        host_latency = self.host_pwc.params.latency
        access = self.hierarchy.access
        last_level = self.hierarchy.last_level
        guest_labels = GUEST_LABELS
        host_labels = HOST_LABELS
        #: The counters are reached through a weak proxy: closing over
        #: ``self`` would make the walker a reference cycle, keeping it
        #: and the cache hierarchy it prices against alive after the
        #: simulation that owns it is gone, until a full collection.
        counters = weakref.proxy(self)

        def walk_flat(guest_tags, guest_leaf_level, steps, now,
                      guest_prefetches, host_prefetcher, records):
            t = now + guest_latency
            skip_from = guest_probe(guest_tags)
            start = 0
            if skip_from is not None:
                # The data step (guest level 0) always ends the skip.
                while steps[start][6] >= skip_from:
                    if records is not None:
                        records.append((guest_labels[steps[start][6]],
                                        PWC_LABEL))
                    start += 1
            accesses = 0
            for i in range(start, len(steps)):
                (host_tags, lines, levels, host_leaf, gpa, entry_line,
                 guest_level) = steps[i]
                # --- host 1D walk translating gpa ---------------------
                t += host_latency
                host_skip = host_probe(host_tags)
                n = len(lines)
                h = 0
                if host_skip is not None:
                    while h < n and levels[h] >= host_skip:
                        if records is not None:
                            records.append((host_labels[levels[h]],
                                            PWC_LABEL))
                        h += 1
                accesses += n - h
                if host_prefetcher is not None:
                    prefetches = host_prefetcher.on_tlb_miss(gpa, t)
                    for j in range(h, n):
                        finish = t + access(lines[j], t)
                        completion = prefetches.get(levels[j])
                        if completion is not None and completion > finish:
                            finish = completion
                        if records is not None:
                            records.append((host_labels[levels[j]],
                                            last_level[0]))
                        t = finish
                elif records is None:
                    for j in range(h, n):
                        t += access(lines[j], t)
                else:
                    for j in range(h, n):
                        t += access(lines[j], t)
                        records.append((host_labels[levels[j]],
                                        last_level[0]))
                host_insert(host_tags, host_leaf)
                if entry_line < 0:
                    continue  # the data translation has no entry access
                # --- the guest entry itself ---------------------------
                finish = t + access(entry_line, t)
                if guest_prefetches:
                    completion = guest_prefetches.get(guest_level)
                    if completion is not None and completion > finish:
                        finish = completion
                if records is not None:
                    records.append((guest_labels[guest_level],
                                    last_level[0]))
                t = finish
                accesses += 1
            guest_insert(guest_tags, guest_leaf_level)
            latency = t - now
            counters.walks += 1
            counters.total_latency += latency
            counters.total_accesses += accesses
            return latency

        return walk_flat

    @property
    def average_latency(self) -> float:
        if not self.walks:
            return 0.0
        return self.total_latency / self.walks
