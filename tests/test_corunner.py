"""Unit tests for the SMT co-runner."""

import pytest

from repro.mem.hierarchy import CacheHierarchy
from repro.params import CacheParams, HierarchyParams
from repro.workloads.corunner import Corunner


def test_step_generates_cache_traffic():
    hierarchy = CacheHierarchy()
    corunner = Corunner(seed=1)
    for _ in range(100):
        corunner.step(hierarchy, 0)
    assert corunner.accesses == 100
    # Data line + PT line(s) per access.
    total = sum(hierarchy.served.values())
    assert total >= 200


def test_intensity_multiplies_traffic():
    h1 = CacheHierarchy()
    c1 = Corunner(seed=1, intensity=1)
    h4 = CacheHierarchy()
    c4 = Corunner(seed=1, intensity=4)
    for _ in range(200):
        c1.step(h1, 0)
        c4.step(h4, 0)
    assert sum(h4.served.values()) > 3 * sum(h1.served.values())


def test_lines_do_not_collide_with_low_memory():
    hierarchy = CacheHierarchy()
    corunner = Corunner(seed=2)
    corunner.step(hierarchy, 0)
    # Everything the co-runner touches sits above 2^37 in line space.
    for cache in (hierarchy.l1,):
        for line in cache.resident_lines():
            assert line >= 1 << 37


def test_prefill_fills_all_cache_levels():
    hierarchy = CacheHierarchy()
    corunner = Corunner(seed=3)
    corunner.prefill(hierarchy)
    assert hierarchy.l3.occupancy == hierarchy.params.l3.lines
    assert hierarchy.l2.occupancy == hierarchy.params.l2.lines
    assert hierarchy.l1.occupancy == hierarchy.params.l1.lines


def test_prefill_lines_are_evictable_junk():
    hierarchy = CacheHierarchy()
    corunner = Corunner(seed=3)
    corunner.prefill(hierarchy)
    # An application line still misses and installs normally.
    result = hierarchy.access_line(123)
    assert result.level == "MEM"
    assert hierarchy.access_line(123).level == "L1"


def test_deterministic_stream():
    h1, h2 = CacheHierarchy(), CacheHierarchy()
    c1, c2 = Corunner(seed=9), Corunner(seed=9)
    for _ in range(500):
        c1.step(h1, 0)
        c2.step(h2, 0)
    assert h1.served == h2.served


def test_refill_merge_matches_scalar_reference():
    """The vectorised _refill merge is byte-identical to the per-element
    loop it replaced: same rng draws in the same order, same interleaved
    [data, pt1(, pt2)] stream, same per-slot take counts."""
    import numpy as np

    from repro.workloads import corunner as m

    fast = Corunner(seed=123, batch=4096)
    fast._refill()

    rng = np.random.default_rng(123)
    n = 4096
    data = rng.integers(0, fast.footprint_lines, size=n,
                        dtype=np.int64) + m._CORUNNER_LINE_BASE
    pt1 = rng.integers(0, fast.pt_lines, size=n,
                       dtype=np.int64) + m._CORUNNER_PT_BASE
    extra = (rng.random(n) < (fast.walk_lines_per_access - 1.0)).tolist()
    pt2 = rng.integers(0, max(1, fast.pt_lines >> 9), size=n,
                       dtype=np.int64) + m._CORUNNER_PT_BASE * 3
    merged, takes = [], []
    for i in range(n):
        merged.append(int(data[i]))
        merged.append(int(pt1[i]))
        if extra[i]:
            merged.append(int(pt2[i]))
            takes.append(3)
        else:
            takes.append(2)
    assert fast._buffer == merged
    assert fast._takes == takes


def _prefill_by_install(corunner: Corunner, hierarchy: CacheHierarchy):
    """The per-line prefill the closed form replaced: every strided
    co-runner line installed into each level, in order."""
    from repro.workloads import corunner as m

    total = hierarchy.params.l3.lines + hierarchy.params.l2.lines
    step = max(1, corunner.footprint_lines // (total + 1))
    line = m._CORUNNER_LINE_BASE
    for _ in range(total):
        hierarchy.l1.install(line)
        hierarchy.l2.install(line)
        hierarchy.l3.install(line)
        line += step


@pytest.mark.parametrize("params", [
    None,
    # Odd set counts and a footprint small enough that the stride is 1.
    HierarchyParams(l1=CacheParams(3 * 64 * 4, 4, 4),
                    l2=CacheParams(5 * 64 * 6, 6, 12),
                    l3=CacheParams(7 * 64 * 3, 3, 40)),
])
@pytest.mark.parametrize("footprint", [16 << 30, 1 << 16])
def test_prefill_matches_per_line_installs(params, footprint):
    fast, slow = CacheHierarchy(params), CacheHierarchy(params)
    corunner = Corunner(footprint_bytes=footprint, seed=3)
    corunner.prefill(fast)
    _prefill_by_install(corunner, slow)
    for a, b in ((fast.l1, slow.l1), (fast.l2, slow.l2),
                 (fast.l3, slow.l3)):
        assert a.lines == b.lines
        assert a.sizes == b.sizes
        assert a.stats == b.stats


def test_prefill_requires_empty_caches():
    hierarchy = CacheHierarchy()
    hierarchy.access_line(123)
    with pytest.raises(AssertionError):
        Corunner(seed=3).prefill(hierarchy)
