"""Differential test: the MMU simulator against its frozen reference.

:class:`repro.mmu.MMUSimulator` completes walks from the head of its
MSHR queue, formats counter names once and follows precomputed walk
plans, and its TLBs and data caches compute set and tag inline.
``mmu_reference.ReferenceMMUSimulator`` is the simulator before those
changes, on frozen copies of the TLBs and caches: it scans the MSHRs
and asks the page table for every walk. On the same op stream both must
produce the same per-interval counter deltas, the same final snapshot,
the same tick and the same set of accessed bits, whatever the page
size, geometry or feature set.

The cases are seeded. ``SIM_EQUIV_SEED`` (CI rotates it daily) offsets
the seed range, as in ``test_sim_equivalence.py``, so the sweep covers
new geometries over time while any failure reproduces from its seed.
"""

import os
import random

import pytest

import mmu_reference
import repro.cache
from repro.mmu import PAGE_SIZES, MMUConfig, MMUSimulator, MemoryOp, PageSize
from repro.workloads import (
    BfsWorkload,
    LinearAccessWorkload,
    PointerChaseWorkload,
    RandomAccessWorkload,
    StreamWorkload,
    ZipfianKVWorkload,
)

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))

FUZZ_CASES = 300

FEATURES = ("prefetcher", "merging", "early_psc", "pml4e_cache", "walk_replay", "smt_enabled")


def assert_head_ordered(simulator):
    """The MSHR queue is in strictly increasing completion order and
    never holds more walks than there are MSHRs."""
    walks = list(simulator._outstanding.items())
    assert len(walks) <= simulator.config.mshr_entries
    assert all(vpn == walk.vpn for vpn, walk in walks)
    due = [walk.completes_at for _, walk in walks]
    assert all(first < second for first, second in zip(due, due[1:])), due


def _checked(simulator, ops):
    """Yield ``ops``, checking the queue after each one is processed."""
    for op in ops:
        yield op
        assert_head_ordered(simulator)


def _caches(spec, reference=False):
    """A data-cache hierarchy of ``(size, ways)`` levels: the program's,
    or with ``reference`` the frozen one."""
    if spec is None:
        return None
    module = mmu_reference if reference else repro.cache
    return module.CacheHierarchy(*(module.SetAssociativeCache(size, ways) for size, ways in spec))


def run_both(config, page_size, ops, schedule, warm=(), caches=None, context=""):
    """Run ``ops`` (after an optional ``warm`` phase) through both
    simulators and require identical observable state."""
    results = []
    for simulator_class in (mmu_reference.ReferenceMMUSimulator, MMUSimulator):
        reference = simulator_class is not MMUSimulator
        simulator = simulator_class(
            config, page_size=page_size, cache_hierarchy=_caches(caches, reference)
        )
        stream = ops
        if simulator_class is MMUSimulator:
            stream = _checked(simulator, ops)
            warm_stream = _checked(simulator, warm)
        else:
            warm_stream = warm
        simulator.run(warm_stream)
        intervals = list(simulator.run_intervals(stream, schedule))
        results.append(
            (intervals, simulator.snapshot(), simulator.tick, set(simulator.page_table._accessed))
        )
    (ref_intervals, ref_final, ref_tick, ref_accessed), fast = results
    fast_intervals, fast_final, fast_tick, fast_accessed = fast
    assert len(fast_intervals) == len(ref_intervals), context
    for index, (got, want) in enumerate(zip(fast_intervals, ref_intervals)):
        assert got == want, "interval %d differs: %s" % (index, context)
    assert fast_final == ref_final, context
    assert fast_tick == ref_tick, context
    assert fast_accessed == ref_accessed, context
    return ref_final


# -- random cases ---------------------------------------------------------


def random_config(rng):
    """Tiny TLBs and PSCs, short to long walks, 1-8 MSHRs, random features."""
    def array(max_sets):
        ways = rng.choice((1, 2, 4))
        return ways * rng.choice([sets for sets in (1, 2, 4, 8, 16) if sets <= max_sets]), ways

    entries_4k, ways_4k = array(8)
    entries_2m, ways_2m = array(4)
    entries_1g, ways_1g = array(2)
    stlb_entries, stlb_ways = array(16)
    features = {name: rng.random() < 0.6 for name in FEATURES}
    features["smt_enabled"] = rng.random() < 0.3
    return MMUConfig(
        l1_tlb_entries_4k=entries_4k,
        l1_tlb_ways_4k=ways_4k,
        l1_tlb_entries_2m=entries_2m,
        l1_tlb_ways_2m=ways_2m,
        l1_tlb_entries_1g=entries_1g,
        l1_tlb_ways_1g=ways_1g,
        stlb_entries=stlb_entries,
        stlb_ways=stlb_ways,
        pde_cache_entries=rng.randint(1, 8),
        pdpte_cache_entries=rng.randint(1, 6),
        pml4e_cache_entries=rng.randint(1, 4),
        walk_latency_ops=rng.randint(1, 30),
        mshr_entries=rng.randint(1, 8),
        **features
    )


def raw_stream(rng, page_bytes, n_ops):
    """Same-page bursts, non-retiring µops, and the prefetcher's 51/52
    and 8/7 line pairs, over a small pool of pages."""
    pages = [rng.randrange(4 * 4096) for _ in range(rng.randint(2, 40))]
    ops = []
    while len(ops) < n_ops:
        page = rng.choice(pages)
        base = page * page_bytes
        shape = rng.random()
        if shape < 0.2:
            # A trigger pair in the page's last (ascending) or first
            # (descending) 4K frame.
            frame = base + page_bytes - 4096 if rng.random() < 0.5 else base
            lines = (51, 52) if frame != base else (8, 7)
            for line in lines:
                ops.append(MemoryOp("load", frame + line * 64, retires=rng.random() < 0.9))
            continue
        for _ in range(rng.randint(1, 12)):
            offset = rng.randrange(page_bytes // 64) * 64
            kind = "load" if rng.random() < 0.7 else "store"
            ops.append(MemoryOp(kind, base + offset, retires=rng.random() < 0.8))
    return ops[:n_ops]


def random_workload(rng, page_bytes):
    """One of the six generators, sized against the page size."""
    footprint = page_bytes * rng.randint(2, 300)
    seed = rng.randrange(1 << 16)
    ratio = rng.choice((0.0, 0.5, 0.75, 0.9, 0.98, 1.0, rng.random()))
    choice = rng.randrange(6)
    if choice == 0:
        stride = rng.choice((64, 192, 4096, page_bytes // 8, page_bytes))
        # At most ~20k positions a pass, so a run of at most 1,200 ops
        # still crosses pages at the large page sizes.
        stride = max(stride, footprint // 20000 // 64 * 64)
        return LinearAccessWorkload(
            footprint,
            stride=stride,
            load_store_ratio=ratio,
            descending=rng.random() < 0.3,
            warm_pass=rng.random() < 0.2,
        )
    if choice == 1:
        return RandomAccessWorkload(footprint, load_store_ratio=ratio, seed=seed)
    if choice == 2:
        return BfsWorkload(footprint, frontier_len=rng.randint(1, 64), seed=seed)
    if choice == 3:
        return PointerChaseWorkload(footprint, spec_fraction=rng.choice((0.0, 0.1, 0.3)), seed=seed)
    if choice == 4:
        return StreamWorkload(footprint, stride=rng.choice((64, 256, page_bytes // 4)))
    return ZipfianKVWorkload(footprint, theta=rng.uniform(0.5, 0.95), seed=seed)


def random_case(seed):
    """``(config, page_size, ops, schedule, warm, caches)`` for one seed."""
    rng = random.Random(seed)
    page_size = PAGE_SIZES[seed % len(PAGE_SIZES)]
    page_bytes = PageSize.BYTES[page_size]
    config = random_config(rng)
    n_ops = rng.randint(100, 1200)
    if rng.random() < 0.2:
        ops = raw_stream(rng, page_bytes, n_ops)
    else:
        ops = list(random_workload(rng, page_bytes).ops(n_ops))
    warm = []
    if rng.random() < 0.25:
        warm = list(LinearAccessWorkload(page_bytes * 64, stride=page_bytes, load_store_ratio=0.0).ops(64))
    if rng.random() < 0.5:
        schedule = rng.randint(1, 300)
    else:
        schedule = [rng.randint(1, 200) for _ in range(rng.randint(1, 5))]
    # Tiny data caches so walker loads are served from every level.
    caches = rng.choice((None, ((256, 1), (1024, 2), (4096, 4)), ((1024, 2), (4096, 4), (16384, 4))))
    return config, page_size, ops, schedule, warm, caches


def test_random_cases_match_the_reference():
    """300 seeded cases over every page size, geometry and feature set."""
    for case in range(FUZZ_CASES):
        seed = BASE_SEED + case
        config, page_size, ops, schedule, warm, caches = random_case(seed)
        context = "seed=%d (SIM_EQUIV_SEED=%d) %s %r" % (seed, BASE_SEED, page_size, config)
        run_both(config, page_size, ops, schedule, warm=warm, caches=caches, context=context)


def test_random_cases_cover_every_path():
    """The sweep reaches every counter, page size and feature value."""
    seen_counters = set()
    seen = set()
    for case in range(FUZZ_CASES):
        config, page_size, ops, _, warm, caches = random_case(BASE_SEED + case)
        simulator = MMUSimulator(config, page_size=page_size, cache_hierarchy=_caches(caches))
        simulator.run(warm)
        simulator.run(ops)
        seen_counters.update(name for name, value in simulator.counters.items() if value)
        seen.add(page_size)
        seen.update((name, getattr(config, name)) for name in FEATURES)
    assert seen >= set(PAGE_SIZES) | {(name, value) for name in FEATURES for value in (True, False)}
    # Every one of the 26 counters moves somewhere in the sweep.
    missing = set(MMUSimulator().counters) - seen_counters
    assert not missing, sorted(missing)


# -- every feature toggle, every page size ---------------------------------


def _mixed_stream(page_size):
    page_bytes = PageSize.BYTES[page_size]
    footprint = page_bytes * 96
    ops = list(LinearAccessWorkload(footprint, stride=page_bytes // 64, load_store_ratio=0.9).ops(600))
    ops += list(RandomAccessWorkload(footprint, 0.75, seed=1).ops(300))
    ops += list(PointerChaseWorkload(footprint, spec_fraction=0.2, seed=2).ops(300))
    ops += raw_stream(random.Random(3), page_bytes, 300)
    return ops


TOGGLES = [("full", {})] + [("no-" + name, {name: False}) for name in FEATURES[:-1]] + [
    ("smt", {"smt_enabled": True}),
    ("textbook", None),
]


@pytest.mark.parametrize("page_size", PAGE_SIZES)
@pytest.mark.parametrize("label,overrides", TOGGLES, ids=[label for label, _ in TOGGLES])
def test_feature_toggles_match_the_reference(page_size, label, overrides):
    build = MMUConfig.textbook if overrides is None else MMUConfig.full_haswell
    for latency, mshrs in ((1, 1), (12, 8), (30, 2)):
        config = build(walk_latency_ops=latency, mshr_entries=mshrs, **(overrides or {}))
        run_both(config, page_size, _mixed_stream(page_size), 97, context="%s %s" % (label, page_size))


def test_dataset_shaped_run_matches_the_reference():
    """A warm pass over half the footprint, then a stride-64 sweep over
    all of it, at the default geometry: STLB hits on the warmed half,
    then merged demand walks and aborting prefetches on the fresh one."""
    warm = list(LinearAccessWorkload(1 << 20, stride=4096, load_store_ratio=0.0).ops(128))
    ops = list(LinearAccessWorkload(1 << 20, stride=64, load_store_ratio=0.98).ops(16384))
    final = run_both(MMUConfig.full_haswell(), "4k", ops, [700, 1300, 950], warm=warm)
    assert final["load.stlb_hit"] > 0 and final["walk_ref.l1"] > 0
    assert final["load.ret_stlb_miss"] > final["load.walk_done"] > 0


# -- walk plans and generators ----------------------------------------------


@pytest.mark.parametrize("page_size", PAGE_SIZES)
@pytest.mark.parametrize("pml4e_cache", [True, False])
def test_walk_plans_follow_the_page_table(page_size, pml4e_cache):
    simulator = MMUSimulator(MMUConfig(pml4e_cache=pml4e_cache), page_size=page_size)
    table = simulator.page_table
    fills = {"pd": simulator.pde_cache, "pdpt": simulator.pdpte_cache, "pml4": simulator.pml4e_cache}
    levels = table.walk_levels()
    rng = random.Random(7)
    for entry_level in [None] + levels[:-1]:
        plan = simulator._walk_plans[entry_level]
        read = table.walk_levels(entry_level)
        for _ in range(20):
            vaddr = rng.randrange(1 << 48)
            assert [base + (vaddr >> shift) * 8 for shift, base, _ in plan] == [
                table.entry_address(level, vaddr) for level in read
            ]
        expected = [
            fills[level] if level != levels[-1] and fills[level].enabled else None
            for level in read
        ]
        assert [psc for _, _, psc in plan] == expected


@pytest.mark.parametrize("seed", range(40))
def test_microbenchmark_streams_match_the_reference(seed):
    rng = random.Random(BASE_SEED + seed)
    ratio = rng.choice((0.0, 0.2, 0.5, 0.75, 0.8, 0.9, 0.98, 1.0, rng.random()))
    n_ops = rng.randint(1, 3000)
    linear = LinearAccessWorkload(
        rng.choice((256, 1 << 12, 1 << 16, 1 << 20)),
        stride=rng.choice((64, 128, 4096)),
        load_store_ratio=ratio,
        descending=rng.random() < 0.5,
        warm_pass=rng.random() < 0.5,
    )
    assert list(linear.addresses(n_ops)) == list(mmu_reference.linear_addresses(linear, n_ops))
    random_access = RandomAccessWorkload(1 << 20, load_store_ratio=ratio, seed=seed)
    assert list(random_access.addresses(n_ops)) == list(
        mmu_reference.random_addresses(random_access, n_ops)
    )
