"""Tests for the Haswell MMU simulator substrate.

The paper's discovered behaviours are the specification here: each
feature's counting semantics must produce exactly the constraint
violations CounterPoint attributes to it.
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.mmu import MMUConfig, MMUSimulator, MemoryOp, PageSize
from repro.mmu.paging import PageTable, PagingStructureCache
from repro.mmu.prefetcher import PrefetchTrigger
from repro.mmu.tlb import STLB, L1DTLB, TLBArray


def sweep_ops(n_pages, lines_per_page=64, kind="load", page_bytes=4096, retires=True):
    for page in range(n_pages):
        for line in range(lines_per_page):
            yield MemoryOp(kind, page * page_bytes + line * 64, retires=retires)


def walk_ref_total(counters):
    return sum(counters["walk_ref.%s" % level] for level in ("l1", "l2", "l3", "mem"))


class TestTLBStructures:
    def test_tlb_array_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            TLBArray(10, 4)

    def test_tlb_hit_after_insert(self):
        tlb = TLBArray(16, 4)
        tlb.insert(42)
        assert tlb.lookup(42)
        assert not tlb.lookup(43)

    def test_tlb_lru(self):
        tlb = TLBArray(2, 2)  # one set, two ways
        tlb.insert(0)
        tlb.insert(1)
        tlb.lookup(0)
        tlb.insert(2)  # evicts 1
        assert tlb.lookup(0)
        assert not tlb.lookup(1)

    def test_l1_dtlb_per_size_arrays(self):
        dtlb = L1DTLB(MMUConfig())
        dtlb.insert(5, PageSize.SIZE_4K)
        assert dtlb.lookup(5, PageSize.SIZE_4K)
        assert not dtlb.lookup(5, PageSize.SIZE_2M)

    def test_stlb_no_1g_entries(self):
        stlb = STLB(MMUConfig())
        stlb.insert(7, PageSize.SIZE_1G)
        assert not stlb.lookup(7, PageSize.SIZE_1G)

    def test_stlb_size_tagging(self):
        stlb = STLB(MMUConfig())
        stlb.insert(7, PageSize.SIZE_4K)
        assert stlb.lookup(7, PageSize.SIZE_4K)
        assert not stlb.lookup(7, PageSize.SIZE_2M)


class TestPaging:
    def test_walk_levels_by_size(self):
        assert PageTable("4k").walk_levels() == ["pml4", "pdpt", "pd", "pt"]
        assert PageTable("2m").walk_levels() == ["pml4", "pdpt", "pd"]
        assert PageTable("1g").walk_levels() == ["pml4", "pdpt"]

    def test_walk_levels_with_entry(self):
        assert PageTable("4k").walk_levels("pd") == ["pt"]
        assert PageTable("4k").walk_levels("pdpt") == ["pd", "pt"]
        assert PageTable("2m").walk_levels("pdpt") == ["pd"]

    def test_leaf_entry_level_invalid(self):
        with pytest.raises(ConfigurationError):
            PageTable("2m").walk_levels("pd")  # PD is the 2M leaf

    def test_entry_addresses_disjoint_per_level(self):
        table = PageTable("4k")
        addresses = {table.entry_address(level, 0x1234567) for level in
                     ("pml4", "pdpt", "pd", "pt")}
        assert len(addresses) == 4

    def test_accessed_bits(self):
        table = PageTable("4k")
        assert not table.is_accessed(9)
        table.set_accessed(9)
        assert table.is_accessed(9)

    def test_pde_cache_never_hits_for_2m(self):
        """The Table 1 Constraint 2 subtlety: PDE cache entries are
        pointers to page tables; 2M/1G translations always miss it."""
        psc = PagingStructureCache("pd", 8)
        psc.insert(0x200000)
        assert psc.lookup(0x200000, PageSize.SIZE_4K)
        assert not psc.lookup(0x200000, PageSize.SIZE_2M)
        assert not psc.lookup(0x200000, PageSize.SIZE_1G)

    def test_pml4e_cache_covers_all_sizes(self):
        psc = PagingStructureCache("pml4", 4)
        psc.insert(0)
        for size in (PageSize.SIZE_4K, PageSize.SIZE_2M, PageSize.SIZE_1G):
            assert psc.lookup(0, size)

    def test_disabled_psc_never_hits(self):
        psc = PagingStructureCache("pml4", 4, enabled=False)
        psc.insert(0)
        assert not psc.lookup(0, PageSize.SIZE_4K)

    def test_psc_lru_capacity(self):
        psc = PagingStructureCache("pd", 2)
        for region in range(3):
            psc.insert(region << 21)
        assert not psc.lookup(0 << 21, PageSize.SIZE_4K)
        assert psc.lookup(2 << 21, PageSize.SIZE_4K)


class TestPrefetchTrigger:
    def test_ascending_trigger_51_52(self):
        trigger = PrefetchTrigger()
        assert trigger.observe(51 * 64, 4096) is None
        assert trigger.observe(52 * 64, 4096) == 1

    def test_descending_trigger_8_7(self):
        trigger = PrefetchTrigger()
        base = 10 * 4096
        assert trigger.observe(base + 8 * 64, 4096) is None
        assert trigger.observe(base + 7 * 64, 4096) == 9

    def test_no_other_line_pairs(self):
        trigger = PrefetchTrigger()
        for line in (10, 11, 30, 31, 50, 51):  # 50->51 is not a trigger
            result = trigger.observe(line * 64, 4096)
        assert result is None

    def test_cross_frame_pair_does_not_trigger(self):
        trigger = PrefetchTrigger()
        trigger.observe(51 * 64, 4096)
        assert trigger.observe(4096 + 52 * 64, 4096) is None

    def test_trigger_once_per_target(self):
        trigger = PrefetchTrigger()
        trigger.observe(51 * 64, 4096)
        assert trigger.observe(52 * 64, 4096) == 1
        trigger.observe(51 * 64, 4096)
        assert trigger.observe(52 * 64, 4096) is None

    def test_2m_page_requires_last_frame(self):
        trigger = PrefetchTrigger()
        page_bytes = 2 * 1024 * 1024
        # Middle frame of the 2M page: no page crossing predicted.
        middle = 100 * 4096
        trigger.observe(middle + 51 * 64, page_bytes)
        assert trigger.observe(middle + 52 * 64, page_bytes) is None
        # Last frame of the 2M page does predict a crossing.
        last = page_bytes - 4096
        trigger.observe(last + 51 * 64, page_bytes)
        assert trigger.observe(last + 52 * 64, page_bytes) == 1

    def test_descending_below_zero(self):
        trigger = PrefetchTrigger()
        trigger.observe(8 * 64, 4096)
        assert trigger.observe(7 * 64, 4096) is None  # page -1 invalid


class TestSimulatorBasics:
    def test_memory_op_validation(self):
        with pytest.raises(SimulationError):
            MemoryOp("fetch", 0)
        with pytest.raises(SimulationError):
            MemoryOp("load", -1)

    def test_counters_cover_table2(self):
        sim = MMUSimulator()
        assert len(sim.counters) == 26

    def test_retired_ops_counted(self):
        sim = MMUSimulator()
        sim.run([MemoryOp("load", 0), MemoryOp("store", 64)])
        assert sim.counters["load.ret"] == 1
        assert sim.counters["store.ret"] == 1

    def test_speculative_ops_not_retired(self):
        sim = MMUSimulator()
        sim.run([MemoryOp("load", 0, retires=False)])
        assert sim.counters["load.ret"] == 0
        assert sim.counters["load.causes_walk"] == 1  # walk still happens

    def test_l1_tlb_hit_no_counters(self):
        sim = MMUSimulator()
        sim.run([MemoryOp("load", 0), MemoryOp("load", 8)])
        assert sim.counters["load.causes_walk"] == 1  # only the first
        assert sim.counters["load.stlb_hit"] == 0

    def test_stlb_hit_counted(self):
        config = MMUConfig(l1_tlb_entries_4k=4, l1_tlb_ways_4k=4, prefetcher=False)
        sim = MMUSimulator(config)
        # Touch 20 pages (blows the 4-entry L1 and outlives the walk
        # latency window), then revisit page 0: its translation has left
        # the L1 TLB but still sits in the STLB.
        ops = [MemoryOp("load", page * 4096) for page in range(20)]
        ops.append(MemoryOp("load", 0))
        sim.run(ops)
        assert sim.counters["load.stlb_hit"] == 1
        assert sim.counters["load.stlb_hit_4k"] == 1

    def test_walk_done_equals_causes_walk_when_drained(self):
        sim = MMUSimulator()
        sim.run(sweep_ops(20))
        for t in ("load", "store"):
            assert sim.counters["%s.walk_done" % t] == sim.counters["%s.causes_walk" % t]

    def test_walk_done_size_breakdown(self):
        sim = MMUSimulator(page_size="2m")
        sim.run([MemoryOp("load", 0)])
        sim.drain()
        assert sim.counters["load.walk_done_2m"] == 1
        assert sim.counters["load.walk_done_4k"] == 0

    def test_run_intervals_shapes(self):
        sim = MMUSimulator()
        intervals = list(sim.run_intervals(sweep_ops(10), ops_per_interval=160))
        assert len(intervals) == 4  # 640 ops / 160
        assert all(len(interval) == 26 for interval in intervals)

    def test_run_intervals_sums_to_totals(self):
        sim = MMUSimulator()
        intervals = list(sim.run_intervals(sweep_ops(10), ops_per_interval=100))
        totals = {name: sum(i[name] for i in intervals) for name in intervals[0]}
        assert totals == sim.snapshot()

    def test_run_intervals_validation(self):
        sim = MMUSimulator()
        with pytest.raises(SimulationError):
            list(sim.run_intervals(sweep_ops(1), ops_per_interval=0))


class TestDiscoveredBehaviours:
    """Each paper discovery, as a counting-semantics assertion."""

    def test_merging_violates_constraint1(self):
        """Table 1 Constraint 1: merging makes retired STLB misses
        exceed completed walks."""
        sim = MMUSimulator()  # walk latency 12 ops; stride-64 sweep merges
        sim.run(sweep_ops(50))
        assert sim.counters["load.ret_stlb_miss"] > sim.counters["load.walk_done"]

    def test_no_merging_no_violation(self):
        sim = MMUSimulator(MMUConfig(merging=False, prefetcher=False))
        sim.run(sweep_ops(50))
        assert sim.counters["load.ret_stlb_miss"] <= sim.counters["load.causes_walk"]

    def test_early_psc_pde_misses_exceed_walks_on_1g(self):
        """1G translations always miss the PDE cache, and merged requests
        probe it before MSHR allocation: pde$_miss > causes_walk."""
        page = PageSize.BYTES[PageSize.SIZE_1G]
        ops = []
        for page_index in range(8):
            for step in range(32):
                ops.append(MemoryOp("load", page_index * page + step * (1 << 20)))
        ops = ops * 3  # revisit so L1-1G TLB (4 entries) keeps missing
        sim = MMUSimulator(page_size="1g")
        sim.run(ops)
        assert sim.counters["load.pde$_miss"] > sim.counters["load.causes_walk"]

    def test_late_psc_pde_misses_bounded(self):
        page = PageSize.BYTES[PageSize.SIZE_1G]
        ops = []
        for page_index in range(8):
            for step in range(32):
                ops.append(MemoryOp("load", page_index * page + step * (1 << 20)))
        sim = MMUSimulator(MMUConfig(early_psc=False, prefetcher=False), page_size="1g")
        sim.run(ops)
        assert sim.counters["load.pde$_miss"] <= sim.counters["load.causes_walk"]

    def test_prefetcher_inflates_walk_refs(self):
        """Prefetch-induced walks inject real walker loads: walk_ref
        exceeds what demand walks alone could produce."""
        with_pf = MMUSimulator(MMUConfig(walk_replay=False))
        with_pf.run(sweep_ops(100))
        without_pf = MMUSimulator(MMUConfig(walk_replay=False, prefetcher=False))
        without_pf.run(sweep_ops(100))
        assert walk_ref_total(with_pf.counters) > walk_ref_total(without_pf.counters)

    def test_prefetch_abort_on_unset_accessed_bit(self):
        """Fresh pages: prefetches abort (no TLB fill), so demand walks
        still happen for every page."""
        sim = MMUSimulator(MMUConfig(walk_replay=False))
        sim.run(sweep_ops(60))
        # Every page still demand-walked despite prefetching.
        assert sim.counters["load.causes_walk"] >= 59

    def test_prefetch_completes_on_accessed_pages(self):
        """Warmed pages: prefetches fill the TLBs ahead of the sweep, so
        demand walks nearly vanish (the Table 5 revisit scenario)."""
        sim = MMUSimulator()
        warm = [MemoryOp("store", page * 4096) for page in range(3000)]
        sim.run(warm)
        before = dict(sim.counters)
        sim.run(sweep_ops(600))
        walks = sim.counters["load.causes_walk"] - before["load.causes_walk"]
        refs = walk_ref_total(sim.counters) - walk_ref_total(before)
        assert walks <= 5
        assert refs >= 500  # prefetch walks injected the references

    def test_walk_replay_suppresses_refs(self):
        """First-touch walks replay: they complete but emit no walk_ref."""
        sim = MMUSimulator(MMUConfig(prefetcher=False))
        ops = [MemoryOp("load", page * 4096) for page in range(50)]
        sim.run(ops)
        assert sim.counters["load.walk_done"] == 50
        assert walk_ref_total(sim.counters) == 0

    def test_no_replay_first_touch_refs_counted(self):
        sim = MMUSimulator(MMUConfig(prefetcher=False, walk_replay=False))
        ops = [MemoryOp("load", page * 4096) for page in range(50)]
        sim.run(ops)
        assert walk_ref_total(sim.counters) >= 50

    def test_pml4e_cache_shortens_1g_walks(self):
        """Constraint 3: with the root cache, 1G walks emit one walker
        load instead of two."""
        page = PageSize.BYTES[PageSize.SIZE_1G]
        ops = [MemoryOp("load", p * page) for p in range(8)] * 4

        with_cache = MMUSimulator(
            MMUConfig(prefetcher=False, walk_replay=False), page_size="1g"
        )
        with_cache.run(ops)
        without_cache = MMUSimulator(
            MMUConfig(prefetcher=False, walk_replay=False, pml4e_cache=False),
            page_size="1g",
        )
        without_cache.run(ops)

        walks = with_cache.counters["load.causes_walk"]
        assert walks == without_cache.counters["load.causes_walk"]
        assert walk_ref_total(with_cache.counters) < walk_ref_total(
            without_cache.counters
        )
        # Without the root cache every walk reads PML4E + PDPTE.
        assert walk_ref_total(without_cache.counters) == 2 * walks

    def test_counters_never_negative(self):
        sim = MMUSimulator()
        sim.run(sweep_ops(30, kind="store"))
        assert all(value >= 0 for value in sim.counters.values())

    def test_store_only_sweep_no_prefetch(self):
        """Only loads trigger the prefetcher (Appendix C.2)."""
        with_stores = MMUSimulator(MMUConfig(walk_replay=False))
        with_stores.run(sweep_ops(100, kind="store"))
        baseline = MMUSimulator(MMUConfig(walk_replay=False, prefetcher=False))
        baseline.run(sweep_ops(100, kind="store"))
        assert walk_ref_total(with_stores.counters) == walk_ref_total(
            baseline.counters
        )


class TestConfig:
    def test_full_haswell_features(self):
        features = MMUConfig.full_haswell().feature_set()
        assert all(features.values())

    def test_textbook_features(self):
        features = MMUConfig.textbook().feature_set()
        assert not any(features.values())

    def test_for_features_rejects_unknown_features(self):
        # "TLBPf" is a misspelt "TlbPf": it must not build an MMU
        # (or an MMUOracle) without the prefetcher.
        with pytest.raises(ConfigurationError, match="'TLBPf'"):
            MMUConfig.for_features({"TLBPf", "Merging"})

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            MMUConfig(stlb_entries=0)

    def test_page_size_validation(self):
        with pytest.raises(ConfigurationError):
            MMUSimulator(page_size="16k")
