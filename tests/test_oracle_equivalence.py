"""Differential test: the MMU oracle against its frozen reference.

:class:`repro.sim.MMUOracle` answers the Haswell model vocabulary on
the devices of one :class:`repro.mmu.MMUSimulator`: its TLBs, PSCs,
page table, caches, prefetch trigger, walk plans and head-of-queue
MSHRs. ``mmu_reference.ReferenceMMUOracle`` is the oracle before that
change, with its own devices (the frozen TLBs and caches) and an MSHR
dict it scans on every µop and evicts from with ``min()``.

Each case executes one µDD (the m-, t- and a-series and the bundled
models) over one of the six workload generators under both oracles, at
one page size, with random MSHR counts, walk latencies, geometries,
feature sets and fallback seeds; half the streams also carry the
prefetcher's trigger line pairs. Both runs must yield the same interval
deltas, µop counts with the injected ``TlbPrefetch`` µops, snapshots,
accessed bits and fallback RNG state, and leave every device (MSHR
queue and tick included) in the same state.

The cases are seeded. ``SIM_EQUIV_SEED`` (CI rotates it daily) offsets
the case range, as in ``test_mmu_fastpath.py``; any 720 consecutive
cases cover every (model, generator, page size) triple once.
"""

import itertools
import os
import random

import mmu_reference
import repro.cache
from repro.mmu import PAGE_SIZES, MemoryOp, MMUConfig, PageSize
from repro.models import (
    A_SERIES,
    FEATURES,
    M_SERIES,
    T_SERIES,
    WALK_BYPASS,
    build_abort_mudd,
    build_haswell_mudd,
    build_trigger_mudd,
    bundled_model_names,
    load_bundled_model,
)
from repro.sim import MMUOracle, MuDDExecutor
from repro.workloads import (
    BfsWorkload,
    LinearAccessWorkload,
    PointerChaseWorkload,
    RandomAccessWorkload,
    StreamWorkload,
    ZipfianKVWorkload,
)

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))

# (name, µDD, the Table 3 features of the hardware it describes, or
# None for the bundled models, which describe no feature set).
MODELS = (
    [(name, build_haswell_mudd(features, name=name), features)
     for name, features in M_SERIES.items()]
    + [(name, build_trigger_mudd(spec, name=name), M_SERIES["m4"])
       for name, spec in T_SERIES.items()]
    + [(name, build_abort_mudd(points, name=name), M_SERIES["m4"] - {WALK_BYPASS})
       for name, points in A_SERIES.items()]
    + [(name, load_bundled_model(name), None) for name in bundled_model_names()]
)

N_GENERATORS = 6

CASES = len(MODELS) * N_GENERATORS * len(PAGE_SIZES)


def _workload(choice, rng, page_bytes):
    """Generator ``choice`` of the six, over a few to a few hundred
    pages so walks, merges and MSHR evictions all happen."""
    footprint = page_bytes * rng.randint(2, 200)
    seed = rng.randrange(1 << 16)
    ratio = rng.choice((0.0, 0.5, 0.9, 1.0, rng.random()))
    if choice == 0:
        stride = rng.choice((64, 4096, page_bytes // 8, page_bytes))
        # At most ~20k positions a pass, so a short run still crosses
        # pages at the large page sizes.
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
        return PointerChaseWorkload(footprint, spec_fraction=rng.choice((0.0, 0.3)), seed=seed)
    if choice == 4:
        return StreamWorkload(footprint, stride=rng.choice((64, 256, page_bytes // 4)))
    return ZipfianKVWorkload(footprint, theta=rng.uniform(0.5, 0.95), seed=seed)


def _with_trigger_pairs(rng, ops, page_bytes):
    """``ops`` with the prefetcher's 51/52 (ascending) and 8/7
    (descending) load pairs spliced in on the pages the stream touches,
    so prefetches fire at every page size."""
    spliced = []
    for op in ops:
        spliced.append(op)
        if rng.random() < 0.05:
            page = op.vaddr // page_bytes * page_bytes
            if rng.random() < 0.5:
                frame, lines = page + page_bytes - 4096, (51, 52)
            else:
                frame, lines = page, (8, 7)
            retires = rng.random() < 0.9
            spliced += [MemoryOp("load", frame + line * 64, retires) for line in lines]
    return spliced


def _config(rng, model_features):
    """The model's own features (most of the time) or random ones, on
    tiny TLBs and PSCs with 1-8 MSHRs and 1-30 µop walks."""
    if model_features is None or rng.random() < 0.3:
        model_features = {feature for feature in FEATURES if rng.random() < 0.5}

    def array(max_sets):
        ways = rng.choice((1, 2, 4))
        return ways * rng.choice([sets for sets in (1, 2, 4, 8) if sets <= max_sets]), ways

    (l1_4k, l1_4k_ways), (l1_2m, l1_2m_ways), (stlb, stlb_ways) = array(8), array(4), array(8)
    return MMUConfig.for_features(
        model_features,
        l1_tlb_entries_4k=l1_4k,
        l1_tlb_ways_4k=l1_4k_ways,
        l1_tlb_entries_2m=l1_2m,
        l1_tlb_ways_2m=l1_2m_ways,
        stlb_entries=stlb,
        stlb_ways=stlb_ways,
        pde_cache_entries=rng.randint(1, 8),
        pdpte_cache_entries=rng.randint(1, 4),
        pml4e_cache_entries=rng.randint(1, 4),
        walk_latency_ops=rng.randint(1, 30),
        mshr_entries=rng.randint(1, 8),
        seed=rng.randrange(1 << 16),
    )


def random_case(index):
    """``(model name, µDD, config, page size, ops, schedule, caches)``:
    ``index`` picks the (model, generator, page size) triple and seeds
    the rest."""
    name, mudd, features = MODELS[index % len(MODELS)]
    generator = index // len(MODELS) % N_GENERATORS
    page_size = PAGE_SIZES[index // (len(MODELS) * N_GENERATORS) % len(PAGE_SIZES)]
    rng = random.Random(index)
    config = _config(rng, features)
    page_bytes = PageSize.BYTES[page_size]
    ops = list(_workload(generator, rng, page_bytes).ops(rng.randint(100, 400)))
    if rng.random() < 0.5:
        ops = _with_trigger_pairs(rng, ops, page_bytes)
    if rng.random() < 0.5:
        schedule = rng.randint(1, 120)
    else:
        schedule = [rng.randint(1, 80) for _ in range(rng.randint(1, 4))]
    # Tiny data caches so walker loads are served from every level.
    caches = rng.choice((None, ((256, 1), (1024, 2), (4096, 4))))
    return name, mudd, config, page_size, ops, schedule, caches


def _caches(spec, module):
    if spec is None:
        return None
    return module.CacheHierarchy(*(module.SetAssociativeCache(size, ways) for size, ways in spec))


def _run(oracle, mudd, ops, schedule):
    """Execute ``ops`` under ``oracle``: the deltas yielded, the µops
    executed and the totals."""
    executor = MuDDExecutor(mudd)
    intervals = list(executor.run_intervals(oracle, ops, schedule))
    return intervals, executor.n_uops, executor.snapshot()


def _sets(sets):
    return [list(entries) for entries in sets]


def _device_state(oracle):
    """Every piece of device state either oracle keeps, in one shape."""
    if isinstance(oracle, MMUOracle):
        mmu = oracle.mmu
        tick = mmu.tick
        outstanding = [(vpn, walk.completes_at) for vpn, walk in mmu._outstanding.items()]
        page_table, l1_tlb, stlb, caches = mmu.page_table, mmu.l1_tlb, mmu.stlb, mmu.caches
        pscs = (mmu.pde_cache, mmu.pdpte_cache, mmu.pml4e_cache)
        trigger = mmu.prefetch_trigger
    else:
        tick = oracle.tick
        outstanding = list(oracle._outstanding.items())
        page_table, l1_tlb, stlb, caches = (
            oracle.page_table, oracle.l1_tlb, oracle.stlb, oracle.caches
        )
        pscs = (oracle.pscs["pd"], oracle.pscs["pdpt"], oracle.pscs["pml4"])
        trigger = oracle.prefetch_trigger
    return {
        "tick": tick,
        "outstanding": outstanding,
        "accessed": set(page_table._accessed),
        "l1_tlb": {size: _sets(array._sets) for size, array in l1_tlb.arrays.items()},
        "stlb": _sets(stlb.array._sets),
        "pscs": [list(psc._cache) for psc in pscs],
        "caches": [_sets(cache._sets) for cache in (caches.l1, caches.l2, caches.l3)],
        "trigger": vars(trigger),
        "fallback_rng": oracle.fallback._rng.getstate(),
    }


def run_both(index):
    """Run case ``index`` under both oracles and require identical
    outcomes; returns how many µops the oracles injected."""
    name, mudd, config, page_size, ops, schedule, caches = random_case(index)
    context = "case %d (SIM_EQUIV_SEED=%d): %s %s %r" % (index, BASE_SEED, name, page_size, config)
    reference = mmu_reference.ReferenceMMUOracle(
        config, page_size=page_size, cache_hierarchy=_caches(caches, mmu_reference)
    )
    oracle = MMUOracle(config, page_size=page_size, cache_hierarchy=_caches(caches, repro.cache))
    want_intervals, want_uops, want_totals = _run(reference, mudd, ops, schedule)
    got_intervals, got_uops, got_totals = _run(oracle, mudd, ops, schedule)
    assert len(got_intervals) == len(want_intervals), context
    for interval, (got_delta, want_delta) in enumerate(zip(got_intervals, want_intervals)):
        assert got_delta == want_delta, "interval %d differs: %s" % (interval, context)
    assert got_uops == want_uops, context
    assert got_totals == want_totals, context
    got_state, want_state = _device_state(oracle), _device_state(reference)
    for part in want_state:
        assert got_state[part] == want_state[part], "%s differs: %s" % (part, context)
    return got_uops - len(ops)


def test_random_cases_match_the_reference():
    """Every (model, generator, page size) triple, each with its own
    random MSHRs, latency, geometry, features and seed."""
    injecting = sum(run_both(BASE_SEED + case) > 0 for case in range(CASES))
    # Some cases inject standalone prefetch µops.
    assert injecting > 20, injecting


def test_for_features_matches_the_reference():
    """``MMUConfig.for_features`` maps every Table 3 feature set to the
    configuration the old oracle's mapping built."""
    for size in range(len(FEATURES) + 1):
        for features in itertools.combinations(FEATURES, size):
            for overrides in ({}, {"mshr_entries": 3, "seed": 7}):
                got = MMUOracle.for_features(features, page_size="2m", **overrides)
                want = mmu_reference.ReferenceMMUOracle.for_features(
                    features, page_size="2m", **overrides
                )
                assert vars(got.config) == vars(want.config), features
                assert got.page_size == want.page_size == "2m"
