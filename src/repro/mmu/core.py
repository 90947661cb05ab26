"""The MMU simulator main loop and HEC emission.

:class:`MMUSimulator` processes a program-order stream of
:class:`MemoryOp` (loads/stores with virtual addresses and a
retires-or-not flag) and maintains ground-truth values for all 26
Table 2 HECs. See :mod:`repro.mmu` for the feature inventory and
:mod:`repro.counters.events` for counter semantics.

Counting semantics implemented here (aligned with the paper's final
feasible model m4 — the point of the reproduction is that these
mechanisms, not hand-tuned counts, produce the observation dataset):

* ``T.ret`` / ``T.ret_stlb_miss`` — incremented when a µop retires; STLB
  missers (walk initiators *and* merged waiters) count the latter.
* ``T.stlb_hit*`` — L1-TLB-miss, STLB-hit lookups, speculative included.
* ``T.pde$_miss`` — every PDE-cache probe that misses. With early PSC
  probing, merged and prefetch requests probe too — the mechanism behind
  ``pde$_miss > causes_walk``.
* ``T.causes_walk`` — demand translation requests that start a walk
  (merged requests and prefetches do not count).
* ``T.walk_done*`` — demand walks completing (replayed walks included;
  prefetch walks never count).
* ``walk_ref.*`` — page-walker loads classified by the data-cache level
  serving them; replayed walks emit none; prefetch-induced walker loads
  count (they are real pipeline loads).
"""

from repro.errors import SimulationError
from repro.cache import CacheHierarchy
from repro.counters.events import HASWELL_MMU_EVENTS
from repro.mmu.config import MMUConfig, PageSize
from repro.mmu.paging import (
    ENTRY_BYTES,
    PD_SHIFT,
    PDPT_SHIFT,
    PML4_SHIFT,
    PT_SHIFT,
    PageTable,
    PagingStructureCache,
)
from repro.mmu.prefetcher import PrefetchTrigger
from repro.mmu.tlb import L1DTLB, STLB

_LEVEL_SHIFTS = {"pml4": PML4_SHIFT, "pdpt": PDPT_SHIFT, "pd": PD_SHIFT, "pt": PT_SHIFT}

# The counter a walker load increments, by the cache level serving it.
_WALK_REF_KEYS = {level: "walk_ref." + level for level in CacheHierarchy.SERVING_LEVELS}


class MemoryOp:
    """One memory µop in program order."""

    __slots__ = ("kind", "vaddr", "retires")

    def __init__(self, kind, vaddr, retires=True):
        if kind not in ("load", "store"):
            raise SimulationError("MemoryOp kind must be 'load' or 'store'")
        if vaddr < 0:
            raise SimulationError("negative virtual address")
        self.kind = kind
        self.vaddr = vaddr
        self.retires = retires

    def __repr__(self):
        return "MemoryOp(%s, 0x%x, retires=%r)" % (self.kind, self.vaddr, self.retires)


class _CounterKeys:
    """The counter names one access type increments at one page size,
    formatted once per simulator."""

    __slots__ = (
        "ret",
        "ret_stlb_miss",
        "stlb_hit",
        "stlb_hit_size",
        "causes_walk",
        "walk_done",
        "walk_done_size",
        "pde_miss",
    )

    def __init__(self, kind, page_size):
        self.ret = kind + ".ret"
        self.ret_stlb_miss = kind + ".ret_stlb_miss"
        self.stlb_hit = kind + ".stlb_hit"
        self.stlb_hit_size = "%s.stlb_hit_%s" % (kind, page_size)
        self.causes_walk = kind + ".causes_walk"
        self.walk_done = kind + ".walk_done"
        self.walk_done_size = "%s.walk_done_%s" % (kind, page_size)
        self.pde_miss = kind + ".pde$_miss"


class _OutstandingWalk:
    """An in-flight page-table walk held in an MSHR."""

    __slots__ = ("vpn", "completes_at", "initiator_kind", "waiters")

    def __init__(self, vpn, completes_at, initiator_kind):
        self.vpn = vpn
        self.completes_at = completes_at
        self.initiator_kind = initiator_kind
        # (kind, retires) per µop waiting on this walk, initiator first.
        self.waiters = []


class MMUSimulator:
    """Functional simulator of the Haswell data-side MMU.

    Parameters
    ----------
    config:
        :class:`MMUConfig`; defaults to full Haswell.
    page_size:
        Page size backing the workload's address space (one size per
        run, matching the paper's per-configuration experiments).
    cache_hierarchy:
        Optional pre-built :class:`CacheHierarchy` for walker loads.
    """

    def __init__(self, config=None, page_size=PageSize.SIZE_4K, cache_hierarchy=None):
        self.config = config or MMUConfig.full_haswell()
        self.page_size = PageSize.validate(page_size)
        self.page_table = PageTable(page_size)
        self.l1_tlb = L1DTLB(self.config)
        self.stlb = STLB(self.config)
        self.pde_cache = PagingStructureCache("pd", self.config.pde_cache_entries)
        self.pdpte_cache = PagingStructureCache("pdpt", self.config.pdpte_cache_entries)
        self.pml4e_cache = PagingStructureCache(
            "pml4", self.config.pml4e_cache_entries, enabled=self.config.pml4e_cache
        )
        self.caches = cache_hierarchy or CacheHierarchy()
        self.prefetch_trigger = PrefetchTrigger()

        self.tick = 0
        self._smt_overcount = 0
        # vpn -> _OutstandingWalk. A walk starts at most once per tick
        # and completes walk_latency_ops ticks later, so insertion order
        # is strictly increasing completes_at order: the head is always
        # the next walk due (and the oldest, for an MSHR eviction).
        self._outstanding = {}
        self.counters = {event.name: 0 for event in HASWELL_MMU_EVENTS}

        self._page_bytes = self.page_table.page_bytes
        self._l1 = self.l1_tlb.arrays[self.page_size]
        self._keys = {kind: _CounterKeys(kind, self.page_size) for kind in ("load", "store")}
        self._walk_plans = self._build_walk_plans()

    def _build_walk_plans(self):
        """Entry level (``None`` = full walk) -> the walk's references:
        ``(entry-address shift, level base, PSC to fill or None)`` per
        level read, outermost first. Reading a non-leaf entry installs
        it in its PSC; the leaf fills none."""
        fills = {"pd": self.pde_cache, "pdpt": self.pdpte_cache, "pml4": self.pml4e_cache}
        levels = self.page_table.walk_levels()
        plans = {}
        for entry_level in [None] + levels[:-1]:
            plan = []
            for level in self.page_table.walk_levels(entry_level):
                psc = fills.get(level) if level != levels[-1] else None
                if psc is not None and not psc.enabled:
                    psc = None  # a disabled PSC never fills
                # The entry address at vaddr 0 is the level's base.
                base = self.page_table.entry_address(level, 0)
                plan.append((_LEVEL_SHIFTS[level], base, psc))
            plans[entry_level] = tuple(plan)
        return plans

    def snapshot(self):
        """A copy of the cumulative counter values."""
        return dict(self.counters)

    # -- main loop -----------------------------------------------------------
    def access(self, op):
        """Process one µop in program order."""
        self.tick += 1
        if self._outstanding:
            self._complete_due_walks()

        kind = op.kind
        if kind == "load" and self.config.prefetcher:
            target_vpn = self.prefetch_trigger.observe(op.vaddr, self._page_bytes)
            if target_vpn is not None:
                self._issue_prefetch(target_vpn)

        vpn = op.vaddr // self._page_bytes
        # TLBArray.lookup, inlined: most µops end at an L1 TLB hit.
        l1 = self._l1
        entries = l1._sets[vpn % l1.n_sets]
        tag = vpn // l1.n_sets
        if tag in entries:
            entries.move_to_end(tag)
            self.page_table.set_accessed(vpn)
            if op.retires:
                self.counters[self._keys[kind].ret] += 1
            return

        if self.stlb.lookup(vpn, self.page_size):
            keys = self._keys[kind]
            counters = self.counters
            counters[keys.stlb_hit] += 1
            counters[keys.stlb_hit_size] += 1
            l1.insert(vpn)
            self.page_table.set_accessed(vpn)
            if op.retires:
                counters[keys.ret] += 1
            return

        self._demand_translation(op, vpn)

    def run(self, ops):
        """Process an iterable of µops, then drain outstanding walks."""
        access = self.access
        for op in ops:
            access(op)
        self.drain()

    def run_intervals(self, ops, ops_per_interval):
        """Process µops and yield per-interval counter deltas — the
        perf-style time series the analysis consumes.

        ``ops_per_interval`` is either a positive int (fixed-size
        intervals) or an iterable of positive ints (a schedule — e.g.
        fixed *wall-clock* intervals whose µop counts vary with the
        program's throughput phases). A finite schedule is cycled.
        """
        if isinstance(ops_per_interval, int):
            if ops_per_interval <= 0:
                raise SimulationError("ops_per_interval must be positive")
            schedule = [ops_per_interval]
        else:
            schedule = [int(size) for size in ops_per_interval]
            if not schedule or any(size <= 0 for size in schedule):
                raise SimulationError("interval schedule must be positive ints")
        access = self.access
        previous = self.snapshot()
        in_interval = 0
        slot = 0
        target = schedule[0]
        for op in ops:
            access(op)
            in_interval += 1
            if in_interval == target:
                current = self.snapshot()
                yield {name: current[name] - previous[name] for name in current}
                previous = current
                in_interval = 0
                slot += 1
                target = schedule[slot % len(schedule)]
        self.drain()
        if in_interval:
            current = self.snapshot()
            yield {name: current[name] - previous[name] for name in current}

    def drain(self):
        """Complete every outstanding walk (end of program)."""
        while self._outstanding:
            self.tick += self.config.walk_latency_ops
            self._complete_due_walks()

    # -- demand translation ---------------------------------------------------
    def _demand_translation(self, op, vpn):
        kind = op.kind
        plan = None
        if self.config.early_psc:
            plan = self._probe_pscs(op.vaddr, kind)

        walk = self._outstanding.get(vpn)
        if walk is not None:
            if self.config.merging:
                walk.waiters.append((kind, op.retires))
                return
            # No MSHR merging: hardware would run a second, independent
            # walk. Complete the old one now so both are accounted.
            self._complete_walk(self._outstanding.pop(vpn))

        if plan is None:
            plan = self._probe_pscs(op.vaddr, kind)

        # Start a walk.
        self.counters[self._keys[kind].causes_walk] += 1
        # Walk replay ("walk bypassing"): a speculative walk that finds
        # the leaf accessed bit unset must set it non-speculatively, so
        # the walk is replayed at retirement; the replay's references are
        # not captured by the walk_ref counters (Appendix C.4).
        replayed = self.config.walk_replay and not self.page_table.is_accessed(vpn)
        # Replayed walks still read the page table (non-speculatively, at
        # retirement) — they warm the caches and PSCs — but their loads
        # carry attributes the walk_ref counters do not capture.
        self._do_walk_references(op.vaddr, plan, count_refs=not replayed)
        self._enqueue_walk(vpn, kind).waiters.append((kind, op.retires))

    def _enqueue_walk(self, vpn, kind):
        """Hold a new walk of ``vpn`` in an MSHR, due walk_latency_ops
        ticks from now, and return it. When every MSHR is busy, the
        oldest walk (the head) completes first."""
        outstanding = self._outstanding
        if len(outstanding) >= self.config.mshr_entries:
            oldest = next(iter(outstanding.values()))
            del outstanding[oldest.vpn]
            self._complete_walk(oldest)
        walk = outstanding[vpn] = _OutstandingWalk(
            vpn, self.tick + self.config.walk_latency_ops, kind
        )
        return walk

    def _complete_due_walks(self):
        """Complete the walks due by now: a prefix of ``_outstanding``."""
        outstanding = self._outstanding
        tick = self.tick
        while outstanding:
            walk = next(iter(outstanding.values()))
            if walk.completes_at > tick:
                return
            del outstanding[walk.vpn]
            self._complete_walk(walk)

    def _complete_walk(self, walk):
        counters = self.counters
        keys = self._keys[walk.initiator_kind]
        counters[keys.walk_done] += 1
        counters[keys.walk_done_size] += 1
        vpn = walk.vpn
        self.page_table.set_accessed(vpn)
        self._l1.insert(vpn)
        self.stlb.insert(vpn, self.page_size)
        for kind, retires in walk.waiters:
            if not retires:
                continue
            keys = self._keys[kind]
            counters[keys.ret] += 1
            counters[keys.ret_stlb_miss] += 1
            # Erratum HSD29/HSM30: with SMT enabled the
            # mem_uops_retired.stlb_miss_* events may overcount; the
            # corrupted data violates ret_stlb_miss <= ret, which every
            # µDD implies — the reason the paper disables SMT.
            if self.config.smt_enabled:
                self._smt_overcount += 1
                if self._smt_overcount % 4 == 0:
                    counters[keys.ret_stlb_miss] += 1

    # -- paging-structure caches -------------------------------------------------
    def _probe_pscs(self, vaddr, attributed_kind):
        """Probe PSCs deepest-first; returns the walk plan that starts
        below the deepest hit (the full walk when none hits). Always
        counts PDE-cache misses for the attributing access type."""
        if self.pde_cache.lookup(vaddr, self.page_size):
            return self._walk_plans["pd"]
        self.counters[self._keys[attributed_kind].pde_miss] += 1
        if self.pdpte_cache.lookup(vaddr, self.page_size):
            return self._walk_plans["pdpt"]
        if self.pml4e_cache.lookup(vaddr, self.page_size):
            return self._walk_plans["pml4"]
        return self._walk_plans[None]

    def _do_walk_references(self, vaddr, plan, count_refs=True):
        """Perform the walker's PTE loads and fill the PSCs.

        ``count_refs=False`` models replayed walks: the loads happen (and
        warm the cache hierarchy and PSCs) but are not visible to the
        ``walk_ref`` counters.
        """
        access = self.caches.access
        counters = self.counters
        for shift, base, psc in plan:
            served_by = access(base + (vaddr >> shift) * ENTRY_BYTES)
            if count_refs:
                counters[_WALK_REF_KEYS[served_by]] += 1
            if psc is not None:
                psc.insert(vaddr)

    # -- prefetch ------------------------------------------------------------------
    def _issue_prefetch(self, target_vpn):
        """A translation prefetch injected from the load/store queue.

        Probes the PSCs (misses attributed to loads — the triggering µop
        type), injects real walker loads, aborts on an unset accessed
        bit, and on success fills both TLB levels. Never increments
        ``causes_walk`` or ``walk_done``.
        """
        if self._translated(target_vpn):
            return
        vaddr = target_vpn * self._page_bytes
        plan = self._probe_pscs(vaddr, "load")
        self._do_walk_references(vaddr, plan)
        if not self.page_table.is_accessed(target_vpn):
            return  # abort: accessed bit unset; no fill, no completion
        self._l1.insert(target_vpn)
        self.stlb.insert(target_vpn, self.page_size)

    def _translated(self, vpn):
        """Is ``vpn`` in a TLB (a hit refreshes its LRU place) or being
        walked? A prefetch for such a page is dropped."""
        return (
            self._l1.lookup(vpn)
            or self.stlb.lookup(vpn, self.page_size)
            or vpn in self._outstanding
        )
