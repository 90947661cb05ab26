"""The readable MMU simulator, frozen as the reference for the fast one.

This is :class:`repro.mmu.MMUSimulator` as it stood before its per-µop
work was cut down: every walk completion scans the MSHRs, every counter
name is formatted at its increment, and every walk asks
:class:`~repro.mmu.paging.PageTable` for its levels and entry
addresses. It runs on frozen copies of the TLB arrays and data caches
(each probe locating its set through ``_locate``/``_key``), so the
simulator's inlined set and tag arithmetic is checked against the
helpers it replaced, not against itself. ``tests/test_mmu_fastpath.py``
runs both simulators on the same seeded op streams and requires
identical counters, ticks and accessed bits. Do not optimise this file:
its value is that it is obviously the specification.

:class:`ReferenceMMUOracle` is :class:`repro.sim.MMUOracle` as it
stood before it ran on an ``MMUSimulator``: its own TLBs (the frozen
ones), PSCs, page table, caches and prefetch trigger, and an MSHR dict
scanned on every µop and evicted from with ``min()``.
``tests/test_oracle_equivalence.py`` executes µDDs under both oracles.

The two microbenchmark address loops, the per-op ``Workload.ops`` loop
and the per-interval multiplexer are frozen here too, so the cheaper
generators, the C-level µop stream and the chunked multiplexer are
checked against them.
"""

import random
import re
from collections import OrderedDict

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.counters.events import HASWELL_MMU_EVENTS
from repro.mmu.config import MMUConfig, PageSize
from repro.mmu.core import MemoryOp
from repro.mmu.paging import PageTable, PagingStructureCache
from repro.mmu.prefetcher import PrefetchTrigger
from repro.sim.oracles import Oracle, PrefetchUop, RandomOracle


# -- TLBs and data caches ---------------------------------------------------


class TLBArray:
    """A set-associative TLB for one page size (LRU replacement)."""

    def __init__(self, entries, ways, name="tlb"):
        if entries <= 0 or ways <= 0 or entries % ways != 0:
            raise ConfigurationError(
                "TLB %s: %d entries not divisible into %d ways" % (name, entries, ways)
            )
        self.name = name
        self.ways = ways
        self.n_sets = entries // ways
        self._sets = [OrderedDict() for _ in range(self.n_sets)]

    def _locate(self, vpn):
        return vpn % self.n_sets, vpn // self.n_sets

    def lookup(self, vpn):
        """Probe for a virtual page number; hit refreshes LRU state."""
        index, tag = self._locate(vpn)
        entries = self._sets[index]
        if tag in entries:
            entries.move_to_end(tag)
            return True
        return False

    def insert(self, vpn):
        index, tag = self._locate(vpn)
        entries = self._sets[index]
        entries[tag] = None
        entries.move_to_end(tag)
        if len(entries) > self.ways:
            entries.popitem(last=False)


class L1DTLB:
    """First-level data TLB: separate arrays per page size."""

    def __init__(self, config):
        self.arrays = {
            PageSize.SIZE_4K: TLBArray(
                config.l1_tlb_entries_4k, config.l1_tlb_ways_4k, name="L1D-4K"
            ),
            PageSize.SIZE_2M: TLBArray(
                config.l1_tlb_entries_2m, config.l1_tlb_ways_2m, name="L1D-2M"
            ),
            PageSize.SIZE_1G: TLBArray(
                config.l1_tlb_entries_1g, config.l1_tlb_ways_1g, name="L1D-1G"
            ),
        }

    def lookup(self, vpn, page_size):
        return self.arrays[page_size].lookup(vpn)

    def insert(self, vpn, page_size):
        self.arrays[page_size].insert(vpn)


class STLB:
    """Second-level (shared) TLB: holds 4 KB and 2 MB translations."""

    CACHEABLE = (PageSize.SIZE_4K, PageSize.SIZE_2M)

    def __init__(self, config):
        self.array = TLBArray(config.stlb_entries, config.stlb_ways, name="STLB")

    def lookup(self, vpn, page_size):
        if page_size not in self.CACHEABLE:
            return False
        # Tag the entry with its page size so 4K/2M entries cannot alias.
        return self.array.lookup(self._key(vpn, page_size))

    def insert(self, vpn, page_size):
        if page_size not in self.CACHEABLE:
            return
        self.array.insert(self._key(vpn, page_size))

    @staticmethod
    def _key(vpn, page_size):
        return vpn * 2 + (0 if page_size == PageSize.SIZE_4K else 1)


class SetAssociativeCache:
    """A set-associative cache with true-LRU replacement (tags only)."""

    def __init__(self, total_bytes, ways, line_size=64, name="cache"):
        if total_bytes <= 0 or ways <= 0 or line_size <= 0:
            raise ConfigurationError("cache geometry must be positive")
        lines = total_bytes // line_size
        if lines % ways != 0 or lines == 0:
            raise ConfigurationError(
                "cache of %d lines cannot be %d-way set associative" % (lines, ways)
            )
        self.name = name
        self.line_size = line_size
        self.ways = ways
        self.n_sets = lines // ways
        self._sets = [OrderedDict() for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def _locate(self, address):
        line = address // self.line_size
        return line % self.n_sets, line // self.n_sets

    def access(self, address):
        """Access a byte address; returns True on hit. Misses insert the
        line, evicting LRU if needed."""
        index, tag = self._locate(address)
        cache_set = self._sets[index]
        if tag in cache_set:
            cache_set.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        cache_set[tag] = None
        if len(cache_set) > self.ways:
            cache_set.popitem(last=False)
        return False


class CacheHierarchy:
    """An inclusive L1/L2/L3 hierarchy for page-walker loads."""

    def __init__(self, l1=None, l2=None, l3=None):
        self.l1 = l1 or SetAssociativeCache(32 * 1024, 8, name="L1D")
        self.l2 = l2 or SetAssociativeCache(256 * 1024, 8, name="L2")
        self.l3 = l3 or SetAssociativeCache(2 * 1024 * 1024, 16, name="L3")

    def access(self, address):
        """Access a byte address; returns the serving level name."""
        if self.l1.access(address):
            return "l1"
        if self.l2.access(address):
            return "l2"
        if self.l3.access(address):
            return "l3"
        return "mem"


# -- the simulator ----------------------------------------------------------


class _OutstandingWalk:
    """An in-flight page-table walk held in an MSHR."""

    __slots__ = ("vpn", "completes_at", "initiator_kind", "page_size", "waiters", "replayed")

    def __init__(self, vpn, completes_at, initiator_kind, page_size, replayed):
        self.vpn = vpn
        self.completes_at = completes_at
        self.initiator_kind = initiator_kind
        self.page_size = page_size
        self.replayed = replayed
        # (kind, retires) per µop waiting on this walk, initiator first.
        self.waiters = []


class ReferenceMMUSimulator:
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
        self._walk_count = 0
        self._smt_overcount = 0
        self._outstanding = {}  # vpn -> _OutstandingWalk
        self.counters = {event.name: 0 for event in HASWELL_MMU_EVENTS}

    # -- counter helpers ---------------------------------------------------
    def _incr(self, name, amount=1):
        self.counters[name] += amount

    def snapshot(self):
        """A copy of the cumulative counter values."""
        return dict(self.counters)

    # -- main loop -----------------------------------------------------------
    def access(self, op):
        """Process one µop in program order."""
        self.tick += 1
        self._complete_due_walks()

        if op.kind == "load" and self.config.prefetcher:
            target_vpn = self.prefetch_trigger.observe(
                op.vaddr, self.page_table.page_bytes
            )
            if target_vpn is not None:
                self._issue_prefetch(target_vpn)

        vpn = self.page_table.vpn(op.vaddr)
        if self.l1_tlb.lookup(vpn, self.page_size):
            self.page_table.set_accessed(vpn)
            self._retire(op.kind, op.retires, stlb_missed=False)
            return

        if self.stlb.lookup(vpn, self.page_size):
            self._incr("%s.stlb_hit" % op.kind)
            self._incr("%s.stlb_hit_%s" % (op.kind, self.page_size))
            self.l1_tlb.insert(vpn, self.page_size)
            self.page_table.set_accessed(vpn)
            self._retire(op.kind, op.retires, stlb_missed=False)
            return

        self._demand_translation(op, vpn)

    def run(self, ops):
        """Process an iterable of µops, then drain outstanding walks."""
        for op in ops:
            self.access(op)
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
        previous = self.snapshot()
        in_interval = 0
        slot = 0
        target = schedule[0]
        for op in ops:
            self.access(op)
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
        entry_level = None
        probed_early = False
        if self.config.early_psc:
            entry_level = self._probe_pscs(op.vaddr, kind)
            probed_early = True

        walk = self._outstanding.get(vpn)
        if walk is not None:
            if self.config.merging:
                walk.waiters.append((kind, op.retires))
                return
            # No MSHR merging: hardware would run a second, independent
            # walk. Complete the old one now so both are accounted.
            self._complete_walk(self._outstanding.pop(vpn))

        if not probed_early:
            entry_level = self._probe_pscs(op.vaddr, kind)

        self._start_walk(op.vaddr, vpn, kind, op.retires, entry_level)

    def _start_walk(self, vaddr, vpn, kind, retires, entry_level):
        self._incr("%s.causes_walk" % kind)
        self._walk_count += 1
        # Walk replay ("walk bypassing"): a speculative walk that finds
        # the leaf accessed bit unset must set it non-speculatively, so
        # the walk is replayed at retirement; the replay's references are
        # not captured by the walk_ref counters (Appendix C.4).
        replayed = self.config.walk_replay and not self.page_table.is_accessed(vpn)
        # Replayed walks still read the page table (non-speculatively, at
        # retirement) — they warm the caches and PSCs — but their loads
        # carry attributes the walk_ref counters do not capture.
        self._do_walk_references(vaddr, entry_level, count_refs=not replayed)
        if len(self._outstanding) >= self.config.mshr_entries:
            # MSHRs full: complete the oldest walk immediately.
            oldest_vpn = min(
                self._outstanding, key=lambda key: self._outstanding[key].completes_at
            )
            self._complete_walk(self._outstanding.pop(oldest_vpn))
        walk = _OutstandingWalk(
            vpn,
            self.tick + self.config.walk_latency_ops,
            kind,
            self.page_size,
            replayed,
        )
        walk.waiters.append((kind, retires))
        self._outstanding[vpn] = walk

    def _complete_due_walks(self):
        if not self._outstanding:
            return
        due = [vpn for vpn, walk in self._outstanding.items() if walk.completes_at <= self.tick]
        for vpn in due:
            self._complete_walk(self._outstanding.pop(vpn))

    def _complete_walk(self, walk):
        self._incr("%s.walk_done" % walk.initiator_kind)
        self._incr("%s.walk_done_%s" % (walk.initiator_kind, walk.page_size))
        self.page_table.set_accessed(walk.vpn)
        self.l1_tlb.insert(walk.vpn, walk.page_size)
        self.stlb.insert(walk.vpn, walk.page_size)
        for kind, retires in walk.waiters:
            self._retire(kind, retires, stlb_missed=True)

    def _retire(self, kind, retires, stlb_missed):
        if not retires:
            return
        self._incr("%s.ret" % kind)
        if stlb_missed:
            self._incr("%s.ret_stlb_miss" % kind)
            # Erratum HSD29/HSM30: with SMT enabled the
            # mem_uops_retired.stlb_miss_* events may overcount; the
            # corrupted data violates ret_stlb_miss <= ret, which every
            # µDD implies — the reason the paper disables SMT.
            if self.config.smt_enabled:
                self._smt_overcount += 1
                if self._smt_overcount % 4 == 0:
                    self._incr("%s.ret_stlb_miss" % kind)

    # -- paging-structure caches -------------------------------------------------
    def _probe_pscs(self, vaddr, attributed_kind):
        """Probe PSCs deepest-first; returns the entry level supplied by
        the deepest hit (``None`` = full walk). Always counts PDE-cache
        misses for the attributing access type."""
        pde_hit = self.pde_cache.lookup(vaddr, self.page_size)
        if not pde_hit:
            self._incr("%s.pde$_miss" % attributed_kind)
        if pde_hit:
            return "pd"
        if self.pdpte_cache.lookup(vaddr, self.page_size):
            return "pdpt"
        if self.pml4e_cache.lookup(vaddr, self.page_size):
            return "pml4"
        return None

    def _do_walk_references(self, vaddr, entry_level, count_refs=True):
        """Perform the walker's PTE loads and fill the PSCs.

        ``count_refs=False`` models replayed walks: the loads happen (and
        warm the cache hierarchy and PSCs) but are not visible to the
        ``walk_ref`` counters.
        """
        levels = self.page_table.walk_levels(entry_level)
        for level in levels:
            address = self.page_table.entry_address(level, vaddr)
            served_by = self.caches.access(address)
            if count_refs:
                self._incr("walk_ref.%s" % served_by)
        self._fill_pscs(vaddr, levels)

    def _fill_pscs(self, vaddr, levels_read):
        """Reading a non-leaf entry installs it in its PSC."""
        leaf = {
            PageSize.SIZE_4K: "pt",
            PageSize.SIZE_2M: "pd",
            PageSize.SIZE_1G: "pdpt",
        }[self.page_size]
        for level in levels_read:
            if level == leaf:
                continue
            if level == "pd":
                self.pde_cache.insert(vaddr)
            elif level == "pdpt":
                self.pdpte_cache.insert(vaddr)
            elif level == "pml4":
                self.pml4e_cache.insert(vaddr)

    # -- prefetch ------------------------------------------------------------------
    def _issue_prefetch(self, target_vpn):
        """A translation prefetch injected from the load/store queue.

        Probes the PSCs (misses attributed to loads — the triggering µop
        type), injects real walker loads, aborts on an unset accessed
        bit, and on success fills both TLB levels. Never increments
        ``causes_walk`` or ``walk_done``.
        """
        if self.l1_tlb.lookup(target_vpn, self.page_size) or self.stlb.lookup(
            target_vpn, self.page_size
        ):
            return
        if target_vpn in self._outstanding:
            return
        vaddr = target_vpn * self.page_table.page_bytes
        entry_level = self._probe_pscs(vaddr, "load")
        self._do_walk_references(vaddr, entry_level)
        if not self.page_table.is_accessed(target_vpn):
            return  # abort: accessed bit unset; no fill, no completion
        self.l1_tlb.insert(target_vpn, self.page_size)
        self.stlb.insert(target_vpn, self.page_size)


# -- the device oracle ------------------------------------------------------

# Serving-level order used by the RefMix multiset labels.
_REF_LEVEL_ORDER = {"l1": 0, "l2": 1, "l3": 2, "mem": 3}

_REFMIX_RE = re.compile(r"^(?P<prefix>[A-Za-z]*?)RefMix(?P<count>\d+)$")


class ReferenceMMUOracle(Oracle):
    """Resolves the Haswell model vocabulary against live MMU devices
    (``MMUOracle`` as it stood, with its own devices).

    The oracle owns the same component set as
    :class:`repro.mmu.core.MMUSimulator` — TLB arrays, PSCs, page table,
    cache hierarchy, prefetch trigger — but performs *no counting*: the
    executed µDD decides what increments. Device side effects are keyed
    off the resolutions themselves plus the conventional event names the
    model library emits (``StartWalk`` schedules an outstanding walk;
    ``PrefetchWalk`` resolves a prefetch against the accessed bit).

    Properties outside the vocabulary are delegated to ``fallback``
    (default: a :class:`RandomOracle` seeded from ``config.seed``), so
    any µDD can execute against the device substrate.

    Parameters
    ----------
    config:
        :class:`MMUConfig`; defaults to full Haswell. Match the feature
        set to the model being executed (see :meth:`for_features`) —
        e.g. an oracle with the prefetcher enabled injects
        ``TlbPrefetch`` µops, which only models with a prefetch branch
        can absorb.
    page_size:
        Page size backing the trace's address space.
    """

    def __init__(self, config=None, page_size=PageSize.SIZE_4K, cache_hierarchy=None, fallback=None):
        self.config = config or MMUConfig.full_haswell()
        self.page_size = PageSize.validate(page_size)
        self.page_table = PageTable(page_size)
        self.l1_tlb = L1DTLB(self.config)
        self.stlb = STLB(self.config)
        self.pscs = {
            "pd": PagingStructureCache("pd", self.config.pde_cache_entries),
            "pdpt": PagingStructureCache("pdpt", self.config.pdpte_cache_entries),
            "pml4": PagingStructureCache(
                "pml4", self.config.pml4e_cache_entries, enabled=self.config.pml4e_cache
            ),
        }
        self.caches = cache_hierarchy or CacheHierarchy()
        self.prefetch_trigger = PrefetchTrigger()
        self.fallback = fallback or RandomOracle(seed=self.config.seed)

        self.tick = 0
        self._outstanding = {}  # vpn -> completion tick
        self._op = None
        self._vpn = None
        self._probe_memo = {}
        self._triggered = None       # prefetch target vpn of the current µop
        self._pf_inline = False      # consumed by a PfIssued switch?
        # Whether the model types prefetches as standalone µops
        # (UopType = TlbPrefetch, the m-series shape) — learned from the
        # branch set the first time UopType is resolved.
        self._standalone_prefetch = False

    @classmethod
    def for_features(cls, features, page_size=PageSize.SIZE_4K, **overrides):
        """An oracle whose device set matches a Table 3 feature set, so
        m-series µDDs execute against matching hardware."""
        features = frozenset(features)
        config = MMUConfig(
            prefetcher="TlbPf" in features,
            merging="Merging" in features,
            early_psc="EarlyPsc" in features,
            pml4e_cache="Pml4eCache" in features,
            walk_replay="WalkBypass" in features,
            **overrides
        )
        return cls(config, page_size=page_size)

    # -- per-µop bookkeeping ------------------------------------------------
    def begin_uop(self, op):
        self.tick += 1
        self._complete_due_walks()
        self._op = op
        self._probe_memo = {}
        self._triggered = None
        self._pf_inline = False
        if isinstance(op, PrefetchUop):
            self._vpn = op.target_vpn
            return
        self._vpn = self.page_table.vpn(op.vaddr)
        if op.kind == "load" and self.config.prefetcher:
            target_vpn = self.prefetch_trigger.observe(
                op.vaddr, self.page_table.page_bytes
            )
            if target_vpn is not None and not self._translation_cached(target_vpn):
                self._triggered = target_vpn

    def pending_uops(self):
        """Standalone prefetch µops for models that type prefetches as
        their own request kind. Trigger models consume the prefetch
        inline (a ``PfIssued`` switch on the triggering µop's path), in
        which case nothing is injected."""
        if (
            self._triggered is None
            or self._pf_inline
            or not self._standalone_prefetch
        ):
            return []
        target, self._triggered = self._triggered, None
        return [PrefetchUop(target)]

    # -- resolution ------------------------------------------------------------
    def resolve(self, prop, values, op):
        refmix = _REFMIX_RE.match(prop)
        if refmix is not None:
            return self._resolve_refmix(
                int(refmix.group("count")),
                pf_context=refmix.group("prefix").startswith("Pf"),
            )
        pf_context = prop.startswith("Pf") and prop != "PfIssued"
        base = prop[2:] if pf_context else prop
        if prop == "UopType":
            self._standalone_prefetch = "TlbPrefetch" in values
            if isinstance(self._op, PrefetchUop):
                return "TlbPrefetch"
            return "Load" if self._op.kind == "load" else "Store"
        if prop == "L1TlbStatus":
            if self.l1_tlb.lookup(self._vpn, self.page_size):
                self.page_table.set_accessed(self._vpn)
                return "Hit"
            return "Miss"
        if prop == "StlbStatus":
            if self.stlb.lookup(self._vpn, self.page_size):
                self.l1_tlb.insert(self._vpn, self.page_size)
                self.page_table.set_accessed(self._vpn)
                return "Hit4k" if self.page_size == PageSize.SIZE_4K else "Hit2m"
            return "Miss"
        if base == "PageSize":
            return self.page_size
        if prop == "Merged":
            merged = self.config.merging and self._vpn in self._outstanding
            return "Yes" if merged else "No"
        if base == "Pde$Status":
            return self._probe("pd", pf_context)
        if base == "Pdpte$Status":
            return self._probe("pdpt", pf_context)
        if base == "Pml4e$Status":
            return self._probe("pml4", pf_context)
        if prop == "Retires":
            if isinstance(self._op, PrefetchUop):
                return "Yes"
            return "Yes" if self._op.retires else "No"
        if prop == "WalkReplayed":
            replayed = self.config.walk_replay and not self.page_table.is_accessed(
                self._vpn
            )
            return "Yes" if replayed else "No"
        if prop == "PfIssued":
            # The inline (trigger-model) prefetch. Restricted to retiring
            # µops so a non-speculative trigger's Retires=Yes pin stays
            # consistent with the µop's own retirement.
            self._pf_inline = True
            issued = self._triggered is not None and self._op.retires
            return "Yes" if issued else "No"
        if prop in ("WalkAborted", "ReqAbortL1", "ReqAbortL2", "ReqAbortPsc"):
            # Demand translations in the functional substrate run to
            # completion; abort behaviour is a modelling hypothesis, not
            # a device outcome.
            return "No"
        return self.fallback.resolve(prop, values, op)

    # -- event side effects -------------------------------------------------
    def on_event(self, name, op):
        if name == "StartWalk":
            self._start_walk()
        elif name == "PrefetchWalk":
            self._resolve_prefetch()

    # -- device mechanics ----------------------------------------------------
    def _vaddr(self, pf_context=False):
        if isinstance(self._op, PrefetchUop):
            return self._op.target_vpn * self.page_table.page_bytes
        if pf_context and self._triggered is not None:
            # Inline (trigger-model) prefetch: Pf-prefixed properties
            # describe the *target* page's walk, not the µop's own.
            return self._triggered * self.page_table.page_bytes
        return self._op.vaddr

    def _translation_cached(self, vpn):
        """Would a prefetch for ``vpn`` be dropped? (already translated
        or already being walked — MMUSimulator._issue_prefetch's guards)."""
        return (
            self.l1_tlb.lookup(vpn, self.page_size)
            or self.stlb.lookup(vpn, self.page_size)
            or vpn in self._outstanding
        )

    def _probe(self, level, pf_context=False):
        """Probe one PSC at most once per µop and context (memoised so a
        model that shares the status property between probe and walk
        body sees one consistent outcome)."""
        memo_key = (level, pf_context)
        if memo_key not in self._probe_memo:
            hit = self.pscs[level].lookup(self._vaddr(pf_context), self.page_size)
            self._probe_memo[memo_key] = "Hit" if hit else "Miss"
        return self._probe_memo[memo_key]

    def _resolve_refmix(self, count, pf_context=False):
        """Perform ``count`` page-walker loads (the deepest ``count``
        levels of the walk) and report the serving-level multiset."""
        vaddr = self._vaddr(pf_context)
        levels = self.page_table.walk_levels(None)
        if count > len(levels):
            raise SimulationError(
                "model requests %d walker loads but a %s walk reads at most %d"
                % (count, self.page_size, len(levels))
            )
        read = levels[len(levels) - count :]
        served = []
        for level in read:
            served.append(self.caches.access(self.page_table.entry_address(level, vaddr)))
        self._fill_pscs(vaddr, read)
        served.sort(key=_REF_LEVEL_ORDER.__getitem__)
        return "_".join(served)

    def _fill_pscs(self, vaddr, levels_read):
        leaf = {
            PageSize.SIZE_4K: "pt",
            PageSize.SIZE_2M: "pd",
            PageSize.SIZE_1G: "pdpt",
        }[self.page_size]
        for level in levels_read:
            if level != leaf and level in self.pscs:
                self.pscs[level].insert(vaddr)

    def _start_walk(self):
        """``StartWalk`` event: allocate an outstanding walk whose
        completion (walk_latency_ops µops later) fills both TLB levels
        and sets the leaf accessed bit."""
        if isinstance(self._op, PrefetchUop):
            return  # prefetch walks resolve via PrefetchWalk
        self._outstanding.setdefault(
            self._vpn, self.tick + self.config.walk_latency_ops
        )
        if len(self._outstanding) > self.config.mshr_entries:
            oldest = min(self._outstanding, key=self._outstanding.get)
            self._fill(oldest)
            del self._outstanding[oldest]

    def _resolve_prefetch(self):
        """``PrefetchWalk`` event: fill on success, abort silently when
        the target's accessed bit is unset (the Section 7.1 behaviour)."""
        if isinstance(self._op, PrefetchUop):
            vpn = self._op.target_vpn
        elif self._triggered is not None:
            vpn = self._triggered
        else:
            vpn = self._vpn
        if not self.page_table.is_accessed(vpn):
            return
        self._fill(vpn)

    def _complete_due_walks(self):
        if not self._outstanding:
            return
        due = [vpn for vpn, at in self._outstanding.items() if at <= self.tick]
        for vpn in due:
            self._fill(vpn)
            del self._outstanding[vpn]

    def _fill(self, vpn):
        self.page_table.set_accessed(vpn)
        self.l1_tlb.insert(vpn, self.page_size)
        self.stlb.insert(vpn, self.page_size)

    def __repr__(self):
        return "ReferenceMMUOracle(%r, page_size=%s, tick=%d)" % (
            self.config,
            self.page_size,
            self.tick,
        )


def interleave_stores(index, load_store_ratio):
    """Should op ``index`` be a store? (The per-op rule, re-checked and
    recomputed at every op.)"""
    if not 0.0 <= load_store_ratio <= 1.0:
        raise SimulationError("load_store_ratio must be in [0, 1]")
    if load_store_ratio >= 1.0:
        return False
    if load_store_ratio <= 0.0:
        return True
    period = max(2, round(1.0 / (1.0 - load_store_ratio)))
    return index % period == period - 1


def linear_addresses(workload, n_ops):
    """``LinearAccessWorkload.addresses`` as it stood."""
    positions = list(range(0, workload.footprint_bytes, workload.stride))
    if workload.descending:
        positions = positions[::-1]
    if not positions:
        return
    index = 0
    if workload.warm_pass:
        for offset in range(0, workload.footprint_bytes, 4096):
            if index >= n_ops:
                return
            yield ("store", offset)
            index += 1
    while index < n_ops:
        for offset in positions:
            if index >= n_ops:
                return
            kind = "store" if interleave_stores(index, workload.load_store_ratio) else "load"
            yield (kind, offset)
            index += 1


def random_addresses(workload, n_ops):
    """``RandomAccessWorkload.addresses`` as it stood."""
    rng = random.Random(workload.seed)
    lines = workload.footprint_bytes // 64
    if lines <= 0:
        raise SimulationError("footprint smaller than one cache line")
    for index in range(n_ops):
        offset = rng.randrange(lines) * 64
        kind = "store" if interleave_stores(index, workload.load_store_ratio) else "load"
        yield (kind, offset)


def workload_ops(workload, n_ops, addresses=None):
    """``Workload.ops`` as it stood: a generator that unpacks each
    descriptor and builds its :class:`MemoryOp` in Python, over
    ``addresses`` (default ``workload.addresses(n_ops)``)."""
    if n_ops <= 0:
        raise SimulationError("n_ops must be positive")
    if addresses is None:
        addresses = workload.addresses(n_ops)
    produced = 0
    for descriptor in addresses:
        if produced >= n_ops:
            break
        if len(descriptor) == 2:
            kind, vaddr = descriptor
            retires = True
        else:
            kind, vaddr, retires = descriptor
        yield MemoryOp(kind, vaddr, retires=retires)
        produced += 1


# -- the multiplexer --------------------------------------------------------


class ReferenceMultiplexer:
    """``MultiplexingSimulator`` as it stood: one interval at a time,
    the schedule rebuilt and every draw taken per interval and per
    counter."""

    def __init__(self, n_physical=4, slices_per_interval=24, phase_noise=0.35, jitter=0.01, seed=0):
        self.n_physical = n_physical
        self.slices_per_interval = slices_per_interval
        self.phase_noise = phase_noise
        self.jitter = jitter
        self._rng = np.random.default_rng(seed)

    def schedule(self, n_counters):
        slices = self.slices_per_interval
        active = np.zeros((slices, n_counters), dtype=bool)
        if n_counters <= self.n_physical:
            active[:, :] = True
            return active
        cursor = 0
        for t in range(slices):
            for slot in range(self.n_physical):
                active[t, (cursor + slot) % n_counters] = True
            cursor = (cursor + self.n_physical) % n_counters
        return active

    def observe_interval(self, true_counts):
        true_counts = np.asarray(true_counts, dtype=float)
        n = true_counts.shape[0]
        slices = self.slices_per_interval
        active = self.schedule(n)

        weights = 1.0 + self.phase_noise * self._rng.standard_normal(slices)
        weights = np.clip(weights, 0.05, None)
        weights = weights / weights.sum()

        estimates = np.empty(n)
        for j in range(n):
            per_slice = true_counts[j] * weights
            if self.jitter > 0:
                per_slice = per_slice * (
                    1.0 + self.jitter * self._rng.standard_normal(slices)
                )
                per_slice = np.clip(per_slice, 0.0, None)
            active_mask = active[:, j]
            observed = float(per_slice[active_mask].sum())
            time_fraction = active_mask.sum() / slices
            if time_fraction == 0:
                estimates[j] = 0.0
            else:
                estimates[j] = observed / time_fraction
        return estimates

    def observe_run(self, true_interval_counts):
        matrix = np.asarray(true_interval_counts, dtype=float)
        if matrix.ndim != 2:
            raise ConfigurationError("true_interval_counts must be M x N")
        return np.stack([self.observe_interval(row) for row in matrix])
