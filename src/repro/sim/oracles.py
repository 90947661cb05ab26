"""Oracles: pluggable resolvers for µDD ``switch`` outcomes.

The :class:`~repro.sim.executor.MuDDExecutor` is policy-free — when a
µop's path reaches a decision node it asks an oracle which branch the
hardware would take. Three families are provided:

* :class:`RandomOracle` — seeded stochastic choice with optional
  per-property branch weights. This is the synthetic-scenario generator:
  any µDD becomes a counter-observation sampler without modelling a
  device. Its semantics (independent choice per fresh property per µop)
  are exactly what :mod:`repro.sim.batch` vectorises.
* :class:`TableOracle` — fixed property → value (or callable) mapping
  for scripted, fully deterministic runs.
* :class:`MMUOracle` — the closed-loop device oracle: resolves the
  Haswell model vocabulary (``L1TlbStatus``, ``StlbStatus``,
  ``Pde$Status``, ``Merged``, ``RefMix<n>``, ``WalkReplayed``, ...)
  against live :mod:`repro.mmu` components — real TLB arrays, paging
  structure caches, the synthetic page table, the data-cache hierarchy
  and the LSQ prefetch-trigger detector — so executing a µDD over an
  address trace produces counter totals shaped by genuine locality.

Every oracle implements ``resolve(prop, values, op)`` where ``values``
is the list of branch labels the model offers (in edge order). Oracles
may also implement ``begin_uop(op)`` (per-µop device bookkeeping),
``on_event(name, op)`` (EVENT-node side effects such as ``StartWalk``)
and ``pending_uops()`` (injecting extra µops, e.g. translation
prefetches). The executor interprets every run, so these four methods
are the whole interface: an oracle is called, never compiled.
"""

import random
import re

from repro.cache import CacheHierarchy
from repro.errors import SimulationError
from repro.mmu.config import MMUConfig, PageSize
from repro.mmu.paging import PageTable, PagingStructureCache
from repro.mmu.prefetcher import PrefetchTrigger
from repro.mmu.tlb import L1DTLB, STLB

# Serving-level order used by the RefMix multiset labels
# (matches repro.models.haswell.REF_LEVELS).
_REF_LEVEL_ORDER = {"l1": 0, "l2": 1, "l3": 2, "mem": 3}

_REFMIX_RE = re.compile(r"^(?P<prefix>[A-Za-z]*?)RefMix(?P<count>\d+)$")


class Oracle:
    """Base class; subclasses implement :meth:`resolve`."""

    def begin_uop(self, op):
        """Per-µop bookkeeping before the walk starts (optional)."""

    def resolve(self, prop, values, op):
        """Choose one of ``values`` for property ``prop`` on µop ``op``."""
        raise NotImplementedError

    def pending_uops(self):
        """µops the device wants injected after the current one."""
        return []


class RandomOracle(Oracle):
    """Seeded stochastic branch choice.

    Parameters
    ----------
    seed:
        RNG seed; identical seeds replay identical decision streams.
    weights:
        Optional ``{property: {value: weight}}``. Weights are
        renormalised over the branch values the model actually offers;
        values without a weight default to 1. Properties not listed are
        uniform.
    """

    def __init__(self, seed=0, weights=None):
        self._rng = random.Random(seed)
        self.weights = dict(weights or {})

    def resolve(self, prop, values, op):
        # Sort for reproducibility independent of model edge order.
        candidates = sorted(values)
        table = self.weights.get(prop)
        if not table:
            return candidates[self._rng.randrange(len(candidates))]
        branch_weights = [float(table.get(value, 1.0)) for value in candidates]
        total = sum(branch_weights)
        if total <= 0:
            raise SimulationError(
                "weights for property %r sum to zero over branches %s"
                % (prop, ", ".join(candidates))
            )
        pick = self._rng.random() * total
        for value, weight in zip(candidates, branch_weights):
            pick -= weight
            if pick < 0:
                return value
        return candidates[-1]


class TableOracle(Oracle):
    """Fixed property → value mapping (values may be callables).

    A callable entry receives ``(op, values)`` and returns the branch
    label — enough to script per-µop behaviour without a device model.
    Unknown properties go to ``fallback`` (default: error).
    """

    def __init__(self, mapping, fallback=None):
        self.mapping = dict(mapping)
        self.fallback = fallback

    def resolve(self, prop, values, op):
        if prop in self.mapping:
            entry = self.mapping[prop]
            return entry(op, values) if callable(entry) else entry
        if self.fallback is not None:
            return self.fallback.resolve(prop, values, op)
        raise SimulationError(
            "TableOracle has no entry for property %r (branches: %s)"
            % (prop, ", ".join(values))
        )


class PrefetchUop:
    """A translation prefetch injected by the MMU oracle's trigger
    detector — executed as its own µDD walk (``UopType = TlbPrefetch``)."""

    __slots__ = ("target_vpn",)

    def __init__(self, target_vpn):
        self.target_vpn = target_vpn

    def __repr__(self):
        return "PrefetchUop(vpn=0x%x)" % (self.target_vpn,)


class MMUOracle(Oracle):
    """Resolves the Haswell model vocabulary against live MMU devices.

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
        return "MMUOracle(%r, page_size=%s, tick=%d)" % (
            self.config,
            self.page_size,
            self.tick,
        )
