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
  ``Pde$Status``, ``Merged``, ``RefMix<n>``, ``WalkReplayed``, ...) on
  the devices of one :class:`~repro.mmu.core.MMUSimulator`, reachable
  as ``oracle.mmu`` — its TLB arrays, paging-structure caches,
  synthetic page table, data-cache hierarchy, LSQ prefetch-trigger
  detector, walk plans and MSHR queue — so executing a µDD over an
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
from repro.mmu.core import MMUSimulator
from repro.mmu.paging import ENTRY_BYTES

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
    """Resolves the Haswell model vocabulary on a live MMU.

    The oracle drives one :class:`repro.mmu.core.MMUSimulator`,
    reachable as ``oracle.mmu``. It answers every device question from
    that simulator's TLB arrays, PSCs, page table, cache hierarchy,
    prefetch trigger, walk plans and MSHR queue, and ticks it once per
    µop, but never calls its ``access`` and reads none of its counters:
    the executed µDD decides what increments. Device side effects are
    keyed off the resolutions themselves plus the conventional event
    names the model library emits (``StartWalk`` holds a walk in an
    MSHR; ``PrefetchWalk`` resolves a prefetch against the accessed
    bit).

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
    cache_hierarchy:
        Optional pre-built :class:`~repro.cache.CacheHierarchy` for
        walker loads.
    """

    def __init__(self, config=None, page_size=PageSize.SIZE_4K, cache_hierarchy=None, fallback=None):
        self.mmu = MMUSimulator(config, page_size=page_size, cache_hierarchy=cache_hierarchy)
        self.config = self.mmu.config
        self.page_size = self.mmu.page_size
        self.fallback = fallback or RandomOracle(seed=self.config.seed)
        # The PSC each status property probes.
        self._pscs = {
            "Pde$Status": self.mmu.pde_cache,
            "Pdpte$Status": self.mmu.pdpte_cache,
            "Pml4e$Status": self.mmu.pml4e_cache,
        }

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
        """An oracle whose device set matches a Table 3 feature set
        (:meth:`MMUConfig.for_features`), so m-series µDDs execute
        against matching hardware."""
        return cls(MMUConfig.for_features(features, **overrides), page_size=page_size)

    # -- per-µop bookkeeping ------------------------------------------------
    def begin_uop(self, op):
        mmu = self.mmu
        mmu.tick += 1
        if mmu._outstanding:
            mmu._complete_due_walks()
        self._op = op
        self._probe_memo = {}
        self._triggered = None
        self._pf_inline = False
        if isinstance(op, PrefetchUop):
            self._vpn = op.target_vpn
            return
        self._vpn = mmu.page_table.vpn(op.vaddr)
        if op.kind == "load" and self.config.prefetcher:
            target_vpn = mmu.prefetch_trigger.observe(op.vaddr, mmu.page_table.page_bytes)
            if target_vpn is not None and not mmu._translated(target_vpn):
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
        mmu = self.mmu
        if prop == "UopType":
            self._standalone_prefetch = "TlbPrefetch" in values
            if isinstance(self._op, PrefetchUop):
                return "TlbPrefetch"
            return "Load" if self._op.kind == "load" else "Store"
        if prop == "L1TlbStatus":
            if mmu._l1.lookup(self._vpn):
                mmu.page_table.set_accessed(self._vpn)
                return "Hit"
            return "Miss"
        if prop == "StlbStatus":
            if mmu.stlb.lookup(self._vpn, self.page_size):
                mmu._l1.insert(self._vpn)
                mmu.page_table.set_accessed(self._vpn)
                return "Hit4k" if self.page_size == PageSize.SIZE_4K else "Hit2m"
            return "Miss"
        if base == "PageSize":
            return self.page_size
        if prop == "Merged":
            merged = self.config.merging and self._vpn in mmu._outstanding
            return "Yes" if merged else "No"
        if base in self._pscs:
            return self._probe(base, pf_context)
        if prop == "Retires":
            return "Yes" if isinstance(self._op, PrefetchUop) or self._op.retires else "No"
        if prop == "WalkReplayed":
            replayed = self.config.walk_replay and not mmu.page_table.is_accessed(self._vpn)
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
            # Hold the µop's walk in an MSHR until walk_latency_ops µops
            # later, when it fills both TLB levels and sets the leaf
            # accessed bit. A page already in flight keeps its walk, and
            # a prefetch µop's walk resolves at PrefetchWalk.
            if not isinstance(self._op, PrefetchUop) and self._vpn not in self.mmu._outstanding:
                self.mmu._enqueue_walk(self._vpn, self._op.kind)
        elif name == "PrefetchWalk":
            # Fill both TLB levels, or abort silently when the target's
            # accessed bit is unset (the Section 7.1 behaviour).
            vpn = self._vpn if self._triggered is None else self._triggered
            if self.mmu.page_table.is_accessed(vpn):
                self.mmu._l1.insert(vpn)
                self.mmu.stlb.insert(vpn, self.page_size)

    # -- device mechanics ----------------------------------------------------
    def _vaddr(self, pf_context=False):
        page_bytes = self.mmu.page_table.page_bytes
        if isinstance(self._op, PrefetchUop):
            return self._op.target_vpn * page_bytes
        if pf_context and self._triggered is not None:
            # Inline (trigger-model) prefetch: Pf-prefixed properties
            # describe the *target* page's walk, not the µop's own.
            return self._triggered * page_bytes
        return self._op.vaddr

    def _probe(self, prop, pf_context=False):
        """Probe one PSC at most once per µop and context (memoised so a
        model that shares the status property between probe and walk
        body sees one consistent outcome)."""
        memo_key = (prop, pf_context)
        if memo_key not in self._probe_memo:
            hit = self._pscs[prop].lookup(self._vaddr(pf_context), self.page_size)
            self._probe_memo[memo_key] = "Hit" if hit else "Miss"
        return self._probe_memo[memo_key]

    def _resolve_refmix(self, count, pf_context=False):
        """Perform the deepest ``count`` loads of a full walk (the last
        ``count`` references of its walk plan, filling PSCs as the
        walker does) and report the serving-level multiset."""
        plan = self.mmu._walk_plans[None]
        if count > len(plan):
            raise SimulationError(
                "model requests %d walker loads but a %s walk reads at most %d"
                % (count, self.page_size, len(plan))
            )
        vaddr = self._vaddr(pf_context)
        access = self.mmu.caches.access
        served = []
        for shift, base, psc in plan[len(plan) - count :]:
            served.append(access(base + (vaddr >> shift) * ENTRY_BYTES))
            if psc is not None:
                psc.insert(vaddr)
        served.sort(key=CacheHierarchy.SERVING_LEVELS.index)
        return "_".join(served)

    def __repr__(self):
        return "MMUOracle(%r, page_size=%s, tick=%d)" % (
            self.config,
            self.page_size,
            self.mmu.tick,
        )
