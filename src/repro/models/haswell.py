"""µDD builders for the Haswell MMU case study.

One master builder (:func:`build_mudd`) constructs every model family in
the paper from three ingredients:

* a **feature set** (Table 4): TLB prefetching, early PSC probing, walk
  merging, PML4E cache, walk bypassing;
* an optional **trigger specification** (Table 6): attaches translation
  prefetches to their triggering µop paths instead of modelling them as
  a free-standing request type;
* optional **abort points** (Table 7): translation requests may abort at
  chosen pipeline stages.

Modelling notes
---------------
* Microarchitectural properties are path attributes: ``PageSize`` is
  decided at the top of a translation request even though hardware only
  learns it during the walk — a µpath is labelled by its eventual
  outcome, which keeps signature generation exact.
* PSC status properties are *shared* between the probe and the walk
  body (``Pde$Status`` etc.), so path enumeration automatically keeps
  "probe missed" consistent with "walk starts at the level the probe
  provided" — the paper's tightness argument in action.
* A walker's loads are emitted as a *multiset* choice over cache levels
  (``RefMix3: l1_l1_mem``, ...). This produces exactly the same counter
  signatures as letting each load choose its level independently, with
  combinatorially fewer raw µpaths.
* The PDE cache caches only pointers-to-page-table entries, so 2 MB and
  1 GB translations increment ``pde$_miss`` unconditionally (Table 1,
  Constraint 2's subtlety).
"""

from itertools import combinations_with_replacement

from repro.cone import shared_cache
from repro.counters.events import HASWELL_MMU_EVENTS
from repro.errors import ConfigurationError
from repro.mudd import Do, Done, Incr, Pass, Seq, Switch, compile_program
from repro.models.features import (
    EARLY_PSC,
    FEATURES,
    MERGING,
    PML4E_CACHE,
    TLB_PF,
    WALK_BYPASS,
)

ALL_COUNTERS = [event.name for event in HASWELL_MMU_EVENTS]

REF_LEVELS = ("l1", "l2", "l3", "mem")

PAGE_SIZES = ("4k", "2m", "1g")

# Full walk depth per page size (see repro.mmu.config.PageSize).
_FULL_REFS = {"4k": 4, "2m": 3, "1g": 2}

ABORT_DURING_WALK = "during_walk"
ABORT_AFTER_PSC = "after_psc"
ABORT_AFTER_L2TLB = "after_l2tlb"
ABORT_AFTER_L1TLB = "after_l1tlb"

ABORT_POINTS = (
    ABORT_DURING_WALK,
    ABORT_AFTER_PSC,
    ABORT_AFTER_L2TLB,
    ABORT_AFTER_L1TLB,
)


def _refs_multiset(count, prefix):
    """Emit ``count`` walker loads, choosing the serving-level multiset."""
    if count == 0:
        return Pass()
    branches = {}
    for combo in combinations_with_replacement(REF_LEVELS, count):
        label = "_".join(combo)
        branches[label] = Seq([Incr("walk_ref.%s" % level) for level in combo])
    return Switch("%sRefMix%d" % (prefix, count), branches)


def _retire(t, stlb_missed):
    """Retirement bookkeeping: speculative µops increment nothing."""
    retired = [Incr("%s.ret" % t)]
    if stlb_missed:
        retired.append(Incr("%s.ret_stlb_miss" % t))
    return Switch("Retires", {"Yes": Seq(retired), "No": Pass()})


def _pde_probe(t, size, prefix=""):
    """The PDE-cache probe. Only 4K translations can hit (the PDE cache
    holds pointers to page tables, and 2M/1G leaves live higher up)."""
    if size == "4k":
        return Switch(
            "%sPde$Status" % prefix,
            {"Hit": Pass(), "Miss": Incr("%s.pde$_miss" % t)},
        )
    return Incr("%s.pde$_miss" % t)


def _walk_refs(size, features, prefix=""):
    """Walker loads as a function of which PSC supplied the entry point.

    Reuses the (possibly already assigned) PSC status properties so the
    refs are consistent with the probe outcome on the same path.
    """
    pml4e_present = PML4E_CACHE in features

    def deepest(refs_if_hit):
        if pml4e_present:
            return Switch(
                "%sPml4e$Status" % prefix,
                {
                    "Hit": _refs_multiset(refs_if_hit, prefix),
                    "Miss": _refs_multiset(refs_if_hit + 1, prefix),
                },
            )
        return _refs_multiset(refs_if_hit + 1, prefix)

    if size == "4k":
        return Switch(
            "%sPde$Status" % prefix,
            {
                "Hit": _refs_multiset(1, prefix),
                "Miss": Switch(
                    "%sPdpte$Status" % prefix,
                    {"Hit": _refs_multiset(2, prefix), "Miss": deepest(3)},
                ),
            },
        )
    if size == "2m":
        return Switch(
            "%sPdpte$Status" % prefix,
            {"Hit": _refs_multiset(1, prefix), "Miss": deepest(2)},
        )
    # 1g: only the root cache can shorten the two-load walk.
    return deepest(1)


def _abort_refs(size, prefix="Ab"):
    """A walk aborted mid-flight may have issued any number of loads up
    to a full walk (the most generous abort model)."""
    branches = {"0": Pass()}
    for count in range(1, _FULL_REFS[size] + 1):
        branches[str(count)] = _refs_multiset(count, prefix)
    return Switch("%sRefCount%s" % (prefix, size), branches)


def _prefetch_body(features, prefix="Pf"):
    """A translation prefetch resolved by the page table walker.

    Probes the PSCs (PDE misses attributed to loads), injects real
    walker loads; whether it then aborts on an unset accessed bit or
    completes is invisible to the Table 2 counters, so both outcomes
    share each signature. Never increments causes_walk/walk_done.
    """
    branches = {}
    for size in PAGE_SIZES:
        branches[size] = Seq(
            [
                _pde_probe("load", size, prefix=prefix),
                Do("PrefetchWalk"),
                _walk_refs(size, features, prefix=prefix),
            ]
        )
    return Switch("%sPageSize" % prefix, branches)


def _translation_request(t, size, features, aborts):
    """STLB-missing demand translation for one page size."""
    statements = []

    if ABORT_AFTER_L2TLB in aborts:
        statements.append(Switch("ReqAbortL2", {"Yes": Done(), "No": Pass()}))

    merged_exit = Seq([_retire(t, stlb_missed=True), Done()])
    if EARLY_PSC in features:
        # The paper's pipelining discovery: the PDE cache is probed
        # before MSHR allocation, so merged requests probe it too.
        statements.append(_pde_probe(t, size))
        if MERGING in features:
            statements.append(Switch("Merged", {"Yes": merged_exit, "No": Pass()}))
    else:
        if MERGING in features:
            statements.append(Switch("Merged", {"Yes": merged_exit, "No": Pass()}))
        statements.append(_pde_probe(t, size))

    if ABORT_AFTER_PSC in aborts:
        statements.append(Switch("ReqAbortPsc", {"Yes": Done(), "No": Pass()}))

    statements.append(Incr("%s.causes_walk" % t))
    statements.append(Do("StartWalk"))

    if ABORT_DURING_WALK in aborts:
        statements.append(
            Switch(
                "WalkAborted",
                {"Yes": Seq([_abort_refs(size), Done()]), "No": Pass()},
            )
        )

    if WALK_BYPASS in features:
        statements.append(
            Switch(
                "WalkReplayed",
                {"Yes": Pass(), "No": _walk_refs(size, features)},
            )
        )
    else:
        statements.append(_walk_refs(size, features))

    statements.append(Incr("%s.walk_done_%s" % (t, size)))
    statements.append(Incr("%s.walk_done" % t))
    statements.append(_retire(t, stlb_missed=True))
    statements.append(Done())
    return Seq(statements)


def _uop_program(t, features, aborts, attach=None):
    """The full µop pipeline for access type ``t``.

    ``attach`` optionally maps attachment points (``"pre_tlb"``,
    ``"dtlb_miss"``, ``"stlb_miss"``) to a prefetch-emission statement
    (the t-series trigger models).
    """
    attach = attach or {}

    stlb_miss_body = Switch(
        "PageSize",
        {size: _translation_request(t, size, features, aborts) for size in PAGE_SIZES},
    )
    if ABORT_AFTER_L1TLB in aborts:
        stlb_miss_body = Seq(
            [Switch("ReqAbortL1", {"Yes": Done(), "No": Pass()}), stlb_miss_body]
        )
    if "stlb_miss" in attach:
        stlb_miss_body = Seq([attach["stlb_miss"], stlb_miss_body])

    def stlb_hit(size):
        return Seq(
            [
                Incr("%s.stlb_hit_%s" % (t, size)),
                Incr("%s.stlb_hit" % t),
                _retire(t, stlb_missed=False),
                Done(),
            ]
        )

    miss_side = Switch(
        "StlbStatus",
        {"Hit4k": stlb_hit("4k"), "Hit2m": stlb_hit("2m"), "Miss": stlb_miss_body},
    )
    if "dtlb_miss" in attach:
        miss_side = Seq([attach["dtlb_miss"], miss_side])

    program = Switch(
        "L1TlbStatus",
        {
            "Hit": Seq([_retire(t, stlb_missed=False), Done()]),
            "Miss": miss_side,
        },
    )
    if "pre_tlb" in attach:
        program = Seq([attach["pre_tlb"], program])
    return program


def _prefetch_attachment(features, require_retire):
    """Optional prefetch emission on a µop path (t-series models).

    ``require_retire`` pins the µop's ``Retires`` property to ``Yes`` on
    prefetch-carrying paths — the non-speculative trigger restriction.
    """
    body = _prefetch_body(features)
    if require_retire:
        body = Switch("Retires", {"Yes": body})
    return Switch("PfIssued", {"No": Pass(), "Yes": body})


def build_mudd(features, trigger=None, aborts=(), name=None):
    """Master builder for Haswell MMU µDDs.

    Parameters
    ----------
    features:
        Iterable of feature flags (see :mod:`repro.models.features`).
    trigger:
        ``None`` — with :data:`TLB_PF` this models prefetches as a
        free-standing translation-request type (the m-series abstraction).
        A :class:`repro.models.prefetch_triggers.TriggerSpec` instead
        attaches prefetch emission to its triggering µop paths.
    aborts:
        Abort points (see :data:`ABORT_POINTS`).
    """
    features = frozenset(features)
    unknown = features - set(FEATURES)
    if unknown:
        raise ConfigurationError("unknown features: %s" % ", ".join(sorted(unknown)))
    for point in aborts:
        if point not in ABORT_POINTS:
            raise ConfigurationError("unknown abort point %r" % (point,))
    if trigger is not None and TLB_PF not in features:
        raise ConfigurationError("a trigger spec requires the TlbPf feature")

    attach_by_type = {"load": {}, "store": {}}
    if trigger is not None:
        point = "pre_tlb"
        if trigger.dtlb_miss:
            point = "dtlb_miss"
        if trigger.stlb_miss:
            point = "stlb_miss"
        statement_types = []
        if trigger.load:
            statement_types.append("load")
        if trigger.store:
            statement_types.append("store")
        for t in statement_types:
            attach_by_type[t][point] = _prefetch_attachment(
                features, require_retire=not trigger.speculative
            )

    branches = {
        "Load": _uop_program("load", features, aborts, attach=attach_by_type["load"]),
        "Store": _uop_program("store", features, aborts, attach=attach_by_type["store"]),
    }
    if TLB_PF in features and trigger is None:
        branches["TlbPrefetch"] = Seq([_prefetch_body(features), Done()])

    program = Switch("UopType", branches)
    if name is None:
        name = "haswell[%s]" % ",".join(sorted(features))
    return compile_program(program, name=name)


def build_haswell_mudd(features, name=None):
    """An m-series µDD (Table 3) for the given feature set."""
    return build_mudd(features, name=name)


def build_model_cone(features, trigger=None, aborts=(), name=None):
    """The :class:`~repro.cone.ModelCone` of a Haswell µDD over the
    full 26-counter space, from the process's memory-only cone cache
    (:func:`repro.cone.cache.shared_cache`). The µDD's name is part of
    its content key, so a named call never returns a cone built earlier
    under another name."""
    mudd = build_mudd(features, trigger=trigger, aborts=aborts, name=name)
    return shared_cache().get(mudd, counters=ALL_COUNTERS)
