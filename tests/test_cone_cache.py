"""Tests for the content-addressed model-cone cache and its wiring.

Covers the canonical µDD fingerprint (id-allocation invariance), the
pinned :meth:`ModelCone.fingerprint` of paper models, the LRU behaviour
of :class:`ModelConeCache`, the process's bounded table of shared
caches and the :class:`CounterPoint` wiring to it, signature
multiplicity bookkeeping, and the batched feasibility entry point on
simulated traces.
"""

import gc
import weakref

import pytest

from repro.cone import ModelCone, ModelConeCache, mudd_fingerprint, shared_cache
from repro.cone.cache import MAX_SHARED_CACHES
from repro.errors import AnalysisError
from repro.models import (
    A_SERIES,
    ALL_COUNTERS,
    M_SERIES,
    T_SERIES,
    build_abort_mudd,
    build_haswell_mudd,
    build_trigger_mudd,
    load_bundled_model,
)
from repro.mudd import (
    Do,
    Incr,
    MuDD,
    Seq,
    Switch,
    compile_program,
    signature_matrix,
)
from repro.pipeline import CounterPoint


def pde_program():
    return Seq(
        [
            Do("issue"),
            Incr("causes_walk"),
            Switch("Pde$Status", {"hit": Seq([]), "miss": Incr("pde_miss")}),
        ]
    )


def build_pde(name="pde"):
    return compile_program(pde_program(), name=name)


def build_pde_shuffled_ids(name="pde"):
    """Same structure as :func:`build_pde`, different node-id allocation
    order — must produce the same fingerprint."""
    mudd = MuDD(name=name)
    end = mudd.add_node("end", node_id="z_end")
    miss = mudd.add_node("counter", "pde_miss", node_id="a_miss")
    walk = mudd.add_node("counter", "causes_walk", node_id="m_walk")
    decision = mudd.add_node("decision", "Pde$Status", node_id="k_dec")
    issue = mudd.add_node("event", "issue", node_id="b_issue")
    start = mudd.add_node("start", node_id="q_start")
    mudd.add_edge(start, issue)
    mudd.add_edge(issue, walk)
    mudd.add_edge(walk, decision)
    mudd.add_edge(decision, end, value="hit")
    mudd.add_edge(decision, miss, value="miss")
    mudd.add_edge(miss, end)
    mudd.validate()
    return mudd


class TestFingerprint:
    def test_deterministic(self):
        assert mudd_fingerprint(build_pde()) == mudd_fingerprint(build_pde())

    def test_id_allocation_invariant(self):
        # Same structure, different node-id allocation: identical under
        # an explicit counter ordering.
        counters = ["causes_walk", "pde_miss"]
        assert mudd_fingerprint(build_pde(), counters=counters) == mudd_fingerprint(
            build_pde_shuffled_ids(), counters=counters
        )

    def test_implicit_counter_order_folded_into_key(self):
        # With counters=None the µDD's own (id-order-dependent) counter
        # ordering becomes part of the key: structurally identical µDDs
        # whose implicit orderings disagree must not share an entry.
        a, b = build_pde(), build_pde_shuffled_ids()
        assert a.counters != b.counters
        assert mudd_fingerprint(a) != mudd_fingerprint(b)

    def test_structure_sensitive(self):
        other = compile_program(
            Seq([Do("issue"), Incr("causes_walk")]), name="pde"
        )
        assert mudd_fingerprint(build_pde()) != mudd_fingerprint(other)

    def test_counters_ordering_in_key(self):
        mudd = build_pde()
        assert mudd_fingerprint(mudd, counters=["a", "b"]) != mudd_fingerprint(
            mudd, counters=["b", "a"]
        )

    def test_rejects_non_mudd(self):
        with pytest.raises(AnalysisError):
            mudd_fingerprint("not a mudd")


# ModelCone.fingerprint() of paper models. The fingerprint hashes the
# counter order and the signature matrix's rows in order, and keys the
# verdict store's pages and reports, so a change to signature order or
# content must fail here rather than silently orphan every warm store.
PINNED_CONE_FINGERPRINTS = {
    "m0": "881f8aa608c02dc0ccbce8857c62bb43690510e5fce1ac3ca6dbc33aaaff1bc0",
    "m4": "12e0e4fb54e6261aa28652d42318e910c01a115da4696a38a393e44ac4f8f0e7",
    "m4+t8": "4fad86d43f2c6361045d100e6302ed78de15cca76a64d42df823e836db146914",
    "a0": "1e1da9175cc9b695624e2a9b64a2a297c21f3ba5b07e3ed80515b6b37e70150f",
    "pde_refined": "57964ade3b69e320fda73eb6e0e421d95db7195014bc910f1ac418345d7a8439",
}


def _pinned_cone(name):
    if name == "m4+t8":
        return ModelCone.from_mudd(
            build_trigger_mudd(T_SERIES["t8"]), counters=ALL_COUNTERS
        )
    if name in A_SERIES:
        return ModelCone.from_mudd(
            build_abort_mudd(A_SERIES[name]), counters=ALL_COUNTERS
        )
    if name in M_SERIES:
        return ModelCone.from_mudd(
            build_haswell_mudd(M_SERIES[name]), counters=ALL_COUNTERS
        )
    return ModelCone.from_mudd(load_bundled_model(name))


class TestPinnedFingerprints:
    @pytest.mark.parametrize("name", sorted(PINNED_CONE_FINGERPRINTS))
    def test_cone_fingerprint_is_pinned(self, name):
        assert _pinned_cone(name).fingerprint() == PINNED_CONE_FINGERPRINTS[name]


class TestModelConeCache:
    def test_hit_returns_same_object(self):
        cache = ModelConeCache()
        cone_a = cache.get(build_pde())
        cone_b = cache.get(build_pde())  # fresh object, same content
        assert cone_a is cone_b
        assert cache.hits == 1 and cache.misses == 1

    def test_hit_across_id_allocations_with_explicit_counters(self):
        cache = ModelConeCache()
        counters = ["causes_walk", "pde_miss"]
        cone_a = cache.get(build_pde(), counters=counters)
        cone_b = cache.get(build_pde_shuffled_ids(), counters=counters)
        assert cone_a is cone_b

    def test_no_collision_on_implicit_counter_order(self):
        cache = ModelConeCache()
        cone_a = cache.get(build_pde())
        cone_b = cache.get(build_pde_shuffled_ids())
        assert cone_a is not cone_b
        assert cone_a.counters != cone_b.counters

    def test_counters_partition_entries(self):
        cache = ModelConeCache()
        mudd = build_pde()
        cone_a = cache.get(mudd, counters=["causes_walk", "pde_miss"])
        cone_b = cache.get(mudd, counters=["pde_miss", "causes_walk"])
        assert cone_a is not cone_b
        assert cone_a.counters != cone_b.counters

    def test_lru_eviction(self):
        cache = ModelConeCache(maxsize=1)
        cache.get(build_pde(name="a"))
        cache.get(build_pde(name="b"))  # distinct name -> distinct key
        assert len(cache) == 1
        cache.get(build_pde(name="a"))
        assert cache.misses == 3  # "a" was evicted and rebuilt

    def test_clear(self):
        cache = ModelConeCache()
        cache.get(build_pde())
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_default_cache_shared(self):
        # Without a directory, shared_cache() is the process's one
        # memory-only cache.
        assert shared_cache() is shared_cache(None)
        assert shared_cache().disk is None
        assert shared_cache().get(build_pde()) is shared_cache().get(build_pde())

    def test_shared_caches_are_bounded(self, tmp_path):
        # Opening more directories than the bound keeps at most the
        # bound alive; the most recently opened are the ones kept.
        opened = [
            weakref.ref(shared_cache(tmp_path / str(index)))
            for index in range(MAX_SHARED_CACHES + 3)
        ]
        gc.collect()
        alive = [ref() for ref in opened if ref() is not None]
        assert len(alive) <= MAX_SHARED_CACHES
        assert opened[-1]() is shared_cache(tmp_path / str(MAX_SHARED_CACHES + 2))
        assert opened[0]() is None

    def test_invalid_maxsize(self):
        with pytest.raises(AnalysisError):
            ModelConeCache(maxsize=0)


class TestCounterPointCaching:
    def test_analyze_reuses_cone_and_constraints(self):
        cp = CounterPoint()
        cone_a = cp.model_cone(build_pde())
        cone_b = cp.model_cone(build_pde())
        assert cone_a is cone_b
        # An infeasible analyze deduces the cone's constraints (for its
        # violation list), and the shared cone keeps them.
        report = cp.analyze(build_pde(), {"causes_walk": 1, "pde_miss": 2})
        assert not report.feasible and report.violations
        assert cp.model_cone(build_pde()).has_deduced_constraints()

    def test_shared_cache_instance(self):
        # Pipelines without a cache_dir share the memory-only cache.
        assert CounterPoint().cone_cache is shared_cache()
        assert CounterPoint().model_cone(build_pde()) is CounterPoint().model_cone(
            build_pde()
        )

    def test_model_cone_counters_override(self):
        cp = CounterPoint()
        cone = cp.model_cone(build_pde(), counters=["pde_miss", "causes_walk"])
        assert cone.counters == ["pde_miss", "causes_walk"]


class TestSignatureMultiplicity:
    def test_multiplicities_count_collapsed_paths(self):
        # Two independent decisions that do not touch counters: 4 µpaths
        # collapse onto 2 signatures with multiplicity 2 each.
        program = Seq(
            [
                Switch("P", {"a": Seq([]), "b": Seq([])}),
                Switch("Q", {"x": Seq([]), "y": Incr("c")}),
            ]
        )
        mudd = compile_program(program)
        counters, signatures, multiplicities = signature_matrix(
            mudd, with_multiplicity=True
        )
        assert sorted(zip(map(tuple, signatures.tolist()), multiplicities)) == [
            ((0,), 2), ((1,), 2)
        ]

    def test_model_cone_records_multiplicities(self):
        cone = ModelCone.from_mudd(build_pde())
        assert cone.multiplicities is not None
        assert len(cone.multiplicities) == len(cone.signatures)
        assert all(count >= 1 for count in cone.multiplicities)

    def test_multiplicity_length_validated(self):
        with pytest.raises(AnalysisError):
            ModelCone(["a"], [(1,)], multiplicities=[1, 2])


class TestBatchFeasibilityWiring:
    def test_batch_results_feasible_for_own_model(self):
        from repro.sim import batch_simulate

        mudd = build_pde()
        result = batch_simulate(mudd, 500, n_traces=4, seed=7)
        cone = ModelCone.from_mudd(mudd)
        verdicts = result.feasibility(cone)
        assert len(verdicts) == 4
        assert all(v.feasible for v in verdicts)

    def test_batch_refuted_against_disagreeing_model(self):
        from repro.sim import batch_simulate

        generous = build_pde()
        stingy = compile_program(
            Seq([Do("issue"), Incr("causes_walk")]), name="no_miss"
        )
        result = batch_simulate(generous, 500, n_traces=3, seed=11)
        cone = ModelCone.from_mudd(
            stingy, counters=["causes_walk", "pde_miss"]
        )
        verdicts = result.feasibility(cone)
        assert all(not v.feasible for v in verdicts)
