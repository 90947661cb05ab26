"""Differential test: memoized µDD identity against a from-scratch walk.

:func:`~repro.cone.cache.mudd_fingerprint` and :attr:`MuDD.counters`
are memoized per instance, keyed by the µDD's mutation counter, name
and counter ordering; copies share the memo until either side changes.
This suite grows random µDDs from ``sim_fuzz.py``, applies random
sequences of ``add_node``, ``add_edge``, ``add_happens_before``,
renames, copies, changes to copies and pickle round trips, and after
every step checks each live µDD against
:func:`repro.cone.cache._fingerprint_walk` and a from-scratch counter
ordering. Fingerprints name the on-disk cone entries and key the
simulator's distribution memo, so the pins below were recorded before
the memo existed and must never move.

``SIM_EQUIV_SEED`` (CI rotates it daily) offsets the fuzz seed range,
as in ``test_sim_equivalence.py``.
"""

import copy
import os
import pickle
import random
import sys
import threading

import pytest

import repro.cone.cache as cone_cache
from repro.cone.cache import _fingerprint_walk, mudd_fingerprint
from repro.dsl import compile_dsl
from repro.errors import MuDDError
from repro.models import (
    ALL_COUNTERS,
    M_SERIES,
    build_haswell_mudd,
    bundled_model_names,
    bundled_model_source,
    load_bundled_model,
)
from repro.mudd import COUNTER, DECISION, END, EVENT
from repro.mudd.graph import _node_order_key
from sim_fuzz import observed_counters, random_mudd

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))

FUZZ_CASES = 60
STEPS = 30

# mudd_fingerprint(mudd) with the µDD's own counter ordering, and for
# the paper models also over ALL_COUNTERS (how their cones are keyed).
PINNED_BUNDLED = {
    "merging_load_side": "6652d5a013ef2856965717cadec1c20d8c779499d76a366ffb2268660a25f987",
    "no_merging_load_side": "321b87cbaf84ceacbf00a0b84abef8902cc239893a9d744c387c024c0e0399ea",
    "pde_initial": "bb4736fa9ddc945192ffaffd3c2bc24fd05905e34f90340d1cc6281e189d31c8",
    "pde_refined": "5dac8e7d6e09fe5cdee1d5c24d4b2ca04f67406eecd038568f75ff491a322dd0",
    "walk_refs_2m": "ec287cd4318685350dd6eb07e40a5950a07ac5c55e9930e350846bfd84439faa",
    "walk_refs_4k": "ec9ae410d7fb2176a5bc5f6a819736d87111f635b84fddb2e66cdd8edf38cc12",
}
PINNED_PAPER = {
    "m0": (
        "0ee38d1c447e21b4e0d18d2062cb280b8510aa8900466dfc0fd1b12fff5420be",
        "950453e2d055cc6cc64eaece8acf90a5a5b034a0f79643ec427c90e29ba9e8b9",
    ),
    "m4": (
        "a69e1cfa0ec6f22338da76583b2dae3861118e2e416babb64daca43dae98e5e2",
        "c96afb633f276f8d5983a4471523ba95489fe786239d5f5ac056a959149ef9eb",
    ),
    "m7": (
        "307c933557a287ecae080bebec004b2f768c1d27322cb0609aeb32e58c5f123f",
        "6e40948d9fa11a9a5de5ea2976a38fea746e50c262599736cb9bac293637d8bd",
    ),
}


def reference_labels(mudd, kind):
    """The pre-memo ``counters`` / ``properties`` walk."""
    seen = []
    for node_id in sorted(mudd.nodes, key=_node_order_key):
        node = mudd.nodes[node_id]
        if node.kind == kind and node.label not in seen:
            seen.append(node.label)
    return seen


def assert_identity(mudd, rng, context):
    counters = reference_labels(mudd, COUNTER)
    assert mudd.counters == counters, context
    assert mudd.properties == reference_labels(mudd, DECISION), context
    assert mudd_fingerprint(mudd) == _fingerprint_walk(mudd, counters), context
    order = rng.sample(counters, len(counters)) + ["unseen.counter"]
    assert mudd_fingerprint(mudd, order) == _fingerprint_walk(mudd, order), context


def _mutate(mudd, rng):
    """One random change made through the µDD's own methods."""
    action = rng.choice(("node", "edge", "branch", "happens_before", "rename"))
    nodes = sorted(mudd.nodes, key=_node_order_key)
    if action == "node":
        kind = rng.choice((EVENT, COUNTER, DECISION, END))
        label = None if kind == END else rng.choice(
            ("ctr.loads", "ctr.new", "ev.issue", "Hit", "Extra")
        )
        mudd.add_node(kind, label)
    elif action == "edge":
        open_nodes = [
            node_id for node_id in nodes
            if mudd.nodes[node_id].kind in (EVENT, COUNTER)
            and not mudd.out_edges(node_id)
        ]
        if not open_nodes:
            source = mudd.add_node(COUNTER, rng.choice(("ctr.loads", "ctr.new")))
        else:
            source = rng.choice(open_nodes)
        mudd.add_edge(source, rng.choice(nodes))
    elif action == "branch":
        decisions = [n for n in nodes if mudd.nodes[n].kind == DECISION]
        if decisions:
            source = rng.choice(decisions)
            taken = {edge.value for edge in mudd.out_edges(source)}
            value = "V%d" % len(taken)
            if value not in taken:
                mudd.add_edge(source, rng.choice(nodes), value=value)
    elif action == "happens_before":
        mudd.add_happens_before(rng.choice(nodes), rng.choice(nodes))
    else:
        mudd.name = rng.choice(("a", "b", "fuzz-%d" % rng.randint(0, 3)))


def test_memo_matches_the_walk_through_random_changes():
    for case in range(FUZZ_CASES):
        seed = BASE_SEED * 1000 + case
        rng = random.Random(seed)
        pool = [random_mudd(seed, node_budget=60)]
        context = "seed=%d (SIM_EQUIV_SEED=%d)" % (seed, BASE_SEED)
        for step in range(STEPS):
            index = rng.randrange(len(pool))
            roll = rng.random()
            if roll < 0.2:
                pool.append(pool[index].copy())
            elif roll < 0.3:
                pool[index] = pickle.loads(pickle.dumps(pool[index]))
            else:
                _mutate(pool[index], rng)
            for position, mudd in enumerate(pool):
                assert_identity(
                    mudd, rng, "%s step %d mudd %d" % (context, step, position)
                )


def test_changing_a_copy_leaks_to_neither_template_nor_siblings():
    for case in range(20):
        seed = BASE_SEED * 1000 + case
        template = random_mudd(seed, node_budget=60)
        first, second = template.copy(), template.copy()
        before = [(mudd_fingerprint(m), m.counters) for m in (template, second)]
        end = first.end_nodes()[0].node_id
        first.add_edge(first.add_node(COUNTER, "ctr.copy-only"), end)
        assert "ctr.copy-only" in first.counters
        assert mudd_fingerprint(first) != before[0][0]
        for mudd, (fingerprint, counters) in zip((template, second), before):
            assert mudd_fingerprint(mudd) == fingerprint
            assert mudd.counters == counters
            assert "ctr.copy-only" not in [n.label for n in mudd.nodes.values()]
        template.name = "renamed"
        assert mudd_fingerprint(second) == before[1][0]


def test_each_content_is_walked_once(monkeypatch):
    walks = []

    def counting_walk(mudd, counters):
        walks.append(mudd.name)
        return _fingerprint_walk(mudd, counters)

    monkeypatch.setattr(cone_cache, "_fingerprint_walk", counting_walk)
    mudd = random_mudd(BASE_SEED, node_budget=60)
    order = observed_counters(BASE_SEED, mudd)
    first = mudd_fingerprint(mudd)
    assert mudd_fingerprint(mudd) == first
    mudd_fingerprint(mudd, order)
    mudd_fingerprint(mudd, tuple(order))
    assert len(walks) == 2
    clone = mudd.copy()
    assert mudd_fingerprint(clone) == first and len(walks) == 2
    clone.add_node(EVENT, "ev.issue")
    assert mudd_fingerprint(clone) == first      # unreachable, uncounted
    assert len(walks) == 3
    assert mudd_fingerprint(mudd) == first and len(walks) == 3


def test_compile_dsl_hands_out_independent_copies():
    source = bundled_model_source("pde_refined")
    first = compile_dsl(source, name="pde_refined")
    second = compile_dsl(source, name="pde_refined")
    assert first is not second
    assert mudd_fingerprint(first) == PINNED_BUNDLED["pde_refined"]
    first.name = "changed"
    first.add_node(COUNTER, "ctr.extra")
    third = compile_dsl(source, name="pde_refined")
    assert mudd_fingerprint(third) == PINNED_BUNDLED["pde_refined"]
    assert mudd_fingerprint(second) == PINNED_BUNDLED["pde_refined"]
    assert "ctr.extra" not in third.counters


def test_threads_share_the_memos_without_a_wrong_answer(monkeypatch):
    # More threads than cores, a short switch interval and a memo cap
    # small enough that inserts keep evicting: a lost update or a torn
    # eviction would raise, or hand a thread another model's µDD.
    import repro.dsl.parser as dsl_parser

    monkeypatch.setattr(dsl_parser, "_COMPILED_CAP", 3)
    names = bundled_model_names()
    sources = {name: bundled_model_source(name) for name in names}
    errors = []

    def work(offset):
        try:
            for step in range(40):
                name = names[(offset + step) % len(names)]
                mudd = compile_dsl(sources[name], name=name)
                if step % 3 == 0:
                    mudd.add_node(COUNTER, "ctr.thread-%d" % offset)
                    assert mudd_fingerprint(mudd) == _fingerprint_walk(mudd, None)
                else:
                    assert mudd_fingerprint(mudd) == PINNED_BUNDLED[name]
        except Exception as error:       # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


@pytest.mark.parametrize("kind", ["node", "edge"])
def test_nodes_and_edges_are_immutable(kind):
    mudd = load_bundled_model("pde_initial")
    item = next(iter(mudd.nodes.values())) if kind == "node" else mudd.edges[0]
    attribute = "label" if kind == "node" else "target"
    with pytest.raises(MuDDError, match="immutable"):
        setattr(item, attribute, "x")
    with pytest.raises(MuDDError, match="immutable"):
        delattr(item, attribute)
    with pytest.raises(MuDDError, match="immutable"):
        item.extra = 1


def test_pickle_and_copy_round_trips_keep_the_fingerprint():
    for name in bundled_model_names():
        mudd = load_bundled_model(name)
        for clone in (
            pickle.loads(pickle.dumps(mudd)),
            copy.deepcopy(mudd),
            mudd.copy(),
        ):
            assert _fingerprint_walk(clone, None) == PINNED_BUNDLED[name]
            assert mudd_fingerprint(clone) == PINNED_BUNDLED[name]
            assert repr(clone.nodes) == repr(mudd.nodes)
            assert repr(clone.edges) == repr(mudd.edges)


@pytest.mark.parametrize("name", sorted(PINNED_BUNDLED))
def test_bundled_fingerprints_are_pinned(name):
    mudd = load_bundled_model(name)
    assert mudd_fingerprint(mudd) == PINNED_BUNDLED[name]
    assert _fingerprint_walk(mudd, None) == PINNED_BUNDLED[name]


@pytest.mark.parametrize("name", sorted(PINNED_PAPER))
def test_paper_model_fingerprints_are_pinned(name):
    mudd = build_haswell_mudd(M_SERIES[name])
    own, full = PINNED_PAPER[name]
    assert mudd_fingerprint(mudd) == own
    assert mudd_fingerprint(mudd, ALL_COUNTERS) == full


def test_a_bundled_name_and_its_source_fingerprint_apart():
    # The µDD name is hashed: DSL source compiles under "model".
    named = load_bundled_model("pde_initial")
    source = compile_dsl(bundled_model_source("pde_initial"))
    assert source.name == "model"
    assert mudd_fingerprint(named) != mudd_fingerprint(source)
    source.name = "pde_initial"
    assert mudd_fingerprint(source) == mudd_fingerprint(named)
