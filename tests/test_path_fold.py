"""Differential test: the memoized µpath fold against the reference walk.

:func:`~repro.mudd.paths.signature_matrix` folds the µDD DAG;
:func:`~repro.mudd.paths.enumerate_mupaths` walks every µpath
depth-first. Deduplicated in walk order, with multiplicities counted,
the walk must reproduce the fold's output exactly: the same signatures,
in the same order, with the same multiplicities. The order matters
because :meth:`ModelCone.fingerprint` hashes it, and that fingerprint
keys the verdict store and the cone caches.

``SIM_EQUIV_SEED`` (CI rotates it daily) offsets the fuzz seed range,
as in ``test_sim_equivalence.py``, so the sweep covers new µDDs over
time while any failure stays reproducible from its seed.
"""

import os
import random
import time

import pytest

from repro.cone import ModelCone
from repro.errors import MuDDError
from repro.models import (
    A_SERIES,
    ALL_COUNTERS,
    M_SERIES,
    T_SERIES,
    build_abort_mudd,
    build_haswell_mudd,
    build_replay_mudd,
    build_trigger_mudd,
    bundled_model_names,
    load_bundled_model,
)
from repro.mudd import (
    DECISION,
    END,
    START,
    Incr,
    MuDD,
    Pass,
    Seq,
    Switch,
    compile_program,
    enumerate_mupaths,
    signature_matrix,
)
from sim_fuzz import observed_counters, random_mudd

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))

FUZZ_CASES = 240


def reference(paths, counters):
    """``(counters, signatures, multiplicities)`` of the walk's ``paths``,
    deduplicated in first-occurrence order. A counter name that appears
    twice in ``counters`` counts in its last position only."""
    index = {name: position for position, name in enumerate(counters)}
    multiplicity = {}
    for path in paths:
        signature = [0] * len(counters)
        for name, count in path.counter_counts.items():
            if name in index:
                signature[index[name]] = count
        signature = tuple(signature)
        multiplicity[signature] = multiplicity.get(signature, 0) + 1
    return list(counters), list(multiplicity), list(multiplicity.values())


def assert_matches_reference(mudd, orders=(None,), context=""):
    """The fold equals the walk under each counter order (None: the
    µDD's own counters)."""
    paths = enumerate_mupaths(mudd, max_paths=2000000)
    for counters in orders:
        fold = signature_matrix(mudd, counters=counters, with_multiplicity=True)
        walk = reference(paths, mudd.counters if counters is None else counters)
        assert fold[0] == walk[0], context
        assert list(map(tuple, fold[1].tolist())) == walk[1], \
            "signature order differs: %s" % context
        assert fold[2] == walk[2], "multiplicities differ: %s" % context


def _model(name):
    if name in M_SERIES:
        return build_haswell_mudd(M_SERIES[name])
    if name in T_SERIES:
        return build_trigger_mudd(T_SERIES[name])
    if name in A_SERIES:
        return build_abort_mudd(A_SERIES[name])
    if name == "replay":
        return build_replay_mudd()
    return load_bundled_model(name)


MODELS = (
    list(M_SERIES) + list(A_SERIES) + ["replay", "t0", "t8", "t17"]
    + bundled_model_names()
)


@pytest.mark.parametrize("name", MODELS)
def test_paper_models_match_the_walk(name):
    orders = (None,) if name in bundled_model_names() else (None, ALL_COUNTERS)
    assert_matches_reference(_model(name), orders, context=name)


def _fuzz_counters(seed, mudd):
    """A counter order that omits some of the µDD's counters, adds names
    the µDD never increments, and repeats a name."""
    rng = random.Random(seed ^ 0xF01D)
    names = observed_counters(seed, mudd)
    names.insert(rng.randint(0, len(names)), "ctr.absent")
    names.insert(rng.randint(0, len(names)), rng.choice(names))
    names.append("ctr.never")
    return names


def test_fuzz_models_match_the_walk():
    """≥200 random µDDs, each under its own counters and a mangled order."""
    for case in range(FUZZ_CASES):
        seed = BASE_SEED + case
        mudd = random_mudd(seed)
        context = "seed=%d (SIM_EQUIV_SEED=%d)" % (seed, BASE_SEED)
        orders = (None, _fuzz_counters(seed, mudd))
        assert_matches_reference(mudd, orders, context=context)


def _errors(call_fold, call_walk):
    with pytest.raises(MuDDError) as fold:
        call_fold()
    with pytest.raises(MuDDError) as walk:
        call_walk()
    return str(fold.value), str(walk.value)


def test_missing_branch_error_matches_the_walk():
    # P is free at the first decision; the second has no branch for "b".
    mudd = MuDD("dead-end")
    start, end = mudd.add_node(START), mudd.add_node(END)
    first = mudd.add_node(DECISION, "P")
    second = mudd.add_node(DECISION, "P")
    mudd.add_edge(start, first)
    mudd.add_edge(first, second, value="a")
    mudd.add_edge(first, second, value="b")
    mudd.add_edge(second, end, value="a")
    fold, walk = _errors(
        lambda: signature_matrix(mudd), lambda: enumerate_mupaths(mudd)
    )
    assert fold == walk == "decision 'P' has no branch for value 'b' assigned earlier"


def test_max_paths_error_matches_the_walk():
    mudd = build_haswell_mudd(M_SERIES["m0"])
    fold, walk = _errors(
        lambda: signature_matrix(mudd, counters=ALL_COUNTERS, max_paths=100),
        lambda: enumerate_mupaths(mudd, max_paths=100),
    )
    assert fold == walk == "µDD has more than 100 µpaths"
    # The bound is exact: m0 has 344 raw µpaths.
    assert sum(signature_matrix(mudd, max_paths=344, with_multiplicity=True)[2]) == 344
    with pytest.raises(MuDDError):
        signature_matrix(mudd, max_paths=343)


def test_non_mudd_error_matches_the_walk():
    fold, walk = _errors(
        lambda: signature_matrix("nope", ["a"]), lambda: enumerate_mupaths("nope")
    )
    assert fold == walk.replace("enumerate_mupaths", "signature_matrix")


def test_max_paths_error_comes_before_a_later_dead_end():
    # 1500 µpaths through one node, which has no branch for the value the
    # walk reaches last. The walk stops at its 1001st path; the fold must
    # stop there too (1001 states at one node), not run on to the dead end.
    values = ["v%d" % i for i in range(1500)]
    mudd = compile_program(
        Seq([
            Switch("P", {value: Pass() for value in values}),
            Switch("P", {value: Pass() for value in values[1:]}),
        ])
    )
    fold, walk = _errors(
        lambda: signature_matrix(mudd, max_paths=1000),
        lambda: enumerate_mupaths(mudd, max_paths=1000),
    )
    assert fold == walk == "µDD has more than 1000 µpaths"


def _doubly_switched(k):
    """k properties, each switched on twice: 2**k µpaths, and 2**j fold
    states after the first j switches (every property is decided again
    below, so no two prefixes share a state)."""
    first = [Switch("P%d" % i, {"a": Pass(), "b": Pass()}) for i in range(k)]
    second = [Switch("P%d" % i, {"a": Incr("c%d" % i), "b": Pass()}) for i in range(k)]
    return compile_program(Seq(first + second), name="doubly-switched")


def test_exponential_model_is_refused_quickly():
    mudd = _doubly_switched(40)
    for build in (
        lambda: signature_matrix(mudd, max_paths=1000),
        lambda: ModelCone.from_mudd(mudd, max_paths=1000),
    ):
        began = time.perf_counter()
        with pytest.raises(MuDDError, match="more than 1000 µpaths"):
            build()
        assert time.perf_counter() - began < 1.0


def test_doubly_switched_model_matches_the_walk():
    assert_matches_reference(_doubly_switched(6))


def test_deep_mudd_needs_no_recursion():
    # Paths thousands of decisions long, far past the interpreter's
    # recursion limit, but only two of them.
    depth = 3000
    mudd = compile_program(
        Seq([Switch("P", {"a": Incr("c"), "b": Pass()}) for _ in range(depth)])
    )
    _, signatures, multiplicities = signature_matrix(mudd, with_multiplicity=True)
    assert signatures.tolist() == [[0], [depth]]
    assert multiplicities == [1, 1]
