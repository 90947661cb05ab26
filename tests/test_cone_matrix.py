"""A model cone's signatures are one read-only int64 matrix.

:func:`~repro.mudd.paths.signature_matrix` returns the fold's signatures
as a ``(P, N)`` int64 matrix, and :class:`~repro.cone.ModelCone` keeps
that matrix (``rows``) as the one copy of them: it fingerprints it,
encodes it for the disk tier and hands its float image to HiGHS. Exact
arithmetic reads ``signatures``, Python-int tuples built from the
matrix. These tests check:

* identity: one cone built four ways (the fold, Python lists, a disk
  round trip, pickle) has one fingerprint and equal signatures, and
  every signature entry is a Python ``int`` — an ``np.int64`` in exact
  arithmetic would wrap silently, and ``Fraction(np.int64(3))`` keeps
  the numpy type in its numerator; a disk entry with a count that is
  not a Python int within int64 is a miss;
* the fold's field widths: 4-byte fields (at least 65,536 COUNTER
  nodes) against the depth-first walk;
* constructor input: every malformed signature input is refused with an
  :class:`~repro.errors.AnalysisError` naming the problem.
"""

import pickle
from fractions import Fraction

import numpy as np
import pytest

from repro.cone import DiskConeCache, ModelCone, ModelConeCache, mudd_fingerprint
from repro.errors import AnalysisError
from repro.models import M_SERIES, T_SERIES, load_bundled_model
from repro.models.haswell import ALL_COUNTERS, build_mudd
from repro.mudd import MuDD, enumerate_mupaths, signature_matrix
from repro.mudd.graph import COUNTER, DECISION, END, START


def _mudd(name):
    if name == "m4+t8":
        return build_mudd(M_SERIES["m4"], trigger=T_SERIES["t8"])
    return load_bundled_model(name)


def _counters(name):
    return ALL_COUNTERS if name == "m4+t8" else None


def _four_ways(name, tmp_path):
    """The cone of model ``name`` by the fold, from Python lists,
    through a disk round trip and through pickle."""
    mudd = _mudd(name)
    folded = ModelCone.from_mudd(mudd, counters=_counters(name))
    listed = ModelCone(
        folded.counters,
        [list(signature) for signature in folded.signatures],
        name=folded.name,
        multiplicities=folded.multiplicities,
    )
    key = (mudd_fingerprint(mudd, counters=_counters(name)), 2000000)
    DiskConeCache(tmp_path).put(key, folded)
    from_disk = DiskConeCache(tmp_path).get(key)
    pickled = pickle.loads(pickle.dumps(folded))
    return {"fold": folded, "lists": listed, "disk": from_disk, "pickle": pickled}


@pytest.mark.parametrize("name", ["pde_refined", "merging_load_side", "m4+t8"])
def test_one_cone_four_ways_is_one_cone(name, tmp_path):
    cones = _four_ways(name, tmp_path)
    folded = cones["fold"]
    for way, cone in cones.items():
        assert cone.fingerprint() == folded.fingerprint(), way
        assert cone.counters == folded.counters, way
        assert cone.signatures == folded.signatures, way
        assert cone.multiplicities == folded.multiplicities, way
        assert cone.n_paths == len(cone.signatures) == folded.rows.shape[0], way
        assert all(
            type(entry) is int for signature in cone.signatures for entry in signature
        ), way
        assert all(type(signature) is tuple for signature in cone.signatures), way
        assert not cone.rows.flags.writeable, way
        assert cone.rows.dtype == np.int64 and cone.rows.flags.c_contiguous, way
        with pytest.raises(ValueError):
            cone.rows[0, 0] = 7
        assert not cone.signature_array().flags.writeable, way


def test_fingerprint_covers_order_counters_and_shape():
    base = ModelCone(["a", "b"], [(1, 0), (1, 1)])
    assert base.fingerprint() == ModelCone(["a", "b"], [[1, 0], [1, 1]]).fingerprint()
    for other in (
        ModelCone(["a", "b"], [(1, 1), (1, 0)]),          # row order
        ModelCone(["b", "a"], [(1, 0), (1, 1)]),          # counter order
        ModelCone(["a", "b"], [(1, 0), (1, 1), (1, 1)]),  # multiplicity of rows
        ModelCone(["a", "b", "c"], [(1, 0, 1), (1, 0, 0)]),
        ModelCone(["a", "b"], []),
    ):
        assert other.fingerprint() != base.fingerprint()
    # The name is not content.
    assert ModelCone(["a", "b"], [(1, 0), (1, 1)], name="x").fingerprint() == \
        base.fingerprint()


def test_signatures_reach_exact_code_as_python_ints():
    # np.int64 arithmetic wraps where Python ints grow, and a Fraction
    # built from an np.int64 keeps it as its numerator.
    assert type(Fraction(np.int64(3)).numerator) is not int
    cone = ModelCone(["a", "b"], np.array([[1, 2], [3, 4]], dtype=np.int64))
    assert cone.signatures == [(1, 2), (3, 4)]
    assert all(type(entry) is int for row in cone.signatures for entry in row)
    big = 2**62
    cone = ModelCone(["a"], np.array([[big]], dtype=np.uint64))
    assert cone.signatures[0][0] * 4 == 2**64  # no wrap-around


def test_pickle_drops_the_tuple_view_and_keeps_the_matrix_read_only():
    cone = ModelCone.from_mudd(_mudd("merging_load_side"))
    assert cone.signatures  # build the view
    state = cone.__getstate__()
    assert state["_signatures"] is None and state["_signature_array"] is None
    clone = pickle.loads(pickle.dumps(cone))
    assert not clone.rows.flags.writeable
    assert clone.signatures == cone.signatures


@pytest.mark.parametrize("count", [2**70, True, 1.0])
def test_disk_entry_with_a_foreign_count_is_a_miss(tmp_path, count):
    # 2**70 does not fit in int64; numpy would read a JSON true beside
    # integers as 1, and 1.0 as a float row.
    mudd = _mudd("merging_load_side")
    cache = ModelConeCache(disk=str(tmp_path))
    cone = cache.get(mudd)
    disk = DiskConeCache(str(tmp_path))
    entry = "%s-%d" % (mudd_fingerprint(mudd), 2000000)
    payload = disk.store.get("cone", entry)
    payload["signatures"][0][0] = count
    disk.store.put("cone", entry, payload)

    assert DiskConeCache(str(tmp_path)).get((mudd_fingerprint(mudd), 2000000)) is None
    fresh = ModelConeCache(disk=DiskConeCache(str(tmp_path)))
    rebuilt = fresh.get(mudd)
    assert fresh.disk.hits == 0 and fresh.builds == 1
    assert rebuilt.signatures == cone.signatures


def test_caller_arrays_are_copied_not_shared():
    rows = np.array([[1, 0], [1, 1]], dtype=np.int64)
    cone = ModelCone(["a", "b"], rows)
    before = cone.fingerprint()
    rows[0, 0] = 9
    assert cone.signatures == [(1, 0), (1, 1)]
    assert cone.fingerprint() == before
    # A read-only int64 matrix, as signature_matrix returns, is kept as is.
    _, folded = signature_matrix(_mudd("pde_refined"))
    assert not folded.flags.writeable
    assert ModelCone(["load.causes_walk", "load.pde$_miss"], folded).rows is folded


def test_empty_signature_list_builds_a_zero_row_matrix():
    cone = ModelCone(["a", "b"], [])
    assert cone.rows.shape == (0, 2)
    assert cone.n_paths == 0 and cone.signatures == []
    assert cone.signature_array().shape == (2, 0)
    assert "0 signatures" in repr(cone)


@pytest.mark.parametrize("signatures, problem", [
    ([(-1, 0)], "non-negative"),
    (np.array([[0, -2]]), "non-negative"),
    ([(1.5, 0)], "integers"),
    ([(Fraction(1), 0)], "integers"),
    ([(None, 0)], "integers"),
    ([("1", 0)], "integers"),
    (np.array([[1.0, 0.0]]), r"integers, got np.float64\(1.0\)"),
    (np.array([[True, False]]), "integers, got np.True_"),
    ([(1, 0, 0)], r"\(P, 2\) matrix, one column per counter, got shape \(1, 3\)"),
    ([(1,)], r"got shape \(1, 1\)"),
    ([(1, 0), (1,)], "rows of 2 integers"),
    (np.array([1, 0]), r"got shape \(2,\)"),
    (np.zeros((1, 2, 1), dtype=np.int64), r"got shape \(1, 2, 1\)"),
    ([(2**63, 0)], "does not fit in int64"),
    ([(2**70, 0)], "does not fit in int64"),
    (np.array([[2**63, 0]], dtype=np.uint64), "does not fit in int64"),
    ([(-2**70, 0)], "does not fit in int64"),
])
def test_malformed_signatures_are_refused_by_name(signatures, problem):
    with pytest.raises(AnalysisError, match=problem):
        ModelCone(["a", "b"], signatures)


def test_integer_dtypes_and_sequences_are_accepted():
    expected = [(1, 0), (3, 2)]
    for signatures in (
        [(1, 0), (3, 2)],
        [[1, 0], [3, 2]],
        ((1, 0), (3, 2)),
        (row for row in [(1, 0), (3, 2)]),
        np.array([[1, 0], [3, 2]], dtype=np.uint8),
        np.array([[1, 0], [3, 2]], dtype=np.int32),
        np.array([[1, 0], [3, 2]], dtype=np.uint64),
        np.asfortranarray(np.array([[1, 0], [3, 2]])),
        np.array([[1, 0], [3, 2]], dtype=object),
        [np.array([1, 0]), np.array([3, 2])],
    ):
        cone = ModelCone(["a", "b"], signatures)
        assert cone.signatures == expected
        assert cone.rows.dtype == np.int64 and cone.rows.flags.c_contiguous


def _wide_mudd(branches, length):
    """A switch over ``branches`` values, each value's branch a chain of
    ``length`` COUNTER nodes over three counters: ``branches * length``
    COUNTER nodes, but every µpath is only ``length`` long."""
    mudd = MuDD("wide")
    start, end = mudd.add_node(START), mudd.add_node(END)
    switch = mudd.add_node(DECISION, "P")
    mudd.add_edge(start, switch)
    for branch in range(branches):
        previous, value = switch, "v%d" % branch
        for position in range(length):
            label = ("c0", "c1", "c2")[(branch + position) % 3 if position % 5 else 0]
            node = mudd.add_node(COUNTER, label)
            mudd.add_edge(previous, node, value=value)
            previous, value = node, None
        mudd.add_edge(previous, end, value=value)
    return mudd


def _walk(mudd, counters):
    """The distinct signatures, in first-occurrence walk order, with
    their multiplicities: the reference the fold must equal."""
    counts = {}
    for path in enumerate_mupaths(mudd, max_paths=2000000):
        signature = path.signature(counters)
        counts[signature] = counts.get(signature, 0) + 1
    return list(counts), list(counts.values())


def test_four_byte_fields_match_the_walk():
    # 2**16 COUNTER nodes, one past the 2-byte field limit (the m4
    # variants, ~1,061 nodes, use 2-byte fields and the DSL models
    # 1-byte ones), spread over 64 branches; the next test walks one
    # long path.
    mudd = _wide_mudd(64, 1024)
    assert sum(node.kind == COUNTER for node in mudd.nodes.values()) == 2**16
    counters, rows, multiplicities = signature_matrix(mudd, with_multiplicity=True)
    signatures, counts = _walk(mudd, counters)
    assert rows.dtype == np.int64
    assert list(map(tuple, rows.tolist())) == signatures
    assert multiplicities == counts
    assert ModelCone(counters, rows).signatures == signatures


def test_four_byte_fields_hold_counts_past_two_bytes():
    # One chain of 70,000 COUNTER nodes behind a switch: the counts on
    # the long path need more than two bytes. The walk, linear in path
    # length, must find the same two signatures.
    mudd = MuDD("chain")
    start, end = mudd.add_node(START), mudd.add_node(END)
    switch = mudd.add_node(DECISION, "P")
    mudd.add_edge(start, switch)
    mudd.add_edge(switch, end, value="skip")
    previous, value = switch, "run"
    for position in range(70000):
        node = mudd.add_node(COUNTER, "c" if position % 7 else "d")
        mudd.add_edge(previous, node, value=value)
        previous, value = node, None
    mudd.add_edge(previous, end)
    counters, rows, multiplicities = signature_matrix(
        mudd, counters=["c", "d", "e"], with_multiplicity=True
    )
    # The walk pops the last branch first.
    assert rows.tolist() == [[60000, 10000, 0], [0, 0, 0]]
    assert multiplicities == [1, 1]
    assert (list(map(tuple, rows.tolist())), multiplicities) == _walk(mudd, counters)
