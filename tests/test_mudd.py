"""Tests for the µDD graph, program combinators and path enumeration."""

import pytest

from repro.errors import MuDDError
from repro.mudd import (
    COUNTER,
    DECISION,
    END,
    EVENT,
    START,
    Do,
    Done,
    Incr,
    MuDD,
    Pass,
    Seq,
    Switch,
    compile_program,
    enumerate_mupaths,
    signature_matrix,
)


def pde_cache_program():
    """The paper's Figure 2 model: walk counter, PDE cache lookup, miss
    counter on the Miss branch."""
    return Seq(
        [
            Incr("load.causes_walk"),
            Do("LookupPde$"),
            Switch(
                "Pde$Status",
                {
                    "Hit": Pass(),
                    "Miss": Incr("load.pde$_miss"),
                },
            ),
            Done(),
        ]
    )


class TestGraphConstruction:
    def test_add_node_kinds(self):
        mudd = MuDD()
        for kind, label in [
            (START, None),
            (END, None),
            (EVENT, "Walk"),
            (COUNTER, "load.causes_walk"),
            (DECISION, "Pde$Status"),
        ]:
            mudd.add_node(kind, label)
        assert len(mudd.nodes) == 5

    def test_labelled_kinds_require_label(self):
        mudd = MuDD()
        with pytest.raises(MuDDError):
            mudd.add_node(EVENT)

    def test_unknown_kind_rejected(self):
        mudd = MuDD()
        with pytest.raises(MuDDError):
            mudd.add_node("mystery")

    def test_duplicate_node_id_rejected(self):
        mudd = MuDD()
        mudd.add_node(START, node_id="s")
        with pytest.raises(MuDDError):
            mudd.add_node(END, node_id="s")

    def test_non_decision_single_out_edge(self):
        mudd = MuDD()
        s = mudd.add_node(START)
        a = mudd.add_node(EVENT, "A")
        b = mudd.add_node(EVENT, "B")
        mudd.add_edge(s, a)
        with pytest.raises(MuDDError):
            mudd.add_edge(s, b)

    def test_decision_edges_need_values(self):
        mudd = MuDD()
        d = mudd.add_node(DECISION, "P")
        e = mudd.add_node(END)
        with pytest.raises(MuDDError):
            mudd.add_edge(d, e)

    def test_decision_duplicate_value_rejected(self):
        mudd = MuDD()
        d = mudd.add_node(DECISION, "P")
        e = mudd.add_node(END)
        mudd.add_edge(d, e, value="Hit")
        with pytest.raises(MuDDError):
            mudd.add_edge(d, e, value="Hit")

    def test_value_on_non_decision_rejected(self):
        mudd = MuDD()
        s = mudd.add_node(START)
        e = mudd.add_node(END)
        with pytest.raises(MuDDError):
            mudd.add_edge(s, e, value="Hit")

    def test_end_cannot_have_out_edges(self):
        mudd = MuDD()
        e = mudd.add_node(END)
        s = mudd.add_node(START)
        with pytest.raises(MuDDError):
            mudd.add_edge(e, s)

    def test_edge_to_unknown_node(self):
        mudd = MuDD()
        s = mudd.add_node(START)
        with pytest.raises(MuDDError):
            mudd.add_edge(s, "ghost")


class TestValidation:
    def test_valid_linear_chain(self):
        mudd = MuDD()
        s = mudd.add_node(START)
        c = mudd.add_node(COUNTER, "x")
        e = mudd.add_node(END)
        mudd.add_edge(s, c)
        mudd.add_edge(c, e)
        assert mudd.validate()

    def test_requires_single_start(self):
        mudd = MuDD()
        mudd.add_node(START)
        mudd.add_node(START)
        mudd.add_node(END)
        with pytest.raises(MuDDError):
            mudd.validate()

    def test_requires_end(self):
        mudd = MuDD()
        s = mudd.add_node(START)
        c = mudd.add_node(COUNTER, "x")
        mudd.add_edge(s, c)
        with pytest.raises(MuDDError):
            mudd.validate()

    def test_unreachable_node_detected(self):
        mudd = MuDD()
        s = mudd.add_node(START)
        e = mudd.add_node(END)
        mudd.add_node(EVENT, "orphan-with-edge")
        mudd.add_edge(s, e)
        with pytest.raises(MuDDError):
            mudd.validate()

    def test_dangling_sink_detected(self):
        mudd = MuDD()
        s = mudd.add_node(START)
        d = mudd.add_node(DECISION, "P")
        e = mudd.add_node(END)
        c = mudd.add_node(EVENT, "dangling")
        mudd.add_edge(s, d)
        mudd.add_edge(d, e, value="A")
        mudd.add_edge(d, c, value="B")
        with pytest.raises(MuDDError):
            mudd.validate()

    def test_happens_before_cycle_detected(self):
        mudd = MuDD()
        s = mudd.add_node(START)
        a = mudd.add_node(EVENT, "A")
        b = mudd.add_node(EVENT, "B")
        e = mudd.add_node(END)
        mudd.add_edge(s, a)
        mudd.add_edge(a, b)
        mudd.add_edge(b, e)
        mudd.add_happens_before(b, a)  # contradicts causality
        with pytest.raises(MuDDError):
            mudd.validate()

    def test_happens_before_unknown_node(self):
        mudd = MuDD()
        s = mudd.add_node(START)
        with pytest.raises(MuDDError):
            mudd.add_happens_before(s, "ghost")


class TestCompileProgram:
    def test_pde_example_structure(self):
        mudd = compile_program(pde_cache_program(), name="pde")
        assert mudd.counters == ["load.causes_walk", "load.pde$_miss"]
        assert mudd.properties == ["Pde$Status"]

    def test_compiles_and_validates(self):
        mudd = compile_program(pde_cache_program())
        assert mudd.validate()

    def test_branches_rejoin(self):
        # switch with non-terminating branches rejoins the continuation.
        program = Seq(
            [
                Switch("P", {"A": Pass(), "B": Incr("c1")}),
                Incr("c2"),
            ]
        )
        mudd = compile_program(program)
        _, signatures = signature_matrix(mudd, counters=["c1", "c2"])
        assert set(signatures) == {(0, 1), (1, 1)}

    def test_done_terminates_branch(self):
        program = Switch("P", {"A": Done(), "B": Incr("c")})
        mudd = compile_program(program)
        _, signatures = signature_matrix(mudd, counters=["c"])
        assert set(signatures) == {(0,), (1,)}

    def test_statement_after_done_rejected(self):
        program = Seq([Done(), Incr("c")])
        with pytest.raises(MuDDError):
            compile_program(program)

    def test_all_branches_done_then_statement_rejected(self):
        program = Seq(
            [
                Switch("P", {"A": Done(), "B": Done()}),
                Incr("c"),
            ]
        )
        with pytest.raises(MuDDError):
            compile_program(program)

    def test_non_statement_rejected(self):
        with pytest.raises(MuDDError):
            compile_program("not a program")

    def test_empty_switch_rejected(self):
        with pytest.raises(MuDDError):
            Switch("P", {})

    def test_incr_requires_name(self):
        with pytest.raises(MuDDError):
            Incr("")


class TestPathEnumeration:
    def test_pde_example_two_paths(self):
        mudd = compile_program(pde_cache_program())
        paths = enumerate_mupaths(mudd)
        assert len(paths) == 2
        signatures = {p.signature(["load.causes_walk", "load.pde$_miss"]) for p in paths}
        assert signatures == {(1, 0), (1, 1)}

    def test_assignments_recorded(self):
        mudd = compile_program(pde_cache_program())
        by_value = {p.assignments["Pde$Status"] for p in enumerate_mupaths(mudd)}
        assert by_value == {"Hit", "Miss"}

    def test_property_persistence(self):
        # Two switches on the same property: only consistent paths exist.
        program = Seq(
            [
                Switch("P", {"A": Incr("c1"), "B": Pass()}),
                Switch("P", {"A": Incr("c2"), "B": Pass()}),
            ]
        )
        mudd = compile_program(program)
        _, signatures = signature_matrix(mudd, counters=["c1", "c2"])
        # Consistent paths: A/A -> (1,1) and B/B -> (0,0); no (1,0)/(0,1).
        assert set(signatures) == {(1, 1), (0, 0)}

    def test_property_persistence_missing_branch_raises(self):
        program = Seq(
            [
                Switch("P", {"A": Pass(), "B": Pass()}),
                Switch("P", {"A": Pass()}),  # no B branch
            ]
        )
        mudd = compile_program(program)
        with pytest.raises(MuDDError):
            enumerate_mupaths(mudd)

    def test_nested_switch_path_count(self):
        program = Switch(
            "P",
            {
                "A": Switch("Q", {"X": Pass(), "Y": Pass()}),
                "B": Pass(),
            },
        )
        mudd = compile_program(program)
        assert len(enumerate_mupaths(mudd)) == 3

    def test_max_paths_guard(self):
        # 2^8 paths from 8 independent binary switches.
        program = Seq(
            [Switch("P%d" % i, {"A": Pass(), "B": Incr("c%d" % i)}) for i in range(8)]
        )
        mudd = compile_program(program)
        with pytest.raises(MuDDError):
            enumerate_mupaths(mudd, max_paths=100)

    def test_events_listing(self):
        mudd = compile_program(pde_cache_program())
        paths = enumerate_mupaths(mudd)
        hit = next(p for p in paths if p.assignments["Pde$Status"] == "Hit")
        events = hit.events(mudd)
        assert events[0] == "load.causes_walk"
        assert "LookupPde$" in events

    def test_rejects_non_mudd(self):
        with pytest.raises(MuDDError):
            enumerate_mupaths("nope")


class TestSignatureMatrix:
    def test_default_counter_order(self):
        mudd = compile_program(pde_cache_program())
        counters, signatures = signature_matrix(mudd)
        assert counters == ["load.causes_walk", "load.pde$_miss"]
        assert sorted(signatures) == [(1, 0), (1, 1)]

    def test_unmodelled_counter_is_zero_column(self):
        mudd = compile_program(pde_cache_program())
        counters, signatures = signature_matrix(
            mudd, counters=["load.causes_walk", "load.walk_done"]
        )
        assert all(sig[1] == 0 for sig in signatures)

    def test_deduplication(self):
        # Two paths share a signature; signature_matrix merges them.
        program = Switch("P", {"A": Do("e1"), "B": Do("e2"), "C": Incr("c")})
        mudd = compile_program(program)
        _, deduped = signature_matrix(mudd, counters=["c"])
        assert len(enumerate_mupaths(mudd)) == 3
        assert sorted(deduped) == [(0,), (1,)]

    def test_rejects_non_mudd(self):
        with pytest.raises(MuDDError, match="signature_matrix expects a MuDD"):
            signature_matrix("nope", ["a"])
        with pytest.raises(MuDDError, match="signature_matrix expects a MuDD"):
            signature_matrix("nope")

    def test_max_paths_guard(self):
        mudd = compile_program(pde_cache_program())
        with pytest.raises(MuDDError, match="more than 1 µpaths"):
            signature_matrix(mudd, ["load.causes_walk"], max_paths=1)
        assert len(signature_matrix(mudd, max_paths=2)[1]) == 2
