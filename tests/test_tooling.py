"""Tests for tooling: DSL printer, dot export, errata, shrinkage, reports, CLI."""

import numpy as np
import pytest

from repro.cone import ModelCone
from repro.counters.errata import (
    affected_counters,
    assert_errata_clean,
    check_measurement_plan,
    errata_for_event,
)
from repro.dsl import compile_dsl, parse_program
from repro.dsl.printer import format_program
from repro.errors import ConfigurationError, DSLError, StatsError
from repro.explore.report import (
    render_classification,
    render_discovery_trail,
    render_evaluation_table,
    render_search_result,
)
from repro.explore.search import ModelEvaluation
from repro.mmu import MMUConfig, MMUSimulator, MemoryOp
from repro.mudd import Done, Incr, Pass, Seq, Switch, signature_matrix
from repro.mudd.dot import to_dot, write_dot
from repro.stats import ConfidenceRegion, ledoit_wolf_delta, shrink_covariance

FIGURE2_SOURCE = """
incr load.causes_walk;
do LookupPde$;
switch Pde$Status {
  Hit => pass;
  Miss => incr load.pde$_miss
};
done;
"""


class TestDslPrinter:
    def test_roundtrip_figure2(self):
        program = parse_program(FIGURE2_SOURCE)
        text = format_program(program)
        reparsed = parse_program(text)
        # Equivalence check via compiled signatures.
        original = signature_matrix(compile_dsl(FIGURE2_SOURCE))
        roundtrip = signature_matrix(
            compile_dsl(text)
        )
        assert sorted(original[1]) == sorted(roundtrip[1])
        assert original[0] == roundtrip[0]
        del reparsed

    def test_roundtrip_nested(self):
        program = Seq(
            [
                Switch(
                    "P",
                    {
                        "A": Seq([Incr("c1"), Incr("c2")]),
                        "B": Switch("Q", {"X": Done(), "Y": Pass()}),
                    },
                ),
                Incr("c3"),
            ]
        )
        text = format_program(program)
        reparsed = parse_program(text)
        from repro.mudd import compile_program

        original = sorted(signature_matrix(compile_program(program), counters=["c1", "c2", "c3"])[1])
        again = sorted(signature_matrix(compile_program(reparsed), counters=["c1", "c2", "c3"])[1])
        assert original == again

    def test_rejects_non_statement(self):
        with pytest.raises(DSLError):
            format_program("nope")

    def test_indentation(self):
        text = format_program(Switch("P", {"A": Pass()}))
        assert "switch P {" in text
        assert "  A => pass;" in text


class TestDotExport:
    def test_contains_nodes_and_edges(self):
        mudd = compile_dsl(FIGURE2_SOURCE, name="fig2")
        dot = to_dot(mudd)
        assert dot.startswith('digraph "fig2"')
        assert "load.causes_walk" in dot
        assert "lightblue" in dot  # counter pill
        assert "diamond" in dot  # decision node
        assert '[label="Hit"]' in dot or '[label="Miss"]' in dot

    def test_happens_before_dashed(self):
        from repro.mudd import EVENT, MuDD, START, END

        mudd = MuDD("hb")
        s = mudd.add_node(START)
        a = mudd.add_node(EVENT, "A")
        e = mudd.add_node(END)
        mudd.add_edge(s, a)
        mudd.add_edge(a, e)
        mudd.add_happens_before(s, e)
        assert "style=dashed" in to_dot(mudd)

    def test_write_dot(self, tmp_path):
        path = tmp_path / "model.dot"
        write_dot(compile_dsl(FIGURE2_SOURCE), str(path))
        assert path.read_text().startswith("digraph")

    def test_rejects_non_mudd(self):
        from repro.errors import MuDDError

        with pytest.raises(MuDDError):
            to_dot("nope")


class TestErrata:
    def test_smt_triggers_mem_uops_errata(self):
        errata = errata_for_event("load.ret_stlb_miss", smt_enabled=True)
        assert {erratum.erratum_id for erratum in errata} == {"HSD29", "HSM30"}

    def test_no_smt_no_errata(self):
        assert errata_for_event("load.ret_stlb_miss", smt_enabled=False) == []

    def test_unaffected_event(self):
        assert errata_for_event("walk_ref.l1", smt_enabled=True) == []

    def test_affected_counters_are_ret_group(self):
        names = affected_counters(smt_enabled=True)
        assert set(names) == {
            "load.ret", "load.ret_stlb_miss", "store.ret", "store.ret_stlb_miss",
        }

    def test_check_measurement_plan(self):
        findings = check_measurement_plan(
            ["load.ret", "walk_ref.l1"], smt_enabled=True
        )
        assert all(name == "load.ret" for name, _ in findings)

    def test_assert_clean_raises(self):
        with pytest.raises(ConfigurationError):
            assert_errata_clean(["load.ret"], smt_enabled=True)
        assert_errata_clean(["load.ret"], smt_enabled=False)

    def test_simulator_smt_overcount_violates_universal_constraint(self):
        """With SMT on, HSD29 overcounting makes ret_stlb_miss exceed
        what any µDD could produce relative to walks+merges — the
        corrupted data is impossible, which is how the paper caught it."""
        ops = [MemoryOp("load", page * 4096) for page in range(400)] * 2
        clean = MMUSimulator(MMUConfig(smt_enabled=False))
        clean.run(list(ops))
        corrupted = MMUSimulator(MMUConfig(smt_enabled=True))
        corrupted.run(list(ops))
        assert (
            corrupted.counters["load.ret_stlb_miss"]
            > clean.counters["load.ret_stlb_miss"]
        )
        assert corrupted.counters["load.ret"] == clean.counters["load.ret"]


class TestShrinkage:
    def make_samples(self, m=10, n=6, seed=0):
        rng = np.random.default_rng(seed)
        shared = rng.normal(size=(m, 1))
        return 100 + shared * 5.0 + rng.normal(size=(m, n)) * 0.5

    def test_delta_in_unit_interval(self):
        delta = ledoit_wolf_delta(self.make_samples())
        assert 0.0 <= delta <= 1.0

    def test_shrunk_matrix_mixes_toward_diagonal(self):
        samples = self.make_samples()
        full, _ = shrink_covariance(samples, delta=0.0)
        shrunk, _ = shrink_covariance(samples, delta=0.5)
        off = ~np.eye(full.shape[0], dtype=bool)
        assert np.all(np.abs(shrunk[off]) <= np.abs(full[off]) + 1e-12)
        assert np.allclose(np.diag(shrunk), np.diag(full))

    def test_full_shrinkage_is_diagonal(self):
        shrunk, _ = shrink_covariance(self.make_samples(), delta=1.0)
        off = ~np.eye(shrunk.shape[0], dtype=bool)
        assert np.allclose(shrunk[off], 0.0)

    def test_improves_conditioning_when_m_small(self):
        samples = self.make_samples(m=5, n=8)
        raw, _ = shrink_covariance(samples, delta=0.0)
        auto, delta = shrink_covariance(samples)
        assert delta > 0.0
        raw_eigs = np.linalg.eigvalsh(raw)
        auto_eigs = np.linalg.eigvalsh(auto)
        assert auto_eigs.min() >= raw_eigs.min() - 1e-9

    def test_invalid_delta(self):
        with pytest.raises(StatsError):
            shrink_covariance(self.make_samples(), delta=2.0)

    def test_region_with_shrinkage(self):
        samples = self.make_samples(m=8, n=6)
        region = ConfidenceRegion.from_samples(samples, shrinkage="auto")
        assert region.contains(region.center())

    def test_single_counter_delta_zero(self):
        assert ledoit_wolf_delta([[1.0], [2.0], [3.0]]) == 0.0


class TestReports:
    def make_evaluations(self):
        return [
            ModelEvaluation({"A", "B"}, [], 3),
            ModelEvaluation({"A"}, ["x"], 3),
            ModelEvaluation(set(), ["x", "y"], 3),
        ]

    def test_evaluation_table(self):
        text = render_evaluation_table(self.make_evaluations(), ("A", "B"))
        assert "*{A,B}" in text
        assert "#inf" in text

    def test_classification_rendering(self):
        text = render_classification(self.make_evaluations(), ("A", "B"))
        assert "A" in text and "possible" in text or "confirmed" in text

    def test_search_result_report(self):
        from repro.explore import GuidedSearch

        def builder(features):
            signatures = [(1, 0), (1, 1)]
            if "B" in features:
                signatures.append((0, 1))
            return ModelCone(["walks", "misses"], signatures)

        class Obs:
            name = "needs-B"

            def point(self):
                return {"walks": 2, "misses": 5}

        search = GuidedSearch(builder, [Obs()], candidate_features=("A", "B"), backend="exact")
        result = search.run()
        text = render_search_result(search, result, ("A", "B"))
        assert "Candidate model" in text
        assert "Discovery trail" in text

    def test_trail_rendering(self):
        from repro.explore import GuidedSearch

        def builder(features):
            return ModelCone(["a"], [(1,)])

        class Obs:
            name = "zero"

            def point(self):
                return {"a": 1}

        search = GuidedSearch(builder, [Obs()], candidate_features=())
        candidate, trail = search.discovery()
        text = render_discovery_trail(search, trail)
        assert "step 0" in text


class TestCli:
    @pytest.fixture
    def model_file(self, tmp_path):
        path = tmp_path / "model.dsl"
        path.write_text(FIGURE2_SOURCE)
        return str(path)

    def test_constraints_command(self, model_file, capsys):
        from repro.cli import main

        assert main(["constraints", model_file]) == 0
        output = capsys.readouterr().out
        assert "load.pde$_miss <= load.causes_walk" in output

    def test_analyze_feasible(self, model_file, capsys):
        from repro.cli import main

        code = main(
            ["analyze", model_file, "--observation",
             "load.causes_walk=10,load.pde$_miss=3"]
        )
        assert code == 0
        assert "FEASIBLE" in capsys.readouterr().out

    def test_analyze_infeasible_with_certificate(self, model_file, capsys):
        from repro.cli import main

        code = main(
            ["analyze", model_file, "--observation",
             "load.causes_walk=3,load.pde$_miss=10", "--violations"]
        )
        assert code == 1
        output = capsys.readouterr().out
        assert "INFEASIBLE" in output
        assert "certificate" in output
        assert "load.pde$_miss <= load.causes_walk" in output

    def test_analyze_perf_csv(self, model_file, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "perf.csv"
        lines = []
        for index in range(1, 13):
            timestamp = float(index)
            lines.append("%f,%d,,dtlb_load_misses.miss_causes_a_walk,1,1" % (timestamp, 100 + index))
            lines.append("%f,%d,,dtlb_load_misses.pde_cache_miss,1,1" % (timestamp, 40 + index))
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["analyze", model_file, "--perf-csv", str(csv_path)])
        assert code == 0
        assert "FEASIBLE" in capsys.readouterr().out

    def test_analyze_perf_csv_non_finite_count(self, model_file, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "perf.csv"
        lines = []
        for index in range(1, 5):
            count = "nan" if index == 1 else str(40 + index)
            lines.append("%d.0,%d,,dtlb_load_misses.miss_causes_a_walk,1,1" % (index, 100 + index))
            lines.append("%d.0,%s,,dtlb_load_misses.pde_cache_miss,1,1" % (index, count))
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["analyze", model_file, "--perf-csv", str(csv_path)])
        assert code == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ") and "load.pde$_miss" in error

    def test_analyze_perf_csv_missing_counter(self, model_file, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "perf.csv"
        lines = [
            "%d.0,%d,,dtlb_load_misses.miss_causes_a_walk,1,1" % (index, 100 + index)
            for index in range(1, 5)
        ]
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["analyze", model_file, "--perf-csv", str(csv_path), "--json"])
        assert code == 2
        streams = capsys.readouterr()
        assert streams.out == ""
        assert streams.err == "error: CSV lacks model counters: load.pde$_miss\n"

    def test_render_command(self, model_file, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "model.dot"
        assert main(["render", model_file, "-o", str(out)]) == 0
        assert out.read_text().startswith("digraph")

    def test_render_to_stdout(self, model_file, capsys):
        from repro.cli import main

        assert main(["render", model_file]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_errata_check_clean(self, capsys):
        from repro.cli import main

        assert main(["errata-check", "--counters", "walk_ref.l1"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_errata_check_smt_warns(self, capsys):
        from repro.cli import main

        code = main(["errata-check", "--counters", "load.ret", "--smt"])
        assert code == 1
        assert "HSD29" in capsys.readouterr().out

    def test_bad_observation_format(self, model_file, capsys):
        from repro.cli import main

        code = main(["analyze", model_file, "--observation", "garbage"])
        assert code == 2

    def test_simulate_command(self, model_file, capsys):
        from repro.cli import main

        assert main(["simulate", model_file, "--n-uops", "400", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "load.causes_walk=" in output
        assert "load.pde$_miss=" in output

    def test_simulate_is_deterministic(self, model_file, capsys):
        from repro.cli import main

        outputs = []
        for _ in range(2):
            assert main(["simulate", model_file, "--n-uops", "400", "--seed", "7"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_simulate_closed_loop_refutes(self, capsys):
        from repro.cli import main

        code = main(
            ["simulate", "--bundled", "merging_load_side", "--n-uops", "2000",
             "--weight", "Merged=Yes:3", "--analyze", "no_merging_load_side"]
        )
        assert code == 1
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_simulate_closed_loop_self_feasible(self, capsys):
        from repro.cli import main

        code = main(
            ["simulate", "--bundled", "merging_load_side", "--n-uops", "2000",
             "--traces", "4", "--analyze", "merging_load_side"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "mean totals" in output
        assert "feasible" in output

    def test_sweep_command_projects_hardware_dataset(self, model_file, capsys):
        # The bundled dataset carries the full 26-counter space; a
        # 2-counter DSL model must be swept over its projection, not
        # rejected with a scope error.
        from repro.cli import main

        code = main(["sweep", model_file, "--scale", "0.05"])
        assert code in (0, 1)
        output = capsys.readouterr().out
        assert "observations" in output

    def test_sweep_command_json_loads_back(self, capsys):
        import json

        from repro.cli import main
        from repro.results import ModelSweep, result_from_dict

        code = main([
            "sweep", "--bundled", "pde_initial",
            "--simulate-from", "pde_refined", "--n-uops", "3000", "--json",
        ])
        assert code == 1  # refuted
        sweep = result_from_dict(json.loads(capsys.readouterr().out))
        assert isinstance(sweep, ModelSweep)
        assert not sweep.feasible
        assert all(sweep.why[name] is not None for name in sweep.infeasible_names)

    def test_compare_command_ranks_models(self, capsys):
        import json

        from repro.cli import main
        from repro.results import CompareResult, result_from_dict

        code = main([
            "compare", "--bundled", "pde_initial", "pde_refined",
            "--simulate-from", "pde_refined", "--n-uops", "3000", "--json",
        ])
        assert code == 0  # pde_refined explains its own data
        comparison = result_from_dict(json.loads(capsys.readouterr().out))
        assert isinstance(comparison, CompareResult)
        assert comparison.ranking()[0] == "pde_refined"

    def test_case_study_survives_warm_cone_memo(self, capsys):
        # build_model_cone memoises by feature set and ignores name= on
        # a hit; case-study must not depend on cone names it may not get.
        from repro.cli import main
        from repro.models import M_SERIES, build_model_cone

        build_model_cone(M_SERIES["m0"])  # warm with the default name
        assert main(["case-study", "--scale", "0.05"]) == 0
        assert "m0" in capsys.readouterr().out

    def test_simulate_bad_weight(self, model_file, capsys):
        from repro.cli import main

        assert main(["simulate", model_file, "--weight", "garbage"]) == 2


class TestBenchResults:
    """``benchmarks/conftest.py`` merges a session's medians into the
    trend file, so a partial run keeps every other benchmark's entry."""

    @staticmethod
    def merge_results():
        import importlib.util
        import os

        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks", "conftest.py",
        )
        spec = importlib.util.spec_from_file_location("bench_conftest", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.merge_results

    def test_partial_run_keeps_other_entries(self, tmp_path):
        import json

        merge_results = self.merge_results()
        target = tmp_path / "BENCH_results.json"
        target.write_text(json.dumps({"a.py::test_a": 1.0, "b.py::test_b": 2.0}))
        merge_results(str(target), {"b.py::test_b": 3.0, "c.py::test_c": 4.0})
        assert json.loads(target.read_text()) == {
            "a.py::test_a": 1.0, "b.py::test_b": 3.0, "c.py::test_c": 4.0,
        }
        assert target.read_text().endswith("}\n")

    def test_missing_or_unreadable_file_starts_empty(self, tmp_path):
        import json

        merge_results = self.merge_results()
        missing = tmp_path / "missing.json"
        merge_results(str(missing), {"a.py::test_a": 1.0})
        assert json.loads(missing.read_text()) == {"a.py::test_a": 1.0}
        torn = tmp_path / "torn.json"
        torn.write_text('{"a.py::test_a": 1.')
        merge_results(str(torn), {"b.py::test_b": 2.0})
        assert json.loads(torn.read_text()) == {"b.py::test_b": 2.0}
