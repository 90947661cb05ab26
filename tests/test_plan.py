"""repro.plan: declarative plans, the task-DAG engine, and the facade.

The headline contracts, asserted with real call counters:

* a plan containing overlapping ``sweep``, ``compare``, and
  ``cross_refute`` ops computes each shared (cone, observation) verdict
  **exactly once**;
* every facade call routed through the plan engine is **bit-for-bit
  identical** to a reference assembled from the session's memoized
  units by definition, serial and ``workers=2``;
* a dry run prices the DAG without solving anything, and its task count
  matches what a cold execution computes;
* interrupted runs resume from the artifact store with only pending
  cells re-executed;
* plans and plan results round-trip through JSON (golden files under
  ``tests/golden/``; regenerate deliberately with
  ``python tests/test_plan.py regen``).
"""

import json
import os
import threading

import pytest

import repro.results.session as session_module
from repro.cone import ModelCone
from repro.errors import AnalysisError
from repro.models.bundled import bundled_model_source, load_bundled_model
from repro.pipeline import CounterPoint
from repro.plan import (
    DryRunReport,
    DatasetSummary,
    Plan,
    PlanResult,
    SerialScheduler,
    compile_plan,
)
from repro.results import AnalysisSession, result_from_json
from repro.results.types import CompareResult, ModelSweep, RefutationMatrix
from repro.sim import as_mudd, simulate_dataset

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class Obs:
    """Minimal observation-shaped object (name + exact totals)."""

    def __init__(self, name, point):
        self.name = name
        self._point = dict(point)

    def point(self):
        return dict(self._point)


def tiny_cone(name="tiny"):
    # Generators (1,0) and (1,1): feasible iff 0 <= b <= a.
    return ModelCone(["a", "b"], [(1, 0), (1, 1)], name=name)


def dataset(n, offset=0):
    # Every third observation violates b <= a.
    return [
        Obs("o%03d" % index,
            {"a": 5 + index, "b": (9 + index if index % 3 == 0 else 2)})
        for index in range(offset, offset + n)
    ]


def dsl_sources():
    """Two different models as DSL text: both compile to a µDD named
    ``model``."""
    return [
        bundled_model_source("pde_refined"),
        bundled_model_source("pde_initial"),
    ]


def overlap_plan():
    """The acceptance-criteria plan: a sweep, a compare, and a
    cross-refutation that all touch the same simulated cells."""
    plan = Plan()
    data = plan.simulate_dataset(
        "pde_refined", n_observations=2, n_uops=2000, seed=0, op_id="data"
    )
    plan.sweep("pde_initial", dataset=data, explain=True, op_id="refute")
    plan.compare(
        ["pde_initial", "pde_refined"], dataset=data, explain=True,
        op_id="ranking",
    )
    plan.cross_refute(
        ["pde_refined", "pde_initial"], n_observations=2, n_uops=2000,
        seed=0, explain=True, op_id="matrix",
    )
    return plan


class CountingFeasibility:
    """Counts the observations actually LP-tested by the session's
    compute path (the incrementality/dedup ground truth)."""

    def __init__(self, monkeypatch):
        self.batches = []
        real = session_module.test_points_feasibility

        def wrapper(cone, targets, backend="exact", **kwargs):
            targets = list(targets)
            self.batches.append(len(targets))
            return real(cone, targets, backend=backend, **kwargs)

        monkeypatch.setattr(session_module, "test_points_feasibility", wrapper)

    @property
    def total(self):
        return sum(self.batches)


class TestPlanSpec:
    def test_builder_generates_ids_and_edges(self):
        plan = Plan()
        data = plan.simulate_dataset("pde_refined", n_observations=2)
        sweep = plan.sweep("pde_initial", dataset=data)
        assert data == "op0" and sweep == "op1"
        assert plan.op(sweep).dependencies() == [data]
        assert len(plan) == 2

    def test_then_adds_explicit_edges(self):
        plan = Plan()
        first = plan.cross_refute(["pde_initial"], n_observations=1)
        second = plan.cross_refute(["pde_refined"], n_observations=1)
        plan.then(first, second)
        assert plan.op(second).dependencies() == [first]
        assert plan.validate() == [first, second]

    def test_validate_rejects_unknown_reference(self):
        plan = Plan()
        plan.sweep("pde_initial", dataset="nonexistent")
        with pytest.raises(AnalysisError, match="unknown op"):
            plan.validate()

    def test_validate_rejects_non_dataset_reference(self):
        plan = Plan()
        target = plan.sweep("pde_initial", dataset=dataset(1))
        plan.sweep("pde_refined", dataset=target)
        with pytest.raises(AnalysisError, match="dataset"):
            plan.validate()

    def test_validate_rejects_cycles(self):
        plan = Plan()
        first = plan.cross_refute(["pde_initial"], n_observations=1)
        second = plan.cross_refute(["pde_refined"], n_observations=1,
                                   after=[first])
        plan.then(second, first)
        with pytest.raises(AnalysisError, match="cycle"):
            plan.validate()

    def test_duplicate_op_ids_rejected(self):
        plan = Plan()
        plan.sweep("pde_initial", dataset=dataset(1), op_id="x")
        with pytest.raises(AnalysisError, match="duplicate"):
            plan.sweep("pde_refined", dataset=dataset(1), op_id="x")

    def test_bad_dataset_spec_rejected(self):
        plan = Plan()
        with pytest.raises(AnalysisError, match="dataset spec"):
            plan.sweep("pde_initial", dataset={"ref": "a", "inline": []})

    def test_hand_edited_json_params_fail_at_load_not_run_time(self):
        plan = overlap_plan()
        data = json.loads(plan.to_json())
        data["ops"][0]["n_observations"] = 0
        with pytest.raises(AnalysisError, match="positive int"):
            Plan.from_json(json.dumps(data))
        data = json.loads(plan.to_json())
        data["ops"][3]["weights"] = {"Merged": "not-a-dict"}
        with pytest.raises(AnalysisError, match="weights"):
            Plan.from_json(json.dumps(data))
        anonymous = json.loads(Plan().to_json())
        anonymous["ops"] = [{
            "id": "s", "op": "sweep", "model": "pde_initial",
            "dataset": {"simulate": {"model": "pde_refined",
                                     "n_observations": 0}},
            "use_regions": False, "correlated": True, "explain": False,
            "after": [],
        }]
        with pytest.raises(AnalysisError, match="positive int"):
            Plan.from_json(json.dumps(anonymous))

    def test_region_mode_rejected_for_serialized_inline_points(self):
        # Inline {'name','point'} entries carry exact totals only —
        # there is no sample matrix to summarise as a region, so this
        # must fail at load time, not deep in the LP layer.
        plan = Plan()
        plan.sweep("pde_initial", use_regions=True, dataset={"inline": [
            {"name": "r0", "point": {"a": 5, "b": 2}},
        ]})
        with pytest.raises(AnalysisError, match="interval samples"):
            plan.validate()
        # Live observations with samples still sweep in region mode
        # (the facade path) — only sample-less serialized points are
        # rejected.
        live = Plan()
        live.sweep("pde_refined",
                   dataset=list(simulate_dataset("pde_refined", 1,
                                                 n_uops=2000)),
                   use_regions=True)
        live.validate()

    def test_round_trips_through_json(self):
        plan = overlap_plan()
        rebuilt = Plan.from_json(plan.to_json())
        assert rebuilt == plan
        assert result_from_json(plan.to_json()) == plan
        assert rebuilt.validate() == plan.validate()

    def test_inline_point_datasets_serialize(self):
        plan = Plan()
        plan.sweep("pde_initial", dataset={"inline": [
            {"name": "r0", "point": {"a": 5, "b": 2}},
        ]})
        rebuilt = Plan.from_json(plan.to_json())
        assert rebuilt == plan
        entry = rebuilt.op("op0").params["dataset"]["inline"][0]
        assert entry["point"]["a"] == 5 and isinstance(entry["point"]["a"], int)

    def test_live_objects_execute_but_refuse_serialization(self):
        plan = Plan()
        plan.sweep(tiny_cone(), dataset=dataset(2), op_id="live")
        with pytest.raises(AnalysisError, match="live"):
            plan.to_dict()

    def test_summary_names_every_op(self):
        text = overlap_plan().summary()
        for op_id in ("data", "refute", "ranking", "matrix"):
            assert op_id in text

    def test_golden_plan_schema_stability(self):
        plan = overlap_plan()
        path = os.path.join(GOLDEN_DIR, "plan.json")
        with open(path, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        assert plan.to_dict() == golden
        assert result_from_json(json.dumps(golden)) == plan


class TestCompile:
    def test_overlapping_ops_deduplicate_globally(self):
        with CounterPoint(backend="scipy") as pipeline:
            compiled = compile_plan(overlap_plan(), pipeline)
        counts = compiled.counts()
        # 2 shared candidates x 2 observations x 2 rows = 8 unique
        # cells; the sweep (2) and compare (4) add only duplicates.
        assert counts["cells"] == 8
        assert counts["cells_requested"] == 14
        assert counts["deduplicated"] == 6
        # The named dataset and cross_refute row 0 share one simulation.
        assert counts["simulations"] == 2

    def test_identical_anonymous_simulations_share_a_task(self):
        spec = {"simulate": {"model": "pde_refined", "n_observations": 2,
                             "n_uops": 2000, "seed": 7}}
        plan = Plan()
        plan.sweep("pde_initial", dataset=dict(spec))
        plan.sweep("pde_refined", dataset=dict(spec))
        with CounterPoint(backend="scipy") as pipeline:
            compiled = compile_plan(plan, pipeline)
        assert compiled.counts()["simulations"] == 1

    def test_backend_is_part_of_cell_identity(self):
        plan = Plan()
        plan.sweep("pde_initial", dataset={"simulate": {
            "model": "pde_refined", "n_observations": 2, "n_uops": 2000,
        }})
        with CounterPoint(backend="scipy") as scipy_pipe, \
                CounterPoint(backend="exact") as exact_pipe:
            scipy_cells = compile_plan(plan, scipy_pipe).cell_keys
            exact_cells = compile_plan(plan, exact_pipe).cell_keys
        assert scipy_cells.isdisjoint(exact_cells)

    def test_cross_refute_rejects_duplicate_model_names(self, monkeypatch):
        import repro.sim

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before rejecting the plan")

        monkeypatch.setattr(repro.sim, "simulate_dataset", no_simulation)
        # Every DSL source is named "model": a 2x2 matrix over two of
        # them would silently collapse to 1x1.
        with CounterPoint(backend="scipy") as pipeline:
            with pytest.raises(AnalysisError, match="duplicate model names"):
                pipeline.cross_refute(
                    dsl_sources(), n_observations=1, n_uops=2000
                )

    def test_execution_order_respects_dependencies(self):
        plan = Plan()
        late = plan.cross_refute(["pde_initial"], n_observations=1,
                                 op_id="late")
        data = plan.simulate_dataset("pde_refined", n_observations=1,
                                     op_id="data")
        sweep = plan.sweep("pde_initial", dataset=data, op_id="sweep")
        plan.then(sweep, late)
        order = plan.validate()
        assert order.index(data) < order.index(sweep) < order.index(late)


class TestExecution:
    def test_one_op_plan_matches_direct_session_sweep(self, monkeypatch):
        counter = CountingFeasibility(monkeypatch)
        cone = tiny_cone()
        observations = dataset(6)
        with CounterPoint(backend="exact") as pipeline:
            plan = Plan()
            op_id = plan.sweep(cone, observations, explain=True)
            result = pipeline.run(plan)
            engine_sweep = result[op_id]
        reference = AnalysisSession(backend="exact").sweep(
            tiny_cone(), dataset(6), explain=True
        )
        assert engine_sweep.to_dict() == reference.to_dict()
        assert counter.batches == [6, 6]
        assert result.stats["computed"] == 6

    def test_overlapping_plan_computes_each_shared_cell_once(
        self, monkeypatch
    ):
        counter = CountingFeasibility(monkeypatch)
        with CounterPoint(backend="scipy") as pipeline:
            result = pipeline.run(overlap_plan())
        assert counter.total == 8            # the acceptance criterion
        assert result.stats["computed"] == 8
        assert result.stats["cells"] == 8
        assert result.stats["cells_requested"] == 14
        assert result.stats["memo_hits"] == 6
        # The overlapping ops agree cell-for-cell: the standalone sweep
        # equals the compare's and the matrix row's view of it.
        refute = result["refute"]
        assert result["ranking"]["pde_initial"].to_dict() == refute.to_dict()
        matrix_cell = result["matrix"]["pde_refined"]["pde_initial"]
        assert matrix_cell.to_dict() == refute.to_dict()
        assert result["matrix"].diagonal_feasible()

    def test_overlapping_runs_count_only_their_own_cells(self):
        # Two runs share one session, and both compute before either
        # returns: each run's stats still hold only its own cells.
        barrier = threading.Barrier(2, timeout=60)

        class Gated(SerialScheduler):
            def compute(self, session, cone, targets, use_regions, explain):
                verdicts = SerialScheduler.compute(
                    self, session, cone, targets, use_regions, explain
                )
                barrier.wait()
                return verdicts

        plans = {"three": Plan(), "five": Plan()}
        plans["three"].sweep(tiny_cone(), dataset(3), op_id="sweep")
        plans["five"].sweep(tiny_cone(), dataset(5, offset=3), op_id="sweep")
        results = {}
        with CounterPoint(backend="exact") as pipeline:
            pipeline.session()  # built once, before the runs share it

            def run(name):
                results[name] = pipeline.run(plans[name], scheduler=Gated())

            threads = [threading.Thread(target=run, args=(name,)) for name in plans]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert not any(thread.is_alive() for thread in threads)
            assert pipeline.session().stats.tests == 8
        assert results["three"].stats["computed"] == 3
        assert results["five"].stats["computed"] == 5
        for result in results.values():
            assert result.stats["memo_hits"] == result.stats["store_hits"] == 0

    def test_simulated_datasets_surface_in_memory(self):
        with CounterPoint(backend="scipy") as pipeline:
            result = pipeline.run(overlap_plan())
        observations = result.datasets["data"]
        assert len(observations) == 2
        assert [o.name for o in observations] == result["data"].names
        reference = simulate_dataset("pde_refined", 2, n_uops=2000, seed=0)
        assert [o.totals for o in observations] == [o.totals for o in reference]

    def test_pool_scheduler_matches_serial(self):
        with CounterPoint(backend="scipy") as serial:
            serial_result = serial.run(overlap_plan())
        with CounterPoint(backend="scipy", workers=2) as pooled:
            pooled_result = pooled.run(overlap_plan())
        serial_dict = serial_result.to_dict()
        pooled_dict = pooled_result.to_dict()
        # Wall-clock timing legitimately differs between runs; every
        # computed verdict and statistic must not.
        assert serial_dict.pop("timing")["ops"].keys() == \
            pooled_dict.pop("timing")["ops"].keys()
        assert pooled_dict == serial_dict

    def test_explicit_scheduler_override(self, monkeypatch):
        counter = CountingFeasibility(monkeypatch)
        with CounterPoint(backend="exact", workers=2) as pipeline:
            plan = Plan()
            op_id = plan.sweep(tiny_cone(), dataset(4))
            result = pipeline.run(plan, scheduler=SerialScheduler())
        assert counter.batches == [4]        # forced in-process
        assert not result[op_id].feasible

    def test_bundled_dataset_plans_project_counters(self):
        plan = Plan()
        op_id = plan.sweep(
            """
            incr load.causes_walk;
            do LookupPde$;
            switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss };
            done;
            """,
            dataset={"source": "standard", "scale": 0.05},
        )
        with CounterPoint(backend="scipy") as pipeline:
            result = pipeline.run(plan)
        sweep = result[op_id]
        assert sweep.n_observations > 0

    def test_plan_result_mapping_and_round_trip(self):
        with CounterPoint(backend="scipy") as pipeline:
            result = pipeline.run(overlap_plan())
        assert set(result) == {"data", "refute", "ranking", "matrix"}
        assert len(result) == 4
        loaded = result_from_json(result.to_json())
        assert loaded == result
        assert loaded.stats == result.stats
        assert "plan result: 4 ops" in loaded.summary()

    def test_analyze_op_and_report_memoization(self):
        with CounterPoint(backend="exact") as pipeline:
            plan = Plan()
            first = plan.analyze(tiny_cone(), {"a": 3, "b": 9}, explain=True)
            second = plan.analyze(tiny_cone("twin"), {"a": 3, "b": 9},
                                  explain=True)
            result = pipeline.run(plan)
            assert not result[first].feasible
            # Same content, different name: one computation, two reports.
            assert pipeline.session().stats.reports == 1
            assert result[second].model_name == "twin"

    def test_mixed_plans_keep_cell_accounting_exact(self):
        # Analyze ops share the session counters with verdict cells;
        # the plan stats must still satisfy the cell identities the CI
        # pricing check relies on.
        with CounterPoint(backend="exact") as pipeline:
            plan = Plan()
            plan.analyze(tiny_cone(), {"a": 3, "b": 9})
            plan.sweep(tiny_cone(), dataset(1))
            result = pipeline.run(plan)
        assert result.stats["cells"] == 1
        assert result.stats["computed"] == 1          # cells only
        assert result.stats["reports"] == 1           # tracked separately
        assert result.stats["cells_requested"] == (
            result.stats["computed"] + result.stats["memo_hits"]
            + result.stats["store_hits"]
        )

    def test_golden_plan_result_schema_stability(self):
        instance = _golden_plan_result()
        path = os.path.join(GOLDEN_DIR, "plan_result.json")
        with open(path, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        assert instance.to_dict() == golden
        assert result_from_json(json.dumps(golden)) == instance


class TestDryRun:
    def test_dry_run_prices_without_solving(self, monkeypatch):
        counter = CountingFeasibility(monkeypatch)
        with CounterPoint(backend="scipy") as pipeline:
            report = pipeline.plan_engine().dry_run(overlap_plan())
        assert counter.total == 0            # nothing solved
        assert report.tasks["cells"] == 8
        assert report.tasks["simulations"] == 2
        assert report.tasks["cells_requested"] == 14
        assert report.tasks["deduplicated"] == 6
        assert report.cache == {"known_hits": 0, "unknown": 8}

    def test_dry_run_rejects_duplicate_model_names(self):
        plan = Plan()
        plan.cross_refute(dsl_sources(), n_observations=1)
        with CounterPoint(backend="scipy") as pipeline:
            with pytest.raises(AnalysisError, match="duplicate model names"):
                pipeline.plan_engine().dry_run(plan)

    def test_dry_run_estimate_matches_cold_execution(self):
        with CounterPoint(backend="scipy") as pipeline:
            engine = pipeline.plan_engine()
            report = engine.dry_run(overlap_plan())
            result = engine.run(overlap_plan())
        assert report.tasks["cells"] == result.stats["computed"]
        assert report.tasks["cells"] == result.stats["cells"]

    def test_dry_run_probes_the_store_for_inline_cells(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        plan = Plan()
        plan.sweep(tiny_cone(), dataset(5), op_id="sweep")
        with CounterPoint(backend="exact", cache_dir=cache_dir) as warm:
            warm.run(plan)
        with CounterPoint(backend="exact", cache_dir=cache_dir) as cold:
            report = cold.plan_engine().dry_run(plan)
        assert report.cache["known_hits"] == 5
        assert report.cache["unknown"] == 0

    @pytest.mark.parametrize("damage", ["undecodable", "stale_version"])
    def test_dry_run_counts_only_readable_verdicts(self, tmp_path, damage):
        # A stored verdict the run would discard is no known hit, and
        # probing it counts, refreshes and drops nothing.
        cache_dir = str(tmp_path / "cache")
        plan = Plan()
        plan.sweep(tiny_cone(), dataset(4), op_id="sweep")
        with CounterPoint(backend="exact", cache_dir=cache_dir) as warm:
            warm.run(plan)
        root = os.path.join(cache_dir, "artifacts")
        entries = sorted(
            os.path.join(root, name) for name in os.listdir(root)
            if name.startswith("verdict-")
        )
        assert len(entries) == 4
        for path in entries:
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
            if damage == "undecodable":
                envelope["payload"] = {"counters": []}
            else:
                envelope["version"] -= 1
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle)
        stamps = [os.stat(path).st_mtime_ns for path in entries]
        with CounterPoint(backend="exact", cache_dir=cache_dir) as cold:
            report = cold.plan_engine().dry_run(plan)
            store = cold.session().store
            assert (store.hits, store.misses) == (0, 0)
            assert [os.stat(path).st_mtime_ns for path in entries] == stamps
            result = cold.run(plan)
        assert report.cache == {"known_hits": 0, "unknown": 0}
        assert result.stats["computed"] == 4

    def test_dry_run_report_round_trips(self):
        with CounterPoint(backend="scipy") as pipeline:
            report = pipeline.plan_engine().dry_run(overlap_plan())
        loaded = result_from_json(report.to_json())
        assert isinstance(loaded, DryRunReport)
        assert loaded == report
        assert "dry run:" in loaded.summary()


class TestResume:
    def test_fresh_process_resumes_with_zero_recomputation(
        self, tmp_path, monkeypatch
    ):
        cache_dir = str(tmp_path / "cache")
        with CounterPoint(backend="scipy", cache_dir=cache_dir) as warm:
            baseline = warm.run(overlap_plan())
        assert baseline.stats["computed"] == 8

        counter = CountingFeasibility(monkeypatch)
        with CounterPoint(backend="scipy", cache_dir=cache_dir) as cold:
            replay = cold.run(overlap_plan())
        assert counter.total == 0
        assert replay.stats["computed"] == 0
        assert replay.stats["store_hits"] == 8
        # The resumed run's results are identical, stats and wall-clock
        # timing aside.
        baseline_dict = baseline.to_dict()
        replay_dict = replay.to_dict()
        for entry in (baseline_dict, replay_dict):
            entry.pop("stats")
            entry.pop("timing")
        assert replay_dict == baseline_dict

    def test_interrupted_run_re_executes_only_pending_cells(
        self, tmp_path, monkeypatch
    ):
        cache_dir = str(tmp_path / "cache")
        plan = Plan()
        plan.sweep(tiny_cone("alpha"), dataset(3), op_id="first")
        plan.sweep(ModelCone(["a", "b"], [(1, 1)], name="beta"),
                   dataset(3), op_id="second")

        real = session_module.compute_cell_verdicts
        calls = []

        def dies_on_second_batch(cone, targets, **kwargs):
            calls.append(len(list(targets)))
            if len(calls) > 1:
                raise RuntimeError("simulated crash mid-plan")
            return real(cone, targets, **kwargs)

        monkeypatch.setattr(
            session_module, "compute_cell_verdicts", dies_on_second_batch
        )
        with CounterPoint(backend="exact", cache_dir=cache_dir) as victim:
            with pytest.raises(RuntimeError, match="simulated crash"):
                victim.run(plan)
        monkeypatch.setattr(session_module, "compute_cell_verdicts", real)

        counter = CountingFeasibility(monkeypatch)
        with CounterPoint(backend="exact", cache_dir=cache_dir) as resumed:
            result = resumed.run(plan)
        # The first op's cells were persisted before the crash; only
        # the second op's three cells execute on resume.
        assert counter.total == 3
        assert result.stats["computed"] == 3
        assert result.stats["store_hits"] == 3


def reference_cross_refute(pipeline, models, n_observations, n_uops, seed=0):
    """The closed-loop matrix by its definition, outside the plan
    engine: row ``r`` simulates its model from ``seed + 1000 * r``,
    every candidate's cone takes that row's counter ordering, and each
    cell comes from :meth:`AnalysisSession.sweep`."""
    session = AnalysisSession(pipeline=pipeline)
    mudds = [as_mudd(model) for model in models]
    rows = {}
    for row, observed in enumerate(mudds):
        observations = simulate_dataset(
            observed, n_observations, n_uops=n_uops, seed=seed + 1000 * row
        )
        counters = observations[0].samples.counters
        rows[observed.name] = CompareResult({
            candidate.name: session.sweep(
                pipeline.model_cone(candidate, counters=counters),
                observations,
            )
            for candidate in mudds
        })
    return RefutationMatrix(rows)


class TestFacadeEquivalence:
    """Every plan-engine-routed facade call is bit-for-bit identical to
    a reference built from the session's two memoized units, sweep and
    analyze, outside the engine."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_compare_analyze_match(self, workers):
        observations = simulate_dataset("pde_refined", 3, n_uops=2000)
        candidate = load_bundled_model("pde_initial")
        counters = observations[0].samples.counters

        with CounterPoint(backend="scipy", workers=workers) as facade:
            cone = facade.model_cone(candidate, counters=counters)
            new_sweep = facade.sweep(cone, observations, explain=True)
            new_compare = facade.compare([cone], observations, explain=True)
            new_report = facade.analyze(cone, observations[0].point())

        with CounterPoint(backend="scipy", workers=workers) as reference:
            session = AnalysisSession(pipeline=reference)
            cone = reference.model_cone(candidate, counters=counters)
            old_sweep = session.sweep(cone, observations, explain=True)
            old_compare = CompareResult(
                [session.sweep(cone, observations, explain=True)]
            )
            old_report = session.analyze(cone, observations[0].point())

        assert new_sweep.to_dict() == old_sweep.to_dict()
        assert new_compare.to_dict() == old_compare.to_dict()
        assert new_report.to_dict() == old_report.to_dict()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cross_refute_matches(self, workers):
        models = ["pde_refined", "pde_initial"]
        with CounterPoint(backend="scipy", workers=workers) as facade:
            new_matrix = facade.cross_refute(
                models, n_observations=2, n_uops=2000
            )
        with CounterPoint(backend="scipy", workers=workers) as reference:
            old_matrix = reference_cross_refute(
                reference, models, n_observations=2, n_uops=2000
            )
        assert new_matrix.to_dict() == old_matrix.to_dict()

    def test_region_sweep_matches(self):
        observations = simulate_dataset("pde_refined", 2, n_uops=2000)
        candidate = load_bundled_model("pde_refined")
        counters = observations[0].samples.counters
        with CounterPoint(backend="scipy") as facade:
            cone = facade.model_cone(candidate, counters=counters)
            new_sweep = facade.sweep(cone, observations, use_regions=True)
        with CounterPoint(backend="scipy") as reference:
            cone = reference.model_cone(candidate, counters=counters)
            old_sweep = AnalysisSession(pipeline=reference).sweep(
                cone, observations, use_regions=True
            )
        assert new_sweep.to_dict() == old_sweep.to_dict()

    def test_facade_stats_flow_through_the_shared_session(self):
        with CounterPoint(backend="exact") as pipeline:
            cone = tiny_cone()
            pipeline.sweep(cone, dataset(4))
            assert pipeline.session().stats.tests == 4
            pipeline.sweep(cone, dataset(5))       # one new cell
            assert pipeline.session().stats.tests == 5
            assert pipeline.session().stats.memo_hits == 4


class TestCommittedExamplePlan:
    PATH = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "examples", "plans", "closed_loop.json",
    )

    def load(self):
        with open(self.PATH, "r", encoding="utf-8") as handle:
            return Plan.from_json(handle.read())

    def test_loads_and_prices_as_documented(self):
        plan = self.load()
        with CounterPoint(backend="scipy") as pipeline:
            report = pipeline.plan_engine().dry_run(plan)
        # The CI workflow asserts dry-run cells == executed computed;
        # this pins the numbers the workflow relies on.
        assert report.tasks["cells"] == 8
        assert report.tasks["simulations"] == 2
        assert report.tasks["deduplicated"] == 6

    def test_executes_end_to_end(self):
        plan = self.load()
        with CounterPoint(backend="scipy") as pipeline:
            result = pipeline.run(plan)
        assert result.stats["computed"] == 8
        assert result["matrix"].diagonal_feasible()
        assert "pde_refined" in result["ranking"].feasible_models


class TestRetiredSimBackendField:
    """Plans once carried a ``sim_backend`` execution hint on
    ``simulate_dataset`` ops. The simulation engine is no longer an
    option, so a saved op's field is ignored, while the inline
    ``{"simulate": {...}}`` form rejects it as an unknown option."""

    #: Written by an earlier ``Plan.to_json`` with
    #: ``simulate_dataset(..., sim_backend="codegen")``.
    SAVED = (
        '{"kind": "plan", "ops": [{"after": [], "id": "data", '
        '"model": "pde_refined", "n_observations": 2, "n_uops": 2000, '
        '"noisy": false, "op": "simulate_dataset", "seed": 0, '
        '"sim_backend": "codegen", "weights": null}, {"after": [], '
        '"correlated": true, "dataset": {"ref": "data"}, "explain": true, '
        '"id": "refute", "model": "pde_initial", "op": "sweep", '
        '"use_regions": false}], "schema": 1}'
    )

    @staticmethod
    def _bundle(plan):
        with CounterPoint(backend="exact") as pipeline:
            result = pipeline.run(plan)
        return PlanResult(dict(result.items())).to_json(indent=2)

    def test_saved_op_field_changes_nothing(self):
        saved = json.loads(self.SAVED)
        del saved["ops"][0]["sim_backend"]
        without = Plan.from_json(json.dumps(saved))
        assert self._bundle(Plan.from_json(self.SAVED)) == \
            self._bundle(without)

    def test_inline_simulate_spec_rejects_it(self):
        plan = Plan()
        plan.sweep("pde_initial", dataset={"simulate": {
            "model": "pde_refined", "n_observations": 1, "n_uops": 500,
            "sim_backend": "codegen",
        }})
        with CounterPoint(backend="exact") as pipeline:
            with pytest.raises(
                AnalysisError,
                match="unknown simulate-dataset options sim_backend",
            ):
                pipeline.run(plan)


class TestErrorCollection:
    """PlanEngine.run(collect_errors=True): structured per-op job
    errors (op id, cells, exception repr) without aborting the run —
    the partial-failure contract the serve daemon reports through.
    The default path keeps the historic raise-first behaviour."""

    @staticmethod
    def _failing_feasibility(monkeypatch, bad_cone_name):
        real = session_module.test_points_feasibility

        def wrapper(cone, targets, backend="exact", **kwargs):
            if cone.name == bad_cone_name:
                raise RuntimeError("LP backend exploded on %s" % cone.name)
            return real(cone, targets, backend=backend, **kwargs)

        monkeypatch.setattr(
            session_module, "test_points_feasibility", wrapper
        )

    @staticmethod
    def _two_op_plan():
        plan = Plan()
        plan.sweep(tiny_cone("boom"), dataset(3), op_id="fails")
        plan.sweep(tiny_cone("fine"), dataset(3, offset=10), op_id="works")
        return plan

    def test_default_path_still_raises_first(self, monkeypatch):
        self._failing_feasibility(monkeypatch, "boom")
        with CounterPoint(backend="exact") as pipeline:
            with pytest.raises(RuntimeError, match="exploded"):
                pipeline.run(self._two_op_plan())

    def test_collect_errors_records_and_continues(self, monkeypatch):
        self._failing_feasibility(monkeypatch, "boom")
        with CounterPoint(backend="exact") as pipeline:
            result = pipeline.run(self._two_op_plan(), collect_errors=True)
        # The healthy op still executed; the failed one is absent from
        # the results but present, structured, on .errors.
        assert set(result) == {"works"}
        assert not result["works"].feasible
        (entry,) = result.errors
        assert entry["op"] == "fails"
        assert entry["kind"] == "sweep"
        assert len(entry["cells"]) == 3        # every affected cell key
        assert all(isinstance(key, str) for key in entry["cells"])
        assert "exploded" in entry["error"]
        assert "1 op(s) FAILED" in result.summary()

    def test_errors_round_trip_and_empty_is_omitted(self, monkeypatch):
        self._failing_feasibility(monkeypatch, "boom")
        with CounterPoint(backend="exact") as pipeline:
            failed = pipeline.run(self._two_op_plan(), collect_errors=True)
            clean = pipeline.run(_clean_plan())
        loaded = result_from_json(failed.to_json())
        assert loaded.errors == failed.errors
        # No errors -> no key: pre-existing goldens and readers are
        # unaffected.
        assert "errors" not in clean.to_dict()

    def test_failed_simulation_is_reported_as_root_cause(
        self, monkeypatch
    ):
        import repro.sim as sim_module

        def sim_dies(*args, **kwargs):
            raise RuntimeError("simulator segfaulted")

        monkeypatch.setattr(sim_module, "simulate_dataset", sim_dies)
        plan = Plan()
        data = plan.simulate_dataset("pde_refined", n_observations=2,
                                     n_uops=2000, seed=0, op_id="data")
        plan.sweep("pde_initial", dataset=data, explain=True, op_id="sweep")
        with CounterPoint(backend="scipy") as pipeline:
            result = pipeline.run(plan, collect_errors=True)
        assert len(result) == 0
        errors = {entry["op"]: entry for entry in result.errors}
        assert set(errors) == {"data", "sweep"}
        # The downstream sweep's KeyError is replaced by the upstream
        # simulation failure — the actual root cause.
        assert "segfaulted" in errors["data"]["error"]
        assert "segfaulted" in errors["sweep"]["error"]

    def test_cancellation_propagates_even_when_collecting(
        self, monkeypatch
    ):
        from repro.errors import JobCancelled

        def cancelled(*args, **kwargs):
            raise JobCancelled("cancelled mid-batch")

        monkeypatch.setattr(
            session_module, "test_points_feasibility", cancelled
        )
        plan = Plan()
        plan.sweep(tiny_cone(), dataset(2), op_id="only")
        with CounterPoint(backend="exact") as pipeline:
            with pytest.raises(JobCancelled):
                pipeline.run(plan, collect_errors=True)


def _clean_plan():
    plan = Plan()
    plan.sweep(tiny_cone(), dataset(2), op_id="only")
    return plan


# -- golden fixtures ---------------------------------------------------------

def _golden_plan_result():
    """Deterministic PlanResult instance pinning the bundle schema."""
    refuted = ModelSweep("pde_initial", ["sim:pde_refined/run1"], 2)
    feasible = ModelSweep("pde_refined", [], 2)
    comparison = CompareResult({
        "pde_refined": feasible,
        "pde_initial": refuted,
    })
    summary = DatasetSummary(
        "pde_refined",
        ["sim:pde_refined/run0", "sim:pde_refined/run1"],
        2000,
        0,
    )
    stats = {
        "simulations": 1,
        "cells": 4,
        "cells_requested": 6,
        "deduplicated": 2,
        "computed": 4,
        "memo_hits": 2,
        "store_hits": 0,
        "reports": 0,
        "report_hits": 0,
    }
    return PlanResult(
        [("data", summary), ("ranking", comparison)], stats=stats
    )


def _regenerate_goldens():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, instance in (
        ("plan", overlap_plan()),
        ("plan_result", _golden_plan_result()),
    ):
        path = os.path.join(GOLDEN_DIR, "%s.json" % name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(instance.to_json(indent=2))
            handle.write("\n")
        print("wrote %s" % path)


if __name__ == "__main__":
    import sys

    if len(sys.argv) > 1 and sys.argv[1] == "regen":
        _regenerate_goldens()
