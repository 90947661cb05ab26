"""Tests for the repro.sim trace-driven µDD execution engine."""

import numpy as np
import pytest

from repro.cone import ModelCone
from repro.cone import test_point_feasibility as point_feasibility
from repro.cone import test_region_feasibility as region_feasibility
from repro.errors import AnalysisError, SimulationError
from repro.models import M_SERIES
from repro.models.bundled import bundled_model_source, load_bundled_model
from repro.models.haswell import ALL_COUNTERS, build_haswell_mudd
from repro.mudd import signature_matrix
from repro.pipeline import CounterPoint
from repro.sim import (
    MMUOracle,
    MuDDExecutor,
    RandomOracle,
    TableOracle,
    batch_simulate,
    closed_loop,
    default_multiplexer,
    expected_totals,
    path_distribution,
    simulate_interval_matrix,
    simulate_observation,
    trace_observation,
)
from repro.workloads import LinearAccessWorkload, RandomAccessWorkload
from repro.workloads.trace import TraceWorkload, format_trace

MERGE_WEIGHTS = {"Merged": {"Yes": 3.0, "No": 1.0}}


class TestExecutor:
    def test_deterministic_with_seed(self):
        mudd = load_bundled_model("merging_load_side")
        runs = []
        for _ in range(2):
            executor = MuDDExecutor(mudd)
            executor.run(RandomOracle(seed=42, weights=MERGE_WEIGHTS), [None] * 2000)
            runs.append(executor.snapshot())
        assert runs[0] == runs[1]
        other = MuDDExecutor(mudd)
        other.run(RandomOracle(seed=43, weights=MERGE_WEIGHTS), [None] * 2000)
        assert other.snapshot() != runs[0]

    def test_counter_conservation(self):
        """Executed totals are a sum of µpath signatures, hence always
        inside the generating model's cone (exactly feasible)."""
        mudd = load_bundled_model("merging_load_side")
        executor = MuDDExecutor(mudd)
        totals = executor.run(RandomOracle(seed=1, weights=MERGE_WEIGHTS), [None] * 3000)
        assert totals["load.causes_walk"] == totals["load.walk_done"]
        cone = ModelCone.from_mudd(mudd)
        assert point_feasibility(cone, totals, backend="exact").feasible

    def test_scripted_table_oracle(self):
        mudd = load_bundled_model("pde_initial")
        executor = MuDDExecutor(mudd)
        totals = executor.run(TableOracle({"Pde$Status": "Miss"}), [None] * 50)
        assert totals == {"load.causes_walk": 50, "load.pde$_miss": 50}
        assert executor.n_uops == 50
        # A callable entry scripts per-µop choices; unknown properties
        # go to the fallback.
        every_third = TableOracle({
            "Pde$Status": lambda op, values: "Hit" if op % 3 else "Miss",
        })
        totals = MuDDExecutor(mudd).run(every_third, range(30))
        assert totals == {"load.causes_walk": 30, "load.pde$_miss": 10}
        chained = TableOracle({}, fallback=TableOracle({"Pde$Status": "Miss"}))
        totals = MuDDExecutor(mudd).run(chained, range(5))
        assert totals == {"load.causes_walk": 5, "load.pde$_miss": 5}

    def test_bad_branch_value_rejected(self):
        mudd = load_bundled_model("pde_initial")
        executor = MuDDExecutor(mudd)
        with pytest.raises(SimulationError):
            executor.run_uop(TableOracle({"Pde$Status": "Probably"}))

    def test_run_intervals_sum_to_totals(self):
        mudd = load_bundled_model("no_merging_load_side")
        executor = MuDDExecutor(mudd)
        deltas = list(
            executor.run_intervals(RandomOracle(seed=5), [None] * 950, 100)
        )
        assert len(deltas) == 10  # 9 full intervals + the 50-µop tail
        summed = {
            name: sum(delta[name] for delta in deltas)
            for name in executor.counters
        }
        assert summed == executor.snapshot()

    def test_counter_ordering_override(self):
        mudd = load_bundled_model("pde_initial")
        executor = MuDDExecutor(mudd, counters=["load.pde$_miss", "absent.counter"])
        totals = executor.run(TableOracle({"Pde$Status": "Miss"}), [None] * 4)
        assert totals == {"load.pde$_miss": 4, "absent.counter": 0}


class TestMMUOracle:
    def test_m_series_execution_is_self_feasible(self):
        """The closed-loop invariant on the full vocabulary: executing
        m4 against matching devices traces only genuine µpaths, so the
        totals land inside m4's cone."""
        mudd = build_haswell_mudd(M_SERIES["m4"], name="m4")
        oracle = MMUOracle.for_features(M_SERIES["m4"])
        executor = MuDDExecutor(mudd, counters=ALL_COUNTERS)
        workload = LinearAccessWorkload(8 * 1024 * 1024, stride=64, load_store_ratio=0.9)
        totals = executor.run(oracle, workload.ops(3000))
        assert totals["load.ret"] > 0
        assert totals["load.causes_walk"] > 0
        cone = ModelCone.from_mudd(mudd, counters=ALL_COUNTERS)
        assert point_feasibility(cone, totals, backend="scipy").feasible

    def test_prefetcher_injects_uops(self):
        """Stride-64 ascending loads cross the 51/52 trigger pair, so
        the oracle injects TlbPrefetch µops beyond the trace length."""
        mudd = build_haswell_mudd(M_SERIES["m4"], name="m4")
        oracle = MMUOracle.for_features(M_SERIES["m4"])
        executor = MuDDExecutor(mudd, counters=ALL_COUNTERS)
        workload = LinearAccessWorkload(4 * 1024 * 1024, stride=64)
        executor.run(oracle, workload.ops(2000))
        assert executor.n_uops > 2000

    def test_trace_replay_is_deterministic(self):
        """Replaying a recorded trace file reproduces the totals of the
        live workload run (fresh oracle, same seed)."""
        mudd = build_haswell_mudd(M_SERIES["m2"], name="m2")
        workload = RandomAccessWorkload(2 * 1024 * 1024, seed=9)
        text = format_trace(workload.ops(1500))

        def run(uop_source):
            executor = MuDDExecutor(mudd, counters=ALL_COUNTERS)
            executor.run(MMUOracle.for_features(M_SERIES["m2"]), uop_source)
            return executor.snapshot()

        direct = run(workload.ops(1500))
        replayed = run(TraceWorkload(text.splitlines()).ops(1500))
        assert direct == replayed

    def test_trigger_model_inline_prefetch(self):
        """t-series models attach prefetches to the triggering µop's own
        path (a PfIssued switch) — nothing is injected, and the run
        stays inside the model's cone."""
        from repro.models import T_SERIES
        from repro.models.prefetch_triggers import build_trigger_mudd

        mudd = build_trigger_mudd(T_SERIES["t0"], name="t0")
        oracle = MMUOracle.for_features(M_SERIES["m4"])
        executor = MuDDExecutor(mudd, counters=ALL_COUNTERS)
        workload = LinearAccessWorkload(4 * 1024 * 1024, stride=64, load_store_ratio=0.9)
        totals = executor.run(oracle, workload.ops(800))
        assert executor.n_uops == 800  # inline: no standalone prefetch µops
        cone = ModelCone.from_mudd(mudd, counters=ALL_COUNTERS)
        assert point_feasibility(cone, totals, backend="scipy").feasible

    def test_abort_model_executes(self):
        """a-series vocabulary (ReqAbort*/WalkAborted/AbRefMix) resolves
        — unknown abort-count properties fall back to the seeded RNG."""
        from repro.models import A_SERIES
        from repro.models.aborts import build_abort_mudd

        mudd = build_abort_mudd(A_SERIES["a1"], name="a1")
        executor = MuDDExecutor(mudd, counters=ALL_COUNTERS)
        totals = executor.run(
            MMUOracle.for_features(M_SERIES["m4"]),
            LinearAccessWorkload(2 * 1024 * 1024, stride=64).ops(500),
        )
        assert totals["load.ret"] > 0

    def test_trace_observation_builds_sample_matrix(self):
        mudd = load_bundled_model("walk_refs_4k")
        oracle = MMUOracle.for_features(set())
        workload = RandomAccessWorkload(4 * 1024 * 1024, seed=3)
        observation = trace_observation(mudd, oracle, workload, 1000, n_intervals=5)
        assert observation.samples.n_samples == 5
        totals = observation.point()
        refs = sum(totals["walk_ref.%s" % level] for level in ("l1", "l2", "l3", "mem"))
        assert refs == 1000 + totals["load.pde$_miss"]

    def test_trace_observation_keeps_equal_intervals(self):
        """As in simulate_observation, the samples are n_intervals
        intervals of n_uops // n_intervals µops; the remainder counts in
        the totals only."""
        mudd = load_bundled_model("walk_refs_4k")
        workload = RandomAccessWorkload(4 * 1024 * 1024, seed=3)
        for n_uops, n_intervals in ((1000, 3), (1003, 5)):
            observation = trace_observation(
                mudd, MMUOracle.for_features(set()), workload, n_uops, n_intervals=n_intervals
            )
            samples = observation.samples
            assert samples.n_samples == n_intervals
            # walk_refs_4k makes one walker load per µop, plus one per
            # PDE-cache miss.
            truth = dict(zip(samples.counters, samples.truth.T))
            refs = sum(truth["walk_ref.%s" % level] for level in ("l1", "l2", "l3", "mem"))
            per_interval = refs - truth["load.pde$_miss"]
            assert per_interval.tolist() == [n_uops // n_intervals] * n_intervals
            executor = MuDDExecutor(mudd)
            executor.run(MMUOracle.for_features(set()), workload.ops(n_uops))
            assert observation.point() == executor.snapshot()

    def test_trace_observation_needs_full_intervals(self):
        workload = RandomAccessWorkload(4 * 1024 * 1024, seed=3)
        with pytest.raises(SimulationError, match="1 µops cannot fill 5 intervals"):
            trace_observation(
                "walk_refs_4k", MMUOracle.for_features(set()), workload, 1, n_intervals=5
            )
        # A 450-access trace cannot fill five 200-µop intervals.
        trace = TraceWorkload(format_trace(workload.ops(450)).splitlines())
        with pytest.raises(SimulationError, match="ran out after 450 µops"):
            trace_observation(
                "walk_refs_4k", MMUOracle.for_features(set()), trace, 1000, n_intervals=5
            )


class TestBatch:
    def test_distribution_matches_signature_matrix(self):
        mudd = load_bundled_model("merging_load_side")
        counters, signatures = signature_matrix(mudd)
        names, matrix, probabilities = path_distribution(mudd)
        assert names == counters
        assert sorted(map(tuple, matrix)) == sorted(map(tuple, signatures.tolist()))
        assert probabilities.min() > 0
        assert abs(probabilities.sum() - 1.0) < 1e-12

    def test_batch_deterministic_and_seed_sensitive(self):
        mudd = load_bundled_model("pde_refined")
        first = batch_simulate(mudd, 5000, n_traces=4, seed=11)
        second = batch_simulate(mudd, 5000, n_traces=4, seed=11)
        third = batch_simulate(mudd, 5000, n_traces=4, seed=12)
        assert np.array_equal(first.totals, second.totals)
        assert not np.array_equal(first.totals, third.totals)

    def test_batch_mean_converges_to_expectation(self):
        mudd = load_bundled_model("merging_load_side")
        result = batch_simulate(
            mudd, 10000, n_traces=300, weights=MERGE_WEIGHTS, seed=0
        )
        expected = expected_totals(mudd, 10000, weights=MERGE_WEIGHTS)
        for name, mean in result.mean().items():
            assert mean == pytest.approx(expected[name], rel=0.05)

    def test_every_batched_trace_is_self_feasible(self):
        mudd = load_bundled_model("pde_refined")
        cone = ModelCone.from_mudd(mudd)
        result = batch_simulate(mudd, 2000, n_traces=10, seed=4)
        for trace in range(result.n_traces):
            verdict = point_feasibility(cone, result.observation(trace), backend="exact")
            assert verdict.feasible

    def test_model_sweep_batch(self):
        models = [
            load_bundled_model("merging_load_side"),
            load_bundled_model("no_merging_load_side"),
        ]
        results = batch_simulate(models, 1000, n_traces=3, seed=1)
        assert set(results) == {"merging_load_side", "no_merging_load_side"}
        assert results["merging_load_side"].n_traces == 3


class TestNoiseStage:
    def test_noise_keeps_ground_truth(self):
        mudd = load_bundled_model("merging_load_side")
        samples = simulate_interval_matrix(
            mudd, 40, 2000, weights=MERGE_WEIGHTS, seed=2,
            multiplexer=default_multiplexer(seed=2),
        )
        truth = samples.true_totals()
        assert truth["load.causes_walk"] == truth["load.walk_done"]
        # Scale estimation is noisy but unbiased enough that the noisy
        # mean tracks the per-interval truth.
        noisy_mean = samples.mean_observation()
        for name, value in truth.items():
            assert noisy_mean[name] * samples.n_samples == pytest.approx(
                value, rel=0.15
            )

    def test_noisy_region_round_trip(self):
        """The full stats path: noisy multiplexed samples of model X
        summarised as a confidence region stay feasible for X."""
        mudd = load_bundled_model("merging_load_side")
        samples = simulate_interval_matrix(
            mudd, 60, 1500, weights=MERGE_WEIGHTS, seed=7,
            multiplexer=default_multiplexer(seed=7),
        )
        region = samples.confidence_region(confidence=0.99, correlated=True)
        cone = ModelCone.from_mudd(mudd)
        assert region_feasibility(cone, region, backend="scipy").feasible

    def test_simulate_observation_shape(self):
        observation = simulate_observation(
            "pde_refined", n_uops=4096, n_intervals=16, seed=3, noisy=True
        )
        assert observation.samples.n_samples == 16
        totals = observation.point()
        assert sum(totals.values()) > 0
        assert all(isinstance(value, int) for value in totals.values())


class TestClosedLoop:
    """The acceptance demo: simulate model X, refute model Y."""

    def test_merging_pair(self):
        reports = closed_loop(
            "merging_load_side",
            ["merging_load_side", "no_merging_load_side"],
            n_uops=6000,
            weights=MERGE_WEIGHTS,
            seed=0,
        )
        assert reports["merging_load_side"].feasible
        assert not reports["no_merging_load_side"].feasible
        assert reports["no_merging_load_side"].violations

    def test_pde_pair(self):
        weights = {
            "Merged": {"Yes": 3.0, "No": 1.0},
            "Pde$Status": {"Miss": 3.0, "Hit": 1.0},
        }
        reports = closed_loop(
            "pde_refined",
            ["pde_refined", "pde_initial"],
            n_uops=6000,
            weights=weights,
            seed=1,
        )
        assert reports["pde_refined"].feasible
        assert not reports["pde_initial"].feasible

    def test_duplicate_candidate_names_rejected_before_simulating(
        self, monkeypatch
    ):
        import repro.sim.scenarios as scenarios

        def no_simulation(*args, **kwargs):
            raise AssertionError("closed_loop simulated before rejecting")

        monkeypatch.setattr(scenarios, "simulate_observation", no_simulation)
        # Every DSL source is named "model": two of them would share
        # one report slot, so a refuted candidate could vanish.
        sources = [
            bundled_model_source("pde_refined"),
            bundled_model_source("pde_initial"),
        ]
        with pytest.raises(AnalysisError, match="duplicate model names"):
            closed_loop("pde_refined", sources, n_uops=2000)

    def test_cross_refute_matrix(self):
        counterpoint = CounterPoint(backend="exact")
        matrix = counterpoint.cross_refute(
            ["merging_load_side", "no_merging_load_side"],
            n_observations=2,
            n_uops=4000,
            weights=MERGE_WEIGHTS,
        )
        # Diagonal: every model explains its own synthetic data.
        for name, row in matrix.items():
            assert row[name].feasible, name
        # Off-diagonal: merging behaviour refutes the no-merging model.
        assert not matrix["merging_load_side"]["no_merging_load_side"].feasible
        # A merging model *can* explain no-merging data (merging is the
        # strictly more permissive cone).
        assert matrix["no_merging_load_side"]["merging_load_side"].feasible

    def test_pipeline_simulate_facade(self):
        counterpoint = CounterPoint()
        observation = counterpoint.simulate(
            "merging_load_side", n_uops=2000, weights=MERGE_WEIGHTS, seed=9
        )
        report = counterpoint.analyze(
            counterpoint.model_cone(load_bundled_model("merging_load_side")),
            observation.point(),
        )
        assert report.feasible
