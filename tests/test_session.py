"""AnalysisSession: incremental re-analysis and verdict memoization.

The headline contracts, asserted with real call counters:

* appending **one** observation to a warmed 100-observation sweep runs
  **exactly one** new feasibility test;
* a fresh session warmed from the same artifact store re-runs **zero**;
* appending one model to a cross-refutation matrix re-tests only the
  new row and column;
* parallel sessions produce results identical (to_dict-level) to
  serial ones, refutation evidence included.
"""

import pytest

import repro.results.session as session_module
from repro.cone import ModelCone
from repro.models.bundled import load_bundled_model
from repro.pipeline import CounterPoint
from repro.results import AnalysisSession, ArtifactStore
from repro.results.store import content_key
from repro.sim import simulate_dataset


class Obs:
    """Minimal observation-shaped object (name + exact totals)."""

    def __init__(self, name, point):
        self.name = name
        self._point = dict(point)

    def point(self):
        return dict(self._point)


def tiny_cone():
    # Generators (1,0) and (1,1): feasible iff 0 <= b <= a.
    return ModelCone(["a", "b"], [(1, 0), (1, 1)], name="tiny")


def dataset(n, offset=0):
    # Every third observation violates b <= a.
    return [
        Obs("o%03d" % index,
            {"a": 5 + index, "b": (9 + index if index % 3 == 0 else 2)})
        for index in range(offset, offset + n)
    ]


class CountingFeasibility:
    """Wraps the LP entry point the session computes through, counting
    how many observations are actually tested."""

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


class TestIncrementalSweep:
    def test_appending_one_observation_tests_exactly_one(self, monkeypatch):
        counter = CountingFeasibility(monkeypatch)
        session = AnalysisSession(backend="exact")
        cone = tiny_cone()
        observations = dataset(100)

        first = session.sweep(cone, observations)
        assert session.stats.tests == 100
        assert counter.batches == [100]
        assert first.n_observations == 100

        grown = observations + dataset(1, offset=100)
        second = session.sweep(cone, grown)
        assert session.stats.tests == 101          # exactly 1 new test
        assert counter.batches == [100, 1]         # and only 1 LP cell
        assert second.n_observations == 101
        # The memoized prefix is identical to the fresh sweep's.
        assert second.infeasible_names[:first.n_infeasible] == first.infeasible_names

    def test_warmed_session_reloaded_from_disk_reruns_zero(
        self, tmp_path, monkeypatch
    ):
        cone = tiny_cone()
        observations = dataset(40)
        store_dir = str(tmp_path / "artifacts")

        warm = AnalysisSession(store=store_dir, backend="exact")
        baseline = warm.sweep(cone, observations)
        assert warm.stats.tests == 40

        counter = CountingFeasibility(monkeypatch)
        cold = AnalysisSession(store=store_dir, backend="exact")
        replay = cold.sweep(cone, observations)
        assert cold.stats.tests == 0               # zero re-runs
        assert counter.total == 0
        assert cold.stats.store_hits == 40
        assert replay.to_dict() == baseline.to_dict()

    def test_memo_is_content_addressed_not_name_addressed(self):
        session = AnalysisSession(backend="exact")
        cone = tiny_cone()
        session.sweep(cone, [Obs("first-name", {"a": 5, "b": 2})])
        assert session.stats.tests == 1
        # Same content, different run name: still a hit.
        session.sweep(cone, [Obs("second-name", {"a": 5, "b": 2})])
        assert session.stats.tests == 1
        assert session.stats.memo_hits == 1

    def test_explain_uses_a_separate_keyspace(self):
        session = AnalysisSession(backend="exact")
        cone = tiny_cone()
        observations = dataset(6)
        plain = session.sweep(cone, observations)
        assert session.stats.tests == 6
        explained = session.sweep(cone, observations, explain=True)
        assert session.stats.tests == 12
        assert plain.infeasible_names == explained.infeasible_names
        # Guaranteed evidence in explain mode.
        for name in explained.infeasible_names:
            assert explained.why[name] is not None

    def test_region_mode_memoizes_by_sample_content(self):
        observations = simulate_dataset("pde_refined", 2, n_uops=2000)
        session = AnalysisSession(backend="exact")
        cone = session.pipeline.model_cone(
            load_bundled_model("pde_refined"),
            counters=observations[0].samples.counters,
        )
        session.sweep(cone, observations, use_regions=True)
        assert session.stats.tests == 2
        session.sweep(cone, observations, use_regions=True)
        assert session.stats.tests == 2
        # Independent-baseline regions are distinct content.
        session.sweep(cone, observations, use_regions=True, correlated=False)
        assert session.stats.tests == 4


class TestIncrementalCrossRefute:
    def test_appending_one_model_tests_only_new_cells(self):
        counterpoint = CounterPoint(backend="scipy")
        session = counterpoint.session()
        small = counterpoint.cross_refute(
            ["pde_initial"], n_observations=2, n_uops=2000
        )
        assert small.diagonal_feasible()
        cells_one = session.stats.tests
        assert cells_one == 2  # 1 row x 1 candidate x 2 observations

        grown = counterpoint.cross_refute(
            ["pde_initial", "pde_refined"], n_observations=2, n_uops=2000
        )
        assert grown.diagonal_feasible()
        # 2x2x2 = 8 cells total; the warmed 2 are not re-tested.
        assert session.stats.tests == 8 - 2 + cells_one
        assert (
            grown["pde_initial"]["pde_initial"].to_dict()
            == small["pde_initial"]["pde_initial"].to_dict()
        )


class TestSerialParallelEquality:
    def test_sweep_with_evidence_matches_bit_for_bit(self):
        observations = simulate_dataset("pde_refined", 4, n_uops=2000)
        candidate = load_bundled_model("pde_initial")
        counters = observations[0].samples.counters

        with CounterPoint(backend="scipy") as serial, \
                CounterPoint(backend="scipy", workers=2) as pooled:
            serial_sweep = serial.sweep(
                serial.model_cone(candidate, counters=counters),
                observations, explain=True,
            )
            pooled_sweep = pooled.sweep(
                pooled.model_cone(candidate, counters=counters),
                observations, explain=True,
            )
        assert serial_sweep.to_dict() == pooled_sweep.to_dict()
        assert not serial_sweep.feasible  # the interesting case

    def test_parallel_session_only_ships_pending_cells(self, monkeypatch):
        shipped = []
        from repro.parallel import tasks as tasks_module

        real = tasks_module.dispatch_verdicts

        def wrapper(runner, cone, targets, **kwargs):
            shipped.append(len(list(targets)))
            return real(runner, cone, targets, **kwargs)

        # The pool scheduler imports dispatch_verdicts lazily from the
        # module, so patching the module attribute is sufficient.
        monkeypatch.setattr(tasks_module, "dispatch_verdicts", wrapper)
        with CounterPoint(backend="exact", workers=2) as counterpoint:
            cone = tiny_cone()
            observations = dataset(10)
            counterpoint.sweep(cone, observations)
            counterpoint.sweep(cone, observations + dataset(2, offset=10))
        assert shipped == [10, 2]


class TestAnalyzeMemoization:
    def test_report_with_violations_survives_the_store(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        infeasible = {"a": 3, "b": 9}

        with CounterPoint(backend="exact", cache_dir=cache_dir) as first:
            report = first.analyze(tiny_cone(), infeasible, explain=True)
            assert not report.feasible
            assert report.violations
            assert first.session().stats.tests == 1

        with CounterPoint(backend="exact", cache_dir=cache_dir) as second:
            replay = second.analyze(tiny_cone(), infeasible, explain=True)
            assert second.session().stats.tests == 0
            assert second.session().stats.store_hits == 1
        assert replay.to_dict() == report.to_dict()


    def test_memo_hit_returns_an_independent_relabeled_copy(self):
        session = AnalysisSession(backend="exact")
        alpha = ModelCone(["a", "b"], [(1, 0), (1, 1)], name="alpha")
        beta = ModelCone(["a", "b"], [(1, 0), (1, 1)], name="beta")
        infeasible = {"a": 3, "b": 9}
        first = session.analyze(alpha, infeasible)
        second = session.analyze(beta, infeasible)  # same content key
        # The earlier caller's report must not be renamed under them.
        assert first.model_name == "alpha"
        assert second.model_name == "beta"
        assert first is not second
        assert session.stats.tests == 1


class TestArtifactStore:
    def test_round_trip_and_counters(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = content_key("demo", 1)
        assert store.get("verdict", key) is None
        store.put("verdict", key, {"feasible": True})
        assert store.get("verdict", key) == {"feasible": True}
        assert store.hits == 1 and store.misses == 1
        assert store.contains("verdict", key)
        assert len(store) == 1

    def test_version_mismatch_is_a_miss_and_discards(self, tmp_path):
        old = ArtifactStore(tmp_path, version=1)
        key = content_key("x")
        old.put("verdict", key, {"feasible": False})
        new = ArtifactStore(tmp_path, version=2)
        assert new.get("verdict", key) is None
        assert not new.contains("verdict", key)  # stale file removed

    def test_corruption_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = content_key("y")
        store.put("verdict", key, {"feasible": True})
        path = store._path("verdict", key)
        with open(path, "wb") as handle:
            handle.write(b"\x00garbage")
        assert store.get("verdict", key) is None

    def test_lru_byte_cap_evicts_oldest(self, tmp_path):
        import os
        import time

        store = ArtifactStore(tmp_path)
        keys = [content_key("k", index) for index in range(6)]
        now = time.time()
        for index, key in enumerate(keys):
            store.put("verdict", key, {"payload": "x" * 50})
            # Backdate older entries so LRU ordering is well-defined.
            stamp = now - (len(keys) - index) * 60
            os.utime(store._path("verdict", key), (stamp, stamp))
        per_entry = store.total_bytes() // len(keys)
        store.max_bytes = per_entry * 2 + 1
        store.prune()
        assert store.total_bytes() <= store.max_bytes
        assert store.evictions >= 4
        assert store.contains("verdict", keys[-1])   # newest survives
        assert not store.contains("verdict", keys[0])  # oldest evicted

    def test_kind_must_be_a_bare_label(self, tmp_path):
        from repro.errors import AnalysisError

        store = ArtifactStore(tmp_path)
        with pytest.raises(AnalysisError):
            store.put("../escape", "k", {})


class TestSessionSurface:
    def test_standalone_construction_rejects_mixed_options(self):
        pipeline = CounterPoint()
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            AnalysisSession(pipeline=pipeline, backend="scipy")

    def test_pipeline_owns_one_session(self):
        counterpoint = CounterPoint()
        assert counterpoint.session() is counterpoint.session()

    def test_forget_drops_memo_but_not_store(self, tmp_path):
        store_dir = str(tmp_path / "artifacts")
        session = AnalysisSession(store=store_dir, backend="exact")
        cone = tiny_cone()
        session.sweep(cone, dataset(3))
        assert session.stats.tests == 3
        session.forget()
        session.sweep(cone, dataset(3))
        assert session.stats.tests == 3       # store still answers
        assert session.stats.store_hits == 3

    def test_compare_rejects_duplicate_model_names(self):
        from repro.errors import AnalysisError

        counterpoint = CounterPoint(backend="exact")
        with pytest.raises(AnalysisError):
            counterpoint.compare([tiny_cone(), tiny_cone()], dataset(2))

    def test_compare_is_incremental_across_models(self):
        counterpoint = CounterPoint(backend="exact")
        session = counterpoint.session()
        cone_a = tiny_cone()
        cone_b = ModelCone(["a", "b"], [(1, 1)], name="diag")
        observations = dataset(5)
        counterpoint.compare([cone_a], observations)
        assert session.stats.tests == 5
        comparison = counterpoint.compare([cone_a, cone_b], observations)
        assert session.stats.tests == 10      # only the new model's cells
        assert set(comparison) == {"tiny", "diag"}

    def test_counterpoint_close_is_idempotent_and_reentrant(self):
        counterpoint = CounterPoint(workers=2)
        counterpoint.runner()
        counterpoint.close()
        counterpoint.close()
        with counterpoint:
            counterpoint.runner()
        assert counterpoint._runner is None


class TestConcurrentCounting:
    def test_threads_sharing_a_session_lose_no_count(self):
        """Each thread's tally holds only its own memo hits, and the
        session's total holds all of them, under heavy preemption."""
        import sys
        import threading
        from collections import Counter

        session = AnalysisSession(backend="exact")
        cone = tiny_cone()
        observations = dataset(50)
        session.sweep(cone, observations)
        tallies = [Counter() for _ in range(8)]

        def resweep(tally):
            for _ in range(20):
                session.sweep(cone, observations, tally=tally)

        threads = [threading.Thread(target=resweep, args=(tally,)) for tally in tallies]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(tally == Counter(memo_hits=1000) for tally in tallies)
        assert session.stats.memo_hits == 8 * 1000
        assert session.stats.tests == 50


class TestClaimedSession:
    """A session with a ClaimTable dedupes concurrent identical work."""

    def test_racing_threads_compute_each_cell_once(self, monkeypatch):
        import threading

        from repro.results import ClaimTable

        lock = threading.Lock()
        batches = []
        real = session_module.test_points_feasibility

        def wrapper(cone, targets, backend="exact", **kwargs):
            targets = list(targets)
            with lock:
                batches.append(len(targets))
            return real(cone, targets, backend=backend, **kwargs)

        monkeypatch.setattr(session_module, "test_points_feasibility", wrapper)

        session = AnalysisSession(backend="exact")
        session.claims = ClaimTable(store=session.store)
        cone = tiny_cone()
        observations = dataset(24)

        barrier = threading.Barrier(2)
        results, failures = {}, []

        def sweep(tag):
            try:
                barrier.wait(timeout=30)
                results[tag] = session.sweep(cone, observations)
            except Exception as error:  # pragma: no cover - diagnostic
                failures.append(repr(error))

        threads = [
            threading.Thread(target=sweep, args=(tag,), daemon=True)
            for tag in ("left", "right")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        assert not failures
        # Both sweeps saw all 24 cells, but the LP ran each exactly once:
        # the loser of each claim race waited and reused the winner's
        # verdict instead of recomputing it.
        assert sum(batches) == 24
        assert results["left"].to_dict() == results["right"].to_dict()

    def test_claim_won_after_the_owner_finished_is_not_recomputed(
        self, monkeypatch
    ):
        from repro.results import ClaimTable

        cone = tiny_cone()
        observations = dataset(3)
        finished = session_module.compute_cell_verdicts(
            cone, [observation.point() for observation in observations]
        )
        session = AnalysisSession(backend="exact")

        class LateClaims(ClaimTable):
            def claim(self, key):
                # The previous owner records the cell and releases its
                # claim between this caller's lookup and its claim.
                session._record(key, finished.pop(0))
                return super().claim(key)

        session.claims = LateClaims()
        counter = CountingFeasibility(monkeypatch)
        sweep = session.sweep(cone, observations)
        assert counter.total == 0
        assert session.stats.tests == 0
        assert sweep.infeasible_names == ["o000"]
