"""repro.parallel: the pool orchestrator and its serial equivalence.

The contract under test everywhere: ``workers=N`` changes wall-clock,
never results. Every pooled route — the facade through the plan
engine's pool scheduler, and the dispatchers it calls — is compared
cell-for-cell against its serial counterpart, and the fallback paths
(workers=1, single cell, unpicklable work) are exercised explicitly.
"""

import pytest

from repro.errors import AnalysisError
from repro.models.bundled import bundled_model_names
from repro.parallel import ParallelRunner, parallel_simulate_dataset, split_seeds
from repro.parallel.tasks import _chunks, dispatch_verdicts
from repro.pipeline import CounterPoint
from repro.results import AnalysisSession
from repro.results.session import compute_cell_verdicts
from repro.sim import as_mudd, simulate_dataset


def _square(x):
    return x * x


def _call(fn):
    return fn()


def _cell_n(cell):
    return cell["n"]


class TestRunner:
    def test_serial_map(self):
        runner = ParallelRunner(workers=1)
        assert runner.map_cells(_square, [1, 2, 3]) == [1, 4, 9]
        assert runner.serial
        assert runner.dispatches == 0

    def test_pool_map_preserves_order(self):
        runner = ParallelRunner(workers=2)
        assert runner.map_cells(_square, range(20)) == [i * i for i in range(20)]
        assert runner.dispatches == 1
        assert runner.fallbacks == 0

    def test_single_cell_stays_in_process(self):
        runner = ParallelRunner(workers=4)
        assert runner.map_cells(_square, [7]) == [49]
        assert runner.dispatches == 0

    def test_unpicklable_fn_falls_back_serially(self):
        runner = ParallelRunner(workers=2)
        doubler = lambda x: 2 * x  # noqa: E731 - deliberately unpicklable
        assert runner.map_cells(doubler, [1, 2, 3]) == [2, 4, 6]
        assert runner.fallbacks == 1
        assert runner.dispatches == 0

    def test_unpicklable_cell_falls_back_serially(self):
        runner = ParallelRunner(workers=2)
        cells = [lambda: 1, lambda: 2]
        assert runner.map_cells(_call, cells) == [1, 2]
        assert runner.fallbacks == 1

    def test_unpicklable_later_cell_falls_back_at_dispatch(self, tmp_path):
        # cells[0] passes the pre-flight check; the open file handle in
        # a later cell raises TypeError at pool dispatch, which must
        # degrade to the serial fallback, not escape.
        runner = ParallelRunner(workers=2)
        with open(tmp_path / "cell.txt", "w") as handle:
            cells = [{"n": 1, "handle": None}, {"n": 2, "handle": handle}]
            assert runner.map_cells(_cell_n, cells) == [1, 2]
        assert runner.fallbacks == 1

    def test_invalid_workers_rejected(self):
        with pytest.raises(AnalysisError):
            ParallelRunner(workers=0)
        with pytest.raises(AnalysisError):
            CounterPoint(workers=0)

    def test_exceptions_propagate(self):
        runner = ParallelRunner(workers=2)
        with pytest.raises(ZeroDivisionError):
            runner.map_cells(_reciprocal, [1, 0, 2])

    def test_chunking(self):
        assert _chunks([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]
        assert _chunks([1], 4) == [[1]]
        assert _chunks([], 3) == [[]]
        assert _chunks(range(6), 3) == [[0, 1], [2, 3], [4, 5]]

    def test_split_seeds_matches_serial_schedules(self):
        assert split_seeds(5, 3) == [5, 6, 7]
        assert split_seeds(0, 3, stride=1000) == [0, 1000, 2000]
        with pytest.raises(AnalysisError):
            split_seeds(0, -1)


def _reciprocal(x):
    return 1 / x


@pytest.fixture(scope="module")
def bundled():
    return [as_mudd(name) for name in bundled_model_names()]


@pytest.fixture(scope="module")
def small_dataset(bundled):
    return simulate_dataset(bundled[0], 4, n_uops=3000)


class TestParallelEqualsSerial:
    def test_sweep(self, bundled, small_dataset):
        serial = CounterPoint(backend="scipy").sweep(bundled[1], small_dataset)
        pooled = CounterPoint(backend="scipy", workers=2).sweep(
            bundled[1], small_dataset
        )
        assert serial.infeasible_names == pooled.infeasible_names
        assert serial.n_observations == pooled.n_observations
        assert serial.model_name == pooled.model_name

    def test_sweep_regions(self, bundled, small_dataset):
        serial = CounterPoint(backend="scipy").sweep(
            bundled[1], small_dataset, use_regions=True
        )
        pooled = CounterPoint(backend="scipy", workers=2).sweep(
            bundled[1], small_dataset, use_regions=True
        )
        assert serial.infeasible_names == pooled.infeasible_names

    @staticmethod
    def _check_simulate_dataset(options):
        """The facade's dataset, serial and pooled, equals
        :func:`repro.sim.simulate_dataset`'s sample for sample."""
        reference = simulate_dataset("merging_load_side", 3, n_uops=2000,
                                     **options)
        for workers in (1, 2):
            with CounterPoint(workers=workers) as counterpoint:
                dataset = counterpoint.simulate_dataset(
                    "merging_load_side", 3, n_uops=2000, **options
                )
            assert [o.name for o in dataset] == [o.name for o in reference]
            assert [o.fingerprint(samples=True) for o in dataset] == [
                o.fingerprint(samples=True) for o in reference
            ], workers

    def test_simulate_dataset(self):
        self._check_simulate_dataset({})

    @pytest.mark.parametrize("options", [
        {"weights": {"Merged": {"Yes": 3.0, "No": 1.0}}},
        {"noisy": True},
        {"seed": 17},
    ], ids=["weights", "noisy", "seed"])
    def test_simulate_dataset_options(self, options):
        self._check_simulate_dataset(options)

    def test_simulate_dataset_validates_like_a_plan_op(self):
        counterpoint = CounterPoint()
        with pytest.raises(AnalysisError):
            counterpoint.simulate_dataset("merging_load_side", 0)
        with pytest.raises(AnalysisError):
            counterpoint.simulate_dataset(
                "merging_load_side", 2, weights={"Merged": 3.0}
            )

    def test_cross_refute(self, bundled):
        models = bundled[:3]
        serial = CounterPoint(backend="scipy").cross_refute(
            models, n_observations=2, n_uops=3000
        )
        pooled = CounterPoint(backend="scipy", workers=2).cross_refute(
            models, n_observations=2, n_uops=3000
        )
        assert set(serial) == set(pooled)
        for row in serial:
            for name in serial[row]:
                assert (
                    serial[row][name].infeasible_names
                    == pooled[row][name].infeasible_names
                )

    def test_cross_refute_diagonal_feasible(self, bundled):
        pooled = CounterPoint(backend="scipy", workers=2).cross_refute(
            bundled[:3], n_observations=2, n_uops=3000
        )
        for row, sweeps in pooled.items():
            assert sweeps[row].feasible

    def test_direct_entry_points(self, bundled, small_dataset):
        runner = ParallelRunner(workers=2)
        cone = CounterPoint(backend="scipy").model_cone(
            bundled[1], counters=small_dataset[0].samples.counters
        )
        points = [observation.point() for observation in small_dataset]
        verdicts = dispatch_verdicts(runner, cone, points, backend="scipy")
        assert [v.to_dict() for v in verdicts] == [
            v.to_dict()
            for v in compute_cell_verdicts(cone, points, backend="scipy")
        ]

        dataset = parallel_simulate_dataset(runner, bundled[0], 3, n_uops=2000)
        assert len(dataset) == 3
        runner.close()


class TestFacadeWiring:
    def test_workers_none_means_cpu_count(self):
        counterpoint = CounterPoint(workers=None)
        assert counterpoint._parallel()
        assert counterpoint.runner().workers >= 1

    def test_cache_dir_requires_caching(self, tmp_path):
        with pytest.raises(AnalysisError):
            CounterPoint(cache=False, cache_dir=str(tmp_path))

    def test_cache_dir_rejects_explicit_cache_instance(self, tmp_path):
        # An explicit memory cache would silently shadow cache_dir; the
        # combination must be refused, not half-honoured.
        from repro.cone.cache import ModelConeCache

        with pytest.raises(AnalysisError):
            CounterPoint(cache=ModelConeCache(), cache_dir=str(tmp_path))

    def test_cache_dir_uses_shared_disk_cache(self, tmp_path):
        from repro.cone.cache import shared_cache

        path = str(tmp_path / "cones")
        counterpoint = CounterPoint(cache_dir=path)
        assert counterpoint.cone_cache is shared_cache(path)
        assert counterpoint.cone_cache.disk is not None

    def test_standalone_session_computes_in_process(self, monkeypatch):
        # Only the plan engine's pool scheduler reaches the pool: a
        # session used directly solves its pending cells in-process,
        # whatever the pipeline's worker count.
        from repro.cone import ModelCone
        from repro.parallel import tasks

        def no_pool(*args, **kwargs):
            raise AssertionError("a standalone session dispatched to the pool")

        monkeypatch.setattr(tasks, "dispatch_verdicts", no_pool)
        pipeline = CounterPoint(backend="exact", workers=2)
        session = AnalysisSession(pipeline=pipeline)
        cone = ModelCone(["a", "b"], [(1, 0), (1, 1)], name="tiny")
        sweep = session.sweep(
            cone, [{"a": 5, "b": 2}, {"a": 3, "b": 9}, {"a": 4, "b": 4}]
        )
        assert session.stats.tests == 3
        assert sweep.n_infeasible == 1
        assert pipeline._runner is None


class TestParallelGuidedSearch:
    def test_search_matches_serial(self):
        from repro.explore import GuidedSearch
        from repro.models import FEATURES, build_model_cone, standard_dataset

        observations = standard_dataset()[:6]
        features = sorted(FEATURES)[:4]
        serial = GuidedSearch(build_model_cone, observations, features).run()
        pooled = GuidedSearch(
            build_model_cone,
            observations,
            features,
            runner=ParallelRunner(workers=2),
        ).run()
        assert serial.candidate == pooled.candidate
        assert {
            f: e.n_infeasible for f, e in serial.evaluations.items()
        } == {f: e.n_infeasible for f, e in pooled.evaluations.items()}

    def test_unpicklable_builder_falls_back(self):
        from repro.explore import GuidedSearch
        from repro.models import FEATURES, build_model_cone, standard_dataset

        observations = standard_dataset()[:4]
        features = sorted(FEATURES)[:3]
        runner = ParallelRunner(workers=2)
        builder = lambda fs: build_model_cone(fs)  # noqa: E731
        search = GuidedSearch(
            builder, observations, features, runner=runner
        )
        search.evaluate_many([frozenset({f}) for f in features])
        assert runner.fallbacks >= 1
        reference = GuidedSearch(build_model_cone, observations, features)
        for feature in features:
            assert (
                search.evaluate({feature}).n_infeasible
                == reference.evaluate({feature}).n_infeasible
            )
