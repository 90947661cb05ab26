"""Coverage for remaining public-API surface: pipeline sweeps with
regions, interval schedules, sampling conveniences, error hierarchy."""

import numpy as np
import pytest

from repro import CounterPoint, ModelCone, MuDD, PointRegion, compile_dsl
from repro.counters.sampling import SampleMatrix
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    DSLSyntaxError,
    GeometryError,
    LinalgError,
    LPError,
    MuDDError,
    ReproError,
    SimulationError,
    StatsError,
)
from repro.mmu import MMUSimulator, MemoryOp
from repro.models.bundled import load_bundled_model

PDE_MODEL = """
incr load.causes_walk;
switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss };
done;
"""


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [
            AnalysisError,
            ConfigurationError,
            DSLSyntaxError,
            GeometryError,
            LinalgError,
            LPError,
            MuDDError,
            SimulationError,
            StatsError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, ReproError)

    def test_dsl_syntax_error_location(self):
        error = DSLSyntaxError("bad", line=3, column=7)
        assert "line 3" in str(error)
        assert "column 7" in str(error)


class TestIntervalSchedules:
    def ops(self, n):
        return [MemoryOp("load", i * 64) for i in range(n)]

    def test_fixed_int_schedule(self):
        simulator = MMUSimulator()
        intervals = list(simulator.run_intervals(self.ops(10), 5))
        assert len(intervals) == 2

    def test_list_schedule_cycles(self):
        simulator = MMUSimulator()
        intervals = list(simulator.run_intervals(self.ops(12), [2, 4]))
        # 2 + 4 + 2 + 4 = 12 ops -> 4 intervals.
        assert len(intervals) == 4

    def test_trailing_partial_interval_emitted(self):
        simulator = MMUSimulator()
        intervals = list(simulator.run_intervals(self.ops(7), 5))
        assert len(intervals) == 2

    def test_invalid_schedules(self):
        simulator = MMUSimulator()
        with pytest.raises(SimulationError):
            list(simulator.run_intervals(self.ops(3), []))
        with pytest.raises(SimulationError):
            list(simulator.run_intervals(self.ops(3), [2, 0]))

    def test_schedule_totals_match(self):
        simulator = MMUSimulator()
        intervals = list(simulator.run_intervals(self.ops(20), [3, 5]))
        totals = {name: sum(i[name] for i in intervals) for name in intervals[0]}
        assert totals == simulator.snapshot()


class TestPipelineSurface:
    class Obs:
        def __init__(self, name, values, samples=None):
            self.name = name
            self._values = values
            self._samples = samples

        def point(self):
            return dict(self._values)

        def region(self, confidence=0.99, correlated=True):
            return self._samples.confidence_region(
                confidence=confidence, correlated=correlated
            )

    def make_observations(self):
        rng = np.random.default_rng(0)
        good_rows = rng.normal([10.0, 4.0], 0.5, size=(40, 2))
        bad_rows = rng.normal([4.0, 10.0], 0.5, size=(40, 2))
        counters = ["load.causes_walk", "load.pde$_miss"]
        return [
            self.Obs("good", {"load.causes_walk": 10, "load.pde$_miss": 4},
                     SampleMatrix(counters, good_rows)),
            self.Obs("bad", {"load.causes_walk": 4, "load.pde$_miss": 10},
                     SampleMatrix(counters, bad_rows)),
        ]

    def test_sweep_with_regions(self):
        cp = CounterPoint(backend="exact")
        sweep = cp.sweep(PDE_MODEL, self.make_observations(), use_regions=True)
        assert sweep.infeasible_names == ["bad"]

    def test_sweep_with_independent_regions(self):
        cp = CounterPoint(backend="exact")
        sweep = cp.sweep(
            PDE_MODEL, self.make_observations(), use_regions=True, correlated=False
        )
        assert "bad" in sweep.infeasible_names

    def test_model_cone_accepts_mudd(self):
        cp = CounterPoint()
        mudd = compile_dsl(PDE_MODEL, name="direct")
        cone = cp.model_cone(mudd)
        assert isinstance(cone, ModelCone)
        assert isinstance(mudd, MuDD)
        assert cone.name == "direct"

    def test_model_cone_accepts_bundled_names(self):
        # Strings follow as_mudd's rule, as analyze and sweep read them.
        cp = CounterPoint()
        cone = cp.model_cone("pde_initial")
        assert cone.name == "pde_initial"
        assert cone.fingerprint() == cp.model_cone(
            load_bundled_model("pde_initial")
        ).fingerprint()
        assert cp.model_cone(PDE_MODEL).name == "model"
        with pytest.raises(ConfigurationError):
            cp.model_cone("no_such_model")

    def test_analyze_with_point_region(self):
        report = CounterPoint().analyze(PDE_MODEL, PointRegion([10.0, 4.0]))
        assert report.feasible

    def test_model_sweep_repr(self):
        cp = CounterPoint(backend="exact")
        sweep = cp.sweep(PDE_MODEL, self.make_observations())
        assert "1/2 infeasible" in repr(sweep)


class TestSampleMatrixSurface:
    def test_mean_observation(self):
        matrix = SampleMatrix(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        assert matrix.mean_observation() == {"a": 2.0, "b": 3.0}

    def test_repr(self):
        matrix = SampleMatrix(["a"], [[1.0], [2.0]])
        assert "2 samples x 1 counters" in repr(matrix)

    def test_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            SampleMatrix(["a", "b"], [[1.0], [2.0]])
        with pytest.raises(ConfigurationError):
            SampleMatrix(["a"], [1.0, 2.0])
