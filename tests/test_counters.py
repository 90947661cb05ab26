"""Tests for the HEC infrastructure: events, multiplexing, sampling."""

import numpy as np
import pytest

from repro.counters import (
    GROUP_ORDER,
    HASWELL_MMU_EVENTS,
    MultiplexingSimulator,
    SampleMatrix,
    collect_interval_samples,
    counters_in_groups,
    cumulative_group_counters,
    event_by_name,
)
from repro.counters.scaling import (
    HEC_CENSUS,
    addressable_series,
    census_by_name,
    growth_factor,
    named_series,
)
from repro.errors import ConfigurationError


class TestEventDatabase:
    def test_total_event_count(self):
        # Table 2: Walk 12 + Refs 4 + Ret 4 + STLB 6 = 26 counters.
        assert len(HASWELL_MMU_EVENTS) == 26

    def test_group_sizes(self):
        assert len(counters_in_groups(["Walk"])) == 12
        assert len(counters_in_groups(["Refs"])) == 4
        assert len(counters_in_groups(["Ret"])) == 4
        assert len(counters_in_groups(["STLB"])) == 6

    def test_unique_names(self):
        names = [event.name for event in HASWELL_MMU_EVENTS]
        assert len(names) == len(set(names))

    def test_event_lookup(self):
        event = event_by_name("load.causes_walk")
        assert event.group == "Walk"
        assert event.full_name == "dtlb_load_misses.miss_causes_a_walk"

    def test_unknown_event(self):
        with pytest.raises(ConfigurationError):
            event_by_name("load.mystery")

    def test_unknown_group(self):
        with pytest.raises(ConfigurationError):
            counters_in_groups(["Walk", "Bogus"])

    def test_cumulative_group_steps(self):
        steps = cumulative_group_counters()
        assert len(steps) == len(GROUP_ORDER)
        sizes = [len(counters) for _, counters in steps]
        assert sizes == sorted(sizes)
        assert sizes[0] == 4  # Ret group first
        assert sizes[-1] == 26

    def test_walk_ref_events_untyped(self):
        assert event_by_name("walk_ref.mem").access_type is None

    def test_load_store_parameterization(self):
        for base in ("causes_walk", "walk_done", "pde$_miss", "ret", "stlb_hit"):
            event_by_name("load.%s" % base)
            event_by_name("store.%s" % base)


class TestMultiplexing:
    def test_no_multiplexing_when_few_counters(self):
        sim = MultiplexingSimulator(n_physical=4, jitter=0.0, seed=1)
        estimates = sim.observe_interval([100.0, 200.0, 300.0])
        assert np.allclose(estimates, [100.0, 200.0, 300.0])

    def test_schedule_covers_all_counters(self):
        sim = MultiplexingSimulator(n_physical=4, slices_per_interval=24)
        active = sim.schedule(10)
        assert active.any(axis=0).all(), "every counter scheduled at least once"

    def test_schedule_respects_physical_limit(self):
        sim = MultiplexingSimulator(n_physical=4)
        active = sim.schedule(12)
        assert (active.sum(axis=1) <= 4).all()

    def test_estimates_unbiased_on_average(self):
        sim = MultiplexingSimulator(n_physical=4, seed=2)
        truth = np.tile([1000.0] * 12, (400, 1))
        estimates = sim.observe_run(truth)
        assert abs(estimates.mean() - 1000.0) / 1000.0 < 0.05

    def test_noise_grows_with_counter_count(self):
        """Figure 1c: more active HECs, more multiplexing noise."""
        noise_levels = []
        for n in (4, 8, 16, 24):
            sim = MultiplexingSimulator(n_physical=4, seed=3)
            noise = sim.noise_profile([1000.0] * n, n_intervals=150)
            noise_levels.append(noise.mean())
        assert noise_levels[0] < noise_levels[1] < noise_levels[3]

    def test_noise_correlated_across_counters(self):
        """Counters sharing slices inherit shared phase noise."""
        from repro.stats import pearson_correlation_matrix

        sim = MultiplexingSimulator(n_physical=4, seed=4)
        truth = np.tile([1000.0] * 8, (300, 1))
        estimates = sim.observe_run(truth)
        correlation = pearson_correlation_matrix(estimates)
        off_diagonal = correlation[np.triu_indices(8, k=1)]
        assert np.abs(off_diagonal).max() > 0.3

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            MultiplexingSimulator(n_physical=0)
        with pytest.raises(ConfigurationError):
            MultiplexingSimulator(slices_per_interval=0)

    def test_observe_run_shape_check(self):
        sim = MultiplexingSimulator()
        with pytest.raises(ConfigurationError):
            sim.observe_run([1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "option,value",
        [
            ("phase_noise", float("nan")),
            ("phase_noise", float("inf")),
            ("phase_noise", -0.3),
            ("jitter", float("nan")),
            ("jitter", -0.01),
        ],
    )
    def test_bad_noise_magnitude_fails_at_construction(self, option, value):
        with pytest.raises(ConfigurationError, match="%s must be finite" % option):
            MultiplexingSimulator(**{option: value})

    def test_observe_run_without_intervals(self):
        sim = MultiplexingSimulator()
        with pytest.raises(ConfigurationError, match="no intervals"):
            sim.observe_run(np.zeros((0, 5)))

    def test_deterministic_with_seed(self):
        a = MultiplexingSimulator(n_physical=4, seed=9).observe_interval([100.0] * 8)
        b = MultiplexingSimulator(n_physical=4, seed=9).observe_interval([100.0] * 8)
        assert np.allclose(a, b)


class TestSampling:
    def test_collect_from_dicts(self):
        counts = [{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4.0}]
        matrix = collect_interval_samples(["a", "b"], counts)
        assert matrix.n_samples == 2
        assert matrix.mean_observation() == {"a": 2.0, "b": 3.0}

    def test_collect_from_vectors(self):
        matrix = collect_interval_samples(["a"], [[1.0], [3.0]])
        assert matrix.true_totals() == {"a": 4.0}

    def test_missing_counter_rejected(self):
        with pytest.raises(ConfigurationError):
            collect_interval_samples(["a", "b"], [{"a": 1.0}, {"a": 2.0}])

    def test_row_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            collect_interval_samples(["a", "b"], [[1.0], [2.0]])

    def test_needs_two_intervals(self):
        with pytest.raises(ConfigurationError):
            collect_interval_samples(["a"], [[1.0]])

    def test_multiplexed_keeps_truth(self):
        sim = MultiplexingSimulator(n_physical=2, seed=5)
        truth_rows = [[100.0] * 6 for _ in range(20)]
        matrix = collect_interval_samples(
            ["c%d" % i for i in range(6)], truth_rows, multiplexer=sim
        )
        assert matrix.truth is not None
        assert matrix.true_totals()["c0"] == 2000.0
        # Estimates differ from truth under multiplexing + phase noise.
        assert not np.allclose(matrix.samples, matrix.truth)

    def test_confidence_region_roundtrip(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(100.0, 5.0, size=(50, 2))
        matrix = SampleMatrix(["a", "b"], rows)
        region = matrix.confidence_region()
        assert region.dim == 2
        assert region.contains(region.center())

    def test_subset_projection(self):
        matrix = SampleMatrix(["a", "b", "c"], np.arange(12.0).reshape(4, 3))
        sub = matrix.subset(["c", "a"])
        assert sub.counters == ["c", "a"]
        assert sub.samples[0].tolist() == [2.0, 0.0]

    def test_subset_unknown_counter(self):
        matrix = SampleMatrix(["a"], np.zeros((2, 1)))
        with pytest.raises(ConfigurationError):
            matrix.subset(["zz"])

    def test_true_totals_without_truth(self):
        matrix = SampleMatrix(["a"], np.zeros((2, 1)))
        with pytest.raises(ConfigurationError):
            matrix.true_totals()


class TestScalingCensus:
    def test_census_microarchitectures(self):
        names = {census.name for census in HEC_CENSUS}
        assert names == {"NHM-EX", "WSM-EX", "IVT", "HSX", "KNL", "CLX"}

    def test_years_monotone(self):
        years = [census.year for census in HEC_CENSUS]
        assert years == sorted(years)

    def test_addressable_exceeds_named(self):
        for census in HEC_CENSUS:
            assert census.addressable_total > census.named_total

    def test_figure1a_growth_claim(self):
        """Addressable events grew more than 10x between 2009 and 2019."""
        assert growth_factor(addressable_series()) > 10.0

    def test_named_growth_modest(self):
        factor = growth_factor(named_series())
        assert 2.0 < factor < 10.0

    def test_lookup(self):
        assert census_by_name("HSX").typical_cores == 18
        with pytest.raises(ConfigurationError):
            census_by_name("ZEN9")
