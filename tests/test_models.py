"""Tests for the Haswell model library (m/t/a-series µDDs + dataset)."""

import pytest

from repro.cone import shared_cache
from repro.cone import test_point_feasibility as point_feasibility
from repro.errors import ConfigurationError
from repro.models import (
    ALL_COUNTERS,
    A_SERIES,
    M_SERIES,
    T_SERIES,
    TriggerSpec,
    build_abort_mudd,
    build_haswell_mudd,
    build_model_cone,
    build_replay_mudd,
    build_trigger_mudd,
)
from repro.models.dataset import (
    MB,
    RunSpec,
    run_observation,
    standard_runspecs,
)
from repro.models.features import FEATURES, TLB_PF
from repro.mudd import signature_matrix
from repro.workloads import LinearAccessWorkload


def cone(model_name):
    return build_model_cone(M_SERIES[model_name])


@pytest.fixture(scope="module")
def mini_observations():
    """A fast 3-observation dataset exercising the main channels."""
    specs = [
        RunSpec(
            "mini-fresh",
            LinearAccessWorkload(16 * MB, stride=64),
            "4k",
            6000,
        ),
        RunSpec(
            "mini-revisit",
            LinearAccessWorkload(4 * MB, stride=64, load_store_ratio=0.98),
            "4k",
            8000,
            warm=LinearAccessWorkload(4 * MB, stride=4096, load_store_ratio=0.0),
            warm_ops=(4 * MB) // 4096,
        ),
        RunSpec(
            "mini-1g",
            LinearAccessWorkload(8 << 30, stride=1 << 21, load_store_ratio=0.9),
            "1g",
            6000,
        ),
    ]
    return [run_observation(spec) for spec in specs]


class TestModelTables:
    def test_m_series_matches_table3(self):
        assert len(M_SERIES) == 12
        assert M_SERIES["m0"] == frozenset()
        assert M_SERIES["m4"] == frozenset(FEATURES)
        assert M_SERIES["m8"] == M_SERIES["m4"] - {"Pml4eCache"}

    def test_t_series_matches_table5(self):
        assert len(T_SERIES) == 18
        assert T_SERIES["t0"] == TriggerSpec(True, True, False)
        assert T_SERIES["t9"] == TriggerSpec(False, True, False)
        assert T_SERIES["t13"] == TriggerSpec(False, False, True, dtlb_miss=True)

    def test_a_series_matches_table7(self):
        assert len(A_SERIES) == 4
        assert len(A_SERIES["a0"]) == 1
        assert len(A_SERIES["a3"]) == 4

    def test_trigger_spec_validation(self):
        with pytest.raises(ConfigurationError):
            TriggerSpec(True, False, False)
        with pytest.raises(ConfigurationError):
            TriggerSpec(True, True, False, dtlb_miss=True, stlb_miss=True)


class TestModelBuilders:
    def test_all_m_series_build_and_validate(self):
        for name, features in M_SERIES.items():
            mudd = build_haswell_mudd(features, name=name)
            assert mudd.validate()

    def test_unknown_feature_rejected(self):
        with pytest.raises(ConfigurationError):
            build_haswell_mudd({"FluxCapacitor"})

    def test_trigger_requires_prefetch_feature(self):
        from repro.models.haswell import build_mudd

        with pytest.raises(ConfigurationError):
            build_mudd(M_SERIES["m4"] - {TLB_PF}, trigger=T_SERIES["t0"])

    def test_unknown_abort_point_rejected(self):
        from repro.models.haswell import build_mudd

        with pytest.raises(ConfigurationError):
            build_mudd(M_SERIES["m4"], aborts=("mid_air",))

    def test_m0_signature_structure(self):
        mudd = build_haswell_mudd(M_SERIES["m0"])
        counters, signatures = signature_matrix(mudd, counters=ALL_COUNTERS)
        index = {name: position for position, name in enumerate(counters)}
        for signature in signatures.tolist():
            # m0: every µop causes at most one walk, and pde misses
            # never exceed walks (the Figure 6b world).
            assert signature[index["load.pde$_miss"]] <= signature[index["load.causes_walk"]]

    def test_m4_allows_pde_miss_excess(self):
        mudd = build_haswell_mudd(M_SERIES["m4"])
        counters, signatures = signature_matrix(mudd, counters=ALL_COUNTERS)
        index = {name: position for position, name in enumerate(counters)}
        assert any(
            signature[index["load.pde$_miss"]] > signature[index["load.causes_walk"]]
            for signature in signatures.tolist()
        )

    def test_prefetch_paths_have_no_walk_done(self):
        mudd = build_haswell_mudd(M_SERIES["m4"])
        counters, signatures = signature_matrix(mudd, counters=ALL_COUNTERS)
        index = {name: position for position, name in enumerate(counters)}
        refs = [index["walk_ref.%s" % level] for level in ("l1", "l2", "l3", "mem")]
        # Prefetch signatures: refs without causes_walk or walk_done.
        assert any(
            sum(sig[r] for r in refs) > 0
            and sig[index["load.causes_walk"]] == 0
            and sig[index["store.causes_walk"]] == 0
            for sig in signatures.tolist()
        )

    def test_model_cone_cache(self):
        first = build_model_cone(M_SERIES["m0"])
        second = build_model_cone(M_SERIES["m0"])
        assert first is second
        # It comes from the memory-only cone cache pipelines share.
        mudd = build_haswell_mudd(M_SERIES["m0"])
        assert first is shared_cache().get(mudd, counters=ALL_COUNTERS)

    def test_named_cone_after_unnamed_keeps_its_name(self):
        unnamed = build_model_cone(M_SERIES["m3"])
        named = build_model_cone(M_SERIES["m3"], name="m3")
        assert named.name == "m3"
        assert unnamed.name.startswith("haswell[")
        assert build_model_cone(M_SERIES["m3"]) is unnamed
        assert build_model_cone(M_SERIES["m3"], name="m3") is named

    def test_trigger_mudd_builds(self):
        mudd = build_trigger_mudd(T_SERIES["t10"])
        assert mudd.validate()

    def test_abort_mudd_builds(self):
        mudd = build_abort_mudd(A_SERIES["a3"])
        assert mudd.validate()
        # Walk bypass was removed: every walk_done path has >= 1 ref.
        counters, signatures = signature_matrix(mudd, counters=ALL_COUNTERS)
        index = {name: position for position, name in enumerate(counters)}
        refs = [index["walk_ref.%s" % level] for level in ("l1", "l2", "l3", "mem")]
        for signature in signatures.tolist():
            done = signature[index["load.walk_done"]] + signature[index["store.walk_done"]]
            if done:
                assert sum(signature[r] for r in refs) >= done

    def test_replay_mudd_builds(self):
        assert build_replay_mudd(True).validate()
        assert build_replay_mudd(False).validate()
        assert build_replay_mudd(include_prefetch=False).validate()


class TestFeasibilityShapes:
    """The paper's headline feasibility pattern, on a fast dataset."""

    def test_m4_feasible_on_everything(self, mini_observations):
        m4 = cone("m4")
        for observation in mini_observations:
            result = point_feasibility(m4, observation.point(), backend="scipy")
            assert result.feasible, observation.name

    def test_m0_infeasible_on_merging_evidence(self, mini_observations):
        m0 = cone("m0")
        fresh = next(o for o in mini_observations if o.name == "mini-fresh")
        assert not point_feasibility(m0, fresh.point(), backend="scipy").feasible

    def test_no_prefetch_model_refuted_by_revisit_only(self, mini_observations):
        m5 = cone("m5")
        verdicts = {
            o.name: point_feasibility(m5, o.point(), backend="scipy").feasible
            for o in mini_observations
        }
        assert not verdicts["mini-revisit"]  # prefetch evidence
        assert verdicts["mini-fresh"]  # replay masks the refs

    def test_exact_backend_agrees_on_m0(self, mini_observations):
        m0 = cone("m0")
        fresh = next(o for o in mini_observations if o.name == "mini-fresh")
        exact = point_feasibility(m0, fresh.point(), backend="exact")
        approx = point_feasibility(m0, fresh.point(), backend="scipy")
        assert exact.feasible == approx.feasible == False  # noqa: E712


class TestDataset:
    def test_standard_runspecs_cover_page_sizes(self):
        specs = standard_runspecs()
        sizes = {spec.page_size for spec in specs}
        assert sizes == {"4k", "2m", "1g"}

    def test_standard_runspecs_cover_workload_families(self):
        names = {spec.workload.name for spec in standard_runspecs()}
        assert {"linear", "random", "bfs", "ptrchase", "stream", "zipf"} <= names

    def test_observation_fields(self, mini_observations):
        observation = mini_observations[0]
        assert len(observation.point()) == 26
        assert observation.samples.n_samples >= 2
        region = observation.region()
        assert region.dim == 26

    def test_observation_totals_match_samples(self, mini_observations):
        observation = mini_observations[0]
        totals = observation.samples.true_totals()
        assert totals == observation.point()

    def test_scale_reduces_ops(self):
        full = standard_runspecs(scale=1.0)
        small = standard_runspecs(scale=0.1)
        assert small[0].n_ops < full[0].n_ops
