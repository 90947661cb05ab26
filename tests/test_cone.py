"""Tests for model cones, constraint deduction, feasibility, violations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import compile_dsl
from repro.errors import AnalysisError
from repro.cone import ModelCone, deduce_constraints, identify_violations
from repro.cone import test_point_feasibility as point_feasibility
from repro.cone import test_region_feasibility as region_feasibility
from repro.stats import ConfidenceRegion, PointRegion

FIGURE6A_SOURCE = """
incr load.causes_walk;
do LookupPde$;
switch Pde$Status {
  Hit => pass;
  Miss => incr load.pde$_miss
};
done;
"""

FIGURE6C_SOURCE = """
do LookupPde$;
switch Pde$Status {
  Miss => incr load.pde$_miss;
  Hit => pass;
};
switch Abort {
  Yes => done;
  No => pass;
};
incr load.causes_walk;
done;
"""


@pytest.fixture
def initial_cone():
    return ModelCone.from_mudd(compile_dsl(FIGURE6A_SOURCE, name="fig6a"))


@pytest.fixture
def refined_cone():
    mudd = compile_dsl(FIGURE6C_SOURCE, name="fig6c")
    return ModelCone.from_mudd(
        mudd, counters=["load.causes_walk", "load.pde$_miss"]
    )


class TestModelCone:
    def test_from_mudd_counters(self, initial_cone):
        assert initial_cone.counters == ["load.causes_walk", "load.pde$_miss"]
        assert sorted(initial_cone.signatures) == [(1, 0), (1, 1)]

    def test_requires_counters(self):
        mudd = compile_dsl("do JustAnEvent; done;")
        with pytest.raises(AnalysisError):
            ModelCone.from_mudd(mudd)

    def test_rejects_negative_signature(self):
        with pytest.raises(AnalysisError):
            ModelCone(["a"], [(-1,)])

    def test_rejects_mismatched_signature(self):
        with pytest.raises(AnalysisError):
            ModelCone(["a", "b"], [(1,)])

    def test_vector_from_mapping(self, initial_cone):
        vec = initial_cone.vector_from_observation(
            {"load.causes_walk": 5, "load.pde$_miss": 2}
        )
        assert vec == [5, 2]

    def test_vector_missing_counter(self, initial_cone):
        with pytest.raises(AnalysisError):
            initial_cone.vector_from_observation({"load.causes_walk": 5})

    def test_vector_extra_counter(self, initial_cone):
        with pytest.raises(AnalysisError):
            initial_cone.vector_from_observation(
                {"load.causes_walk": 5, "load.pde$_miss": 1, "bogus": 0}
            )

    def test_contains(self, initial_cone):
        assert initial_cone.contains({"load.causes_walk": 5, "load.pde$_miss": 2})
        assert not initial_cone.contains({"load.causes_walk": 2, "load.pde$_miss": 5})

    def test_refined_cone_superset(self, initial_cone, refined_cone):
        # Figure 6: refinement adds µpaths, expanding the model cone.
        assert initial_cone.is_subset_of(refined_cone)
        assert not refined_cone.is_subset_of(initial_cone)

    def test_subset_requires_same_counters(self, initial_cone):
        other = ModelCone(["x"], [(1,)])
        with pytest.raises(AnalysisError):
            initial_cone.is_subset_of(other)


class TestConstraintDeduction:
    def test_figure6b_constraint(self, initial_cone):
        rendered = initial_cone.constraints().render()
        assert "load.pde$_miss <= load.causes_walk" in rendered

    def test_refined_model_drops_constraint(self, refined_cone):
        rendered = refined_cone.constraints().render()
        assert "load.pde$_miss <= load.causes_walk" not in rendered

    def test_equality_detection(self):
        # stlb_hit == stlb_hit_4k + stlb_hit_2m (the paper's footnote 8).
        cone = ModelCone(
            ["stlb_hit", "stlb_hit_4k", "stlb_hit_2m"],
            [(1, 1, 0), (1, 0, 1)],
        )
        equalities = cone.constraints().equalities
        assert len(equalities) == 1
        assert equalities[0].render() == "stlb_hit_4k + stlb_hit_2m == stlb_hit"

    def test_interior_removal_same_constraints(self):
        signatures = [(1, 0), (0, 1), (1, 1), (2, 1)]
        with_removal = deduce_constraints(signatures, ["a", "b"], remove_interior=True)
        without_removal = deduce_constraints(signatures, ["a", "b"], remove_interior=False)
        assert set(c.render() for c in with_removal) == set(
            c.render() for c in without_removal
        )

    def test_verification_restores_a_wrongly_pruned_generator(self, monkeypatch):
        """A float membership answer forced to OPTIMAL for one extreme
        m0 generator makes interior removal drop it; the facet
        verification restores it and the constraints are the reference's."""
        from repro.geometry import Cone
        from repro.lp import highs_fast
        from repro.models import M_SERIES, build_model_cone

        model = build_model_cone(M_SERIES["m0"])
        reference = deduce_constraints(model.signatures, model.counters)
        extreme = Cone(model.signatures, len(model.counters)).irredundant_generators(
            backend="scipy"
        )[0]
        solve = highs_fast.FeasibilityModel.solve

        def forced(self, rhs, solution=True):
            if [float(v) for v in rhs] == [float(v) for v in extreme]:
                return highs_fast.OPTIMAL, None
            return solve(self, rhs, solution)

        hulls = []
        facet_constraints = Cone.facet_constraints

        def recorded(self):
            hulls.append(extreme in self.generators)
            return facet_constraints(self)

        monkeypatch.setattr(highs_fast.FeasibilityModel, "solve", forced)
        monkeypatch.setattr(Cone, "facet_constraints", recorded)
        deduced = deduce_constraints(model.signatures, model.counters)
        assert hulls == [False, True]  # pruned, then restored
        assert sorted(deduced.render()) == sorted(reference.render())

    @pytest.mark.parametrize("kind, normal", [
        ("le", [1, -1]),
        ("ge", [1.5, -1]),
        ("ge", ["1", -1]),
        ("eq", [True, -1]),
        ("ge", (1, -1)),
        (["ge"], [1, -1]),
    ])
    def test_constraint_decoding_refuses_foreign_records(self, kind, normal):
        from repro.cone.constraints import ModelConstraint

        record = {"normal": normal, "kind": kind, "counters": ["a", "b"]}
        with pytest.raises(AnalysisError):
            ModelConstraint.from_dict(record)

    def test_constraint_decoding_round_trips(self, initial_cone):
        from repro.cone.constraints import ModelConstraint

        for constraint in initial_cone.constraints():
            assert ModelConstraint.from_dict(constraint.to_dict()) == constraint

    def test_constraints_cached(self, initial_cone):
        assert initial_cone.constraints() is initial_cone.constraints()

    def test_involved_counters(self, initial_cone):
        constraint = next(
            c
            for c in initial_cone.constraints()
            if c.render() == "load.pde$_miss <= load.causes_walk"
        )
        assert set(constraint.involved_counters) == {
            "load.causes_walk",
            "load.pde$_miss",
        }

    def test_constraint_set_partition(self, initial_cone):
        constraint_set = initial_cone.constraints()
        assert len(constraint_set) == len(constraint_set.equalities) + len(
            constraint_set.inequalities
        )

    def test_figure3a_three_counter_model(self):
        # Counters (causes_walk, walk_done, ret_stlb_miss); paths:
        # completed walk w/ retire (1,1,1), completed walk speculative
        # (1,1,0), aborted walk (1,0,0).
        cone = ModelCone(
            ["load.causes_walk", "load.walk_done", "load.ret_stlb_miss"],
            [(1, 1, 1), (1, 1, 0), (1, 0, 0)],
        )
        rendered = set(cone.constraints().render())
        assert "load.ret_stlb_miss <= load.walk_done" in rendered
        assert "load.walk_done <= load.causes_walk" in rendered


class TestPointFeasibility:
    def test_feasible_point_with_witness(self, initial_cone):
        result = point_feasibility(
            initial_cone, {"load.causes_walk": 10, "load.pde$_miss": 4}
        )
        assert result.feasible
        # Witness flows: 4 µops down the Miss path, 6 down the Hit path.
        assert sum(result.flows) == 10
        assert result.witness == [10, 4]

    def test_infeasible_point(self, initial_cone):
        result = point_feasibility(
            initial_cone, {"load.causes_walk": 4, "load.pde$_miss": 10}
        )
        assert not result.feasible
        assert result.flows is None

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_counter_is_named(self, initial_cone, value):
        with pytest.raises(AnalysisError, match="load.pde\\$_miss"):
            point_feasibility(
                initial_cone, {"load.causes_walk": 4, "load.pde$_miss": value}
            )
        with pytest.raises(AnalysisError, match="non-finite"):
            point_feasibility(initial_cone, [value, 1])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_counter_in_a_sweep(self, initial_cone, value):
        from repro.pipeline import CounterPoint

        observations = [
            {"load.causes_walk": 4, "load.pde$_miss": 1},
            {"load.causes_walk": value, "load.pde$_miss": 1},
        ]
        with pytest.raises(AnalysisError, match="load.causes_walk"):
            CounterPoint().sweep(initial_cone, observations)

    def test_refined_model_accepts_violation(self, refined_cone):
        # The Figure 6 resolution: pde$_miss > causes_walk feasible there.
        result = point_feasibility(
            refined_cone, {"load.causes_walk": 4, "load.pde$_miss": 10}
        )
        assert result.feasible

    def test_zero_observation_always_feasible(self, initial_cone):
        result = point_feasibility(
            initial_cone, {"load.causes_walk": 0, "load.pde$_miss": 0}
        )
        assert result.feasible

    def test_scipy_backend_agrees(self, initial_cone):
        for observation in (
            {"load.causes_walk": 10, "load.pde$_miss": 4},
            {"load.causes_walk": 4, "load.pde$_miss": 10},
        ):
            exact = point_feasibility(initial_cone, observation, backend="exact")
            approx = point_feasibility(initial_cone, observation, backend="scipy")
            assert exact.feasible == approx.feasible


class TestRegionFeasibility:
    def test_point_region_matches_point_test(self, initial_cone):
        region = PointRegion([10.0, 4.0])
        assert region_feasibility(initial_cone, region).feasible
        region = PointRegion([4.0, 10.0])
        assert not region_feasibility(initial_cone, region).feasible

    def test_region_straddling_boundary_is_feasible(self, initial_cone):
        # Mean slightly infeasible but the region reaches the cone.
        import numpy as np

        mean = np.array([10.0, 10.5])
        covariance = np.eye(2) * 0.25
        region = ConfidenceRegion(mean, covariance, confidence=0.99)
        assert region_feasibility(initial_cone, region).feasible

    def test_region_far_outside_is_infeasible(self, initial_cone):
        import numpy as np

        mean = np.array([1.0, 100.0])
        covariance = np.eye(2) * 0.01
        region = ConfidenceRegion(mean, covariance, confidence=0.99)
        assert not region_feasibility(initial_cone, region).feasible

    def test_correlated_tighter_than_independent(self, initial_cone):
        # Figure 3d: an observation whose independent box reaches the
        # cone but whose correlated box does not.
        import numpy as np

        rng = np.random.default_rng(7)
        base = rng.normal(0.0, 1.0, size=400)
        # Counters strongly correlated; mean infeasible (pde > walks).
        samples = np.stack(
            [10.0 + base * 6.0, 11.0 + base * 6.0 + rng.normal(0, 0.05, 400)],
            axis=1,
        )
        correlated = ConfidenceRegion.from_samples(samples, correlated=True)
        independent = ConfidenceRegion.from_samples(samples, correlated=False)
        assert correlated.volume() < independent.volume()
        result_correlated = region_feasibility(initial_cone, correlated)
        result_independent = region_feasibility(initial_cone, independent)
        assert not result_correlated.feasible
        assert result_independent.feasible  # looser box hides the violation


class TestViolations:
    def test_point_violations(self, initial_cone):
        violations = identify_violations(
            initial_cone, {"load.causes_walk": 4, "load.pde$_miss": 10}
        )
        assert violations
        rendered = [v.constraint.render() for v in violations]
        assert "load.pde$_miss <= load.causes_walk" in rendered
        assert all(v.definite for v in violations)

    def test_feasible_point_no_violations(self, initial_cone):
        assert (
            identify_violations(
                initial_cone, {"load.causes_walk": 10, "load.pde$_miss": 4}
            )
            == []
        )

    def test_region_violations_definite(self, initial_cone):
        import numpy as np

        mean = np.array([4.0, 10.0])
        covariance = np.eye(2) * 0.01
        region = ConfidenceRegion(mean, covariance, confidence=0.99)
        violations = identify_violations(initial_cone, region)
        assert violations
        assert any(v.definite for v in violations)
        assert any(
            v.constraint.render() == "load.pde$_miss <= load.causes_walk"
            for v in violations
        )

    def test_region_violation_margin_sign(self, initial_cone):
        import numpy as np

        region = ConfidenceRegion(
            np.array([4.0, 10.0]), np.eye(2) * 0.01, confidence=0.99
        )
        for violation in identify_violations(initial_cone, region):
            if violation.definite:
                assert violation.margin < 0

    @pytest.mark.parametrize("backend", ["exact", "scipy"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_region_direction_of_wrong_length(self, initial_cone, backend, width):
        # Unchecked, a longer direction is silently truncated (a verdict
        # on a different region) and a shorter one raises IndexError.
        class SkewedRegion:
            def center(self):
                return [4.0, 10.0]

            def box_constraints(self):
                yield [1.0] + [0.0] * (width - 1), 3.9, 4.1

        with pytest.raises(
            AnalysisError,
            match="region direction has %d components for 2 counters" % width,
        ):
            identify_violations(initial_cone, SkewedRegion(), backend=backend)

    def test_render_mentions_tag(self, initial_cone):
        violations = identify_violations(
            initial_cone, {"load.causes_walk": 4, "load.pde$_miss": 10}
        )
        assert "[definite]" in violations[0].render()


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

signatures_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(signatures_strategy, st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3))
def test_feasibility_matches_constraint_satisfaction(signatures, point):
    """Minkowski–Weyl at the analysis level: LP feasibility of a point
    equals satisfaction of every deduced model constraint."""
    cone = ModelCone(["a", "b", "c"], signatures)
    feasible = point_feasibility(cone, point).feasible
    satisfied = cone.constraints().satisfied_by(
        [Fraction(value) for value in point]
    )
    assert feasible == satisfied


@settings(max_examples=25, deadline=None)
@given(signatures_strategy)
def test_flow_combinations_always_feasible(signatures):
    """Any non-negative integer combination of signatures is feasible."""
    cone = ModelCone(["a", "b", "c"], signatures)
    point = [0, 0, 0]
    for weight, signature in zip([1, 2, 3, 1], signatures):
        for coord in range(3):
            point[coord] += weight * signature[coord]
    result = point_feasibility(cone, point)
    assert result.feasible


@settings(max_examples=20, deadline=None)
@given(signatures_strategy)
def test_violations_empty_iff_feasible(signatures):
    cone = ModelCone(["a", "b", "c"], signatures)
    point = [1, 2, 1]
    feasible = point_feasibility(cone, point).feasible
    violations = identify_violations(cone, point)
    assert feasible == (len(violations) == 0)
