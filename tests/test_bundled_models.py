"""Tests for the bundled DSL model library."""

import os

import pytest

from repro.cone import ModelCone
from repro.cone import test_point_feasibility as point_feasibility
from repro.errors import ConfigurationError
from repro.models import bundled
from repro.models.bundled import (
    bundled_model_names,
    bundled_model_source,
    load_bundled_model,
)
from repro.pipeline import CounterPoint
from repro.plan import Plan


def planted_model_names(tmp_path):
    """A valid DSL file outside the package, and the relative and
    absolute names that would have reached it through the model
    directory."""
    planted = tmp_path / "evil" / "x.dsl"
    planted.parent.mkdir()
    planted.write_text("incr planted.secret;\ndone;\n", encoding="utf-8")
    stem = str(planted)[: -len(".dsl")]
    return [os.path.relpath(stem, bundled._DSL_DIR), stem]


class TestBundledLibrary:
    def test_names_discovered(self):
        names = bundled_model_names()
        assert "pde_initial" in names
        assert "pde_refined" in names
        assert "no_merging_load_side" in names
        assert "merging_load_side" in names
        assert "walk_refs_4k" in names

    def test_all_models_compile_and_validate(self):
        for name in bundled_model_names():
            mudd = load_bundled_model(name)
            assert mudd.validate()
            assert mudd.name == name

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            bundled_model_source("ghost_model")

    def test_paths_outside_the_package_are_rejected(self, tmp_path):
        for name in planted_model_names(tmp_path):
            with pytest.raises(ConfigurationError, match="no bundled model"):
                load_bundled_model(name)

    def test_plans_cannot_load_a_planted_file(self, tmp_path):
        for name in planted_model_names(tmp_path):
            plan = Plan()
            plan.simulate_dataset(name, 1, n_uops=200)
            with CounterPoint() as counterpoint:
                with pytest.raises(ConfigurationError, match="no bundled model"):
                    counterpoint.run(plan)

    def test_changing_a_loaded_model_leaves_the_next_load_alone(self):
        first = load_bundled_model("pde_initial")
        before = list(first.counters)
        end = first.end_nodes()[0].node_id
        first.add_edge(first.add_node("counter", "extra.counter"), end)
        assert "extra.counter" in first.counters
        again = load_bundled_model("pde_initial")
        assert again is not first
        assert again.counters == before
        assert len(again.nodes) == len(first.nodes) - 1

    def test_sources_carry_documentation(self):
        for name in bundled_model_names():
            assert bundled_model_source(name).startswith("#")


class TestBundledSemantics:
    def test_pde_pair_tells_the_figure6_story(self):
        observation = {"load.causes_walk": 5, "load.pde$_miss": 12}
        initial = ModelCone.from_mudd(load_bundled_model("pde_initial"))
        refined = ModelCone.from_mudd(
            load_bundled_model("pde_refined"),
            counters=["load.causes_walk", "load.pde$_miss"],
        )
        assert not point_feasibility(initial, observation).feasible
        assert point_feasibility(refined, observation).feasible

    def test_merging_pair_tells_the_constraint1_story(self):
        counters = ["load.causes_walk", "load.walk_done", "load.ret_stlb_miss"]
        observation = {
            "load.causes_walk": 10,
            "load.walk_done": 10,
            "load.ret_stlb_miss": 45,
        }
        without = ModelCone.from_mudd(
            load_bundled_model("no_merging_load_side"), counters=counters
        )
        with_merging = ModelCone.from_mudd(
            load_bundled_model("merging_load_side"), counters=counters
        )
        assert not point_feasibility(without, observation).feasible
        assert point_feasibility(with_merging, observation).feasible

    def test_no_merging_model_implies_constraint1(self):
        # The facet basis renders Constraint 1 in the equivalent form
        # 2*ret_stlb <= causes_walk + walk_done (with walk_done ==
        # causes_walk as an equality); check the implication itself.
        cone = ModelCone.from_mudd(load_bundled_model("no_merging_load_side"))
        constraints = cone.constraints()
        boundary = [10, 10, 10]  # walks, done, retired misses
        violating = [10, 10, 11]
        assert constraints.satisfied_by(boundary)
        assert not constraints.satisfied_by(violating)

    def test_walk_refs_model_bounds_references(self):
        cone = ModelCone.from_mudd(load_bundled_model("walk_refs_4k"))
        index = {name: i for i, name in enumerate(cone.counters)}
        refs = [index[n] for n in ("walk_ref.l1", "walk_ref.l2", "walk_ref.l3", "walk_ref.mem") if n in index]
        for signature in cone.signatures:
            total_refs = sum(signature[i] for i in refs)
            pde_miss = signature[index["load.pde$_miss"]]
            assert total_refs == 1 + pde_miss  # 1 read on hit, 2 on miss
