"""Verdict bytes are a function of content, not of history.

The session stores a cell's verdict under a content key (cone
fingerprint, observation hash, backend, mode), so its bytes, refutation
evidence included, must depend on that content alone. They must not
depend on:

* the order of the work (the campaign's ops declared in reverse, or in
  a seeded shuffle);
* an earlier ``analyze`` in the same process, whose violation list
  deduces the constraints of a cone that every pipeline shares;
* a cache directory whose cones were written back with their deduced
  constraints.

One small campaign over the six bundled DSL models runs under each of
those conditions, on both backends, with ``explain`` off and on. The
campaign has a ``cross_refute``, a simulated dataset with a ``compare``
and a ``sweep`` on it, a sweep of inline observations, and ``analyze``
ops on those observations and on a few more points. Its canonical bundle (the text ``repro serve`` returns
and perfbench hashes) and every report's JSON must be byte-identical to
a cold run's.

Every run gets fresh cache directories. Pipelines in one process share
cones per directory (:func:`repro.cone.cache.shared_cache`), so a fresh
directory is the only cold start a test can count on.
``SIM_EQUIV_SEED`` (CI rotates it daily) offsets the simulation seeds,
as in ``test_certified_lp.py``.
"""

import json
import os
import random
import shutil

import pytest

from repro import CounterPoint, Plan, PlanResult
from repro.cone.violations import Violation
from repro.models import bundled_model_names
from repro.results.store import ARTIFACT_FORMAT_VERSION
from repro.results.types import CellVerdict
from repro.sim import simulate_dataset
from repro.sim.scenarios import as_mudd

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))

MODELS = bundled_model_names()
N_UOPS = 2000

#: ``(candidate, source)``: besides every observation of its inline
#: sweep, the campaign analyzes one point simulated from ``source``
#: against ``candidate``. Both models of a pair count the same events.
ANALYZE_PAIRS = (
    ("merging_load_side", "no_merging_load_side"),
    ("pde_initial", "pde_refined"),
    ("pde_refined", "pde_initial"),
)

BACKENDS = ("exact", "scipy")


def campaign_ops(explain):
    """The campaign as ``(Plan method, args, keyword args)`` triples, in
    their natural order. Analyzing the inline sweep's own observations
    deduces the swept cone whenever one is refuted, so declaring the
    ops in another order changes what the sweep finds on the cone."""
    seed = BASE_SEED
    inline = simulate_dataset("merging_load_side", 4, n_uops=N_UOPS, seed=seed)
    ops = [
        ("cross_refute", (MODELS,), dict(
            n_observations=2, n_uops=N_UOPS, seed=seed, op_id="matrix",
        )),
        ("simulate_dataset", (MODELS[0], 3), dict(
            n_uops=N_UOPS, seed=seed + 1, op_id="data",
        )),
        ("compare", (MODELS, "data"), dict(op_id="ranking")),
        ("sweep", ("no_merging_load_side", "data"), dict(op_id="refute")),
        ("sweep", ("no_merging_load_side", inline), dict(op_id="inline")),
    ]
    analyses = [("no_merging_load_side", observation.point()) for observation in inline]
    for index, (candidate, source) in enumerate(ANALYZE_PAIRS):
        analyses.append((candidate, simulate_dataset(
            source, 1, n_uops=N_UOPS, seed=seed + 2 + index
        )[0].point()))
    for index, (candidate, point) in enumerate(analyses):
        ops.append(("analyze", (candidate, point), dict(op_id="analyze%d" % index)))
    for method, _, options in ops:
        if method != "simulate_dataset":
            options["explain"] = explain
    return ops


def run_campaign(ops, backend, cache_dir):
    """Run the ops, declared in the given order, in a fresh pipeline;
    returns the op results by op id, in execution order."""
    plan = Plan()
    for method, args, options in ops:
        getattr(plan, method)(*args, **options)
    with CounterPoint(backend=backend, cache_dir=cache_dir) as counterpoint:
        return dict(counterpoint.run(plan).items())


def canonical(results, order):
    """The canonical bundle text of ``results`` with its ops in
    ``order`` (for a run's own execution order, exactly the text
    ``repro serve`` returns), and each report's JSON by op id. A bundle
    records its op order, so runs that declared their ops in another
    order are compared in the cold run's."""
    bundle = PlanResult([(op_id, results[op_id]) for op_id in order])
    reports = {
        op_id: result.to_json()
        for op_id, result in results.items()
        if op_id.startswith("analyze")
    }
    return bundle.to_json(indent=2), reports


def evidence(bundle):
    """``(refuted cells, why entries)`` over every sweep in a bundle."""
    refuted = why = 0
    stack = [json.loads(bundle)]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if node.get("kind") == "model_sweep":
                refuted += len(node["infeasible"])
                why += len(node["why"])
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return refuted, why


def orderings():
    """Every counter ordering the campaign builds cones in: each
    model's own, which is also the ordering of its simulated data."""
    return sorted({tuple(as_mudd(model).counters) for model in MODELS})


def deduce_by_analyze(backend, cache_dir):
    """Analyze an infeasible point on every cone the campaign touches:
    each candidate under each counter ordering. A negative count is
    infeasible for every cone (counts are non-negative, Appendix A), and
    the report's violation list deduces the cone's constraints. Reading
    each cone again writes it back to the cone cache with them. Each
    point is new, so that no report is served from the memo of another
    cone with the same content."""
    with CounterPoint(backend=backend, cache_dir=cache_dir) as counterpoint:
        count = 0
        for candidate in MODELS:
            for counters in orderings():
                cone = counterpoint.model_cone(candidate, counters=list(counters))
                count += 1
                report = counterpoint.analyze(
                    cone, [-count] + [0] * (len(counters) - 1)
                )
                assert not report.feasible
                again = counterpoint.model_cone(candidate, counters=list(counters))
                assert again is cone and cone.has_deduced_constraints()


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_campaign_bytes_depend_only_on_content(backend, explain, tmp_path):
    ops = campaign_ops(explain)
    results = run_campaign(ops, backend, tmp_path / "cold")
    order = list(results)
    cold = canonical(results, order)
    refuted, why = evidence(cold[0])
    assert refuted and why == (refuted if explain else 0)

    shuffled = list(ops)
    random.Random(BASE_SEED).shuffle(shuffled)
    for name, declared in (("reversed", ops[::-1]), ("shuffled", shuffled)):
        results = run_campaign(declared, backend, tmp_path / name)
        assert canonical(results, order) == cold, name

    deduced = tmp_path / "deduced"
    deduce_by_analyze(backend, deduced)
    warm = tmp_path / "warm"
    shutil.copytree(str(deduced / "cones"), str(warm / "cones"))
    results = run_campaign(ops, backend, deduced)
    assert list(results) == order
    assert canonical(results, order) == cold

    with CounterPoint(backend=backend, cache_dir=warm) as counterpoint:
        for candidate in MODELS:
            for counters in orderings():
                cone = counterpoint.model_cone(candidate, counters=list(counters))
                assert cone.has_deduced_constraints(), (candidate, counters)
        assert counterpoint.cone_cache.builds == 0
    results = run_campaign(ops, backend, warm)
    assert list(results) == order
    assert canonical(results, order) == cold


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_sweep_after_analyze_keeps_bytes(backend, explain, tmp_path):
    """The reproduction that found the history dependence. Over
    ``data = simulate_dataset("merging_load_side", 4, seed=0)``,
    ``sweep("no_merging_load_side", data)`` refutes ``run0``. One
    ``analyze`` of ``data[0].point()`` in the same process used to
    change the sweep's ``why``: it gained the screened facet
    ``2*load.ret_stlb_miss <= load.causes_walk + load.walk_done`` where
    a cold sweep had none (``explain`` off) or ``load.ret_stlb_miss <=
    load.walk_done`` (``explain`` on)."""
    data = simulate_dataset("merging_load_side", 4, seed=0)
    with CounterPoint(backend=backend, cache_dir=tmp_path / "cold") as counterpoint:
        before = counterpoint.sweep("no_merging_load_side", data, explain=explain)
    with CounterPoint(backend=backend, cache_dir=tmp_path / "after") as counterpoint:
        report = counterpoint.analyze("no_merging_load_side", data[0].point())
    # A fresh pipeline on the same directory shares the cone the analyze
    # deduced, but no verdict: its store holds only the report.
    with CounterPoint(backend=backend, cache_dir=tmp_path / "after") as counterpoint:
        assert counterpoint.model_cone("no_merging_load_side").has_deduced_constraints()
        after = counterpoint.sweep("no_merging_load_side", data, explain=explain)
    assert not report.feasible
    assert before.infeasible_names == ["sim:merging_load_side/run0"]
    assert after.to_json() == before.to_json()
    if explain:
        violation = before.why["sim:merging_load_side/run0"]
        assert violation.constraint.render() == "load.ret_stlb_miss <= load.walk_done"
    else:
        assert not before.why


@pytest.mark.parametrize("backend", BACKENDS)
def test_version_1_verdicts_are_recomputed(backend, tmp_path):
    """A verdict stored at artifact version 1 may carry evidence an
    earlier history left on the cone; the session recomputes it."""
    data = simulate_dataset("merging_load_side", 4, seed=BASE_SEED)
    with CounterPoint(backend=backend, cache_dir=tmp_path) as counterpoint:
        clean = counterpoint.sweep("no_merging_load_side", data)
        cone = counterpoint.model_cone("no_merging_load_side")
        facet = cone.constraints()[0]
    # Plant evidence a version 1 entry could hold, a deduced facet, in
    # every cell of the sweep's page, and stamp the page version 1.
    vector = cone.vector_from_observation(data[0].point())
    planted = CellVerdict(False, Violation(facet, facet.evaluate(vector), definite=True))
    (page,) = (tmp_path / "artifacts").glob("verdict-*.json")
    envelope = json.loads(page.read_text())
    assert envelope["version"] == ARTIFACT_FORMAT_VERSION == 3
    assert len(envelope["payload"]) == len(data)
    envelope["version"] = 1
    envelope["payload"] = {cell: planted.to_dict() for cell in envelope["payload"]}
    page.write_text(json.dumps(envelope, sort_keys=True))
    with CounterPoint(backend=backend, cache_dir=tmp_path) as counterpoint:
        again = counterpoint.sweep("no_merging_load_side", data)
        stats = counterpoint.session().stats
    assert stats.tests == len(data) and stats.store_hits == 0
    assert again.to_json() == clean.to_json()
