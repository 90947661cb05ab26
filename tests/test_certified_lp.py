"""Differential suite: certified exact membership against the simplex.

:func:`repro.lp.membership.certified_membership` answers every exact
point-membership question with a float HiGHS solve whose answer is then
proved in integer arithmetic (an exact non-negative flow, or a Farkas
ray), and re-solves anything it cannot prove on the rational simplex
(:func:`repro.lp.simplex.solve_exact`). A verdict that differs from the
simplex's is a bug, whichever route produced it. The sweeps here drive
both over seeded random generator sets (duplicate, collinear and
all-zero columns, signed and non-negative), the six bundled DSL models
and ``tests/sim_fuzz.py`` µDDs against simulated points, and require:

* the same verdict as the simplex on the one membership LP builder
  (:func:`repro.lp.membership.membership_lp`);
* for a feasible answer, exact flows with ``G f = v`` and ``f >= 0``.

Degenerate inputs (facets, rank-deficient supports, the zero vector,
``Fraction`` points, counts above 2^53, no generators) and every
fallback route (no HiGHS bindings; a model that answers with a wrong
status, solution or ray) must keep the simplex's verdict, and each
fallback must show in the ``lp.certify.fallbacks`` counter.

``SIM_EQUIV_SEED`` (CI rotates it daily) offsets the seed range, as in
``test_path_fold.py``, so the sweep covers new instances over time while
any failure stays reproducible from its seed.
"""

import os
import random
import threading
from fractions import Fraction

import pytest

from repro.cone import ModelCone
from repro.cone import test_point_feasibility as point_feasibility
from repro.cone import test_points_feasibility as points_feasibility
from repro.geometry import Cone
from repro.lp import Status, highs_fast, solve
from repro.lp.membership import (
    MembershipBatch,
    certified_membership,
    membership_lp,
)
from repro.models import bundled_model_names, load_bundled_model
from repro.obs.trace import Tracer, activate
from repro.sim import MuDDExecutor, RandomOracle
from sim_fuzz import observed_counters, random_mudd, random_weights

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))

N_SEEDS = 200  # random generator sets per sweep

FUZZ_CASES = 60  # sim_fuzz µDDs per sweep

WEIGHTS = (0, 0, 1, 2, 5, Fraction(1, 3), Fraction(7, 2))


# -- references and checks ----------------------------------------------------

def reference(generators, point):
    """The simplex's verdict on the membership LP."""
    built = membership_lp(generators, point)
    if built is None:
        return False
    return solve(built[0], backend="exact").status == Status.OPTIMAL


def assert_exact_flows(generators, point, flows, context=None):
    assert len(flows) == len(generators), context
    assert all(isinstance(flow, Fraction) and flow >= 0 for flow in flows), \
        context
    for coord, value in enumerate(point):
        total = sum(
            (flow * generator[coord] for flow, generator in zip(flows, generators)),
            Fraction(0),
        )
        assert total == value, (context, coord, total, value)


def check(generators, point, context):
    """Certified answer == simplex answer, with exact flows."""
    feasible, flows = certified_membership(generators, point)
    assert feasible == reference(generators, point), context
    if feasible:
        assert_exact_flows(generators, point, flows, context)
    else:
        assert flows is None, context
    return feasible


def counters(tracer):
    return tracer.metrics.as_dict()["counters"]


def certified_spans(tracer):
    return [
        record for record in tracer.records
        if record.get("name") == "lp.solve"
        and record["attrs"].get("method") == "certified"
    ]


def fallbacks(tracer):
    return counters(tracer).get("lp.certify.fallbacks", 0)


def combination(rng, generators, n_counters):
    """A non-negative combination of ``generators`` (a feasible point);
    zero weights put it on a face."""
    weights = [rng.choice(WEIGHTS) for _ in generators]
    return [
        sum((w * g[coord] for w, g in zip(weights, generators)), Fraction(0))
        for coord in range(n_counters)
    ]


def random_generators(rng, n_counters):
    """A random int generator set with duplicate, collinear and all-zero
    columns; signed entries in about a third of the sets."""
    low = -3 if rng.random() < 0.3 else 0
    generators = []
    for _ in range(rng.randint(1, 9)):
        kind = rng.random()
        if generators and kind < 0.15:
            generators.append(rng.choice(generators))
        elif generators and kind < 0.3:
            factor = rng.randint(2, 3)
            generators.append(
                tuple(factor * value for value in rng.choice(generators))
            )
        elif kind < 0.38:
            generators.append((0,) * n_counters)
        else:
            generators.append(
                tuple(rng.randint(low, 3) for _ in range(n_counters))
            )
    return generators


# -- seeded differential sweeps ------------------------------------------------

def test_random_generator_sets_match_simplex():
    """N_SEEDS random cones, two combinations and two random points each:
    every verdict equals the simplex's, and the certificates (not the
    fallback) produce nearly all of them."""
    tracer = Tracer()
    verdicts = {True: 0, False: 0}
    with activate(tracer):
        for case in range(N_SEEDS):
            seed = BASE_SEED + case
            rng = random.Random(seed)
            n_counters = rng.randint(1, 6)
            generators = random_generators(rng, n_counters)
            context = "seed=%d (SIM_EQUIV_SEED=%d)" % (seed, BASE_SEED)
            for _ in range(2):
                point = combination(rng, generators, n_counters)
                assert check(generators, point, context), context
                verdicts[True] += 1
            for _ in range(2):
                point = [
                    Fraction(rng.randint(-3, 9), rng.choice((1, 1, 2, 3)))
                    for _ in range(n_counters)
                ]
                verdicts[check(generators, point, context)] += 1
    assert verdicts[True] and verdicts[False]
    solves = len(certified_spans(tracer))
    assert solves > N_SEEDS
    assert fallbacks(tracer) <= solves // 10


def _simulated(mudd, counters, seed, weights=None, n_uops=40):
    executor = MuDDExecutor(mudd, counters=counters)
    totals = executor.run(RandomOracle(seed=seed, weights=weights), range(n_uops))
    return [totals[name] for name in counters]


def _perturbed(rng, point):
    """A nearby point: one counter bumped, or two swapped."""
    point = list(point)
    if len(point) > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(len(point)), 2)
        point[i], point[j] = point[j], point[i]
    else:
        point[rng.randrange(len(point))] += rng.choice((1, 2, -1))
    return point


def test_bundled_models_on_simulated_points():
    """Each bundled model's simulated points against every bundled cone
    whose counters it observes: the batched exact path's verdicts and
    flows against the simplex."""
    cones = {}
    mudds = {}
    for name in bundled_model_names():
        mudds[name] = load_bundled_model(name)
        cones[name] = ModelCone.from_mudd(mudds[name])
    rng = random.Random(BASE_SEED)
    verdicts = {True: 0, False: 0}
    for source, mudd in mudds.items():
        observed = list(mudd.counters)
        points = [
            dict(zip(observed, _simulated(mudd, observed, BASE_SEED + k)))
            for k in range(3)
        ]
        points += [
            dict(zip(observed, _perturbed(rng, list(point.values()))))
            for point in points
        ]
        for target, cone in cones.items():
            if not set(cone.counters) <= set(observed):
                continue
            aligned = [[point[name] for name in cone.counters] for point in points]
            results = points_feasibility(cone, aligned)
            for point, result in zip(aligned, results):
                context = (source, target, point)
                expected = reference(cone.signatures, point)
                assert result.feasible == expected, context
                if expected:
                    assert_exact_flows(cone.signatures, point, result.flows, context)
                verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]


def test_fuzz_mudds_on_simulated_points():
    """FUZZ_CASES sim_fuzz µDDs: simulated points (feasible by
    construction) and perturbed neighbours against the simplex."""
    tracer = Tracer()
    with activate(tracer):
        for case in range(FUZZ_CASES):
            seed = BASE_SEED + case
            mudd = random_mudd(seed)
            if not mudd.counters:
                continue
            counters = observed_counters(seed, mudd)
            cone = ModelCone.from_mudd(mudd, counters=counters)
            rng = random.Random(seed)
            point = _simulated(mudd, counters, seed, random_weights(seed, mudd))
            context = "seed=%d (SIM_EQUIV_SEED=%d)" % (seed, BASE_SEED)
            result = point_feasibility(cone, point)
            assert result.feasible, context
            assert_exact_flows(cone.signatures, point, result.flows, context)
            for _ in range(2):
                nearby = _perturbed(rng, point)
                result = point_feasibility(cone, nearby)
                assert result.feasible == reference(cone.signatures, nearby), \
                    context
                if result.feasible:
                    assert_exact_flows(
                        cone.signatures, nearby, result.flows, context
                    )
    assert fallbacks(tracer) <= len(certified_spans(tracer)) // 10


# -- degenerate inputs ---------------------------------------------------------

PYRAMID = [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)]


@pytest.mark.parametrize("point, feasible", [
    ([2, 1, 0], True),     # on the facet spanned by (1,0,0), (1,1,0)
    ([3, 3, 3], True),     # on an extreme ray
    ([5, 5, 0], True),     # on the ray (1,1,0)
    ([2, 3, 0], False),    # beyond the facet
    ([4, 2, 2], True),     # interior
])
def test_points_on_facets(point, feasible):
    tracer = Tracer()
    with activate(tracer):
        assert check(PYRAMID, point, point) == feasible
    assert fallbacks(tracer) == 0


def test_rank_deficient_generators():
    """Dependent and collinear columns: the certified support is
    independent, so the flow is unique on it."""
    generators = [(1, 0), (0, 1), (1, 1), (2, 2), (3, 3)]
    tracer = Tracer()
    with activate(tracer):
        for point in ([2, 2], [1, 3], [0, 4], [3, 0]):
            assert check(generators, point, point)
        assert not check(generators, [-1, 2], "negative coordinate")
    assert fallbacks(tracer) == 0


def test_zero_vector_needs_no_model():
    """The zero point is feasible with zero flows before any model is
    built or any LP span opens."""
    class Untouchable:
        lock = threading.RLock()

        def solve(self, rhs):
            raise AssertionError("the zero point must not reach a solver")

    tracer = Tracer()
    with activate(tracer):
        feasible, flows = certified_membership(
            PYRAMID, [0, Fraction(0), 0], model=Untouchable()
        )
    assert feasible and flows == [0, 0, 0, 0]
    assert not certified_spans(tracer)


def test_fraction_points():
    generators = [(2, 1, 0), (0, 3, 1), (1, 0, 5)]
    for point in (
        [Fraction(1, 3), Fraction(1, 6), 0],
        [Fraction(7, 2), Fraction(11, 4), Fraction(3, 4)],
        [Fraction(1, 10**9), Fraction(1, 2 * 10**9), 0],
    ):
        assert check(generators, point, point)
    assert not check(generators, [Fraction(1, 3), Fraction(-1, 7), 0], "neg")


def test_counts_above_two_to_the_53():
    """Counts floats cannot tell apart: a float answer the exact check
    rejects falls back to the simplex, which decides correctly."""
    big = 2**60
    tracer = Tracer()
    with activate(tracer):
        # One unit of flow on (2, 1) is below float resolution.
        assert check([(1, 1), (2, 1)], [big + 1, big], "big feasible")
        # (big, big + 1) lies just outside; as floats it is on the ray (1, 1).
        assert not check([(1, 1), (2, 1)], [big, big + 1], "big infeasible")
        assert check([(1, 0, 1), (0, 1, 1)], [big + 3, big + 5, 2 * big + 8],
                     "big exact")
        assert not check([(1, 0, 1), (0, 1, 1)],
                         [big + 3, big + 5, 2 * big + 7], "off by one")
    assert fallbacks(tracer) >= 2


def test_no_generators():
    assert certified_membership([], [0, 0]) == (True, [])
    assert certified_membership([], [1, 0]) == (False, None)
    empty = ModelCone(["a", "b"], [])
    assert point_feasibility(empty, [0, 0]).feasible
    assert not point_feasibility(empty, [0, 3]).feasible
    assert Cone([], ambient_dim=2).contains([0, 0])
    assert not Cone([], ambient_dim=2).contains([1, 0])


# -- fallbacks -----------------------------------------------------------------

TRIANGLE = [(1, 0, 1), (0, 1, 1), (1, 1, 0)]
INSIDE = [2, 2, 2]      # flows (1, 1, 1)
OUTSIDE = [5, 0, 0]     # refuted by y = (-1, 1, 1)


class StubModel:
    """A model that answers whatever it is told to."""

    def __init__(self, status, solution=None, ray=None):
        self.lock = threading.RLock()
        self.status = status
        self.solution = solution
        self.ray = ray

    def solve(self, rhs):
        return self.status, self.solution

    def dual_ray(self):
        return self.ray


def assert_falls_back(model, point, expected):
    """One certified solve through ``model``: the simplex's verdict,
    one fallback, and the simplex nested inside the certified span."""
    tracer = Tracer()
    with activate(tracer):
        feasible, flows = certified_membership(TRIANGLE, point, model=model)
    assert feasible == expected == reference(TRIANGLE, point)
    if feasible:
        assert_exact_flows(TRIANGLE, point, flows)
    assert fallbacks(tracer) == 1
    (outer,) = certified_spans(tracer)
    assert outer["attrs"]["fallback"]
    nested = [
        record for record in tracer.records
        if record.get("name") == "lp.solve" and record["depth"] > outer["depth"]
    ]
    assert len(nested) == 1 and nested[0]["attrs"]["backend"] == "exact"
    return outer["attrs"]["fallback"]


def test_highs_unavailable(monkeypatch):
    monkeypatch.setattr(highs_fast, "_HIGHS_OK", False)
    assert assert_falls_back(None, INSIDE, True) == "no model"
    assert assert_falls_back(None, OUTSIDE, False) == "no model"
    cone = ModelCone(["a", "b", "c"], TRIANGLE)
    tracer = Tracer()
    with activate(tracer):
        results = points_feasibility(cone, [INSIDE, OUTSIDE, [0, 0, 0]])
    assert [result.feasible for result in results] == [True, False, True]
    assert fallbacks(tracer) == 2


@pytest.mark.parametrize("status", [
    highs_fast.ERROR, highs_fast.UNBOUNDED, "something new",
])
def test_wrong_status_falls_back(status):
    assert_falls_back(StubModel(status), INSIDE, True)
    assert_falls_back(StubModel(status), OUTSIDE, False)


@pytest.mark.parametrize("solution", [
    None,                         # no solution at all
    [1.0, 1.0],                   # wrong length
    [0.0, 0.0, 0.0],              # empty support
    [3.0, -1.0, 2.0],             # support misses a needed column
    [1.0, 1.0, 1.0],              # a real flow, but for INSIDE only
])
def test_wrong_solution_never_flips_a_refutation(solution):
    """An OPTIMAL claim for a refuted point cannot pass the flow check."""
    assert_falls_back(StubModel(highs_fast.OPTIMAL, solution), OUTSIDE, False)


def test_rank_deficient_support_falls_back():
    """A support with dependent columns has no unique flow to check."""
    generators = [(1, 0), (0, 1), (1, 1)]
    model = StubModel(highs_fast.OPTIMAL, [1.0, 1.0, 1.0])
    tracer = Tracer()
    with activate(tracer):
        feasible, flows = certified_membership(generators, [2, 2], model=model)
    assert feasible
    assert_exact_flows(generators, [2, 2], flows)
    assert fallbacks(tracer) == 1


def test_negative_exact_flow_falls_back():
    """A full-rank support whose exact flow is negative is rejected:
    (0, 1) = -1 * (1, 0) + 1 * (1, 1) lies outside cone{(1,0), (1,1)}."""
    generators = [(1, 0), (1, 1)]
    model = StubModel(highs_fast.OPTIMAL, [1.0, 1.0])
    tracer = Tracer()
    with activate(tracer):
        assert certified_membership(generators, [0, 1], model=model) == \
            (False, None)
    assert fallbacks(tracer) == 1
    assert certified_spans(tracer)[0]["attrs"]["fallback"] == \
        "flow check failed"


@pytest.mark.parametrize("ray", [
    None,                          # no ray
    [1.0, 1.0, 1.0],               # does not separate
    [-1.0, 1.0],                   # wrong length
    [0.0, 0.0, 0.0],               # all zero
    [float("nan"), 1.0, 1.0],      # not finite
    [1e-12, 0.0, 0.0],             # tiny: normalised, still no separation
])
def test_wrong_ray_never_flips_a_feasible_point(ray):
    """An INFEASIBLE claim for a feasible point cannot pass the ray
    check."""
    assert_falls_back(StubModel(highs_fast.INFEASIBLE, ray=ray), INSIDE, True)


def test_stub_ray_in_either_sign_certifies():
    for ray in ([-1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-0.5, 0.5, 0.5]):
        tracer = Tracer()
        with activate(tracer):
            feasible, flows = certified_membership(
                TRIANGLE, OUTSIDE,
                model=StubModel(highs_fast.INFEASIBLE, ray=ray),
            )
        assert (feasible, flows) == (False, None)
        assert fallbacks(tracer) == 0


def test_unexpected_dual_ray_shape_falls_back():
    """A binding whose getDualRay answers in another shape is treated as
    having no ray."""
    import numpy as np

    model = highs_fast.make_feasibility_model(
        np.array(TRIANGLE, dtype=float).T
    )
    if model is None:
        pytest.skip("HiGHS bindings unavailable")

    class TwoTupleRay:
        def __init__(self, solver):
            self._solver = solver

        def __getattr__(self, name):
            return getattr(self._solver, name)

        def getDualRay(self):
            return True, [-1.0, 1.0, 1.0]

    model._solver = TwoTupleRay(model._solver)
    assert model.dual_ray() is None
    assert assert_falls_back(model, OUTSIDE, False) == "no ray"


# -- model lifetime --------------------------------------------------------------

def test_one_lazy_model_per_batch_never_stored(monkeypatch):
    """test_points_feasibility builds one model per call, at the first
    cell that needs an LP, and stores none on the cone."""
    built = []
    real = highs_fast.make_feasibility_model

    def counting(matrix):
        built.append(matrix.shape)
        return real(matrix)

    monkeypatch.setattr(highs_fast, "make_feasibility_model", counting)
    cone = ModelCone(["a", "b", "c", "d"], [(1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 0, 0)])
    # Every cell settled before an LP: zero point, untouched counter.
    points_feasibility(cone, [[0, 0, 0, 0], [1, 1, 2, 3]])
    assert built == []
    results = points_feasibility(cone, [[2, 2, 2, 0], [5, 0, 0, 0], [0, 0, 0, 1]])
    assert [result.feasible for result in results] == [True, False, False]
    assert built == [(4, 3)]
    point_feasibility(cone, [1, 1, 2, 0])
    assert len(built) == 2
    assert cone._flow_model is None and not cone._flow_model_built
    assert not any(isinstance(value, Cone) for value in vars(cone).values())


def test_subset_builds_one_model_for_other(monkeypatch):
    built = []
    real = highs_fast.make_feasibility_model

    def counting(matrix):
        built.append(matrix.shape)
        return real(matrix)

    monkeypatch.setattr(highs_fast, "make_feasibility_model", counting)
    inner = Cone([(1, 1, 0), (0, 1, 1), (1, 2, 1)])
    outer = Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert inner.is_subset_of(outer)
    assert not outer.is_subset_of(inner)
    assert len(built) == 2
    assert not outer._scipy_model_built and not inner._scipy_model_built


def test_batch_reuses_its_model():
    batch = MembershipBatch(TRIANGLE)
    assert batch.test(INSIDE)[0] and not batch.test(OUTSIDE)[0]
    model = batch.model()
    assert batch.test([1, 1, 2])[0]
    assert batch.model() is model


def test_certified_spans_carry_backend_and_method():
    tracer = Tracer()
    cone = ModelCone(["a", "b", "c"], TRIANGLE)
    with activate(tracer):
        points_feasibility(cone, [INSIDE, OUTSIDE])
    spans = certified_spans(tracer)
    assert len(spans) == 2
    assert all(span["attrs"]["backend"] == "exact" for span in spans)
    assert [span["attrs"]["status"] for span in spans] == \
        [Status.OPTIMAL, Status.INFEASIBLE]
    assert tracer.metrics.histogram("lp.solve_seconds").count == 2
