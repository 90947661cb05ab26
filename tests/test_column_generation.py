"""Differential suite: the column-subset HiGHS model against full solves.

A :class:`repro.lp.highs_fast.FeasibilityModel` over a matrix with more
than :data:`~repro.lp.highs_fast.NARROW_COLUMNS_PER_ROW` columns per row
loads a subset of its columns and prices the rest against HiGHS's dual
ray (delayed column generation). Its answers must be the full matrix's:

* ``scipy`` verdicts equal ``scipy.optimize.linprog`` on the full matrix,
  and a feasible answer's flow solves the full system;
* exact verdicts (:class:`~repro.lp.membership.MembershipBatch`) equal
  the rational simplex's, with exact flows;
* every ray :meth:`~repro.lp.highs_fast.FeasibilityModel.dual_ray`
  returns after an infeasible answer is a Farkas certificate against
  every column, loaded or not;
* pinned columns (``exclude_column``/``include_column``) behave as in a
  full model with the same columns pinned, and constraint deduction for
  m0 and m7 keeps its output;
* all 432 Table 5 point verdicts equal ``linprog``'s;
* a missing ray, a ``getDualRay`` of another shape, or an ``ERROR`` in
  the middle of pricing gives the full model's verdict, or the simplex
  fallback on ``exact``.

The random generator sets are wider than the narrow cutoff, with
duplicate, collinear, all-zero and signed columns; the points are
feasible combinations, combinations nudged just outside a facet, and
random points. ``SIM_EQUIV_SEED`` (CI rotates it daily) offsets the seed
range, as in ``test_certified_lp.py``.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.cone import ModelCone
from repro.cone import test_points_feasibility as points_feasibility
from repro.geometry import Cone
from repro.geometry.halfspace import INEQUALITY
from repro.linalg import int_dot, int_row
from repro.lp import highs_fast
from repro.lp.membership import (
    MembershipBatch,
    _simplex_membership,
    certified_membership,
    is_farkas_certificate,
    rationalize,
)
from repro.obs.trace import Tracer, activate

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))

N_SETS = 40  # random wide generator sets per sweep

pytestmark = pytest.mark.skipif(
    not highs_fast.highs_available(), reason="HiGHS bindings unavailable"
)


# -- references and checks ----------------------------------------------------

def linprog_feasible(generators, point, pinned=()):
    """``linprog``'s verdict on ``G f = point, f >= 0`` over every
    column, with the ``pinned`` columns fixed at zero."""
    matrix = np.array(generators, dtype=float).T
    bounds = [(0, 0) if j in pinned else (0, None) for j in range(len(generators))]
    result = linprog(
        np.zeros(len(generators)), A_eq=matrix,
        b_eq=np.array([float(value) for value in point]),
        bounds=bounds, method="highs",
    )
    assert result.status in (0, 2), result.message
    return result.status == 0


def assert_float_flow(generators, point, flows, context):
    assert len(flows) == len(generators), context
    flows = np.array(flows)
    assert (flows >= -1e-9).all(), context
    residual = np.array(generators, dtype=float).T @ flows - np.array(point, dtype=float)
    assert np.abs(residual).max() <= 1e-6 * max(1.0, np.abs(point).max()), context


def assert_exact_flows(generators, point, flows, context):
    assert len(flows) == len(generators), context
    assert all(isinstance(flow, Fraction) and flow >= 0 for flow in flows), context
    for coord, value in enumerate(point):
        total = sum((flow * g[coord] for flow, g in zip(flows, generators)), Fraction(0))
        assert total == value, (context, coord)


def assert_certifies(generators, point, ray, context):
    """``ray``, rationalised, separates ``point`` from the cone of every
    column (in one of its two signs)."""
    largest = max(abs(value) for value in ray)
    normal = rationalize([value / largest for value in ray])
    assert normal is not None, context
    b = int_row(point)
    assert is_farkas_certificate(normal, generators, b) or \
        is_farkas_certificate([-value for value in normal], generators, b), context


# -- inputs ---------------------------------------------------------------------

def random_wide_generators(rng):
    """A random int generator set wider than the narrow cutoff, with
    duplicate, collinear and all-zero columns; signed entries in about a
    third of the sets."""
    n_rows = rng.randint(3, 5)
    width = rng.randint(highs_fast.NARROW_COLUMNS_PER_ROW * n_rows + 1, 12 * n_rows)
    low = -2 if rng.random() < 0.3 else 0
    generators = []
    while len(generators) < width:
        kind = rng.random()
        if generators and kind < 0.1:
            generators.append(rng.choice(generators))
        elif generators and kind < 0.2:
            factor = rng.randint(2, 3)
            generators.append(tuple(factor * value for value in rng.choice(generators)))
        elif kind < 0.25:
            generators.append((0,) * n_rows)
        else:
            generators.append(tuple(
                rng.choice((0, 0, 0, low, 1, 2, 3)) for _ in range(n_rows)
            ))
    return generators


def combination(rng, generators, support=None):
    """An int non-negative combination of ``support`` (default: a few
    random generators)."""
    if support is None:
        support = rng.sample(generators, rng.randint(1, min(4, len(generators))))
    point = [0] * len(generators[0])
    for generator in support:
        weight = rng.randint(1, 5)
        for coord, value in enumerate(generator):
            point[coord] += weight * value
    return point


def nudged_points(rng, generators, limit=3):
    """Points just outside the cone: a combination of the generators on
    a facet (or in the span), scaled, then moved one normal's length
    across it."""
    cone = Cone(generators, ambient_dim=len(generators[0]))
    facets = cone.facet_constraints()
    points = []
    for facet in rng.sample(facets, min(limit, len(facets))):
        normal = int_row(facet.normal)
        if facet.kind == INEQUALITY:
            face = [g for g in generators if int_dot(normal, g) == 0 and any(g)]
            base = combination(rng, generators, face) if face else [0] * len(normal)
            points.append([10 * value - step for value, step in zip(base, normal)])
        else:
            base = combination(rng, generators)
            points.append([10 * value + step for value, step in zip(base, normal)])
    return points


def random_points(rng, generators, count=3):
    low = -2 if any(value < 0 for g in generators for value in g) else 0
    n_rows = len(generators[0])
    return [[rng.randint(low, 6) for _ in range(n_rows)] for _ in range(count)]


def sweep_points(rng, generators):
    return (
        [combination(rng, generators) for _ in range(3)]
        + nudged_points(rng, generators)
        + random_points(rng, generators)
    )


# -- seeded differential sweeps ------------------------------------------------

def test_random_wide_sets_match_linprog_and_rays_certify():
    """One persistent model per set answers the whole sweep: every
    verdict equals ``linprog``'s on the full matrix, every feasible flow
    solves the full system, and every returned ray certifies against
    every column."""
    verdicts = {True: 0, False: 0}
    rays = restricted = priced = 0
    for case in range(N_SETS):
        seed = BASE_SEED + case
        rng = random.Random(seed)
        generators = random_wide_generators(rng)
        model = highs_fast.make_feasibility_model(np.array(generators, dtype=float).T)
        assert model.width < model.n_cols
        for point in sweep_points(rng, generators):
            context = "seed=%d (SIM_EQUIV_SEED=%d) point=%s" % (seed, BASE_SEED, point)
            expected = linprog_feasible(generators, point)
            status, flows = model.solve(point)
            assert status in (highs_fast.OPTIMAL, highs_fast.INFEASIBLE), context
            feasible = status == highs_fast.OPTIMAL
            assert feasible == expected, context
            verdicts[feasible] += 1
            priced += model.runs > 1
            if feasible:
                assert_float_flow(generators, point, flows, context)
            else:
                ray = model.dual_ray()
                if ray is not None:
                    assert_certifies(generators, point, ray, context)
                    rays += 1
        restricted += model.width < model.n_cols
    assert verdicts[True] and verdicts[False]
    assert rays >= verdicts[False] // 2
    assert priced and restricted  # the sweep exercised the wide path


def test_random_wide_sets_match_simplex():
    """The certified exact path on one batch per set: verdicts equal the
    rational simplex's, with exact flows."""
    verdicts = {True: 0, False: 0}
    for case in range(N_SETS // 2):
        seed = BASE_SEED + 10_000 + case
        rng = random.Random(seed)
        generators = random_wide_generators(rng)
        batch = MembershipBatch(generators)
        for point in sweep_points(rng, generators):
            context = "seed=%d (SIM_EQUIV_SEED=%d) point=%s" % (seed, BASE_SEED, point)
            feasible, flows = batch.test(point)
            expected, _ = _simplex_membership(generators, point)
            assert feasible == expected, context
            verdicts[feasible] += 1
            if feasible:
                assert_exact_flows(generators, point, flows, context)
    assert verdicts[True] and verdicts[False]


# -- pinning --------------------------------------------------------------------

def test_pinned_columns_match_a_full_model():
    """Random runs of exclude/include/solve against ``linprog`` with the
    same columns fixed at zero; an excluded column is never priced in."""
    for case in range(N_SETS // 2):
        seed = BASE_SEED + 20_000 + case
        rng = random.Random(seed)
        generators = random_wide_generators(rng)
        model = highs_fast.make_feasibility_model(np.array(generators, dtype=float).T)
        pinned = set()
        for step in range(12):
            index = rng.randrange(len(generators))
            if index in pinned and rng.random() < 0.5:
                model.include_column(index)
                pinned.discard(index)
            else:
                model.exclude_column(index)
                pinned.add(index)
            point = rng.choice(sweep_points(rng, generators))
            context = "seed=%d (SIM_EQUIV_SEED=%d) step=%d" % (seed, BASE_SEED, step)
            status, flows = model.solve(point)
            assert (status == highs_fast.OPTIMAL) == \
                linprog_feasible(generators, point, pinned), context
            if status == highs_fast.OPTIMAL:
                assert all(abs(flows[j]) <= 1e-9 for j in pinned), context
                assert_float_flow(generators, point, flows, context)


def test_interior_removal_matches_linprog(monkeypatch):
    """``irredundant_generators(backend="scipy")`` keeps the same
    generators on the wide model as on per-candidate ``linprog`` calls."""
    for case in range(6):
        rng = random.Random(BASE_SEED + 30_000 + case)
        n_rows = rng.randint(3, 4)
        generators = {
            tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n_rows))
            for _ in range(16 * n_rows)
        }
        generators = sorted(g for g in generators if any(g))
        cone = Cone(generators, ambient_dim=n_rows)
        model = cone._feasibility_model()
        assert model.width < model.n_cols  # wide
        kept = cone.irredundant_generators(backend="scipy")
        with monkeypatch.context() as patch:
            patch.setattr(highs_fast, "_HIGHS_OK", False)
            reference = Cone(generators, ambient_dim=n_rows)
            assert reference._feasibility_model() is None
            assert reference.irredundant_generators(backend="scipy") == kept


@pytest.mark.parametrize("name", ["m0", "m7"])
def test_deduced_constraints_unchanged(name, monkeypatch):
    """m0's and m7's constraint sets from interior removal on the wide
    model equal those from ``linprog`` on every candidate."""
    from repro.cone.constraints import deduce_constraints
    from repro.models import M_SERIES, build_model_cone

    cone = build_model_cone(M_SERIES[name])
    fast = deduce_constraints(cone.signatures, cone.counters)
    monkeypatch.setattr(highs_fast, "_HIGHS_OK", False)
    reference = deduce_constraints(cone.signatures, cone.counters)
    assert [c.render() for c in fast] == [c.render() for c in reference]


# -- Table 5 --------------------------------------------------------------------

@pytest.mark.slow
def test_table5_verdicts_match_linprog():
    """All 432 Table 5 points (18 m4 trigger cones x the 24-spec matrix
    at scale 0.25) on the ``scipy`` path equal ``linprog`` on the full
    signature matrix, and no cone loads more than a quarter of its
    columns."""
    from repro.models import M_SERIES, T_SERIES, build_model_cone
    from repro.models.dataset import standard_dataset

    dataset = standard_dataset(scale=0.25)
    verdicts = {True: 0, False: 0}
    for index in range(18):
        name = "t%d" % index
        cone = build_model_cone(M_SERIES["m4"], trigger=T_SERIES[name])
        vectors = [cone.vector_from_observation(o.point()) for o in dataset]
        results = points_feasibility(cone, vectors, backend="scipy")
        matrix = cone.signature_array()
        for vector, result in zip(vectors, results):
            expected = linprog(
                np.zeros(matrix.shape[1]), A_eq=matrix,
                b_eq=np.array(vector, dtype=float), bounds=(0, None), method="highs",
            ).status == 0
            assert result.feasible == expected, (name, vector)
            verdicts[expected] += 1
        assert cone.flow_model().width <= matrix.shape[1] // 4, name
    assert sum(verdicts.values()) == 432 and verdicts[False]


# -- fallbacks -------------------------------------------------------------------

#: 17 columns over 3 rows (wide). The model starts from e1, e2, e3, so
#: both points below need a pricing round.
WIDE = [
    (a, b, c) for a in (-1, 0, 1) for b in (0, 1) for c in (0, 1, 2)
    if (a, b, c) != (0, 0, 0)
]
PRICED_INSIDE = [-2, 1, 1]   # feasible, but not on the starting columns
OUTSIDE = [-1, -1, 0]        # refuted by y = (0, -1, 0)


class SolverProxy:
    """A HiGHS handle that misbehaves as told and otherwise delegates."""

    def __init__(self, solver, ray=None, error_runs=(), reject_columns=False):
        self._solver = solver
        self._ray = ray
        self._error_runs = set(error_runs)
        self._reject_columns = reject_columns
        self.runs = 0

    def __getattr__(self, name):
        return getattr(self._solver, name)

    def run(self):
        self.runs += 1
        return self._solver.run()

    def getModelStatus(self):
        if self.runs in self._error_runs:
            return highs_fast._core.HighsModelStatus.kSolveError
        return self._solver.getModelStatus()

    def getDualRay(self):
        if self._ray is None:
            return self._solver.getDualRay()
        return self._ray

    def addCols(self, *args):
        if self._reject_columns:
            return highs_fast._core.HighsStatus.kError
        return self._solver.addCols(*args)


def proxied(**misbehaviour):
    model = highs_fast.make_feasibility_model(np.array(WIDE, dtype=float).T)
    assert model.width == 3 and model.n_cols == len(WIDE)
    model._solver = SolverProxy(model._solver, **misbehaviour)
    return model


NO_RAY = (highs_fast._core.HighsStatus.kOk, False, np.zeros(0)) \
    if highs_fast.highs_available() else None
TWO_TUPLE_RAY = (True, [0.0, -1.0, 0.0])


def certified_fallbacks(model, point):
    tracer = Tracer()
    with activate(tracer):
        feasible, flows = certified_membership(WIDE, point, model=model)
    counters = tracer.metrics.as_dict()["counters"]
    return feasible, flows, counters.get("lp.certify.fallbacks", 0)


def test_well_behaved_wide_model_prices_and_certifies():
    model = proxied()
    assert model.solve(PRICED_INSIDE)[0] == highs_fast.OPTIMAL
    assert model.runs > 1 and 3 < model.width < len(WIDE)
    assert model.solve(OUTSIDE)[0] == highs_fast.INFEASIBLE
    assert_certifies(WIDE, OUTSIDE, model.dual_ray(), "well behaved")
    assert model.width < len(WIDE)
    assert certified_fallbacks(proxied(), OUTSIDE)[2] == 0


@pytest.mark.parametrize("ray", [NO_RAY, TWO_TUPLE_RAY], ids=["missing", "two-tuple"])
def test_unusable_ray_loads_every_column(ray):
    """Without a usable ray the model loads the rest and answers as the
    full model; on ``exact`` an infeasible answer without a ray falls
    back to the simplex."""
    model = proxied(ray=ray)
    status, flows = model.solve(PRICED_INSIDE)
    assert status == highs_fast.OPTIMAL and model.width == len(WIDE)
    assert_float_flow(WIDE, PRICED_INSIDE, flows, "priced inside")
    model = proxied(ray=ray)
    assert model.solve(OUTSIDE)[0] == highs_fast.INFEASIBLE
    assert model.width == len(WIDE) and model.dual_ray() is None

    feasible, flows, fallbacks = certified_fallbacks(proxied(ray=ray), PRICED_INSIDE)
    assert feasible and fallbacks == 0
    assert_exact_flows(WIDE, PRICED_INSIDE, flows, "priced inside")
    assert certified_fallbacks(proxied(ray=ray), OUTSIDE) == (False, None, 1)


@pytest.mark.parametrize("point", [PRICED_INSIDE, OUTSIDE], ids=["inside", "outside"])
def test_error_mid_pricing_loads_every_column(point):
    """An ``ERROR`` on the second run (the first pricing round) loads
    the rest; the third run is the full model's answer."""
    model = proxied(error_runs={2})
    status, _ = model.solve(point)
    assert model.runs == 3 and model.width == len(WIDE)
    assert (status == highs_fast.OPTIMAL) == linprog_feasible(WIDE, point)
    feasible, _, fallbacks = certified_fallbacks(proxied(error_runs={2}), point)
    assert feasible == (point == PRICED_INSIDE) and fallbacks == 0


@pytest.mark.parametrize("misbehaviour", [
    {"error_runs": {1, 2, 3}}, {"reject_columns": True},
], ids=["error-every-run", "columns-rejected"])
def test_persistent_error_falls_back_to_the_simplex(misbehaviour):
    model = proxied(**misbehaviour)
    assert model.solve(PRICED_INSIDE)[0] == highs_fast.ERROR
    for point, expected in ((PRICED_INSIDE, True), (OUTSIDE, False)):
        feasible, flows, fallbacks = certified_fallbacks(proxied(**misbehaviour), point)
        assert (feasible, fallbacks) == (expected, 1)


# -- traces and narrow models ----------------------------------------------------

def solve_spans(tracer):
    return [r for r in tracer.records if r.get("name") == "lp.solve"]


#: 20 non-negative columns over 3 rows (wide), each with at least two
#: non-zero entries; the model starts from three of them.
NON_NEGATIVE = [
    (a, b, c) for a in (0, 1, 2) for b in (0, 1, 2) for c in (0, 1, 2)
    if sum(value > 0 for value in (a, b, c)) >= 2
]


@pytest.mark.parametrize("backend", ["scipy", "exact"])
def test_point_spans_count_runs_and_columns(backend):
    """One ``lp.solve`` span per point verdict, with HiGHS's runs for
    that point and the model's width after it."""
    cone = ModelCone(["a", "b", "c"], NON_NEGATIVE)
    points = [[1, 1, 1], [3, 2, 1], [3, 1, 0], [5, 1, 2]]
    tracer = Tracer()
    with activate(tracer):
        results = points_feasibility(cone, points, backend=backend)
    assert [r.feasible for r in results] == [True, True, False, True]
    spans = solve_spans(tracer)
    assert len(spans) == len(points)
    runs = [span["attrs"]["runs"] for span in spans]
    columns = [span["attrs"]["columns"] for span in spans]
    # (1, 1, 1) lies in the cone of the three starting columns;
    # (3, 2, 1) does not, so it needs at least one pricing round.
    assert runs[0] == 1 and runs[1] >= 2 and all(r >= 1 for r in runs)
    assert columns == sorted(columns)
    assert 3 == columns[0] < columns[1] <= len(NON_NEGATIVE)


def test_narrow_models_load_every_column_and_run_once():
    """The bundled DSL models' cones are narrow: one HiGHS run per
    point, every column loaded."""
    from repro.pipeline import CounterPoint
    from repro.models import bundled_model_names

    counterpoint = CounterPoint()
    for name in bundled_model_names():
        cone = counterpoint.model_cone(name)
        model = cone.flow_model()
        assert model.width == model.n_cols == len(cone.signatures), name
        model.solve([1] * len(cone.counters))
        assert model.runs == 1, name


#: Four threads share one wide flow model: three sweep their own points
#: through ``test_point_feasibility`` while the fourth pins a column,
#: solves and unpins under the model's lock, as interior removal does.
_WIDE_MODEL_HAMMER = """
import random, sys, threading
import numpy as np
from scipy.optimize import linprog
from repro.cone import ModelCone, test_point_feasibility

sys.setswitchinterval(1e-5)
calls = int(sys.argv[1])
rng = random.Random(7)
generators = sorted({tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(5)) for _ in range(120)})
generators = [g for g in generators if any(g)]
cone = ModelCone(["a", "b", "c", "d", "e"], generators)
matrix = np.array(generators, dtype=float).T
points = [[rng.randint(0, 6) for _ in range(5)] for _ in range(30)]
expected = [linprog(np.zeros(len(generators)), A_eq=matrix, b_eq=np.array(p, dtype=float),
                    bounds=(0, None), method="highs").status == 0 for p in points]
wrong = []

def verdicts(offset):
    for call in range(calls):
        index = (offset + call) % len(points)
        try:
            verdict = test_point_feasibility(cone, points[index], backend="scipy").feasible
        except Exception as error:
            verdict = error
        if verdict != expected[index]:
            wrong.append((index, verdict))

def pinning():
    model = cone.flow_model()
    for call in range(calls):
        with model.lock:
            model.exclude_column(call % len(generators))
            model.solve(points[call % len(points)], solution=False)
            model.include_column(call % len(generators))

threads = [threading.Thread(target=verdicts, args=(k * 10,)) for k in range(3)]
threads.append(threading.Thread(target=pinning))
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=240)
alive = sum(thread.is_alive() for thread in threads)
print("alive=%d wrong=%d width=%d" % (alive, len(wrong), cone.flow_model().width))
"""


def test_shared_wide_model_survives_four_threads():
    """A segfault kills only the subprocess and fails this test."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _WIDE_MODEL_HAMMER, "600"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    summary = completed.stdout.strip()
    assert summary.startswith("alive=0 wrong=0 "), summary
