"""Equivalence tests: integer fast paths vs the Fraction reference.

The exact-geometry fast path (gcd-normalised int rows, Bareiss
elimination, bitset adjacency, batched point LPs) must be *bit-for-bit*
interchangeable with the Fraction/rank reference implementations — an
optimisation that changes any verdict is a bug, full stop. These tests
drive both paths over hundreds of seeded random instances (plus a few
hypothesis sweeps) and require identical results:

* ``rank`` / ``rref_fast`` / ``solve`` against the Fraction RREF,
* ``extreme_rays(adjacency="bitset")`` against
  ``extreme_rays(adjacency="algebraic")``,
* batched ``test_points_feasibility`` against per-point
  ``test_point_feasibility``, and against the deduced facets.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cone import ModelCone
from repro.cone import test_point_feasibility as point_feasibility
from repro.cone import test_points_feasibility as points_feasibility
from repro.errors import GeometryError, LinalgError
from repro.geometry import extreme_rays
from repro.linalg import (
    int_row,
    rank,
    rref,
    rref_fast,
    scale_to_integers,
    solve,
)

N_SEEDS = 200  # instances per equivalence sweep (acceptance floor)


# -- Fraction reference implementations (the pre-fast-path algorithms) ----

def reference_rank(matrix):
    return len(rref(matrix)[1])


def reference_solve(matrix, rhs):
    n = len(matrix)
    augmented = [list(row) + [value] for row, value in zip(matrix, rhs)]
    reduced, pivots = rref(augmented)
    if len(pivots) < n or any(col >= n for col in pivots):
        raise LinalgError("singular")
    return [reduced[i][n] for i in range(n)]


def random_matrix(rng, n_rows, n_cols, fractions=False):
    def entry():
        if fractions and rng.random() < 0.5:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return rng.randint(-4, 4)

    matrix = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows >= 2 and rng.random() < 0.3:
        # Inject a dependent row: duplicate or scaled copy.
        source = rng.randrange(n_rows)
        target = rng.randrange(n_rows)
        scale = rng.choice([1, 2, -1])
        matrix[target] = [scale * value for value in matrix[source]]
    return matrix


class TestIntegerKernelEquivalence:
    def test_rank_matches_rref_pivots(self):
        rng = random.Random(1234)
        for _ in range(N_SEEDS):
            matrix = random_matrix(
                rng, rng.randint(1, 6), rng.randint(1, 6), fractions=True
            )
            assert rank(matrix) == reference_rank(matrix)

    def test_rref_fast_matches_rref(self):
        rng = random.Random(2345)
        for _ in range(N_SEEDS):
            matrix = random_matrix(
                rng, rng.randint(1, 6), rng.randint(1, 6), fractions=True
            )
            assert rref_fast(matrix) == rref(matrix)

    def test_solve_matches_reference(self):
        rng = random.Random(3456)
        solved = 0
        trials = 0
        while solved < N_SEEDS and trials < 20 * N_SEEDS:
            trials += 1
            n = rng.randint(1, 5)
            matrix = random_matrix(rng, n, n, fractions=True)
            rhs = [rng.randint(-5, 5) for _ in range(n)]
            try:
                expected = reference_solve(matrix, rhs)
            except LinalgError:
                with pytest.raises(LinalgError):
                    solve(matrix, rhs)
                continue
            assert solve(matrix, rhs) == expected
            solved += 1
        assert solved >= N_SEEDS

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    def test_rank_property(self, matrix):
        assert rank(matrix) == reference_rank(matrix)


def random_inequalities(rng, dim):
    n_rows = rng.randint(dim, dim + 4)
    rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(n_rows)]
    if rng.random() < 0.4:
        # Duplicate a row (degenerate active sets stress the tie path).
        rows.append(list(rows[rng.randrange(len(rows))]))
    return rows


def ray_set(rays):
    return {tuple(int_row(ray)) for ray in rays}


class TestBitsetAdjacencyEquivalence:
    def test_bitset_matches_algebraic_on_random_cones(self):
        rng = random.Random(97531)
        compared = 0
        trials = 0
        while compared < N_SEEDS and trials < 30 * N_SEEDS:
            trials += 1
            dim = rng.randint(2, 4)
            rows = random_inequalities(rng, dim)
            try:
                reference = extreme_rays(rows, adjacency="algebraic")
            except GeometryError:
                with pytest.raises(GeometryError):
                    extreme_rays(rows, adjacency="bitset")
                continue
            fast = extreme_rays(rows, adjacency="bitset")
            assert ray_set(fast) == ray_set(reference), rows
            compared += 1
        assert compared >= N_SEEDS

    def test_rays_satisfy_constraints_both_modes(self):
        rng = random.Random(86420)
        checked = 0
        trials = 0
        while checked < 50 and trials < 2000:
            trials += 1
            dim = rng.randint(2, 4)
            rows = random_inequalities(rng, dim)
            for mode in ("bitset", "algebraic"):
                try:
                    rays = extreme_rays(rows, adjacency=mode)
                except GeometryError:
                    break
                for ray in rays:
                    for row in rows:
                        assert sum(a * b for a, b in zip(row, ray)) >= 0
            else:
                checked += 1

    def test_unknown_adjacency_mode_rejected(self):
        with pytest.raises(GeometryError):
            extreme_rays([[1, 0], [0, 1]], adjacency="guess")


def random_model_cone(rng, max_counters=4, max_signatures=5):
    n = rng.randint(1, max_counters)
    count = rng.randint(1, max_signatures)
    signatures = [
        tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(count)
    ]
    counters = ["c%d" % i for i in range(n)]
    return ModelCone(counters, signatures, name="random")


def random_points(rng, n, count=3):
    return [
        [rng.randint(-1, 6) for _ in range(n)] for _ in range(count)
    ]


class TestBatchedFeasibilityEquivalence:
    def test_batched_matches_per_point(self):
        rng = random.Random(24680)
        for _ in range(N_SEEDS):
            cone = random_model_cone(rng)
            points = random_points(rng, len(cone.counters))
            expected = [
                point_feasibility(cone, point).feasible for point in points
            ]
            batched = points_feasibility(cone, points)
            assert [r.feasible for r in batched] == expected, (
                cone.signatures,
                points,
            )

    def test_verdicts_ignore_deduction(self):
        """Batched results are the same before and after the cone's
        constraints are deduced, and a point is infeasible exactly when
        it violates a deduced facet (Minkowski–Weyl)."""
        rng = random.Random(13579)
        for _ in range(N_SEEDS):
            cone = random_model_cone(rng)
            points = random_points(rng, len(cone.counters))
            before = points_feasibility(cone, points)
            constraints = cone.constraints()
            after = points_feasibility(cone, points)
            for point, first, second in zip(points, before, after):
                assert (first.feasible, first.flows, first.witness) == (
                    second.feasible, second.flows, second.witness
                ), (cone.signatures, point)
                violated = any(
                    not constraint.is_satisfied_by(
                        [Fraction(value) for value in point]
                    )
                    for constraint in constraints
                )
                assert violated == (not first.feasible), (cone.signatures, point)

    def test_scipy_backend_agrees_on_integer_points(self):
        rng = random.Random(112358)
        for _ in range(60):
            cone = random_model_cone(rng)
            points = random_points(rng, len(cone.counters))
            exact = [
                r.feasible for r in points_feasibility(cone, points)
            ]
            fast = [
                r.feasible
                for r in points_feasibility(cone, points, backend="scipy")
            ]
            assert fast == exact, (cone.signatures, points)


class TestFloatRoundTrip:
    """`Fraction(float)` must survive the integer kernel unchanged."""

    def test_scale_to_integers_binary_float_semantics(self):
        # 0.1 is 3602879701896397 / 2**55 in binary: scaling is exact
        # with respect to that value, not the decimal literal (which
        # would scale [0.1, 1] to [1, 10]).
        scaled = scale_to_integers([0.1, 1.0])
        assert scaled == [3602879701896397, 2 ** 55]
        assert Fraction(scaled[0], scaled[1]) == Fraction(0.1)

    def test_int_row_matches_fraction_arithmetic(self):
        values = [0.1, 0.25, -0.75]
        row = int_row(values)
        fractions = [Fraction(v) for v in values]
        lcm = 1
        for f in fractions:
            lcm = lcm * f.denominator // __import__("math").gcd(lcm, f.denominator)
        expected = [int(f * lcm) for f in fractions]
        common = 0
        for v in expected:
            common = __import__("math").gcd(common, abs(v))
        expected = [v // common for v in expected]
        assert list(row) == expected

    def test_solve_with_float_rhs_is_exact(self):
        # Solving with float inputs equals solving with their exact
        # Fraction values — no precision is lost in the int kernel.
        matrix = [[1, 1], [1, -1]]
        rhs_float = [0.1, 0.3]
        rhs_fraction = [Fraction(0.1), Fraction(0.3)]
        assert solve(matrix, rhs_float) == solve(matrix, rhs_fraction)
        x = solve(matrix, rhs_float)
        assert x[0] + x[1] == Fraction(0.1)
        assert x[0] - x[1] == Fraction(0.3)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_scale_round_trip_preserves_ratio(self, value):
        scaled = scale_to_integers([value, 1.0])
        if value == 0:
            assert scaled[0] == 0
            return
        # The scaled pair preserves the exact binary ratio value/1.
        assert Fraction(scaled[0], scaled[1]) == Fraction(value)
