"""Unit and property tests for the LP layer (exact simplex + HiGHS)."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LPError
from repro.lp import EQ, GE, LE, MAXIMIZE, MINIMIZE, LinearProgram, Status, solve


def make_lp(names, constraints, objective=None, sense=MINIMIZE, bounds=None):
    lp = LinearProgram()
    bounds = bounds or {}
    for name in names:
        lower, upper = bounds.get(name, (Fraction(0), None))
        lp.add_variable(name, lower=lower, upper=upper)
    for coeffs, cmp, rhs in constraints:
        lp.add_constraint(coeffs, cmp, rhs)
    if objective is not None:
        lp.set_objective(objective, sense)
    return lp


class TestModelLayer:
    def test_duplicate_variable_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(LPError):
            lp.add_variable("x")

    def test_unknown_variable_in_constraint(self):
        lp = LinearProgram()
        with pytest.raises(LPError):
            lp.add_constraint({"ghost": 1}, LE, 1)

    def test_unknown_variable_in_objective(self):
        lp = LinearProgram()
        with pytest.raises(LPError):
            lp.set_objective({"ghost": 1})

    def test_empty_bound_domain_rejected(self):
        lp = LinearProgram()
        with pytest.raises(LPError):
            lp.add_variable("x", lower=2, upper=1)

    def test_bad_sense_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(LPError):
            lp.add_constraint({"x": 1}, "<", 1)

    def test_constraint_violation_helper(self):
        lp = LinearProgram()
        lp.add_variable("x")
        c = lp.add_constraint({"x": 1}, LE, 5)
        assert c.violation({"x": 7}) == 2
        assert c.violation({"x": 3}) <= 0


class TestExactSimplex:
    def test_simple_minimize(self):
        lp = make_lp(
            ["x", "y"],
            [({"x": 1, "y": 1}, GE, 2)],
            objective={"x": 3, "y": 1},
        )
        result = solve(lp)
        assert result.status == Status.OPTIMAL
        assert result.objective == 2
        assert result.assignment["y"] == 2

    def test_simple_maximize(self):
        lp = make_lp(
            ["x", "y"],
            [({"x": 1, "y": 2}, LE, 4), ({"x": 1}, LE, 2)],
            objective={"x": 1, "y": 1},
            sense=MAXIMIZE,
        )
        result = solve(lp)
        assert result.status == Status.OPTIMAL
        assert result.objective == 3  # x=2, y=1

    def test_infeasible(self):
        lp = make_lp(["x"], [({"x": 1}, GE, 2), ({"x": 1}, LE, 1)])
        assert solve(lp).status == Status.INFEASIBLE

    def test_unbounded(self):
        lp = make_lp(["x"], [], objective={"x": -1})
        assert solve(lp).status == Status.UNBOUNDED

    def test_equality_constraints(self):
        lp = make_lp(
            ["x", "y"],
            [({"x": 1, "y": 1}, EQ, 3), ({"x": 1, "y": -1}, EQ, 1)],
        )
        result = solve(lp)
        assert result.status == Status.OPTIMAL
        assert result.assignment["x"] == 2
        assert result.assignment["y"] == 1

    def test_free_variable(self):
        lp = make_lp(
            ["x"],
            [({"x": 1}, EQ, -5)],
            bounds={"x": (None, None)},
        )
        result = solve(lp)
        assert result.status == Status.OPTIMAL
        assert result.assignment["x"] == -5

    def test_upper_bound_only(self):
        lp = make_lp(
            ["x"],
            [],
            objective={"x": -1},
            bounds={"x": (None, Fraction(7))},
        )
        result = solve(lp)
        assert result.status == Status.OPTIMAL
        assert result.assignment["x"] == 7

    def test_shifted_lower_bound(self):
        lp = make_lp(
            ["x"],
            [],
            objective={"x": 1},
            bounds={"x": (Fraction(3), Fraction(9))},
        )
        result = solve(lp)
        assert result.assignment["x"] == 3

    def test_box_bounds_respected(self):
        lp = make_lp(
            ["x"],
            [],
            objective={"x": -1},
            bounds={"x": (Fraction(1), Fraction(2))},
        )
        result = solve(lp)
        assert result.assignment["x"] == 2

    def test_exact_rational_optimum(self):
        # min x s.t. 3x >= 1  ->  x = 1/3 exactly.
        lp = make_lp(["x"], [({"x": 3}, GE, 1)], objective={"x": 1})
        result = solve(lp)
        assert result.assignment["x"] == Fraction(1, 3)

    def test_degenerate_cycling_guard(self):
        # Classic Beale-style degenerate problem; Bland's rule must terminate.
        lp = make_lp(
            ["x1", "x2", "x3", "x4"],
            [
                ({"x1": Fraction(1, 4), "x2": -8, "x3": -1, "x4": 9}, LE, 0),
                ({"x1": Fraction(1, 2), "x2": -12, "x3": Fraction(-1, 2), "x4": 3}, LE, 0),
                ({"x3": 1}, LE, 1),
            ],
            objective={"x1": Fraction(-3, 4), "x2": 150, "x3": Fraction(-1, 50), "x4": 6},
        )
        result = solve(lp)
        assert result.status == Status.OPTIMAL
        # Optimum confirmed against HiGHS: x1 = x3 = 1, objective -77/100.
        assert result.objective == Fraction(-77, 100)

    def test_redundant_rows_handled(self):
        lp = make_lp(
            ["x", "y"],
            [
                ({"x": 1, "y": 1}, EQ, 2),
                ({"x": 2, "y": 2}, EQ, 4),  # redundant duplicate
            ],
            objective={"x": 1},
        )
        result = solve(lp)
        assert result.status == Status.OPTIMAL
        assert result.assignment["x"] == 0
        assert result.assignment["y"] == 2

    def test_feasibility_only_no_objective(self):
        lp = make_lp(["x"], [({"x": 1}, GE, 1)])
        result = solve(lp)
        assert result.is_feasible
        assert result.assignment["x"] >= 1

    def test_negative_rhs_equality(self):
        lp = make_lp(
            ["x", "y"],
            [({"x": -1, "y": -1}, EQ, -4), ({"x": 1, "y": -1}, EQ, 0)],
        )
        result = solve(lp)
        assert result.assignment["x"] == 2
        assert result.assignment["y"] == 2


class TestScipyBackend:
    def test_agrees_on_optimum(self):
        lp = make_lp(
            ["x", "y"],
            [({"x": 1, "y": 2}, LE, 4), ({"x": 3, "y": 1}, LE, 6)],
            objective={"x": 1, "y": 1},
            sense=MAXIMIZE,
        )
        exact = solve(lp, backend="exact")
        approx = solve(lp, backend="scipy")
        assert approx.status == Status.OPTIMAL
        assert abs(float(exact.objective) - approx.objective) < 1e-9

    def test_agrees_on_infeasible(self):
        lp = make_lp(["x"], [({"x": 1}, GE, 2), ({"x": 1}, LE, 1)])
        assert solve(lp, backend="scipy").status == Status.INFEASIBLE

    def test_unknown_backend(self):
        lp = make_lp(["x"], [])
        with pytest.raises(LPError):
            solve(lp, backend="mystery")


REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: Four threads share persistent HiGHS models: two re-solve one
#: ``ModelCone``'s flow model; one runs a ``Cone``'s interior removal
#: (pin a column, solve, unpin) while the fourth asks the same model
#: about a point that needs the column being pinned. Without the model's
#: lock this crashes the interpreter or returns wrong verdicts.
_SHARED_MODEL_HAMMER = """
import sys, threading
from repro.cone import ModelCone, test_point_feasibility
from repro.geometry import Cone

sys.setswitchinterval(1e-5)
calls = int(sys.argv[1])
cone = ModelCone(["a", "b", "c"], [(1, 0, 1), (0, 1, 1), (1, 1, 0)])
square = Cone([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
wrong = []

def verdicts(point, expected):
    for _ in range(calls):
        try:
            verdict = test_point_feasibility(cone, point, backend="scipy").feasible
        except Exception as error:
            verdict = error
        if verdict != expected:
            wrong.append(verdict)

def removal():
    for _ in range(calls // 10):
        kept = square.irredundant_generators(backend="scipy")
        if len(kept) != 3:
            wrong.append(kept)

def membership():
    for _ in range(calls):
        if square.contains([1, 0, 1], backend="scipy") is not True:
            wrong.append("contains")

threads = [
    threading.Thread(target=verdicts, args=([2, 2, 2], True)),
    threading.Thread(target=verdicts, args=([5, 0, 0], False)),
    threading.Thread(target=removal),
    threading.Thread(target=membership),
]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=240)
alive = sum(thread.is_alive() for thread in threads)
print("alive=%d wrong=%d" % (alive, len(wrong)))
"""


class TestHighsFastThreads:
    def test_shared_models_survive_four_threads(self):
        """A segfault kills only the subprocess and fails this test."""
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", _SHARED_MODEL_HAMMER, "3000"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip() == "alive=0 wrong=0", completed.stdout


# ---------------------------------------------------------------------------
# Property-based cross-check: exact simplex vs HiGHS on random programs
# ---------------------------------------------------------------------------

coefficients = st.integers(min_value=-5, max_value=5)


@st.composite
def random_programs(draw):
    n_vars = draw(st.integers(min_value=1, max_value=4))
    n_cons = draw(st.integers(min_value=1, max_value=4))
    names = ["v%d" % i for i in range(n_vars)]
    constraints = []
    for _ in range(n_cons):
        coeffs = {name: draw(coefficients) for name in names}
        sense = draw(st.sampled_from([LE, GE, EQ]))
        rhs = draw(st.integers(min_value=-8, max_value=8))
        constraints.append((coeffs, sense, rhs))
    # Bounded objective: minimize a nonnegative combination so that the
    # program is never unbounded (variables are >= 0).
    objective = {name: draw(st.integers(min_value=0, max_value=5)) for name in names}
    return names, constraints, objective


@settings(max_examples=40, deadline=None)
@given(random_programs())
def test_exact_matches_scipy(program):
    names, constraints, objective = program
    lp = make_lp(names, constraints, objective=objective)
    exact = solve(lp, backend="exact")
    approx = solve(lp, backend="scipy")
    assert exact.status == approx.status
    if exact.status == Status.OPTIMAL:
        assert abs(float(exact.objective) - approx.objective) < 1e-7


@settings(max_examples=40, deadline=None)
@given(random_programs())
def test_exact_solution_satisfies_constraints(program):
    names, constraints, objective = program
    lp = make_lp(names, constraints, objective=objective)
    result = solve(lp, backend="exact")
    if result.status != Status.OPTIMAL:
        return
    for constraint in lp.constraints:
        assert constraint.violation(result.assignment) <= 0
    for variable in lp.variables:
        value = result.assignment[variable.name]
        assert value >= 0
