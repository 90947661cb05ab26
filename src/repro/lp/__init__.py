"""Linear programming for CounterPoint feasibility testing.

The paper (Section 4, Appendix A) determines whether a counter confidence
region intersects the model cone by solving a linear program over
non-negative µpath *flow* variables and counter-value variables. The
original implementation uses the ``pulp`` toolkit; this reproduction ships
its own solver stack:

* :mod:`repro.lp.problem` — a small modelling layer
  (:class:`LinearProgram`) with named variables, bounds and constraints,
* :mod:`repro.lp.simplex` — an exact two-phase simplex over
  :class:`fractions.Fraction` with Bland's anti-cycling rule; feasibility
  answers contain no floating-point tolerance,
* :mod:`repro.lp.scipy_backend` — an optional float backend delegating to
  ``scipy.optimize.linprog`` (HiGHS), used for cross-checking and for
  speed on large instances,
* :mod:`repro.lp.highs_fast` — persistent HiGHS feasibility models for
  the hot loops that re-solve one matrix against many right-hand sides
  (batched point feasibility, generator interior removal); falls back
  to ``linprog`` when scipy's private HiGHS bindings are unavailable,
* :mod:`repro.lp.membership` — certified exact cone membership, the
  ``"exact"`` backend's point verdicts: HiGHS finds the answer, integer
  arithmetic proves it (an exact flow or a Farkas ray), and the simplex
  re-solves anything the proof rejects,
* :func:`repro.lp.solve` — the dispatching entry point.
"""

from repro.lp.problem import (
    EQ,
    GE,
    LE,
    MAXIMIZE,
    MINIMIZE,
    Constraint,
    LinearProgram,
    Variable,
)
from repro.lp.solver import SolveResult, Status, solve

__all__ = [
    "EQ",
    "GE",
    "LE",
    "MAXIMIZE",
    "MINIMIZE",
    "Constraint",
    "LinearProgram",
    "SolveResult",
    "Status",
    "Variable",
    "solve",
]
