"""Farkas certificates: one violated constraint, without full deduction.

Full constraint deduction is exponential (Figure 9b), so CounterPoint
only runs it for refinement feedback. But by LP duality (Farkas' lemma),
*any* infeasible observation admits a cheap certificate: a vector ``y``
with ``y . S(p) >= 0`` for every µpath signature and ``y . v < 0`` for
the observation — i.e. a valid model constraint that the observation
violates, found with a single LP. This gives interactive workflows an
immediate "here is a constraint you broke" answer at feasibility-test
cost rather than deduction cost.
"""

from fractions import Fraction

from repro.errors import AnalysisError
from repro.cone.constraints import ModelConstraint
from repro.geometry.halfspace import INEQUALITY, ConeConstraint
from repro.linalg import int_row, scale_to_integers
from repro.lp import GE, MINIMIZE, LinearProgram, Status, solve
from repro.lp.membership import is_farkas_certificate, rationalize


def separating_constraint(model_cone, observation, backend="exact"):
    """A single model constraint violated by ``observation``.

    Solves ``min y . v`` subject to ``y . S(p) >= 0`` for every µpath
    signature and ``-1 <= y_i <= 1`` (normalisation). A negative optimum
    certifies infeasibility; the optimal ``y`` *is* a valid model
    constraint (every point of the cone satisfies ``y . x >= 0``) that
    the observation breaks.

    Returns a :class:`ModelConstraint`, or ``None`` when the observation
    is feasible. With ``backend="scipy"`` the float certificate is
    rationalised and exactness is re-verified against every signature;
    if verification fails the exact backend is used instead.
    """
    vector = model_cone.vector_from_observation(observation)
    n = len(model_cone.counters)

    lp = LinearProgram()
    names = []
    for index in range(n):
        name = "y_%d" % index
        lp.add_variable(name, lower=Fraction(-1), upper=Fraction(1))
        names.append(name)
    for signature in model_cone.signatures:
        coefficients = {
            names[coord]: Fraction(signature[coord])
            for coord in range(n)
            if signature[coord] != 0
        }
        if coefficients:
            lp.add_constraint(coefficients, GE, 0)
    lp.set_objective(
        {names[coord]: vector[coord] for coord in range(n)}, MINIMIZE
    )
    result = solve(lp, backend=backend)
    if result.status != Status.OPTIMAL:
        raise AnalysisError("certificate LP did not solve: %s" % (result.status,))
    if result.objective >= 0:
        return None  # no separating hyperplane: observation is feasible

    normal = [result.assignment[name] for name in names]
    if backend == "scipy":
        normal = rationalize(normal)
        if normal is None or not is_farkas_certificate(
            normal, model_cone.signatures, int_row(vector)
        ):
            return separating_constraint(model_cone, observation, backend="exact")
    constraint = ConeConstraint(scale_to_integers(normal), INEQUALITY)
    return ModelConstraint(constraint, model_cone.counters)

