"""Certified exact cone membership: HiGHS finds the answer, integers prove it.

Does a point ``b`` lie in ``cone(G) = {G f : f >= 0}``? Every exact point
verdict asks this (the reduced Appendix A flow system ``S^T f = v``), and
so do :meth:`repro.geometry.Cone.contains` and generator redundancy. The
rational simplex (:func:`repro.lp.simplex.solve_exact`) answers exactly
but pays for every pivot in :class:`~fractions.Fraction` arithmetic.
Following exact LP solvers (QSopt_ex: Applegate, Cook, Dash and
Espinoza), :func:`certified_membership` lets the float HiGHS model of
:mod:`repro.lp.highs_fast` find the answer, then checks a certificate of
it in integer arithmetic:

* *feasible*: the float solution's support ``J`` is solved exactly.
  ``[G_J | b]`` is reduced fraction-free (:func:`bareiss_rref`); the
  answer stands when every ``J`` column is a pivot, ``b``'s column is
  not, and the unique solution ``f`` is non-negative. ``f`` is then an
  exact non-negative flow with ``G f = b``.
* *infeasible*: HiGHS's dual ray ``y`` is normalised, rationalised and
  scaled to ints; the answer stands when, for one sign of ``y``,
  ``y . g >= 0`` for every generator and ``y . b < 0`` (Farkas' lemma:
  every point of the cone has ``y . x >= 0``).

For a wide generator matrix the float answer comes from a model that
holds a column subset (:mod:`repro.lp.highs_fast`); neither check
depends on it, since the flow is solved on its support and the ray is
checked against every generator.

Anything else falls back to the simplex, which stays the reference: no
HiGHS bindings, an ``ERROR`` status, no ray, a check that fails, a
binding that answers in an unexpected shape. Each fallback increments
the ``lp.certify.fallbacks`` counter. A verdict is a property of the
data, so both routes give the same one; only a feasible answer's flow
may be a different vertex.

The HiGHS model belongs to one call. :class:`MembershipBatch` builds it
at the first question the shortcuts leave open and drops it with the
batch; it is never stored on a cone, because the cone caches keep their
cones for the life of the process.
"""

from fractions import Fraction
from math import isfinite

from repro.errors import LPError
from repro.linalg import bareiss_rref, int_dot, int_row
from repro.lp.problem import EQ, LinearProgram
from repro.lp.solver import Status, solve
from repro.obs.trace import get_tracer

#: A float flow at or below this is off the solution's support.
SUPPORT_TOLERANCE = 1e-9

#: Largest denominator a rationalised float certificate keeps.
MAX_DENOMINATOR = 10**6

_UNBUILT = object()


def membership_lp(generators, point):
    """The membership :class:`~repro.lp.problem.LinearProgram`
    ``G f = point, f >= 0``.

    One flow variable per generator, one equality row per coordinate
    some generator touches. Returns ``(program, flow_names)``, or
    ``None`` when a coordinate no generator touches is non-zero: no flow
    reaches it, so the point is outside the cone.
    """
    program = LinearProgram()
    names = ["f%d" % index for index in range(len(generators))]
    for name in names:
        program.add_variable(name)
    for coord, value in enumerate(point):
        coefficients = {
            names[index]: generator[coord]
            for index, generator in enumerate(generators)
            if generator[coord] != 0
        }
        if not coefficients:
            if value != 0:
                return None
            continue
        program.add_constraint(coefficients, EQ, value)
    return program, names


def rationalize(values, max_denominator=MAX_DENOMINATOR):
    """A float vector as coprime ints: each entry rounded to its nearest
    fraction with denominator at most ``max_denominator``, then scaled
    by a positive factor (:func:`int_row`). ``None`` when an entry is
    not finite or every entry rounds to zero."""
    rational = []
    for value in values:
        if not isfinite(value):
            return None
        rational.append(Fraction(value).limit_denominator(max_denominator))
    if not any(rational):
        return None
    return int_row(rational)


def is_farkas_certificate(normal, generators, point):
    """Whether the int vector ``normal`` separates the int ``point``
    from ``cone(generators)``: ``normal . g >= 0`` for every generator
    and ``normal . point < 0``."""
    if int_dot(normal, point) >= 0:
        return False
    for generator in generators:
        if int_dot(normal, generator) < 0:
            return False
    return True


def _int_point(point):
    """``(b, scale)``: coprime ints ``b`` (:func:`int_row`) and the
    positive ``scale`` with ``point == scale * b``, or ``None`` for the
    zero point. Membership is invariant under positive scaling."""
    b = int_row(point)
    for value, scaled in zip(point, b):
        if scaled:
            return b, Fraction(value) / scaled
    return b, None


def _certified_flow(generators, b, scale, solution):
    """Exact non-negative flows for ``scale * b`` on the float
    solution's support, or ``None`` when the support does not certify
    ``b``."""
    if solution is None or len(solution) != len(generators):
        return None
    support = [j for j, x in enumerate(solution) if x > SUPPORT_TOLERANCE]
    width = len(support)
    if not width:
        return None
    rows = []
    for coord, value in enumerate(b):
        row = [generators[j][coord] for j in support]
        if value or any(row):
            row.append(value)
            rows.append(row)
    reduced, pivots = bareiss_rref(rows)
    if pivots != list(range(width)):
        return None  # rank-deficient support, or b outside its span
    flows = [Fraction(0)] * len(generators)
    for row, j in enumerate(support):
        value = reduced[row][width]
        if value < 0:
            return None
        flows[j] = value * scale
    return flows


def _certified_ray(generators, b, ray):
    """Whether HiGHS's dual ray, rounded to ints, is a Farkas
    certificate for ``b`` (in either sign)."""
    if len(ray) != len(b):
        return False
    largest = max((abs(value) for value in ray), default=0.0)
    if not largest or not isfinite(largest):
        return False
    normal = rationalize([value / largest for value in ray])
    if normal is None:
        return False
    return is_farkas_certificate(normal, generators, b) or \
        is_farkas_certificate([-value for value in normal], generators, b)


def _simplex_membership(generators, point):
    """The reference answer: the rational simplex on
    :func:`membership_lp`."""
    built = membership_lp(generators, point)
    if built is None:
        return False, None
    program, names = built
    result = solve(program, backend="exact")
    if result.status != Status.OPTIMAL:
        return False, None
    return True, [result.assignment[name] for name in names]


class MembershipBatch:
    """Membership questions against one generator set.

    ``generators`` are int sequences (the columns of ``G``). One HiGHS
    model serves every question: ``model`` when given, else one built at
    the first question the shortcuts leave open (``None`` when the
    bindings are unavailable, in which case every solve falls back).
    The model lives as long as the batch; keep a batch to one call and
    one thread.
    """

    def __init__(self, generators, model=None):
        self.generators = generators
        self._touched = {
            coord for coord, column in enumerate(zip(*generators))
            if any(column)
        }
        self._model = _UNBUILT if model is None else model

    def model(self):
        """The batch's HiGHS model (built on first use), or ``None``."""
        if self._model is _UNBUILT:
            import numpy as np

            from repro.lp.highs_fast import make_feasibility_model

            self._model = make_feasibility_model(
                np.array(self.generators, dtype=float).T
            )
        return self._model

    def test(self, point):
        """``(feasible, flows)`` for one rational ``point``;
        see :func:`certified_membership`."""
        if self.generators and len(point) != len(self.generators[0]):
            raise LPError(
                "point of length %d for generators of length %d"
                % (len(point), len(self.generators[0]))
            )
        b, scale = _int_point(point)
        if scale is None:
            return True, [Fraction(0)] * len(self.generators)
        touched = self._touched
        for coord, value in enumerate(b):
            if value and coord not in touched:
                return False, None
        model = self.model()
        tracer = get_tracer()
        with tracer.span(
            "lp.solve", backend="exact", method="certified",
            variables=len(self.generators), constraints=len(touched),
        ) as span:
            feasible, detail = self._certify(model, b, scale, span)
            if feasible is None:
                if tracer.enabled:
                    tracer.metrics.counter("lp.certify.fallbacks").inc()
                span.set(fallback=detail)
                feasible, flows = _simplex_membership(self.generators, point)
            else:
                flows = detail
            span.set(status=Status.OPTIMAL if feasible else Status.INFEASIBLE)
            if tracer.enabled:
                tracer.metrics.histogram("lp.solve_seconds").observe(
                    span.duration
                )
        return feasible, flows

    def _certify(self, model, b, scale, span):
        """``(True, flows)`` with exact flows for ``scale * b``,
        ``(False, None)`` for a certified refutation, or ``(None,
        reason)`` when the float answer could not be proved. Sets the
        ``span``'s ``runs`` (HiGHS runs for this point) and ``columns``
        (the model's width after it)."""
        from repro.lp import highs_fast

        if model is None:
            span.set(runs=0, columns=0)
            return None, "no model"
        try:
            with model.lock:
                status, solution = model.solve(b)
                ray = model.dual_ray() if status == highs_fast.INFEASIBLE \
                    else None
                # A model that keeps no counts ran once, on every column.
                span.set(
                    runs=getattr(model, "runs", 1),
                    columns=getattr(model, "width", len(self.generators)),
                )
        except (OverflowError, TypeError, ValueError):
            return None, "unsolvable input"
        if status == highs_fast.OPTIMAL:
            flows = _certified_flow(self.generators, b, scale, solution)
            if flows is None:
                return None, "flow check failed"
            return True, flows
        if status == highs_fast.INFEASIBLE:
            if ray is None:
                return None, "no ray"
            if not _certified_ray(self.generators, b, ray):
                return None, "ray check failed"
            return False, None
        return None, "status %s" % (status,)


def certified_membership(generators, point, model=None):
    """Exact membership of ``point`` in ``cone(generators)``.

    ``generators`` are int sequences (the columns of ``G``) and
    ``point`` rationals (ints or :class:`~fractions.Fraction`).
    Returns ``(feasible, flows)``: ``flows`` is an exact
    :class:`~fractions.Fraction` list with ``G f = point`` and
    ``f >= 0`` when feasible, else ``None``.

    A point whose length is not the generators' raises
    :class:`~repro.errors.LPError`. Before any model is built, the point
    is scaled to coprime ints (a positive scale does not change
    membership); the zero point is feasible with zero flows, and a
    non-zero coordinate that no generator touches is infeasible.
    Otherwise ``model`` (a :class:`~repro.lp.highs_fast.FeasibilityModel`
    over the float generator matrix), or one built for this call,
    answers, and the answer is certified or re-solved by the simplex
    (see the module docstring). The solve runs in an ``lp.solve`` span
    with ``backend="exact"`` and ``method="certified"``, and with the
    model's ``runs`` and ``columns`` for this point.
    """
    return MembershipBatch(generators, model=model).test(point)


__all__ = [
    "MAX_DENOMINATOR",
    "MembershipBatch",
    "SUPPORT_TOLERANCE",
    "certified_membership",
    "is_farkas_certificate",
    "membership_lp",
    "rationalize",
]
