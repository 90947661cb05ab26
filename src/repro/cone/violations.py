"""Identification of violated model constraints.

When an observation is infeasible, CounterPoint reports *which* model
constraints it breaks — the feedback an expert uses to refine the µDD
(Section 5). For point observations this is direct evaluation; for
counter confidence regions a constraint is **definitely** violated when
the entire region lies strictly on the infeasible side (computed as the
region's support value in the constraint-normal direction via a small
LP), and violated **at the mean** when the region's centre fails it.
"""

from fractions import Fraction

from repro.cone.feasibility import region_boxes
from repro.errors import AnalysisError
from repro.lp import GE, LE, MAXIMIZE, LinearProgram, Status, solve
from repro.linalg import as_fraction_vector, int_dot, int_row
from repro.geometry.halfspace import EQUALITY
from repro.obs.trace import get_tracer

_UNBUILT = object()


class Violation:
    """A violated model constraint with diagnostic detail.

    Attributes
    ----------
    constraint:
        The :class:`repro.cone.ModelConstraint` that failed.
    margin:
        For points: the (negative) constraint value at the observation.
        For regions: the region's maximum achievable constraint value —
        below zero means no point of the region satisfies the
        constraint.
    definite:
        True when the entire confidence region violates the constraint
        (always True for point observations).
    """

    __slots__ = ("constraint", "margin", "definite")

    def __init__(self, constraint, margin, definite):
        self.constraint = constraint
        self.margin = margin
        self.definite = definite

    def render(self):
        tag = "definite" if self.definite else "at-mean"
        return "[%s] %s (margin %s)" % (tag, self.constraint.render(), self.margin)

    # -- serialisation (repro.results schema) ---------------------------
    def to_dict(self):
        """Stable JSON record: the constraint, the margin (exactness
        tier preserved), and whether the violation is definite."""
        from repro.results.base import encode_number

        return {
            "constraint": self.constraint.to_dict(),
            "margin": encode_number(self.margin),
            "definite": bool(self.definite),
        }

    @classmethod
    def from_dict(cls, data):
        from repro.cone.constraints import ModelConstraint
        from repro.results.base import decode_number

        return cls(
            ModelConstraint.from_dict(data["constraint"]),
            decode_number(data["margin"]),
            bool(data["definite"]),
        )

    def __eq__(self, other):
        if not isinstance(other, Violation):
            return NotImplemented
        return (
            self.constraint == other.constraint
            and self.margin == other.margin
            and self.definite == other.definite
        )

    def __repr__(self):
        return "Violation(%s)" % (self.render(),)


def _region_support(region, normal, sense, backend="exact"):
    """Max (sense=max) or min of ``normal . v`` over the region box with
    ``v >= 0`` (Appendix A treats counters as non-negative).

    Returns ``None`` when the LP is unbounded (degenerate region) or the
    region itself is empty. One :class:`LinearProgram` per call: the
    exact backend's route, and the reference that ``scipy``'s
    :class:`~repro.lp.highs_fast.SupportModel` matches and falls back to.
    """
    n = len(normal)
    lp = LinearProgram()
    names = ["v_%d" % i for i in range(n)]
    for name in names:
        lp.add_variable(name)
    for direction, lower, upper in region_boxes(region, n):
        direction = as_fraction_vector(direction)
        coefficients = {
            names[i]: direction[i] for i in range(n) if direction[i] != 0
        }
        if not coefficients:
            continue
        lp.add_constraint(coefficients, GE, Fraction(lower))
        lp.add_constraint(coefficients, LE, Fraction(upper))
    objective = {names[i]: Fraction(normal[i]) for i in range(n) if normal[i] != 0}
    lp.set_objective(objective, MAXIMIZE if sense == "max" else "min")
    result = solve(lp, backend=backend)
    if result.status != Status.OPTIMAL:
        return None
    return result.objective


class _RegionSupport:
    """The support LPs of one :func:`identify_violations` call. On
    ``scipy`` they share one :class:`~repro.lp.highs_fast.SupportModel`,
    built at the first LP and dropped with the call (never stored on a
    cone or region); an LP it cannot answer as ``linprog`` would
    re-solves through :func:`_region_support` and counts in
    ``lp.region.fallbacks``. Other backends run :func:`_region_support`.
    """

    def __init__(self, region, boxes, backend):
        self.region, self.boxes, self.backend = region, boxes, backend
        self.solves = self.fallbacks = 0
        self.model = _UNBUILT

    def __call__(self, normal, sense):
        self.solves += 1
        if self.backend != "scipy":
            return _region_support(self.region, normal, sense, backend=self.backend)
        from repro.lp import highs_fast

        if self.model is _UNBUILT:
            self.model = highs_fast.make_support_model(self.boxes, len(normal))
        tracer = get_tracer()
        with tracer.span("lp.solve", backend="highs_fast", variables=len(normal)) as span:
            status, value = highs_fast.ERROR, None
            if self.model is not None:
                status, value = self.model.solve(normal, sense == "max")
            if status not in (highs_fast.OPTIMAL, highs_fast.INFEASIBLE, highs_fast.UNBOUNDED):
                self.fallbacks += 1
                if tracer.enabled:
                    tracer.metrics.counter("lp.region.fallbacks").inc()
                span.set(fallback="no model" if self.model is None else "rejected")
                value = _region_support(self.region, normal, sense, backend="scipy")
            span.set(status=status)
            if tracer.enabled:
                tracer.metrics.histogram("lp.solve_seconds").observe(span.duration)
        return value


def identify_violations(model_cone, observation, backend="exact"):
    """List the model constraints violated by ``observation``.

    ``observation`` is either a point (mapping/sequence of counter
    values) or a confidence region (an object with ``box_constraints()``
    and ``center()``). Returns a list of :class:`Violation`, definite
    violations first. The call is one ``cone.violations`` span with
    attributes ``mode`` (point/region), ``support_lps`` and ``fallbacks``.
    """
    with get_tracer().span("cone.violations") as span:
        constraints = model_cone.constraints()
        if hasattr(observation, "box_constraints"):
            violations, support = _region_violations(
                model_cone, constraints, observation, backend
            )
            span.set(mode="region", support_lps=support.solves, fallbacks=support.fallbacks)
            return violations
        span.set(mode="point", support_lps=0, fallbacks=0)
        vector = model_cone.vector_from_observation(observation)
        violations = []
        for constraint in constraints:
            if not constraint.is_satisfied_by(vector):
                margin = constraint.evaluate(vector)
                if constraint.kind == EQUALITY:
                    margin = -abs(margin)
                violations.append(Violation(constraint, margin, definite=True))
        return violations


def _region_violations(model_cone, constraints, region, backend):
    center = region.center()
    n = len(model_cone.counters)
    if len(center) != n:
        raise AnalysisError(
            "region center has %d components for %d counters" % (len(center), n)
        )
    support = _RegionSupport(region, region_boxes(region, n), backend)
    # A positive multiple of the centre: every constraint value keeps its sign.
    point = int_row(center)
    violations = []
    for constraint in constraints:
        value = int_dot(constraint.normal, point)
        if (value == 0) if constraint.kind == EQUALITY else (value >= 0):
            # A constraint satisfied at the mean may still be definitely
            # violated only if the whole region is infeasible for it —
            # impossible when the centre satisfies it. Skip early.
            continue
        upper = support(constraint.normal, "max")
        if constraint.kind == EQUALITY:
            lower = support(constraint.normal, "min")
            definite = (
                upper is not None
                and lower is not None
                and (upper < 0 or lower > 0)
            )
        else:
            definite = upper is not None and upper < 0
        margin = upper if upper is not None else constraint.evaluate(as_fraction_vector(center))
        violations.append(Violation(constraint, margin, definite=definite))
    violations.sort(key=lambda v: (not v.definite, str(v.constraint.render())))
    return violations, support
