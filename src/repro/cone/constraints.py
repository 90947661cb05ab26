"""Model-constraint deduction (Section 6 of the paper).

The pipeline mirrors the paper's four steps exactly:

1. **Normalise** each µpath counter signature by its GCD and remove
   duplicates (handled by :class:`repro.geometry.Cone` construction).
2. **Gaussian elimination** identifies equality constraints — the
   orthogonal complement of the signatures' span (e.g.
   ``load.stlb_hit == load.stlb_hit_4k + load.stlb_hit_2m``).
3. **Interior-signature removal**: signatures expressible as non-negative
   combinations of the others are dropped. An exact screen first drops
   every signature that is the sum or the midpoint of two others; one
   LP membership test per remaining signature drops the rest
   (:meth:`repro.geometry.Cone.irredundant_generators`).
4. **Conic hull**: facet inequalities are computed exactly — for us, as
   extreme rays of the dual cone via the double description method
   (equivalent to the paper's convex hull of ``{0} ∪ signatures``).

Everything runs over exact rational arithmetic; deduction time grows
exponentially with counter count (the paper's Figure 9b), which is why
feasibility testing never calls this code.
"""

import numpy as np

from repro.errors import AnalysisError
from repro.geometry import Cone, EQUALITY, INEQUALITY
from repro.obs.trace import get_tracer

# Generator counts at or below this skip interior removal: its fixed
# cost exceeds what double description saves on inputs this small.
# Purely a performance knob — the deduced constraints are identical
# either way.
_REMOVAL_THRESHOLD = 16


class ModelConstraint:
    """A deduced model constraint with counter-name rendering.

    Wraps a :class:`repro.geometry.ConeConstraint` (exact integer
    normal) together with the counter ordering, so it can print in the
    paper's ``lhs <= rhs`` style and report which HECs it involves.
    """

    __slots__ = ("cone_constraint", "counters")

    def __init__(self, cone_constraint, counters):
        if len(counters) != len(cone_constraint.normal):
            raise AnalysisError(
                "constraint over %d axes given %d counter names"
                % (len(cone_constraint.normal), len(counters))
            )
        self.cone_constraint = cone_constraint
        self.counters = list(counters)

    @property
    def normal(self):
        return self.cone_constraint.normal

    @property
    def kind(self):
        return self.cone_constraint.kind

    @property
    def is_equality(self):
        return self.cone_constraint.kind == EQUALITY

    @property
    def involved_counters(self):
        """Counter names with nonzero coefficient — the HECs an expert
        should inspect when this constraint is violated."""
        return [
            name
            for name, coeff in zip(self.counters, self.cone_constraint.normal)
            if coeff != 0
        ]

    def evaluate(self, vector):
        return self.cone_constraint.evaluate(vector)

    def is_satisfied_by(self, vector, slack=0):
        return self.cone_constraint.is_satisfied_by(vector, slack=slack)

    def violation(self, vector):
        return self.cone_constraint.violation(vector)

    def render(self):
        return self.cone_constraint.render(self.counters)

    # -- serialisation (repro.results schema) ---------------------------
    def to_dict(self):
        """Stable JSON record: exact integer normal, kind, counters."""
        return {
            "normal": [int(value) for value in self.cone_constraint.normal],
            "kind": "eq" if self.is_equality else "ge",
            "counters": list(self.counters),
        }

    @classmethod
    def from_dict(cls, data):
        """The constraint :meth:`to_dict` wrote. Raises
        :class:`AnalysisError` on a kind other than ``"eq"`` or
        ``"ge"``, or a normal that is not a list of ints."""
        from repro.geometry.halfspace import ConeConstraint

        kind, normal = data["kind"], data["normal"]
        if kind not in ("eq", "ge"):
            raise AnalysisError("unknown constraint kind %r" % (kind,))
        if type(normal) is not list or not all(type(v) is int for v in normal):
            raise AnalysisError("constraint normal must be a list of ints")
        kind = EQUALITY if kind == "eq" else INEQUALITY
        return cls(ConeConstraint(normal, kind), data["counters"])

    def __eq__(self, other):
        if not isinstance(other, ModelConstraint):
            return NotImplemented
        return (
            self.cone_constraint == other.cone_constraint
            and self.counters == other.counters
        )

    def __hash__(self):
        return hash((self.cone_constraint, tuple(self.counters)))

    def __repr__(self):
        return "ModelConstraint(%s)" % (self.render(),)


class ConstraintSet:
    """The complete H-representation of a model cone."""

    def __init__(self, constraints, counters):
        self.constraints = list(constraints)
        self.counters = list(counters)

    @property
    def equalities(self):
        return [c for c in self.constraints if c.is_equality]

    @property
    def inequalities(self):
        return [c for c in self.constraints if not c.is_equality]

    def satisfied_by(self, vector):
        """True iff every constraint holds for ``vector``."""
        return all(c.is_satisfied_by(vector) for c in self.constraints)

    def violated_by(self, vector):
        """Constraints that ``vector`` fails."""
        return [c for c in self.constraints if not c.is_satisfied_by(vector)]

    def render(self):
        return [c.render() for c in self.constraints]

    def __len__(self):
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def __getitem__(self, index):
        return self.constraints[index]

    def __repr__(self):
        return "ConstraintSet(%d equalities, %d inequalities)" % (
            len(self.equalities),
            len(self.inequalities),
        )


def deduce_constraints(signatures, counters, remove_interior=True, lp_backend="scipy"):
    """Run the Section 6 deduction pipeline.

    Parameters
    ----------
    signatures:
        µpath counter signatures (non-negative integer vectors).
    counters:
        Counter names, one per signature component.
    remove_interior:
        Apply interior-signature removal before facet enumeration (step
        3): the exact sum/midpoint screen, then one LP membership test
        per signature it leaves. Disabling it changes performance only;
        the resulting constraint set is identical. Sets of at most
        ``_REMOVAL_THRESHOLD`` (16) generators skip the step — its fixed
        costs dominate there and the double description method handles
        a handful of interior generators at no measurable cost.
    lp_backend:
        Backend for the interior-removal LPs. The default float backend
        is fast; exactness is restored afterwards by verifying every
        original signature against the deduced facets (one exact integer
        matrix product) and recomputing with any wrongly-pruned
        signature restored. The screen and the facet enumeration are
        always exact.

    Returns
    -------
    :class:`ConstraintSet` with equalities first, then facet
    inequalities.
    """
    tracer = get_tracer()
    with tracer.span(
        "cone.deduce", signatures=len(signatures), counters=len(counters)
    ) as span:
        full_cone = Cone(signatures, ambient_dim=len(counters))
        if remove_interior and len(full_cone.generators) > _REMOVAL_THRESHOLD:
            kept = full_cone.irredundant_generators(backend=lp_backend)
            facets = _facets_with_verification(full_cone, kept, len(counters))
        else:
            facets = full_cone.facet_constraints()
        ordered = [f for f in facets if f.kind == EQUALITY] + [
            f for f in facets if f.kind == INEQUALITY
        ]
        span.set(constraints=len(ordered))
        return ConstraintSet(
            [ModelConstraint(f, counters) for f in ordered],
            counters,
        )


def _facets_with_verification(full_cone, kept, ambient_dim):
    """Facets of ``cone(kept)``, exact-verified against every original
    generator; wrongly pruned generators are restored and the hull is
    recomputed until the H-representation covers all of them."""
    generators = full_cone.generators
    kept = list(kept)
    while True:
        facets = Cone(kept, ambient_dim=ambient_dim).facet_constraints()
        offenders = _uncovered(facets, generators)
        if not offenders:
            return facets
        kept.extend(generators[i] for i in offenders)


def _uncovered(facets, generators):
    """Indices, ascending, of the ``generators`` (int vectors) that
    violate one of ``facets``, from one exact matrix product: int64
    when no dot product can overflow it, Python ints otherwise."""
    if not facets:
        return []
    normals = [facet.normal for facet in facets]
    largest = max(abs(v) for normal in normals for v in normal) * max(
        abs(v) for generator in generators for v in generator
    )
    dtype = np.int64 if largest * len(normals[0]) < 2**63 else object
    values = np.array(normals, dtype=dtype) @ np.array(generators, dtype=dtype).T
    equality = np.array([facet.kind == EQUALITY for facet in facets])[:, None]
    violated = np.where(equality, values != 0, values < 0)
    return np.flatnonzero(violated.any(axis=0)).tolist()
