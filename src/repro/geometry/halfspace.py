"""Homogeneous linear constraints (``normal . x == 0`` / ``normal . x >= 0``).

Model constraints in the paper are homogeneous: they compare non-negative
integer combinations of counters (e.g. Table 1's
``load.ret_stlb_miss <= load.walk_done`` is ``normal . x >= 0`` with
``normal = walk_done - ret_stlb_miss``). A :class:`ConeConstraint` stores
the normal exactly and can render itself in the paper's
``lhs <= rhs`` style given counter names.
"""

from fractions import Fraction

from repro.errors import GeometryError, LinalgError
from repro.linalg import is_zero_vector, scale_to_integers

EQUALITY = "=="
INEQUALITY = ">="


class ConeConstraint:
    """A homogeneous constraint ``normal . x == 0`` or ``normal . x >= 0``.

    The normal is canonicalised to coprime integers. Equality constraints
    additionally fix the sign so that structurally identical constraints
    compare equal.
    """

    __slots__ = ("normal", "kind")

    def __init__(self, normal, kind):
        if kind not in (EQUALITY, INEQUALITY):
            raise GeometryError("unknown constraint kind %r" % (kind,))
        normal = scale_to_integers(normal)
        if is_zero_vector(normal):
            raise GeometryError("constraint normal must be nonzero")
        if kind == EQUALITY:
            # Sign is meaningless for equalities; canonicalise it.
            for value in normal:
                if value < 0:
                    normal = [-entry for entry in normal]
                    break
                if value > 0:
                    break
        self.normal = tuple(normal)
        self.kind = kind

    # -- evaluation ----------------------------------------------------
    def evaluate(self, point):
        """Return ``normal . point`` exactly.

        Integer points take the pure-int fast path (violation checks
        over every deduced facet); floats and other numerics are
        converted to Fractions, so the result is exact in every case.
        """
        normal = self.normal
        if len(normal) != len(point):
            raise LinalgError(
                "dot: length mismatch (%d vs %d)" % (len(normal), len(point))
            )
        total = 0
        for a, b in zip(normal, point):
            if not isinstance(b, (int, Fraction)):
                b = Fraction(b)
            total += a * b
        return total

    def is_satisfied_by(self, point, slack=Fraction(0)):
        """Whether ``point`` satisfies the constraint.

        ``slack`` loosens the test by an absolute margin, used when the
        point came from floating-point statistics.
        """
        value = self.evaluate(point)
        if self.kind == EQUALITY:
            return abs(value) <= slack
        return value >= -slack

    def violation(self, point):
        """Non-negative violation magnitude (zero when satisfied)."""
        value = self.evaluate(point)
        if self.kind == EQUALITY:
            return abs(value)
        return max(Fraction(0), -value)

    # -- identity ------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, ConeConstraint):
            return NotImplemented
        return self.kind == other.kind and self.normal == other.normal

    def __hash__(self):
        return hash((self.kind, self.normal))

    # -- rendering -----------------------------------------------------
    def render(self, names=None):
        """Render in the paper's ``lhs <= rhs`` style.

        Negative-coefficient terms go on the left, positive ones on the
        right, so ``normal . x >= 0`` prints as ``neg-part <= pos-part``.
        """
        names = names or ["x%d" % i for i in range(len(self.normal))]
        if len(names) != len(self.normal):
            raise GeometryError(
                "expected %d names, got %d" % (len(self.normal), len(names))
            )
        left_terms = []
        right_terms = []
        for coeff, name in zip(self.normal, names):
            if coeff == 0:
                continue
            magnitude = abs(coeff)
            term = name if magnitude == 1 else "%s*%s" % (magnitude, name)
            if coeff < 0:
                left_terms.append(term)
            else:
                right_terms.append(term)
        left = " + ".join(left_terms) if left_terms else "0"
        right = " + ".join(right_terms) if right_terms else "0"
        comparator = "==" if self.kind == EQUALITY else "<="
        return "%s %s %s" % (left, comparator, right)

    def __repr__(self):
        return "ConeConstraint(%s, %r)" % (list(self.normal), self.kind)
