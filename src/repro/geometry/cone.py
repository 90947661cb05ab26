"""Polyhedral cones with exact V↔H conversion.

A :class:`Cone` is created from generators (the µpath counter signatures)
and can produce its complete H-representation — the paper's *model
constraints* — as :class:`~repro.geometry.halfspace.ConeConstraint`
objects. The conversion follows Section 6 of the paper:

1. deduplicate and GCD-normalise the generators,
2. find the linear span; its orthogonal complement yields the *equality*
   constraints (Gaussian elimination step),
3. project the generators into span coordinates, where the cone is
   full-dimensional,
4. facets of a full-dimensional cone are the extreme rays of its dual
   cone ``{y : y . g >= 0 for all generators g}`` — computed exactly with
   the double description method — and are lifted back to ambient
   coordinates.

This is mathematically equivalent to the paper's "convex hull of
``{0} ∪ generators``, keep the faces through the origin" construction,
but avoids general convex-hull machinery.

Generators are stored as gcd-reduced plain-int vectors (the integer fast
path). Exact membership is certified
(:func:`repro.lp.membership.certified_membership`: HiGHS answers, integer
arithmetic proves the answer, the rational simplex is the fallback). On
the ``"scipy"`` backend membership LPs bypass the modelling layer
entirely via a cached float matrix and HiGHS model. Interior removal
runs those LPs only on the generators an exact sum/midpoint screen
(:func:`_sums_and_midpoints`) cannot already show to be interior.
"""

from fractions import Fraction

import numpy as np

from repro.errors import GeometryError, LPError
from repro.geometry.double_description import extreme_rays
from repro.geometry.halfspace import EQUALITY, INEQUALITY, ConeConstraint
from repro.linalg import (
    as_fraction_vector,
    int_dot,
    int_row,
    is_zero_vector,
    rank,
    row_space_basis,
    rref_fast,
    solve,
)
from repro.obs.trace import get_tracer

# Seed of the sum/midpoint screen's hash weights. Fixed, so the screen
# does the same work on every run; the weights decide only which pairs
# reach the exact check, never what the screen returns.
_SCREEN_SEED = 0x5C12EE7

# Largest entry the screen accepts: ``2*g`` and ``h + k`` stay in int64.
_SCREEN_MAX = (2**63 - 1) // 2

# Generator pairs hashed per block: the block's 8-byte hash sums take
# 128 KiB. Larger blocks were no faster on 3,449 generators and left
# §7.1's process 0.8 MiB larger at its peak.
_SCREEN_PAIRS = 1 << 14


def coordinates_in_basis(basis, vector):
    """Coordinates of ``vector`` in the span of ``basis`` rows.

    Solves ``basis^T c = vector`` exactly; raises :class:`GeometryError`
    if ``vector`` is outside the span.
    """
    return coordinates_in_basis_many(basis, [vector])[0]


def coordinates_in_basis_many(basis, vectors):
    """Span coordinates of many vectors in one elimination.

    One RREF of ``[basis^T | v_1 ... v_k]`` replaces ``k`` independent
    solves — the batched fast path for projecting all generators at once.
    Raises :class:`GeometryError` if any vector lies outside the span.
    """
    dim = len(basis)
    n = len(basis[0]) if basis else 0
    augmented = []
    for j in range(n):
        row = [basis[k][j] for k in range(dim)]
        row.extend(vector[j] for vector in vectors)
        augmented.append(row)
    reduced, pivots = rref_fast(augmented)
    if any(col >= dim for col in pivots):
        raise GeometryError("vector lies outside the basis span")
    results = []
    for offset in range(len(vectors)):
        coords = [Fraction(0)] * dim
        for row_index, pivot_col in enumerate(pivots):
            coords[pivot_col] = reduced[row_index][dim + offset]
        results.append(coords)
    return results


def _screen_weights(n_cols):
    """The screen's hash weights: ``n_cols`` fixed pseudo-random uint64s."""
    return np.random.PCG64(_SCREEN_SEED).random_raw(n_cols)


def _sums_and_midpoints(generators):
    """Indices, ascending, of the generators ``g`` with ``c*g == h + k``
    for two other generators ``h`` and ``k`` and ``c`` in ``{1, 2}``.

    Such a ``g`` is a positive combination of two cone members that are
    not parallel to it (:class:`Cone` generators are gcd-reduced and
    distinct), so in a pointed cone it is not an extreme ray, and all of
    them can be removed at once without changing the cone. The screen
    therefore returns nothing unless every entry is non-negative (a cone
    of non-negative generators is pointed) and at most
    :data:`_SCREEN_MAX`.

    Candidates come from a hash that is linear mod 2^64, ``hash(h) +
    hash(k) == hash(h + k)``. Each pair's hash sum is looked up, a
    block of pairs at a time, in a bitmap of the top bits of every
    ``hash(g)`` and ``2*hash(g)``, then in the sorted array of those
    targets. Every hit is checked with exact integer equality, so the
    hash decides only how many generators are found, never which.
    """
    n_gens = len(generators)
    if n_gens < 3:
        return []
    try:
        rows = np.array(generators, dtype=np.int64)
    except OverflowError:
        return []
    if rows.min() < 0 or rows.max() > _SCREEN_MAX:
        return []
    hashes = rows.view(np.uint64) @ _screen_weights(rows.shape[1])
    # Target t stands for generator t % n_gens times 1 + t // n_gens.
    targets = np.concatenate([hashes, hashes * np.uint64(2)])
    order = np.argsort(targets)
    targets = targets[order]
    bits = min(18, n_gens.bit_length() + 6)
    shift = np.uint64(64 - bits)
    bitmap = np.zeros(1 << bits, dtype=bool)
    bitmap[targets >> shift] = True
    flagged = np.zeros(n_gens, dtype=bool)
    step = max(1, _SCREEN_PAIRS // n_gens)
    scratch = np.empty(step * n_gens, dtype=np.uint64)
    for start in range(0, n_gens - 1, step):
        # Pairs (h, k): h in [start, stop), k in [start + 1, n_gens).
        stop = min(start + step, n_gens - 1)
        block = scratch[: (stop - start) * (n_gens - start - 1)]
        block = block.reshape(stop - start, n_gens - start - 1)
        np.add(hashes[start:stop, None], hashes[None, start + 1:], out=block)
        np.right_shift(block, shift, out=block)
        row, col = np.nonzero(bitmap[block])
        upper = col >= row  # k > h: each pair once, never h with itself
        h, k = start + row[upper], start + 1 + col[upper]
        found = hashes[h] + hashes[k]
        low = np.searchsorted(targets, found, "left")
        counts = np.searchsorted(targets, found, "right") - low
        if not counts.any():
            continue
        hit = np.repeat(np.arange(len(found)), counts)
        slot = low[hit] + np.arange(len(hit)) - np.repeat(np.cumsum(counts) - counts, counts)
        target = order[slot]
        g = target % n_gens
        exact = (
            rows[h[hit]] + rows[k[hit]] == (1 + target // n_gens)[:, None] * rows[g]
        ).all(axis=1)
        flagged[g[exact]] = True
    return np.flatnonzero(flagged).tolist()


def _membership(status):
    """A float membership LP's ``status`` (:mod:`repro.lp.highs_fast`'s
    vocabulary) as a verdict; exactness is the caller's concern (same
    contract as the ``"scipy"`` LP backend)."""
    from repro.lp import highs_fast

    if status == highs_fast.OPTIMAL:
        return True
    if status in (highs_fast.INFEASIBLE, highs_fast.UNBOUNDED):
        return False
    raise GeometryError("HiGHS membership LP failed")


class Cone:
    """A polyhedral cone ``{ sum f_p * g_p : f_p >= 0 }`` in R^N.

    Parameters
    ----------
    generators:
        Iterable of ambient-dimension vectors. Zero vectors are dropped;
        duplicates (up to positive scaling) are merged. Stored as
        gcd-reduced int vectors.
    ambient_dim:
        Required when ``generators`` may be empty.
    """

    def __init__(self, generators, ambient_dim=None):
        generators = [int_row(g) for g in generators]
        if ambient_dim is None:
            if not generators:
                raise GeometryError("ambient_dim required for an empty generator set")
            ambient_dim = len(generators[0])
        for g in generators:
            if len(g) != ambient_dim:
                raise GeometryError(
                    "generator of length %d in ambient dimension %d" % (len(g), ambient_dim)
                )
        self.ambient_dim = ambient_dim
        seen = set()
        unique = []
        for g in generators:
            if not any(g):
                continue
            if g not in seen:
                seen.add(g)
                unique.append(list(g))
        self.generators = unique
        self._scipy_matrix = None
        self._scipy_model = None
        self._scipy_model_built = False

    @classmethod
    def from_generators(cls, generators, ambient_dim=None):
        return cls(generators, ambient_dim=ambient_dim)

    def __getstate__(self):
        # The persistent HiGHS model wraps a C++ handle that cannot
        # cross the process pool's pickle boundary; it and the float
        # matrix are lazily rebuilt on use.
        state = dict(self.__dict__)
        state["_scipy_matrix"] = None
        state["_scipy_model"] = None
        state["_scipy_model_built"] = False
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    # -- basic structure ------------------------------------------------
    @property
    def dim(self):
        """Dimension of the cone's linear span."""
        if not self.generators:
            return 0
        return rank(self.generators)

    def span_basis(self):
        """Canonical basis (RREF rows) of the cone's linear span."""
        if not self.generators:
            return []
        return row_space_basis(self.generators)

    # -- H-representation -----------------------------------------------
    def facet_constraints(self):
        """The complete, irredundant H-representation of the cone.

        Returns a list of :class:`ConeConstraint`; equalities describe the
        span, inequalities the facets within the span. A point lies in the
        cone iff it satisfies all returned constraints (Minkowski–Weyl).
        """
        n = self.ambient_dim
        if not self.generators:
            # The zero cone: x == 0 componentwise.
            constraints = []
            for i in range(n):
                normal = [Fraction(0)] * n
                normal[i] = Fraction(1)
                constraints.append(ConeConstraint(normal, EQUALITY))
            return constraints

        # One fraction-free elimination yields the span basis, and its
        # free-variable construction the orthogonal-complement equalities.
        reduced, pivots = rref_fast(self.generators)
        dim = len(pivots)
        pivot_set = set(pivots)
        constraints = []
        for free in range(n):
            if free in pivot_set:
                continue
            normal = [Fraction(0)] * n
            normal[free] = Fraction(1)
            for row_index, pivot_col in enumerate(pivots):
                normal[pivot_col] = -reduced[row_index][free]
            constraints.append(ConeConstraint(normal, EQUALITY))

        # Scaling the basis rows to coprime ints changes only the span
        # coordinates (by a positive diagonal map) — the lifted facet
        # normals are unchanged — and makes the Gram matrix pure-int.
        basis = [list(int_row(reduced[k])) for k in range(dim)]
        coords = coordinates_in_basis_many(basis, self.generators)

        if dim == 1:
            # Within a 1-D span the cone is either a ray or the whole
            # line. A ray has exactly one facet: the halfline itself.
            signs = {1 if c[0] > 0 else -1 for c in coords}
            if len(signs) == 2:
                return constraints  # whole line: span equalities suffice
            sign = signs.pop()
            normal = [sign * entry for entry in basis[0]]
            constraints.append(ConeConstraint(normal, INEQUALITY))
            return constraints

        # A facet normal y in span coordinates means "y . c(x) >= 0". To
        # express it on ambient points x = B^T c we need n with B n = y;
        # choosing n in the span gives n = B^T (B B^T)^{-1} y.
        gram = [[int_dot(basis[i], basis[j]) for j in range(dim)] for i in range(dim)]
        dual_rays = extreme_rays(coords)
        for ray in dual_rays:
            weights = solve(gram, ray)
            normal = [Fraction(0)] * n
            for k in range(dim):
                if weights[k] == 0:
                    continue
                for j in range(n):
                    normal[j] += weights[k] * basis[k][j]
            constraints.append(ConeConstraint(normal, INEQUALITY))
        return constraints

    # -- membership ------------------------------------------------------
    def _generator_array(self):
        """Cached ``N x P`` float matrix of generators (scipy fast path)."""
        if self._scipy_matrix is None:
            self._scipy_matrix = np.array(self.generators, dtype=float).T
        return self._scipy_matrix

    def _feasibility_model(self):
        """Cached persistent HiGHS model over the generator matrix
        (``None`` when the fast bindings are unavailable)."""
        if not self._scipy_model_built:
            from repro.lp.highs_fast import make_feasibility_model

            self._scipy_model = make_feasibility_model(self._generator_array())
            self._scipy_model_built = True
        return self._scipy_model

    def contains(self, point, backend="exact"):
        """Membership test via a feasibility LP over flows: certified
        exact on ``"exact"``, float on ``"scipy"``."""
        from repro.lp import highs_fast

        point = as_fraction_vector(point)
        if len(point) != self.ambient_dim:
            raise GeometryError(
                "point of length %d in ambient dimension %d"
                % (len(point), self.ambient_dim)
            )
        if not self.generators:
            return is_zero_vector(point)
        if backend == "scipy":
            model = self._feasibility_model()
            rhs = [float(v) for v in point]
            if model is not None:
                status, _ = model.solve(rhs, solution=False)
            else:
                status, _ = highs_fast.linprog_feasibility(
                    self._generator_array(), rhs
                )
            return _membership(status)
        if backend != "exact":
            raise LPError("unknown LP backend %r" % (backend,))
        from repro.lp.membership import certified_membership

        return certified_membership(self.generators, point)[0]

    def is_subset_of(self, other, backend="exact"):
        """True iff every generator of ``self`` lies in ``other``.

        On ``"exact"`` one HiGHS model of ``other``, built for this
        call, answers every generator's certified membership test.
        """
        if self.ambient_dim != other.ambient_dim:
            raise GeometryError("dimension mismatch in cone comparison")
        if backend == "exact":
            from repro.lp.membership import MembershipBatch

            batch = MembershipBatch(other.generators)
            return all(batch.test(g)[0] for g in self.generators)
        return all(other.contains(g, backend=backend) for g in self.generators)

    def is_generator_redundant(self, index):
        """Whether generator ``index`` lies in the cone of the others
        (certified exact membership)."""
        from repro.lp.membership import certified_membership

        others = [g for i, g in enumerate(self.generators) if i != index]
        if not others:
            return False
        return certified_membership(others, self.generators[index])[0]

    def irredundant_generators(self, backend="exact"):
        """Generators with cone-interior members removed (Section 6,
        step 3 of the constraint-deduction pipeline), in their order.

        First every generator that is the sum or the midpoint of two
        others is dropped (:func:`_sums_and_midpoints`, an exact screen
        that only runs on a cone of non-negative generators). Then one
        membership LP per remaining generator, in order, drops each that
        lies in the cone of the generators still kept. On such a cone
        both steps drop only generators that are not extreme rays, so
        with exact LPs the screen changes how many LPs run, not the
        result: the cone's extreme generators, in order.

        ``backend="scipy"`` prunes with float LPs — much faster, but a
        borderline generator may be misclassified. Callers that need an
        exact final answer (see
        :func:`repro.cone.constraints.deduce_constraints`) verify the
        resulting H-representation against the original generators and
        restore any casualty.

        Membership LPs are issued directly against the kept-generator
        matrix (no intermediate ``Cone`` rebuilds). On the ``"scipy"``
        backend one persistent HiGHS model serves the whole loop:
        testing "candidate in cone(kept - candidate)" is the same matrix
        with the candidate's column pinned to zero, and screened or
        removed generators simply stay pinned until the loop ends.

        Runs in a ``cone.interior_removal`` span with the attributes
        ``generators``, ``screened`` (dropped by the screen) and
        ``lp_tests`` (membership LPs run).
        """
        from repro.lp import highs_fast

        generators = self.generators
        with get_tracer().span(
            "cone.interior_removal", generators=len(generators)
        ) as span:
            screened = _sums_and_midpoints(generators)
            dropped = set(screened)
            survivors = [i for i in range(len(generators)) if i not in dropped]
            lp_tests = 0
            model = None
            if backend == "scipy" and len(generators) > 1:
                model = self._feasibility_model()
            if model is not None:
                kept_flags = [True] * len(generators)
                n_kept = len(survivors)
                # The model is shared with contains(), possibly across
                # threads: pin, solve and restore as one locked step.
                with model.lock:
                    for i in screened:
                        kept_flags[i] = False
                        model.exclude_column(i)
                    for i in survivors:
                        if n_kept <= 1:
                            break
                        model.exclude_column(i)
                        rhs = [float(v) for v in generators[i]]
                        status, _ = model.solve(rhs, solution=False)
                        lp_tests += 1
                        if status == highs_fast.OPTIMAL:
                            kept_flags[i] = False  # redundant: stays pinned
                            n_kept -= 1
                        else:
                            model.include_column(i)
                    for i, keep in enumerate(kept_flags):
                        if not keep:
                            model.include_column(i)
                kept = [list(g) for g, keep in zip(generators, kept_flags) if keep]
            else:
                kept = [generators[i] for i in survivors]
                index = 0
                while index < len(kept):
                    candidate = kept[index]
                    rest = kept[:index] + kept[index + 1 :]
                    if not rest:
                        break
                    lp_tests += 1
                    if backend == "scipy":
                        member = _membership(highs_fast.linprog_feasibility(
                            np.array(rest, dtype=float).T, candidate
                        )[0])
                    else:
                        from repro.lp.membership import certified_membership

                        member = certified_membership(rest, candidate)[0]
                    if member:
                        kept.pop(index)
                    else:
                        index += 1
            span.set(screened=len(screened), lp_tests=lp_tests)
            return kept

    def __repr__(self):
        return "Cone(%d generators in R^%d, dim %d)" % (
            len(self.generators),
            self.ambient_dim,
            self.dim,
        )


def cone_equal(cone_a, cone_b):
    """Exact equality of two cones (mutual inclusion)."""
    return cone_a.is_subset_of(cone_b) and cone_b.is_subset_of(cone_a)
