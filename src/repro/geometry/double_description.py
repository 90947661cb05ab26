"""The double description (Motzkin et al.) method, exact over integers.

Given a *pointed* polyhedral cone in H-representation::

    C = { x in R^d : a_i . x >= 0  for every row a_i of A }

:func:`extreme_rays` computes the finite set of extreme rays generating
``C`` (its V-representation). This is the computational heart of
CounterPoint's constraint deduction: facets of the model cone are the
extreme rays of its dual cone (see :mod:`repro.geometry.cone`).

Algorithm
---------
1. Pick ``d`` linearly independent constraint rows and build the
   simplicial cone they bound: its rays are the columns of the inverse of
   the chosen row submatrix (``a_i . r_j = delta_ij``).
2. Insert the remaining constraints one at a time. For constraint ``a``,
   split current rays into positive / zero / negative by the sign of
   ``a . r``; keep positive and zero rays, and for every *adjacent*
   positive/negative pair ``(p, n)`` emit the combination
   ``(a.p) n - (a.n) p`` (which lies on the hyperplane ``a . x = 0``).
3. Adjacency (``adjacency="bitset"``, the default) uses the classic
   cddlib combinatorial test: active-constraint sets are kept as int
   bitmasks, a candidate pair is discarded when fewer than ``d - 2``
   constraints are tight at both, or when a *third* ray's active set
   contains the pair's intersection (Fukuda & Prodon, Prop. 7 — exact
   for the extreme rays of a pointed cone, which the DD invariant
   maintains). Only on ties — more than ``d - 2`` common active
   constraints, where degenerate inputs (e.g. duplicated rows) make the
   count uninformative — does it confirm with the algebraic rank test.
   ``adjacency="algebraic"`` forces the rank-``(d-2)`` test everywhere;
   it is the reference implementation for the equivalence tests and
   removes the O(d^3) rank call from the innermost loop when unused.

Everything runs on gcd-reduced integer rows and rays (see
:mod:`repro.linalg.intkernel`), so the inner loops are plain Python int
arithmetic. Complexity is exponential in the worst case — exactly the
behaviour the paper reports for constraint deduction (Figure 9b).
"""

from repro.errors import GeometryError
from repro.linalg import bareiss_rank, bareiss_solve, int_dot, int_row
from repro.obs.trace import traced

try:
    _popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - exercised on 3.9 CI
    def _popcount(mask):
        return bin(mask).count("1")


_ADJACENCY_MODES = ("bitset", "algebraic")


def _int_matrix(inequalities):
    """Validate and gcd-normalise the constraint rows to int tuples."""
    matrix = [int_row(row) for row in inequalities]
    if matrix:
        width = len(matrix[0])
        for row in matrix:
            if len(row) != width:
                raise GeometryError(
                    "ragged constraint matrix: expected width %d, got %d"
                    % (width, len(row))
                )
    return matrix


def _independent_row_subset(matrix, dim):
    """Indices of ``dim`` linearly independent rows, greedily selected."""
    chosen = []
    chosen_rows = []
    for index, row in enumerate(matrix):
        candidate = chosen_rows + [row]
        if bareiss_rank(candidate) == len(candidate):
            chosen.append(index)
            chosen_rows.append(row)
            if len(chosen) == dim:
                return chosen
    raise GeometryError(
        "cone is not pointed: constraint matrix has rank %d < dimension %d"
        % (len(chosen), dim)
    )


def _initial_simplicial_rays(matrix, chosen):
    """Rays of the simplicial cone bounded by the chosen constraints.

    Ray ``r_j`` solves ``a_i . r_j = delta_ij`` over the chosen rows, i.e.
    the rays are the columns of the inverse of the chosen submatrix.
    """
    dim = len(chosen)
    rays = []
    for j in range(dim):
        augmented = [
            list(matrix[i]) + [1 if i_pos == j else 0]
            for i_pos, i in enumerate(chosen)
        ]
        rays.append(int_row(bareiss_solve(augmented)))
    return rays


def _active_mask(matrix, processed, ray):
    """Bitmask of constraints (among ``processed`` indices) tight at
    ``ray``; bit ``i`` corresponds to ``matrix[i]``."""
    mask = 0
    for i in processed:
        if int_dot(matrix[i], ray) == 0:
            mask |= 1 << i
    return mask


def _mask_rows(matrix, mask):
    """The constraint rows whose bits are set in ``mask``."""
    rows = []
    index = 0
    while mask:
        if mask & 1:
            rows.append(matrix[index])
        mask >>= 1
        index += 1
    return rows


def _adjacent_algebraic(matrix, dim, common_mask):
    """Exact algebraic adjacency: the constraints tight at both rays must
    span a rank-``(d-2)`` subspace."""
    if _popcount(common_mask) < dim - 2:
        return False
    return bareiss_rank(_mask_rows(matrix, common_mask)) == dim - 2


def _adjacent_bitset(matrix, dim, masks, p, n):
    """Combinatorial adjacency with bitmask active sets.

    ``masks`` must cover *all* current extreme rays; the pair ``(p, n)``
    is adjacent iff no third ray's active set contains their
    intersection. Ties (more than ``d - 2`` common active constraints)
    are confirmed algebraically.
    """
    common = masks[p] & masks[n]
    n_common = _popcount(common)
    if n_common < dim - 2:
        return False
    for k, mask in enumerate(masks):
        if k == p or k == n:
            continue
        if common & mask == common:
            return False
    if n_common > dim - 2:
        # Degenerate tie (e.g. duplicated constraint rows): the bit count
        # alone cannot certify the span; fall back to the rank test.
        return bareiss_rank(_mask_rows(matrix, common)) == dim - 2
    return True


@traced("geometry.double_description")
def extreme_rays(inequalities, adjacency="bitset"):
    """Extreme rays of the pointed cone ``{x : A x >= 0}``.

    Parameters
    ----------
    inequalities:
        The rows of ``A`` (each a vector of length ``d``). Must have rank
        ``d`` (i.e. the cone must be pointed), otherwise
        :class:`GeometryError` is raised.
    adjacency:
        ``"bitset"`` (default) for the combinatorial bitmask adjacency
        test with algebraic tie-breaking, or ``"algebraic"`` for the
        rank-based reference test. Both are exact and produce the same
        ray set.

    Returns
    -------
    list of ray vectors (coprime-int tuples), one per extreme ray, in no
    particular order. The zero cone yields an empty list.
    """
    if adjacency not in _ADJACENCY_MODES:
        raise GeometryError("unknown adjacency mode %r" % (adjacency,))
    matrix = _int_matrix(inequalities)
    if not matrix:
        raise GeometryError("extreme_rays requires at least one constraint")
    dim = len(matrix[0])
    if dim == 0:
        return []
    # Drop all-zero rows (trivial constraints).
    matrix = [row for row in matrix if any(entry != 0 for entry in row)]
    matrix_rank = bareiss_rank(matrix)
    if matrix_rank < dim:
        raise GeometryError(
            "cone is not pointed: constraint matrix has rank %d < dimension %d"
            % (matrix_rank, dim)
        )

    if dim == 1:
        # One-dimensional special case: cone is {0}, a ray, or would need
        # rank 1 which is guaranteed above. Sign of constraints decides.
        has_positive = any(row[0] > 0 for row in matrix)
        has_negative = any(row[0] < 0 for row in matrix)
        if has_positive and has_negative:
            return []
        return [[1] if matrix[0][0] > 0 else [-1]] if matrix else []

    chosen = _independent_row_subset(matrix, dim)
    rays = _initial_simplicial_rays(matrix, chosen)
    processed = list(chosen)
    processed_set = set(chosen)
    # Active bitmasks relative to processed constraints.
    masks = [_active_mask(matrix, processed, ray) for ray in rays]

    for index, row in enumerate(matrix):
        if index in processed_set:
            continue
        bit = 1 << index
        values = [int_dot(row, ray) for ray in rays]
        positive = [i for i, v in enumerate(values) if v > 0]
        zero = [i for i, v in enumerate(values) if v == 0]
        negative = [i for i, v in enumerate(values) if v < 0]

        if not negative:
            # Constraint is redundant for the current cone; still record
            # activity for adjacency bookkeeping.
            processed.append(index)
            processed_set.add(index)
            masks = [
                mask | bit if values[i] == 0 else mask
                for i, mask in enumerate(masks)
            ]
            continue

        new_rays = []
        new_masks = []
        for i in positive + zero:
            new_rays.append(rays[i])
            mask = masks[i]
            if values[i] == 0:
                mask |= bit
            new_masks.append(mask)

        for p in positive:
            for n in negative:
                if adjacency == "bitset":
                    if not _adjacent_bitset(matrix, dim, masks, p, n):
                        continue
                else:
                    if not _adjacent_algebraic(matrix, dim, masks[p] & masks[n]):
                        continue
                combined = int_row(
                    [
                        values[p] * n_entry - values[n] * p_entry
                        for p_entry, n_entry in zip(rays[p], rays[n])
                    ]
                )
                new_rays.append(combined)
                new_masks.append(None)  # recomputed below

        processed.append(index)
        processed_set.add(index)
        rays = []
        masks = []
        seen = set()
        for ray, mask in zip(new_rays, new_masks):
            if ray in seen:
                continue
            seen.add(ray)
            rays.append(ray)
            if mask is None:
                mask = _active_mask(matrix, processed, ray)
            masks.append(mask)

    return [list(ray) for ray in rays]


def cone_contains_point_by_rays(rays, point):
    """Exact membership test of ``point`` in ``cone(rays)`` by the
    rational simplex on the membership LP
    (:func:`repro.lp.membership.membership_lp`).

    Only used in tests and on small instances; the production membership
    test is :func:`repro.lp.membership.certified_membership`.
    """
    from repro.lp import Status, solve as lp_solve
    from repro.lp.membership import membership_lp

    if not rays:
        return all(value == 0 for value in point)
    built = membership_lp(rays, point)
    return built is not None and lp_solve(built[0]).status == Status.OPTIMAL


__all__ = ["extreme_rays", "cone_contains_point_by_rays"]
