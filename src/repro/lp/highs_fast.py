"""Persistent HiGHS models (the float LP fast path).

CounterPoint's hot loops solve the *same* constraint matrix over and
over with only the right-hand side (and occasionally a column bound)
changing: point feasibility per observation, membership per generator
during interior removal. That is what the HiGHS incremental API is for:
build the model once, mutate bounds, re-run from the warm basis, with
none of ``scipy.optimize.linprog``'s per-call set-up. A region's support
LPs (:class:`SupportModel`) share their rows too and change only the
objective; they re-run cold, so each answer is the one ``linprog``
gives.

A point-membership matrix (the reduced Appendix A system ``S^T f = v``)
has one row per counter and one column per µpath signature: a Table 5
cone has 26 rows and 1,800–6,612 columns. A HiGHS run costs time per
column even when it makes no pivot (0.83 ms at 3,357 columns against
0.05 ms at 100 on a 2-vCPU host), while a basis needs at most one
column per row. So :class:`FeasibilityModel` loads a wide matrix a
subset ``J`` of its columns at a time (delayed column generation:
Gilmore and Gomory, *Oper. Res.* 1961):

* ``J`` starts at one column per row.
* If the restricted model is feasible, so is the full one: its flow,
  padded with zeros, is a flow of the whole matrix.
* If it is infeasible, HiGHS's dual ray ``y``, signed so that
  ``y . b > 0``, prices every column in one numpy product. A column
  outside ``J`` with ``y . A_j > 0`` breaks the ray; up to one per row,
  the highest priced, join ``J`` and HiGHS re-runs from its warm basis.
  A ray that no column breaks is a Farkas certificate for the whole
  matrix, and :meth:`~FeasibilityModel.dual_ray` returns it.
* Without a usable ray, or on any status but these two, every column
  still outside ``J`` is loaded and the full model answers. So the
  model never answers "infeasible" from a subset without a ray that
  holds for every column.

``J`` persists on the model: a sweep's points share most of their basis
columns, so each point starts from the columns earlier points needed.
Over Table 5's 432 points HiGHS runs 473 times; 9 of the 18 cones never
leave their starting 20 columns, and the others end at 72–165. An
excluded column is never priced in, so interior removal's pinning
holds. A matrix with at most :data:`NARROW_COLUMNS_PER_ROW` columns per
row (the cone of every bundled DSL model) is loaded whole, and each
solve is one run.

This module talks to the HiGHS bindings that ship *inside* scipy
(``scipy.optimize._highspy``) — a private interface, so everything here
degrades gracefully: :func:`make_feasibility_model` returns ``None``
when the bindings are missing or their surface changed, and callers fall
back to ``linprog``. Verdict semantics are identical to the ``"scipy"``
LP backend (floating point; exactness is the caller's concern — the
``"exact"`` backend proves each answer in integer arithmetic, see
:mod:`repro.lp.membership`).

A HiGHS handle is not thread-safe: two threads re-solving one model at
once crash the process. Each :class:`FeasibilityModel` therefore carries
a re-entrant :attr:`~FeasibilityModel.lock`; :meth:`~FeasibilityModel.solve`
holds it while it rebinds, runs, prices and reads the solution, and
callers that need several calls to act as one (pin a column, solve,
unpin) hold it across them.
"""

import threading

import numpy as np

from repro.errors import LPError

try:  # scipy-private HiGHS bindings; absence just disables the fast path
    import scipy.optimize._highspy._core as _core

    _HIGHS_OK = hasattr(_core, "_Highs") and hasattr(_core, "HighsLp")
except ImportError:  # pragma: no cover - depends on scipy build
    _core = None
    _HIGHS_OK = False

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ERROR = "error"


def highs_available():
    """Whether the persistent-model fast path can be used."""
    return _HIGHS_OK


def _compressed_columns(matrix):
    """``(starts, rows, values)``: the non-zero entries of the 2-D float
    ``matrix`` column by column, row indices ascending within a column —
    the ``indptr``, ``indices`` and ``data`` of
    ``scipy.sparse.csc_matrix(matrix)``, without building one, which
    costs more than the rest of a small model's load."""
    columns, rows = np.nonzero(matrix.T)
    starts = np.zeros(matrix.shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(columns, minlength=matrix.shape[1]), out=starts[1:])
    return starts, rows, matrix[rows, columns]


def _load(matrix, row_lower, row_upper, options=()):
    """A HiGHS handle, output off and ``options`` set, holding
    ``row_lower <= matrix x <= row_upper`` with ``x >= 0`` and zero
    costs."""
    solver = _core._Highs()
    for option, value in (("output_flag", False),) + tuple(options):
        solver.setOptionValue(option, value)
    lp = _core.HighsLp()
    lp.num_row_, lp.num_col_ = matrix.shape
    lp.col_cost_ = np.zeros(lp.num_col_)
    lp.col_lower_ = np.zeros(lp.num_col_)
    lp.col_upper_ = np.full(lp.num_col_, solver.getInfinity())
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    starts, rows, values = _compressed_columns(matrix)
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = starts
    lp.a_matrix_.index_ = rows.astype(np.int64)
    lp.a_matrix_.value_ = values.astype(float)
    if solver.passModel(lp) == _core.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the model")
    return solver


#: A matrix with at most this many columns per row loads every column:
#: a restricted model starts at about one column per row and grows by
#: up to one per row a round, so a narrower matrix has nothing to gain.
NARROW_COLUMNS_PER_ROW = 4

#: A column breaks a ray normalised to largest entry 1 when its price
#: (``y . A_j`` over the column's 1-norm) is above this.
PRICE_TOLERANCE = 1e-9


class FeasibilityModel:
    """A persistent HiGHS model for ``A x = b, x >= 0`` feasibility.

    ``A`` (dense ``N x P`` float array) is given once; each
    :meth:`solve` call rebinds the row bounds to a new ``b`` and re-runs
    from the previous basis. A narrow ``A`` (at most
    :data:`NARROW_COLUMNS_PER_ROW` columns per row) is loaded whole. A
    wider one is loaded a subset of columns at a time, priced against
    HiGHS's dual ray (see the module docstring); loaded columns stay
    loaded for every later solve. Columns can be excluded (pinned to
    zero) and re-included, which the generator interior-removal loop
    uses to test membership in the cone of "all kept generators but
    this one" without ever rebuilding the matrix; an excluded column is
    never priced in.

    Use :func:`make_feasibility_model`, which returns ``None`` when the
    HiGHS bindings are unavailable.

    :attr:`lock` serialises every use of the underlying handle; hold it
    across a sequence of calls that must not interleave with another
    thread's (it is re-entrant, so the calls themselves may take it).
    :attr:`runs` is how many times HiGHS ran in the last :meth:`solve`,
    and :attr:`width` how many columns the model holds.
    """

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        n_rows, n_cols = matrix.shape
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.lock = threading.RLock()
        self.runs = 0
        weight = np.abs(matrix).sum(axis=0)
        weight[weight == 0] = 1.0
        self._matrix = matrix
        self._weight = weight
        if n_cols <= NARROW_COLUMNS_PER_ROW * n_rows:
            start = np.arange(n_cols)
        else:
            # Start from one column per row: the one that puts the
            # largest share of its weight on that row.
            start = np.unique(np.argmax(matrix / weight, axis=1))
        self._columns = start
        self._position = np.full(n_cols, -1)
        self._position[start] = np.arange(len(start))
        # Columns not loaded and not excluded: the ones pricing sees.
        self._open = np.ones(n_cols, dtype=bool)
        self._open[start] = False
        zeros = np.zeros(n_rows)
        self._solver = _load(matrix[:, start], zeros, zeros)
        self._infinity = self._solver.getInfinity()

    @property
    def width(self):
        """How many of the matrix's columns the HiGHS model holds."""
        return len(self._columns)

    def _column(self, index):
        """The HiGHS column of matrix column ``index``, or ``None``
        when it is not loaded."""
        position = self._position[index]
        return None if position < 0 else int(position)

    def exclude_column(self, index):
        """Pin variable ``index`` to zero (remove its generator)."""
        with self.lock:
            self._open[index] = False
            column = self._column(index)
            if column is not None:
                self._solver.changeColBounds(column, 0.0, 0.0)

    def include_column(self, index):
        """Restore variable ``index`` to ``[0, inf)``."""
        with self.lock:
            column = self._column(index)
            if column is None:
                self._open[index] = True
            else:
                self._solver.changeColBounds(column, 0.0, self._infinity)

    def solve(self, rhs, solution=True):
        """Feasibility of ``A x = rhs`` under the current column bounds.

        Returns ``(status, values)``: ``status`` is one of
        :data:`OPTIMAL`, :data:`INFEASIBLE`, :data:`UNBOUNDED`,
        :data:`ERROR`, and ``values`` the primal solution (one value per
        matrix column, zero on columns not loaded) when :data:`OPTIMAL`
        and ``solution`` is true, else ``None``. Both are read under
        :attr:`lock`, so the solution is the one this call produced.
        Membership tests that need only the status pass
        ``solution=False`` and skip copying one value per column. An
        ``rhs`` whose length is not the row count raises
        :class:`~repro.errors.LPError`.
        """
        if len(rhs) != self.n_rows:
            raise LPError(
                "right-hand side of length %d for %d rows" % (len(rhs), self.n_rows)
            )
        with self.lock:
            solver = self._solver
            for row, value in enumerate(rhs):
                solver.changeRowBounds(row, float(value), float(value))
            self.runs = 0
            status = self._price(rhs, self._run())
            if status != OPTIMAL or not solution:
                return status, None
            flows = np.zeros(self.n_cols)
            flows[self._columns] = solver.getSolution().col_value
            return status, flows.tolist()

    def _run(self):
        """Run HiGHS from the current basis; the model status."""
        self._solver.run()
        self.runs += 1
        status = self._solver.getModelStatus()
        if status == _core.HighsModelStatus.kOptimal:
            return OPTIMAL
        if status in (
            _core.HighsModelStatus.kInfeasible,
            _core.HighsModelStatus.kUnboundedOrInfeasible,
        ):
            return INFEASIBLE
        if status == _core.HighsModelStatus.kUnbounded:
            return UNBOUNDED
        return ERROR

    def _price(self, rhs, status):
        """Grow the loaded columns until the restricted model's answer
        holds for the whole matrix, and return that answer.

        A feasible restricted model is a feasible full one. An
        infeasible one has a dual ray ``y`` with ``y . rhs > 0``; every
        open column with a positive price breaks it, and up to one per
        row, the highest priced, are loaded before the next run. A ray
        that no open column breaks is a Farkas certificate for the whole
        matrix. Without a usable ray, or on any other status, every open
        column is loaded and the full model answers.
        """
        if status == OPTIMAL or not self._open.any():
            return status
        rhs = np.array([float(value) for value in rhs])
        while status != OPTIMAL and self._open.any():
            columns = None
            ray = self.dual_ray() if status == INFEASIBLE else None
            if ray is not None:
                ray = np.array(ray)
                ray /= np.abs(ray).max() or 1.0
                if ray @ rhs < 0:
                    ray = -ray
                if ray @ rhs > PRICE_TOLERANCE:
                    price = (ray @ self._matrix) / self._weight
                    columns = np.flatnonzero(self._open & (price > PRICE_TOLERANCE))
                    if not len(columns):
                        return status
                    if len(columns) > self.n_rows:
                        top = np.argpartition(-price[columns], self.n_rows)
                        columns = np.sort(columns[top[:self.n_rows]])
            if columns is None:
                columns = np.flatnonzero(self._open)
            if not self._add(columns):
                return ERROR
            status = self._run()
        return status

    def _add(self, columns):
        """Load matrix ``columns`` into the HiGHS model, at ``[0, inf)``;
        false when HiGHS rejects them."""
        starts, rows, values = _compressed_columns(self._matrix[:, columns])
        count = len(columns)
        status = self._solver.addCols(
            count, np.zeros(count), np.zeros(count), np.full(count, self._infinity),
            len(values), starts[:-1].astype(np.int32),
            rows.astype(np.int32), values.astype(float),
        )
        if status == _core.HighsStatus.kError:
            return False
        width = len(self._columns)
        self._position[columns] = np.arange(width, width + count)
        self._columns = np.concatenate([self._columns, columns])
        self._open[columns] = False
        return True

    def dual_ray(self):
        """HiGHS's Farkas ray (one value per row) after an
        :data:`INFEASIBLE` :meth:`solve`, or ``None`` when HiGHS has
        none or the binding's ``getDualRay`` has an unexpected shape.
        On a column subset it is the ray that no column of the matrix
        breaks.

        Hold :attr:`lock` across the solve and this call when the model
        is shared.
        """
        with self.lock:
            try:
                status, has_ray, ray = self._solver.getDualRay()
            except (TypeError, ValueError):
                return None
        if status == _core.HighsStatus.kError or not has_ray:
            return None
        ray = list(ray)
        return ray if len(ray) == self.n_rows else None


def make_feasibility_model(matrix):
    """A :class:`FeasibilityModel` for ``matrix``, or ``None`` when the
    scipy-private HiGHS bindings are unavailable (callers fall back to
    ``scipy.optimize.linprog``)."""
    if not _HIGHS_OK:
        return None
    try:
        return FeasibilityModel(matrix)
    except Exception:  # pragma: no cover - binding-surface drift
        return None


#: ``scipy.optimize.linprog`` status codes in this module's vocabulary;
#: any other code (iteration limit, numerical trouble) is :data:`ERROR`.
_LINPROG_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def linprog_feasibility(matrix, rhs):
    """Feasibility of ``matrix x = rhs, x >= 0`` in one
    ``scipy.optimize.linprog`` call: the fallback when
    :func:`make_feasibility_model` returns ``None``.

    Returns ``(status, values)`` as :meth:`FeasibilityModel.solve` does:
    ``values`` is the primal solution (one value per column) when
    :data:`OPTIMAL`, else ``None``.
    """
    from scipy.optimize import linprog

    result = linprog(
        np.zeros(matrix.shape[1]),
        A_eq=matrix,
        b_eq=np.asarray([float(value) for value in rhs]),
        bounds=(0, None),
        method="highs",
    )
    status = _LINPROG_STATUS.get(result.status, ERROR)
    return status, list(result.x) if status == OPTIMAL else None


#: ``linprog``'s residual tolerance: ``sqrt(tol) * 10`` for its ``tol`` of 1e-9.
RESIDUAL_TOLERANCE = np.sqrt(1e-9) * 10


class SupportModel:
    """Optimise ``c . v`` over a region box, ``lower <= e . v <= upper``
    per box ``(e, lower, upper)``, with ``v >= 0``: the rows and options
    (presolve on, dual simplex) :func:`repro.lp.scipy_backend.solve_scipy`
    gives ``linprog``. :meth:`solve` changes only the costs and clears the
    solver first, so each solve starts cold, as ``linprog`` does, and
    returns its answer bit for bit; a warm start moves optima within
    HiGHS's tolerance. One caller, one thread: see :func:`make_support_model`.
    """

    def __init__(self, boxes, n_cols):
        rows, rhs = [], []
        for direction, lower, upper in boxes:
            row = [float(value) for value in direction]
            if any(row):
                # ``+ 0.0`` turns -0.0 into 0.0, as Fraction(-0.0) does.
                rows += [[-value for value in row], row]
                rhs += [-(float(lower) + 0.0), float(upper) + 0.0]
        matrix = np.array(rows, dtype=float).reshape(len(rows), n_cols)
        self._rhs = np.array(rhs)
        if not (np.isfinite(matrix).all() and np.isfinite(self._rhs).all()):
            raise ValueError("region box is not finite")
        self.n_rows = len(rows)
        self.n_cols = n_cols
        self._columns = np.arange(n_cols, dtype=np.int32)
        self._solver = _load(
            matrix, np.full(self.n_rows, -np.inf), self._rhs.copy(),
            options=(("presolve", "on"), ("simplex_strategy", 1)),
        )

    def solve(self, normal, maximize):
        """``(status, value)`` for max (``maximize``) or min of ``normal . v``:
        the optimum when :data:`OPTIMAL`, else ``None``. :data:`ERROR` is any
        other status, or a solution ``linprog`` would reject (a NaN, or a
        residual beyond :data:`RESIDUAL_TOLERANCE`)."""
        sign = -1.0 if maximize else 1.0
        cost = np.zeros(self.n_cols)
        for index, value in enumerate(normal):
            if value:
                cost[index] = sign * float(value)
        solver = self._solver
        solver.changeColsCost(self.n_cols, self._columns, cost)
        solver.clearSolver()
        solver.run()
        status = solver.getModelStatus()
        if status == _core.HighsModelStatus.kInfeasible:
            return INFEASIBLE, None
        if status == _core.HighsModelStatus.kUnbounded:
            return UNBOUNDED, None
        if status != _core.HighsModelStatus.kOptimal:
            return ERROR, None
        solution = solver.getSolution()
        value = solver.getInfo().objective_function_value
        x = np.array(solution.col_value)
        slack = self._rhs - np.array(solution.row_value)
        if np.isnan(value) or np.isnan(x).any() or np.isnan(slack).any() \
                or (x < -RESIDUAL_TOLERANCE).any() or (slack < -RESIDUAL_TOLERANCE).any():
            return ERROR, None
        return OPTIMAL, sign * value


def make_support_model(boxes, n_cols):
    """A :class:`SupportModel` over ``boxes`` (``(direction, lower,
    upper)`` triples, each direction ``n_cols`` long), or ``None`` when
    the HiGHS bindings are unavailable or a box value is not finite."""
    if not _HIGHS_OK:
        return None
    try:
        return SupportModel(boxes, n_cols)
    except Exception:  # a non-finite box, or binding-surface drift
        return None


__all__ = [
    "ERROR",
    "FeasibilityModel",
    "INFEASIBLE",
    "OPTIMAL",
    "SupportModel",
    "UNBOUNDED",
    "highs_available",
    "linprog_feasibility",
    "make_feasibility_model",
    "make_support_model",
]
