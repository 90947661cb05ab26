"""Persistent HiGHS models (the float LP fast path).

``scipy.optimize.linprog`` pays ~1.5 ms of Python wrapper overhead per
call — an order of magnitude more than HiGHS spends actually solving
the small feasibility programs CounterPoint issues in its hot loops
(point feasibility per observation, membership per generator during
interior removal). Those loops solve the *same* constraint matrix over
and over with only the right-hand side (and occasionally a column
bound) changing, which is exactly what the underlying HiGHS incremental
API is for: build the model once, mutate bounds, re-run from the warm
basis. A region's support LPs (:class:`SupportModel`) share their rows
too and change only the objective; they re-run cold, so each answer is
the one ``linprog`` gives.

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
holds it while it rebinds, runs and reads the solution, and callers that
need several calls to act as one (pin a column, solve, unpin) hold it
across them.
"""

import threading

import numpy as np

try:  # scipy-private HiGHS bindings; absence just disables the fast path
    import scipy.optimize._highspy._core as _core
    from scipy.sparse import csc_matrix as _csc_matrix

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
    sparse = _csc_matrix(matrix)
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = sparse.indptr.astype(np.int64)
    lp.a_matrix_.index_ = sparse.indices.astype(np.int64)
    lp.a_matrix_.value_ = sparse.data.astype(float)
    if solver.passModel(lp) == _core.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the model")
    return solver


class FeasibilityModel:
    """A persistent HiGHS model for ``A x = b, x >= 0`` feasibility.

    ``A`` (dense ``N x P`` float array) is loaded once; each
    :meth:`solve` call rebinds the row bounds to a new ``b`` and re-runs
    from the previous basis. Columns can be excluded (pinned to zero)
    and re-included, which the generator interior-removal loop uses to
    test membership in the cone of "all kept generators but this one"
    without ever rebuilding the matrix.

    Use :func:`make_feasibility_model`, which returns ``None`` when the
    HiGHS bindings are unavailable.

    :attr:`lock` serialises every use of the underlying handle; hold it
    across a sequence of calls that must not interleave with another
    thread's (it is re-entrant, so the calls themselves may take it).
    """

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        n_rows, n_cols = matrix.shape
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.lock = threading.RLock()
        self._solver = _load(matrix, np.zeros(n_rows), np.zeros(n_rows))
        self._infinity = self._solver.getInfinity()

    def exclude_column(self, index):
        """Pin variable ``index`` to zero (remove its generator)."""
        with self.lock:
            self._solver.changeColBounds(index, 0.0, 0.0)

    def include_column(self, index):
        """Restore variable ``index`` to ``[0, inf)``."""
        with self.lock:
            self._solver.changeColBounds(index, 0.0, self._infinity)

    def solve(self, rhs, solution=True):
        """Feasibility of ``A x = rhs`` under the current column bounds.

        Returns ``(status, values)``: ``status`` is one of
        :data:`OPTIMAL`, :data:`INFEASIBLE`, :data:`UNBOUNDED`,
        :data:`ERROR`, and ``values`` the primal solution when
        :data:`OPTIMAL` and ``solution`` is true, else ``None``. Both are
        read under :attr:`lock`, so the solution is the one this call
        produced. Membership tests that need only the status pass
        ``solution=False`` and skip copying one value per column.
        """
        with self.lock:
            solver = self._solver
            for row, value in enumerate(rhs):
                solver.changeRowBounds(row, float(value), float(value))
            solver.run()
            status = solver.getModelStatus()
            if status == _core.HighsModelStatus.kOptimal:
                if not solution:
                    return OPTIMAL, None
                return OPTIMAL, list(solver.getSolution().col_value)
        if status in (
            _core.HighsModelStatus.kInfeasible,
            _core.HighsModelStatus.kUnboundedOrInfeasible,
        ):
            return INFEASIBLE, None
        if status == _core.HighsModelStatus.kUnbounded:
            return UNBOUNDED, None
        return ERROR, None

    def dual_ray(self):
        """HiGHS's Farkas ray (one value per row) after an
        :data:`INFEASIBLE` :meth:`solve`, or ``None`` when HiGHS has
        none or the binding's ``getDualRay`` has an unexpected shape.

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
    "make_feasibility_model",
    "make_support_model",
]
