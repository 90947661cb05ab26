"""Feasibility testing of observations against a model cone.

Implements the linear program of Appendix A. The LP instantiates:

* a non-negative flow variable per µpath signature,
* a non-negative counter variable per HEC, related to flows by the
  Counter Flow Equation (equality rows), and
* for noisy observations, the counter confidence region encoded as its
  PCA-aligned bounding box: ``|e_i . (v - mean)| <= sqrt(lambda_i *
  chi2)`` for each principal direction ``e_i``.

A point observation is the degenerate case where the box has zero
half-lengths in every direction — and degenerates further: the counter
variables are pinned to the observed values, so
:func:`test_point_feasibility` eliminates them and asks whether ``v``
lies in the cone of the signatures (``S^T f = v, f >= 0``) directly:

* on the default ``"exact"`` backend through
  :func:`repro.lp.membership.certified_membership`: HiGHS finds the
  answer, integer arithmetic proves it (an exact non-negative flow, or
  a Farkas ray), and the rational simplex re-solves anything that fails
  its check — so "infeasible" verdicts are exact consequences of the
  inputs;
* on the ``"scipy"`` backend on the persistent HiGHS model cached on
  the model cone (or one ``scipy.optimize.linprog`` call), with float
  verdicts.

:func:`test_points_feasibility` is the batched entry point: every
observation runs the same flow LP, on one HiGHS model built for the call
(``"exact"``) or on the cone's cached model (``"scipy"``). A verdict
depends only on the cone and the observation, never on what earlier
calls computed for the cone (deduced constraints included); refutation
evidence is the caller's to ask for
(:func:`repro.cone.certificates.separating_constraint`).

Region observations (:func:`test_region_feasibility`) solve the full
Appendix A LP on the chosen backend; their witnesses are LP output.
"""

from fractions import Fraction

from repro.errors import AnalysisError, LPError
from repro.lp import EQ, GE, LE, LinearProgram, Status, solve
from repro.linalg import as_fraction_vector
from repro.obs.trace import get_tracer


class FeasibilityResult:
    """Outcome of a feasibility test.

    Attributes
    ----------
    feasible:
        Whether the observation/region intersects the model cone.
    flows:
        When feasible, one witness assignment of µop flow per µpath
        signature (list aligned with the model cone's signatures).
    witness:
        When feasible, the counter vector inside both the region and the
        cone.
    """

    __slots__ = ("feasible", "flows", "witness")

    def __init__(self, feasible, flows=None, witness=None):
        self.feasible = feasible
        self.flows = flows
        self.witness = witness

    def __bool__(self):
        return self.feasible

    def __repr__(self):
        return "FeasibilityResult(feasible=%r)" % (self.feasible,)


def _flow_lp(model_cone):
    """LP skeleton with flow variables and counter variables linked by
    the Counter Flow Equation."""
    lp = LinearProgram()
    flow_names = []
    for index in range(len(model_cone.signatures)):
        name = "flow_%d" % index
        lp.add_variable(name)
        flow_names.append(name)
    counter_names = []
    for index in range(len(model_cone.counters)):
        name = "v_%d" % index
        lp.add_variable(name)  # counters are non-negative (Appendix A)
        counter_names.append(name)
    for coord, v_name in enumerate(counter_names):
        coefficients = {v_name: Fraction(-1)}
        for index, signature in enumerate(model_cone.signatures):
            if signature[coord] != 0:
                coefficients[flow_names[index]] = Fraction(signature[coord])
        lp.add_constraint(coefficients, EQ, 0, name="flow_eq_%d" % coord)
    return lp, flow_names, counter_names


def _point_feasibility_scipy(model_cone, vector):
    """Reduced flow system on HiGHS against the cached signature matrix.

    Prefers the persistent per-cone model (build once, rebind the
    right-hand side per observation — :mod:`repro.lp.highs_fast`);
    degrades to one ``scipy.optimize.linprog`` call when the bindings
    are unavailable.
    """
    from repro.lp import highs_fast

    tracer = get_tracer()
    model = model_cone.flow_model()
    rhs = [float(value) for value in vector]
    if model is not None:
        with tracer.span("lp.solve", backend="highs_fast") as span:
            with model.lock:
                status, flows = model.solve(rhs)
                span.set(runs=model.runs, columns=model.width)
    else:
        with tracer.span("lp.solve", backend="scipy") as span:
            status, flows = highs_fast.linprog_feasibility(
                model_cone.signature_array(), rhs
            )
    if tracer.enabled:
        tracer.metrics.histogram("lp.solve_seconds").observe(span.duration)
    if status == highs_fast.OPTIMAL:
        return FeasibilityResult(True, flows=flows, witness=list(vector))
    if status in (highs_fast.INFEASIBLE, highs_fast.UNBOUNDED):
        return FeasibilityResult(False)
    raise AnalysisError("HiGHS feasibility solve failed")


def test_point_feasibility(model_cone, observation, backend="exact"):
    """Is a noise-free observation inside the model cone?

    ``observation`` is a counter-name mapping or an ordered sequence.
    The counter variables of the Appendix A LP are pinned by the
    observation, so the reduced system ``S^T f = v, f >= 0`` is solved
    instead (identical verdicts, much smaller program). On ``"exact"``
    the verdict is certified (:mod:`repro.lp.membership`) and feasible
    ``flows`` are exact, with ``S^T f = v`` and ``f >= 0``.
    """
    vector = model_cone.vector_from_observation(observation)
    return _point_result(model_cone, vector, backend)


def _point_result(model_cone, vector, backend, batch=None):
    """Point feasibility of an aligned vector. ``batch`` is the call's
    :class:`~repro.lp.membership.MembershipBatch` on ``"exact"`` (one is
    made for this vector when absent)."""
    if any(value < 0 for value in vector):
        # Counters are non-negative (Appendix A); no flow can explain a
        # negative observation.
        return FeasibilityResult(False)
    if not model_cone.signatures:
        feasible = all(value == 0 for value in vector)
        return FeasibilityResult(
            feasible, flows=[] if feasible else None,
            witness=list(vector) if feasible else None,
        )
    if backend == "scipy":
        return _point_feasibility_scipy(model_cone, vector)
    if backend != "exact":
        raise LPError("unknown LP backend %r" % (backend,))
    if batch is None:
        from repro.lp.membership import MembershipBatch

        batch = MembershipBatch(model_cone.signatures)
    feasible, flows = batch.test(vector)
    if not feasible:
        return FeasibilityResult(False)
    return FeasibilityResult(True, flows=flows, witness=list(vector))


def region_boxes(region, n):
    """A region's ``(direction, lower, upper)`` boxes, checked: at least
    one, and every direction ``n`` long (one component per counter)."""
    boxes = list(region.box_constraints())
    if not boxes:
        raise AnalysisError("region provided no box constraints")
    for direction, _, _ in boxes:
        if len(direction) != n:
            raise AnalysisError(
                "region direction has %d components for %d counters" % (len(direction), n)
            )
    return boxes


def test_region_feasibility(model_cone, region, backend="exact"):
    """Does a counter confidence region intersect the model cone?

    ``region`` must provide ``box_constraints()`` yielding
    ``(direction, lower, upper)`` triples: for each principal direction
    ``e`` of the confidence ellipsoid, ``lower <= e . v <= upper`` (see
    :class:`repro.stats.ConfidenceRegion`). The region's dimension must
    match the model cone's counter count.
    """
    n = len(model_cone.counters)
    boxes = region_boxes(region, n)
    with get_tracer().span("cell.verdict", mode="region") as span:
        lp, flow_names, counter_names = _flow_lp(model_cone)
        for direction, lower, upper in boxes:
            direction = as_fraction_vector(direction)
            coefficients = {
                counter_names[coord]: direction[coord]
                for coord in range(n)
                if direction[coord] != 0
            }
            if not coefficients:
                continue
            lp.add_constraint(coefficients, GE, Fraction(lower))
            lp.add_constraint(coefficients, LE, Fraction(upper))
        result = solve(lp, backend=backend)
        if result.status != Status.OPTIMAL:
            span.set(feasible=False)
            return FeasibilityResult(False)
        flows = [result.assignment[name] for name in flow_names]
        witness = [result.assignment[name] for name in counter_names]
        span.set(feasible=True)
        return FeasibilityResult(True, flows=flows, witness=witness)


def test_points_feasibility(model_cone, observations, backend="exact"):
    """Batched point feasibility: one flow LP per observation.

    Parameters
    ----------
    model_cone:
        The :class:`~repro.cone.model_cone.ModelCone` under test.
    observations:
        Iterable of counter-name mappings or ordered sequences.
    backend:
        ``"exact"`` (certified; one
        :class:`~repro.lp.membership.MembershipBatch` serves the call)
        or ``"scipy"`` (the cone's cached HiGHS model).

    Returns
    -------
    list of :class:`FeasibilityResult`, one per observation, in order,
    each the one :func:`test_point_feasibility` returns for it.
    """
    vectors = [model_cone.vector_from_observation(o) for o in observations]
    batch = None
    if backend == "exact":
        from repro.lp.membership import MembershipBatch

        # One HiGHS model for the call, built at the first cell that
        # reaches an LP; never cached on the cone (see repro.lp.membership).
        batch = MembershipBatch(model_cone.signatures)
    tracer = get_tracer()
    results = []
    for vector in vectors:
        with tracer.span("cell.verdict", mode="point") as span:
            result = _point_result(model_cone, vector, backend, batch)
            span.set(feasible=result.feasible)
            results.append(result)
    return results
