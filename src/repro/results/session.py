"""Incremental analysis sessions with content-addressed verdict memoization.

Every pipeline workload — ``sweep``, ``compare``, ``cross_refute`` —
is a matrix of independent feasibility cells, and production use
re-analyzes the same growing matrix after each addition: append one
observation to a 1000-cell sweep, or one candidate model to a
cross-refutation matrix, and a recompute-everything pipeline pays the
full matrix again. :class:`AnalysisSession` memoizes each cell verdict
under a content-addressed key::

    (cone fingerprint, observation content hash, backend, mode)

in memory, and — when given a store — through a persistent
:class:`~repro.results.store.ArtifactStore` tier, so only genuinely new
cells are ever tested. The keys are pure content hashes (no model or
run names), so renamed models and re-measured-but-identical data still
hit.

The session holds the two memoized units the plan engine
(:mod:`repro.plan.engine`) schedules: :meth:`AnalysisSession.sweep`
(one model over a dataset, cell by cell) and
:meth:`AnalysisSession.analyze` (one whole report). Every matrix-shaped
workload — ``compare``, ``cross_refute``, whole plans — is assembled
from them by the engine. :class:`~repro.pipeline.CounterPoint` owns a
session per instance; sessions can also be built standalone around any
pipeline. A session computes pending cells in-process unless its
caller hands it a ``compute`` hook: the engine passes its scheduler's,
which is how ``workers > 1`` shards only the *pending* cells across the
process pool.
"""

from repro.cone import (
    identify_violations,
    separating_constraint,
    test_points_feasibility,
    test_region_feasibility,
)
from repro.cone.violations import Violation
from repro.errors import ReproError
from repro.geometry.halfspace import EQUALITY
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer
from repro.results.fingerprint import observation_fingerprint
from repro.results.store import ArtifactStore, content_key
from repro.results.types import AnalysisReport, CellVerdict, sweep_from_verdicts


def _registry_counter(name):
    """An attribute-style view over a registry counter, so the historic
    ``stats.tests += 1`` arithmetic keeps working on the facade."""

    def read(self):
        return self.registry.counter(name).value

    def write(self, value):
        self.registry.counter(name).value = value

    return property(read, write)


class SessionStats:
    """Counters proving (or disproving) incrementality.

    ``tests`` counts feasibility cells actually computed — the number
    the incrementality contract is stated in: appending one observation
    to a warmed sweep must raise it by exactly one, and a session warmed
    from disk must not raise it at all.

    Since the :mod:`repro.obs` rework this is a facade over a
    :class:`~repro.obs.metrics.MetricsRegistry` — the four counters are
    registry counters (``session.tests`` etc.), so trace summaries and
    session statistics reconcile by construction — but the attribute
    API and ``as_dict`` layout are unchanged.
    """

    __slots__ = ("registry",)

    tests = _registry_counter("session.tests")
    memo_hits = _registry_counter("session.memo_hits")
    store_hits = _registry_counter("session.store_hits")
    reports = _registry_counter("session.reports")

    def __init__(self, registry=None):
        self.registry = registry if registry is not None else MetricsRegistry()

    def as_dict(self):
        return {
            "tests": self.tests,
            "memo_hits": self.memo_hits,
            "store_hits": self.store_hits,
            "reports": self.reports,
        }

    def __repr__(self):
        return ("SessionStats(tests=%d, memo_hits=%d, store_hits=%d, "
                "reports=%d)") % (
            self.tests, self.memo_hits, self.store_hits, self.reports,
        )


def _certificate_violation(cone, point, result, backend, explain, definite):
    """Refutation evidence for an infeasible cell.

    The batched facet screen's certificate is free when present; with
    ``explain`` a missing certificate is filled in by the Farkas route
    (:func:`repro.cone.certificates.separating_constraint`) at
    feasibility-test cost — never by the exponential full deduction.
    """
    constraint = result.certificate
    if constraint is None and explain:
        try:
            constraint = separating_constraint(cone, point, backend=backend)
        except ReproError:
            constraint = None
    if constraint is None:
        return None
    margin = constraint.evaluate(cone.vector_from_observation(point))
    if constraint.kind == EQUALITY:
        margin = -abs(margin)
    return Violation(constraint, margin, definite=definite)


def compute_cell_verdicts(cone, targets, backend="exact", use_regions=False,
                          explain=False):
    """Compute the verdicts of a batch of cells (no memo involved).

    This is the one function both the serial path and the pool workers
    run, which is what makes ``workers=N`` results bit-for-bit equal to
    serial ones. Point batches keep the exact facet screen's batching;
    region cells run the Appendix A region LP. ``explain`` guarantees a
    violated-constraint record for every infeasible cell.
    """
    verdicts = []
    if use_regions:
        for target in targets:
            result = test_region_feasibility(cone, target, backend=backend)
            if result.feasible:
                verdicts.append(CellVerdict(True))
            else:
                # The region's centre is itself infeasible (it lies in
                # the region), so a point certificate at the centre is
                # valid evidence — flagged at-mean, not definite.
                violation = _certificate_violation(
                    cone, target.center(), result, backend, explain,
                    definite=False,
                )
                verdicts.append(CellVerdict(False, violation))
    else:
        results = test_points_feasibility(cone, targets, backend=backend)
        for target, result in zip(targets, results):
            if result.feasible:
                verdicts.append(CellVerdict(True))
            else:
                violation = _certificate_violation(
                    cone, target, result, backend, explain, definite=True,
                )
                verdicts.append(CellVerdict(False, violation))
    return verdicts


class AnalysisSession:
    """Incremental, memoizing front-end over a CounterPoint pipeline.

    Parameters
    ----------
    pipeline:
        The :class:`~repro.pipeline.CounterPoint` to compute through.
        ``None`` builds one from the remaining keyword options.
    store:
        Persistent verdict tier: an
        :class:`~repro.results.store.ArtifactStore`, a directory path to
        build one over, or ``None`` (memory-only memoization). A warmed
        store makes re-analysis of unchanged cells free *across
        processes and runs*.
    pipeline_options:
        Passed to :class:`~repro.pipeline.CounterPoint` when
        ``pipeline`` is ``None`` (``backend=``, ``confidence=``, ...).
    """

    def __init__(self, pipeline=None, store=None, **pipeline_options):
        if pipeline is None:
            from repro.pipeline import CounterPoint

            pipeline = CounterPoint(**pipeline_options)
        elif pipeline_options:
            raise ReproError(
                "pass pipeline options or a ready pipeline, not both: %s"
                % ", ".join(sorted(pipeline_options))
            )
        self.pipeline = pipeline
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        self._memo = {}
        self.stats = SessionStats()
        # Optional in-flight dedup (repro.results.store.ClaimTable):
        # when set, sweep() claims each pending cell before computing
        # it, so concurrent jobs sharing this session (or its store)
        # never compute the same cell twice. None — the default — is
        # exactly the historic single-owner behaviour.
        self.claims = None

    # -- memo plumbing -----------------------------------------------------
    def _point_key(self, cone, observation, explain):
        return content_key(
            "point",
            cone.fingerprint(),
            observation_fingerprint(observation),
            self.pipeline.backend,
            bool(explain),
        )

    def _region_key(self, cone, observation, correlated, explain):
        return content_key(
            "region",
            cone.fingerprint(),
            observation_fingerprint(observation, samples=True),
            self.pipeline.backend,
            repr(float(self.pipeline.confidence)),
            bool(correlated),
            bool(explain),
        )

    def _lookup(self, key):
        verdict = self._memo.get(key)
        if verdict is not None:
            self.stats.memo_hits += 1
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event("session.memo_hit")
                tracer.metrics.counter("session.memo_hits").inc()
            return verdict
        if self.store is not None:
            payload = self.store.get("verdict", key)
            if payload is not None:
                try:
                    verdict = CellVerdict.from_dict(payload)
                except Exception:
                    # A valid envelope around a foreign payload (torn
                    # by a racing writer, or left by an older schema):
                    # drop it and recompute — never crash a sweep.
                    self.store.discard("verdict", key)
                    return None
                self._memo[key] = verdict
                self.stats.store_hits += 1
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event("session.store_hit")
                    tracer.metrics.counter("session.store_hits").inc()
                return verdict
        return None

    def _record(self, key, verdict):
        self._memo[key] = verdict
        if self.store is not None:
            self.store.put("verdict", key, verdict.to_dict())

    def forget(self):
        """Drop the in-memory memo (the store, if any, is untouched)."""
        self._memo.clear()

    # -- sweeps ------------------------------------------------------------
    def sweep(self, model, observations, use_regions=False, correlated=True,
              explain=False, compute=None):
        """Evaluate a model against a dataset, testing only new cells.

        Identical contract to :meth:`repro.pipeline.CounterPoint.sweep`
        (which routes here through the plan engine); cells already
        answered by this session — or by any earlier run sharing the
        store — are served from the memo. Returns a
        :class:`~repro.results.types.ModelSweep` whose ``why`` carries
        refutation evidence (guaranteed per infeasible cell with
        ``explain``, best-effort otherwise).

        ``compute`` overrides how the pending batch is solved — a
        callable ``(cone, targets, use_regions, explain) -> verdicts``.
        The plan engine's pluggable schedulers hook in here; the
        default solves in-process with :func:`compute_cell_verdicts`.
        Lookup, recording, and statistics stay with the session either
        way, so an override can change wall-clock but never memo
        semantics.
        """
        pipeline = self.pipeline
        tracer = get_tracer()
        with tracer.span("session.sweep", model=getattr(
            model, "name", str(model)
        )) as span:
            cone = pipeline.model_cone(model)
            observations = list(observations)
            names = [
                getattr(observation, "name", "obs%d" % index)
                for index, observation in enumerate(observations)
            ]
            verdicts = [None] * len(observations)
            pending = []
            for index, observation in enumerate(observations):
                if use_regions:
                    key = self._region_key(
                        cone, observation, correlated, explain
                    )
                else:
                    key = self._point_key(cone, observation, explain)
                verdict = self._lookup(key)
                if verdict is None:
                    pending.append((index, key))
                else:
                    verdicts[index] = verdict
            span.set(cells=len(observations), pending=len(pending))
            if pending:
                if compute is None:
                    compute = self._compute
                if self.claims is None:
                    self._compute_pending(
                        cone, pending, observations, verdicts,
                        compute, use_regions, correlated, explain, tracer,
                    )
                else:
                    self._compute_claimed(
                        cone, pending, observations, verdicts,
                        compute, use_regions, correlated, explain, tracer,
                    )
            return sweep_from_verdicts(cone.name, names, verdicts)

    def _compute_pending(self, cone, pending, observations, verdicts,
                         compute, use_regions, correlated, explain, tracer):
        """Solve one batch of pending ``(index, key)`` cells and record
        the verdicts (the historic unconditional path)."""
        targets = [
            self._target(observations[index], use_regions, correlated)
            for index, _ in pending
        ]
        computed = compute(cone, targets, use_regions, explain)
        self.stats.tests += len(pending)
        if tracer.enabled:
            tracer.metrics.counter("session.tests").inc(len(pending))
        for (index, key), verdict in zip(pending, computed):
            self._record(key, verdict)
            verdicts[index] = verdict

    def _compute_claimed(self, cone, pending, observations, verdicts,
                         compute, use_regions, correlated, explain, tracer):
        """The claim-mediated pending path: compute only cells this
        caller wins, wait for (then re-read) cells another worker owns.

        The protocol is deadlock-free by construction — an owner never
        waits while holding claims: it computes its claimed subset,
        records, releases, and only *then* waits on other owners'
        cells. A waiter whose owner failed (the verdict is still absent
        after the release) computes the cell itself, so claims can cost
        wall-clock but never correctness.
        """
        claims = self.claims
        mine, theirs = [], []
        for index, key in pending:
            if not claims.claim(key):
                theirs.append((index, key))
                continue
            # The previous owner may have recorded this cell and released
            # its claim between our lookup and our claim: re-read first.
            verdict = self._lookup(key)
            if verdict is None:
                mine.append((index, key))
            else:
                claims.release(key)
                verdicts[index] = verdict
        try:
            if mine:
                self._compute_pending(
                    cone, mine, observations, verdicts,
                    compute, use_regions, correlated, explain, tracer,
                )
        finally:
            for _, key in mine:
                claims.release(key)
        orphaned = []
        for index, key in theirs:
            claims.wait(key)
            verdict = self._lookup(key)
            if verdict is None:
                orphaned.append((index, key))
            else:
                verdicts[index] = verdict
        if orphaned:
            self._compute_pending(
                cone, orphaned, observations, verdicts,
                compute, use_regions, correlated, explain, tracer,
            )

    def _target(self, observation, use_regions, correlated):
        """The solvable form of an observation for one mode."""
        if use_regions:
            region = getattr(observation, "region", None)
            if callable(region):
                return region(
                    confidence=self.pipeline.confidence, correlated=correlated
                )
            return observation  # already a region
        point = getattr(observation, "point", None)
        if callable(point):
            return point()
        return observation  # a mapping or ordered sequence

    def _compute(self, cone, targets, use_regions, explain):
        return compute_cell_verdicts(
            cone,
            targets,
            backend=self.pipeline.backend,
            use_regions=use_regions,
            explain=explain,
        )

    # -- single-observation analysis ---------------------------------------
    def analyze(self, model, observation, explain=False):
        """Test one observation (point or region) against one model.

        Returns an :class:`~repro.results.types.AnalysisReport`. Reports
        are memoized whole — including the violated-constraint list,
        whose deduction is the pipeline's most expensive step — so
        re-analyzing a known-infeasible observation is free even in a
        fresh process sharing the store.
        """
        pipeline = self.pipeline
        tracer = get_tracer()
        with tracer.span("session.analyze", model=getattr(
            model, "name", str(model)
        )) as span:
            return self._analyze(pipeline, model, observation, explain, span)

    def _analyze(self, pipeline, model, observation, explain, span):
        cone = pipeline.model_cone(model)
        is_region = hasattr(observation, "box_constraints")
        key = content_key(
            "report",
            cone.fingerprint(),
            observation_fingerprint(observation, samples=False),
            pipeline.backend,
            bool(explain),
        )
        tracer = get_tracer()
        cached = self._memo.get(key)
        if cached is None and self.store is not None:
            payload = self.store.get("report", key)
            if payload is not None:
                try:
                    cached = AnalysisReport.from_dict(payload)
                except Exception:
                    # Corrupt-but-enveloped payload: discard, recompute.
                    self.store.discard("report", key)
                    cached = None
                else:
                    self._memo[key] = cached
                    self.stats.store_hits += 1
                    if tracer.enabled:
                        tracer.metrics.counter("session.store_hits").inc()
        elif cached is not None:
            self.stats.memo_hits += 1
            if tracer.enabled:
                tracer.metrics.counter("session.memo_hits").inc()
        if cached is not None:
            # Content keys ignore model names; hand back a relabeled
            # *copy* — mutating the memo entry would corrupt reports
            # already returned to earlier callers.
            span.set(outcome="memoized")
            report = AnalysisReport.from_dict(cached.to_dict())
            report.model_name = cone.name
            return report
        span.set(outcome="computed")
        if is_region:
            result = test_region_feasibility(
                cone, observation, backend=pipeline.backend
            )
        else:
            result = test_points_feasibility(
                cone, [observation], backend=pipeline.backend
            )[0]
        violations = []
        certificate = result.certificate
        if not result.feasible:
            violations = identify_violations(
                cone, observation, backend=pipeline.backend
            )
            if certificate is None and explain:
                try:
                    point = (
                        observation.center() if is_region else observation
                    )
                    certificate = separating_constraint(
                        cone, point, backend=pipeline.backend
                    )
                except ReproError:
                    certificate = None
        report = AnalysisReport(
            cone.name,
            result.feasible,
            violations,
            witness=result.witness,
            certificate=certificate,
        )
        self.stats.tests += 1
        self.stats.reports += 1
        if tracer.enabled:
            tracer.metrics.counter("session.tests").inc()
            tracer.metrics.counter("session.reports").inc()
        self._memo[key] = report
        if self.store is not None:
            self.store.put("report", key, report.to_dict())
        return report

    def __repr__(self):
        return "AnalysisSession(%d memoized, %r%s)" % (
            len(self._memo),
            self.stats,
            ", store=%r" % (self.store.root,) if self.store is not None else "",
        )


__all__ = ["AnalysisSession", "SessionStats", "compute_cell_verdicts"]
