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

import os
import threading

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
    """A read-only attribute view of a registry counter."""
    return property(lambda self: self.registry.counter(name).value)


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
        :class:`~repro.results.store.ArtifactStore` (used as given), a
        directory path — the store then owns ``<path>/artifacts`` and
        leaves everything else in ``<path>`` alone — or ``None``
        (memory-only memoization). A warmed store makes re-analysis of
        unchanged cells free *across processes and runs*.
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
            store = ArtifactStore(os.path.join(os.fspath(store), "artifacts"))
        self.store = store
        self._memo = {}
        self.stats = SessionStats()
        self._stats_lock = threading.Lock()
        # Optional in-flight dedup (repro.results.store.ClaimTable):
        # when set, sweep() claims each pending cell before computing
        # it, so concurrent jobs sharing this session (or its store)
        # never compute the same cell twice. None — the default — is
        # exactly the historic single-owner behaviour.
        self.claims = None

    # -- memo plumbing -----------------------------------------------------
    def _cell_key(self, cone, observation, use_regions, correlated, explain):
        if use_regions:
            return content_key(
                "region",
                cone.fingerprint(),
                observation_fingerprint(observation, samples=True),
                self.pipeline.backend,
                repr(float(self.pipeline.confidence)),
                bool(correlated),
                bool(explain),
            )
        return content_key(
            "point",
            cone.fingerprint(),
            observation_fingerprint(observation),
            self.pipeline.backend,
            bool(explain),
        )

    def _count(self, tally, name, amount=1, event=None):
        """Add ``amount`` to the session counter ``name`` and, when the
        caller passed one, to its per-run ``tally`` (a
        :class:`collections.Counter`); mirror both into the trace."""
        with self._stats_lock:
            self.stats.registry.counter("session." + name).inc(amount)
        if tally is not None:
            tally[name] += amount
        tracer = get_tracer()
        if tracer.enabled:
            if event is not None:
                tracer.event(event)
            tracer.metrics.counter("session." + name).inc(amount)

    def _lookup(self, key, tally=None):
        verdict = self._memo.get(key)
        if verdict is not None:
            self._count(tally, "memo_hits", event="session.memo_hit")
            return verdict
        if self.store is not None:
            verdict = self.store.get(
                "verdict", key, decode=CellVerdict.from_dict
            )
            if verdict is not None:
                self._memo[key] = verdict
                self._count(tally, "store_hits", event="session.store_hit")
                return verdict
        return None

    def has_verdict(self, cone, observation, use_regions=False,
                    correlated=True, explain=False):
        """Whether :meth:`sweep` would answer this cell without
        computing it: from the memo, or from a store entry that
        decodes. No statistics, recency or files change."""
        key = self._cell_key(cone, observation, use_regions, correlated, explain)
        if key in self._memo:
            return True
        return self.store is not None and self.store.contains(
            "verdict", key, decode=CellVerdict.from_dict
        )

    def _record(self, key, verdict):
        self._memo[key] = verdict
        if self.store is not None:
            self.store.put("verdict", key, verdict.to_dict())

    def forget(self):
        """Drop the in-memory memo (the store, if any, is untouched)."""
        self._memo.clear()

    # -- sweeps ------------------------------------------------------------
    def sweep(self, model, observations, use_regions=False, correlated=True,
              explain=False, compute=None, tally=None):
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

        ``tally``, a :class:`collections.Counter`, additionally receives
        this call's own ``tests``, ``memo_hits`` and ``store_hits``,
        which :attr:`stats` mixes with every other caller's.
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
                key = self._cell_key(
                    cone, observation, use_regions, correlated, explain
                )
                verdict = self._lookup(key, tally)
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
                        compute, use_regions, correlated, explain, tally,
                    )
                else:
                    self._compute_claimed(
                        cone, pending, observations, verdicts,
                        compute, use_regions, correlated, explain, tally,
                    )
            return sweep_from_verdicts(cone.name, names, verdicts)

    def _compute_pending(self, cone, pending, observations, verdicts,
                         compute, use_regions, correlated, explain, tally):
        """Solve one batch of pending ``(index, key)`` cells and record
        the verdicts (the historic unconditional path)."""
        targets = [
            self._target(observations[index], use_regions, correlated)
            for index, _ in pending
        ]
        computed = compute(cone, targets, use_regions, explain)
        self._count(tally, "tests", len(pending))
        for (index, key), verdict in zip(pending, computed):
            self._record(key, verdict)
            verdicts[index] = verdict

    def _compute_claimed(self, cone, pending, observations, verdicts,
                         compute, use_regions, correlated, explain, tally):
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
            verdict = self._lookup(key, tally)
            if verdict is None:
                mine.append((index, key))
            else:
                claims.release(key)
                verdicts[index] = verdict
        try:
            if mine:
                self._compute_pending(
                    cone, mine, observations, verdicts,
                    compute, use_regions, correlated, explain, tally,
                )
        finally:
            for _, key in mine:
                claims.release(key)
        orphaned = []
        for index, key in theirs:
            claims.wait(key)
            verdict = self._lookup(key, tally)
            if verdict is None:
                orphaned.append((index, key))
            else:
                verdicts[index] = verdict
        if orphaned:
            self._compute_pending(
                cone, orphaned, observations, verdicts,
                compute, use_regions, correlated, explain, tally,
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
    def analyze(self, model, observation, explain=False, tally=None):
        """Test one observation (point or region) against one model.

        Returns an :class:`~repro.results.types.AnalysisReport`. Reports
        are memoized whole — including the violated-constraint list,
        whose deduction is the pipeline's most expensive step — so
        re-analyzing a known-infeasible observation is free even in a
        fresh process sharing the store. ``tally`` receives this call's
        own outcome, as in :meth:`sweep`.
        """
        pipeline = self.pipeline
        tracer = get_tracer()
        with tracer.span("session.analyze", model=getattr(
            model, "name", str(model)
        )) as span:
            return self._analyze(
                pipeline, model, observation, explain, span, tally
            )

    def _analyze(self, pipeline, model, observation, explain, span, tally):
        cone = pipeline.model_cone(model)
        is_region = hasattr(observation, "box_constraints")
        key = content_key(
            "report",
            cone.fingerprint(),
            observation_fingerprint(observation, samples=False),
            pipeline.backend,
            bool(explain),
        )
        cached = self._memo.get(key)
        if cached is None and self.store is not None:
            cached = self.store.get(
                "report", key, decode=AnalysisReport.from_dict
            )
            if cached is not None:
                self._memo[key] = cached
                self._count(tally, "store_hits")
        elif cached is not None:
            self._count(tally, "memo_hits")
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
        self._count(tally, "tests")
        self._count(tally, "reports")
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
