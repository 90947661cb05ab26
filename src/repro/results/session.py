"""Incremental analysis sessions with content-addressed verdict memoization.

Every pipeline workload — ``sweep``, ``compare``, ``cross_refute`` —
is a matrix of independent feasibility cells, and production use
re-analyzes the same growing matrix after each addition: append one
observation to a 1000-cell sweep, or one candidate model to a
cross-refutation matrix, and a recompute-everything pipeline pays the
full matrix again. :class:`AnalysisSession` memoizes each cell verdict
under a content-addressed key in two parts::

    page: (cone fingerprint, backend, mode, explain)
    cell: observation content hash

(a region's mode includes its confidence and ``correlated``). The memo
keys a cell by ``(page key, cell)``; with a store, every cell of a page
lives in one :class:`~repro.results.store.ArtifactStore` entry of kind
``verdict`` that maps cell hashes to :class:`CellVerdict` payloads. A
sweep unit reads its page at most once, and only when some cell misses
the memo, and publishes each computed batch with one
:meth:`~repro.results.store.ArtifactStore.merge` into the page as it is
on disk, so threads sharing a session lose no cell; two processes
merging into one page at once can drop each other's new cells, which
are then recomputed, never answered wrongly. A page that does not
decode in full, or carries a store version other than 3 (version 2
stored one entry per cell), is one miss, and its cells are recomputed.
The keys are pure content hashes (no model or run names), so renamed
models and re-measured-but-identical data still hit, across processes
and runs.

The session holds the two memoized units the plan engine
(:mod:`repro.plan.engine`) schedules: :meth:`AnalysisSession.sweep`
(one model over a dataset, cell by cell) and
:meth:`AnalysisSession.analyze` (one whole report, one entry per
report). Every matrix-shaped workload — ``compare``, ``cross_refute``,
whole plans — is assembled from them by the engine.
:class:`~repro.pipeline.CounterPoint` owns a session per instance;
sessions can also be built standalone around any pipeline. A session
computes pending cells in-process unless its caller hands it a
``compute`` hook: the engine passes its scheduler's, which is how
``workers > 1`` shards only the *pending* cells across the process
pool.
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


def _separating(cone, point, backend):
    """One constraint of ``cone`` that ``point`` violates, by the Farkas
    route (:func:`repro.cone.certificates.separating_constraint`) at
    feasibility-test cost — never by the exponential full deduction —
    or ``None`` when that route fails."""
    try:
        return separating_constraint(cone, point, backend=backend)
    except ReproError:
        return None


def _certificate_violation(cone, point, backend, explain, definite):
    """Refutation evidence for an infeasible cell: with ``explain``, the
    violated constraint :func:`_separating` finds; without, ``None``.
    Either way it depends only on the cone and the point."""
    constraint = _separating(cone, point, backend) if explain else None
    if constraint is None:
        return None
    margin = constraint.evaluate(cone.vector_from_observation(point))
    if constraint.kind == EQUALITY:
        margin = -abs(margin)
    return Violation(constraint, margin, definite=definite)


def _decode_page(payload):
    """A verdict page's cells, ``{cell hash: CellVerdict}``, decoded in
    full: any member that does not decode makes the whole page fail."""
    return {cell: CellVerdict.from_dict(entry) for cell, entry in payload.items()}


def compute_cell_verdicts(cone, targets, backend="exact", use_regions=False,
                          explain=False):
    """Compute the verdicts of a batch of cells (no memo involved).

    This is the one function both the serial path and the pool workers
    run, which is what makes ``workers=N`` results bit-for-bit equal to
    serial ones. Point batches run the flow LP on one batch
    (:func:`~repro.cone.feasibility.test_points_feasibility`); region
    cells run the Appendix A region LP. ``explain`` guarantees a
    violated-constraint record for every infeasible cell; without it
    no cell carries one. A verdict depends only on the cone and the
    target, never on what earlier calls left on the cone (deduced
    constraints included), so the bytes the session stores under a
    content key are the same whoever computes them first.
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
                    cone, target.center(), backend, explain, definite=False,
                )
                verdicts.append(CellVerdict(False, violation))
    else:
        results = test_points_feasibility(cone, targets, backend=backend)
        for target, result in zip(targets, results):
            if result.feasible:
                verdicts.append(CellVerdict(True))
            else:
                violation = _certificate_violation(
                    cone, target, backend, explain, definite=True,
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
    def _page_key(self, cone, use_regions, correlated, explain):
        """The key every cell of one sweep unit shares."""
        if use_regions:
            return content_key(
                "region",
                cone.fingerprint(),
                self.pipeline.backend,
                repr(float(self.pipeline.confidence)),
                bool(correlated),
                bool(explain),
            )
        return content_key(
            "point", cone.fingerprint(), self.pipeline.backend, bool(explain),
        )

    @staticmethod
    def _cell(observation, use_regions, fingerprint=observation_fingerprint):
        """An observation's cell within its page: its content hash."""
        if use_regions:
            return fingerprint(observation, samples=True)
        return fingerprint(observation)

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

    def _lookup(self, page, cells, indices, verdicts, tally):
        """Answer ``verdicts[index]`` for each of ``indices`` from the
        memo, else from the page, read at most once and only on a memo
        miss. Returns the indices left unanswered."""
        stored = None
        missing = []
        for index in indices:
            key = (page, cells[index])
            verdict = self._memo.get(key)
            if verdict is not None:
                self._count(tally, "memo_hits", event="session.memo_hit")
            else:
                if stored is None:
                    stored = {} if self.store is None else self.store.get(
                        "verdict", page, decode=_decode_page
                    ) or {}
                verdict = stored.get(cells[index])
                if verdict is None:
                    missing.append(index)
                    continue
                self._memo[key] = verdict
                self._count(tally, "store_hits", event="session.store_hit")
            verdicts[index] = verdict
        return missing

    def has_verdicts(self, cone, observations, use_regions=False,
                     correlated=True, explain=False):
        """Whether :meth:`sweep` would answer each of ``observations``
        without computing it: from the memo, or from a page that decodes
        in full and holds the cell. The page is read at most once; no
        statistics, recency or files change."""
        page = self._page_key(cone, use_regions, correlated, explain)
        cells = [self._cell(observation, use_regions) for observation in observations]
        stored = {}
        if self.store is not None and any(
            (page, cell) not in self._memo for cell in cells
        ):
            stored = self.store.peek("verdict", page, decode=_decode_page) or {}
        return [(page, cell) in self._memo or cell in stored for cell in cells]

    def _record(self, page, computed):
        """Memoize ``(cell, verdict)`` pairs of one page and publish them
        with one write."""
        for cell, verdict in computed:
            self._memo[(page, cell)] = verdict
        if self.store is not None:
            self.store.merge(
                "verdict", page,
                {cell: verdict.to_dict() for cell, verdict in computed},
                decode=_decode_page,
            )

    def forget(self):
        """Drop the in-memory memo (the store, if any, is untouched)."""
        self._memo.clear()

    # -- sweeps ------------------------------------------------------------
    def sweep(self, model, observations, use_regions=False, correlated=True,
              explain=False, compute=None, tally=None,
              fingerprint=observation_fingerprint):
        """Evaluate a model against a dataset, testing only new cells.

        Identical contract to :meth:`repro.pipeline.CounterPoint.sweep`
        (which routes here through the plan engine); cells already
        answered by this session — or by any earlier run sharing the
        store — are served from the memo. Returns a
        :class:`~repro.results.types.ModelSweep` whose ``why`` carries
        refutation evidence for each infeasible cell with ``explain``,
        and none without.

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
        ``fingerprint`` hashes observations for the cell keys (the engine
        passes its run's :class:`~repro.results.fingerprint.RunFingerprints`).
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
            page = self._page_key(cone, use_regions, correlated, explain)
            cells = [
                self._cell(observation, use_regions, fingerprint)
                for observation in observations
            ]
            verdicts = [None] * len(observations)
            pending = self._lookup(
                page, cells, range(len(cells)), verdicts, tally
            )
            span.set(cells=len(observations), pending=len(pending))
            if pending:
                solve = compute or self._compute

                def compute_pending(indices):
                    """Solve, count and record the cells at ``indices``."""
                    targets = [
                        self._target(observations[index], use_regions, correlated)
                        for index in indices
                    ]
                    computed = solve(cone, targets, use_regions, explain)
                    self._count(tally, "tests", len(indices))
                    self._record(page, [
                        (cells[index], verdict)
                        for index, verdict in zip(indices, computed)
                    ])
                    for index, verdict in zip(indices, computed):
                        verdicts[index] = verdict

                if self.claims is None:
                    compute_pending(pending)
                else:
                    self._compute_claimed(
                        page, cells, pending, verdicts, compute_pending, tally,
                    )
            return sweep_from_verdicts(cone.name, names, verdicts)

    def _compute_claimed(self, page, cells, pending, verdicts,
                         compute_pending, tally):
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
        for index in pending:
            if claims.claim((page, cells[index])):
                mine.append(index)
            else:
                theirs.append(index)
        try:
            # The previous owner may have recorded some of these cells
            # and released their claims between our lookup and our
            # claims: re-read first.
            unanswered = self._lookup(page, cells, mine, verdicts, tally)
            if unanswered:
                compute_pending(unanswered)
        finally:
            for index in mine:
                claims.release((page, cells[index]))
        for index in theirs:
            claims.wait((page, cells[index]))
        orphaned = self._lookup(page, cells, theirs, verdicts, tally)
        if orphaned:
            compute_pending(orphaned)

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
    def analyze(self, model, observation, explain=False, tally=None,
                fingerprint=observation_fingerprint):
        """Test one observation (point or region) against one model.

        Returns an :class:`~repro.results.types.AnalysisReport`. Reports
        are memoized whole — including the violated-constraint list,
        whose deduction is the pipeline's most expensive step — so
        re-analyzing a known-infeasible observation is free even in a
        fresh process sharing the store. ``tally`` and ``fingerprint``
        are as in :meth:`sweep`.
        """
        pipeline = self.pipeline
        tracer = get_tracer()
        with tracer.span("session.analyze", model=getattr(
            model, "name", str(model)
        )) as span:
            return self._analyze(
                pipeline, model, observation, explain, span, tally,
                fingerprint,
            )

    def _analyze(self, pipeline, model, observation, explain, span, tally,
                 fingerprint):
        cone = pipeline.model_cone(model)
        is_region = hasattr(observation, "box_constraints")
        key = content_key(
            "report",
            cone.fingerprint(),
            fingerprint(observation, samples=False),
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
        certificate = None
        if not result.feasible:
            violations = identify_violations(
                cone, observation, backend=pipeline.backend
            )
            if explain:
                certificate = _separating(
                    cone,
                    observation.center() if is_region else observation,
                    pipeline.backend,
                )
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
