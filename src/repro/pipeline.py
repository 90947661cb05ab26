"""The high-level CounterPoint pipeline (Figure 2).

:class:`CounterPoint` ties the layers together: model specification
(DSL source or µDD) → model cone → counter confidence regions →
feasibility testing → violation reporting. It is the API the examples
and benchmarks drive.

The pipeline also runs in reverse: :meth:`CounterPoint.simulate`
executes a µDD through :mod:`repro.sim` and returns observations in the
same shape the analysis methods consume, and
:meth:`CounterPoint.cross_refute` runs the full closed loop — simulate
each model, sweep every model against each synthetic dataset — whose
diagonal should be all-feasible and whose off-diagonal entries expose
which mechanism hypotheses the data can distinguish.

Analysis methods return the typed, JSON-serializable result objects of
:mod:`repro.results`. Each is a *one-op plan* executed by the
pipeline's :class:`~repro.plan.engine.PlanEngine` through its
:class:`~repro.results.session.AnalysisSession`, which memoizes each
feasibility verdict by content — so re-analyzing a grown dataset or
model family only tests the new cells (see ``session()``). Multi-op
:class:`~repro.plan.Plan` specs describe whole campaigns and run
through the same engine (``run()``): overlapping ops deduplicate
globally, dry runs price the work, and store-backed runs resume.
"""

from repro.cone import ModelCone, shared_cache
from repro.errors import AnalysisError
from repro.mudd import MuDD
from repro.sim.scenarios import as_mudd

# Result types historically lived here; the canonical home is now
# repro.results, re-exported for compatibility.
from repro.results.types import AnalysisReport, ModelSweep  # noqa: F401


class CounterPoint:
    """Facade over the CounterPoint analysis pipeline.

    Parameters
    ----------
    counters:
        Counter ordering for model cones built from µDDs; defaults to
        each µDD's own counters.
    backend:
        LP backend: ``"exact"`` (rational simplex; exact verdicts) or
        ``"scipy"`` (HiGHS; fast sweeps).
    confidence:
        Confidence level for regions built from sample matrices.
    workers:
        Process-pool size for everything the plan engine runs — every
        analysis method, :meth:`simulate_dataset` and :meth:`run` —
        through its pool scheduler
        (:class:`~repro.plan.schedulers.PoolScheduler`); ``1`` (the
        default) keeps everything in-process, ``None`` means one worker
        per CPU. Parallel runs produce results identical to serial ones
        — same seeds, same ordering, same verdicts (see
        :mod:`repro.parallel`).
    cache_dir:
        Directory for the persistent tiers, two JSON
        :class:`~repro.results.store.ArtifactStore` subdirectories:
        the on-disk cone cache (``<cache_dir>/cones`` —
        :mod:`repro.cone.diskcache`; cones and their deduced
        constraints computed once per model *ever*) and the session's
        verdict store (``<cache_dir>/artifacts``), both shared between
        pipelines, processes and runs. Nothing else in the directory
        is read, pruned or deleted.
    trace:
        Observability (:mod:`repro.obs`). ``True`` builds a fresh
        enabled :class:`~repro.obs.Tracer`; an existing tracer may be
        passed to share one across pipelines. Every analysis run on
        this pipeline then records spans (LP solves, cone deduction,
        verdicts, simulation, scheduler dispatch) and cache events into
        ``pipeline.tracer`` — including spans recorded inside pool
        workers, which ship back with their results. ``None`` (the
        default) records nothing and costs nearly nothing.

    The pipeline owns a lazily-built process pool; call :meth:`close`
    (or use the pipeline as a context manager) to shut workers down
    deterministically instead of waiting for garbage collection.
    """

    def __init__(self, counters=None, backend="exact", confidence=0.99,
                 workers=1, cache_dir=None, trace=None):
        self.counters = counters
        self.backend = backend
        self.confidence = confidence
        self.cache_dir = cache_dir
        # The process's cone cache for cache_dir (memory-only without
        # one), shared with every other pipeline on that directory.
        self.cone_cache = shared_cache(cache_dir)
        if workers is not None and workers < 1:
            raise AnalysisError("workers must be at least 1, got %r" % (workers,))
        self.workers = workers
        if trace is True:
            from repro.obs import Tracer

            self.tracer = Tracer()
        elif trace is False:
            self.tracer = None
        else:
            self.tracer = trace
        self._runner = None
        self._session = None
        self._plan_engine = None

    def runner(self):
        """The pipeline's :class:`~repro.parallel.ParallelRunner`
        (built lazily; callers may share it for custom sharding)."""
        if self._runner is None:
            from repro.parallel import ParallelRunner

            self._runner = ParallelRunner(workers=self.workers)
        return self._runner

    def session(self):
        """The pipeline's :class:`~repro.results.session.AnalysisSession`.

        Built lazily and shared by every analysis call on this
        pipeline, so verdicts memoize across calls. With ``cache_dir``
        the session persists verdicts to
        ``<cache_dir>/artifacts`` — a later process re-testing the same
        cells does no LP work at all.
        """
        if self._session is None:
            from repro.results.session import AnalysisSession

            self._session = AnalysisSession(pipeline=self, store=self.cache_dir)
        return self._session

    def plan_engine(self):
        """The pipeline's :class:`~repro.plan.engine.PlanEngine`.

        Every analysis method on this facade is a one-op plan run
        through this engine; hand it a multi-op
        :class:`~repro.plan.Plan` to schedule a whole experiment —
        overlapping ops deduplicate globally through the session's
        content-addressed memo, and ``dry_run`` prices a campaign
        without solving.
        """
        if self._plan_engine is None:
            from repro.plan import PlanEngine

            self._plan_engine = PlanEngine(self)
        return self._plan_engine

    def run(self, plan, scheduler=None, collect_errors=False):
        """Execute a :class:`~repro.plan.Plan` against this pipeline;
        returns a :class:`~repro.plan.PlanResult` keyed by op id.

        With ``collect_errors=True`` a failing op is recorded on
        ``result.errors`` (op id, cell keys, exception repr) instead of
        aborting the whole plan — the engine's partial-failure
        contract."""
        return self.plan_engine().run(
            plan, scheduler=scheduler, collect_errors=collect_errors
        )

    def _one_op(self, build):
        """Run a single facade call as a one-op plan (the thin-facade
        contract: identical results, one engine)."""
        from repro.plan import Plan

        plan = Plan()
        op_id = build(plan)
        return self.plan_engine().run(plan)[op_id]

    def close(self):
        """Shut down the lazily-built process pool (idempotent).

        The session memo survives; only pool workers are reaped. A
        later sharded call transparently builds a fresh pool.
        """
        if self._runner is not None:
            self._runner.close()
            self._runner = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    def _parallel(self):
        """Whether the plan engine schedules on the pool (see
        :func:`repro.plan.schedulers.scheduler_for`)."""
        return self.workers is None or self.workers > 1

    # -- model ingestion ---------------------------------------------------
    def model_cone(self, model, counters=None):
        """Accepts DSL source, a bundled-model name, a µDD, or a ready
        ModelCone.

        Strings follow :func:`repro.sim.scenarios.as_mudd`'s rule, as
        every plan op does: text with ``;`` or ``{`` is DSL source,
        anything else names a bundled model.

        ``counters`` overrides the pipeline's counter ordering for this
        call (used by :meth:`cross_refute`, where the ordering comes
        from the simulated dataset). Cones built from µDDs or strings
        are served from the process's content-addressed cone cache
        (:func:`repro.cone.cache.shared_cache`).
        """
        if counters is None:
            counters = self.counters
        if isinstance(model, ModelCone):
            return model
        if isinstance(model, str):
            model = as_mudd(model)
        if isinstance(model, MuDD):
            return self.cone_cache.get(model, counters=counters)
        raise AnalysisError("cannot interpret %r as a model" % (type(model).__name__,))

    # -- single-observation analysis ---------------------------------------
    def analyze(self, model, observation, explain=False):
        """Test one observation (point or region) against one model.

        Returns an :class:`~repro.results.AnalysisReport`; when
        infeasible, the report carries the violated model constraints
        (the expensive constraint deduction runs only in that case,
        mirroring the paper) and — with ``explain`` — a Farkas
        certificate found at feasibility-test cost. Reports are
        memoized by the pipeline's session; the call itself is a one-op
        plan over :meth:`plan_engine`.
        """
        return self._one_op(
            lambda plan: plan.analyze(model, observation, explain=explain)
        )

    # -- dataset sweeps -------------------------------------------------------
    def sweep(self, model, observations, use_regions=False, correlated=True,
              explain=False):
        """Evaluate a model against a dataset of observations.

        Parameters
        ----------
        model:
            Anything :meth:`model_cone` accepts (DSL source, a
            bundled-model name, a µDD, or a ready
            :class:`~repro.cone.ModelCone`).
        observations:
            Objects with ``name`` and ``point()`` — typically
            :class:`repro.models.dataset.Observation`.
        use_regions:
            Summarise each observation's samples as a confidence region
            (correlated or independent) instead of using exact totals.
        correlated:
            With ``use_regions``, whether regions model cross-counter
            covariance (the paper's Section 4 estimator) or the
            independent-counter baseline.
        explain:
            Record refutation evidence (one violated model constraint,
            found by the Farkas certificate LP) for every infeasible
            observation. Without it, ``why`` is empty.

        Returns a :class:`~repro.results.ModelSweep` naming the
        infeasible observations in dataset order, with per-observation
        refutation evidence in ``why`` under ``explain``. Verdicts are
        memoized by content: re-sweeping a grown dataset only tests the
        new observations. With ``workers > 1`` the pending cells are
        sharded across the process pool (identical results). The call
        is a one-op plan over :meth:`plan_engine`.
        """
        observations = list(observations)
        return self._one_op(
            lambda plan: plan.sweep(
                model,
                observations,
                use_regions=use_regions,
                correlated=correlated,
                explain=explain,
            )
        )

    def compare(self, models, observations, **sweep_options):
        """Sweep several candidate models over one dataset.

        The multi-model view of :meth:`sweep` — the workflow behind the
        paper's Table 3: rank a model family by how many observations
        each member fails to explain. Keyword options pass through to
        :meth:`sweep`. Returns a
        :class:`~repro.results.CompareResult` mapping model names to
        sweeps in model order; each sweep shards across the pool when
        ``workers > 1``, and only cells not already memoized are
        tested. The call is a one-op plan over :meth:`plan_engine`.
        """
        models = list(models)
        observations = list(observations)
        return self._one_op(
            lambda plan: plan.compare(models, observations, **sweep_options)
        )

    # -- simulation (the closed loop) -----------------------------------------
    def simulate(self, model, n_uops=20000, **options):
        """Execute a model and return a synthetic observation.

        ``model`` is anything :meth:`model_cone` accepts as a µDD source
        (µDD, DSL text) or a bundled-model name. Options pass through to
        :func:`repro.sim.simulate_observation` (``weights``, ``seed``,
        ``noisy``, ``n_intervals``, ...). The result is an
        :class:`~repro.models.dataset.Observation`: feed ``.point()`` to
        :meth:`analyze` or the object itself to :meth:`sweep`.
        """
        from repro.obs.trace import activate, tracer_for
        from repro.sim import simulate_observation

        with activate(tracer_for(self)):
            return simulate_observation(model, n_uops=n_uops, **options)

    def simulate_dataset(self, model, n_observations, n_uops=20000, seed=0,
                         weights=None, noisy=False):
        """Independent simulated observations of one model, ready for
        :meth:`sweep` / :meth:`compare`.

        Run ``i`` draws from seed ``seed + i``, so datasets are
        reproducible; with ``workers > 1`` the runs are sharded across
        the process pool under the same per-run seeds (identical
        observations, faster wall-clock). The call is a one-op plan over
        :meth:`plan_engine`, so its inputs are validated like any plan
        op's.
        """
        from repro.plan import Plan

        plan = Plan()
        op_id = plan.simulate_dataset(
            model, n_observations, n_uops=n_uops, seed=seed,
            weights=weights, noisy=noisy,
        )
        return self.plan_engine().run(plan).datasets[op_id]

    def cross_refute(
        self, models, n_observations=3, n_uops=20000, weights=None, seed=0,
        explain=False,
    ):
        """The closed-loop matrix: simulate each model, sweep all models.

        Returns a :class:`~repro.results.RefutationMatrix` (a mapping
        ``{observed_name: {candidate_name: ModelSweep}}``). Every
        diagonal entry is feasible by construction (counter
        conservation: simulated totals lie in the generating model's
        cone); an off-diagonal infeasible entry means the candidate's
        mechanisms cannot explain the observed model's behaviour.

        Row ``r`` simulates from seed ``seed + 1000 * r``. Every cell
        is memoized in the pipeline's session, so re-refuting a grown
        model family re-tests only the new row and column. With
        ``workers > 1`` the row simulations and the pending verdict
        cells shard across the process pool (identical results), and
        ``cache_dir`` persists the memo across runs and processes. The
        call is a one-op plan over :meth:`plan_engine` — the matrix,
        a sweep, and a compare touching the same (cone, observation)
        cell in one plan compute it exactly once.
        """
        models = list(models)
        return self._one_op(
            lambda plan: plan.cross_refute(
                models,
                n_observations=n_observations,
                n_uops=n_uops,
                weights=weights,
                seed=seed,
                explain=explain,
            )
        )
