"""Scenario generation and closed-loop validation helpers.

The one-call layer over the execution engine: turn any model (µDD, DSL
source, or bundled-model name) into :class:`repro.models.dataset.
Observation` objects that are drop-in compatible with the analysis
pipeline — ``CounterPoint.analyze`` / ``sweep`` consume them exactly
like hardware measurements. The headline workflow is the *closed loop*:
simulate counter observations from model X, test them against candidate
models Y₁..Yₙ, and watch the candidates that disagree with X's
mechanisms get refuted (:func:`closed_loop`).
"""

from repro.counters.sampling import collect_interval_samples
from repro.dsl import compile_dsl
from repro.errors import AnalysisError, SimulationError
from repro.mudd import MuDD
from repro.sim.batch import batch_simulate
from repro.sim.executor import MuDDExecutor
from repro.sim.noise import default_multiplexer, simulate_interval_matrix


def as_mudd(model, name=None):
    """Coerce a model argument to a validated µDD.

    Accepts a :class:`MuDD`, DSL source text (anything containing a
    statement terminator), or a bundled-model name
    (:mod:`repro.models.bundled`).
    """
    if isinstance(model, MuDD):
        return model
    if isinstance(model, str):
        if ";" in model or "{" in model:
            return compile_dsl(model, name=name or "model")
        from repro.models.bundled import load_bundled_model

        return load_bundled_model(model)
    raise SimulationError("cannot interpret %r as a model" % (type(model).__name__,))


def simulate_observation(
    model,
    n_uops=20000,
    n_intervals=20,
    weights=None,
    seed=0,
    multiplexer=None,
    noisy=False,
    name=None,
):
    """Simulate one measured run of ``model``: exact totals plus a
    perf-style interval sample matrix.

    The stochastic mode (per-µop branch sampling, optionally biased by
    ``weights``) runs batched: intervals are independent multinomial
    draws. ``noisy=True`` (or an explicit ``multiplexer``) replays the
    interval stream through counter multiplexing so the samples carry
    realistic correlated noise. Returns an
    :class:`~repro.models.dataset.Observation`.
    """
    from repro.models.dataset import Observation
    from repro.obs.trace import get_tracer

    mudd = as_mudd(model, name=name)
    if n_intervals < 2:
        raise SimulationError("need at least 2 intervals per observation")
    per_interval, remainder = divmod(n_uops, n_intervals)
    if per_interval <= 0:
        raise SimulationError(
            "%d µops cannot fill %d intervals" % (n_uops, n_intervals)
        )
    with get_tracer().span(
        "sim.observe", model=mudd.name, uops=n_uops, intervals=n_intervals,
    ):
        if noisy and multiplexer is None:
            multiplexer = default_multiplexer(seed=seed)
        samples = simulate_interval_matrix(
            mudd,
            n_intervals,
            per_interval,
            weights=weights,
            seed=seed,
            multiplexer=multiplexer,
        )
        totals = samples.true_totals()
        if remainder:
            tail = batch_simulate(mudd, remainder, weights=weights, seed=seed + 1)
            for counter, value in tail.observation(0).items():
                totals[counter] += value
        totals = {counter: int(value) for counter, value in totals.items()}
        return Observation(
            name or "sim:%s" % mudd.name,
            "sim",
            totals,
            samples,
            meta={"model": mudd.name, "n_uops": n_uops, "seed": seed},
        )


def simulate_dataset(
    model, n_observations, n_uops=20000, weights=None, seed=0, noisy=False, **options
):
    """A tuple of independent simulated observations of one model — the
    synthetic analogue of :func:`repro.models.dataset.standard_dataset`,
    ready for ``CounterPoint.sweep``."""
    mudd = as_mudd(model)
    return tuple(
        simulate_observation(
            mudd,
            n_uops=n_uops,
            weights=weights,
            seed=seed + run,
            noisy=noisy,
            name="sim:%s/run%d" % (mudd.name, run),
            **options
        )
        for run in range(n_observations)
    )


def trace_observation(model, oracle, workload, n_uops, n_intervals=20,
                      name=None):
    """Simulate one run the event-driven way: execute the µDD over a
    workload's µop stream with a stateful (device) oracle, collecting
    per-interval deltas. This is the path real address traces take
    (:class:`repro.workloads.trace.TraceWorkload` is a workload)."""
    from repro.models.dataset import Observation

    mudd = as_mudd(model, name=name)
    if n_intervals < 2:
        raise SimulationError("need at least 2 intervals per observation")
    per_interval = max(1, n_uops // n_intervals)
    executor = MuDDExecutor(mudd)
    intervals = list(
        executor.run_intervals(oracle, workload.ops(n_uops), per_interval)
    )
    samples = collect_interval_samples(executor.counters, intervals)
    return Observation(
        name or "trace:%s" % mudd.name,
        "sim",
        executor.snapshot(),
        samples,
        meta={"model": mudd.name, "workload": workload.describe(), "n_uops": n_uops},
    )


def closed_loop(observed_model, candidate_models, n_uops=20000, weights=None,
                seed=0, backend="exact", use_regions=False, confidence=0.99,
                cache_dir=None):
    """Simulate observations from one model; test every candidate.

    Returns ``{candidate_name: AnalysisReport}``. The observed model
    itself is always feasible (its totals lie in its own cone by
    construction — counter conservation), so including it among the
    candidates is the standard sanity row; candidates whose mechanisms
    disagree get refuted, closing the simulate→refute loop. Candidates
    must have distinct names (DSL sources are all named ``model``), or
    one report would hide another; duplicates raise
    :class:`~repro.errors.AnalysisError` before anything is simulated.

    Candidate cones come from the process's content-addressed cone cache
    (:func:`repro.cone.cache.shared_cache`) — with ``cache_dir`` from
    its persistent on-disk tier, so repeated closed-loop runs skip
    µpath enumeration (and constraint deduction, once a candidate has
    ever been refuted) even across processes and CI runs. Each
    candidate runs as a one-op ``analyze`` plan through
    :meth:`repro.pipeline.CounterPoint.analyze`. ``backend`` is the LP
    backend.
    """
    from repro.cone.cache import shared_cache
    from repro.pipeline import CounterPoint

    candidates = [as_mudd(candidate) for candidate in candidate_models]
    names = [candidate.name for candidate in candidates]
    if len(set(names)) != len(names):
        raise AnalysisError(
            "duplicate model names in closed loop: %s" % ", ".join(names)
        )
    observation = simulate_observation(
        observed_model, n_uops=n_uops, weights=weights, seed=seed,
        noisy=use_regions,
    )
    counters = observation.samples.counters
    counterpoint = CounterPoint(backend=backend, confidence=confidence)
    target = (
        observation.region(confidence=confidence)
        if use_regions
        else observation.point()
    )
    cones = shared_cache(cache_dir)
    reports = {}
    for candidate in candidates:
        cone = cones.get(candidate, counters=counters)
        report = counterpoint.analyze(cone, target)
        reports[report.model_name] = report
    return reports
