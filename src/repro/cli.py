"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``constraints <model.dsl>``
    Deduce and print the model constraints a µDD implies.
``analyze <model.dsl> (--observation k=v,... | --perf-csv file.csv)``
    Test an observation (exact totals or a perf interval CSV summarised
    as a confidence region) against a model; print violations and a
    Farkas certificate for infeasible observations.
``render <model.dsl> [-o out.dot]``
    Export the µDD as Graphviz dot.
``case-study [--scale S]``
    Run the Table 3 m-series sweep on the simulated Haswell MMU.
``errata-check --counters a,b,... [--smt]``
    Pre-flight errata check for a measurement plan.
``sweep <model.dsl> [--dataset standard|noisy | --simulate-from M]``
    Evaluate one model against a whole dataset; print which
    observations it fails to explain and the violated constraint per
    failure.
``compare <model.dsl> [<model.dsl> ...]``
    Sweep a model family over one dataset and rank it (the Table 3
    workflow).
``run <plan.json> [--dry-run]``
    Execute a declarative :mod:`repro.plan` experiment spec — a whole
    campaign compiled into one content-addressed task DAG with global
    deduplication; ``--dry-run`` prices it without solving.
``plan <template> --models ...``
    Author a plan JSON from a template (``sweep``, ``compare``,
    ``cross-refute``, ``closed-loop``).
``show <result.json>``
    Load any serialized result by its ``kind`` tag and print its
    summary — including ``PlanResult`` bundles.
``trace summarize <trace.jsonl>``
    Reduce a ``--trace`` JSONL file to a plain-text breakdown: span
    totals, cache hit-rates per tier, and the LP solve-time histogram
    (``--json`` emits the summary dict instead).
``serve [--host --port --workers --cache-dir --max-queue]``
    Run the :mod:`repro.serve` daemon: POST plans over HTTP, stream
    progress, cancel, fetch results — all tenants share one
    content-addressed task space with weighted-fair scheduling.
``submit <plan.json> [--tenant --priority --wait]`` /
``status [job]`` / ``fetch <job> [-o out.json]`` / ``cancel <job>``
    The client side of ``serve`` (all take ``--url``): submit a plan to
    a running daemon, watch it, download the canonical result bundle,
    or cancel it.
``simulate <model.dsl | --bundled name> [--n-uops N] [--traces T]``
    Execute a µDD with the :mod:`repro.sim` engine and print synthetic
    counter totals. ``--weight Prop=Value:W`` biases branch choices,
    ``--noisy`` replays the run through counter multiplexing, and
    ``--analyze OTHER`` closes the loop: the simulated observation is
    tested against a second model (exit 1 when refuted). The
    closed-loop workflow is simulate-then-analyze::

        python -m repro simulate --bundled merging_load_side \\
            --weight Merged=Yes:3 --analyze no_merging_load_side

Shared performance flags (``analyze``, ``sweep``, ``compare``,
``simulate``, ``case-study``, ``run``): ``--cache-dir DIR`` persists
model cones *and* feasibility verdicts on disk
(:mod:`repro.cone.diskcache`, :mod:`repro.results.store`) — deduction
and verdicts run once per content ever, shared across runs and
processes; ``--workers N`` shards dataset sweeps across a process pool
(:mod:`repro.parallel`). The analysis commands (``analyze``, ``sweep``,
``compare``, ``case-study``, ``run``) accept ``--json`` to emit the
stable :mod:`repro.results` schema instead of text, and ``analyze`` /
``sweep`` / ``compare`` / ``run`` accept ``--stats`` to report session
cache effectiveness (computed cells vs memo/store hits).

Every command also accepts ``--trace FILE`` / ``--trace-format
{jsonl,chrome}`` (:mod:`repro.obs`): the whole invocation runs under an
enabled tracer — LP solves, cone deduction, verdicts, simulation,
scheduler dispatch, cache hits and evictions, including spans recorded
inside ``--workers`` pool processes — and the merged timeline is
written on exit, even when the command fails. ``jsonl`` is the archive
format ``trace summarize`` reads; ``chrome`` loads directly in
Perfetto / ``chrome://tracing``.
"""

import argparse
import sys

from repro.cone import shared_cache
from repro.counters.errata import check_measurement_plan
from repro.dsl import compile_dsl
from repro.errors import ReproError
from repro.mudd.dot import to_dot


def _load_model(path):
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return compile_dsl(source, name=path)


def _model_cone(mudd, arguments, counters=None):
    """The model cone from the process's cone cache for ``--cache-dir``."""
    cache_dir = getattr(arguments, "cache_dir", None) or None
    return shared_cache(cache_dir).get(mudd, counters=counters)


def _parse_observation(text):
    observation = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ReproError("observation items must be name=value, got %r" % (item,))
        name, value = item.split("=", 1)
        observation[name.strip()] = float(value)
    if not observation:
        raise ReproError("empty observation")
    return observation


def cmd_constraints(arguments):
    mudd = _load_model(arguments.model)
    cone = _model_cone(mudd, arguments)
    constraints = cone.constraints()
    print("%d µpath signatures, %d constraints:" % (cone.n_paths, len(constraints)))
    for constraint in constraints:
        print("  " + constraint.render())
    return 0


def _session_stats(counterpoint):
    return counterpoint.session().stats.as_dict()


def _render_stats(stats):
    return ("session stats: %(tests)d computed, %(memo_hits)d memo hits, "
            "%(store_hits)d store hits, %(reports)d reports" % stats)


def _emit_result(result, arguments, counterpoint):
    """Print a result honouring ``--json`` and ``--stats``.

    With both flags the stable result schema gains a top-level
    ``session_stats`` key — extra envelope keys are ignored by
    ``from_dict``, so the output still loads with ``result_from_json``.
    """
    import json

    stats = _session_stats(counterpoint) if getattr(arguments, "stats", False) \
        else None
    if arguments.json:
        data = result.to_dict()
        if stats is not None:
            data["session_stats"] = stats
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(result.summary())
        if stats is not None:
            print(_render_stats(stats))


def cmd_analyze(arguments):
    from repro.pipeline import CounterPoint

    mudd = _load_model(arguments.model)
    # Analysis goes through the facade — a one-op plan over the plan
    # engine — so --workers/--cache-dir reach the pipeline, verdicts
    # memoize in the session (observable with --stats), and the context
    # manager reaps the pool on every exit path.
    with CounterPoint(
        backend=arguments.backend,
        confidence=arguments.confidence,
        workers=arguments.workers,
        cache_dir=arguments.cache_dir or None,
    ) as counterpoint:
        cone = counterpoint.model_cone(mudd)

        if arguments.perf_csv:
            from repro.counters.perf_io import read_perf_csv

            samples = read_perf_csv(arguments.perf_csv, strict=False)
            samples = samples.subset(
                [name for name in samples.counters if name in cone.counters]
            )
            missing = [name for name in cone.counters if name not in samples.counters]
            if missing:
                raise ReproError("CSV lacks model counters: %s" % ", ".join(missing))
            observation = samples.subset(cone.counters).confidence_region(
                confidence=arguments.confidence,
                correlated=not arguments.independent,
            )
        else:
            observation = _parse_observation(arguments.observation)

        report = counterpoint.analyze(cone, observation, explain=True)

        if arguments.json:
            _emit_result(report, arguments, counterpoint)
            return 0 if report.feasible else 1

        if report.feasible:
            print("FEASIBLE: the observation is consistent with the model.")
        else:
            print("INFEASIBLE: the observation violates the model.")
            if report.certificate is not None:
                print("certificate (one violated constraint): %s"
                      % report.certificate.render())
            if arguments.violations:
                print("all violated constraints:")
                for violation in report.violations:
                    print("  " + violation.render())
        if arguments.stats:
            print(_render_stats(_session_stats(counterpoint)))
        return 0 if report.feasible else 1


def cmd_render(arguments):
    mudd = _load_model(arguments.model)
    text = to_dot(mudd)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print("wrote %s" % arguments.output)
    else:
        print(text, end="")
    return 0


def cmd_case_study(arguments):
    from repro.models import M_SERIES, build_model_cone, standard_dataset
    from repro.pipeline import CounterPoint

    from repro.results import CompareResult

    observations = standard_dataset(scale=arguments.scale)
    names = sorted(M_SERIES, key=lambda n: int(n[1:]))
    with CounterPoint(
        backend="scipy",
        workers=arguments.workers,
        cache_dir=arguments.cache_dir or None,
    ) as counterpoint:
        comparison = CompareResult([
            counterpoint.sweep(
                build_model_cone(M_SERIES[name], name=name),
                observations,
                explain=arguments.json,
            )
            for name in names
        ])
    if arguments.json:
        print(comparison.to_json(indent=2))
        return 0
    print("%d observations" % len(observations))
    print("%-5s %-46s %s" % ("model", "features", "#infeasible"))
    for name in names:
        sweep = comparison[name]
        star = "*" if sweep.feasible else " "
        print("%s%-4s %-46s %d" % (
            star, name, ",".join(sorted(M_SERIES[name])) or "(none)", sweep.n_infeasible,
        ))
    return 0


def _sweep_model(arguments, value):
    """A model argument for sweep/compare: DSL file, or bundled name."""
    if getattr(arguments, "bundled", False):
        from repro.sim import as_mudd

        return as_mudd(value)
    return _load_model(value)


def _sweep_observations(arguments):
    """The dataset a sweep/compare runs against."""
    if getattr(arguments, "simulate_from", None):
        from repro.sim import simulate_dataset

        source = _sweep_model(arguments, arguments.simulate_from)
        return simulate_dataset(
            source,
            arguments.n_observations,
            n_uops=arguments.n_uops,
            seed=arguments.seed,
        )
    if arguments.dataset == "noisy":
        from repro.models.dataset import noisy_dataset

        return noisy_dataset(scale=arguments.scale)
    from repro.models.dataset import standard_dataset

    return standard_dataset(scale=arguments.scale)


def _sweep_pipeline(arguments):
    from repro.pipeline import CounterPoint

    return CounterPoint(
        backend=arguments.backend,
        confidence=arguments.confidence,
        workers=arguments.workers,
        cache_dir=arguments.cache_dir or None,
    )


def _project_observations(observations, cone):
    """Dataset-to-model counter projection (shared with the plan
    engine; see :func:`repro.models.dataset.project_observations`)."""
    from repro.models.dataset import project_observations

    return project_observations(observations, cone)


def cmd_sweep(arguments):
    observations = _sweep_observations(arguments)
    with _sweep_pipeline(arguments) as counterpoint:
        # Simulated datasets define the counter ordering; the bundled
        # hardware datasets are projected onto the model's scope.
        counters = getattr(observations[0].samples, "counters", None) \
            if arguments.simulate_from else None
        cone = counterpoint.model_cone(
            _sweep_model(arguments, arguments.model), counters=counters
        )
        sweep = counterpoint.sweep(
            cone,
            _project_observations(observations, cone),
            use_regions=arguments.use_regions,
            correlated=not arguments.independent,
            explain=True,
        )
        _emit_result(sweep, arguments, counterpoint)
    return 0 if sweep.feasible else 1


def cmd_compare(arguments):
    observations = _sweep_observations(arguments)
    with _sweep_pipeline(arguments) as counterpoint:
        counters = getattr(observations[0].samples, "counters", None) \
            if arguments.simulate_from else None
        sweeps = []
        for model in arguments.models:
            cone = counterpoint.model_cone(
                _sweep_model(arguments, model), counters=counters
            )
            sweeps.append(counterpoint.sweep(
                cone,
                _project_observations(observations, cone),
                use_regions=arguments.use_regions,
                correlated=not arguments.independent,
                explain=True,
            ))
        from repro.results import CompareResult

        comparison = CompareResult(sweeps)
        _emit_result(comparison, arguments, counterpoint)
    return 0 if comparison.feasible_models else 1


def _parse_weights(items):
    """Parse repeated ``--weight Prop=Value:W`` options."""
    weights = {}
    for item in items or ():
        try:
            prop, rest = item.split("=", 1)
            value, weight = rest.rsplit(":", 1)
            weights.setdefault(prop.strip(), {})[value.strip()] = float(weight)
        except ValueError:
            raise ReproError(
                "--weight expects Prop=Value:W, got %r" % (item,)
            ) from None
    return weights


def _simulate_model(arguments, argument_name):
    from repro.sim import as_mudd

    value = getattr(arguments, argument_name)
    if arguments.bundled:
        return as_mudd(value)
    return _load_model(value)


def cmd_simulate(arguments):
    from repro.pipeline import CounterPoint
    from repro.sim import batch_simulate, simulate_observation

    model = _simulate_model(arguments, "model")
    weights = _parse_weights(arguments.weight)
    if arguments.traces < 1:
        raise ReproError("--traces must be at least 1, got %d" % arguments.traces)
    if arguments.noisy and arguments.traces > 1:
        raise ReproError("--noisy applies to single-trace runs (drop --traces)")

    counters = None
    if arguments.traces > 1:
        result = batch_simulate(
            model,
            arguments.n_uops,
            n_traces=arguments.traces,
            weights=weights,
            seed=arguments.seed,
        )
        print(
            "%d traces x %d µops of %s (mean totals):"
            % (result.n_traces, arguments.n_uops, model.name)
        )
        # The mean of feasible trace totals stays in any convex cone, so
        # analyzing it keeps the diagonal-feasibility guarantee.
        totals = observation = result.mean()
    else:
        simulated = simulate_observation(
            model,
            n_uops=arguments.n_uops,
            weights=weights,
            seed=arguments.seed,
            noisy=arguments.noisy,
        )
        print("1 trace x %d µops of %s:" % (arguments.n_uops, model.name))
        if arguments.noisy:
            # Multiplexed measurement: report the scale-estimated totals
            # and analyze the confidence region, like perf data would be.
            counters = simulated.samples.counters
            means = simulated.samples.mean_observation()
            totals = {
                name: means[name] * simulated.samples.n_samples for name in means
            }
            observation = simulated.region()
        else:
            totals = observation = simulated.point()
    for name in sorted(totals):
        print("  %s=%g" % (name, totals[name]))

    if not arguments.analyze:
        return 0
    candidate = _simulate_model(arguments, "analyze")
    if counters is None:
        counters = sorted(totals)
    cone = _model_cone(candidate, arguments, counters=counters)
    with CounterPoint(
        backend=arguments.backend,
        workers=arguments.workers,
        cache_dir=arguments.cache_dir or None,
    ) as counterpoint:
        report = counterpoint.analyze(cone, observation)
    print(report.summary())
    return 0 if report.feasible else 1


def cmd_errata_check(arguments):
    counters = [name.strip() for name in arguments.counters.split(",") if name.strip()]
    findings = check_measurement_plan(counters, smt_enabled=arguments.smt)
    if not findings:
        print("OK: measurement plan is errata-clean.")
        return 0
    for name, erratum in findings:
        print("WARNING: %s is affected by %s: %s" % (
            name, erratum.erratum_id, erratum.description,
        ))
    return 1


def cmd_run(arguments):
    """Execute (or price, with ``--dry-run``) a serialized plan."""
    from repro.pipeline import CounterPoint
    from repro.plan import Plan

    with open(arguments.plan, "r", encoding="utf-8") as handle:
        plan = Plan.from_json(handle.read())
    with CounterPoint(
        backend=arguments.backend,
        confidence=arguments.confidence,
        workers=arguments.workers,
        cache_dir=arguments.cache_dir or None,
    ) as counterpoint:
        engine = counterpoint.plan_engine()
        if arguments.dry_run:
            report = engine.dry_run(plan)
            if arguments.json:
                print(report.to_json(indent=2))
            else:
                print(report.summary())
            return 0
        result = engine.run(plan)
        _emit_result(result, arguments, counterpoint)
    return 0


def _plan_model(value):
    """A model argument for plan authoring: a DSL file path (inlined as
    source, so the plan stays self-contained) or a bundled name."""
    import os

    if os.path.exists(value):
        with open(value, "r", encoding="utf-8") as handle:
            return handle.read()
    return value


def _plan_dataset(arguments):
    """The dataset spec a plan template sweeps over."""
    if arguments.simulate_from:
        return {"simulate": {
            "model": _plan_model(arguments.simulate_from),
            "n_observations": arguments.n_observations,
            "n_uops": arguments.n_uops,
            "seed": arguments.seed,
        }}
    return {"source": arguments.dataset, "scale": arguments.scale}


def cmd_plan(arguments):
    """Author a plan JSON from a template and bundled models/datasets."""
    from repro.plan import Plan

    models = [_plan_model(model) for model in arguments.models]
    plan = Plan()
    if arguments.template == "sweep":
        if len(models) != 1:
            raise ReproError("the sweep template takes exactly one model")
        plan.sweep(models[0], dataset=_plan_dataset(arguments),
                   explain=True, op_id="sweep")
    elif arguments.template == "compare":
        plan.compare(models, dataset=_plan_dataset(arguments),
                     explain=True, op_id="ranking")
    elif arguments.template == "cross-refute":
        plan.cross_refute(models, n_observations=arguments.n_observations,
                          n_uops=arguments.n_uops, seed=arguments.seed,
                          explain=True, op_id="matrix")
    else:  # closed-loop: the overlapping sweep+compare+matrix campaign
        data = plan.simulate_dataset(
            models[0], n_observations=arguments.n_observations,
            n_uops=arguments.n_uops, seed=arguments.seed, op_id="data",
        )
        for index, model in enumerate(models[1:]):
            plan.sweep(model, dataset=data, explain=True,
                       op_id="refute%d" % index)
        plan.compare(models, dataset=data, explain=True, op_id="ranking")
        plan.cross_refute(models, n_observations=arguments.n_observations,
                          n_uops=arguments.n_uops, seed=arguments.seed,
                          explain=True, op_id="matrix")
    text = plan.to_json(indent=2)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print("wrote %s (%d ops)" % (arguments.output, len(plan)))
    else:
        print(text)
    return 0


def cmd_trace_summarize(arguments):
    """Reduce a ``--trace`` JSONL file to the stable summary table."""
    import json

    from repro.obs import read_jsonl, render_summary, summarize_records

    records, metrics = read_jsonl(arguments.trace_file)
    summary = summarize_records(records, metrics=metrics)
    if arguments.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_summary(summary, top=arguments.top), end="")
    return 0


def cmd_show(arguments):
    """Load any serialized result by its ``kind`` tag and render it."""
    from repro.results import result_from_json

    with open(arguments.result, "r", encoding="utf-8") as handle:
        result = result_from_json(handle.read())
    summary = getattr(result, "summary", None)
    print(summary() if callable(summary) else repr(result))
    return 0


def cmd_serve(arguments):
    """Run the multi-tenant analysis daemon until interrupted."""
    from repro.serve import PlanService, ServeDaemon

    service = PlanService(
        workers=arguments.workers,
        max_queue=arguments.max_queue,
        cache_dir=arguments.cache_dir or None,
        backend=arguments.backend,
    )
    daemon = ServeDaemon(service, host=arguments.host, port=arguments.port)
    print("repro serve listening on %s (workers=%d, max-queue=%d%s)" % (
        daemon.url, arguments.workers, arguments.max_queue,
        ", cache-dir=%s" % arguments.cache_dir if arguments.cache_dir
        else "",
    ))
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        daemon.close()
    return 0


def _serve_client(arguments):
    from repro.serve import ServeClient

    return ServeClient(
        arguments.url, tenant=getattr(arguments, "tenant", "anon"),
    )


def cmd_submit(arguments):
    """POST a plan JSON file to a serve daemon."""
    import json

    client = _serve_client(arguments)
    with open(arguments.plan, "r", encoding="utf-8") as handle:
        plan = handle.read()
    status = client.submit(plan, priority=arguments.priority)
    if arguments.wait:
        status = client.wait(status["id"], timeout=arguments.timeout)
    if arguments.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        print("job %s: %s" % (status["id"], status["state"]))
        if status.get("errors"):
            for entry in status["errors"]:
                print("  op %s failed: %s" % (entry["op"], entry["error"]))
    return 0 if status["state"] not in ("failed", "cancelled") else 1


def cmd_status(arguments):
    """Report one job's state (or every job the daemon knows)."""
    import json

    client = _serve_client(arguments)
    if arguments.job:
        status = client.status(arguments.job)
        if arguments.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            print("job %s (tenant %s): %s" % (
                status["id"], status["tenant"], status["state"],
            ))
            progress = status.get("progress", {})
            print("  %d batches queued, %d executed" % (
                progress.get("queued", 0), progress.get("executed", 0),
            ))
            if status.get("stats"):
                print("  " + _render_plan_stats(status["stats"]))
            if status.get("error"):
                print("  error: %s" % status["error"])
        return 0
    jobs = client.jobs()
    if arguments.json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
    else:
        for status in jobs:
            print("%-12s %-10s %-9s %s" % (
                status["id"], status["tenant"], status["state"],
                status.get("error", ""),
            ))
    return 0


def _render_plan_stats(stats):
    return ("%(computed)d computed, %(memo_hits)d memo hits, "
            "%(store_hits)d store hits" % stats)


def cmd_fetch(arguments):
    """Download a finished job's canonical PlanResult bundle."""
    client = _serve_client(arguments)
    text = client.result_text(arguments.job)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print("wrote %s" % arguments.output)
    else:
        print(text)
    return 0


def cmd_cancel(arguments):
    """Request cooperative cancellation of a job."""
    client = _serve_client(arguments)
    status = client.cancel(arguments.job)
    print("job %s: %s (cancellation requested)" % (
        status["id"], status["state"],
    ))
    return 0


def _add_runtime_flags(subparser, workers_help):
    """The shared performance knobs (``--workers``, ``--cache-dir``)."""
    subparser.add_argument(
        "--workers", type=int, default=1, metavar="N", help=workers_help
    )
    subparser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent on-disk model-cone cache: deduced cones are "
             "stored here and reused across runs and processes "
             "(computed once per model, ever)")


def _add_trace_flags(subparser):
    """The shared observability knobs (``--trace``, ``--trace-format``),
    attached to every command by :func:`build_parser`."""
    subparser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a span/event trace of this invocation (LP solves, "
             "cone deduction, verdicts, simulation, cache activity — "
             "including pool workers) and write it here on exit")
    subparser.add_argument(
        "--trace-format", choices=("jsonl", "chrome"), default="jsonl",
        help="trace file format: jsonl (read by 'repro trace "
             "summarize') or chrome (load in Perfetto or "
             "chrome://tracing)")


def _add_stats_flag(subparser):
    subparser.add_argument(
        "--stats", action="store_true",
        help="report session cache effectiveness (computed cells vs "
             "memo/store hits); with --json, added as a top-level "
             "session_stats key")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CounterPoint: test µDD microarchitectural models "
                    "against hardware event counter (HEC) data — deduce "
                    "the linear constraints a model implies, refute models "
                    "whose constraints the data violates, and simulate "
                    "models to generate synthetic observations.",
        epilog="run 'python -m repro <command> --help' for per-command "
               "examples; see README.md for the 60-second tour",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    constraints = commands.add_parser(
        "constraints",
        help="deduce model constraints",
        description="Deduce and print the linear HEC constraints a µDD "
                    "model implies (the paper's Section 6 pipeline: "
                    "equalities from Gaussian elimination, facet "
                    "inequalities from the double description method).",
        epilog="example:\n"
               "  python -m repro constraints model.dsl\n"
               "  python -m repro constraints model.dsl --cache-dir .repro-cache",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    constraints.add_argument("model", help="DSL model file")
    constraints.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent on-disk model-cone cache (reused across runs)")
    constraints.set_defaults(handler=cmd_constraints)

    analyze = commands.add_parser(
        "analyze",
        help="test an observation against a model",
        description="Test one observation — exact counter totals or a "
                    "perf interval CSV summarised as a confidence region — "
                    "against a µDD model. Runs through the pipeline "
                    "session, so an infeasible verdict carries the full "
                    "violated-constraint analysis (the report is memoized "
                    "whole: with --cache-dir a repeat run is free). Exit "
                    "status: 0 feasible, 1 infeasible (the observation "
                    "refutes the model), 2 usage error.",
        epilog="examples:\n"
               "  python -m repro analyze model.dsl "
               "--observation load.causes_walk=5,load.pde\\$_miss=12\n"
               "  python -m repro analyze model.dsl --perf-csv run.csv "
               "--confidence 0.99 --violations\n"
               "  python -m repro analyze model.dsl --perf-csv run.csv "
               "--cache-dir .repro-cache",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    analyze.add_argument("model", help="DSL model file")
    source = analyze.add_mutually_exclusive_group(required=True)
    source.add_argument("--observation", help="comma-separated name=value totals")
    source.add_argument("--perf-csv", help="perf stat -I -x, interval CSV file")
    analyze.add_argument("--backend", default="exact", choices=("exact", "scipy"),
                         help="LP backend: exact rational simplex (certified "
                              "verdicts) or scipy/HiGHS (fast)")
    analyze.add_argument("--confidence", type=float, default=0.99,
                         help="confidence level for --perf-csv regions")
    analyze.add_argument("--independent", action="store_true",
                         help="use the independent-counter baseline region")
    analyze.add_argument("--violations", action="store_true",
                         help="list every violated model constraint (computed "
                              "for any infeasible verdict; this flag controls "
                              "printing)")
    analyze.add_argument("--json", action="store_true",
                         help="emit the AnalysisReport result schema as JSON "
                              "(exit status semantics unchanged)")
    _add_stats_flag(analyze)
    _add_runtime_flags(
        analyze,
        "process-pool size for sharded sweeps (a single-observation "
        "analysis itself runs in-process)")
    analyze.set_defaults(handler=cmd_analyze)

    render = commands.add_parser(
        "render",
        help="export a µDD as Graphviz dot",
        description="Compile a DSL model and export its µDD as Graphviz "
                    "dot (render with: dot -Tsvg out.dot -o out.svg).",
        epilog="example:\n  python -m repro render model.dsl -o model.dot",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    render.add_argument("model", help="DSL model file")
    render.add_argument("-o", "--output", help="output .dot path (stdout if omitted)")
    render.set_defaults(handler=cmd_render)

    case_study = commands.add_parser(
        "case-study",
        help="run the Table 3 sweep",
        description="Run the paper's Table 3 case study: sweep the "
                    "m-series Haswell MMU models over the simulated "
                    "standard dataset and report which observations each "
                    "model fails to explain (* marks feasible models).",
        epilog="examples:\n"
               "  python -m repro case-study\n"
               "  python -m repro case-study --workers 4 --cache-dir .repro-cache",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    case_study.add_argument("--scale", type=float, default=1.0,
                            help="workload scale factor for the dataset")
    case_study.add_argument("--json", action="store_true",
                            help="emit the CompareResult schema as JSON (with "
                                 "per-observation violated constraints)")
    _add_runtime_flags(
        case_study,
        "shard each model's dataset sweep across N worker processes")
    case_study.set_defaults(handler=cmd_case_study)

    def add_sweep_dataset_flags(subparser):
        """Dataset selection shared by ``sweep`` and ``compare``."""
        subparser.add_argument(
            "--dataset", choices=("standard", "noisy"), default="standard",
            help="bundled simulated-hardware dataset to sweep over")
        subparser.add_argument(
            "--scale", type=float, default=1.0,
            help="workload scale factor for the bundled datasets")
        subparser.add_argument(
            "--simulate-from", metavar="MODEL", default=None,
            help="sweep over a dataset simulated from this model instead "
                 "(DSL file, or bundled name with --bundled)")
        subparser.add_argument(
            "--n-observations", type=int, default=4,
            help="simulated dataset size for --simulate-from")
        subparser.add_argument(
            "--n-uops", type=int, default=20000,
            help="µops per simulated observation for --simulate-from")
        subparser.add_argument("--seed", type=int, default=0,
                               help="base seed for --simulate-from")
        subparser.add_argument(
            "--bundled", action="store_true",
            help="treat model arguments as bundled-model names")
        subparser.add_argument(
            "--backend", default="scipy", choices=("exact", "scipy"),
            help="LP backend (scipy/HiGHS is the fast sweep default)")
        subparser.add_argument(
            "--confidence", type=float, default=0.99,
            help="confidence level for --use-regions")
        subparser.add_argument(
            "--use-regions", action="store_true",
            help="test confidence regions instead of exact totals")
        subparser.add_argument(
            "--independent", action="store_true",
            help="with --use-regions, use the independent-counter baseline")
        subparser.add_argument(
            "--json", action="store_true",
            help="emit the result schema as JSON")
        _add_stats_flag(subparser)

    sweep = commands.add_parser(
        "sweep",
        help="evaluate one model against a dataset",
        description="Evaluate one µDD model against a whole dataset of "
                    "observations and report which observations it fails "
                    "to explain — with the violated model constraint per "
                    "failure. Verdicts are memoized on disk with "
                    "--cache-dir, so re-sweeping a grown dataset only "
                    "tests the new observations. Exit status: 0 the model "
                    "explains everything, 1 it was refuted, 2 usage error.",
        epilog="examples:\n"
               "  python -m repro sweep model.dsl --scale 0.3\n"
               "  python -m repro sweep --bundled pde_refined "
               "--simulate-from pde_initial --json\n"
               "  python -m repro sweep model.dsl --workers 4 "
               "--cache-dir .repro-cache",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sweep.add_argument("model", help="DSL model file (or bundled name with --bundled)")
    add_sweep_dataset_flags(sweep)
    _add_runtime_flags(
        sweep, "shard the dataset sweep across N worker processes")
    sweep.set_defaults(handler=cmd_sweep)

    compare = commands.add_parser(
        "compare",
        help="rank a model family over a dataset",
        description="Sweep several candidate models over one dataset and "
                    "rank them by how many observations each fails to "
                    "explain (the paper's Table 3 workflow). Exit status: "
                    "0 when at least one model explains the whole "
                    "dataset, 1 when every model is refuted.",
        epilog="examples:\n"
               "  python -m repro compare a.dsl b.dsl --scale 0.3\n"
               "  python -m repro compare --bundled pde_initial pde_refined "
               "--simulate-from pde_refined --json\n"
               "  python -m repro compare a.dsl b.dsl --workers 4 "
               "--cache-dir .repro-cache",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    compare.add_argument("models", nargs="+",
                         help="DSL model files (or bundled names with --bundled)")
    add_sweep_dataset_flags(compare)
    _add_runtime_flags(
        compare, "shard each model's sweep across N worker processes")
    compare.set_defaults(handler=cmd_compare)

    run = commands.add_parser(
        "run",
        help="execute a declarative plan",
        description="Execute a serialized repro.plan experiment spec: "
                    "compile the whole campaign into one content-"
                    "addressed task DAG, deduplicate overlapping ops "
                    "globally, and run it — or price it first with "
                    "--dry-run (task and cache estimates, no solving). "
                    "With --cache-dir, interrupted runs resume: cells "
                    "already answered by the artifact store are never "
                    "recomputed. Exit status: 0 whenever the plan "
                    "executes — a campaign's refutations are results, "
                    "reported in the output, not failures; 2 usage error.",
        epilog="examples:\n"
               "  python -m repro run examples/plans/closed_loop.json\n"
               "  python -m repro run plan.json --dry-run --json\n"
               "  python -m repro run plan.json --workers 4 "
               "--cache-dir .repro-cache --stats",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run.add_argument("plan", help="plan JSON file (author one with "
                                  "'python -m repro plan ...')")
    run.add_argument("--backend", default="exact", choices=("exact", "scipy"),
                     help="LP backend for every verdict in the plan")
    run.add_argument("--confidence", type=float, default=0.99,
                     help="confidence level for region-mode sweeps")
    run.add_argument("--dry-run", action="store_true",
                     help="report task counts, global-dedup savings, and "
                          "cache estimates without simulating or solving")
    run.add_argument("--json", action="store_true",
                     help="emit the PlanResult (or dry-run report) schema "
                          "as JSON")
    _add_stats_flag(run)
    _add_runtime_flags(
        run, "shard simulations and pending verdict cells across N "
             "worker processes")
    run.set_defaults(handler=cmd_run)

    plan = commands.add_parser(
        "plan",
        help="author a plan JSON from a template",
        description="Write a repro.plan experiment spec from a template: "
                    "'sweep' (one model over a dataset), 'compare' (rank "
                    "a family), 'cross-refute' (the closed-loop matrix), "
                    "or 'closed-loop' (simulate from the first model, "
                    "sweep and rank every model over it, plus the full "
                    "matrix — deliberately overlapping, so the planner's "
                    "global deduplication does the sharing). Models are "
                    "bundled names or DSL file paths (inlined as source, "
                    "so the plan is self-contained).",
        epilog="examples:\n"
               "  python -m repro plan closed-loop "
               "--models pde_refined pde_initial -o plan.json\n"
               "  python -m repro plan compare --models pde_initial "
               "pde_refined --simulate-from pde_refined\n"
               "  python -m repro plan sweep --models model.dsl "
               "--dataset noisy --scale 0.3",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    plan.add_argument("template",
                      choices=("sweep", "compare", "cross-refute",
                               "closed-loop"),
                      help="campaign shape to generate")
    plan.add_argument("--models", nargs="+", required=True,
                      help="bundled model names or DSL file paths")
    plan.add_argument("--dataset", choices=("standard", "noisy"),
                      default="standard",
                      help="bundled dataset for sweep/compare templates")
    plan.add_argument("--scale", type=float, default=1.0,
                      help="bundled-dataset workload scale factor")
    plan.add_argument("--simulate-from", metavar="MODEL", default=None,
                      help="sweep over a dataset simulated from this model "
                           "instead of a bundled dataset")
    plan.add_argument("--n-observations", type=int, default=3,
                      help="simulated dataset size")
    plan.add_argument("--n-uops", type=int, default=20000,
                      help="µops per simulated observation")
    plan.add_argument("--seed", type=int, default=0,
                      help="base seed for simulated datasets")
    plan.add_argument("-o", "--output",
                      help="output .json path (stdout if omitted)")
    plan.set_defaults(handler=cmd_plan)

    show = commands.add_parser(
        "show",
        help="render any serialized result",
        description="Load a serialized result of any kind — an "
                    "AnalysisReport, ModelSweep, CompareResult, "
                    "RefutationMatrix, a PlanResult bundle, a plan spec "
                    "— by its schema's kind tag and print its summary.",
        epilog="examples:\n"
               "  python -m repro sweep model.dsl --json > sweep.json\n"
               "  python -m repro show sweep.json\n"
               "  python -m repro run plan.json --json > result.json\n"
               "  python -m repro show result.json",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    show.add_argument("result", help="serialized result JSON file")
    show.set_defaults(handler=cmd_show)

    simulate = commands.add_parser(
        "simulate",
        help="execute a µDD and emit synthetic counter totals",
        description="Execute a µDD with the repro.sim engine and print "
                    "synthetic counter totals; optionally close the loop "
                    "by testing the simulated observation against a second "
                    "model (exit 1 when the candidate is refuted).",
        epilog="examples:\n"
               "  python -m repro simulate model.dsl --n-uops 50000\n"
               "  python -m repro simulate --bundled merging_load_side \\\n"
               "      --weight Merged=Yes:3 --analyze no_merging_load_side\n"
               "  python -m repro simulate --bundled pde_initial --noisy "
               "--analyze pde_refined --cache-dir .repro-cache",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    simulate.add_argument("model", help="DSL model file (or bundled name with --bundled)")
    simulate.add_argument("--bundled", action="store_true",
                          help="treat model arguments as bundled-model names")
    simulate.add_argument("--n-uops", type=int, default=20000,
                          help="µops per simulated trace")
    simulate.add_argument("--traces", type=int, default=1,
                          help="batched trace count (prints mean totals)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--weight", action="append", metavar="PROP=VALUE:W",
                          help="bias a branch choice (repeatable)")
    simulate.add_argument("--noisy", action="store_true",
                          help="replay the run through counter multiplexing: print "
                               "scale-estimated totals and analyze the confidence "
                               "region (single trace only)")
    simulate.add_argument("--analyze", metavar="MODEL",
                          help="close the loop: test the simulated observation "
                               "against another model (exit 1 when refuted)")
    simulate.add_argument("--backend", default="exact", choices=("exact", "scipy"),
                          help="LP backend for --analyze verdicts")
    _add_runtime_flags(
        simulate,
        "process-pool size for sharded sweeps (single-run simulation "
        "itself is vectorised in-process)")
    simulate.set_defaults(handler=cmd_simulate)

    errata = commands.add_parser(
        "errata-check",
        help="check a measurement plan",
        description="Pre-flight a measurement plan against the known "
                    "counter errata (e.g. HSD29/HSM30): warn when a "
                    "planned counter is unreliable in this configuration.",
        epilog="example:\n"
               "  python -m repro errata-check "
               "--counters load.causes_walk,load.stlb_hit --smt",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    errata.add_argument("--counters", required=True,
                        help="comma-separated counter names (paper-style)")
    errata.add_argument("--smt", action="store_true", help="SMT enabled")
    errata.set_defaults(handler=cmd_errata_check)

    trace = commands.add_parser(
        "trace",
        help="inspect --trace files",
        description="Tooling for the trace files every command records "
                    "with --trace: 'summarize' reduces a JSONL trace to "
                    "a plain-text breakdown of span totals, cache "
                    "hit-rates per tier, and the LP solve-time "
                    "histogram.",
        epilog="examples:\n"
               "  python -m repro run plan.json --trace run.jsonl\n"
               "  python -m repro trace summarize run.jsonl\n"
               "  python -m repro trace summarize run.jsonl --json",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    trace_commands = trace.add_subparsers(dest="trace_command",
                                          required=True)
    summarize = trace_commands.add_parser(
        "summarize",
        help="reduce a JSONL trace to a breakdown table",
        description="Load a JSONL trace file (validating its schema) "
                    "and print span totals, phase counts, cache "
                    "hit-rates per tier, and the LP solve-time "
                    "histogram.",
    )
    summarize.add_argument("trace_file", help="JSONL trace file "
                                              "(from --trace)")
    summarize.add_argument("--top", type=int, default=15,
                           help="span rows to show (by cumulative time)")
    summarize.add_argument("--json", action="store_true",
                           help="emit the summary dict as JSON instead "
                                "of the table")
    summarize.set_defaults(handler=cmd_trace_summarize)

    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant analysis daemon",
        description="Run the repro.serve HTTP daemon: clients POST plan "
                    "JSON to /v1/plans and get a job id back, poll or "
                    "stream per-cell progress, cancel jobs, and fetch "
                    "canonical PlanResult bundles. All tenants share one "
                    "content-addressed task space — overlapping plans "
                    "compute each cell exactly once (per daemon lifetime, "
                    "or ever with --cache-dir) — scheduled with weighted "
                    "fair sharing across tenants and priority classes. "
                    "Submissions beyond --max-queue are rejected with "
                    "HTTP 429 + Retry-After.",
        epilog="examples:\n"
               "  python -m repro serve --port 8651 --workers 4 "
               "--cache-dir .repro-cache\n"
               "  python -m repro serve --host 0.0.0.0 --max-queue 32",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind")
    serve.add_argument("--port", type=int, default=8651,
                       help="TCP port to bind (0 picks an ephemeral port)")
    serve.add_argument("--max-queue", type=int, default=16, metavar="N",
                       help="admission bound: jobs queued or running "
                            "beyond this are rejected with HTTP 429 + "
                            "Retry-After (backpressure)")
    serve.add_argument("--backend", default="exact",
                       choices=("exact", "scipy"),
                       help="LP backend for every verdict the daemon "
                            "computes")
    _add_runtime_flags(
        serve, "worker threads draining the shared fair queue (cell "
               "batches from every tenant's jobs)")
    serve.set_defaults(handler=cmd_serve)

    def add_client_flags(subparser):
        """Daemon-address flags shared by the client commands."""
        subparser.add_argument(
            "--url", default="http://127.0.0.1:8651",
            help="base URL of the serve daemon")

    submit = commands.add_parser(
        "submit",
        help="POST a plan to a serve daemon",
        description="Submit a serialized repro.plan spec to a running "
                    "'repro serve' daemon and print the job id. The "
                    "daemon deduplicates against every other tenant's "
                    "work: cells any earlier job computed are cache "
                    "hits. With --wait, block until the job finishes "
                    "(exit 1 when it failed or was cancelled).",
        epilog="examples:\n"
               "  python -m repro submit examples/plans/closed_loop.json\n"
               "  python -m repro submit plan.json --tenant alice "
               "--priority high --wait\n"
               "  python -m repro submit plan.json --url "
               "http://analysis-host:8651 --json",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    submit.add_argument("plan", help="plan JSON file (author one with "
                                     "'python -m repro plan ...')")
    add_client_flags(submit)
    submit.add_argument("--tenant", default="anon",
                        help="tenant identity for fair-share scheduling "
                             "and per-tenant metrics")
    submit.add_argument("--priority", default="normal",
                        choices=("high", "normal", "low"),
                        help="priority class (weighted fair share, never "
                             "starvation)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job reaches a terminal state")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="seconds to block with --wait")
    submit.add_argument("--json", action="store_true",
                        help="print the full job status document as JSON")
    submit.set_defaults(handler=cmd_submit)

    status = commands.add_parser(
        "status",
        help="report serve job states",
        description="Report one job's state, progress, and cache "
                    "statistics — or, without a job id, list every job "
                    "the daemon knows, most recent first.",
        epilog="examples:\n"
               "  python -m repro status\n"
               "  python -m repro status job-000001 --json",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    status.add_argument("job", nargs="?", default=None,
                        help="job id (omit to list all jobs)")
    add_client_flags(status)
    status.add_argument("--json", action="store_true",
                        help="print status documents as JSON")
    status.set_defaults(handler=cmd_status)

    fetch = commands.add_parser(
        "fetch",
        help="download a finished job's result bundle",
        description="Download the canonical PlanResult bundle of a "
                    "finished job — the same schema 'repro run --json' "
                    "emits, loadable with 'repro show'. Identical "
                    "submitted plans fetch byte-identical bundles.",
        epilog="examples:\n"
               "  python -m repro fetch job-000001 -o result.json\n"
               "  python -m repro fetch job-000001 | python -m repro "
               "show /dev/stdin",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    fetch.add_argument("job", help="job id")
    add_client_flags(fetch)
    fetch.add_argument("-o", "--output",
                       help="output .json path (stdout if omitted)")
    fetch.set_defaults(handler=cmd_fetch)

    cancel = commands.add_parser(
        "cancel",
        help="cancel a serve job",
        description="Request cooperative cancellation of a job: queued "
                    "jobs cancel at admission, running jobs at the next "
                    "batch boundary. Cells already computed stay in the "
                    "shared store, so re-submitting the same plan "
                    "resumes where the cancelled job stopped.",
        epilog="example:\n"
               "  python -m repro cancel job-000001",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    cancel.add_argument("job", help="job id")
    add_client_flags(cancel)
    cancel.set_defaults(handler=cmd_cancel)

    # Every command records: --trace/--trace-format are universal, like
    # --help. (Except the trace tooling itself, which reads trace files
    # rather than producing them.)
    for name, subcommand in commands.choices.items():
        if name != "trace":
            _add_trace_flags(subcommand)
    return parser


def _run_traced(arguments):
    """Run a command handler, honouring ``--trace``.

    The tracer is process-wide for the handler's extent — every layer
    (and every pool worker, via the shipped-records protocol) records
    into it — and the trace file is written on *every* exit path, so a
    failing run still leaves its timeline behind for diagnosis.
    """
    trace_path = getattr(arguments, "trace", None)
    if not trace_path:
        return arguments.handler(arguments)
    from repro.obs import Tracer, activate, write_trace

    tracer = Tracer()
    try:
        with activate(tracer):
            return arguments.handler(arguments)
    finally:
        write_trace(trace_path, tracer.drain(),
                    metrics=tracer.metrics.as_dict(),
                    fmt=arguments.trace_format)
        print("wrote trace to %s" % trace_path, file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return _run_traced(arguments)
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
