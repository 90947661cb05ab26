"""Plan execution: one engine, global dedup, resumable runs.

:class:`PlanEngine` runs a compiled plan against a
:class:`~repro.pipeline.CounterPoint` pipeline. Simulation tasks run
first (each exactly once, however many ops consume them); verdict cells
then execute through the pipeline's
:class:`~repro.results.session.AnalysisSession`, whose content-addressed
memo is the execution-level deduplication tier — a cell any earlier op,
earlier plan, or earlier *process* (via the session's
:class:`~repro.results.store.ArtifactStore`) already answered is never
recomputed, which is also what makes interrupted runs resumable: re-run
the same plan with the same ``cache_dir`` and only pending cells
execute.

Results come back as a :class:`PlanResult` — a keyed, serializable
bundle of the existing :mod:`repro.results` types plus the run's
scheduling/cache statistics. :meth:`PlanEngine.dry_run` prices a plan
without simulating or solving anything: task counts after global
deduplication, the dedup savings, and (where content keys are
computable up front) how many cells the store already answers.
"""

import functools
import time
from collections import Counter
from collections.abc import Mapping

from repro.errors import AnalysisError, JobCancelled
from repro.obs.trace import OBS_SCHEMA_VERSION, activate, tracer_for
from repro.plan.compiler import compile_plan
from repro.plan.schedulers import SerialScheduler, scheduler_for
from repro.results.base import ResultBase, register, result_from_dict
from repro.results.types import CompareResult, RefutationMatrix


@register
class DatasetSummary(ResultBase):
    """The serializable face of a ``simulate_dataset`` op's output.

    The live :class:`~repro.models.dataset.Observation` objects stay
    in-memory on :attr:`PlanResult.datasets`; this summary is what
    survives JSON.
    """

    kind = "dataset_summary"

    def __init__(self, model_name, names, n_uops, seed):
        self.model_name = model_name
        self.names = list(names)
        self.n_uops = n_uops
        self.seed = seed

    @property
    def n_observations(self):
        return len(self.names)

    def summary(self):
        return "simulated dataset: %d observations of %s (%d uops, seed %d)" % (
            self.n_observations, self.model_name, self.n_uops, self.seed,
        )

    def _payload(self):
        return {
            "model": self.model_name,
            "names": list(self.names),
            "n_uops": self.n_uops,
            "seed": self.seed,
        }

    @classmethod
    def _from_payload(cls, payload):
        return cls(
            payload["model"], payload["names"], payload["n_uops"],
            payload["seed"],
        )

    def __repr__(self):
        return "DatasetSummary(%d x %s)" % (self.n_observations, self.model_name)


@register
class PlanResult(ResultBase, Mapping):
    """A keyed bundle of op results: ``{op_id: result}``.

    A read-only ordered mapping whose values are the familiar
    :mod:`repro.results` types (``AnalysisReport``, ``ModelSweep``,
    ``CompareResult``, ``RefutationMatrix``, :class:`DatasetSummary`),
    plus the run's :attr:`stats` — scheduled simulations/cells after
    global deduplication and how the executed cells split into
    computed / memo-hit / store-hit. ``datasets`` carries the live
    simulated observations per ``simulate_dataset`` op id (in-memory
    only; not serialized).

    ``timing`` is the run's wall-clock breakdown — total, the
    simulation phase, and per-op seconds, stamped with the
    :mod:`repro.obs` schema version. Engine runs always record it;
    hand-built results (and results loaded from pre-observability
    JSON) carry ``None``, and the key is omitted from the payload so
    old golden files stay valid.
    """

    kind = "plan_result"

    def __init__(self, results, stats=None, timing=None, errors=None):
        if isinstance(results, Mapping):
            entries = list(results.items())
        else:
            entries = list(results)
        self._results = dict(entries)
        if len(self._results) != len(entries):
            raise AnalysisError("duplicate op ids in plan result")
        self.stats = dict(stats or {})
        self.timing = None if timing is None else dict(timing)
        # Structured per-op failures from an error-collecting run
        # (PlanEngine.run(collect_errors=True)): op id, op kind, the
        # failed cells' plan-level content keys, and the exception
        # repr. Empty on the default raise-first path, and omitted from
        # the payload when empty so pre-existing golden files and
        # result readers are unaffected.
        self.errors = [dict(entry) for entry in errors or ()]
        self.datasets = {}

    # -- mapping protocol --------------------------------------------------
    def __getitem__(self, op_id):
        return self._results[op_id]

    def __iter__(self):
        return iter(self._results)

    def __len__(self):
        return len(self._results)

    def summary(self):
        lines = ["plan result: %d ops" % len(self._results)]
        if self.errors:
            lines.append("  %d op(s) FAILED:" % len(self.errors))
            for entry in self.errors:
                lines.append("    %s (%s): %s" % (
                    entry.get("op"), entry.get("kind"), entry.get("error"),
                ))
        if self.stats:
            lines.append(
                "  scheduled %d simulations + %d cells (%d requested, "
                "%d deduplicated); %d computed, %d memo hits, %d store hits"
                % (
                    self.stats.get("simulations", 0),
                    self.stats.get("cells", 0),
                    self.stats.get("cells_requested", 0),
                    self.stats.get("deduplicated", 0),
                    self.stats.get("computed", 0),
                    self.stats.get("memo_hits", 0),
                    self.stats.get("store_hits", 0),
                )
            )
        if self.timing is not None:
            lines.append(
                "  %.3fs total (%.3fs simulating)" % (
                    self.timing.get("total_seconds", 0.0),
                    self.timing.get("simulate_seconds", 0.0),
                )
            )
        for op_id, result in self._results.items():
            lines.append("")
            lines.append("== %s ==" % (op_id,))
            lines.append(result.summary())
        return "\n".join(lines)

    def _payload(self):
        payload = {
            "results": {
                op_id: result.to_dict()
                for op_id, result in self._results.items()
            },
            "order": list(self._results),
            "stats": dict(self.stats),
        }
        if self.timing is not None:
            payload["timing"] = dict(self.timing)
        if self.errors:
            payload["errors"] = [dict(entry) for entry in self.errors]
        return payload

    @classmethod
    def _from_payload(cls, payload):
        return cls(
            [
                (op_id, result_from_dict(payload["results"][op_id]))
                for op_id in payload["order"]
            ],
            stats=payload["stats"],
            timing=payload.get("timing"),
            errors=payload.get("errors"),
        )

    def __repr__(self):
        return "PlanResult(%d ops: %s)" % (
            len(self._results), ", ".join(self._results),
        )


@register
class DryRunReport(ResultBase):
    """What a plan *would* execute — priced without solving.

    ``cells`` / ``simulations`` / ``reports`` count scheduled tasks
    after global deduplication; ``cells_requested`` is the total before
    it. ``cache_known_hits`` counts cells whose content keys are
    computable up front (inline/bundled datasets) and already answered
    by the session or its store; ``cache_unknown`` cells depend on
    simulated data, so their cache state is only knowable at run time.
    On a cold cache, a real run's ``computed`` equals ``cells``.
    """

    kind = "plan_dry_run"

    def __init__(self, ops, tasks, cache):
        self.ops = [dict(entry) for entry in ops]
        self.tasks = dict(tasks)
        self.cache = dict(cache)

    def summary(self):
        lines = [
            "dry run: %d simulations, %d verdict cells, %d reports" % (
                self.tasks["simulations"],
                self.tasks["cells"],
                self.tasks["reports"],
            ),
            "  %d cells requested, %d deduplicated away" % (
                self.tasks["cells_requested"], self.tasks["deduplicated"],
            ),
            "  cache: %d known hits, %d unknown until simulated" % (
                self.cache["known_hits"], self.cache["unknown"],
            ),
        ]
        for entry in self.ops:
            lines.append("  %-16s %-16s %d cells" % (
                entry["id"], entry["op"], entry["cells"],
            ))
        return "\n".join(lines)

    def _payload(self):
        return {
            "ops": [dict(entry) for entry in self.ops],
            "tasks": dict(self.tasks),
            "cache": dict(self.cache),
        }

    @classmethod
    def _from_payload(cls, payload):
        return cls(payload["ops"], payload["tasks"], payload["cache"])

    def __repr__(self):
        return "DryRunReport(%d cells, %d simulations)" % (
            self.tasks["cells"], self.tasks["simulations"],
        )


class _InlineObservation:
    """Observation shape for JSON-inlined ``{"name", "point"}`` entries."""

    __slots__ = ("name", "_point")

    def __init__(self, name, point):
        self.name = name
        self._point = dict(point)

    def point(self):
        return dict(self._point)


class PlanEngine:
    """Compile-and-execute front end over one pipeline.

    Parameters
    ----------
    pipeline:
        The :class:`~repro.pipeline.CounterPoint` whose backend,
        confidence, cone cache, session (memo + artifact store), and
        process pool the plan executes against.
    """

    def __init__(self, pipeline):
        self.pipeline = pipeline

    # -- execution ---------------------------------------------------------
    def run(self, plan, scheduler=None, collect_errors=False):
        """Execute ``plan``; returns a :class:`PlanResult`.

        ``scheduler`` overrides the default execution strategy
        (:func:`~repro.plan.schedulers.scheduler_for`: pool when the
        pipeline is parallel, serial otherwise).

        With ``collect_errors`` a failing op no longer aborts the run:
        the op is skipped, its failure is recorded on
        :attr:`PlanResult.errors` as a structured entry — op id, op
        kind, the affected cells' plan-level content keys, and the
        exception repr — and the remaining ops still execute (the
        partial-failure contract the serve daemon reports through).
        The default keeps the facade's historic raise-first behaviour.
        Cancellation (:class:`repro.errors.JobCancelled`) always
        propagates, in either mode.

        The run executes under the pipeline's tracer (or the active
        one): per-op spans, scheduler/cell spans in the layers below,
        and a wall-clock ``timing`` breakdown on the returned
        :class:`PlanResult` either way.
        """
        with activate(tracer_for(self.pipeline)) as tracer:
            with tracer.span("plan.run"):
                return self._execute(plan, scheduler, tracer, collect_errors)

    def _execute(self, plan, scheduler, tracer, collect_errors=False):
        started = time.perf_counter()
        compiled = compile_plan(plan, self.pipeline)
        if scheduler is None:
            scheduler = scheduler_for(self.pipeline)
        session = self.pipeline.session()

        sim_started = time.perf_counter()
        datasets = {}
        sim_errors = {}
        for key, task in compiled.sims.items():
            try:
                datasets[key] = scheduler.simulate(self.pipeline, task)
            except JobCancelled:
                raise
            except Exception as error:
                if not collect_errors:
                    raise
                sim_errors[key] = repr(error)
        simulate_seconds = time.perf_counter() - sim_started
        bundled = {
            slot: observations
            for slot, observations in compiled.bundled_sizes.items()
        }

        results = []
        errors = []
        live_datasets = {}
        op_seconds = {}
        # The session counts this run's own outcomes into these, so
        # concurrent runs on one session never see each other's work.
        # Analyze ops stay apart from verdict cells, so computed ==
        # cells on a cold cache and cells_requested == computed +
        # memo_hits + store_hits hold for every plan.
        cells = Counter()
        reports = Counter()
        for op_id in compiled.op_order:
            kind, payload = compiled.assembly[op_id]
            op_started = time.perf_counter()
            try:
                self._run_op(
                    op_id, kind, payload, compiled, datasets, bundled,
                    scheduler, session, tracer, results, live_datasets,
                    cells, reports,
                )
            except JobCancelled:
                raise
            except Exception as error:
                if not collect_errors:
                    raise
                errors.append(
                    self._op_error(compiled, op_id, kind, payload,
                                   error, sim_errors)
                )
            op_seconds[op_id] = time.perf_counter() - op_started

        counts = compiled.counts()
        stats = {
            "simulations": counts["simulations"],
            "cells": counts["cells"],
            "cells_requested": counts["cells_requested"],
            "deduplicated": counts["deduplicated"],
            "computed": cells["tests"],
            "memo_hits": cells["memo_hits"],
            "store_hits": cells["store_hits"],
            "reports": reports["reports"],
            "report_hits": reports["memo_hits"] + reports["store_hits"],
        }
        timing = {
            "schema": OBS_SCHEMA_VERSION,
            "total_seconds": time.perf_counter() - started,
            "simulate_seconds": simulate_seconds,
            "ops": op_seconds,
        }
        result = PlanResult(results, stats=stats, timing=timing,
                            errors=errors)
        result.datasets = live_datasets
        return result

    def _run_op(self, op_id, kind, payload, compiled, datasets, bundled,
                scheduler, session, tracer, results, live_datasets,
                cells, reports):
        """Dispatch one assembled op under its ``plan.op`` span; the
        session counts its outcomes into the ``cells`` (sweeps) and
        ``reports`` (analyze ops) tallies."""
        with tracer.span("plan.op", op=op_id, kind=kind):
            if kind == "dataset":
                task = compiled.sims[payload]
                observations = datasets[payload]
                live_datasets[op_id] = observations
                results.append((op_id, DatasetSummary(
                    getattr(task.model, "name", str(task.model)),
                    [observation.name for observation in observations],
                    task.n_uops,
                    task.seed,
                )))
            elif kind == "report":
                report = session.analyze(
                    payload.model, payload.observation,
                    explain=payload.explain, tally=reports,
                )
                results.append((op_id, report))
            elif kind == "sweep":
                results.append((op_id, self._run_unit(
                    payload, datasets, bundled, scheduler, session, cells,
                )))
            elif kind == "compare":
                # A list, not a dict: CompareResult's duplicate-name
                # guard must see every sweep.
                results.append((op_id, CompareResult([
                    self._run_unit(
                        unit, datasets, bundled, scheduler, session, cells
                    )
                    for unit in payload
                ])))
            elif kind == "matrix":
                results.append((op_id, RefutationMatrix({
                    observed: CompareResult({
                        candidate: self._run_unit(
                            unit, datasets, bundled, scheduler, session,
                            cells,
                        )
                        for candidate, unit in row
                    })
                    for observed, row in payload
                })))

    def _op_error(self, compiled, op_id, kind, payload, error, sim_errors):
        """The structured job-error entry for one failed op: its id and
        kind, every affected cell's plan-level content key, and the
        exception repr — with a failed upstream simulation reported as
        the root cause rather than the downstream ``KeyError``."""
        cells = []
        cause = repr(error)
        for unit in compiled.units:
            if unit.op_id != op_id:
                continue
            cells.extend(unit.cell_keys)
            source = unit.dataset
            if source.kind == "sim" and source.sim_key in sim_errors:
                cause = sim_errors[source.sim_key]
        if kind == "dataset" and payload in sim_errors:
            cause = sim_errors[payload]
        return {"op": op_id, "kind": kind, "cells": cells, "error": cause}

    def _run_unit(self, unit, datasets, bundled, scheduler, session, tally):
        """Execute one (model, dataset, mode) sweep unit.

        Simulated datasets define the cone's counter ordering (the
        ``cross_refute`` rule — so every op touching the same simulated
        cell builds the same cone and shares its verdicts); bundled
        hardware datasets are projected onto the model's counter scope;
        inline observations run exactly like a facade ``sweep`` call.
        """
        observations, counters = self._observations(unit, datasets, bundled)
        cone = self.pipeline.model_cone(unit.model, counters=counters)
        if unit.dataset.kind == "bundled":
            from repro.models.dataset import project_observations

            observations = project_observations(observations, cone)
        return session.sweep(
            cone,
            observations,
            use_regions=unit.use_regions,
            correlated=unit.correlated,
            explain=unit.explain,
            compute=functools.partial(scheduler.compute, session),
            tally=tally,
        )

    def _observations(self, unit, datasets, bundled):
        source = unit.dataset
        if source.kind == "sim":
            observations = datasets[source.sim_key]
            return observations, observations[0].samples.counters
        if source.kind == "bundled":
            slot = (source.source, repr(float(source.scale)))
            return list(bundled[slot]), None
        return [
            _InlineObservation(entry["name"], entry["point"])
            if isinstance(entry, dict) and set(entry) == {"name", "point"}
            else entry
            for entry in source.observations
        ], None

    # -- pricing -----------------------------------------------------------
    def dry_run(self, plan):
        """Price ``plan`` without simulating or solving anything.

        Returns a :class:`DryRunReport`. Cache probing is best-effort:
        cells over inline or bundled datasets have compile-time content
        keys, so the session memo and artifact store can be consulted;
        cells over simulated data are reported as ``unknown``.
        """
        compiled = compile_plan(plan, self.pipeline)
        session = self.pipeline.session()
        counts = compiled.counts()

        known_hits = 0
        unknown = 0
        probed = set()
        for unit in compiled.units:
            if unit.dataset.kind == "sim":
                fresh = [
                    key for key in unit.cell_keys if key not in probed
                ]
                probed.update(fresh)
                unknown += len(fresh)
                continue
            observations, _ = self._observations(
                unit, {}, compiled.bundled_sizes
            )
            cone = self.pipeline.model_cone(unit.model)
            if unit.dataset.kind == "bundled":
                from repro.models.dataset import project_observations

                observations = project_observations(observations, cone)
            for plan_key, observation in zip(unit.cell_keys, observations):
                if plan_key in probed:
                    continue
                probed.add(plan_key)
                if session.has_verdict(
                    cone, observation, unit.use_regions, unit.correlated,
                    unit.explain,
                ):
                    known_hits += 1

        ops = []
        for op_id in compiled.op_order:
            op = compiled.plan.op(op_id)
            cells = sum(
                len(unit.cell_keys) for unit in compiled.units
                if unit.op_id == op_id
            )
            ops.append({"id": op_id, "op": op.kind, "cells": cells})
        return DryRunReport(
            ops,
            tasks={
                "simulations": counts["simulations"],
                "cells": counts["cells"],
                "cells_requested": counts["cells_requested"],
                "deduplicated": counts["deduplicated"],
                "reports": counts["reports"],
            },
            cache={"known_hits": known_hits, "unknown": unknown},
        )

    def __repr__(self):
        return "PlanEngine(%r)" % (self.pipeline,)


# Re-exported so `scheduler=SerialScheduler()` reads naturally at call
# sites that import only the engine module.
__all__ = [
    "DatasetSummary",
    "DryRunReport",
    "PlanEngine",
    "PlanResult",
    "SerialScheduler",
]
