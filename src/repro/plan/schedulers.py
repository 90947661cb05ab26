"""Pluggable execution strategies for compiled plans.

A scheduler answers exactly two questions — how simulation tasks run,
and how a batch of pending verdict cells is computed — so swapping one
can never change results, only wall-clock:

* :class:`SerialScheduler` — everything in-process, no pool, nothing
  pickled. The reference semantics.
* :class:`PoolScheduler` — simulation tasks shard by run index and
  verdict batches shard by cell chunk across the pipeline's
  :class:`~repro.parallel.ParallelRunner` process pool. It is the only
  route from a facade call or plan to the pool, and its results are
  bit-for-bit equal to serial ones.
* :class:`~repro.serve.queue.QueueScheduler` — the serve daemon's
  strategy: every batch becomes a work item on one shared weighted-
  fair queue (per-tenant virtual-time clocks, priority classes,
  bounded-queue backpressure, cooperative cancellation), drained by
  worker threads running the :class:`SerialScheduler` bodies — so
  queued results are bit-for-bit equal to serial ones too.
* the dry-run path (:meth:`repro.plan.engine.PlanEngine.dry_run`) runs
  no scheduler at all — it prices the compiled DAG without simulating
  or solving.

Engines pick a default with :func:`scheduler_for` (pool when the
pipeline is parallel, serial otherwise); pass one explicitly to
override, e.g. forcing a serial run on a ``workers=8`` pipeline.
"""

from repro.obs.trace import get_tracer


class SerialScheduler:
    """Run every task in-process (the reference execution)."""

    def simulate(self, pipeline, task):
        from repro.sim import simulate_dataset

        with get_tracer().span(
            "sched.simulate", scheduler="serial", runs=task.n_observations,
        ):
            return simulate_dataset(
                task.model,
                task.n_observations,
                n_uops=task.n_uops,
                weights=task.weights,
                seed=task.seed,
                noisy=task.noisy,
            )

    def compute(self, session, cone, targets, use_regions, explain):
        from repro.results.session import compute_cell_verdicts

        with get_tracer().span(
            "sched.compute", scheduler="serial", cells=len(targets)
        ):
            return compute_cell_verdicts(
                cone,
                targets,
                backend=session.pipeline.backend,
                use_regions=use_regions,
                explain=explain,
            )

    def __repr__(self):
        return "SerialScheduler()"


class PoolScheduler(SerialScheduler):
    """Shard simulations and verdict batches across the pipeline's
    process pool (:meth:`repro.pipeline.CounterPoint.runner`), so the
    pool is shared by every plan on that pipeline and reaped by its
    ``close()``."""

    def simulate(self, pipeline, task):
        from repro.parallel import parallel_simulate_dataset

        with get_tracer().span(
            "sched.simulate", scheduler="pool", runs=task.n_observations,
        ):
            return parallel_simulate_dataset(
                pipeline.runner(),
                task.model,
                task.n_observations,
                n_uops=task.n_uops,
                weights=task.weights,
                seed=task.seed,
                noisy=task.noisy,
            )

    def compute(self, session, cone, targets, use_regions, explain):
        if len(targets) <= 1:
            return SerialScheduler.compute(
                self, session, cone, targets, use_regions, explain
            )
        # Imported at call time so tests patching the module attribute
        # see every dispatch.
        from repro.parallel.tasks import dispatch_verdicts

        pipeline = session.pipeline
        with get_tracer().span(
            "sched.compute", scheduler="pool", cells=len(targets)
        ):
            return dispatch_verdicts(
                pipeline.runner(),
                cone,
                targets,
                backend=pipeline.backend,
                use_regions=use_regions,
                explain=explain,
            )

    def __repr__(self):
        return "PoolScheduler()"


def scheduler_for(pipeline):
    """The default scheduler for a pipeline: pool when the pipeline is
    parallel (``workers > 1`` or ``None``), serial otherwise."""
    if pipeline._parallel():
        return PoolScheduler()
    return SerialScheduler()


__all__ = ["PoolScheduler", "SerialScheduler", "scheduler_for"]
