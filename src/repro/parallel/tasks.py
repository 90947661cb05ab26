"""Worker functions and the dispatchers the schedulers call.

Every worker here is a module-level function of one picklable payload
dict — the shape :class:`repro.parallel.runner.ParallelRunner` requires
for the pooled path. Payloads carry *cones, models and parameters*,
not live solver state. Verdict workers send back
:mod:`repro.results` schema dicts, not pickled ad-hoc objects: the
wire format between pool processes is the same stable
JSON-serializable schema the result layer persists and renders.

Two dispatchers serve :class:`repro.plan.schedulers.PoolScheduler`,
the one route from a facade call or plan to the pool:
:func:`dispatch_verdicts` shards a batch of pending verdict cells, and
:func:`parallel_simulate_dataset` shards a dataset simulation by run
index. :func:`run_feature_evaluation` is the unit
:class:`repro.explore.GuidedSearch` maps over its own runner. Each
pooled path is bit-for-bit equivalent to its serial counterpart (same
seeds, same ordering, same verdicts).
"""


def _worker_tracer(payload):
    """The tracer a worker records into: enabled iff the dispatching
    parent was tracing (payloads carry a ``trace`` flag), so untraced
    runs ship no extra bytes and pay no recording cost."""
    from repro.obs.trace import Tracer

    return Tracer(enabled=bool(payload.get("trace")))


def _obs_shipment(tracer):
    """The worker's trace records and metrics, ready to ride back with
    its results (``None`` when the worker was not tracing)."""
    if not tracer.enabled:
        return None
    import os

    return {
        "pid": os.getpid(),
        "records": tracer.drain(),
        "metrics": tracer.metrics.as_dict(),
    }


def _absorb_obs(shipment):
    """Merge a worker's shipped records/metrics into the parent's
    active tracer, preserving the worker's pid/tid tags."""
    if not shipment:
        return
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    if tracer.enabled:
        tracer.absorb(shipment.get("records") or [])
        tracer.metrics.absorb(shipment.get("metrics") or {})
        tracer.metrics.counter(
            "workers.tasks.pid_%d" % shipment.get("pid", 0)
        ).inc()


def _tracing():
    from repro.obs.trace import get_tracer

    return get_tracer().enabled


def _chunks(items, n_chunks):
    """Split ``items`` into at most ``n_chunks`` contiguous runs,
    preserving order (sizes differ by at most one)."""
    items = list(items)
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    out, start = [], 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        out.append(items[start:start + size])
        start += size
    return out


# -- verdict cells ---------------------------------------------------------

def run_verdict_chunk(payload):
    """Worker: feasibility verdicts for one target chunk against a
    shipped cone, returned as ``CellVerdict`` schema dicts.

    Runs the exact function the serial path runs
    (:func:`repro.results.session.compute_cell_verdicts`), so chunk
    boundaries cannot change verdicts; point chunks keep the batched
    facet screen intact.

    When the dispatching parent was tracing (``payload["trace"]``), the
    chunk runs under a worker-local tracer and the result wraps the
    verdicts together with the recorded spans/metrics for the parent to
    absorb; otherwise the historic bare-list shape is returned.
    """
    from repro.obs.trace import activate
    from repro.results.session import compute_cell_verdicts

    tracer = _worker_tracer(payload)
    with activate(tracer):
        verdicts = compute_cell_verdicts(
            payload["cone"],
            payload["targets"],
            backend=payload["backend"],
            use_regions=payload["use_regions"],
            explain=payload["explain"],
        )
    entries = [verdict.to_dict() for verdict in verdicts]
    if tracer.enabled:
        return {"verdicts": entries, "obs": _obs_shipment(tracer)}
    return entries


def dispatch_verdicts(runner, cone, targets, backend="exact",
                      use_regions=False, explain=False):
    """Shard verdict computation for ``targets`` across the pool.

    The cone is built once by the caller and shipped to every worker
    (cones pickle without their process-local solver state). Returns
    :class:`~repro.results.types.CellVerdict` objects in target order —
    the session's unit of memoization, reconstructed from the schema
    dicts the workers ship back.
    """
    from repro.results.types import CellVerdict

    targets = list(targets)
    tracing = _tracing()
    cells = [
        {
            "cone": cone,
            "targets": chunk,
            "backend": backend,
            "use_regions": use_regions,
            "explain": explain,
            "trace": tracing,
        }
        for chunk in _chunks(targets, runner.workers)
    ]
    verdicts = []
    for chunk in runner.map_cells(run_verdict_chunk, cells, chunk_size=1):
        if isinstance(chunk, dict):
            _absorb_obs(chunk.get("obs"))
            chunk = chunk["verdicts"]
        verdicts.extend(CellVerdict.from_dict(entry) for entry in chunk)
    return verdicts


# -- simulated datasets ----------------------------------------------------

def run_simulate_chunk(payload):
    """Worker: simulate a contiguous run-index chunk of one dataset,
    reproducing the serial per-run seeds and observation names.

    When the dispatching parent was tracing, returns
    ``{"observations": [...], "obs": shipment}`` instead of the bare
    list so the worker's spans ride back with the data.
    """
    from repro.obs.trace import activate
    from repro.sim.scenarios import simulate_observation

    tracer = _worker_tracer(payload)
    mudd = payload["mudd"]
    with activate(tracer):
        observations = [
            simulate_observation(
                mudd,
                n_uops=payload["n_uops"],
                weights=payload["weights"],
                seed=payload["seed"] + run,
                noisy=payload["noisy"],
                name="sim:%s/run%d" % (mudd.name, run),
            )
            for run in payload["runs"]
        ]
    if tracer.enabled:
        return {"observations": observations, "obs": _obs_shipment(tracer)}
    return observations


def parallel_simulate_dataset(runner, model, n_observations, n_uops=20000,
                              weights=None, seed=0, noisy=False):
    """Shard dataset simulation across the pool by run index.

    Run ``i`` always draws from seed ``seed + i`` (the serial
    schedule), so the pooled dataset equals the serial one
    observation-for-observation regardless of how runs were chunked.
    """
    from repro.sim.scenarios import as_mudd

    mudd = as_mudd(model)
    tracing = _tracing()
    cells = [
        {
            "mudd": mudd,
            "runs": chunk,
            "n_uops": n_uops,
            "weights": weights,
            "seed": seed,
            "noisy": noisy,
            "trace": tracing,
        }
        for chunk in _chunks(range(n_observations), runner.workers)
    ]
    observations = []
    for chunk in runner.map_cells(run_simulate_chunk, cells, chunk_size=1):
        if isinstance(chunk, dict):
            _absorb_obs(chunk.get("obs"))
            chunk = chunk["observations"]
        observations.extend(chunk)
    return tuple(observations)


# -- guided search ---------------------------------------------------------

def run_feature_evaluation(payload):
    """Worker: feasibility of one feature set against the dataset
    (the guided search's unit of work)."""
    from repro.cone import test_point_feasibility

    cone = payload["cone_builder"](payload["features"])
    infeasible = [
        name
        for name, point in payload["points"]
        if not test_point_feasibility(
            cone, point, backend=payload["backend"]
        ).feasible
    ]
    return frozenset(payload["features"]), infeasible


__all__ = [
    "dispatch_verdicts",
    "parallel_simulate_dataset",
    "run_feature_evaluation",
    "run_simulate_chunk",
    "run_verdict_chunk",
]
