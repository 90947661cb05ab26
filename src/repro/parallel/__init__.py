"""``repro.parallel`` — the process pool behind ``workers=N``.

The analysis workloads worth running at scale are matrices of
independent cells: every pending verdict cell of a sweep, every run of
a simulated dataset, every feature set of a guided search. This package
supplies the pool machinery; it does not decide what runs where. The
plan engine does: every facade call and plan reaches the pool through
:class:`repro.plan.schedulers.PoolScheduler`, and
:class:`repro.explore.GuidedSearch` maps over a runner it is handed.

* :class:`ParallelRunner` — a thin, deterministic wrapper over
  :class:`concurrent.futures.ProcessPoolExecutor` with chunked
  dispatch, pre-flight picklability checks, and a graceful serial
  fallback (``workers=1``, a single cell, or unpicklable work always
  runs in-process with identical results).
* :mod:`repro.parallel.tasks` — module-level worker functions (the
  pool pickles them by name) and the two dispatchers the pool
  scheduler calls: ``dispatch_verdicts`` and
  :func:`parallel_simulate_dataset`.

Determinism: every pooled path produces *identical* results to its
serial counterpart. Simulation seeds are split per cell exactly as the
serial loops split them (``seed + run``, ``seed + 1000 * row`` via
:func:`split_seeds`), so ``workers=N`` changes wall-clock time, never
verdicts.

Quick start::

    from repro import CounterPoint

    with CounterPoint(
        backend="scipy", workers=4, cache_dir=".repro-cache"
    ) as counterpoint:
        matrix = counterpoint.cross_refute(
            ["merging_load_side", "no_merging_load_side", "pde_initial"]
        )
"""

from repro.parallel.runner import ParallelRunner, split_seeds
from repro.parallel.tasks import parallel_simulate_dataset

__all__ = [
    "ParallelRunner",
    "parallel_simulate_dataset",
    "split_seeds",
]
