"""Scaling of the process-pool orchestrator and the on-disk cone cache.

Two claims are benchmarked:

* **Near-linear cross_refute scaling.** The closed-loop matrix over the
  bundled model library shards across the pool through the plan
  engine's pool scheduler (row simulations by run index, pending
  verdict cells by chunk); with enough
  cores, ``workers=4`` should cut wall-clock by >= 2.5x versus
  ``workers=1``. The speedup assertion arms only on hosts with >= 6
  CPUs: 4 workers need 4 genuinely free cores plus the parent — on a
  1-core driver or a fully-loaded 4-vCPU runner the floor is
  structurally unreachable, while *result equality* between serial and
  pooled runs is asserted everywhere, always.
  (``REPRO_SKIP_SCALING_ASSERT=1`` disarms it explicitly.)
* **Warm disk cache skips deduction.** A fresh process (simulated here
  by a fresh :class:`~repro.cone.cache.ModelConeCache` over a warmed
  directory — and by a literal subprocess in
  ``tests/test_disk_cache.py``) sweeping the bundled matrix must serve
  every cone from disk: ``builds == 0``, one disk hit per model, and
  the cones arrive with their constraints already deduced.

The workload uses the exact rational-LP backend with a wide dataset so
per-cell work dominates pool IPC, and reuses one pipeline per worker
count so the persistent pool's startup cost amortises the way it does
in real sweeps.
"""

import os
import shutil
import time

import pytest

from repro.cone.cache import ModelConeCache
from repro.models.bundled import bundled_model_names
from repro.pipeline import CounterPoint
from repro.sim import as_mudd

N_OBSERVATIONS = 64
N_UOPS = 20000
BACKEND = "exact"
SCALING_WORKERS = 4
#: Acceptance floor for the workers=4 speedup (armed on >= 6-CPU hosts).
SCALING_FLOOR = 2.5
MIN_CPUS_FOR_ASSERT = 6


def _matrix_verdicts(matrix):
    return {
        row: {name: tuple(sweep.infeasible_names) for name, sweep in sweeps.items()}
        for row, sweeps in matrix.items()
    }


@pytest.fixture(scope="module")
def pipelines():
    """One pipeline per worker count, so the persistent pool is reused
    across benchmark rounds exactly as real sweeps reuse it."""
    built = {
        1: CounterPoint(backend=BACKEND, workers=1),
        SCALING_WORKERS: CounterPoint(backend=BACKEND, workers=SCALING_WORKERS),
    }
    yield built
    for pipeline in built.values():
        if pipeline._runner is not None:
            pipeline._runner.close()


def _run_cross_refute(pipelines, workers):
    return pipelines[workers].cross_refute(
        list(bundled_model_names()), n_observations=N_OBSERVATIONS, n_uops=N_UOPS
    )


def test_cross_refute_serial_baseline(benchmark, pipelines):
    """workers=1 reference timing for the bundled closed-loop matrix."""
    matrix = benchmark(_run_cross_refute, pipelines, 1)
    assert len(matrix) == len(bundled_model_names())


def test_cross_refute_workers4(benchmark, pipelines):
    """workers=4 timing; equal verdicts always, >=2.5x with >=6 CPUs."""
    serial = _run_cross_refute(pipelines, 1)
    matrix = benchmark(_run_cross_refute, pipelines, SCALING_WORKERS)
    assert _matrix_verdicts(matrix) == _matrix_verdicts(serial)

    cpus = os.cpu_count() or 1
    if cpus >= MIN_CPUS_FOR_ASSERT and not os.environ.get(
        "REPRO_SKIP_SCALING_ASSERT"
    ):
        # The benchmark fixture already warmed the pool; time each mode
        # twice and take the best to shed scheduler noise.
        serial_seconds = min(
            _timed(_run_cross_refute, pipelines, 1) for _ in range(2)
        )
        parallel_seconds = min(
            _timed(_run_cross_refute, pipelines, SCALING_WORKERS) for _ in range(2)
        )
        speedup = serial_seconds / max(parallel_seconds, 1e-9)
        assert speedup >= SCALING_FLOOR, (
            "workers=%d speedup %.2fx below the %.1fx floor on %d CPUs"
            % (SCALING_WORKERS, speedup, SCALING_FLOOR, cpus)
        )


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


@pytest.fixture()
def cache_dir(tmp_path):
    path = str(tmp_path / "cone-cache")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _sweep_all(cache, dataset, counters):
    """Sweep every bundled model over ``dataset`` through ``cache``."""
    counterpoint = CounterPoint(backend="scipy", cache=cache)
    for name in bundled_model_names():
        cone = cache.get(as_mudd(name), counters=counters)
        counterpoint.sweep(cone, dataset)


def test_disk_cache_cold_vs_warm(benchmark, cache_dir):
    """A warm directory serves every cone from disk: zero rebuilds.

    The benchmark times the warm path (fresh memory tier over a warmed
    directory — what a new process pays); cold-start cost and hit
    accounting are asserted once outside the timed loop.
    """
    pipeline = CounterPoint(backend="scipy")
    dataset = pipeline.simulate_dataset("merging_load_side", 3, n_uops=20000)
    counters = dataset[0].samples.counters

    cold = ModelConeCache(disk=cache_dir)
    _sweep_all(cold, dataset, counters)
    # Deduce every model's constraints so the disk copies carry them.
    for name in bundled_model_names():
        cone = cold.get(as_mudd(name), counters=counters)
        cone.constraints()
        cold.get(as_mudd(name), counters=counters)  # triggers write-back
    assert cold.builds == len(bundled_model_names())

    def warm_sweep():
        warm = ModelConeCache(disk=cache_dir)
        _sweep_all(warm, dataset, counters)
        return warm

    warm = benchmark(warm_sweep)
    # The whole point: a fresh process never rebuilds or re-deduces.
    assert warm.builds == 0
    assert warm.disk_hits >= len(bundled_model_names())
    for name in bundled_model_names():
        assert warm.get(as_mudd(name), counters=counters).has_deduced_constraints()
