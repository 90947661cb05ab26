"""Throughput of the repro.sim execution engine.

The simulation subsystem is the scenario generator for large-scale
sweeps, so its two hot paths are benchmarked directly:

* the **batched** path — many traces of one model collapse to a single
  multinomial draw plus a matrix multiply (:func:`repro.sim.batch
  .batch_simulate`), the mode future scenario sweeps rely on; the
  acceptance bar is >= 100 traces per call,
* the **event-driven** path — the per-µop interpreter with the
  device-backed MMU oracle, which bounds how fast trace-replay
  simulations (and oracle-in-the-loop validation) can run.

``MuDDExecutor.run`` under a plain random oracle, the interpreter's
overhead floor, is gated against its ``BENCH_baseline.json`` entry.
"""

import json
import os

import pytest

from repro.models import M_SERIES
from repro.models.bundled import load_bundled_model
from repro.models.haswell import ALL_COUNTERS, build_haswell_mudd
from repro.sim import MMUOracle, MuDDExecutor, RandomOracle, batch_simulate
from repro.workloads import LinearAccessWorkload

MERGE_WEIGHTS = {"Merged": {"Yes": 3.0, "No": 1.0}}

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_BASELINE_PATH = os.path.join(_REPO_ROOT, "BENCH_baseline.json")

#: Headroom over the committed baseline median before the gate fires —
#: CI machines vary widely, so the gate catches order-of-magnitude
#: regressions, not jitter.
_BASELINE_FACTOR = 25.0


def _check_baseline(benchmark, key):
    """Gate a benchmark against its ``BENCH_baseline.json``
    entry (skipped when no baseline exists, so new machines record one
    first)."""
    try:
        with open(_BASELINE_PATH, "r", encoding="utf-8") as handle:
            baseline = json.load(handle).get(key)
    except (OSError, ValueError):
        baseline = None
    if baseline is None:
        pytest.skip("no committed baseline for %s" % key)
    median = benchmark.stats.stats.median
    assert median < baseline * _BASELINE_FACTOR, (
        "%s regressed: median %.6fs vs baseline %.6fs (x%.0f allowed)"
        % (key, median, baseline, _BASELINE_FACTOR)
    )


def test_sim_throughput_batched_traces(benchmark):
    """>= 100 independent 100k-µop traces of a bundled model per call."""
    mudd = load_bundled_model("merging_load_side")
    result = benchmark(
        batch_simulate, mudd, 100000, n_traces=128, weights=MERGE_WEIGHTS, seed=0
    )
    assert result.n_traces >= 100
    assert result.totals.sum() > 0


def test_sim_throughput_batched_m4(benchmark):
    """The full 26-counter m4 µDD: path-distribution extraction plus a
    128-trace batch in one call (the model-variant sweep unit)."""
    mudd = build_haswell_mudd(M_SERIES["m4"], name="m4")
    result = benchmark(
        batch_simulate, mudd, 1000000, n_traces=128, counters=ALL_COUNTERS, seed=0
    )
    assert result.n_traces == 128
    assert result.totals.shape[1] == len(ALL_COUNTERS)


def test_sim_throughput_event_driven(benchmark):
    """Per-µop interpretation of m4 against live MMU devices."""
    mudd = build_haswell_mudd(M_SERIES["m4"], name="m4")

    def run():
        executor = MuDDExecutor(mudd, counters=ALL_COUNTERS)
        oracle = MMUOracle.for_features(M_SERIES["m4"])
        workload = LinearAccessWorkload(8 * 1024 * 1024, stride=64, load_store_ratio=0.9)
        executor.run(oracle, workload.ops(2000))
        return executor

    executor = benchmark(run)
    assert executor.n_uops >= 2000


def test_sim_throughput_random_oracle(benchmark):
    """``run`` over 20000 µops of merging_load_side under a weighted
    random oracle: per-µop interpretation without device state, the
    interpreter overhead floor."""
    mudd = load_bundled_model("merging_load_side")

    def run():
        executor = MuDDExecutor(mudd)
        executor.run(RandomOracle(seed=0, weights=MERGE_WEIGHTS), [None] * 20000)
        return executor

    executor = benchmark(run)
    assert executor.n_uops == 20000
    _check_baseline(
        benchmark,
        "benchmarks/test_sim_throughput.py::test_sim_throughput_random_oracle",
    )
