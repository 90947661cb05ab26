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

The per-µop path is additionally benchmarked both ways
``MuDDExecutor`` runs it: the interpreter (a ``run_uop`` loop) and the
generated program (``run`` with a hook-free oracle). The program must
produce bit-identical totals and clear a hard speedup bar over the
interpreter at bench scale (``test_sim_codegen_speedup``).
"""

import json
import os
import time

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
#: CI machines vary widely; the shape of a real regression (the
#: generated program degrading to interpreter speed) does not.
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


def _interpreted_run(mudd, uops=20000):
    """The interpreter: a ``run_uop`` loop (``run_uop`` always
    interprets)."""
    executor = MuDDExecutor(mudd)
    oracle = RandomOracle(seed=0, weights=MERGE_WEIGHTS)
    for op in [None] * uops:
        executor.run_uop(oracle, op)
    return executor


def _program_run(mudd, uops=20000):
    """The generated program: ``run`` with a hook-free oracle."""
    executor = MuDDExecutor(mudd)
    executor.run(RandomOracle(seed=0, weights=MERGE_WEIGHTS), [None] * uops)
    return executor


def test_sim_throughput_random_oracle(benchmark):
    """Per-µop interpretation without device state — the pure
    interpreter overhead floor."""
    mudd = load_bundled_model("merging_load_side")
    executor = benchmark(_interpreted_run, mudd)
    assert executor.n_uops == 20000


def test_sim_throughput_random_oracle_codegen(benchmark):
    """The generated program on the interpreter-floor workload."""
    mudd = load_bundled_model("merging_load_side")
    executor = benchmark(_program_run, mudd)
    assert executor.n_uops == 20000
    assert executor.snapshot() == _interpreted_run(mudd).snapshot()
    _check_baseline(
        benchmark,
        "benchmarks/test_sim_throughput.py::"
        "test_sim_throughput_random_oracle_codegen",
    )


def _best_of(repeats, run):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def test_sim_codegen_speedup():
    """The generated program clears 5x over the interpreter at bench
    scale (20000 weighted-RandomOracle µops of merging_load_side).

    Measured headroom is ~7x, so the bar survives CI noise; best-of-5
    wall-clock keeps scheduler jitter out of the ratio.
    """
    mudd = load_bundled_model("merging_load_side")
    _program_run(mudd)                     # warm the program memo
    interpreter = _best_of(5, lambda: _interpreted_run(mudd))
    codegen = _best_of(5, lambda: _program_run(mudd))
    assert codegen * 5 <= interpreter, (
        "codegen %.4fs vs interpreter %.4fs (%.1fx, need >= 5x)"
        % (codegen, interpreter, interpreter / codegen)
    )


def test_sim_auto_cold_start_overhead():
    """``run`` never loses to the interpreter by more than the program's
    compile cost on a cold single trace.

    The model is built inline so nothing in the session has warmed its
    program memo; the allowance (50 ms) is orders of magnitude above the
    measured sub-millisecond compile.
    """
    from repro.dsl import compile_dsl

    source = """
    switch ProbeHit {
      Yes => incr probe.hits;
      No  => { incr probe.misses; incr probe.walks; done; }
    };
    done;
    """
    compile_cost_allowance = 0.05
    interpreter_mudd = compile_dsl(source, name="cold_probe_interp")
    started = time.perf_counter()
    reference = MuDDExecutor(interpreter_mudd)
    reference.run_uop(RandomOracle(seed=0), None)
    interpreter_seconds = time.perf_counter() - started
    auto_mudd = compile_dsl(source, name="cold_probe_auto")
    started = time.perf_counter()
    executor = MuDDExecutor(auto_mudd)
    executor.run(RandomOracle(seed=0), [None])
    auto_seconds = time.perf_counter() - started
    assert executor.snapshot() == reference.snapshot()
    assert auto_seconds <= interpreter_seconds + compile_cost_allowance, (
        "auto cold start %.4fs vs interpreter %.4fs"
        % (auto_seconds, interpreter_seconds)
    )
