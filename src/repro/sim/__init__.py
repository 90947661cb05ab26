"""``repro.sim`` — the trace-driven µDD execution engine.

CounterPoint's other layers point one direction: hardware measurements
in, refutations out. This subsystem points the other way — it *runs*
a compiled µDD as a program and emits the counter observations the
analysis layers consume, closing the loop (simulate model A, refute
model B) and unlocking unlimited synthetic scenario generation.

Layer map
---------
* :mod:`repro.sim.executor` — :class:`MuDDExecutor`: executes a µDD
  per µop, resolving decisions through an oracle and accumulating
  counter totals (plus per-interval time series). It interprets the
  µDD edge by edge, or runs its generated program where that is exact.
* :mod:`repro.sim.codegen` — the generated program: the µDD's decision
  tree emitted as specialised Python source (inlined branch dispatch
  on compiled oracle samplers, no per-edge dict lookups), memoized
  in-process by the lowered tables and never stored on disk.
* :mod:`repro.sim.oracles` — decision resolvers: seeded
  :class:`RandomOracle`, scripted :class:`TableOracle`, and the
  device-backed :class:`MMUOracle` that answers the Haswell model
  vocabulary from live :mod:`repro.mmu` components over real address
  traces.
* :mod:`repro.sim.batch` — the vectorised fast path: a run under a
  random oracle is a multinomial draw over µpath signatures, so whole
  trace batches and model sweeps reduce to one matrix multiply
  (:func:`batch_simulate`, :func:`path_distribution`).
* :mod:`repro.sim.noise` — replay simulated truth through counter
  multiplexing to produce perf-realistic noisy sample matrices and
  confidence regions (:func:`simulate_interval_matrix`).
* :mod:`repro.sim.scenarios` — one-call observation/dataset builders
  and the :func:`closed_loop` simulate→refute workflow.

Quick start::

    from repro.models.bundled import load_bundled_model
    from repro.sim import closed_loop

    reports = closed_loop(
        "merging_load_side",                      # simulate this model
        ["merging_load_side", "no_merging_load_side"],
        weights={"Merged": {"Yes": 3.0, "No": 1.0}},
    )
    assert reports["merging_load_side"].feasible
    assert not reports["no_merging_load_side"].feasible
"""

from repro.sim.batch import BatchResult, batch_simulate, expected_totals, path_distribution
from repro.sim.executor import CompiledMuDD, MuDDExecutor
from repro.sim.noise import default_multiplexer, noisy_samples, simulate_interval_matrix
from repro.sim.oracles import MMUOracle, Oracle, PrefetchUop, RandomOracle, TableOracle
from repro.sim.scenarios import (
    as_mudd,
    closed_loop,
    simulate_dataset,
    simulate_observation,
    trace_observation,
)

__all__ = [
    "BatchResult",
    "CompiledMuDD",
    "MMUOracle",
    "MuDDExecutor",
    "Oracle",
    "PrefetchUop",
    "RandomOracle",
    "TableOracle",
    "as_mudd",
    "batch_simulate",
    "closed_loop",
    "default_multiplexer",
    "expected_totals",
    "noisy_samples",
    "path_distribution",
    "simulate_dataset",
    "simulate_interval_matrix",
    "simulate_observation",
    "trace_observation",
]
