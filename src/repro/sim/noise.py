"""The noise stage: perf-realistic observations from simulated truth.

Executing a µDD produces *exact* ground-truth counter totals. Real HEC
measurements are nothing like that: perf multiplexes logical events onto
4–8 physical counters and scale-estimates the rest, so observations
arrive as noisy, correlated interval time series. This module replays
simulated counts through the existing measurement substrate —
:class:`repro.counters.multiplexing.MultiplexingSimulator` for the
noise and :func:`repro.counters.sampling.collect_interval_samples` for
the sample-matrix bookkeeping — so synthetic data exercises the *full*
statistics path (covariance, shrinkage, confidence regions) exactly as
hardware data would.

Two entry points:

* :func:`noisy_samples` — wrap any per-interval truth stream (an
  executor's :meth:`~repro.sim.executor.MuDDExecutor.run_intervals`
  output) into a (possibly multiplexed) :class:`SampleMatrix`.
* :func:`simulate_interval_matrix` — the batched variant: each sampling
  interval is one multinomial draw over the model's µpath distribution,
  so a whole M-interval run costs one vectorised call.
"""

from repro.counters.multiplexing import MultiplexingSimulator
from repro.counters.sampling import collect_interval_samples
from repro.errors import SimulationError
from repro.sim.batch import batch_simulate


def default_multiplexer(seed=0, n_physical=4):
    """The multiplexing profile used by the simulated datasets (Haswell
    with SMT off exposes 8 programmable counters; 4 models SMT-style
    slot pressure)."""
    return MultiplexingSimulator(
        n_physical=n_physical, slices_per_interval=48, phase_noise=0.3, seed=seed
    )


def noisy_samples(counters, interval_truth, multiplexer=None):
    """A :class:`SampleMatrix` from per-interval ground-truth counts.

    ``interval_truth`` is an iterable of per-interval dicts or vectors
    (at least two — a covariance needs degrees of freedom). With a
    ``multiplexer`` the matrix holds scale-estimated noisy samples and
    keeps the truth alongside; without one it is a noise-free passthrough.
    """
    return collect_interval_samples(counters, interval_truth, multiplexer=multiplexer)


def simulate_interval_matrix(
    model,
    n_intervals,
    uops_per_interval,
    counters=None,
    weights=None,
    seed=0,
    multiplexer=None,
):
    """Batched noisy measurement of one simulated run.

    Each of the ``n_intervals`` sampling intervals draws
    ``uops_per_interval`` µops from the model's µpath distribution (one
    ``batch_simulate`` call with intervals as the batch axis), then the
    whole run is pushed through the multiplexing noise stage. Returns a
    :class:`SampleMatrix` whose ``truth`` is the exact per-interval
    ground truth.
    """
    if n_intervals < 2:
        raise SimulationError("need at least 2 intervals for a sample matrix")
    result = batch_simulate(
        model,
        uops_per_interval,
        n_traces=n_intervals,
        counters=counters,
        weights=weights,
        seed=seed,
    )
    return collect_interval_samples(
        result.counters, result.totals, multiplexer=multiplexer
    )
