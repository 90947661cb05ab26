"""Time-multiplexing of logical HECs onto physical counters.

Modern PMUs expose thousands of logical events but only 4–8 physical
counters; ``perf`` rotates the requested events through the physical
slots and *scales* each partial count by the inverse of the fraction of
time it was scheduled. The scaled estimate is noisy whenever the event
rate varies over the interval — and the noise grows as more logical
counters compete for the same slots (the paper's Figure 1c).

:class:`MultiplexingSimulator` reproduces this mechanism faithfully:

* each sampling interval is divided into ``slices_per_interval`` time
  slices,
* logical counters are scheduled round-robin onto ``n_physical`` slots,
* the workload's activity varies slice-to-slice via a shared *phase
  weight* sequence (plus small per-counter jitter),
* each counter's estimate is its count over its active slices, scaled by
  total-weight / active-weight — exactly perf's extrapolation.

Because every counter's estimate error is driven by the *same* phase
weights, estimates are strongly correlated — the structure
CounterPoint's correlated confidence regions exploit (Section 4).
"""

import numpy as np

from repro.errors import ConfigurationError


#: Normal draws per chunk of intervals in
#: :meth:`MultiplexingSimulator.observe_run` (2 MiB of float64): the
#: chunk's working arrays stay a few MB whatever the run's length.
_CHUNK_DRAWS = 1 << 18


class MultiplexingSimulator:
    """Simulates perf-style counter multiplexing and scaling.

    Parameters
    ----------
    n_physical:
        Number of physical counter slots (Haswell has 4 programmable
        counters per core with SMT enabled, 8 with SMT off).
    slices_per_interval:
        Scheduler rotations per sampling interval.
    phase_noise:
        Relative magnitude of slice-to-slice workload variation (the
        shared component; drives the correlated noise).
    jitter:
        Relative magnitude of independent per-counter, per-slice noise.
    seed:
        RNG seed for reproducibility.
    """

    def __init__(
        self,
        n_physical=4,
        slices_per_interval=24,
        phase_noise=0.35,
        jitter=0.01,
        seed=0,
    ):
        if n_physical < 1:
            raise ConfigurationError("need at least one physical counter")
        if slices_per_interval < 1:
            raise ConfigurationError("need at least one slice per interval")
        for name, value in (("phase_noise", phase_noise), ("jitter", jitter)):
            if not (np.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    "%s must be finite and non-negative, got %r" % (name, value)
                )
        self.n_physical = n_physical
        self.slices_per_interval = slices_per_interval
        self.phase_noise = phase_noise
        self.jitter = jitter
        self._rng = np.random.default_rng(seed)

    def schedule(self, n_counters):
        """Round-robin schedule: ``active[t][j]`` — is logical counter
        ``j`` scheduled during slice ``t``? With ``n_counters <=
        n_physical`` everything is always scheduled (no multiplexing)."""
        slices = self.slices_per_interval
        active = np.zeros((slices, n_counters), dtype=bool)
        if n_counters <= self.n_physical:
            active[:, :] = True
            return active
        cursor = 0
        for t in range(slices):
            for slot in range(self.n_physical):
                active[t, (cursor + slot) % n_counters] = True
            cursor = (cursor + self.n_physical) % n_counters
        return active

    def observe_interval(self, true_counts):
        """One sampling interval: scale-estimated counts per counter.

        ``true_counts`` is the vector of ground-truth event counts for
        the interval. Returns the vector of perf-style estimates.
        """
        return self.observe_run([true_counts])[0]

    def observe_run(self, true_interval_counts):
        """Estimate a whole run: ``M x N`` true counts → ``M x N``
        noisy estimates (one row per sampling interval).

        Per interval, the RNG draws the ``slices`` shared phase weights
        and then, with ``jitter > 0``, ``slices`` jitter factors per
        counter, in counter order. Each counter's estimate is its count
        over its scheduled slices, divided by the fraction of slices it
        was scheduled for (0 for a counter never scheduled). The run is
        computed a chunk of intervals at a time, each chunk's draws
        taken in one call, which yields the stream interval-by-interval
        draws would.
        """
        matrix = np.asarray(true_interval_counts, dtype=float)
        if matrix.ndim != 2:
            raise ConfigurationError("true_interval_counts must be M x N")
        n_intervals, n = matrix.shape
        if n_intervals == 0:
            raise ConfigurationError("true_interval_counts has no intervals (rows)")
        slices = self.slices_per_interval
        active = self.schedule(n)
        # Each counter's scheduled slices and perf's scale for it: the
        # scheduler believes slices are equal-length, so it scales by
        # slice count — the source of the bias/noise when per-slice
        # activity actually varies.
        scheduled = []
        for j in range(n):
            slots = np.flatnonzero(active[:, j])
            if slots.size:
                scheduled.append((j, slots, slots.size / slices))
        # Per interval: one row of phase draws, then one per counter.
        layers = 1 + n if self.jitter > 0 else 1
        rows = max(1, _CHUNK_DRAWS // (layers * slices))
        estimates = np.zeros((n_intervals, n))
        for start in range(0, n_intervals, rows):
            truth = matrix[start : start + rows]
            normal = self._rng.standard_normal((truth.shape[0], layers, slices))
            # Shared per-slice activity weights (workload phase behaviour).
            weights = 1.0 + self.phase_noise * normal[:, 0]
            weights = np.clip(weights, 0.05, None)
            weights = weights / weights.sum(axis=1, keepdims=True)
            per_slice = truth[:, :, None] * weights[:, None, :]
            if self.jitter > 0:
                per_slice = per_slice * (1.0 + self.jitter * normal[:, 1:])
                per_slice = np.clip(per_slice, 0.0, None)
            chunk = estimates[start : start + rows]
            for j, slots, time_fraction in scheduled:
                # A contiguous gather, so each row sums its slots in the
                # order (and pairwise grouping) of a 1-D sum.
                observed = np.ascontiguousarray(per_slice[:, j, slots]).sum(axis=1)
                chunk[:, j] = observed / time_fraction
        return estimates

    def noise_profile(self, true_counts, n_intervals=200):
        """Standard deviation of the estimates of a steady workload —
        the Figure 1c noise metric — per counter."""
        matrix = np.tile(np.asarray(true_counts, dtype=float), (n_intervals, 1))
        estimates = self.observe_run(matrix)
        return estimates.std(axis=0, ddof=1)
