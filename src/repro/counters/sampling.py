"""perf-like interval sampling glue.

CounterPoint consumes HEC measurements as time series: vectors of
counter values recorded at regular intervals over a program's execution
(Section 4). :func:`collect_interval_samples` turns any per-interval
count source (the MMU simulator, a synthetic generator, a trace reader)
into a :class:`SampleMatrix`, optionally passing the ground truth
through a :class:`~repro.counters.multiplexing.MultiplexingSimulator`.
"""

import numpy as np

from repro.errors import ConfigurationError
from repro.stats import ConfidenceRegion


class SampleMatrix:
    """An ``M x N`` matrix of interval samples with counter names.

    This is the hand-off object between measurement and analysis: it
    knows how to summarise itself as a confidence region.
    """

    def __init__(self, counters, samples, truth=None):
        self.counters = list(counters)
        self.samples = np.asarray(samples, dtype=float)
        if self.samples.ndim != 2:
            raise ConfigurationError("samples must be a 2-D matrix")
        if self.samples.shape[1] != len(self.counters):
            raise ConfigurationError(
                "sample matrix has %d columns for %d counters"
                % (self.samples.shape[1], len(self.counters))
            )
        # Measured input (perf CSV parses "nan" and "inf" as floats):
        # no confidence region or LP can use a non-finite count.
        finite = np.isfinite(self.samples)
        if not finite.all():
            row, column = np.argwhere(~finite)[0]
            raise ConfigurationError(
                "counter %r has a non-finite sample (%r) in interval row %d"
                % (self.counters[column], float(self.samples[row, column]), row)
            )
        self.truth = None if truth is None else np.asarray(truth, dtype=float)

    @property
    def n_samples(self):
        return self.samples.shape[0]

    def confidence_region(self, confidence=0.99, correlated=True):
        """Summarise the samples as a counter confidence region."""
        return ConfidenceRegion.from_samples(
            self.samples, confidence=confidence, correlated=correlated
        )

    def mean_observation(self):
        """Counter-name → mean-value mapping (a point observation)."""
        means = self.samples.mean(axis=0)
        return {name: float(value) for name, value in zip(self.counters, means)}

    def true_totals(self):
        """Ground-truth totals when available (simulator runs)."""
        if self.truth is None:
            raise ConfigurationError("no ground truth recorded for this run")
        totals = self.truth.sum(axis=0)
        return {name: float(value) for name, value in zip(self.counters, totals)}

    def subset(self, counters):
        """Project onto a counter subset (e.g. one Figure 1b group step)."""
        indices = []
        for name in counters:
            if name not in self.counters:
                raise ConfigurationError("counter %r not in sample matrix" % (name,))
            indices.append(self.counters.index(name))
        truth = None if self.truth is None else self.truth[:, indices]
        return SampleMatrix(list(counters), self.samples[:, indices], truth=truth)

    def __repr__(self):
        return "SampleMatrix(%d samples x %d counters)" % (
            self.n_samples,
            len(self.counters),
        )


def collect_interval_samples(counters, interval_counts, multiplexer=None):
    """Build a :class:`SampleMatrix` from per-interval ground truth.

    Parameters
    ----------
    counters:
        Counter names (columns).
    interval_counts:
        Iterable of per-interval mappings or vectors of ground-truth
        counts (one entry per sampling interval).
    multiplexer:
        Optional :class:`MultiplexingSimulator`; when given, the matrix
        holds noisy scale-estimated samples and keeps the ground truth
        alongside.
    """
    rows = []
    for entry in interval_counts:
        if isinstance(entry, dict):
            missing = [name for name in counters if name not in entry]
            if missing:
                raise ConfigurationError(
                    "interval counts missing counters: %s" % ", ".join(missing)
                )
            rows.append([float(entry[name]) for name in counters])
        else:
            row = [float(value) for value in entry]
            if len(row) != len(counters):
                raise ConfigurationError(
                    "interval row has %d values for %d counters"
                    % (len(row), len(counters))
                )
            rows.append(row)
    if len(rows) < 2:
        raise ConfigurationError("need at least 2 intervals of samples")
    truth = np.asarray(rows, dtype=float)
    if multiplexer is None:
        return SampleMatrix(counters, truth, truth=truth)
    noisy = multiplexer.observe_run(truth)
    return SampleMatrix(counters, noisy, truth=truth)
