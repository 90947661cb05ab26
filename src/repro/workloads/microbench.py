"""The paper's two microbenchmarks: linear and random access patterns.

Section 7.1: "We also collected HEC data for two microbenchmarks: a
linear access pattern (parametrized by footprint, stride, and load-store
ratio) and a random access pattern (parametrized by footprint and
load-store ratio)." The ablation study shows that removing these misses
violations of key constraints (e.g. Table 1's Constraint 1) needed to
reverse-engineer the TLB prefetchers.
"""

import random

from repro.errors import SimulationError
from repro.workloads.base import Workload, footprint_lines, store_period


class LinearAccessWorkload(Workload):
    """Linear sweep over the footprint.

    Parameters
    ----------
    stride:
        Byte stride between consecutive accesses. Stride 64 ascending
        touches consecutive cache lines — the prefetch trigger pattern.
    load_store_ratio:
        Fraction of loads (1.0 = pure loads, 0.0 = pure stores).
    descending:
        Sweep from the top of the region downwards (exercises the
        8→7 descending prefetch trigger).
    warm_pass:
        Prepend one quick page-touch pass so every page's accessed bit
        is set before the measured sweep — the "revisit" variant. Fresh
        sweeps (warm_pass=False) are first touches: demand walks replay
        and prefetches abort.
    """

    name = "linear"

    def __init__(
        self,
        footprint_bytes,
        stride=64,
        load_store_ratio=1.0,
        descending=False,
        warm_pass=False,
        seed=0,
    ):
        super().__init__(footprint_bytes, seed=seed)
        if stride <= 0:
            raise SimulationError("stride must be positive")
        store_period(load_store_ratio)  # rejects a ratio outside [0, 1]
        self.stride = stride
        self.load_store_ratio = load_store_ratio
        self.descending = descending
        self.warm_pass = warm_pass

    def addresses(self, n_ops):
        # A range, not a list: a 64 MB footprint at stride 64 has 1M
        # positions, and a run usually reads a few thousand of them.
        positions = range(0, self.footprint_bytes, self.stride)
        if self.descending:
            positions = positions[::-1]
        period = store_period(self.load_store_ratio)
        index = 0
        if self.warm_pass:
            # One access per 4K frame to set accessed bits; the warm
            # pass is part of the measured stream (like a program's
            # initialisation phase).
            for offset in range(0, self.footprint_bytes, 4096):
                if index >= n_ops:
                    return
                yield ("store", offset)
                index += 1
        while index < n_ops:
            for offset in positions:
                if index >= n_ops:
                    return
                if period is not None and index % period == period - 1:
                    yield ("store", offset)
                else:
                    yield ("load", offset)
                index += 1

    def describe(self):
        info = super().describe()
        info.update(
            stride=self.stride,
            load_store_ratio=self.load_store_ratio,
            descending=self.descending,
            warm_pass=self.warm_pass,
        )
        return info


class RandomAccessWorkload(Workload):
    """Uniformly random accesses over the footprint."""

    name = "random"

    def __init__(self, footprint_bytes, load_store_ratio=1.0, seed=0):
        super().__init__(footprint_bytes, seed=seed)
        store_period(load_store_ratio)  # rejects a ratio outside [0, 1]
        footprint_lines(footprint_bytes)  # rejects a footprint under one line
        self.load_store_ratio = load_store_ratio

    def addresses(self, n_ops):
        rng = random.Random(self.seed)
        lines = footprint_lines(self.footprint_bytes)
        period = store_period(self.load_store_ratio)
        for index in range(n_ops):
            offset = rng.randrange(lines) * 64
            if period is not None and index % period == period - 1:
                yield ("store", offset)
            else:
                yield ("load", offset)

    def describe(self):
        info = super().describe()
        info.update(load_store_ratio=self.load_store_ratio)
        return info
