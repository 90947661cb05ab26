"""Benchmark-suite-flavoured synthetic workloads.

Stand-ins for the GAPBS / SPEC2006 / PARSEC / YCSB suites the paper
measures. Each generator reproduces the MMU-relevant traits of its
archetype — locality structure, load/store mix, speculation — rather
than its computation.
"""

import random

from repro.errors import SimulationError
from repro.workloads.base import Workload, footprint_lines


class BfsWorkload(Workload):
    """GAPBS-style frontier traversal.

    Alternates between sequential frontier scans (good locality) and
    random neighbour lookups across the whole footprint (TLB-hostile),
    like BFS over a CSR graph.
    """

    name = "bfs"

    def __init__(self, footprint_bytes, frontier_len=96, seed=0):
        super().__init__(footprint_bytes, seed=seed)
        if frontier_len <= 0:
            raise SimulationError("frontier_len must be positive")
        footprint_lines(footprint_bytes)  # rejects a footprint under one line
        self.frontier_len = frontier_len

    def addresses(self, n_ops):
        rng = random.Random(self.seed)
        lines = footprint_lines(self.footprint_bytes)
        index = 0
        cursor = 0
        while index < n_ops:
            # Sequential frontier scan (offsets array).
            for _ in range(self.frontier_len):
                if index >= n_ops:
                    return
                yield ("load", (cursor % lines) * 64)
                cursor += 1
                index += 1
            # Random neighbour visits + distance-array stores.
            for _ in range(self.frontier_len // 2):
                if index >= n_ops:
                    return
                line = rng.randrange(lines)
                yield ("load", line * 64)
                index += 1
                if index >= n_ops:
                    return
                yield ("store", line * 64)
                index += 1


class PointerChaseWorkload(Workload):
    """SPEC-style pointer chasing with wrong-path speculation.

    Chases a pseudo-random permutation through the footprint; a fraction
    of µops are wrong-path (do not retire) to model branch mispredicts
    around the chase loop.
    """

    name = "ptrchase"

    def __init__(self, footprint_bytes, spec_fraction=0.08, seed=0):
        super().__init__(footprint_bytes, seed=seed)
        if not 0.0 <= spec_fraction < 1.0:
            raise SimulationError("spec_fraction must be in [0, 1)")
        footprint_lines(footprint_bytes)  # rejects a footprint under one line
        self.spec_fraction = spec_fraction

    def addresses(self, n_ops):
        rng = random.Random(self.seed)
        lines = footprint_lines(self.footprint_bytes)
        current = rng.randrange(lines)
        spec_period = None
        if self.spec_fraction > 0:
            spec_period = max(2, round(1.0 / self.spec_fraction))
        for index in range(n_ops):
            # Multiplicative LCG step keeps the chase deterministic.
            current = (current * 1103515245 + 12345 + self.seed) % lines
            retires = True
            if spec_period is not None and index % spec_period == spec_period - 1:
                retires = False
            yield ("load", current * 64, retires)


class StreamWorkload(Workload):
    """PARSEC-style streaming: two source arrays read, one written.

    Uses a 256-byte stride (vectorised kernels touch every few lines),
    which deliberately does *not* match the prefetcher's consecutive
    cache-line trigger — streaming suites stress bandwidth, not the
    page-crossing predictor.
    """

    name = "stream"

    def __init__(self, footprint_bytes, stride=256, seed=0):
        super().__init__(footprint_bytes, seed=seed)
        if stride <= 0:
            raise SimulationError("stride must be positive")
        if footprint_bytes < 3 * stride:
            # Each array needs a stride's room, or the written one runs
            # past the footprint.
            raise SimulationError(
                "stream footprint of %r bytes is under 3 x stride %r"
                % (footprint_bytes, stride)
            )
        self.stride = stride

    def addresses(self, n_ops):
        third = self.footprint_bytes // 3
        base_a, base_b, base_c = 0, third, 2 * third
        index = 0
        offset = 0
        while index < n_ops:
            position = offset % third
            for kind, base in (("load", base_a), ("load", base_b), ("store", base_c)):
                if index >= n_ops:
                    return
                yield (kind, base + position)
                index += 1
            offset += self.stride


class ZipfianKVWorkload(Workload):
    """YCSB-style key-value accesses with Zipfian popularity.

    Hot keys concentrate on a few pages (ping-ponging walks and
    exercising MSHR merging when a hot page is evicted), while the long
    tail sweeps the full footprint.
    """

    name = "zipf"

    def __init__(self, footprint_bytes, theta=0.9, read_fraction=0.95, seed=0):
        super().__init__(footprint_bytes, seed=seed)
        if not 0.0 < theta < 1.0:
            raise SimulationError("theta must be in (0, 1)")
        if not 0.0 <= read_fraction <= 1.0:
            raise SimulationError("read_fraction must be in [0, 1]")
        footprint_lines(footprint_bytes)  # rejects a footprint under one line
        self.theta = theta
        self.read_fraction = read_fraction

    def addresses(self, n_ops):
        rng = random.Random(self.seed)
        lines = footprint_lines(self.footprint_bytes)
        # Approximate Zipf via the power-of-uniform trick: rank ~
        # floor(lines * u^(1/(1-theta))) concentrates mass at low ranks.
        exponent = 1.0 / (1.0 - self.theta)
        for index in range(n_ops):
            u = rng.random()
            rank = int(lines * (u**exponent))
            rank = min(rank, lines - 1)
            # Scatter ranks across the region so hot keys share pages
            # but are not all page zero.
            line = (rank * 2654435761) % lines if rank > 16 else rank
            kind = "load" if rng.random() < self.read_fraction else "store"
            yield (kind, line * 64)
