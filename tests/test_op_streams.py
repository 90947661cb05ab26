"""Differential test: the workloads' µop streams against the frozen loop.

``Workload.ops`` unpacks each ``(kind, vaddr[, retires])`` descriptor
straight into a :class:`MemoryOp` (``starmap`` over ``islice``), and
``LinearAccessWorkload`` walks a ``range`` of positions instead of a
list. ``mmu_reference.workload_ops`` is the per-op generator loop they
replaced, over the frozen microbenchmark address loops. Every generator,
and a replayed trace, must yield the same ``(kind, vaddr, retires)``
stream whether it is cut short or runs past one pass of its footprint
(or the end of its trace).

The cases are seeded; ``SIM_EQUIV_SEED`` (CI rotates it daily) offsets
the seed range, as in ``test_mmu_fastpath.py``.
"""

import os
import random
import tracemalloc

import pytest

import mmu_reference
from repro.errors import SimulationError
from repro.mmu import MemoryOp
from repro.workloads import (
    BfsWorkload,
    LinearAccessWorkload,
    PointerChaseWorkload,
    RandomAccessWorkload,
    StreamWorkload,
    Workload,
    ZipfianKVWorkload,
)
from repro.workloads.trace import TraceWorkload, format_trace

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))


def triples(ops):
    return [(op.kind, op.vaddr, op.retires) for op in ops]


def reference_stream(workload, n_ops):
    """The parent's stream: its address loop where it had its own, and
    its per-op ``ops`` loop."""
    addresses = None
    if isinstance(workload, LinearAccessWorkload):
        addresses = mmu_reference.linear_addresses(workload, n_ops)
    elif isinstance(workload, RandomAccessWorkload):
        addresses = mmu_reference.random_addresses(workload, n_ops)
    return triples(mmu_reference.workload_ops(workload, n_ops, addresses))


def random_generator(rng):
    """``(workload, length)``: one of the six generators, and the length
    of one pass over its footprint in µops."""
    footprint = rng.choice((64, 4096, 3 * 4096 + 192, 1 << 16, 1 << 20))
    seed = rng.randrange(1 << 16)
    ratio = rng.choice((0.0, 0.5, 0.75, 0.98, 1.0, rng.random()))
    lines = footprint // 64
    choice = rng.randrange(6)
    if choice == 0:
        stride = rng.choice((64, 192, 4096))
        workload = LinearAccessWorkload(
            footprint,
            stride=stride,
            load_store_ratio=ratio,
            descending=rng.random() < 0.4,
            warm_pass=rng.random() < 0.3,
        )
        return workload, len(range(0, footprint, stride))
    if choice == 1:
        return RandomAccessWorkload(footprint, load_store_ratio=ratio, seed=seed), lines
    if choice == 2:
        return BfsWorkload(footprint, frontier_len=rng.randint(1, 64), seed=seed), lines
    if choice == 3:
        spec_fraction = rng.choice((0.0, 0.1, 0.3))
        return PointerChaseWorkload(footprint, spec_fraction=spec_fraction, seed=seed), lines
    if choice == 4:
        stride = rng.choice((64, 256))
        return StreamWorkload(max(footprint, 3 * stride), stride=stride), 3 * lines
    return ZipfianKVWorkload(footprint, theta=rng.uniform(0.5, 0.95), seed=seed), lines


@pytest.mark.parametrize("case", range(60))
def test_generator_streams_match_the_reference(case):
    rng = random.Random(BASE_SEED + case)
    workload, length = random_generator(rng)
    for n_ops in (rng.randint(1, max(1, length - 1)), length + rng.randint(1, 2 * length + 64)):
        n_ops = min(n_ops, 40000)
        got = triples(workload.ops(n_ops))
        assert got == reference_stream(workload, n_ops), "case %d %r n_ops=%d" % (case, workload, n_ops)
        assert len(got) == n_ops


@pytest.mark.parametrize("n_ops", [1, 7, 40, 41, 500])
def test_trace_stream_matches_the_reference(n_ops):
    rng = random.Random(BASE_SEED)
    ops = [
        MemoryOp(rng.choice(("load", "store")), rng.randrange(1 << 30), retires=rng.random() < 0.8)
        for _ in range(40)
    ]
    trace = TraceWorkload(format_trace(ops).splitlines())
    got = triples(trace.ops(n_ops))
    assert got == reference_stream(trace, n_ops)
    assert got == triples(ops)[:n_ops]


def test_ops_are_validated_memory_ops():
    class Negative(Workload):
        def addresses(self, n_ops):
            yield ("load", 0)
            yield ("store", -64, False)

    stream = Negative(4096).ops(2)
    first = next(stream)
    assert isinstance(first, MemoryOp) and first.retires
    with pytest.raises(SimulationError, match="negative"):
        next(stream)


@pytest.mark.parametrize("n_ops", [0, -3])
def test_non_positive_budget_raises_at_call(n_ops):
    # At call time, before any iteration: the stream is not a generator.
    with pytest.raises(SimulationError, match="n_ops"):
        LinearAccessWorkload(4096).ops(n_ops)


def test_linear_positions_are_lazy():
    """A 64 MB stride-64 stream has 1M positions; ten µops of it must
    not list them (about 40 MiB when they were)."""
    workload = LinearAccessWorkload(64 << 20, stride=64)
    tracemalloc.start()
    try:
        ops = list(workload.ops(10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [op.vaddr for op in ops] == [64 * index for index in range(10)]
    assert peak < 1 << 20, peak
