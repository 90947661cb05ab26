"""Workload base class: deterministic µop address-stream generators."""

from itertools import islice, starmap

from repro.errors import SimulationError
from repro.mmu.core import MemoryOp


class Workload:
    """Base class for deterministic workload generators.

    Subclasses implement :meth:`addresses`, yielding ``(kind, vaddr,
    retires)`` triples or ``(kind, vaddr)`` pairs (retiring by default).
    The base class wraps them into :class:`MemoryOp` and enforces the
    op budget.
    """

    name = "workload"

    def __init__(self, footprint_bytes, seed=0):
        if footprint_bytes <= 0:
            raise SimulationError("footprint must be positive")
        self.footprint_bytes = footprint_bytes
        self.seed = seed

    def addresses(self, n_ops):
        """Yield up to ``n_ops`` access descriptors."""
        raise NotImplementedError

    def ops(self, n_ops):
        """An iterator of at most ``n_ops`` :class:`MemoryOp` µops.

        Raises :class:`SimulationError` at call time (not at the first
        iteration) when ``n_ops`` is not positive. Each descriptor is
        unpacked straight into a validated :class:`MemoryOp`; no Python
        frame runs between the generator and its consumer.
        """
        if n_ops <= 0:
            raise SimulationError("n_ops must be positive")
        return starmap(MemoryOp, islice(self.addresses(n_ops), n_ops))

    def describe(self):
        """Metadata used in observation labels."""
        return {"name": self.name, "footprint": self.footprint_bytes}

    def __repr__(self):
        return "%s(footprint=%d)" % (type(self).__name__, self.footprint_bytes)


def footprint_lines(footprint_bytes):
    """The number of 64-byte lines in a footprint. Raises
    :class:`SimulationError` for a footprint under one line, which a
    generator that draws lines cannot address."""
    lines = footprint_bytes // 64
    if lines <= 0:
        raise SimulationError(
            "footprint of %r bytes is smaller than one 64-byte line" % (footprint_bytes,)
        )
    return lines


def store_period(load_store_ratio):
    """The deterministic load/store interleave of a stream.

    ``load_store_ratio`` is the fraction of loads (1.0 = loads only,
    0.0 = stores only). Returns ``None`` for loads only; otherwise op
    ``index`` is a store when ``index % period == period - 1`` (period
    1: every op). Deterministic interleaving keeps streams
    reproducible. Raises :class:`SimulationError` for a ratio outside
    [0, 1].
    """
    if not 0.0 <= load_store_ratio <= 1.0:
        raise SimulationError("load_store_ratio must be in [0, 1]")
    if load_store_ratio >= 1.0:
        return None
    if load_store_ratio <= 0.0:
        return 1
    return max(2, round(1.0 / (1.0 - load_store_ratio)))


def interleave_stores(index, load_store_ratio):
    """Should op ``index`` be a store? See :func:`store_period`."""
    period = store_period(load_store_ratio)
    return period is not None and index % period == period - 1
