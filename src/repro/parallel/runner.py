"""The process-pool core: chunked, deterministic, fallback-safe maps.

:class:`ParallelRunner` deliberately exposes one order-preserving map,
``map_cells``, because every CounterPoint workload that shards is a
matrix of independent cells. Keeping the surface to "a map that cannot
change results" is what makes ``workers=N`` safe to default on
everywhere: the serial path and the pooled path are the same function
applied to the same cells in the same order.

The pool itself is persistent: the first pooled ``map_cells`` spawns
the workers and later calls reuse them, so a pipeline that sweeps
twenty models pays worker startup once, not twenty times. ``close()``
(or garbage collection) shuts the pool down.

Fallback rules (all produce results identical to the pool path):

* ``workers=1`` or a single cell: run in-process, no pool spawned.
* the function or the first cell fails a pre-flight pickle check
  (closures, lambdas, live device handles), or a later cell turns out
  unpicklable at dispatch: run in-process and count it in
  ``fallbacks`` rather than raising mid-flight. (Cells at our call
  sites are homogeneous payload dicts, so checking one is cheap and
  representative — the dispatch-time catch covers the rest.)
* the pool itself dies (:class:`~concurrent.futures.process.
  BrokenProcessPool`, e.g. a worker OOM-killed): discard it, retry
  in-process; the next call builds a fresh pool.
"""

import logging
import os
import pickle

from repro.errors import AnalysisError
from repro.obs.trace import get_tracer

try:  # pragma: no cover - import shape varies across Python versions
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover
    BrokenProcessPool = OSError

logger = logging.getLogger("repro.parallel")


def split_seeds(seed, n, stride=1):
    """The serial loops' seed schedule, reified.

    ``simulate_dataset`` gives run ``i`` seed ``seed + i``;
    ``cross_refute`` gives row ``r`` seed ``seed + 1000 * r``. Cells
    dispatched to workers carry these exact per-cell seeds, so a pooled
    run draws the same random streams as the serial one.
    """
    if n < 0:
        raise AnalysisError("cannot split a negative number of seeds")
    return [seed + stride * index for index in range(n)]


def _picklable(obj):
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


class ParallelRunner:
    """Shard independent work cells across a persistent process pool.

    Parameters
    ----------
    workers:
        Pool size; ``None`` means ``os.cpu_count()``. ``1`` disables
        the pool entirely (pure serial execution, nothing pickled).
    """

    def __init__(self, workers=None):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise AnalysisError("workers must be at least 1, got %r" % (workers,))
        self.workers = int(workers)
        self.fallbacks = 0
        self.dispatches = 0
        #: ``(reason, task_type)`` of the most recent serial fallback,
        #: or ``None`` — the structured detail behind ``fallbacks``.
        self.last_fallback = None
        self._executor = None

    @property
    def serial(self):
        """Whether this runner always executes in-process."""
        return self.workers == 1

    def _pool(self):
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def close(self):
        """Shut the worker pool down (idempotent; a later pooled call
        transparently builds a fresh pool)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _note_fallback(self, reason, fn, n_cells):
        """Record a degrade-to-serial decision loudly: a counter, a
        structured warning on the ``repro.parallel`` logger, and a
        trace event — so a ``workers=N`` run that silently went serial
        is visible in logs and in any trace file."""
        self.fallbacks += 1
        task_type = getattr(fn, "__qualname__", repr(fn))
        self.last_fallback = (reason, task_type)
        logger.warning(
            "parallel dispatch of %s fell back to serial (%s); "
            "%d cells ran in-process", task_type, reason, n_cells,
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "parallel.fallback", reason=reason, task=task_type,
                cells=n_cells,
            )
            tracer.metrics.counter("parallel.fallbacks").inc()

    def map_cells(self, fn, cells, chunk_size=None):
        """Apply ``fn`` to every cell, preserving order.

        ``fn`` must be a module-level callable for the pooled path (the
        pool pickles it by qualified name); anything else triggers the
        serial fallback, never an error. Exceptions raised by ``fn``
        propagate to the caller in both paths. ``chunk_size`` is the
        number of cells per dispatched chunk; ``None`` picks
        ``ceil(n_cells / (4 * workers))`` — large enough to amortise
        IPC, small enough to load-balance uneven cells.
        """
        cells = list(cells)
        if self.workers == 1 or len(cells) <= 1:
            return [fn(cell) for cell in cells]
        if not _picklable(fn) or not _picklable(cells[0]):
            self._note_fallback("unpicklable task", fn, len(cells))
            return [fn(cell) for cell in cells]
        if chunk_size is None:
            chunk_size = max(1, -(-len(cells) // (4 * self.workers)))
        self.dispatches += 1
        try:
            return list(self._pool().map(fn, cells, chunksize=chunk_size))
        except (pickle.PicklingError, TypeError, AttributeError):
            # A later, heterogeneous cell slipped past the pre-flight
            # check (C-extension handles raise TypeError, closures
            # AttributeError — not just PicklingError). Cells are pure
            # functions of their payloads (cache writes are idempotent),
            # so rerunning serially is safe; a genuine TypeError from
            # ``fn`` itself re-raises identically from the serial rerun.
            self._note_fallback("cell failed to pickle", fn, len(cells))
            return [fn(cell) for cell in cells]
        except BrokenProcessPool:
            # A worker died (OOM, signal). The cells are pure functions
            # of their payloads, so re-running serially is safe; drop
            # the dead pool so the next call starts a fresh one.
            self.close()
            self._note_fallback("broken process pool", fn, len(cells))
            return [fn(cell) for cell in cells]

    def __repr__(self):
        return "ParallelRunner(workers=%d, %d dispatches, %d fallbacks)" % (
            self.workers,
            self.dispatches,
            self.fallbacks,
        )


__all__ = ["ParallelRunner", "split_seeds"]
