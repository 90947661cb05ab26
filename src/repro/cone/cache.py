"""Content-addressed model-cone cache.

Building a :class:`~repro.cone.model_cone.ModelCone` from a µDD means
enumerating every µpath, and asking it for constraints means running the
exponential Section 6 deduction — yet `analyze`/`sweep`/`compare`/
`cross_refute` and the simulation scenarios routinely revisit the same
model many times. This module provides an LRU cache keyed by a
*canonical fingerprint* of the µDD (its name, node structure and
labels, decision branch values, and the counter ordering — node ids are
relabelled by a deterministic traversal, so identical µDDs hit the same
entry regardless of how their ids were allocated).

Caching the :class:`ModelCone` object transitively caches everything it
memoises: the signature matrix, the float fast-path arrays, and —
because :meth:`ModelCone.constraints` is itself cached per instance —
the deduced facets. A model's constraints are therefore computed at most
once per process regardless of how many pipeline calls touch it.

A process keeps one cache per cache directory, plus one memory-only
cache, all reached through :func:`shared_cache`: every
:class:`CounterPoint`, :func:`repro.models.build_model_cone`,
:func:`repro.sim.scenarios.closed_loop` and the CLI share them. The
table of caches is itself an LRU of :data:`MAX_SHARED_CACHES` entries,
so a process that opens many directories keeps a bounded number of
cones alive.
"""

import hashlib
import os
import threading
from collections import OrderedDict

from repro.cone.model_cone import ModelCone
from repro.errors import AnalysisError
from repro.mudd import DECISION, MuDD


def mudd_fingerprint(mudd, counters=None):
    """Canonical content hash of a µDD: its name, structure, labels,
    branch values and counter ordering.

    Node ids are replaced by visit order of a deterministic DFS that
    sorts branches by their value labels, so the fingerprint does not
    depend on id allocation or insertion order. Two µDDs with equal
    fingerprints generate the same µpath signatures over the same
    counter ordering. The name is part of the hash: a bundled model and
    its DSL source compiled under the default name ``"model"``
    fingerprint differently.

    When ``counters`` is ``None`` the µDD's own counter ordering is
    folded into the key: ``mudd.counters`` depends on node-id
    allocation, so two structurally identical µDDs can disagree on it —
    they must then not share a cache entry, or observations aligned to
    one ordering would be read against the other.

    Memoized per µDD instance (and its unchanged copies) by mutation
    count, name and counter ordering.
    """
    if not isinstance(mudd, MuDD):
        raise AnalysisError("mudd_fingerprint expects a MuDD")
    key = ("fingerprint", None if counters is None else tuple(counters))
    return mudd._memoized(key, lambda: _fingerprint_walk(mudd, counters))


def _fingerprint_walk(mudd, counters):
    """:func:`mudd_fingerprint` computed from scratch."""
    if counters is None:
        counters = mudd.counters
    start = mudd.start_node()
    order = {}
    pieces = []
    stack = [start.node_id]
    while stack:
        node_id = stack.pop()
        if node_id in order:
            continue
        order[node_id] = len(order)
        edges = mudd.out_edges(node_id)
        if mudd.nodes[node_id].kind == DECISION:
            edges.sort(key=lambda edge: str(edge.value))
        # Push in reverse so the first branch is visited first.
        for edge in reversed(edges):
            stack.append(edge.target)
    for node_id, position in sorted(order.items(), key=lambda item: item[1]):
        node = mudd.nodes[node_id]
        edges = mudd.out_edges(node_id)
        if node.kind == DECISION:
            edges.sort(key=lambda edge: str(edge.value))
        pieces.append(
            (
                node.kind,
                node.label,
                tuple((str(edge.value), order[edge.target]) for edge in edges),
            )
        )
    payload = repr((mudd.name, tuple(pieces), tuple(counters)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ModelConeCache:
    """An LRU of :class:`ModelCone` objects keyed by µDD content, with
    an optional persistent on-disk tier behind it.

    :meth:`get` is serialized by a lock so the cache may be shared
    between threads (the serve daemon runs concurrent jobs against one
    pipeline); sharing across :class:`CounterPoint` instances is safe
    because cached cones are treated as immutable by all callers. The
    *disk* tier (:class:`repro.cone.diskcache.DiskConeCache`, JSON
    entries in ``<cache_dir>/cones/``) is safe to share between
    concurrent processes — pool workers warming one directory each
    publish entries atomically.

    Parameters
    ----------
    maxsize:
        In-memory LRU entry cap.
    disk:
        Persistent tier: a :class:`~repro.cone.diskcache.DiskConeCache`,
        or a directory path to build one over, or ``None`` (memory
        only). Lookup order is memory → disk → build; builds and
        memory-tier misses that hit disk both populate the memory tier,
        and builds are published to disk (again once deduced, so the
        constraints persist too).
    """

    def __init__(self, maxsize=128, disk=None):
        if maxsize <= 0:
            raise AnalysisError("cache maxsize must be positive")
        self.maxsize = maxsize
        self._lock = threading.RLock()
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.builds = 0
        if disk is not None and not hasattr(disk, "get"):
            from repro.cone.diskcache import DiskConeCache

            disk = DiskConeCache(disk)
        self.disk = disk
        # Keys whose disk copy was written before constraint deduction
        # ran; rewritten on a later hit so the deduction persists too.
        self._undeduced = set()

    def __len__(self):
        return len(self._entries)

    @property
    def disk_hits(self):
        """Hits served by the persistent tier (0 without one)."""
        return self.disk.hits if self.disk is not None else 0

    def _remember(self, key, cone):
        self._entries[key] = cone
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def _write_back(self, key, cone):
        """Persist ``cone``; track whether its deduction is still due."""
        if self.disk is None:
            return
        self.disk.put(key, cone)
        if cone.has_deduced_constraints():
            self._undeduced.discard(key)
        else:
            self._undeduced.add(key)

    def get(self, mudd, counters=None, max_paths=2000000):
        """The model cone of ``mudd``, built at most once per content.

        With a disk tier the "at most once" extends across processes
        and runs: a build is published to disk, and later processes
        (or concurrent pool workers) load it instead of rebuilding.
        """
        key = (mudd_fingerprint(mudd, counters=counters), max_paths)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                # Constraint deduction ran after the disk copy was
                # written: rewrite so no future process ever deduces
                # this model again.
                if key in self._undeduced and entry.has_deduced_constraints():
                    self._write_back(key, entry)
                return entry
            self.misses += 1
            cone = None
            if self.disk is not None:
                cone = self.disk.get(key)
                if cone is not None and not cone.has_deduced_constraints():
                    # The disk copy predates deduction; if this process
                    # (or a later one through us) deduces, persist that
                    # too.
                    self._undeduced.add(key)
            if cone is None:
                cone = ModelCone.from_mudd(
                    mudd, counters=counters, max_paths=max_paths
                )
                self.builds += 1
                self._write_back(key, cone)
            self._remember(key, cone)
            return cone

    def clear(self):
        """Drop the memory tier and reset counters (disk entries stay)."""
        with self._lock:
            self._entries.clear()
            self._undeduced.clear()
            self.hits = 0
            self.misses = 0
            self.builds = 0

    def __repr__(self):
        return "ModelConeCache(%d/%d entries, %d hits, %d misses, %d builds%s)" % (
            len(self._entries),
            self.maxsize,
            self.hits,
            self.misses,
            self.builds,
            ", disk=%r" % (self.disk.cache_dir,) if self.disk is not None else "",
        )


# How many caches shared_cache keeps (directories, and None for the
# memory-only one). A pipeline holds its own cache while it lives, so
# dropping one here only frees it once no pipeline uses it.
MAX_SHARED_CACHES = 8
_shared = OrderedDict()
_shared_lock = threading.Lock()


def shared_cache(cache_dir=None):
    """The process's :class:`ModelConeCache` for ``cache_dir``.

    One instance per normalised directory path, backed by an on-disk
    tier there; ``None`` is the memory-only cache. At most
    :data:`MAX_SHARED_CACHES` are kept, least recently used dropped
    first.
    """
    key = None if cache_dir is None else os.path.abspath(os.fspath(cache_dir))
    with _shared_lock:
        cache = _shared.get(key)
        if cache is None:
            cache = _shared[key] = ModelConeCache(disk=key)
            if len(_shared) > MAX_SHARED_CACHES:
                _shared.popitem(last=False)
        else:
            _shared.move_to_end(key)
        return cache


__all__ = [
    "MAX_SHARED_CACHES",
    "ModelConeCache",
    "mudd_fingerprint",
    "shared_cache",
]
