"""Persistent on-disk tier for the model-cone cache.

The in-process :class:`~repro.cone.cache.ModelConeCache` dies with the
process, so every fresh run — a new CLI invocation, a new CI job, a new
pool worker — pays µpath enumeration and (worse) constraint deduction
again. This module keeps :class:`~repro.cone.model_cone.ModelCone`
objects on disk, content-addressed by the same canonical µDD
fingerprint the memory tier uses, so a cone is computed once per model
*ever* and shared between concurrent processes.

:class:`DiskConeCache` is a JSON codec over an
:class:`~repro.results.store.ArtifactStore` that owns
``<cache_dir>/cones/``; atomic publication, version envelopes, the LRU
byte cap and stale-temp sweeping are the store's. A cone entry holds
plain data — name, counters, integer signatures, multiplicities and
the deduced constraints' coprime integer normals — so the round trip
is exact and reading a cache directory never runs code. A payload that
fails to decode (a foreign shape, a count that is negative, not an
integer or outside int64, a malformed constraint) is discarded and
recomputed — never a crash. Entries are keyed by the µDD fingerprint,
not the cone fingerprint, so a change to how cones are fingerprinted
leaves them valid. Entries from
before :data:`CACHE_FORMAT_VERSION` 2 (``*.conepkl`` pickles in
``cache_dir`` itself) are never opened.
"""

import os

from repro.cone.constraints import ConstraintSet, ModelConstraint
from repro.cone.model_cone import ModelCone

#: Bump when the cone payload layout changes incompatibly; old entries
#: are then recomputed instead of trusted.
CACHE_FORMAT_VERSION = 2

_KIND = "cone"


def _encode(cone):
    constraints = None
    if cone.has_deduced_constraints():
        constraints = [item.to_dict() for item in cone.constraints()]
    return {
        "name": cone.name,
        "counters": list(cone.counters),
        "signatures": cone.rows.tolist(),
        "multiplicities": cone.multiplicities,
        "constraints": constraints,
    }


def _decode(payload):
    """The cone a payload encodes; raises on anything malformed."""
    signatures = payload["signatures"]
    # numpy would read a JSON true beside integers as 1.
    if not all(type(entry) is int for row in signatures for entry in row):
        raise ValueError("cone signatures must be integer rows")
    cone = ModelCone(
        payload["counters"],
        signatures,
        name=payload["name"],
        multiplicities=payload["multiplicities"],
    )
    if payload["constraints"] is not None:
        constraints = [
            ModelConstraint.from_dict(item) for item in payload["constraints"]
        ]
        if any(item.counters != cone.counters for item in constraints):
            raise ValueError("constraint counters differ from the cone's")
        cone._constraints = ConstraintSet(constraints, cone.counters)
    return cone


class DiskConeCache:
    """Content-addressed directory of model cones.

    Parameters
    ----------
    cache_dir:
        Directory to keep cones under (created if missing); the entries
        live in its ``cones/`` subdirectory. Safe to share between
        concurrent processes and across runs.
    max_bytes:
        LRU size cap for the cone directory; ``None`` disables pruning.
    version:
        Format stamp for entries (overridable for tests); entries
        carrying any other stamp are recomputed.

    ``store`` is the underlying :class:`~repro.results.store.
    ArtifactStore`, for maintenance (``prune``, ``clear``, ``len``,
    ``evictions``).
    """

    def __init__(self, cache_dir, max_bytes=256 * 1024 * 1024,
                 version=CACHE_FORMAT_VERSION):
        # repro.results imports repro.cone (through the session), so
        # the store cannot be imported at module level.
        from repro.results.store import ArtifactStore

        self.cache_dir = os.fspath(cache_dir)
        self.store = ArtifactStore(
            os.path.join(self.cache_dir, "cones"),
            max_bytes=max_bytes,
            version=version,
        )
        self.hits = 0

    def get(self, key):
        """The cached cone for ``key`` (``(fingerprint, max_paths)``),
        or ``None``: a missing, stale or undecodable entry is a miss."""
        cone = self.store.get(_KIND, "%s-%d" % tuple(key), decode=_decode)
        if cone is None:
            return None
        self.hits += 1
        return cone

    def put(self, key, cone):
        """Publish ``cone`` (with its constraints, once deduced)."""
        self.store.put(_KIND, "%s-%d" % tuple(key), _encode(cone))


__all__ = ["CACHE_FORMAT_VERSION", "DiskConeCache"]
