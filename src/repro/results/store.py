"""The content-addressed JSON store: the one on-disk cache in repro.

Every persistent cache tier goes through :class:`ArtifactStore`:
session verdicts and reports (:class:`~repro.results.session.
AnalysisSession`, under ``<cache_dir>/artifacts``) and model cones
(:class:`~repro.cone.diskcache.DiskConeCache`, under
``<cache_dir>/cones``). One artifact per (kind, content key), safe to
share between concurrent processes and across runs:

* **Atomic writes.** Entries go to a temporary file in the root and are
  published with :func:`os.replace`, so a reader sees either nothing or
  a complete entry, never a torn one.
* **Version-stamped envelopes** echoing their own kind and key; any
  mismatch, torn or foreign bytes degrade to a miss, never a crash.
* **Best-effort writes.** A store only saves time, so a failed write (a
  full disk, a vanished directory) drops the entry and the caller
  carries on with the value it computed.
* **LRU byte cap.** File mtimes double as recency; :meth:`prune` evicts
  oldest-first and sweeps temp files and claim markers left by dead
  processes.

A store owns its root: it counts, evicts and sweeps every ``*.json``,
``*.tmp`` and ``*.claim`` file there, so it must be rooted at a
directory of its own, never at one a user chose.

Artifacts are JSON, not pickle, on purpose: reading a cache directory
never runs code, the payloads are the stable schemas the
:mod:`repro.results` types emit (readable by ``jq``, a dashboard or a
future service), and they survive class moves and refactors.
"""

import hashlib
import json
import os
import tempfile
import threading
import time

from repro.errors import AnalysisError
from repro.obs.trace import get_tracer

#: Bump when the envelope layout changes incompatibly; entries carrying
#: any other stamp are treated as misses and recomputed.
ARTIFACT_FORMAT_VERSION = 1

_ENTRY_SUFFIX = ".json"
_CLAIM_SUFFIX = ".claim"

#: Unpublished temp files older than this are garbage from a process
#: that died mid-write; prune() sweeps them.
_STALE_TMP_SECONDS = 600.0

#: Claim markers older than this belong to a worker that died
#: mid-compute; a new claimant steals them (and prune() sweeps them).
_STALE_CLAIM_SECONDS = 600.0


def content_key(*parts):
    """Deterministic hex key from hashable content parts."""
    payload = repr(tuple(parts))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ArtifactStore:
    """Content-addressed directory of JSON artifacts.

    Parameters
    ----------
    root:
        Directory the store owns (created if missing). Safe to share
        between concurrent processes and across runs.
    max_bytes:
        LRU size cap for the directory, pruned after each write;
        ``None`` disables pruning.
    version:
        Envelope format stamp (overridable for tests).
    """

    def __init__(self, root, max_bytes=64 * 1024 * 1024,
                 version=ARTIFACT_FORMAT_VERSION):
        if max_bytes is not None and max_bytes <= 0:
            raise AnalysisError("artifact store max_bytes must be positive")
        self.root = os.fspath(root)
        self.max_bytes = max_bytes
        self.version = version
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Running estimate of bytes on disk, so writes stay O(1): a
        # full directory scan happens only when this crosses the cap
        # (verdict stores hold thousands of small artifacts — scanning
        # on every put would make cold sweeps quadratic).
        self._approx_bytes = None
        # Highest recency stamp this instance has written; _touch
        # ratchets against it so a backwards wall-clock step cannot
        # reorder this process's own LRU recency.
        self._recency_clock = 0.0
        # Guards the mutable bookkeeping (_approx_bytes, counters,
        # _recency_clock) when one store instance is shared between
        # threads — the serve daemon's queued workers publish
        # concurrently. File operations themselves are already safe
        # (atomic os.replace publication, vanished-file-tolerant reads).
        self._lock = threading.Lock()
        os.makedirs(self.root, exist_ok=True)

    # -- key/path plumbing -------------------------------------------------
    @staticmethod
    def key(*parts):
        """Alias of :func:`content_key` for callers holding a store."""
        return content_key(*parts)

    def _path(self, kind, key):
        # Entry names are "<kind>-<key>.json", and eviction reads the
        # kind back from the name, so a kind is one bare label.
        if not kind or any(ch in kind for ch in "/\\.-"):
            raise AnalysisError("artifact kind must be a bare label, got %r" % (kind,))
        return os.path.join(self.root, "%s-%s%s" % (kind, key, _ENTRY_SUFFIX))

    # -- entry I/O ---------------------------------------------------------
    def get(self, kind, key, decode=None):
        """The stored payload for ``(kind, key)``, or ``None``.

        ``decode``, when given, turns the payload dict into the
        caller's object inside the lookup, and an exception from it
        means the payload is foreign (an older schema, or torn by a
        racing writer). Every failure mode — missing file, version
        mismatch, torn or foreign bytes, an undecodable payload — drops
        the entry and counts as a miss, so callers always fall back to
        recomputing; a hit is recorded only for a payload that decoded.
        Hits refresh the entry mtime so LRU pruning tracks use, not
        just creation.
        """
        path = self._path(kind, key)
        try:
            payload = self._read(path, kind, key, decode)
        except FileNotFoundError:
            self._miss(kind)
            return None
        except Exception:
            self._discard(path)
            self._miss(kind)
            return None
        self._touch(path)
        with self._lock:
            self.hits += 1
        tracer = get_tracer()
        if tracer.enabled:
            try:
                size = os.path.getsize(path)
            except OSError:
                size = 0
            tracer.event("cache.hit", tier=kind, bytes=size)
            tracer.metrics.counter("cache.%s.hits" % kind).inc()
            tracer.metrics.counter("cache.%s.bytes_read" % kind).inc(size)
        return payload

    def _read(self, path, kind, key, decode):
        """The (decoded) payload of the entry at ``path``. Raises
        ``FileNotFoundError`` when there is none, and any other
        exception when its bytes, envelope or payload are unusable."""
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        if (
            not isinstance(envelope, dict)
            or envelope.get("version") != self.version
            or envelope.get("kind") != kind
            or envelope.get("key") != key
            or "payload" not in envelope
        ):
            raise ValueError("foreign artifact envelope")
        payload = envelope["payload"]
        return payload if decode is None else decode(payload)

    def _miss(self, kind):
        with self._lock:
            self.misses += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("cache.miss", tier=kind)
            tracer.metrics.counter("cache.%s.misses" % kind).inc()

    def put(self, kind, key, payload):
        """Atomically publish ``payload`` (a JSON-serializable dict)
        under ``(kind, key)`` and prune to the byte cap.

        An :class:`OSError` while writing (a full disk, a vanished
        directory) publishes nothing and leaves no temp file: the entry
        is simply not cached.
        """
        envelope = {
            "version": self.version,
            "kind": kind,
            "key": key,
            "payload": payload,
        }
        data = json.dumps(envelope, sort_keys=True).encode("utf-8")
        path = self._path(kind, key)
        temp_path = None
        try:
            descriptor, temp_path = tempfile.mkstemp(
                dir=self.root, suffix=".tmp"
            )
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data)
            os.replace(temp_path, path)
        except BaseException as error:
            if temp_path is not None:
                self._discard(temp_path)
            if not isinstance(error, OSError):
                raise
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "cache.write_error", tier=kind, errno=error.errno
                )
                tracer.metrics.counter(
                    "cache.%s.write_errors" % kind
                ).inc()
            return
        self._touch(path)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("cache.write", tier=kind, bytes=len(data))
            tracer.metrics.counter("cache.%s.writes" % kind).inc()
            tracer.metrics.counter(
                "cache.%s.bytes_written" % kind
            ).inc(len(data))
        if self.max_bytes is None:
            return
        with self._lock:
            if self._approx_bytes is None:
                self._approx_bytes = self.total_bytes()
            else:
                self._approx_bytes += len(data)
            over_cap = self._approx_bytes > self.max_bytes
        if over_cap:
            self.prune()

    def contains(self, kind, key, decode=None):
        """Whether :meth:`get` with the same arguments would return a
        payload. Nothing is counted, refreshed or dropped."""
        try:
            self._read(self._path(kind, key), kind, key, decode)
        except Exception:
            return False
        return True

    # -- in-flight claims --------------------------------------------------
    def _claim_path(self, kind, key):
        return os.path.join(
            self.root, "%s-%s%s" % (kind, key, _CLAIM_SUFFIX)
        )

    def claim(self, kind, key, stale_after=_STALE_CLAIM_SECONDS):
        """Atomically claim ``(kind, key)`` for computation.

        Returns ``True`` when this caller now owns the claim — it must
        :meth:`release_claim` when the artifact is published (or the
        computation fails). ``False`` means another live worker holds
        it; wait and re-read instead of computing. Claims left behind
        by a worker that died mid-compute go stale after
        ``stale_after`` seconds and are stolen by the next claimant.
        """
        path = self._claim_path(kind, key)
        for _ in range(2):
            try:
                descriptor = os.open(
                    path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                try:
                    age = time.time() - os.stat(path).st_mtime
                except OSError:
                    continue  # released between open and stat: retry
                if age < stale_after:
                    return False
                self._discard(path)  # stale: steal on the next lap
                continue
            except OSError:
                return False  # unusable directory: act unclaimed-by-us
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(str(os.getpid()))
            return True
        return False

    def release_claim(self, kind, key):
        """Drop a claim taken with :meth:`claim` (idempotent)."""
        self._discard(self._claim_path(kind, key))

    def claimed(self, kind, key):
        """Whether an unexpired claim marker exists for ``(kind, key)``."""
        try:
            age = time.time() - os.stat(self._claim_path(kind, key)).st_mtime
        except OSError:
            return False
        return age < _STALE_CLAIM_SECONDS

    def __len__(self):
        return len(self._entries())

    # -- maintenance -------------------------------------------------------
    def _entries(self):
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return [
            os.path.join(self.root, name)
            for name in names
            if name.endswith(_ENTRY_SUFFIX)
        ]

    def total_bytes(self):
        """Bytes currently used by artifacts."""
        total = 0
        for path in self._entries():
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total

    def _sweep_stale_temps(self, max_age=_STALE_TMP_SECONDS):
        """Remove temp files abandoned by processes killed mid-write
        (young ones may belong to a concurrent writer about to
        publish)."""
        now = time.time()
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        for name in names:
            if name.endswith(".tmp"):
                horizon = max_age
            elif name.endswith(_CLAIM_SUFFIX):
                # Claim markers from dead workers block dedup-waiters
                # until stolen; sweep them on the same maintenance pass
                # (clear(), which passes max_age=0, drops them all).
                horizon = _STALE_CLAIM_SECONDS if max_age > 0 else 0.0
            else:
                continue
            path = os.path.join(self.root, name)
            try:
                if now - os.stat(path).st_mtime >= horizon:
                    self._discard(path)
            except OSError:
                continue

    def prune(self):
        """Evict least-recently-used artifacts until under the byte cap
        (and sweep temp files orphaned by dead writers)."""
        self._sweep_stale_temps()
        if self.max_bytes is None:
            return
        stats = []
        for path in self._entries():
            try:
                info = os.stat(path)
            except OSError:
                continue
            stats.append((info.st_mtime, info.st_size, path))
        total = sum(size for _, size, _ in stats)
        if total <= self.max_bytes:
            self._approx_bytes = total
            return
        stats.sort()  # oldest mtime first
        tracer = get_tracer()
        for _, size, path in stats:
            if total <= self.max_bytes:
                break
            if self._discard(path):
                self.evictions += 1
                total -= size
                if tracer.enabled:
                    entry = os.path.basename(path)
                    kind = entry.split("-", 1)[0]
                    tracer.event(
                        "cache.evict", tier=kind, entry=entry, bytes=size,
                    )
                    tracer.metrics.counter(
                        "cache.%s.evictions" % kind
                    ).inc()
        self._approx_bytes = total

    def clear(self):
        """Remove every artifact and temp file (counters are kept)."""
        for path in self._entries():
            self._discard(path)
        self._sweep_stale_temps(max_age=0.0)
        self._approx_bytes = 0

    def _touch(self, path):
        # Recency must be monotonic within this instance: a plain
        # os.utime uses the wall clock, which can step backwards and
        # make a just-used entry look LRU-oldest. Ratchet the stamp so
        # every touch/publish orders after the previous one.
        with self._lock:
            stamp = max(time.time(), self._recency_clock + 1e-6)
            self._recency_clock = stamp
        try:
            os.utime(path, (stamp, stamp))
        except OSError:
            pass

    @staticmethod
    def _discard(path):
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    def __repr__(self):
        return "ArtifactStore(%r, %d artifacts, %d hits, %d misses)" % (
            self.root,
            len(self),
            self.hits,
            self.misses,
        )


class ClaimTable:
    """In-flight computation claims: one owner per content key.

    The :class:`ArtifactStore` deduplicates *completed* work; this
    table deduplicates work *in flight*. Before computing a cell a
    worker calls :meth:`claim` — ``True`` makes it the owner (compute,
    record, :meth:`release`), ``False`` means someone else is already
    computing it (:meth:`wait`, then re-read the memo/store; if the
    owner failed the verdict is still absent and the waiter computes
    it itself).

    Claims are process-local :class:`threading.Event`\\ s; with a
    ``store`` attached, claim *files* extend the protocol across
    processes (a second daemon on the same cache directory): remote
    owners are detected via the store's claim markers and waited on by
    polling for the published artifact.
    """

    def __init__(self, store=None, kind="verdict", poll_interval=0.05):
        self.store = store
        self.kind = kind
        self.poll_interval = poll_interval
        self._lock = threading.Lock()
        self._events = {}

    def claim(self, key):
        """Try to become the computing owner of ``key``."""
        with self._lock:
            if key in self._events:
                return False
            event = threading.Event()
            self._events[key] = event
        if self.store is not None and not self.store.claim(self.kind, key):
            # A *remote* process owns the cell. Keep our local event
            # registered (so threads here coalesce onto one waiter) but
            # mark it remote: wait() then polls the store.
            event.remote = True
            return False
        return True

    def release(self, key):
        """Drop ownership of ``key`` and wake every waiter (idempotent).

        Called whether the computation succeeded or failed — waiters
        re-read the memo/store and fall back to computing themselves
        when the verdict never arrived.
        """
        with self._lock:
            event = self._events.pop(key, None)
        if event is not None:
            event.set()
        if self.store is not None:
            self.store.release_claim(self.kind, key)

    def wait(self, key, timeout=600.0):
        """Block until ``key``'s owner releases it (or ``timeout``).

        Returns ``True`` when the owner finished (locally or, for
        remote owners, when the artifact appeared or their claim
        lapsed); ``False`` on timeout. Either way the caller re-reads
        and computes itself if the verdict is still missing — wait can
        only cost time, never correctness.
        """
        with self._lock:
            event = self._events.get(key)
        if event is None:
            return True
        if not getattr(event, "remote", False):
            return event.wait(timeout)
        deadline = time.time() + timeout
        store = self.store
        while time.time() < deadline:
            if store.contains(self.kind, key) or \
                    not store.claimed(self.kind, key):
                with self._lock:
                    stale = self._events.pop(key, None)
                if stale is not None:
                    stale.set()
                return True
            time.sleep(self.poll_interval)
        return False

    def __len__(self):
        with self._lock:
            return len(self._events)

    def __repr__(self):
        return "ClaimTable(%d in flight%s)" % (
            len(self),
            ", store=%r" % (self.store.root,) if self.store is not None
            else "",
        )


__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactStore",
    "ClaimTable",
    "content_key",
]
