"""The artifact store's concurrency hardening (repro.results.store).

Covers the two mechanisms the serve daemon leans on when tenants share
one cache directory:

* claim markers — atomic ``O_CREAT|O_EXCL`` files granting exactly one
  worker ownership of an in-flight cell, with stale-claim stealing when
  the owner died mid-compute,
* eviction races — an entry vanishing (or turning to garbage) between
  ``contains`` and ``get`` degrades to a miss-and-recompute, never a
  crash,

plus the :class:`~repro.results.store.ClaimTable` protocol that stitches
them into thread- and process-level work dedup, and two-process stress
tests following ``tests/test_disk_cache.py``'s pattern.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.results import AnalysisSession, ArtifactStore, ClaimTable
from repro.results.store import _STALE_CLAIM_SECONDS, content_key

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "artifacts"), max_bytes=None)


def _backdate(path, seconds):
    old = os.path.getmtime(path) - seconds
    os.utime(path, (old, old))


class TestStoreClaims:
    def test_claim_is_exclusive_until_released(self, store):
        key = content_key("cell", 0)
        assert store.claim("verdict", key)
        assert not store.claim("verdict", key)      # second caller loses
        assert store.claimed("verdict", key)
        store.release_claim("verdict", key)
        assert not store.claimed("verdict", key)
        assert store.claim("verdict", key)          # re-claimable

    def test_release_is_idempotent(self, store):
        key = content_key("cell", 1)
        store.release_claim("verdict", key)         # never claimed: no-op
        assert store.claim("verdict", key)
        store.release_claim("verdict", key)
        store.release_claim("verdict", key)

    def test_stale_claim_is_stolen(self, store):
        key = content_key("cell", 2)
        assert store.claim("verdict", key)
        _backdate(store._claim_path("verdict", key), _STALE_CLAIM_SECONDS + 60)
        assert not store.claimed("verdict", key)    # expired, not live
        # The next claimant steals the dead worker's marker.
        assert store.claim("verdict", key)
        assert store.claimed("verdict", key)        # fresh marker again

    def test_prune_sweeps_stale_claims_but_not_live_ones(self, store):
        live = content_key("cell", 3)
        dead = content_key("cell", 4)
        store.claim("verdict", live)
        store.claim("verdict", dead)
        _backdate(store._claim_path("verdict", dead), _STALE_CLAIM_SECONDS + 60)
        store.prune()
        assert os.path.exists(store._claim_path("verdict", live))
        assert not os.path.exists(store._claim_path("verdict", dead))

    def test_clear_drops_even_live_claims(self, store):
        key = content_key("cell", 5)
        store.claim("verdict", key)
        store.clear()
        assert not store.claimed("verdict", key)


class TestEvictionRace:
    def test_entry_vanishing_behind_our_back_is_a_miss(self, store):
        key = content_key("cell", 10)
        store.put("verdict", key, {"feasible": True})
        assert store.get("verdict", key) is not None
        # Another process's LRU pruning races our read: the file is
        # simply gone. That must read as a miss, never raise.
        os.unlink(store._path("verdict", key))
        misses = store.misses
        assert store.get("verdict", key) is None
        assert store.misses == misses + 1

    def test_torn_bytes_are_discarded_and_missed(self, store):
        key = content_key("cell", 11)
        store.put("verdict", key, {"feasible": True})
        path = store._path("verdict", key)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        assert store.get("verdict", key) is None
        assert not os.path.exists(path)             # garbage was dropped

    def test_session_recomputes_foreign_verdict_payloads(self, tmp_path):
        """A valid envelope wrapping a payload that isn't a CellVerdict
        (older schema, or torn by a racing writer) is discarded and
        recomputed by the session — a sweep never crashes on it."""
        from tests.test_session import dataset, tiny_cone

        store_dir = str(tmp_path / "artifacts")
        warm = AnalysisSession(store=store_dir, backend="exact")
        baseline = warm.sweep(tiny_cone(), dataset(6))
        assert warm.stats.tests == 6

        for path in warm.store._entries():
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
            envelope["payload"] = {"geometry": "nonsense"}
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle)

        cold = AnalysisSession(store=store_dir, backend="exact")
        replay = cold.sweep(tiny_cone(), dataset(6))
        assert cold.stats.tests == 6                # all recomputed
        assert cold.stats.store_hits == 0
        assert replay.to_dict() == baseline.to_dict()


def _replace_payloads(root, payload):
    """Rewrite every entry under ``root`` as a valid envelope around a
    foreign ``payload``."""
    for name in os.listdir(root):
        if not name.endswith(".json"):
            continue
        path = os.path.join(root, name)
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        envelope["payload"] = payload
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)


class TestUndecodablePayloadsAreMisses:
    """An entry whose payload does not decode is a miss everywhere —
    in the store's own counters and in the trace summary — never a hit
    that the caller then throws away."""

    @staticmethod
    def _lookup(kind, cache_dir):
        """Warm one ``kind`` entry, make its payload foreign, and look
        it up again from a fresh reader under a fresh tracer; returns
        ``(store, the kind's row of the trace summary's caches)``."""
        from repro.cone import ModelConeCache
        from repro.models.bundled import load_bundled_model
        from repro.obs import Tracer, activate, summarize_records
        from tests.test_session import dataset, tiny_cone

        mudd = load_bundled_model("merging_load_side")
        if kind == "cone":
            ModelConeCache(disk=cache_dir).get(mudd)
            root = os.path.join(cache_dir, "cones")
        else:
            warm = AnalysisSession(store=cache_dir, backend="exact")
            if kind == "verdict":
                warm.sweep(tiny_cone(), dataset(1))
            else:
                warm.analyze(tiny_cone(), dataset(1)[0].point())
            root = warm.store.root
        _replace_payloads(root, {"counters": []})

        tracer = Tracer()
        with activate(tracer):
            if kind == "cone":
                fresh = ModelConeCache(disk=cache_dir)
                fresh.get(mudd)
                assert fresh.builds == 1
                store = fresh.disk.store
            else:
                cold = AnalysisSession(store=cache_dir, backend="exact")
                if kind == "verdict":
                    cold.sweep(tiny_cone(), dataset(1))
                    assert cold.stats.tests == 1
                else:
                    cold.analyze(tiny_cone(), dataset(1)[0].point())
                assert cold.stats.store_hits == 0
                store = cold.store
        return store, summarize_records(tracer.records)["caches"][kind]

    @pytest.mark.parametrize("kind", ["cone", "verdict", "report"])
    def test_foreign_payload_counts_one_miss(self, tmp_path, kind):
        store, row = self._lookup(kind, str(tmp_path / "cache"))
        assert (store.hits, store.misses) == (0, 1)
        assert (row["hits"], row["misses"]) == (0, 1)
        assert row["hit_rate"] == 0.0


class TestSessionStoreDirectory:
    def test_session_store_leaves_user_files_alone(self, tmp_path):
        """``AnalysisSession(store=<dir>)`` keeps its artifacts in
        ``<dir>/artifacts``: clearing or pruning the store never touches
        the user's own files in ``<dir>``."""
        from tests.test_session import dataset, tiny_cone

        user_dir = tmp_path / "work"
        user_dir.mkdir()
        notes = user_dir / "notes.json"
        notes.write_text('{"mine": true}')
        draft = user_dir / "draft.tmp"
        draft.write_text("half-written")
        _backdate(str(draft), 3600)

        session = AnalysisSession(store=str(user_dir), backend="exact")
        session.sweep(tiny_cone(), dataset(3))
        assert len(session.store) == 1              # one page of 3 cells
        session.store.clear()
        assert len(session.store) == 0
        session.store.max_bytes = 1
        session.sweep(tiny_cone(), dataset(3, offset=3))
        session.store.prune()
        assert notes.read_text() == '{"mine": true}'
        assert draft.read_text() == "half-written"
        assert session.store.root == str(user_dir / "artifacts")

    def test_store_instance_is_used_as_given(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "mine"), max_bytes=None)
        assert AnalysisSession(store=store).store is store


class TestClaimTable:
    def test_local_claim_release_wait(self):
        claims = ClaimTable()
        assert claims.claim("k")
        assert not claims.claim("k")
        assert len(claims) == 1

        finished = []

        def waiter():
            finished.append(claims.wait("k", timeout=30))

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        time.sleep(0.05)
        claims.release("k")
        thread.join(timeout=10)
        assert finished == [True]
        assert len(claims) == 0

    def test_wait_on_unclaimed_key_returns_immediately(self):
        claims = ClaimTable()
        assert claims.wait("never-claimed", timeout=0)

    def test_remote_owner_blocks_second_table(self, store):
        owner = ClaimTable(store=store, poll_interval=0.01)
        other = ClaimTable(store=store, poll_interval=0.01)
        assert owner.claim("k")
        assert store.claimed("verdict", "k")        # visible cross-process
        assert not other.claim("k")                 # remote owner detected

    def test_remote_wait_returns_when_artifact_published(self, store):
        owner = ClaimTable(store=store, poll_interval=0.01)
        other = ClaimTable(store=store, poll_interval=0.01)
        owner.claim("k")
        other.claim("k")
        store.put("verdict", "k", {"feasible": True})
        assert other.wait("k", timeout=10)          # artifact appeared
        assert len(other) == 0                      # waiter deregistered

    def test_remote_wait_returns_when_claim_released(self, store):
        owner = ClaimTable(store=store, poll_interval=0.01)
        other = ClaimTable(store=store, poll_interval=0.01)
        owner.claim("k")
        other.claim("k")

        def release_soon():
            time.sleep(0.05)
            owner.release("k")

        thread = threading.Thread(target=release_soon, daemon=True)
        thread.start()
        # No artifact ever published (the owner "failed") — the lapsed
        # claim still wakes the waiter, which then computes itself.
        assert other.wait("k", timeout=10)
        thread.join(timeout=10)

    def test_remote_wait_times_out_on_stuck_owner(self, store):
        owner = ClaimTable(store=store, poll_interval=0.01)
        other = ClaimTable(store=store, poll_interval=0.01)
        owner.claim("k")
        other.claim("k")
        assert not other.wait("k", timeout=0.2)     # owner never finishes


_CLAIM_SCRIPT = """
import sys
from repro.results import ArtifactStore

store = ArtifactStore(sys.argv[1], max_bytes=None)
wins = sum(
    1
    for index in range(int(sys.argv[2]))
    if store.claim("verdict", "key%04d" % index)
)
print("wins=%d" % wins)
"""

_PUT_SCRIPT = """
import sys
from repro.results import ArtifactStore

store = ArtifactStore(sys.argv[1], max_bytes=2048)  # constantly evicting
for lap in range(int(sys.argv[2])):
    for index in range(32):
        store.put("verdict", "key%04d" % index, {"lap": lap, "cell": index})
print("ok")
"""

_GET_SCRIPT = """
import sys
from repro.results import ArtifactStore

store = ArtifactStore(sys.argv[1], max_bytes=None)
hits = 0
for lap in range(int(sys.argv[2])):
    for index in range(32):
        payload = store.get("verdict", "key%04d" % index)
        if payload is not None:
            assert payload["cell"] == index, payload
            hits += 1
print("hits=%d" % hits)
"""


def _spawn(script, store_dir, count):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", script, store_dir, str(count)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestTwoProcessStress:
    @pytest.mark.slow
    def test_claims_grant_exactly_one_winner_per_key(self, tmp_path):
        """Two processes race to claim the same 64 keys; O_CREAT|O_EXCL
        must grant each key to exactly one of them — no double grants,
        no lost keys."""
        store_dir = str(tmp_path / "artifacts")
        first = _spawn(_CLAIM_SCRIPT, store_dir, 64)
        second = _spawn(_CLAIM_SCRIPT, store_dir, 64)
        out_first, err_first = first.communicate(timeout=120)
        out_second, err_second = second.communicate(timeout=120)
        assert first.returncode == 0, err_first
        assert second.returncode == 0, err_second

        wins = [
            int(out.strip().split("=")[1]) for out in (out_first, out_second)
        ]
        assert sum(wins) == 64
        verifier = ArtifactStore(store_dir, max_bytes=None)
        assert all(
            verifier.claimed("verdict", "key%04d" % index)
            for index in range(64)
        )

    @pytest.mark.slow
    def test_reader_races_evicting_writer_without_crashing(self, tmp_path):
        """A writer publishing under a tiny byte cap evicts constantly
        while a reader loops get() over the same keys: every read is a
        hit or a miss, never an exception, and hits are never torn."""
        store_dir = str(tmp_path / "artifacts")
        writer = _spawn(_PUT_SCRIPT, store_dir, 40)
        reader = _spawn(_GET_SCRIPT, store_dir, 40)
        out_writer, err_writer = writer.communicate(timeout=300)
        out_reader, err_reader = reader.communicate(timeout=300)
        assert writer.returncode == 0, err_writer
        assert reader.returncode == 0, err_reader
        assert "ok" in out_writer
        assert "hits=" in out_reader
