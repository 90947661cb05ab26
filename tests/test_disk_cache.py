"""The persistent on-disk cone-cache tier (repro.cone.diskcache).

Covers the correctness properties the tier promises:

* round-trip fidelity (cones, including deduced constraints, survive
  the disk and a fresh process, and give the same verdicts),
* version-stamp mismatches, corrupt entries and foreign payloads
  degrade to recompute — never a crash,
* nothing read from a cache directory runs code: a planted pickle and a
  planted generated-simulator source are never loaded,
* the tier only touches its own ``cones/`` subdirectory, and a full
  disk costs the cache, not the analysis,
* two processes warming the same directory concurrently cannot corrupt
  entries (atomic whole-file publication),
* the LRU byte cap evicts oldest-first,
* a warm directory lets a literal fresh process skip deduction
  entirely (hit counters prove it).
"""

import errno
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.cone import DiskConeCache, ModelCone, ModelConeCache, mudd_fingerprint
from repro.cone import test_points_feasibility as points_feasibility
from repro.cone.diskcache import CACHE_FORMAT_VERSION
from repro.errors import AnalysisError
from repro.models import M_SERIES, T_SERIES
from repro.models.bundled import bundled_model_names
from repro.models.haswell import ALL_COUNTERS, build_mudd
from repro.obs import Tracer
from repro.pipeline import CounterPoint
from repro.sim import MuDDExecutor, RandomOracle, as_mudd, simulate_dataset

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cones")


@pytest.fixture()
def mudd():
    return as_mudd("merging_load_side")


def _key(mudd, max_paths=2000000):
    return (mudd_fingerprint(mudd), max_paths)


def _entry(mudd, max_paths=2000000):
    """The cone store's key for ``mudd``."""
    return "%s-%d" % _key(mudd, max_paths)


class TestDiskTier:
    def test_round_trip(self, cache_dir, mudd):
        cache = ModelConeCache(disk=cache_dir)
        cone = cache.get(mudd)
        cone.constraints()
        cache.get(mudd)  # write-back of the deduced constraints

        fresh = ModelConeCache(disk=cache_dir)
        loaded = fresh.get(mudd)
        assert fresh.builds == 0
        assert fresh.disk_hits == 1
        assert loaded.counters == cone.counters
        assert loaded.signatures == cone.signatures
        assert loaded.has_deduced_constraints()
        assert [c.render() for c in loaded.constraints()] == [
            c.render() for c in cone.constraints()
        ]

    def test_loaded_cone_rebuilds_solver_state(self, cache_dir, mudd):
        cache = ModelConeCache(disk=cache_dir)
        original = cache.get(mudd)
        original.signature_array()
        original.flow_model()

        loaded = ModelConeCache(disk=cache_dir).get(mudd)
        # A loaded cone is built afresh from its JSON entry; the
        # process-local accelerators are rebuilt lazily — feasibility
        # still works end to end.
        assert loaded._signature_array is None
        assert loaded._flow_model is None and not loaded._flow_model_built
        from repro.cone import test_point_feasibility

        point = dict(zip(loaded.counters, loaded.signatures[0]))
        assert test_point_feasibility(loaded, point, backend="scipy").feasible

    def test_version_mismatch_recomputes(self, cache_dir, mudd):
        old = DiskConeCache(cache_dir, version=CACHE_FORMAT_VERSION - 1)
        ModelConeCache(disk=old).get(mudd)
        assert len(old.store) == 1

        current = ModelConeCache(disk=DiskConeCache(cache_dir))
        cone = current.get(mudd)  # stale entry: recompute, no crash
        assert cone is not None
        assert current.builds == 1
        assert current.disk.hits == 0
        # The stale file was replaced by a current-version entry.
        fresh = ModelConeCache(disk=DiskConeCache(cache_dir))
        fresh.get(mudd)
        assert fresh.builds == 0

    def test_corrupt_entry_recomputes(self, cache_dir, mudd):
        disk = DiskConeCache(cache_dir)
        ModelConeCache(disk=disk).get(mudd)
        (entry,) = disk.store._entries()
        with open(entry, "wb") as handle:
            handle.write(b"\x80garbage: not JSON")

        cache = ModelConeCache(disk=DiskConeCache(cache_dir))
        assert cache.get(mudd) is not None
        assert cache.builds == 1

    def test_truncated_entry_recomputes(self, cache_dir, mudd):
        disk = DiskConeCache(cache_dir)
        ModelConeCache(disk=disk).get(mudd)
        (entry,) = disk.store._entries()
        data = open(entry, "rb").read()
        with open(entry, "wb") as handle:
            handle.write(data[: len(data) // 2])

        cache = ModelConeCache(disk=DiskConeCache(cache_dir))
        assert cache.get(mudd) is not None
        assert cache.builds == 1

    def test_foreign_payload_shape_recomputes(self, cache_dir, mudd):
        disk = DiskConeCache(cache_dir)
        cache = ModelConeCache(disk=disk)
        cone = cache.get(mudd)
        with open(disk.store._path("cone", _entry(mudd)), "w") as handle:
            json.dump(["not", "a", "payload", "dict"], handle)
        fresh = ModelConeCache(disk=DiskConeCache(cache_dir))
        assert fresh.get(mudd).counters == cone.counters
        assert fresh.builds == 1

    @pytest.mark.parametrize("damage", [
        "missing_field", "string_signature", "negative_count",
        "wrong_length_signature", "malformed_constraint",
        "le_constraint", "fractional_normal", "bool_normal",
    ])
    def test_foreign_json_payload_recomputes(self, cache_dir, mudd, damage):
        """A valid envelope around a payload that does not decode to a
        cone is a miss: discarded, rebuilt once, and replaced. A
        constraint of an unknown kind, or with a normal entry that is
        not an int, is never read as another constraint: the cone is
        deduced again."""
        cache = ModelConeCache(disk=cache_dir)
        cone = cache.get(mudd)
        cone.constraints()
        cache.get(mudd)  # publish the deduced copy
        disk = DiskConeCache(cache_dir)
        payload = disk.store.get("cone", _entry(mudd))
        if damage == "missing_field":
            payload = {"counters": []}
        elif damage == "string_signature":
            payload["signatures"][0] = "x" * len(cone.counters)
        elif damage == "negative_count":
            payload["signatures"][0][0] = -1
        elif damage == "wrong_length_signature":
            payload["signatures"][0].append(0)
        elif damage == "le_constraint":
            payload["constraints"][-1]["kind"] = "le"
        elif damage == "fractional_normal":
            payload["constraints"][-1]["normal"][0] = 1.5
        elif damage == "bool_normal":
            normal = payload["constraints"][-1]["normal"]
            normal[normal.index(1)] = True
        else:
            payload["constraints"][0]["normal"] = [1]
        disk.store.put("cone", _entry(mudd), payload)

        fresh = ModelConeCache(disk=DiskConeCache(cache_dir))
        rebuilt = fresh.get(mudd)
        assert fresh.disk.hits == 0
        assert fresh.builds == 1
        assert rebuilt.signatures == cone.signatures
        assert not rebuilt.has_deduced_constraints()
        assert rebuilt.constraints().render() == cone.constraints().render()
        # The rebuild replaced the foreign entry with a good one.
        later = ModelConeCache(disk=DiskConeCache(cache_dir))
        assert later.get(mudd).signatures == cone.signatures
        assert later.builds == 0

    def test_write_back_survives_live_scipy_state(self, cache_dir, mudd):
        """Exercising the scipy membership/flow paths builds nested
        HiGHS handles; the deduced-constraint write-back must still
        serialise (only the cone's data is written)."""
        cache = ModelConeCache(disk=cache_dir)
        cone = cache.get(mudd)
        point = dict(zip(cone.counters, cone.signatures[0]))
        cone.contains(point, backend="scipy")   # geometry Cone solver state
        cone.flow_model()                       # ModelCone solver state
        cone.constraints()
        cache.get(mudd)                         # write-back: must not raise

        fresh = ModelConeCache(disk=cache_dir)
        assert fresh.get(mudd).has_deduced_constraints()
        assert fresh.builds == 0

    def test_disk_hit_then_deduction_is_written_back(self, cache_dir, mudd):
        """A cone loaded undeduced from disk, deduced later in this
        process, must be republished — later processes skip deduction."""
        ModelConeCache(disk=cache_dir).get(mudd)  # publishes undeduced

        second = ModelConeCache(disk=cache_dir)
        cone = second.get(mudd)            # disk hit, still undeduced
        assert not cone.has_deduced_constraints()
        cone.constraints()                 # deduction happens here
        second.get(mudd)                   # next touch writes it back

        third = ModelConeCache(disk=cache_dir)
        assert third.get(mudd).has_deduced_constraints()
        assert third.builds == 0

    def test_stale_temp_files_are_swept(self, cache_dir, mudd):
        """Temp files orphaned by a writer killed mid-put are reclaimed
        by prune() once old, and unconditionally by clear()."""
        disk = DiskConeCache(cache_dir)
        ModelConeCache(disk=disk).get(mudd)
        orphan = os.path.join(disk.store.root, "deadwriter.tmp")
        with open(orphan, "wb") as handle:
            handle.write(b"x" * 64)
        old = os.path.getmtime(orphan) - 3600
        os.utime(orphan, (old, old))

        disk.store.prune()
        assert not os.path.exists(orphan)

        with open(orphan, "wb") as handle:
            handle.write(b"x")
        disk.store.clear()
        assert not os.path.exists(orphan)
        assert len(disk.store) == 0

    def test_user_files_in_cache_dir_survive(self, cache_dir, mudd):
        """The tier owns only ``cones/``: eviction, pruning and clearing
        never touch the user's own files in ``cache_dir``."""
        os.makedirs(cache_dir)
        draft = os.path.join(cache_dir, "draft.tmp")
        notes = os.path.join(cache_dir, "notes.json")
        for path in (draft, notes):
            with open(path, "w") as handle:
                handle.write("user data")
        old = os.path.getmtime(draft) - 3600
        os.utime(draft, (old, old))

        disk = DiskConeCache(cache_dir, max_bytes=1)  # evict every write
        cache = ModelConeCache(disk=disk)
        for name in bundled_model_names():
            cache.get(as_mudd(name))
        disk.store.prune()
        disk.store.clear()
        assert disk.store.evictions >= 1
        assert os.path.exists(draft) and os.path.exists(notes)

    def test_lru_byte_cap_evicts_oldest(self, cache_dir):
        mudds = [as_mudd(name) for name in bundled_model_names()]
        disk = DiskConeCache(cache_dir, max_bytes=1)  # everything over cap
        cache = ModelConeCache(disk=disk)
        for mudd in mudds:
            cache.get(mudd)
        # Each put prunes to the cap: at most the newest entry survives
        # transiently, and eviction counters moved.
        assert len(disk.store) <= 1
        assert disk.store.evictions >= len(mudds) - 1

    def test_unbounded_cache_keeps_everything(self, cache_dir):
        mudds = [as_mudd(name) for name in bundled_model_names()]
        disk = DiskConeCache(cache_dir, max_bytes=None)
        cache = ModelConeCache(disk=disk)
        for mudd in mudds:
            cache.get(mudd)
        assert len(disk.store) == len(mudds)
        assert disk.store.total_bytes() > 0

    def test_invalid_max_bytes(self, cache_dir):
        with pytest.raises(AnalysisError):
            DiskConeCache(cache_dir, max_bytes=0)

    def test_shared_cache_one_instance_per_dir(self, cache_dir):
        from repro.cone.cache import shared_cache

        assert shared_cache(cache_dir) is shared_cache(cache_dir)
        assert shared_cache(cache_dir).disk.cache_dir == os.path.abspath(cache_dir)



class _PlantedPickle:
    """Pickles to ``open(marker, "w")``: loading it creates the marker."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return (open, (self.marker, "w"))


_CODEGEN_RUN_SCRIPT = """
import json
from repro.sim import MuDDExecutor, RandomOracle, as_mudd

executor = MuDDExecutor(as_mudd("merging_load_side"))
print(json.dumps(executor.run(RandomOracle(seed=4), [None] * 3000)))
"""


class TestNothingFromDiskRunsCode:
    def test_planted_pickle_is_never_loaded(self, cache_dir, mudd, tmp_path):
        """A pickle at the pre-JSON entry path is never opened: no
        marker appears, and the cone is built."""
        marker = str(tmp_path / "pickle-ran")
        os.makedirs(cache_dir)
        planted = os.path.join(cache_dir, "%s-%d.conepkl" % _key(mudd))
        with open(planted, "wb") as handle:
            pickle.dump(_PlantedPickle(marker), handle)

        with CounterPoint(cache_dir=cache_dir) as pipeline:
            cone = pipeline.model_cone(mudd)
        assert not os.path.exists(marker)
        assert pipeline.cone_cache.builds == 1
        assert cone.signatures == ModelCone.from_mudd(mudd).signatures

    def test_planted_codegen_source_is_never_run(self, tmp_path):
        """A generated-program file under ``REPRO_CODEGEN_CACHE`` (the
        variable once pointed a disk tier of generated simulator
        programs there), named by the key that tier used, is never
        read: ``run`` in a fresh process matches a ``run_uop`` loop and
        runs nothing planted."""
        codegen_dir = tmp_path / "codegen"
        codegen_dir.mkdir()
        marker = str(tmp_path / "source-ran")
        mudd = as_mudd("merging_load_side")
        key = mudd_fingerprint(mudd, mudd.counters)
        source = (
            "open(%r, 'w').close()\n"
            "def bind(samplers, counts, errors):\n"
            "    def run_trace(uops):\n"
            "        return 0\n"
            "    return run_trace\n" % marker
        )
        with open(str(codegen_dir / (key + ".codegen.json")), "w") as handle:
            json.dump({
                "version": 1, "key": key, "source": source,
                "leaf_deltas": [], "errors": [], "decisions": [],
            }, handle)

        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CODEGEN_CACHE"] = str(codegen_dir)
        run = subprocess.run(
            [sys.executable, "-c", _CODEGEN_RUN_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        reference = MuDDExecutor(mudd)
        oracle = RandomOracle(seed=4)
        for _ in range(3000):
            reference.run_uop(oracle)
        assert json.loads(run.stdout) == reference.snapshot()
        assert not os.path.exists(marker)


def _aligned_points(models, counters, n=2):
    """Simulated totals of ``models``, aligned to ``counters`` (a
    counter a model lacks reads 0)."""
    points = []
    for model in models:
        for observation in simulate_dataset(model, n, n_uops=2000, seed=1):
            point = observation.point()
            points.append({name: point.get(name, 0) for name in counters})
    return points


def _verdicts(cone, points):
    return [
        (result.feasible, result.flows, result.witness)
        for result in points_feasibility(cone, points)
    ]


class TestCodecFidelity:
    def test_round_trip_keeps_content_and_verdicts(self, cache_dir):
        """put/get through a fresh DiskConeCache keeps every field, the
        fingerprint, the deduced constraints, and every verdict: the
        six bundled models and deduced m0/m7, the undeduced m4+t5."""
        bundled = [as_mudd(name) for name in bundled_model_names()]
        cases = []
        for mudd in bundled:
            cone = ModelCone.from_mudd(mudd)
            cone.constraints()
            peers = [
                other for other in bundled
                if set(other.counters) == set(mudd.counters)
            ]
            cases.append((mudd, cone, _aligned_points(peers, cone.counters)))
        m_points = _aligned_points(
            [build_mudd(M_SERIES[name]) for name in ("m0", "m4", "m7")],
            ALL_COUNTERS,
        )
        for name in ("m0", "m7"):
            mudd = build_mudd(M_SERIES[name])
            cone = ModelCone.from_mudd(mudd, counters=ALL_COUNTERS)
            cone.constraints()
            cases.append((mudd, cone, m_points))
        mudd = build_mudd(M_SERIES["m4"], trigger=T_SERIES["t5"])
        cone = ModelCone.from_mudd(mudd, counters=ALL_COUNTERS)
        cases.append((mudd, cone, m_points))

        for mudd, cone, _ in cases:
            DiskConeCache(cache_dir).put(_key(mudd), cone)
        for mudd, cone, points in cases:
            loaded = DiskConeCache(cache_dir).get(_key(mudd))
            assert loaded is not cone
            assert loaded.name == cone.name
            assert loaded.counters == cone.counters
            assert loaded.signatures == cone.signatures
            assert loaded.multiplicities == cone.multiplicities
            assert loaded.fingerprint() == cone.fingerprint()
            assert loaded.has_deduced_constraints() == \
                cone.has_deduced_constraints()
            if cone.has_deduced_constraints():
                assert loaded.constraints().render() == \
                    cone.constraints().render()
            assert _verdicts(loaded, points) == _verdicts(cone, points)


class TestFullDisk:
    def test_failed_writes_do_not_fail_the_analysis(self, tmp_path,
                                                    monkeypatch):
        """With every publish failing (ENOSPC), a cached sweep returns
        what an uncached one does, leaves no temp file, and records a
        ``cache.write_error`` event."""
        data = simulate_dataset("merging_load_side", 4, seed=0)
        with CounterPoint(backend="scipy") as pipeline:
            expected = pipeline.sweep("no_merging_load_side", data).to_dict()

        def full_disk(source, target):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        cache_dir = str(tmp_path / "cache")
        tracer = Tracer()
        with CounterPoint(
            cache_dir=cache_dir, backend="scipy", trace=tracer
        ) as pipeline:
            sweep = pipeline.sweep("no_merging_load_side", data)
        assert sweep.to_dict() == expected
        leftovers = [
            name for _, _, names in os.walk(cache_dir) for name in names
        ]
        assert leftovers == []
        errors = [
            record["attrs"] for record in tracer.records
            if record["type"] == "event"
            and record["name"] == "cache.write_error"
        ]
        assert {"tier": "cone", "errno": errno.ENOSPC} in errors
        assert {"tier": "verdict", "errno": errno.ENOSPC} in errors
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["cache.cone.write_errors"] >= 1

_WARM_SCRIPT = """
import sys
from repro.cone.cache import ModelConeCache
from repro.models.bundled import bundled_model_names
from repro.sim import as_mudd

cache = ModelConeCache(disk=sys.argv[1])
for _ in range(int(sys.argv[2])):
    for name in bundled_model_names():
        cone = cache.get(as_mudd(name))
        cone.constraints()
        cache.get(as_mudd(name))  # publish deduced constraints
print("builds=%d disk_hits=%d" % (cache.builds, cache.disk_hits))
"""


def _spawn_warmer(cache_dir, rounds=3):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", _WARM_SCRIPT, cache_dir, str(rounds)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestConcurrency:
    @pytest.mark.slow
    def test_two_processes_warming_never_corrupt(self, cache_dir):
        """Two concurrent warmers race on every entry; afterwards every
        entry must load cleanly in a third, fresh process-alike."""
        first = _spawn_warmer(cache_dir)
        second = _spawn_warmer(cache_dir)
        out_first, err_first = first.communicate(timeout=300)
        out_second, err_second = second.communicate(timeout=300)
        assert first.returncode == 0, err_first
        assert second.returncode == 0, err_second

        verifier = ModelConeCache(disk=cache_dir)
        for name in bundled_model_names():
            cone = verifier.get(as_mudd(name))
            assert cone.has_deduced_constraints()
        assert verifier.builds == 0
        assert verifier.disk_hits == len(bundled_model_names())

    @pytest.mark.slow
    def test_fresh_process_skips_deduction(self, cache_dir):
        """The acceptance check: a warm directory means a brand-new
        process serves every cone (constraints included) from disk."""
        warmer = _spawn_warmer(cache_dir, rounds=1)
        out, err = warmer.communicate(timeout=300)
        assert warmer.returncode == 0, err

        fresh = _spawn_warmer(cache_dir, rounds=1)
        out, err = fresh.communicate(timeout=300)
        assert fresh.returncode == 0, err
        assert "builds=0" in out, out
        assert "disk_hits=%d" % len(bundled_model_names()) in out, out
