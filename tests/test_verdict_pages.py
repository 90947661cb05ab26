"""Verdict pages: every cell of a sweep unit lives in one store entry.

:class:`~repro.results.session.AnalysisSession` stores the verdicts that
share (cone fingerprint, backend, mode, explain) as one *page*: an
:class:`~repro.results.store.ArtifactStore` entry of kind ``verdict``
mapping observation hashes to cells. These tests hold the page's
contracts:

* a fresh store-backed session returns the bytes a memo-only session
  computes, and computes nothing, over random point and region
  campaigns on both backends, with ``explain`` off and on;
* a warmed sweep grown by one observation computes one cell and reads
  its page once;
* threads sharing a session lose no cell: each batch is merged into the
  page as it is on disk;
* two processes writing one page never leave a torn or foreign page,
  and a cell one of them lost is recomputed, never answered wrongly;
* a truncated, foreign or older-version page is one miss, recomputed.

``SIM_EQUIV_SEED`` (CI rotates it daily) seeds the random campaigns, as
in ``test_verdict_content.py``.
"""

import json
import os
import random
import subprocess
import sys
import threading
import time

import pytest

from repro import CounterPoint, Plan, PlanResult
from repro.cone import ModelCone
from repro.models import bundled_model_names
from repro.results import AnalysisSession, ArtifactStore, ClaimTable
from repro.results.fingerprint import observation_fingerprint
from repro.results.session import _decode_page, compute_cell_verdicts
from repro.results.store import ARTIFACT_FORMAT_VERSION
from repro.results.types import CellVerdict
from repro.sim import simulate_dataset

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))

MODELS = bundled_model_names()
N_UOPS = 2000

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def tiny_cone():
    # Generators (1,0) and (1,1): feasible iff 0 <= b <= a.
    return ModelCone(["a", "b"], [(1, 0), (1, 1)], name="tiny")


def points(indices):
    # Every third point violates b <= a.
    return [
        {"a": 5 + index, "b": 9 + index if index % 3 == 0 else 2}
        for index in indices
    ]


def page_paths(root):
    return sorted(
        os.path.join(root, name) for name in os.listdir(root)
        if name.startswith("verdict-") and name.endswith(".json")
    )


def read_page(path):
    """``(envelope, {cell: verdict})`` of the page at ``path``; raises
    if the file is torn or its payload does not decode in full."""
    with open(path, "r", encoding="utf-8") as handle:
        envelope = json.load(handle)
    return envelope, _decode_page(envelope["payload"])


# -- (a) random campaigns ---------------------------------------------------


def random_campaign(rng, use_regions, explain):
    """A plan of a few simulated datasets and random sweeps and compares
    over them, every op in one mode (points or regions)."""
    plan = Plan()
    datasets = []
    for index in range(rng.randint(2, 3)):
        op_id = "data%d" % index
        plan.simulate_dataset(
            rng.choice(MODELS), rng.randint(2, 4), n_uops=N_UOPS,
            seed=BASE_SEED + rng.randrange(1000), op_id=op_id,
        )
        datasets.append(op_id)
    for index in range(rng.randint(2, 4)):
        options = dict(
            use_regions=use_regions, correlated=rng.random() < 0.5,
            explain=explain,
        )
        if rng.random() < 0.5:
            plan.sweep(
                rng.choice(MODELS), rng.choice(datasets),
                op_id="sweep%d" % index, **options
            )
        else:
            plan.compare(
                rng.sample(MODELS, rng.randint(2, 4)), rng.choice(datasets),
                op_id="compare%d" % index, **options
            )
    return plan


def bundle(result):
    return PlanResult(dict(result.items())).to_json(indent=2)


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
@pytest.mark.parametrize("backend", ["exact", "scipy"])
@pytest.mark.parametrize("use_regions", [False, True], ids=["points", "regions"])
def test_store_answers_the_bytes_the_memo_computes(
    use_regions, backend, explain, tmp_path
):
    rng = random.Random("%d/%s/%s/%s" % (BASE_SEED, use_regions, backend, explain))
    plan = random_campaign(rng, use_regions, explain)
    with CounterPoint(backend=backend) as counterpoint:
        memo_only = bundle(counterpoint.run(plan))
    with CounterPoint(backend=backend, cache_dir=tmp_path) as counterpoint:
        cold = bundle(counterpoint.run(plan))
    with CounterPoint(backend=backend, cache_dir=tmp_path) as counterpoint:
        warm = bundle(counterpoint.run(plan))
        stats = counterpoint.session().stats
    assert cold == memo_only
    assert warm == memo_only
    assert stats.tests == 0
    assert stats.store_hits > 0


# -- (b) one new observation ------------------------------------------------


@pytest.mark.parametrize("use_regions", [False, True], ids=["points", "regions"])
def test_appended_observation_computes_one_cell_and_reads_one_page(
    use_regions, tmp_path
):
    data = simulate_dataset(
        "merging_load_side", 6, n_uops=N_UOPS, seed=BASE_SEED
    )
    warm = AnalysisSession(store=tmp_path, backend="exact")
    warm.sweep("no_merging_load_side", data[:5], use_regions=use_regions)
    assert warm.stats.tests == 5
    (path,) = page_paths(warm.store.root)

    fresh = AnalysisSession(store=tmp_path, backend="exact")
    grown = fresh.sweep("no_merging_load_side", data, use_regions=use_regions)
    assert fresh.stats.tests == 1
    assert fresh.stats.store_hits == 5
    assert (fresh.store.hits, fresh.store.misses) == (1, 0)
    assert page_paths(fresh.store.root) == [path]
    assert len(read_page(path)[1]) == 6

    reference = AnalysisSession(backend="exact")
    expected = reference.sweep(
        "no_merging_load_side", data, use_regions=use_regions
    )
    assert grown.to_json() == expected.to_json()


def test_dry_run_reads_each_page_once(tmp_path, monkeypatch):
    cone = tiny_cone()
    plan = Plan()
    plan.sweep(cone, points(range(30)), op_id="sweep")
    with CounterPoint(backend="exact", cache_dir=tmp_path) as warm:
        warm.run(plan)
    reads = []
    real = ArtifactStore._read

    def counting(store, path, kind, key, decode):
        reads.append(kind)
        return real(store, path, kind, key, decode)

    monkeypatch.setattr(ArtifactStore, "_read", counting)
    with CounterPoint(backend="exact", cache_dir=tmp_path) as cold:
        report = cold.plan_engine().dry_run(plan)
    assert report.cache == {"known_hits": 30, "unknown": 0}
    assert reads == ["verdict"]


# -- (c) threads sharing one session ----------------------------------------


@pytest.mark.parametrize("claims", [False, True], ids=["unclaimed", "claimed"])
def test_threads_sharing_a_session_lose_no_cell(claims, tmp_path):
    session = AnalysisSession(store=tmp_path, backend="exact")
    if claims:
        session.claims = ClaimTable(store=session.store)
    cone = tiny_cone()
    n_threads, window = 8, 24
    barrier = threading.Barrier(n_threads)
    failures = []

    def sweeper(thread):
        # Overlapping windows, grown one point at a time: every sweep
        # publishes one batch while the other threads publish theirs.
        start = 6 * thread
        try:
            barrier.wait(timeout=30)
            for end in range(start + 1, start + window + 1):
                session.sweep(cone, points(range(start, end)))
        except Exception as error:  # pragma: no cover - diagnostic
            failures.append(repr(error))

    threads = [
        threading.Thread(target=sweeper, args=(thread,), daemon=True)
        for thread in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures

    everything = points(range(6 * (n_threads - 1) + window))
    (path,) = page_paths(session.store.root)
    assert len(read_page(path)[1]) == len(everything)
    fresh = AnalysisSession(store=tmp_path, backend="exact")
    replay = fresh.sweep(cone, everything)
    assert fresh.stats.tests == 0
    assert replay.to_dict() == AnalysisSession(backend="exact").sweep(
        cone, everything
    ).to_dict()


def test_remote_claim_waits_for_its_cell_in_the_page(tmp_path):
    store = ArtifactStore(str(tmp_path / "artifacts"), max_bytes=None)
    owner = ClaimTable(store=store, poll_interval=0.01)
    other = ClaimTable(store=store, poll_interval=0.01)
    assert owner.claim(("page", "cell"))
    assert not other.claim(("page", "cell"))        # a remote owner
    store.merge("verdict", "page", {"another": {}}, decode=dict)
    assert not other.wait(("page", "cell"), timeout=0.1)
    store.merge("verdict", "page", {"cell": {}}, decode=dict)
    assert other.wait(("page", "cell"), timeout=10)
    owner.release(("page", "cell"))
    assert not store.claimed("verdict", "page-cell")


def test_merge_drops_a_page_that_does_not_decode(tmp_path):
    """A foreign member on disk never outlives the next merge, so a
    page damaged between a session's read and its write heals."""

    store = ArtifactStore(str(tmp_path / "artifacts"), max_bytes=None)
    cell = CellVerdict(True).to_dict()
    store.put("verdict", "page", {"old": cell, "foreign": {"counters": []}})
    store.merge("verdict", "page", {"new": cell}, decode=_decode_page)
    assert store.get("verdict", "page") == {"new": cell}
    store.merge("verdict", "page", {"newer": cell}, decode=_decode_page)
    assert store.get("verdict", "page") == {"new": cell, "newer": cell}
    assert (store.hits, store.misses) == (2, 0)     # merges read no lookup


# -- (d) two processes on one page ------------------------------------------


_WRITER_SCRIPT = """
import sys
from repro.cone import ModelCone
from repro.results import AnalysisSession

cone = ModelCone(["a", "b"], [(1, 0), (1, 1)], name="tiny")
session = AnalysisSession(store=sys.argv[1], backend="exact")
mine = [
    {"a": 5 + index, "b": 9 + index if index % 3 == 0 else 2}
    for index in range(int(sys.argv[2]), int(sys.argv[3]), 2)
]
for end in range(1, len(mine) + 1):
    session.sweep(cone, mine[:end])
print("tests=%d" % session.stats.tests)
"""


@pytest.mark.slow
def test_two_processes_never_tear_a_page(tmp_path):
    """Two processes grow disjoint halves of one page, one cell per
    write, while this process reads the page: every read is a whole,
    current-version page of correct verdicts. Cells one writer's page
    overwrote are recomputed by the next session, never misanswered."""
    n_cells = 80
    cone = tiny_cone()
    everything = points(range(n_cells))
    expected = {
        observation_fingerprint(point): verdict.to_dict()
        for point, verdict in zip(
            everything, compute_cell_verdicts(cone, everything)
        )
    }

    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path),
             str(parity), str(n_cells)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for parity in (0, 1)
    ]
    root = os.path.join(str(tmp_path), "artifacts")
    reads = 0
    deadline = time.time() + 120
    while any(writer.poll() is None for writer in writers) and time.time() < deadline:
        for path in page_paths(root) if os.path.isdir(root) else []:
            try:
                envelope, cells = read_page(path)
            except FileNotFoundError:
                continue
            assert envelope["version"] == ARTIFACT_FORMAT_VERSION
            assert envelope["kind"] == "verdict"
            assert os.path.basename(path) == "verdict-%s.json" % envelope["key"]
            for cell, verdict in cells.items():
                assert verdict.to_dict() == expected[cell]
            reads += 1
    for writer in writers:
        out, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
        assert out.strip() == "tests=%d" % (n_cells // 2)

    (path,) = page_paths(root)
    _, kept = read_page(path)
    assert set(kept) <= set(expected)
    fresh = AnalysisSession(store=str(tmp_path), backend="exact")
    replay = fresh.sweep(cone, everything)
    assert fresh.stats.store_hits == len(kept)
    assert fresh.stats.tests == n_cells - len(kept)
    assert replay.to_dict() == AnalysisSession(backend="exact").sweep(
        cone, everything
    ).to_dict()
    assert reads > 0


# -- (e) damaged pages ------------------------------------------------------


def _truncate(envelope, text):
    return text[: len(text) // 2]


def _foreign_member(envelope, text):
    cells = sorted(envelope["payload"])
    envelope["payload"][cells[0]] = {"counters": []}
    return json.dumps(envelope)


def _foreign_key(envelope, text):
    envelope["key"] = "0" * 64
    return json.dumps(envelope)


def _version_2(envelope, text):
    envelope["version"] = 2
    return json.dumps(envelope)


@pytest.mark.parametrize("damage", [
    _truncate, _foreign_member, _foreign_key, _version_2,
], ids=["truncated", "foreign_member", "foreign_key", "version_2"])
def test_damaged_page_is_one_miss_and_recomputed(damage, tmp_path):
    cone = tiny_cone()
    data = points(range(6))
    warm = AnalysisSession(store=tmp_path, backend="exact")
    expected = warm.sweep(cone, data).to_dict()
    (path,) = page_paths(warm.store.root)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(damage(json.loads(text), text))

    fresh = AnalysisSession(store=tmp_path, backend="exact")
    assert fresh.has_verdicts(cone, data) == [False] * len(data)
    assert fresh.sweep(cone, data).to_dict() == expected
    assert fresh.stats.tests == len(data)
    assert fresh.stats.store_hits == 0
    assert (fresh.store.hits, fresh.store.misses) == (0, 1)

    # The recompute published a whole page again.
    healed = AnalysisSession(store=tmp_path, backend="exact")
    assert healed.sweep(cone, data).to_dict() == expected
    assert healed.stats.tests == 0
    assert healed.stats.store_hits == len(data)
