"""repro.serve: the daemon, the fair queue, and the shared task space.

The headline contracts, asserted with real call counters and real
sockets:

* the :class:`QueueScheduler` is bit-for-bit equal to the serial
  reference — swapping schedulers never changes results;
* the :class:`FairQueue` interleaves tenants by weighted virtual time
  (equal weights alternate strictly; a 4x priority buys 4x the turns;
  idle periods bank no credit) and rejects pushes beyond its bound;
* two tenants submitting overlapping plans concurrently share cell
  work: total feasibility calls equal the deduplicated cell count;
* re-submitting a completed plan computes **zero** new cells and
  fetches a **byte-identical** result bundle;
* cancellation is cooperative and leaves the shared store consistent —
  a re-POST resumes instead of recomputing;
* submissions beyond ``max_queue`` surface as
  :class:`~repro.errors.QueueFullError` / HTTP 429 + Retry-After.
"""

import socket
import threading
import time

import pytest

import repro.results.session as session_module
from repro.errors import JobCancelled, QueueFullError, ReproError, ServeError
from repro.pipeline import CounterPoint
from repro.plan import Plan, SerialScheduler
from repro.serve import (
    CancelToken,
    FairQueue,
    PlanService,
    QueueScheduler,
    ServeClient,
    ServeDaemon,
    priority_weight,
)
from repro.serve.daemon import MAX_REQUEST_BYTES
from repro.serve.queue import WorkItem


def overlap_plan():
    """A closed-loop campaign whose ops overlap: 14 cells requested,
    8 unique after global deduplication."""
    plan = Plan()
    data = plan.simulate_dataset(
        "pde_refined", n_observations=2, n_uops=2000, seed=0, op_id="data"
    )
    plan.sweep("pde_initial", dataset=data, explain=True, op_id="refute")
    plan.compare(
        ["pde_initial", "pde_refined"], dataset=data, explain=True,
        op_id="ranking",
    )
    plan.cross_refute(
        ["pde_refined", "pde_initial"], n_observations=2, n_uops=2000,
        seed=0, explain=True, op_id="matrix",
    )
    return plan


class CountingFeasibility:
    """Counts observations actually LP-tested (thread-safe)."""

    def __init__(self, monkeypatch):
        self.batches = []
        self._lock = threading.Lock()
        real = session_module.test_points_feasibility

        def wrapper(cone, targets, backend="exact", **kwargs):
            targets = list(targets)
            with self._lock:
                self.batches.append(len(targets))
            return real(cone, targets, backend=backend, **kwargs)

        monkeypatch.setattr(
            session_module, "test_points_feasibility", wrapper
        )

    @property
    def total(self):
        with self._lock:
            return sum(self.batches)


class GatedFeasibility:
    """Blocks every feasibility batch on a gate — lets tests hold a job
    mid-run deterministically (cancellation, backpressure, 409s)."""

    def __init__(self, monkeypatch):
        self.gate = threading.Event()
        self.entered = threading.Event()
        real = session_module.test_points_feasibility

        def wrapper(cone, targets, backend="exact", **kwargs):
            self.entered.set()
            assert self.gate.wait(30), "test gate never released"
            return real(cone, targets, backend=backend, **kwargs)

        monkeypatch.setattr(
            session_module, "test_points_feasibility", wrapper
        )


def _noop():
    return None


class TestFairQueue:
    def test_fifo_within_one_tenant(self):
        queue = FairQueue()
        for index in range(5):
            queue.push(WorkItem(_noop, tenant="t", cost=index + 1))
        costs = [queue.pop(timeout=0).cost for _ in range(5)]
        assert costs == [1, 2, 3, 4, 5]

    def test_equal_weights_alternate_strictly(self):
        queue = FairQueue()
        for _ in range(6):
            queue.push(WorkItem(_noop, tenant="heavy", weight=1.0, cost=1.0))
        for _ in range(3):
            queue.push(WorkItem(_noop, tenant="light", weight=1.0, cost=1.0))
        order = [queue.pop(timeout=0).tenant for _ in range(9)]
        # While both are backlogged the turns alternate — the heavy
        # tenant's 6 items cannot starve the light tenant's 3.
        assert order[:6] == ["heavy", "light"] * 3
        assert order[6:] == ["heavy"] * 3

    def test_priority_weight_buys_proportional_share(self):
        queue = FairQueue()
        for _ in range(8):
            queue.push(WorkItem(
                _noop, tenant="vip", weight=priority_weight("high"),
                cost=1.0,
            ))
        for _ in range(4):
            queue.push(WorkItem(
                _noop, tenant="std", weight=priority_weight("low"),
                cost=1.0,
            ))
        order = [queue.pop(timeout=0).tenant for _ in range(12)]
        # 4x the weight, 4x the turns — proportional service, never
        # exclusivity: std still lands a turn in every window of 5.
        assert order[:10].count("vip") == 8
        assert order[:10].count("std") == 2

    def test_newly_active_tenant_banks_no_idle_credit(self):
        queue = FairQueue()
        for _ in range(8):
            queue.push(WorkItem(_noop, tenant="busy", weight=1.0, cost=1.0))
        for _ in range(4):
            queue.pop(timeout=0)  # busy's clock advances to 4
        queue.push(WorkItem(_noop, tenant="late", weight=1.0, cost=1.0))
        queue.push(WorkItem(_noop, tenant="late", weight=1.0, cost=1.0))
        order = [queue.pop(timeout=0).tenant for _ in range(5)]
        # Late's clock caught up to busy's floor: it interleaves from
        # now on instead of cashing in 4 turns of idle credit.
        assert order == ["busy", "late", "busy", "late", "busy"]

    def test_bounded_queue_rejects_with_retry_after(self):
        queue = FairQueue(max_items=2)
        queue.push(WorkItem(_noop))
        queue.push(WorkItem(_noop))
        with pytest.raises(QueueFullError) as caught:
            queue.push(WorkItem(_noop))
        assert caught.value.retry_after > 0
        queue.pop(timeout=0)
        queue.push(WorkItem(_noop))  # capacity freed: accepted again

    def test_invalid_bound(self):
        with pytest.raises(ServeError):
            FairQueue(max_items=0)

    def test_pop_timeout_returns_none(self):
        assert FairQueue().pop(timeout=0.01) is None

    def test_close_fails_queued_items(self):
        queue = FairQueue()
        item = WorkItem(_noop)
        queue.push(item)
        queue.close()
        with pytest.raises(ServeError):
            item.wait(timeout=1)
        with pytest.raises(ServeError):
            queue.push(WorkItem(_noop))
        assert queue.pop(timeout=0) is None

    def test_work_item_propagates_worker_errors(self):
        def boom():
            raise ValueError("exploded in the worker")

        item = WorkItem(boom)
        item.execute()
        with pytest.raises(ValueError, match="exploded"):
            item.wait(timeout=1)

    def test_unknown_priority_rejected(self):
        with pytest.raises(ServeError):
            priority_weight("urgent")


class TestCancelToken:
    def test_check_raises_once_cancelled(self):
        token = CancelToken("job-1")
        token.check()  # not cancelled: no-op
        token.cancel()
        assert token.cancelled
        with pytest.raises(JobCancelled):
            token.check()

    def test_cancelled_token_blocks_dispatch(self):
        with QueueScheduler(workers=1) as scheduler:
            token = CancelToken("job-2")
            token.cancel()
            bound = scheduler.for_job(tenant="t", token=token)
            with pytest.raises(JobCancelled):
                bound.compute(None, None, [], False, False)

    def test_cancelled_item_skipped_by_worker(self):
        token = CancelToken("job-3")
        token.cancel()
        item = WorkItem(_noop, token=token)
        item.execute()
        with pytest.raises(JobCancelled):
            item.wait(timeout=1)


class TestQueueScheduler:
    def test_queued_run_matches_serial_bit_for_bit(self):
        with CounterPoint(backend="scipy") as serial_pipeline:
            serial_result = serial_pipeline.run(
                overlap_plan(), scheduler=SerialScheduler()
            )
        with CounterPoint(backend="scipy") as queued_pipeline:
            with QueueScheduler(workers=3) as scheduler:
                queued_result = queued_pipeline.run(
                    overlap_plan(), scheduler=scheduler
                )
        serial_dict = serial_result.to_dict()
        queued_dict = queued_result.to_dict()
        # Wall-clock differs; every verdict and statistic must not.
        assert serial_dict.pop("timing")["ops"].keys() == \
            queued_dict.pop("timing")["ops"].keys()
        assert queued_dict == serial_dict

    def test_scheduler_closed_rejects_submissions(self):
        scheduler = QueueScheduler(workers=1)
        scheduler.close()
        scheduler.close()  # idempotent
        with pytest.raises(ServeError):
            scheduler._submit(WorkItem(_noop))


@pytest.fixture()
def service():
    svc = PlanService(workers=2, max_queue=8, backend="scipy")
    yield svc
    svc.close()


def _wait_terminal(service, job_id, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status = service.status(job_id)
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.02)
    raise AssertionError("job %s never finished: %r"
                         % (job_id, service.status(job_id)))


class TestPlanService:
    def test_submit_runs_to_done_with_stats(self, service):
        submitted = service.submit(overlap_plan(), tenant="alice")
        assert submitted["state"] == "queued"
        status = _wait_terminal(service, submitted["id"])
        assert status["state"] == "done"
        assert status["stats"]["cells"] == 8
        assert status["stats"]["cells_requested"] == 14
        assert status["tasks"]["deduplicated"] == 6
        assert status["started"] is not None
        assert status["finished"] >= status["started"]

    def test_resubmit_computes_zero_and_is_byte_identical(self, service):
        first = service.submit(overlap_plan(), tenant="alice")
        _wait_terminal(service, first["id"])
        second = service.submit(overlap_plan(), tenant="bob")
        status = _wait_terminal(service, second["id"])
        # The acceptance criterion: a re-POST is pure cache.
        assert status["stats"]["computed"] == 0
        assert service.result_text(first["id"]) == \
            service.result_text(second["id"])

    def test_concurrent_tenants_share_cell_work(self, monkeypatch):
        counter = CountingFeasibility(monkeypatch)
        with PlanService(workers=2, max_queue=8, backend="scipy") as svc:
            alice = svc.submit(overlap_plan(), tenant="alice")
            bob = svc.submit(overlap_plan(), tenant="bob")
            jobs = [
                _wait_terminal(svc, alice["id"])["stats"],
                _wait_terminal(svc, bob["id"])["stats"],
            ]
            text_alice = svc.result_text(alice["id"])
            text_bob = svc.result_text(bob["id"])
            stats = svc.stats()
        assert text_alice == text_bob
        # The acceptance criterion: two clients with overlapping plans
        # share cell work — the claim table makes the total number of
        # feasibility calls equal the deduplicated cell count, however
        # the two jobs' threads interleaved.
        assert counter.total == 8
        # Each job reports only its own cells, however they overlapped.
        assert sum(job["computed"] for job in jobs) == 8
        for job in jobs:
            assert job["cells_requested"] == (
                job["computed"] + job["memo_hits"] + job["store_hits"]
            )
        assert set(stats["tenants"]) == {"alice", "bob"}
        for tenant in ("alice", "bob"):
            assert 0.0 <= stats["tenants"][tenant]["dedup_hit_rate"] <= 1.0

    def test_cancellation_resumes_on_resubmit(self, monkeypatch):
        gate = GatedFeasibility(monkeypatch)
        with PlanService(workers=1, max_queue=8, backend="scipy") as svc:
            job = svc.submit(overlap_plan(), tenant="alice")
            assert gate.entered.wait(60), "job never reached a batch"
            svc.cancel(job["id"])
            gate.gate.set()
            status = _wait_terminal(svc, job["id"])
            assert status["state"] == "cancelled"
            with pytest.raises(ServeError):
                svc.result_text(job["id"])
            # Cells the cancelled job completed stay in the shared
            # space: the re-POST resumes (fewer than 8 computed) and
            # finishes normally.
            retry = svc.submit(overlap_plan(), tenant="alice")
            final = _wait_terminal(svc, retry["id"])
            assert final["state"] == "done"
            assert final["stats"]["computed"] < 8
            assert svc.result_text(retry["id"])

    def test_backpressure_at_max_queue(self, monkeypatch):
        gate = GatedFeasibility(monkeypatch)
        with PlanService(workers=1, max_queue=1, backend="scipy") as svc:
            job = svc.submit(overlap_plan(), tenant="alice")
            assert gate.entered.wait(60)
            with pytest.raises(QueueFullError) as caught:
                svc.submit(overlap_plan(), tenant="bob")
            assert caught.value.retry_after > 0
            gate.gate.set()
            _wait_terminal(svc, job["id"])
            # Capacity freed: the retried submission is accepted.
            retry = svc.submit(overlap_plan(), tenant="bob")
            assert _wait_terminal(svc, retry["id"])["state"] == "done"

    def test_compile_failure_fails_the_job_not_the_daemon(self, service):
        plan = Plan()
        plan.sweep("this is not (valid) DSL;;", dataset={
            "inline": [{"name": "x", "point": {"a": 1}}],
        })
        job = service.submit(plan, tenant="alice")
        status = _wait_terminal(service, job["id"])
        assert status["state"] == "failed"
        assert status["error"]
        # The daemon survives: the next job runs normally.
        ok = service.submit(overlap_plan(), tenant="alice")
        assert _wait_terminal(service, ok["id"])["state"] == "done"

    def test_event_log_is_sequenced_and_terminal(self, service):
        job = service.submit(overlap_plan(), tenant="alice")
        _wait_terminal(service, job["id"])
        events = service.events(job["id"])
        assert [event["seq"] for event in events] == \
            list(range(len(events)))
        states = [event["state"] for event in events
                  if event["event"] == "state"]
        assert states[0] == "queued"
        assert states[-1] == "done"
        assert "compiling" in states and "running" in states
        # Progress events carry the batch accounting.
        assert any(event["event"] == "progress" for event in events)
        # Resume mid-log: strictly the suffix.
        assert service.events(job["id"], after=3) == events[3:]

    def test_unknown_job_raises(self, service):
        with pytest.raises(ServeError):
            service.status("job-999999")
        with pytest.raises(ServeError):
            service.cancel("job-999999")

    def test_bad_plan_payloads_rejected(self, service):
        with pytest.raises(ReproError):
            service.submit(12345)
        with pytest.raises(ReproError):
            service.submit(overlap_plan(), priority="urgent")

    def test_submit_after_close_rejected(self):
        svc = PlanService(workers=1, backend="scipy")
        svc.close()
        with pytest.raises(ServeError):
            svc.submit(overlap_plan())


def raw_post(daemon, content_length, body):
    """POST ``body`` to /v1/plans over a bare socket with the given
    Content-Length header; returns the response status code."""
    request = (
        "POST /v1/plans HTTP/1.1\r\nHost: %s\r\nContent-Length: %s\r\n\r\n"
        % (daemon.host, content_length)
    ).encode("ascii") + body
    with socket.create_connection((daemon.host, daemon.port), timeout=10) as sock:
        sock.sendall(request)
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1])


@pytest.fixture()
def daemon():
    with ServeDaemon(port=0, workers=2, max_queue=8,
                     backend="scipy") as running:
        yield running


class TestHttpDaemon:
    def test_health_and_submit_round_trip(self, daemon):
        client = ServeClient(daemon.url, tenant="alice")
        assert client.healthy()
        job = client.submit(overlap_plan())
        assert job["state"] == "queued"
        status = client.wait(job["id"], timeout=120)
        assert status["state"] == "done"
        result = client.result(job["id"])
        assert set(result) == {"data", "refute", "ranking", "matrix"}
        assert result["matrix"].diagonal_feasible()

    def test_http_resubmit_is_byte_identical_with_zero_computed(
        self, daemon
    ):
        client = ServeClient(daemon.url, tenant="alice")
        first = client.submit(overlap_plan())
        client.wait(first["id"], timeout=120)
        second = ServeClient(daemon.url, tenant="bob").submit(overlap_plan())
        status = client.wait(second["id"], timeout=120)
        assert status["stats"]["computed"] == 0
        assert client.result_text(first["id"]) == \
            client.result_text(second["id"])

    def test_event_stream_replays_and_resumes(self, daemon):
        client = ServeClient(daemon.url, tenant="alice")
        job = client.submit(overlap_plan())
        client.wait(job["id"], timeout=120)
        events = list(client.events(job["id"], timeout=10))
        assert events, "no events streamed"
        assert [event["seq"] for event in events] == \
            list(range(len(events)))
        assert events[-1]["event"] == "state"
        assert events[-1]["state"] == "done"
        resumed = list(client.events(job["id"], after=2, timeout=10))
        assert resumed == events[2:]

    def test_cancel_round_trip(self, daemon, monkeypatch):
        gate = GatedFeasibility(monkeypatch)
        client = ServeClient(daemon.url, tenant="alice")
        job = client.submit(overlap_plan())
        assert gate.entered.wait(60)
        client.cancel(job["id"])
        gate.gate.set()
        status = client.wait(job["id"], timeout=60)
        assert status["state"] == "cancelled"

    def test_result_before_done_is_409(self, daemon, monkeypatch):
        gate = GatedFeasibility(monkeypatch)
        client = ServeClient(daemon.url, tenant="alice")
        job = client.submit(overlap_plan())
        assert gate.entered.wait(60)
        with pytest.raises(ServeError, match="no result yet"):
            client.result_text(job["id"])
        gate.gate.set()
        client.wait(job["id"], timeout=120)
        assert client.result_text(job["id"])

    def test_http_backpressure_is_429_with_retry_after(self, monkeypatch):
        gate = GatedFeasibility(monkeypatch)
        with ServeDaemon(port=0, workers=1, max_queue=1,
                         backend="scipy") as daemon:
            client = ServeClient(daemon.url, tenant="alice")
            job = client.submit(overlap_plan())
            assert gate.entered.wait(60)
            with pytest.raises(QueueFullError) as caught:
                client.submit(overlap_plan(), tenant="bob")
            assert caught.value.retry_after > 0
            # The raw response carries the Retry-After header too.
            status, headers, _ = client._request(
                "POST", "/v1/plans",
                body={"plan": overlap_plan().to_dict(), "tenant": "bob"},
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            gate.gate.set()
            client.wait(job["id"], timeout=120)

    def test_bad_requests_are_4xx_not_crashes(self, daemon):
        client = ServeClient(daemon.url)
        with pytest.raises(ServeError):
            client.status("job-999999")
        with pytest.raises(ServeError):
            client.result_text("job-999999")
        with pytest.raises(ServeError):
            client.cancel("job-999999")
        status, _, _ = client._request("POST", "/v1/plans",
                                       body={"not_a_plan": True})
        assert status == 400
        status, _, _ = client._request("GET", "/v1/nonsense")
        assert status == 404
        # Malformed bodies, sent raw so no client library tidies them up.
        assert raw_post(daemon, "abc", b"") == 400
        assert raw_post(daemon, "-5", b"") == 400  # must not wait for EOF
        assert raw_post(daemon, "2", b"[]") == 400
        assert raw_post(daemon, "6", b'"plan"') == 400
        assert raw_post(daemon, str(MAX_REQUEST_BYTES + 1), b"") == 413
        assert client.healthy()  # daemon still alive after all of that

    def test_stats_document_shape(self, daemon):
        client = ServeClient(daemon.url, tenant="alice")
        job = client.submit(overlap_plan())
        client.wait(job["id"], timeout=120)
        stats = client.server_stats()
        assert stats["jobs"].get("done") == 1
        assert "alice" in stats["tenants"]
        assert "serve.jobs.submitted" in stats["metrics"]["counters"]
        assert stats["metrics"]["histograms"][
            "serve.job.wait_seconds"]["count"] == 1

    def test_jobs_listing_most_recent_first(self, daemon):
        client = ServeClient(daemon.url, tenant="alice")
        first = client.submit(overlap_plan())
        client.wait(first["id"], timeout=120)
        second = client.submit(overlap_plan())
        client.wait(second["id"], timeout=120)
        listed = client.jobs()
        assert [job["id"] for job in listed] == [second["id"], first["id"]]
