"""The multi-tenant analysis daemon: plans in, verdicts out, shared.

:class:`PlanService` is the HTTP-free core (tests drive it directly):
clients submit plan JSON and get a job id back; jobs advance through
``queued → compiling → running → done/failed/cancelled``, emitting a
monotonically-sequenced event log that the HTTP layer serves as
NDJSON or long-poll; finished jobs expose a *canonical*
:class:`~repro.plan.engine.PlanResult` bundle. Everything analysis-
shaped is shared: one pipeline, one
:class:`~repro.results.session.AnalysisSession` (with a
:class:`~repro.results.store.ClaimTable` so concurrent jobs never
compute the same cell), one
:class:`~repro.serve.queue.QueueScheduler` giving weighted fair
service across tenants — the millionth user's sweep is mostly cache
hits.

The canonical result bundle contains the op results only — no
``stats`` or ``timing``, which differ between cold and warm runs — and
is serialized with sorted keys, so re-submitting a completed plan
returns a **byte-identical** document (with 0 newly computed cells).
Run statistics live on the *status* endpoint instead.

:class:`ServeDaemon` wraps the service in a stdlib
:class:`~http.server.ThreadingHTTPServer`:

========  ============================  =======================================
method    path                          meaning
========  ============================  =======================================
POST      /v1/plans                     submit ``{"plan": ..., "tenant": ...,
                                        "priority": ...}`` → 202 + job id;
                                        429 + Retry-After when the queue is full;
                                        413 for a body over MAX_REQUEST_BYTES
GET       /v1/plans                     list jobs (most recent first)
GET       /v1/plans/<id>                job status (state, progress, stats,
                                        structured errors)
GET       /v1/plans/<id>/events         NDJSON event stream (``?after=SEQ``
                                        resumes; closes when the job ends)
GET       /v1/plans/<id>/result         the canonical PlanResult bundle
                                        (409 until the job is done)
DELETE    /v1/plans/<id>                cancel (cooperative; already-terminal
                                        jobs are left as they ended)
GET       /v1/healthz                   liveness
GET       /v1/stats                     queue depth, per-tenant dedup
                                        hit-rates, metrics snapshot
========  ============================  =======================================
"""

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import JobCancelled, QueueFullError, ReproError, ServeError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer
from repro.plan.compiler import compile_plan
from repro.plan.engine import PlanResult
from repro.plan.spec import Plan
from repro.results.store import ClaimTable
from repro.serve.queue import (
    CancelToken,
    FairQueue,
    QueueScheduler,
    WorkItem,
    priority_weight,
)

#: Largest request body the daemon reads, in bytes. A longer declared
#: ``Content-Length`` is refused with 413 before any of the body is read.
MAX_REQUEST_BYTES = 8 * 1024 * 1024

#: Job states; ``done``/``failed``/``cancelled`` are terminal.
JOB_STATES = ("queued", "compiling", "running", "done", "failed",
              "cancelled")
_TERMINAL = frozenset(("done", "failed", "cancelled"))


class ServeJob:
    """One submitted plan: state machine plus sequenced event log."""

    def __init__(self, job_id, plan, tenant, priority):
        self.job_id = job_id
        self.plan = plan
        self.tenant = tenant
        self.priority = priority
        self.token = CancelToken(job_id)
        self.state = "queued"
        self.created = time.time()
        self.started = None
        self.finished = None
        self.result_text = None
        self.stats = None
        self.errors = []
        self.error = None
        self.tasks = {}
        self.progress = {"queued": 0, "executed": 0, "cost": 0}
        self._events = []
        self._changed = threading.Condition()
        self.emit("state", state="queued")

    # -- event log ---------------------------------------------------------
    def emit(self, event, **attrs):
        """Append one sequenced event and wake every waiter."""
        with self._changed:
            record = {"seq": len(self._events), "ts": time.time(),
                      "job": self.job_id, "event": event}
            record.update(attrs)
            self._events.append(record)
            self._changed.notify_all()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("serve.job.%s" % event, job=self.job_id, **attrs)

    def events_after(self, after=0, timeout=None):
        """Events with ``seq >= after`` — long-polls up to ``timeout``
        seconds when none are available yet and the job is live."""
        with self._changed:
            if len(self._events) <= after and not self.terminal:
                self._changed.wait(timeout)
            return list(self._events[after:])

    def observe(self, event, **attrs):
        """The scheduler observer: batch progress into the event log."""
        self.progress[event] = self.progress.get(event, 0) + 1
        if event == "executed":
            self.progress["cost"] += attrs.get("cost", 0)
        self.emit("progress", kind=event, **attrs)

    # -- state machine -----------------------------------------------------
    def set_state(self, state, **attrs):
        self.state = state
        if state == "running" and self.started is None:
            self.started = time.time()
        if state in _TERMINAL:
            self.finished = time.time()
        self.emit("state", state=state, **attrs)

    @property
    def terminal(self):
        return self.state in _TERMINAL

    def describe(self):
        """The status document (everything but the result bundle)."""
        status = {
            "id": self.job_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "tasks": dict(self.tasks),
            "progress": dict(self.progress),
            "events": len(self._events),
        }
        if self.stats is not None:
            status["stats"] = dict(self.stats)
        if self.errors:
            status["errors"] = [dict(entry) for entry in self.errors]
        if self.error is not None:
            status["error"] = self.error
        return status

    def __repr__(self):
        return "ServeJob(%s, %s, tenant=%r)" % (
            self.job_id, self.state, self.tenant,
        )


class PlanService:
    """The daemon core: shared pipeline, fair admission, job registry.

    Parameters
    ----------
    pipeline:
        A ready :class:`~repro.pipeline.CounterPoint`; ``None`` builds
        one from ``backend``/``cache_dir``. The pipeline is kept
        single-process (``workers=1``) — concurrency comes from the
        service's worker *threads*, which share every cache tier.
    workers:
        Thread count, used both to drive admitted jobs and to drain
        the cell-level :class:`~repro.serve.queue.QueueScheduler`.
    max_queue:
        Admission bound: jobs submitted while this many are already
        queued or running are rejected with
        :class:`~repro.errors.QueueFullError` (HTTP 429 +
        ``Retry-After``). ``None`` is unbounded.
    """

    def __init__(self, pipeline=None, workers=2, max_queue=16,
                 cache_dir=None, backend="exact"):
        from repro.pipeline import CounterPoint

        if pipeline is None:
            pipeline = CounterPoint(
                backend=backend, cache_dir=cache_dir, workers=1,
            )
        self.pipeline = pipeline
        # Pre-build the lazily-initialised shared state *before* any
        # worker thread runs: two racing first calls must not hand
        # concurrent jobs different sessions (which would split the
        # memo and break cross-tenant dedup).
        self.session = pipeline.session()
        self.engine = pipeline.plan_engine()
        self.session.claims = ClaimTable(store=self.session.store)
        self.scheduler = QueueScheduler(workers=workers)
        self.max_queue = max_queue
        self.metrics = MetricsRegistry()
        self._jobs = {}
        self._order = []
        self._lock = threading.Lock()
        self._counter = 0
        self._closed = False
        self._admission = FairQueue()
        self._drivers = [
            threading.Thread(
                target=self._drive, name="repro-serve-driver-%d" % index,
                daemon=True,
            )
            for index in range(max(2, workers))
        ]
        for thread in self._drivers:
            thread.start()

    # -- submission --------------------------------------------------------
    def submit(self, plan, tenant="anon", priority="normal"):
        """Queue ``plan`` (a :class:`~repro.plan.Plan`, a plan dict, or
        plan JSON text) for ``tenant``; returns the job status dict.

        Raises :class:`~repro.errors.QueueFullError` when ``max_queue``
        jobs are already queued or running — the backpressure the HTTP
        layer maps to 429 + Retry-After.
        """
        plan = self._coerce_plan(plan)
        weight = priority_weight(priority)  # validates the class name
        tenant = str(tenant) or "anon"
        with self._lock:
            if self._closed:
                raise ServeError("service is shut down")
            active = sum(
                1 for job in self._jobs.values() if not job.terminal
            )
            if self.max_queue is not None and active >= self.max_queue:
                self.metrics.counter("serve.jobs.rejected").inc()
                raise QueueFullError(
                    "%d jobs already queued or running (max %d)"
                    % (active, self.max_queue),
                    retry_after=2.0,
                )
            self._counter += 1
            job_id = "job-%06d" % self._counter
            job = ServeJob(job_id, plan, tenant, priority)
            self._jobs[job_id] = job
            self._order.append(job_id)
        self.metrics.counter("serve.jobs.submitted").inc()
        self.metrics.counter("serve.tenant.%s.jobs" % tenant).inc()
        self._admission.push(WorkItem(
            lambda: self._run_job(job), tenant=tenant, weight=weight,
            cost=max(len(plan), 1),
        ))
        self._update_depth()
        return job.describe()

    @staticmethod
    def _coerce_plan(plan):
        if isinstance(plan, Plan):
            return plan
        if isinstance(plan, str):
            return Plan.from_json(plan)
        if isinstance(plan, dict):
            return Plan.from_dict(plan)
        raise ServeError("cannot interpret %r as a plan"
                         % (type(plan).__name__,))

    # -- execution ---------------------------------------------------------
    def _drive(self):
        while True:
            item = self._admission.pop(timeout=0.2)
            if item is None:
                if self._closed:
                    return
                continue
            item.execute()
            self._update_depth()

    def _run_job(self, job):
        wait_seconds = time.time() - job.created
        self.metrics.histogram("serve.job.wait_seconds").observe(
            wait_seconds
        )
        if job.token.cancelled:
            job.set_state("cancelled")
            self.metrics.counter("serve.jobs.cancelled").inc()
            return
        try:
            job.set_state("compiling")
            compiled = compile_plan(job.plan, self.pipeline)
            job.tasks = compiled.counts()
            job.emit("compiled", **job.tasks)
            job.token.check()
            job.set_state("running")
            scheduler = self.scheduler.for_job(
                tenant=job.tenant, priority=job.priority, token=job.token,
                observer=job.observe,
            )
            result = self.engine.run(
                compiled, scheduler=scheduler, collect_errors=True,
            )
        except JobCancelled:
            job.set_state("cancelled")
            self.metrics.counter("serve.jobs.cancelled").inc()
            return
        except ReproError as error:
            job.error = repr(error)
            job.set_state("failed", error=job.error)
            self.metrics.counter("serve.jobs.failed").inc()
            return
        except Exception as error:  # pragma: no cover - defensive
            job.error = repr(error)
            job.set_state("failed", error=job.error)
            self.metrics.counter("serve.jobs.failed").inc()
            return
        job.stats = dict(result.stats)
        job.errors = [dict(entry) for entry in result.errors]
        # The canonical bundle: op results only, no stats/timing (they
        # differ between cold and warm runs), sorted keys — so the same
        # plan always fetches byte-identical text.
        job.result_text = PlanResult(
            dict(result.items())
        ).to_json(indent=2)
        self._account(job)
        if job.errors:
            job.error = "%d op(s) failed" % len(job.errors)
            job.set_state("failed", error=job.error)
            self.metrics.counter("serve.jobs.failed").inc()
        else:
            job.set_state("done")
            self.metrics.counter("serve.jobs.completed").inc()

    def _account(self, job):
        """Per-tenant dedup accounting from the run's session stats. A
        compile-time duplicate is also a memo hit, so it is not added."""
        stats = job.stats or {}
        computed = stats.get("computed", 0)
        deduped = stats.get("memo_hits", 0) + stats.get("store_hits", 0)
        prefix = "serve.tenant.%s" % job.tenant
        self.metrics.counter("%s.cells_computed" % prefix).inc(computed)
        self.metrics.counter("%s.cells_deduped" % prefix).inc(deduped)

    def _update_depth(self):
        with self._lock:
            queued = sum(
                1 for job in self._jobs.values() if job.state == "queued"
            )
        self.metrics.gauge("serve.queue.depth").set(queued)

    # -- inspection --------------------------------------------------------
    def job(self, job_id):
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError("unknown job %r" % (job_id,))
        return job

    def status(self, job_id):
        return self.job(job_id).describe()

    def jobs(self):
        """Status documents, most recent first."""
        with self._lock:
            order = list(self._order)
        return [self._jobs[job_id].describe() for job_id in reversed(order)]

    def events(self, job_id, after=0, timeout=None):
        return self.job(job_id).events_after(after=after, timeout=timeout)

    def result_text(self, job_id):
        """The canonical result bundle (JSON text) of a finished job."""
        job = self.job(job_id)
        if job.state in ("done", "failed") and job.result_text is not None:
            return job.result_text
        raise ServeError(
            "job %s is %s; no result available" % (job_id, job.state)
        )

    def cancel(self, job_id):
        """Request cooperative cancellation; returns the status doc.

        Queued jobs cancel at admission; running jobs cancel at the
        next batch boundary. Cells already computed stay recorded in
        the shared store, so a re-submitted plan resumes exactly where
        the cancelled one stopped.
        """
        job = self.job(job_id)
        job.token.cancel()
        if not job.terminal:
            job.emit("cancel_requested")
        return job.describe()

    def stats(self):
        """The /v1/stats document: queue depths, tenants, metrics."""
        self._update_depth()
        with self._lock:
            states = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        tenants = {}
        metrics = self.metrics.as_dict()
        for name, value in metrics.get("counters", {}).items():
            match = re.match(r"serve\.tenant\.(.+)\.cells_(\w+)$", name)
            if match:
                tenant = tenants.setdefault(match.group(1), {})
                tenant["cells_%s" % match.group(2)] = value
        for tenant, cells in tenants.items():
            total = (cells.get("cells_computed", 0)
                     + cells.get("cells_deduped", 0))
            cells["dedup_hit_rate"] = (
                cells.get("cells_deduped", 0) / total if total else 0.0
            )
        return {
            "jobs": states,
            "queue_depth": self._admission.depth(),
            "cell_queue_depth": self.scheduler.queue.depth(),
            "tenants": tenants,
            "session": self.session.stats.as_dict(),
            "metrics": metrics,
        }

    def close(self):
        """Shut down drivers, the scheduler, and the pipeline."""
        if self._closed:
            return
        self._closed = True
        self._admission.close()
        for thread in self._drivers:
            thread.join(timeout=5.0)
        self.scheduler.close()
        self.pipeline.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    def __repr__(self):
        return "PlanService(%d jobs, %r)" % (len(self._jobs), self.pipeline)


_JOB_PATH = re.compile(r"^/v1/plans/([\w-]+)(?:/(events|result))?$")


class _PayloadTooLarge(ServeError):
    """A request body over :data:`MAX_REQUEST_BYTES` (HTTP 413)."""


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's PlanService."""

    server_version = "repro-serve"

    # -- plumbing ----------------------------------------------------------
    @property
    def service(self):
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(self, code, document, headers=()):
        body = json.dumps(document, indent=2, sort_keys=True).encode("utf-8")
        self._send_body(code, body, "application/json", headers)

    def _send_body(self, code, body, content_type, headers=()):
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self):
        """The request body as a JSON object.

        Raises :class:`ServeError` (400) for a malformed
        ``Content-Length`` or a body that is not a JSON object, and
        :class:`_PayloadTooLarge` (413) for a body declared longer than
        :data:`MAX_REQUEST_BYTES`.
        """
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            raise ServeError("Content-Length %r is not an integer" % declared) from None
        if length < 0:
            raise ServeError("Content-Length %d is negative" % length)
        if length > MAX_REQUEST_BYTES:
            raise _PayloadTooLarge(
                "request body of %d bytes exceeds the %d-byte limit"
                % (length, MAX_REQUEST_BYTES)
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServeError("empty request body")
        try:
            body = json.loads(raw.decode("utf-8"))
        except ValueError:
            raise ServeError("request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise ServeError("request body must be a JSON object")
        return body

    def _query(self):
        if "?" not in self.path:
            return self.path, {}
        path, _, query = self.path.partition("?")
        params = {}
        for piece in query.split("&"):
            if "=" in piece:
                name, _, value = piece.partition("=")
                params[name] = value
        return path, params

    # -- verbs -------------------------------------------------------------
    def do_POST(self):
        path, _ = self._query()
        if path != "/v1/plans":
            self._send_json(404, {"error": "unknown path %r" % path})
            return
        try:
            body = self._read_json()
            plan = body.get("plan")
            if plan is None:
                raise ServeError('request body needs a "plan" key')
            status = self.service.submit(
                plan,
                tenant=body.get("tenant")
                or self.headers.get("X-Tenant") or "anon",
                priority=body.get("priority", "normal"),
            )
        except QueueFullError as error:
            self._send_json(
                429, {"error": str(error),
                      "retry_after": error.retry_after},
                headers=(("Retry-After",
                          str(max(1, int(error.retry_after)))),),
            )
        except _PayloadTooLarge as error:
            self._send_json(413, {"error": str(error)})
        except ReproError as error:
            self._send_json(400, {"error": str(error)})
        else:
            self._send_json(202, status)

    def do_GET(self):
        path, params = self._query()
        if path == "/v1/healthz":
            self._send_json(200, {"ok": True})
            return
        if path == "/v1/stats":
            self._send_json(200, self.service.stats())
            return
        if path == "/v1/plans":
            self._send_json(200, {"jobs": self.service.jobs()})
            return
        match = _JOB_PATH.match(path)
        if not match:
            self._send_json(404, {"error": "unknown path %r" % path})
            return
        job_id, view = match.groups()
        try:
            if view is None:
                self._send_json(200, self.service.status(job_id))
            elif view == "result":
                self._send_result(job_id)
            else:
                self._stream_events(job_id, params)
        except ServeError as error:
            self._send_json(404, {"error": str(error)})

    def _send_result(self, job_id):
        job = self.service.job(job_id)
        if job.result_text is None:
            self._send_json(
                409, {"error": "job %s is %s; no result yet"
                      % (job_id, job.state),
                      "state": job.state},
            )
            return
        self._send_body(
            200, job.result_text.encode("utf-8"), "application/json",
            headers=(("X-Job-State", job.state),),
        )

    def _stream_events(self, job_id, params):
        """NDJSON: replay from ``after``, then follow until terminal."""
        job = self.service.job(job_id)  # 404 before headers when unknown
        try:
            after = int(params.get("after", 0))
        except ValueError:
            after = 0
        deadline = time.time() + float(params.get("timeout", 300))
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        while True:
            events = job.events_after(after=after, timeout=1.0)
            for event in events:
                line = json.dumps(event, sort_keys=True) + "\n"
                self.wfile.write(line.encode("utf-8"))
            if events:
                self.wfile.flush()
                after = events[-1]["seq"] + 1
            if (job.terminal and not events) or time.time() > deadline:
                return

    def do_DELETE(self):
        path, _ = self._query()
        match = _JOB_PATH.match(path)
        if not match or match.group(2) is not None:
            self._send_json(404, {"error": "unknown path %r" % path})
            return
        try:
            self._send_json(200, self.service.cancel(match.group(1)))
        except ServeError as error:
            self._send_json(404, {"error": str(error)})


class ServeDaemon:
    """The HTTP face of a :class:`PlanService`.

    ``port=0`` binds an ephemeral port (tests); :attr:`port` reports
    the bound one. Use as a context manager, or call :meth:`start` for
    a background accept-loop thread and :meth:`close` to stop.
    """

    def __init__(self, service=None, host="127.0.0.1", port=8651,
                 **service_options):
        self._owns_service = service is None
        self.service = service if service is not None \
            else PlanService(**service_options)
        self.server = ThreadingHTTPServer((host, port), _Handler)
        self.server.service = self.service
        self.server.daemon_threads = True
        self._thread = None

    @property
    def host(self):
        return self.server.server_address[0]

    @property
    def port(self):
        return self.server.server_address[1]

    @property
    def url(self):
        return "http://%s:%d" % (self.host, self.port)

    def start(self):
        """Serve in a background thread; returns the base URL."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.server.serve_forever,
                name="repro-serve-http", daemon=True,
            )
            self._thread.start()
        return self.url

    def serve_forever(self):
        """Serve on the calling thread until interrupted."""
        try:
            self.server.serve_forever()
        finally:
            self.close()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._owns_service:
            self.service.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    def __repr__(self):
        return "ServeDaemon(%s, %r)" % (self.url, self.service)


__all__ = ["JOB_STATES", "PlanService", "ServeDaemon", "ServeJob"]
