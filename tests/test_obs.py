"""repro.obs: span tracing, metrics, sinks, and the instrumented stack.

The contracts that make observability trustworthy:

* spans nest and close on every exit path — including exceptions — and
  a disabled tracer costs (nearly) nothing on the warm sweep hot path;
* a ``workers=2`` run records the same *logical* spans (per-cell
  verdicts, per-run simulations) as the serial run, shipped back from
  the pool workers and merged into one pid-tagged timeline;
* the JSONL and Chrome ``trace_event`` sinks round-trip and validate;
* ``trace summarize`` output reconciles with ``SessionStats`` counters;
* degraded modes are loud: pool fallbacks warn with the offending task
  type, and cache eviction order survives a stuck wall clock.
"""

import json
import os

import pytest

from repro.cone import ModelCone
from repro.errors import AnalysisError
from repro.obs import (
    NULL_SPAN,
    OBS_SCHEMA_VERSION,
    MetricsRegistry,
    Tracer,
    activate,
    chrome_trace,
    get_tracer,
    read_jsonl,
    render_summary,
    summarize_records,
    tracer_for,
    traced,
    validate_records,
    write_trace,
)
from repro.pipeline import CounterPoint
from repro.plan import Plan

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class Obs:
    def __init__(self, name, point):
        self.name = name
        self._point = dict(point)

    def point(self):
        return dict(self._point)


def tiny_cone(name="tiny"):
    # Generators (1,0) and (1,1): feasible iff 0 <= b <= a.
    return ModelCone(["a", "b"], [(1, 0), (1, 1)], name=name)


def dataset(n):
    return [
        Obs("o%03d" % index,
            {"a": 5 + index, "b": (9 + index if index % 3 == 0 else 2)})
        for index in range(n)
    ]


def spans(tracer, name=None):
    return [
        record for record in tracer.records
        if record["type"] == "span" and (name is None or record["name"] == name)
    ]


def events(tracer, name=None):
    return [
        record for record in tracer.records
        if record["type"] == "event"
        and (name is None or record["name"] == name)
    ]


class TestTracer:
    def test_spans_record_timing_depth_and_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", phase="demo") as outer:
            with tracer.span("inner"):
                pass
            outer.set(cells=3)
        outer_record, inner_record = tracer.records
        assert outer_record["name"] == "outer"
        assert outer_record["depth"] == 0 and inner_record["depth"] == 1
        assert outer_record["dur"] >= inner_record["dur"] >= 0.0
        assert outer_record["attrs"] == {"phase": "demo", "cells": 3}
        assert outer_record["pid"] == os.getpid()
        assert tracer.open_spans() == []

    def test_spans_close_and_stamp_error_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        outer_record, inner_record = tracer.records
        assert inner_record["dur"] is not None
        assert outer_record["dur"] is not None
        assert inner_record["attrs"]["error"] == "ValueError"
        assert outer_record["attrs"]["error"] == "ValueError"
        assert tracer.open_spans() == []

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", x=1)
        assert span is NULL_SPAN
        with span as handle:
            handle.set(y=2)  # no-op, no error
        tracer.event("anything")
        assert tracer.records == []

    def test_drain_ships_closed_records_and_keeps_open_spans(self):
        tracer = Tracer()
        open_span = tracer.span("open")
        with tracer.span("closed"):
            pass
        tracer.event("marker")
        shipped = tracer.drain()
        assert [record["name"] for record in shipped] == ["closed", "marker"]
        assert [record["name"] for record in tracer.records] == ["open"]
        open_span.__exit__(None, None, None)

    def test_absorb_merges_foreign_records(self):
        parent, worker = Tracer(), Tracer()
        with worker.span("remote"):
            pass
        parent.absorb(worker.drain())
        assert [record["name"] for record in parent.records] == ["remote"]

    def test_activate_installs_and_restores(self):
        before = get_tracer()
        tracer = Tracer()
        with activate(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is before

    def test_traced_decorator_spans_only_when_enabled(self):
        @traced("demo.fn", kind="test")
        def fn(x):
            return x + 1

        assert fn(1) == 2  # disabled default tracer: no records anywhere
        tracer = Tracer()
        with activate(tracer):
            assert fn(2) == 3
        (record,) = spans(tracer, "demo.fn")
        assert record["attrs"] == {"kind": "test"}

    def test_tracer_for_prefers_pipeline_tracer(self):
        pipeline = CounterPoint(trace=True)
        assert tracer_for(pipeline) is pipeline.tracer
        assert tracer_for(CounterPoint()) is get_tracer()


class TestMetrics:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        histogram = registry.histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        snapshot = registry.as_dict()
        assert snapshot["counters"] == {"c": 5}
        assert snapshot["gauges"] == {"g": 2.5}
        assert snapshot["histograms"]["h"]["counts"] == [1, 1, 1]
        assert histogram.mean == pytest.approx((0.05 + 0.5 + 5.0) / 3)

    def test_absorb_adds_counts_and_takes_gauges(self):
        ours, theirs = MetricsRegistry(), MetricsRegistry()
        ours.counter("c").inc(1)
        theirs.counter("c").inc(2)
        theirs.gauge("g").set(7.0)
        theirs.histogram("h", buckets=(1.0,)).observe(0.5)
        ours.absorb(theirs.as_dict())
        snapshot = ours.as_dict()
        assert snapshot["counters"]["c"] == 3
        assert snapshot["gauges"]["g"] == 7.0
        assert snapshot["histograms"]["h"]["counts"] == [1, 0]

    def test_histogram_bucket_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(AnalysisError):
            registry.histogram("bad", buckets=(1.0, 0.5))


class TestSinks:
    def _tracer_with_work(self):
        tracer = Tracer()
        with tracer.span("lp.solve", backend="scipy"):
            pass
        tracer.event("cache.hit", tier="cone", bytes=64)
        tracer.metrics.counter("cache.cone.hits").inc()
        return tracer

    def test_jsonl_round_trip(self, tmp_path):
        tracer = self._tracer_with_work()
        path = str(tmp_path / "trace.jsonl")
        write_trace(path, tracer.records,
                    metrics=tracer.metrics.as_dict())
        records, metrics = read_jsonl(path)
        assert [record["name"] for record in records] == \
            ["lp.solve", "cache.hit"]
        assert metrics["counters"] == {"cache.cone.hits": 1}
        with open(path, "r", encoding="utf-8") as handle:
            first = json.loads(handle.readline())
        assert first == {"type": "header", "schema": OBS_SCHEMA_VERSION,
                         "pid": os.getpid()}

    def test_validation_rejects_bad_streams(self):
        header = {"type": "header", "schema": OBS_SCHEMA_VERSION}
        good = {"type": "event", "name": "e", "ts": 0.0, "pid": 1,
                "tid": 1, "attrs": {}}
        assert validate_records([header, good]) == 2
        with pytest.raises(AnalysisError, match="no header"):
            validate_records([good])
        with pytest.raises(AnalysisError, match="unknown type"):
            validate_records([header, {"type": "mystery"}])
        with pytest.raises(AnalysisError, match="missing keys"):
            validate_records([header, {"type": "event", "name": "e"}])
        with pytest.raises(AnalysisError, match="never closed"):
            validate_records([header, {
                "type": "span", "name": "s", "ts": 0.0, "dur": None,
                "pid": 1, "tid": 1, "depth": 0, "attrs": {},
            }])
        with pytest.raises(AnalysisError, match="not the supported"):
            validate_records([{"type": "header", "schema": 99}])

    def test_chrome_trace_structure(self, tmp_path):
        tracer = self._tracer_with_work()
        worker = Tracer()
        worker._records.append({
            "type": "span", "name": "cell.verdict", "ts": 1.0, "dur": 0.5,
            "pid": os.getpid() + 1, "tid": 7, "depth": 0, "attrs": {},
        })
        tracer.absorb(worker.drain())
        payload = chrome_trace(tracer.records,
                               metrics=tracer.metrics.as_dict())
        phases = [entry["ph"] for entry in payload["traceEvents"]]
        assert phases.count("M") == 2  # one process_name row per pid
        assert "X" in phases and "i" in phases
        labels = sorted(
            entry["args"]["name"] for entry in payload["traceEvents"]
            if entry["ph"] == "M"
        )
        assert labels[0] == "repro" and labels[1].startswith("repro worker")
        span_entry = next(
            entry for entry in payload["traceEvents"]
            if entry["ph"] == "X" and entry["name"] == "cell.verdict"
        )
        assert span_entry["ts"] == pytest.approx(1.0 * 1e6)
        assert span_entry["dur"] == pytest.approx(0.5 * 1e6)
        path = str(tmp_path / "trace.json")
        write_trace(path, tracer.records, fmt="chrome")
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["traceEvents"]

    def test_write_trace_rejects_unknown_format(self, tmp_path):
        with pytest.raises(AnalysisError):
            write_trace(str(tmp_path / "t"), [], fmt="xml")


class TestInstrumentedStack:
    def _closed_loop_tracer(self, workers):
        plan = Plan()
        data = plan.simulate_dataset(
            "pde_refined", n_observations=3, n_uops=1500, seed=0,
            op_id="data",
        )
        plan.sweep("pde_initial", dataset=data, explain=True, op_id="refute")
        plan.sweep("pde_refined", dataset=data, explain=True, op_id="self")
        tracer = Tracer()
        with CounterPoint(
            backend="scipy", workers=workers, trace=tracer
        ) as pipeline:
            result = pipeline.run(plan)
        return tracer, result

    def test_serial_run_records_the_span_taxonomy(self):
        tracer, result = self._closed_loop_tracer(workers=1)
        names = {record["name"] for record in spans(tracer)}
        for expected in ("plan.run", "plan.op", "sched.simulate",
                         "sched.compute", "session.sweep", "cell.verdict",
                         "sim.observe", "lp.solve"):
            assert expected in names, expected
        assert result.timing["schema"] == OBS_SCHEMA_VERSION

    def test_pooled_run_records_same_logical_spans_as_serial(self):
        serial, serial_result = self._closed_loop_tracer(workers=1)
        pooled, pooled_result = self._closed_loop_tracer(workers=2)
        assert pooled_result.to_dict()["results"] == \
            serial_result.to_dict()["results"]
        for name in ("cell.verdict", "sim.observe", "session.sweep"):
            assert len(spans(serial, name)) == len(spans(pooled, name)) > 0, \
                name

    def test_pooled_spans_carry_worker_pids(self):
        # Two workers over many single-cell chunks: all but a
        # pathological scheduling lands work on both. Retry for CI.
        parent = os.getpid()
        for _ in range(4):
            tracer, _ = self._closed_loop_tracer(workers=2)
            worker_pids = {
                record["pid"] for record in spans(tracer)
                if record["pid"] != parent
            }
            if len(worker_pids) >= 2:
                break
        assert len(worker_pids) >= 2
        assert {record["pid"] for record in spans(tracer, "plan.run")} == \
            {parent}

    def test_plan_result_carries_schema_versioned_timing(self):
        _, result = self._closed_loop_tracer(workers=1)
        timing = result.timing
        assert timing["schema"] == OBS_SCHEMA_VERSION
        assert set(timing["ops"]) == {"data", "refute", "self"}
        assert timing["total_seconds"] >= timing["simulate_seconds"] >= 0.0
        assert "total" in result.summary()
        loaded = json.loads(result.to_json())
        assert loaded["timing"] == timing

    def test_summary_reconciles_with_session_stats(self):
        tracer = Tracer()
        with CounterPoint(backend="scipy", trace=tracer) as pipeline:
            observations = dataset(6)
            pipeline.sweep(tiny_cone(), observations)
            pipeline.sweep(tiny_cone(), observations)  # warm: all memo
            stats = pipeline.session().stats.as_dict()
        summary = summarize_records(
            tracer.records, metrics=tracer.metrics.as_dict()
        )
        assert summary["phases"]["cell.verdict"] == stats["tests"] == 6
        assert summary["events"].get("session.memo_hit", 0) == \
            stats["memo_hits"] == 6
        assert summary["metrics"]["counters"]["session.tests"] == \
            stats["tests"]
        assert summary["metrics"]["counters"]["session.memo_hits"] == \
            stats["memo_hits"]
        assert summary["spans"]["lp.solve"]["count"] == \
            summary["lp_histogram"]["count"] > 0
        rendered = render_summary(summary)
        assert "== phase counts ==" in rendered

    def test_store_and_cache_events_reach_the_trace(self, tmp_path):
        tracer = Tracer()
        observations = dataset(4)
        with CounterPoint(
            backend="scipy", cache_dir=str(tmp_path), trace=tracer
        ) as pipeline:
            pipeline.sweep(tiny_cone(), observations)
        assert events(tracer, "cache.write")
        warm = Tracer()
        with CounterPoint(
            backend="scipy", cache_dir=str(tmp_path), trace=warm
        ) as pipeline:
            pipeline.sweep(tiny_cone(), observations)
        hits = events(warm, "cache.hit")
        assert hits and all(
            record["attrs"]["tier"] in ("cone", "verdict")
            for record in hits
        )
        assert events(warm, "session.store_hit")

    def test_disabled_tracer_overhead_on_warm_sweep(self):
        # The regression threshold: with tracing off (the default), a
        # warm 100-cell sweep is pure memo lookups and must stay fast —
        # instrumentation adds one attribute check per point, not work.
        import time

        with CounterPoint(backend="scipy") as pipeline:
            observations = dataset(100)
            cone = tiny_cone()
            pipeline.sweep(cone, observations)  # warm the memo
            assert get_tracer().enabled is False
            best = min(
                self._timed_sweep(pipeline, cone, observations, time)
                for _ in range(3)
            )
        assert best < 0.5, "warm 100-cell sweep took %.3fs" % best

    @staticmethod
    def _timed_sweep(pipeline, cone, observations, time):
        start = time.perf_counter()
        pipeline.sweep(cone, observations)
        return time.perf_counter() - start


class TestRunnerFallback:
    def test_unpicklable_task_warns_with_task_type(self, caplog):
        import logging

        from repro.parallel import ParallelRunner

        runner = ParallelRunner(workers=2)
        tracer = Tracer()
        with activate(tracer), caplog.at_level(
            logging.WARNING, logger="repro.parallel"
        ):
            results = runner.map_cells(lambda cell: cell + 1, [1, 2, 3])
        assert results == [2, 3, 4]
        assert runner.fallbacks == 1
        reason, task_type = runner.last_fallback
        assert reason == "unpicklable task"
        assert "lambda" in task_type
        assert any(
            "fell back to serial" in message and "lambda" in message
            for message in caplog.messages
        )
        (event,) = events(tracer, "parallel.fallback")
        assert event["attrs"]["reason"] == "unpicklable task"
        assert event["attrs"]["cells"] == 3
        assert tracer.metrics.counter("parallel.fallbacks").value == 1
        runner.close()


class TestCacheRecencyMonotonic:
    def test_eviction_order_survives_a_stuck_clock(self, tmp_path,
                                                   monkeypatch):
        import repro.results.store as store_module
        from repro.results.store import ArtifactStore

        # Freeze the wall clock: recency must still ratchet forward so
        # usage order — not creation order or clock luck — drives LRU.
        monkeypatch.setattr(store_module.time, "time", lambda: 1000.0)
        store = ArtifactStore(str(tmp_path), max_bytes=None)
        payload = {"data": "x" * 64}
        for name in ("a", "b", "c"):
            store.put("cone", name, payload)
        assert store.get("cone", "a") == payload  # refresh "a" last
        sizes = {
            path: os.path.getsize(path) for path in store._entries()
        }
        store.max_bytes = max(sizes.values())  # room for one entry
        tracer = Tracer()
        with activate(tracer):
            store.prune()
        assert store.contains("cone", "a")  # most recently used survives
        assert not store.contains("cone", "b")
        assert not store.contains("cone", "c")
        names = [record["attrs"]["entry"]
                 for record in events(tracer, "cache.evict")]
        assert len(names) == 2 and all(n.endswith(".json") for n in names)


class TestCliTrace:
    def _run(self, argv):
        from repro.cli import main

        return main(argv)

    def test_sweep_writes_validating_jsonl_trace(self, tmp_path, capsys):
        trace_path = str(tmp_path / "sweep.jsonl")
        code = self._run([
            "sweep", "--bundled", "pde_initial", "--simulate-from",
            "pde_refined", "--n-observations", "2", "--n-uops", "1500",
            "--trace", trace_path,
        ])
        assert code in (0, 1)
        records, metrics = read_jsonl(trace_path)
        names = {record["name"] for record in records}
        assert "lp.solve" in names and "sim.observe" in names
        assert metrics is not None
        assert self._run(["trace", "summarize", trace_path]) == 0
        output = capsys.readouterr().out
        assert "== spans" in output and "lp.solve" in output

    def test_trace_written_even_when_the_command_fails(self, tmp_path):
        trace_path = str(tmp_path / "fail.jsonl")
        code = self._run([
            "analyze", self._tiny_model(tmp_path),
            "--observation", "garbage", "--trace", trace_path,
        ])
        assert code == 2
        validate_records([
            json.loads(line)
            for line in open(trace_path, "r", encoding="utf-8")
        ])

    def test_chrome_format_loads_as_json(self, tmp_path):
        trace_path = str(tmp_path / "trace.json")
        code = self._run([
            "constraints", self._tiny_model(tmp_path),
            "--trace", trace_path, "--trace-format", "chrome",
        ])
        assert code == 0
        with open(trace_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert any(
            entry["name"] == "cone.deduce"
            for entry in payload["traceEvents"]
        )

    def test_summarize_json_output(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        assert self._run([
            "constraints", self._tiny_model(tmp_path), "--trace", trace_path,
        ]) == 0
        capsys.readouterr()
        assert self._run([
            "trace", "summarize", trace_path, "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["phases"]["cone.deduce"] >= 1

    @staticmethod
    def _tiny_model(tmp_path):
        path = tmp_path / "model.dsl"
        path.write_text(
            "incr load.causes_walk;\n"
            "do LookupPde$;\n"
            "switch Pde$Status { Hit => pass; "
            "Miss => incr load.pde$_miss };\n"
            "done;\n"
        )
        return str(path)

    def test_summarize_golden_format(self, capsys):
        golden_trace = os.path.join(GOLDEN_DIR, "trace_small.jsonl")
        golden_text = os.path.join(GOLDEN_DIR, "trace_summary.txt")
        assert self._run(["trace", "summarize", golden_trace]) == 0
        with open(golden_text, "r", encoding="utf-8") as handle:
            assert capsys.readouterr().out == handle.read()
