"""The traced run: per-layer self times and exact per-layer counts.

One ``repro.obs.Tracer`` receives spans from two sources: the program's
own spans (``cone.constraints``, ``lp.solve``, ``session.sweep``,
``plan.op``, ``sim.*``, ...) and benchmark-side wrappers around the
public entry points that have no span today. A wrapper is installed on
every module binding of its function, so ``from x import f`` call sites
are caught too. Functions called hundreds of thousands of times
(``MMUSimulator.access``, ``as_fraction_vector``) are not given spans;
their calls are counted and timed in aggregate and their time is taken
out of the innermost open span's self time.

A span's self time is its duration minus its child spans (and minus the
aggregated calls made directly inside it). Every self time is scaled by
the reference factor of the benchmark unit that encloses it, so the
per-layer seconds are normalised like the end-to-end ones. An entry
point that a later change renames or removes is reported as absent and
its metrics read 0; the run does not fail for it.
"""

import functools
import importlib
import inspect
import statistics
import sys
import time

#: Entry points wrapped with a span: (module, attribute path, span name).
SPANNED = (
    ("repro.mmu.core", "MMUSimulator.run_intervals", "workloads.loop"),
    ("repro.mmu.core", "MMUSimulator.run", "workloads.loop"),
    ("repro.counters.sampling", "collect_interval_samples", "counters.sampling"),
    ("repro.counters.multiplexing", "MultiplexingSimulator.observe_run", "counters.multiplex"),
    ("repro.models.haswell", "build_mudd", "models.build_mudd"),
    ("repro.mudd.paths", "signature_matrix", "mudd.signature_matrix"),
    ("repro.cone.model_cone", "ModelCone.__init__", "cone.build"),
    ("repro.cone.violations", "identify_violations", "cone.violations"),
    ("repro.counters.sampling", "SampleMatrix.confidence_region", "stats.region"),
    ("repro.results.store", "ArtifactStore.put", "results.store_put"),
    ("repro.results.store", "ArtifactStore.get", "results.store_get"),
    ("repro.plan.compiler", "compile_plan", "plan.compile"),
    ("repro.cone.diskcache", "DiskConeCache.put", "cone.disk_write"),
)

#: Hot entry points timed in aggregate: (module, attribute path, name).
AGGREGATED = (
    ("repro.mmu.core", "MMUSimulator.access", "mmu.access"),
    ("repro.linalg", "as_fraction_vector", "linalg.as_fraction"),
)

#: Span name -> the self-time metric it feeds. ``lp.solve`` is split by
#: context in :meth:`LayerTrace._fold`.
SELF_TIME = {
    "workloads.loop": "workloads.loop_s",
    "counters.sampling": "counters.sampling_s",
    "counters.multiplex": "counters.multiplex_s",
    "models.build_mudd": "models.build_mudd_s",
    "mudd.signature_matrix": "mudd.signature_matrix_s",
    "cone.build": "cone.build_s",
    "cone.constraints": "cone.deduce_s",
    "cone.deduce": "cone.deduce_s",
    "cone.interior_removal": "cone.deduce_s",
    "geometry.double_description": "geometry.dd_s",
    "cone.violations": "cone.violations_s",
    "cell.verdict": "cone.verdict_s",
    "stats.region": "stats.region_s",
    "session.sweep": "results.sweep_s",
    "session.analyze": "results.sweep_s",
    "results.store_put": "results.store_put_s",
    "results.store_get": "results.store_get_s",
    "plan.compile": "plan.compile_s",
    "plan.run": "plan.op_s",
    "plan.op": "plan.op_s",
    "sched.compute": "plan.op_s",
    "sched.simulate": "sim.simulate_s",
    "sim.observe": "sim.simulate_s",
    "sim.batch": "sim.simulate_s",
    "sim.compile": "sim.simulate_s",
    "bench.unit": "trace.unattributed_s",
}

#: Span name -> the count metric its calls feed.
CALLS = {
    "stats.region": "stats.regions",
    "results.store_put": "results.store_writes",
    "results.store_get": "results.store_reads",
    "cone.disk_write": "cone.disk_writes",
}

_DEDUCTION = ("cone.constraints", "cone.deduce", "cone.interior_removal")

#: Every per-layer metric and its unit, in report order.
METRICS = (
    ("mmu.sim_ops", "count"),
    ("mmu.access_s", "s"),
    ("mmu.ns_per_op", "ns"),
    ("workloads.loop_s", "s"),
    ("counters.sampling_s", "s"),
    ("counters.multiplex_s", "s"),
    ("models.build_mudd_s", "s"),
    ("mudd.signature_matrix_s", "s"),
    ("mudd.raw_paths", "count"),
    ("mudd.signatures", "count"),
    ("cone.build_s", "s"),
    ("cone.deduce_s", "s"),
    ("cone.verdict_s", "s"),
    ("cone.violations_s", "s"),
    ("cone.disk_writes", "count"),
    ("geometry.dd_s", "s"),
    ("linalg.as_fraction_s", "s"),
    ("lp.point_solves", "count"),
    ("lp.point_solve_s", "s"),
    ("lp.region_solves", "count"),
    ("lp.region_solve_s", "s"),
    ("lp.exact_solves", "count"),
    ("lp.exact_solve_s", "s"),
    ("stats.region_s", "s"),
    ("stats.regions", "count"),
    ("results.sweep_s", "s"),
    ("results.cells", "count"),
    ("results.store_put_s", "s"),
    ("results.store_writes", "count"),
    ("results.store_get_s", "s"),
    ("results.store_reads", "count"),
    ("results.cells_cold", "count"),
    ("results.cells_warm", "count"),
    ("plan.compile_s", "s"),
    ("plan.op_s", "s"),
    ("sim.simulate_s", "s"),
    ("setup.import_s", "s"),
    ("host.speed_factor", "ratio"),
    ("host.raw_wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_s", "s"),
)


def bindings(module_name, path):
    """``(owner, attribute, original)`` for every binding of the entry
    point: the class attribute for a method, else every ``repro``
    module attribute that *is* the function."""
    module = importlib.import_module(module_name)
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    original = inspect.getattr_static(owner, parts[-1])
    if isinstance(owner, type):
        return [(owner, parts[-1], original)]
    return [
        (other, parts[-1], original)
        for name, other in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and getattr(other, parts[-1], None) is original
    ]


class _Tracked:
    """Proxy for a program span that keeps the trace's own open-span
    stack, so aggregated calls can find the innermost open span."""

    __slots__ = ("_trace", "_span", "_entry")

    def __init__(self, trace, span):
        self._trace = trace
        self._span = span
        self._entry = None

    def __enter__(self):
        self._span.__enter__()
        self._entry = [self._span.record, 0.0]
        self._trace.stack.append(self._entry)
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        stack = self._trace.stack
        while stack and stack.pop() is not self._entry:
            pass
        self._span.record["attrs"]["aggregated_s"] = self._entry[1]
        return self._span.__exit__(exc_type, exc_value, traceback)

    def set(self, **attrs):
        self._span.set(**attrs)
        return self

    @property
    def duration(self):
        return self._span.duration

    @property
    def record(self):
        return self._span.record


class LayerTrace:
    """Install the wrappers and the tracer for one traced run.

    ``install()`` runs once ``repro`` is imported; ``wrap``/``fold``
    bracket every unit of the :class:`~perfbench.harness.UnitClock`.
    """

    def __init__(self, clock):
        self.clock = clock
        self.stack = []
        self.values = {name: 0 if unit == "count" else 0.0 for name, unit in METRICS}
        self.absent = []
        self.spans = 0
        self.calls = 0
        self._aggregates = {}
        self._folded = {}
        self._restore = []
        self._tracer = None
        self._previous = None

    # -- installation ---------------------------------------------------
    def install(self):
        from repro.obs import Tracer, set_tracer

        trace = self

        class _LayerTracer(Tracer):
            def span(self, name, **attrs):
                return _Tracked(trace, Tracer.span(self, name, **attrs))

        self._tracer = _LayerTracer()
        for module_name, path, name in SPANNED:
            self._install(module_name, path, lambda fn, n=name: self._spanned(fn, n))
        for module_name, path, name in AGGREGATED:
            self._install(module_name, path, lambda fn, n=name: self._aggregated(fn, n))
        self._previous = set_tracer(self._tracer)
        self.clock.observer = self

    def _install(self, module_name, path, make):
        try:
            found = bindings(module_name, path)
        except (ImportError, AttributeError):
            found = []
        if not found:
            self.absent.append("%s.%s" % (module_name, path))
            return
        wrapped = make(found[0][2])
        for owner, attribute, original in found:
            setattr(owner, attribute, wrapped)
            self._restore.append((owner, attribute, original))

    def _spanned(self, function, name):
        tracer = self._tracer
        if inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def generator(*args, **kwargs):
                with tracer.span(name):
                    return (yield from function(*args, **kwargs))
            return generator

        counts = name == "mudd.signature_matrix"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = function(*args, **kwargs)
                if counts:
                    span.set(signatures=len(result[1]), raw_paths=(
                        sum(result[2]) if len(result) > 2 else len(result[1])
                    ))
                return result
        return wrapper

    def _aggregated(self, function, name):
        totals = self._aggregates.setdefault(name, [0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[0] += 1
                totals[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
        return wrapper

    def close(self):
        from repro.obs import set_tracer

        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore = []
        if self._tracer is not None:
            set_tracer(self._previous)
        self.clock.observer = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        if self._tracer is not None:
            self.close()
        return False

    # -- per unit -------------------------------------------------------
    def wrap(self, work):
        """``work`` inside a ``bench.unit`` span (the unattributed rest)."""
        tracer = self._tracer

        def unit():
            with tracer.span("bench.unit"):
                return work()
        return unit

    def fold(self, unit):
        """Scale the unit's closed spans by its factor into the totals."""
        records = [r for r in self._tracer.drain() if r["type"] == "span"]
        self.spans += len(records)
        self._fold(records, unit.factor)
        for name, (calls, seconds) in self._aggregates.items():
            done_calls, done_seconds = self._folded.get(name, (0, 0.0))
            self._folded[name] = (calls, seconds)
            self.calls += calls - done_calls
            self.values[name + "_s"] += (seconds - done_seconds) * unit.factor
            if name == "mmu.access":
                self.values["mmu.sim_ops"] += calls - done_calls

    def _fold(self, records, factor):
        values = self.values
        children = [0.0] * len(records)
        parents = [None] * len(records)
        open_at = {}
        for index, record in enumerate(records):
            depth = record["depth"]
            parent = open_at.get(depth - 1)
            parents[index] = parent
            if parent is not None:
                children[parent] += record["dur"]
            open_at[depth] = index
        for index, record in enumerate(records):
            name = record["name"]
            attrs = record["attrs"]
            own = record["dur"] - children[index] - attrs.get("aggregated_s", 0.0)
            own *= factor
            if name == "lp.solve":
                kind = self._lp_kind(records, parents, index)
                if kind == "deduce":
                    values["cone.deduce_s"] += own
                else:
                    values["lp.%s_solves" % kind] += 1
                    values["lp.%s_solve_s" % kind] += own
                continue
            metric = SELF_TIME.get(name)
            if metric is not None:
                values[metric] += own
            if name in CALLS:
                values[CALLS[name]] += 1
            if name == "mudd.signature_matrix":
                values["mudd.raw_paths"] += attrs.get("raw_paths", 0)
                values["mudd.signatures"] += attrs.get("signatures", 0)

    @staticmethod
    def _lp_kind(records, parents, index):
        if records[index]["attrs"].get("backend") == "exact":
            return "exact"
        parent = parents[index]
        while parent is not None:
            name = records[parent]["name"]
            if name == "cone.violations":
                return "region"
            if name in _DEDUCTION:
                return "deduce"
            parent = parents[parent]
        return "point"

    # -- results ----------------------------------------------------------
    def overhead_seconds(self):
        """Estimated tracing cost: spans and aggregated calls recorded,
        each times its calibrated cost."""
        rounds = 5000
        tracer = self._tracer
        start = time.perf_counter()
        for _ in range(rounds):
            with tracer.span("calibrate"):
                pass
        per_span = (time.perf_counter() - start) / rounds
        tracer.drain()
        call = self._aggregated(lambda: None, "calibrate")
        start = time.perf_counter()
        for _ in range(rounds):
            call()
        per_call = (time.perf_counter() - start) / rounds
        del self._aggregates["calibrate"]
        return self.spans * per_span + self.calls * per_call

    def metrics(self, counts=None):
        """Every per-layer metric as ``{name: {"value", "unit"}}``."""
        values = dict(self.values)
        values.update(counts or {})
        registry = self._tracer.metrics
        values["results.cells"] = registry.counter("session.tests").value
        if values["mmu.sim_ops"]:
            values["mmu.ns_per_op"] = 1e9 * values["mmu.access_s"] / values["mmu.sim_ops"]
        clock = self.clock
        imports = [unit.seconds for unit in clock.phase("setup") if unit.name == "import"]
        values["setup.import_s"] = statistics.median(imports) if imports else 0.0
        diagnostics = clock.diagnostics()
        values["host.speed_factor"] = diagnostics["host.speed_factor"]
        raw_total = sum(unit.raw for unit in clock.units)
        values["host.raw_wall_s"] = clock.phase_seconds("wall", raw=True)
        values["trace.overhead_pct"] = 100.0 * self.overhead_seconds() / max(raw_total, 1e-9)
        return {
            name: {"value": values[name], "unit": unit} for name, unit in METRICS
        }

    def diagnostics(self):
        return {"trace.absent": self.absent, "trace.spans": self.spans,
                "trace.aggregated_calls": self.calls}
