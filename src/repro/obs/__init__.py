"""Observability: span tracing, metrics, and trace export.

The analysis stack is instrumented end to end — plan engine ops,
scheduler dispatch, session verdict outcomes, LP solves, cone
deduction, µDD simulation, and the on-disk store — against the
process-wide *active tracer*, which is disabled by default and costs
one attribute check per instrumentation point when off. Turn it on
with ``CounterPoint(trace=True)``, ``--trace FILE`` on any CLI
subcommand, or directly::

    from repro.obs import Tracer, activate, render_summary, summarize_records

    tracer = Tracer()
    with activate(tracer):
        ...  # any repro work records spans into ``tracer``
    print(render_summary(summarize_records(tracer.records)))

Pool workers trace locally and ship their records back with chunk
results, so a ``workers=N`` run still produces one pid/tid-tagged
timeline; export it with :func:`write_trace` (JSONL or Chrome
``trace_event`` JSON for Perfetto).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TIME_BUCKETS,
)
from repro.obs.sinks import (
    chrome_trace,
    read_jsonl,
    validate_records,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.obs.summary import render_summary, summarize_records
from repro.obs.trace import (
    NULL_SPAN,
    OBS_SCHEMA_VERSION,
    Tracer,
    activate,
    get_tracer,
    set_tracer,
    traced,
    tracer_for,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "OBS_SCHEMA_VERSION",
    "TIME_BUCKETS",
    "Tracer",
    "activate",
    "chrome_trace",
    "get_tracer",
    "read_jsonl",
    "render_summary",
    "set_tracer",
    "summarize_records",
    "traced",
    "tracer_for",
    "validate_records",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]
