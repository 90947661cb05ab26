"""Shared fixtures for the experiment-regeneration benchmarks.

Each benchmark module regenerates one table or figure from the paper's
evaluation. The fixtures here build the expensive shared artefacts once
per session: the observation dataset (the workload matrix run on the
simulated Haswell MMU) and the m-series model cones.

After every run that collected timing data, the session's medians
(benchmark name → median seconds) are merged into a machine-readable
``BENCH_results.json`` at the repository root, so the perf trajectory is
tracked across PRs: CI uploads it as an artifact, and a before/after
pair of these files is the evidence for any optimisation claim. A run of
one module or a ``-k`` subset replaces only its own entries; the entry
of a deleted benchmark stays until it is removed by hand. Set
``BENCH_RESULTS_PATH`` to redirect (e.g. to keep a baseline file while
re-running).
"""

import json
import os

import pytest

from repro.models import M_SERIES, build_model_cone, noisy_dataset, standard_dataset
from repro.pipeline import CounterPoint


def merge_results(target, medians):
    """Write ``medians`` into the JSON file ``target`` over the entries
    it already holds. A missing or unreadable file starts empty."""
    try:
        with open(target) as handle:
            merged = json.load(handle)
    except (OSError, ValueError):
        merged = {}
    merged.update(medians)
    with open(target, "w") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")


def pytest_sessionfinish(session, exitstatus):
    """Merge ``{benchmark fullname: median seconds}`` into the trend file."""
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    if benchmark_session is None:
        return
    medians = {}
    for bench in benchmark_session.benchmarks:
        if getattr(bench, "has_error", False):
            continue
        try:
            medians[bench.fullname] = bench.stats.median
        except Exception:  # a benchmark that never ran has no stats
            continue
    if not medians:
        return
    target = os.environ.get("BENCH_RESULTS_PATH") or os.path.join(
        str(session.config.rootpath), "BENCH_results.json"
    )
    merge_results(target, medians)


@pytest.fixture(scope="session")
def dataset():
    """Exact-totals observations from the full workload matrix."""
    return standard_dataset()


@pytest.fixture(scope="session")
def noisy_observations():
    """Multiplexed, phase-jittered measurements for noise studies."""
    return noisy_dataset()


@pytest.fixture(scope="session")
def m_cones():
    """Model cones for the Table 3 m-series."""
    return {name: build_model_cone(features) for name, features in M_SERIES.items()}


@pytest.fixture(scope="session")
def counterpoint():
    """Pipeline facade with the fast LP backend for sweeps."""
    return CounterPoint(backend="scipy")
