"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trigger_family --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once under the layer tracer and prints the per-layer metrics
instead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the host diagnostics. Exits non-zero, without a result,
when the checkout has no program source under ``src/``.

The plan workloads' cache directories stay under ``.perfbench-work/`` in
the checkout (~25 MB per ``plan_cold`` run): deleting a run's ~6,000
small store files made the next runs' store writes up to ~40% slower for
minutes on the reference VM (ext4 mounted with ``discard``). Remove the
directory between benchmark sessions, not between runs.
"""

import os

# One thread everywhere: BLAS/OpenMP pools would measure the scheduler of
# a 2-vCPU host rather than the program. Set before numpy is imported.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(CHECKOUT, "src")
WORK_ROOT = os.path.join(CHECKOUT, ".perfbench-work")

if CHECKOUT not in sys.path:
    sys.path.insert(0, CHECKOUT)

from perfbench.harness import UnitClock, peak_rss_mb  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEPENDENCIES,
    IMPORT_REPEATS,
    WORKLOADS,
    import_program,
    load_goldens,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="nominal length of the timed phase (the benchmark interface's "
        "run length); every workload is a fixed sequence of units sized to "
        "take about this long, so a metric always measures the same work",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(workload, clock, after_import=None):
    """Imports, set-up repeats and the timed phase of one workload;
    ``after_import()`` runs once ``repro`` is imported."""
    for _ in range(IMPORT_REPEATS):
        clock.run("setup", "import", import_program)
    if any(unit.error for unit in clock.units):
        return
    if after_import is not None:
        after_import()
    for _ in range(workload.setup_repeats):
        workload.setup(clock)
    workload.measure(clock)
    workload.finish()


def end_to_end(clock):
    """The end-to-end metrics, and their raw seconds as diagnostics."""
    metrics = {}
    raw = {}
    for name, phase in (("setup_s", "setup"), ("wall_s", "wall")):
        metrics[name] = {"value": clock.phase_seconds(phase), "unit": "s"}
        raw[name + ".raw"] = clock.phase_seconds(phase, raw=True)
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MiB"}
    return metrics, raw


def main(argv=None, prepare=None):
    """Run one workload; ``prepare()``, when given, runs once ``repro``
    is imported and before anything is traced (the self-tests use it to
    inject a slowdown)."""
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        sys.stderr.write(
            "perfbench: no program source at %s; run from a checkout of the "
            "repository\n" % SOURCE
        )
        return 2
    sys.path.insert(0, SOURCE)
    for module in DEPENDENCIES:
        importlib.import_module(module)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    workload = WORKLOADS[args.workload](args.seed, workdir, load_goldens())
    clock = UnitClock()
    if args.trace:
        from perfbench.layers import LayerTrace

        def after_import():
            if prepare is not None:
                prepare()
            trace.install()

        with LayerTrace(clock) as trace:
            execute(workload, clock, after_import=after_import)
        metrics = trace.metrics(workload.counts())
        diagnostics = dict(clock.diagnostics(), **trace.diagnostics())
    else:
        execute(workload, clock, after_import=prepare)
        metrics, raw = end_to_end(clock)
        diagnostics = dict(clock.diagnostics(), **raw)
    failures = [unit for unit in clock.units if unit.error]
    for unit in failures:
        sys.stderr.write("perfbench: FAILED %s: %s\n" % (unit.name, unit.error))
    diagnostics["workload"] = args.workload
    diagnostics["seed"] = args.seed
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(clock.units),
        "failed": len(failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
