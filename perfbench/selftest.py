"""Self-tests of the benchmark: it must see a real slowdown, name the
layer that caused it, check its outputs and track the program's own
dataset entry points.

Not part of the program's test suite (the file name keeps pytest's
default collection away from it). Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q              # ~15 min
    python3 -m pytest perfbench/selftest.py -q -m "not slow"  # ~1 min

As a script it runs one workload with an injected slowdown — a wrapper
that busy-waits for 20% of each call's raw time in one entry point::

    python3 perfbench/selftest.py --slow mudd --workload trigger_family --seed 1 --trace 0
"""

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
if CHECKOUT not in sys.path:
    sys.path.insert(0, CHECKOUT)

from perfbench import harness, workloads  # noqa: E402
from perfbench.reference import NOMINAL_SECONDS  # noqa: E402

#: Layer -> the entry point its injected slowdown targets.
SLOWDOWNS = {
    "mudd": ("repro.mudd.paths", "signature_matrix"),
    "mmu": ("repro.mmu.core", "MMUSimulator.access"),
}
SLOWDOWN_SHARE = 0.2


def slowed(function, share=SLOWDOWN_SHARE):
    """``function`` followed by a busy-wait of ``share`` of its time."""
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            deadline = end + share * (end - start)
            while time.perf_counter() < deadline:
                pass
    return wrapper


def inject(layer):
    """Slow down ``layer``'s entry point on every module binding."""
    from perfbench.layers import bindings

    module, path = SLOWDOWNS[layer]
    found = bindings(module, path)
    wrapped = slowed(found[0][2])
    for owner, attribute, _ in found:
        setattr(owner, attribute, wrapped)


def run_workload(workload, seed, trace=0, slow=None):
    """One benchmark run in a fresh process; returns the result JSON."""
    command = [
        sys.executable, os.path.join(HERE, "selftest.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    if slow:
        command += ["--slow", slow]
    completed = subprocess.run(
        command, cwd=CHECKOUT, capture_output=True, text=True, timeout=900,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def bound(metric):
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}[metric]


def wall(result):
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]["wall_s"]["value"]


def most_moved_layer(base, slow):
    """The layer whose traced self time grew the most."""
    candidates = [
        name for name, metric in base.items()
        if metric["unit"] == "s" and not name.startswith(("host.", "trace.", "setup."))
    ]
    moved = max(candidates, key=lambda name: slow[name]["value"] - base[name]["value"])
    return moved.split(".")[0]


@pytest.fixture(scope="module")
def repro_on_path():
    source = os.path.join(CHECKOUT, "src")
    if source not in sys.path:
        sys.path.insert(0, source)


@pytest.mark.slow
@pytest.mark.parametrize("layer, exercised, bypassed", [
    ("mudd", "trigger_family", ("mmu_datasets", "region_refute")),
    ("mmu", "mmu_datasets", ("trigger_family",)),
])


def test_injected_slowdown_is_flagged_and_attributed(layer, exercised, bypassed):
    limit = 1.0 + bound("wall_s")
    base, slow = [], []
    for seed in (1, 2, 3, 4, 5):  # alternate, so host phases hit both sides
        base.append(wall(run_workload(exercised, seed)))
        slow.append(wall(run_workload(exercised, seed, slow=layer)))
    print("%s slowed: %s wall_s %s -> %s" % (layer, exercised, base, slow))
    assert statistics.median(slow) > limit * statistics.median(base), (base, slow)
    for workload in bypassed:
        before = wall(run_workload(workload, 1))
        after = wall(run_workload(workload, 1, slow=layer))
        print("%s slowed: %s wall_s %.4f -> %.4f" % (layer, workload, before, after))
        assert after < limit * before, (workload, before, after)
    traced = run_workload(exercised, 1, trace=1)["metrics"]
    traced_slow = run_workload(exercised, 1, trace=1, slow=layer)["metrics"]
    print("%s slowed: traced run names %s" % (layer, most_moved_layer(traced, traced_slow)))
    assert most_moved_layer(traced, traced_slow) == layer


def test_perturbed_golden_reports_failed_operations(monkeypatch, capsys, repro_on_path):
    from perfbench import run

    goldens = workloads.load_goldens()
    goldens["plan"]["computed_warm"] = 1
    monkeypatch.setattr(run, "load_goldens", lambda: goldens)
    monkeypatch.setattr(workloads.PlanWarm, "rounds", 2)
    assert run.main(["--workload", "plan_warm", "--seed", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 6  # both rounds of the three warm re-runs
    assert result["attempted"] == workloads.IMPORT_REPEATS + 3 + 6


def test_goldens_pass_unperturbed(monkeypatch, capsys, repro_on_path):
    from perfbench import run

    monkeypatch.setattr(workloads.PlanWarm, "rounds", 1)
    assert run.main(["--workload", "plan_warm", "--seed", "7"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_spec_by_spec_builds_equal_the_dataset_entry_points(repro_on_path):
    from repro.models import noisy_dataset, standard_dataset

    def digests(observations):
        return {o.name: workloads.observation_digest(o) for o in observations}

    goldens = workloads.load_goldens()
    for scale, golden, prefix in (
        (1.0, goldens["mmu_datasets"], "standard/"),
        (0.25, goldens["trigger_family"], "dataset/"),
    ):
        library = digests(standard_dataset(scale))
        assert library == {
            key[len(prefix):]: value for key, value in golden.items()
            if key.startswith(prefix)
        }
    library = digests(noisy_dataset())
    assert library == {
        key[len("noisy/"):]: value for key, value in goldens["mmu_datasets"].items()
        if key.startswith("noisy/")
    }
    # And directly, at a scale the goldens do not cover.
    built = digests(build() for _, build in workloads.noisy_recipes(scale=0.1))
    assert built == digests(noisy_dataset(scale=0.1))
    built = digests(build() for _, build in workloads.standard_recipes(scale=0.1))
    assert built == digests(standard_dataset(scale=0.1))


def test_unit_clock_reads_units_against_their_brackets():
    readings = iter([0.010, 0.014, 0.050, 0.016])
    clock = harness.UnitClock(reference=lambda: next(readings))
    unit, value = clock.run("wall", "a", lambda: 7)
    assert value == 7 and not unit.flagged
    assert unit.reference == 0.012
    assert unit.seconds == unit.raw * NOMINAL_SECONDS / 0.012
    # 0.014 -> 0.050 disagree: a third reading decides (median 0.016).
    unit, _ = clock.run("wall", "b", lambda: None)
    assert unit.flagged and unit.reference == 0.016
    assert clock.diagnostics()["units.flagged"] == 1


def test_failing_unit_is_a_failed_operation():
    clock = harness.UnitClock(reference=lambda: NOMINAL_SECONDS)
    unit, value = clock.run("wall", "boom", lambda: 1 / 0)
    assert value is None and unit.error.startswith("ZeroDivisionError")


def test_exits_without_result_when_program_source_is_missing(tmp_path):
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan_cold",
         "--seed", "0", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def main():
    parser = argparse.ArgumentParser(description="run a workload with a slowed layer")
    parser.add_argument("--slow", choices=sorted(SLOWDOWNS))
    args, rest = parser.parse_known_args()
    from perfbench import run

    prepare = None if args.slow is None else (lambda: inject(args.slow))
    return run.main(rest, prepare=prepare)


if __name__ == "__main__":
    sys.exit(main())
