"""The benchmark's workloads: fixed sequences of units of work.

Each workload drives the program through public entry points, one unit
of about a second or less at a time, in one process and one thread.
``--seed`` makes the inputs: the dataset workloads run their units in a
seeded order (seed 0 keeps the canonical order; the outputs do not
depend on it), and the plan workloads derive their simulation seeds
from it. Outputs are checked after the timed phase against
``goldens.json``; a unit that raises or whose output check fails is a
failed operation.

``repro`` is imported only inside units, so the import itself is timed
as set-up (three fresh imports, median).
"""

import hashlib
import importlib
import json
import os
import random
import sys
import tempfile
import zlib

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

#: Third-party modules ``repro`` imports, loaded before anything is
#: timed: their import is disk-bound and not the program's cost.
DEPENDENCIES = ("numpy", "scipy.optimize")

#: How many times set-up imports ``repro`` (a fresh import each time).
IMPORT_REPEATS = 3


def import_program():
    """Import ``repro`` afresh: drop every loaded ``repro`` module first,
    so each repeat executes the whole package again."""
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    return importlib.import_module("repro")


T_NAMES = tuple("t%d" % index for index in range(18))
REGION_MODELS = ("m0", "m7")
REGION_KINDS = ("correlated", "independent")
PLAN_MODELS = (
    "merging_load_side",
    "no_merging_load_side",
    "pde_initial",
    "pde_refined",
    "walk_refs_2m",
    "walk_refs_4k",
)


def load_goldens(path=GOLDENS_PATH):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def digest(value):
    """Short content hash of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def observation_digest(observation):
    """Fingerprint of one dataset observation: exact totals + samples."""
    return "%s:%s" % (
        observation.fingerprint()[:16],
        observation.fingerprint(samples=True)[:16],
    )


# -- dataset recipes ------------------------------------------------------


def standard_recipes(scale=1.0):
    """``standard_dataset(scale)`` as one ``(name, build)`` per spec."""
    from repro.models.dataset import run_observation, standard_runspecs

    return [
        (spec.name, lambda spec=spec: run_observation(spec))
        for spec in standard_runspecs(scale=scale)
    ]


def noisy_recipes(scale=1.0):
    """``noisy_dataset(scale)`` with its default tuning, one
    ``(name, build)`` per spec; each build makes its own multiplexer."""
    from repro.counters.multiplexing import MultiplexingSimulator
    from repro.models.dataset import (
        borderline_runspecs,
        run_observation,
        standard_runspecs,
    )

    def build(spec):
        multiplexer = MultiplexingSimulator(
            n_physical=4,
            slices_per_interval=48,
            phase_noise=0.3,
            seed=zlib.crc32(spec.name.encode("utf-8")) & 0xFFFF,
        )
        return run_observation(
            spec, interval_ops=400, multiplexer=multiplexer, phase_jitter=0.9
        )

    specs = standard_runspecs(scale=scale)[:8] + borderline_runspecs(scale=scale)
    return [(spec.name, lambda spec=spec: build(spec)) for spec in specs]


def campaign_plan(sim_seed):
    """The plan campaign: a 6-model cross-refutation matrix (4
    observations x 20k µops per model) plus a dataset feeding a compare
    and a sweep that overlap the matrix's first row."""
    from repro import Plan

    plan = Plan()
    plan.cross_refute(
        list(PLAN_MODELS), n_observations=4, n_uops=20000, seed=sim_seed,
        op_id="matrix",
    )
    plan.simulate_dataset(
        PLAN_MODELS[0], 4, n_uops=20000, seed=sim_seed, op_id="data"
    )
    plan.compare(list(PLAN_MODELS), "data", op_id="ranking")
    plan.sweep(PLAN_MODELS[1], "data", op_id="refute")
    return plan


def run_plan(plan, cache_dir):
    """Run ``plan`` in a fresh pipeline; returns ``(stats, bundle,
    diagonal_feasible)``: the bundle is the canonical op-results JSON
    text, and every model must explain its own simulated data."""
    from repro import CounterPoint, PlanResult

    with CounterPoint(cache_dir=cache_dir) as counterpoint:
        result = counterpoint.run(plan)
    bundle = PlanResult(dict(result.items())).to_json(indent=2)
    return dict(result.stats), bundle, result["matrix"].diagonal_feasible()


# -- workloads ------------------------------------------------------------


class Workload:
    """Base: seeded order, set-up repeats and deferred output checks."""

    name = None
    #: Section of ``goldens.json`` holding this workload's expected outputs.
    golden_section = None
    #: How many times :meth:`setup` runs; set-up metrics take the median.
    setup_repeats = 1

    def __init__(self, seed, workdir, goldens):
        self.seed = seed
        self.workdir = workdir
        self.goldens = goldens.get(self.golden_section or self.name, {})
        self.outputs = {}
        self._records = []

    def order(self, items):
        """``items`` in the seeded run order (seed 0: as given)."""
        items = list(items)
        if self.seed:
            random.Random(self.seed).shuffle(items)
        return items

    def record(self, unit, key, compute, golden=True):
        """After the timed phase, store ``compute()`` as output ``key``
        and, with ``golden``, compare it to the golden value; a
        mismatch fails ``unit``."""
        self._records.append((unit, key, compute, golden))

    def finish(self):
        """Compute the recorded outputs and check them."""
        raised = {id(unit) for unit, _, _, _ in self._records if unit.error is not None}
        for unit, key, compute, golden in self._records:
            if id(unit) in raised:
                continue
            try:
                value = compute()
            except Exception as exc:  # an output that cannot be read is a failure
                unit.error = "%s: %s: %s" % (key, type(exc).__name__, exc)
                continue
            self.outputs[key] = value
            if golden and value != self.goldens.get(key) and unit.error is None:
                unit.error = "%s: %r != golden %r" % (key, value, self.goldens.get(key))

    def counts(self):
        """Workload-level per-layer counts for the traced run."""
        return {}

    def setup(self, clock):
        """Generate inputs (timed as set-up units)."""

    def measure(self, clock):
        """Run the timed units."""
        raise NotImplementedError

    def _build_dataset(self, clock, recipes):
        built = {}
        for name, build in self.order(recipes):
            unit, built[name] = clock.run("setup", "dataset/" + name, build)
            self.record(unit, "dataset/" + name, lambda o=built[name]: observation_digest(o))
        return [built[name] for name, _ in recipes]


class MmuDatasets(Workload):
    """The standard (24 specs) and noisy (12 specs) matrices, spec by spec."""

    name = "mmu_datasets"

    def measure(self, clock):
        recipes = [("standard/" + name, build) for name, build in standard_recipes()]
        recipes += [("noisy/" + name, build) for name, build in noisy_recipes()]
        for label, build in self.order(recipes):
            unit, observation = clock.run("wall", label, build)
            self.record(unit, label, lambda o=observation: observation_digest(o))


class TriggerFamily(Workload):
    """Table 5: the 18 m4 trigger variants swept over the 0.25-scale matrix."""

    name = "trigger_family"
    setup_repeats = 3

    def setup(self, clock):
        self.dataset = self._build_dataset(clock, standard_recipes(scale=0.25))

    def measure(self, clock):
        from repro.models import M_SERIES, T_SERIES, build_model_cone
        from repro.pipeline import CounterPoint

        counterpoint = CounterPoint(backend="scipy")
        for name in self.order(T_NAMES):
            # Two units per variant, so each stays well under a second.
            unit, cone = clock.run(
                "wall", "cone/" + name,
                lambda n=name: build_model_cone(M_SERIES["m4"], trigger=T_SERIES[n]),
            )
            unit, sweep = clock.run(
                "wall", "sweep/" + name, lambda c=cone: counterpoint.sweep(c, self.dataset)
            )
            self.record(unit, "infeasible/" + name, lambda s=sweep: sorted(s.infeasible_names))


class RegionRefute(Workload):
    """Section 7.1: m0/m7 deduction, then region violations per cell."""

    name = "region_refute"
    setup_repeats = 3
    passes = 2

    def setup(self, clock):
        self.noisy = self._build_dataset(clock, noisy_recipes())

    def measure(self, clock):
        from repro.cone import identify_violations
        from repro.models import M_SERIES, build_model_cone

        def deduced(model):
            cone = build_model_cone(M_SERIES[model])
            cone.constraints()
            return cone

        cones = {}
        for model in REGION_MODELS:
            unit, cones[model] = clock.run("wall", "cone/" + model, lambda m=model: deduced(m))
            self.record(unit, "constraints/" + model, lambda m=model: len(cones[m].constraints()))
        cells = [
            (observation, kind, model)
            for observation in self.noisy
            for kind in REGION_KINDS
            for model in REGION_MODELS
        ]
        rows = {}
        # Two passes over the cells; a cell's time is its median (mean).
        for _ in range(self.passes):
            for observation, kind, model in self.order(cells):
                def work(observation=observation, kind=kind, model=model):
                    region = observation.region(correlated=kind == "correlated")
                    return identify_violations(cones[model], region, backend="scipy")

                label = "%s/%s/%s" % (observation.name, kind, model)
                unit, violations = clock.run("wall", label, work)
                if unit.error is None:
                    rows[label] = _violation_rows(violations)
                    self.record(unit, "cell/" + label, lambda r=rows[label]: digest(r))
        for kind in REGION_KINDS:
            self.record(unit, "definite/" + kind, lambda k=kind: _definite(rows, k, len(cells)))
        self.record(unit, "violations", lambda: digest(sorted(
            [label] + row for label, cell in rows.items() for row in cell
        )))


def _violation_rows(violations):
    return [
        [bool(v.definite), "eq" if v.constraint.is_equality else "ge", v.constraint.render()]
        for v in violations
    ]


def _definite(rows, kind, n_cells):
    """Definite inequality violations over every cell of one region kind."""
    if len(rows) != n_cells:
        raise ValueError("%d of %d region cells failed" % (n_cells - len(rows), n_cells))
    return sum(
        1
        for label, cell in rows.items()
        if label.split("/")[1] == kind
        for definite, sense, _ in cell
        if definite and sense == "ge"
    )


class _PlanWorkload(Workload):
    """Shared plumbing: plan runs into cache directories in ``workdir``."""

    golden_section = "plan"

    def __init__(self, seed, workdir, goldens):
        super().__init__(seed, workdir, goldens)
        self.cells = {"cold": 0, "warm": 0}

    def counts(self):
        return {"results.cells_" + phase: n for phase, n in self.cells.items()}

    def fresh_dir(self):
        return tempfile.mkdtemp(prefix="plan-", dir=self.workdir)

    def sim_seed(self, index):
        return 100 * self.seed + index

    def record_run(self, unit, outcome, phase, index):
        """Outputs every plan run is checked on; bundle digests only at
        seed 0, where the goldens were recorded."""
        stats, bundle, diagonal = outcome or ({}, None, None)
        self.cells[phase] += stats.get("computed", 0)
        self.record(unit, "requested", lambda: stats["cells_requested"])
        self.record(unit, "computed_" + phase, lambda: stats["computed"])
        self.record(unit, "diagonal_feasible", lambda: diagonal)
        self.record(unit, "bundle/%d" % index, lambda: digest(bundle), golden=self.seed == 0)


class PlanCold(_PlanWorkload):
    """Cold plan runs: simulate, solve exact LPs, write both stores."""

    name = "plan_cold"
    runs = 36

    def measure(self, clock):
        for index in range(self.runs):
            cache_dir = self.fresh_dir()
            unit, outcome = clock.run(
                "wall", "cold/%d" % index,
                lambda: run_plan(campaign_plan(self.sim_seed(index)), cache_dir),
            )
            self.record_run(unit, outcome, "cold", index)


class PlanWarm(_PlanWorkload):
    """Warm re-runs of a stored plan, each in a fresh pipeline."""

    name = "plan_warm"
    setup_repeats = 3
    rounds = 30

    def __init__(self, seed, workdir, goldens):
        super().__init__(seed, workdir, goldens)
        self.primed = []

    def setup(self, clock):
        cache_dir = self.fresh_dir()
        unit, outcome = clock.run(
            "setup", "prime",
            lambda: run_plan(campaign_plan(self.sim_seed(0)), cache_dir),
        )
        self.record_run(unit, outcome, "cold", 0)
        self.primed.append((cache_dir, outcome))

    def measure(self, clock):
        for round_index in range(self.rounds):
            for slot, (cache_dir, cold) in enumerate(self.primed):
                unit, outcome = clock.run(
                    "wall", "warm/%d/%d" % (round_index, slot),
                    lambda d=cache_dir: run_plan(campaign_plan(self.sim_seed(0)), d),
                )
                self.record_run(unit, outcome, "warm", 0)
                self.record(
                    unit, "warm_bundle_is_cold_bundle",
                    lambda w=outcome, c=cold: w[1] == c[1],
                )


WORKLOADS = {
    workload.name: workload
    for workload in (MmuDatasets, TriggerFamily, RegionRefute, PlanCold, PlanWarm)
}

