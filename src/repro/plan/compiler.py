"""The planner: compile a :class:`~repro.plan.spec.Plan` into a task DAG.

Every op in a plan expands into flat, content-addressed tasks:

* **simulation tasks** — one per distinct simulation spec (model
  content, dataset size, µop budget, seed, weights, noise). A named
  ``simulate_dataset`` op and a ``cross_refute`` row that draw the same
  dataset share one task.
* **verdict cells** — one per (model, observation, mode) feasibility
  question, keyed by model content + the observation's provenance
  (simulation task + run index, bundled dataset slot, or the inline
  observation's content hash). Overlapping ``sweep`` / ``compare`` /
  ``cross_refute`` ops that touch the same cell schedule it **once**.
* **report tasks** — one per distinct ``analyze`` question.

The compiler only *plans* — nothing is simulated or solved here (the
bundled hardware datasets are materialized to learn their size, but no
LP runs). The engine executes the graph; the dry-run scheduler prices
it. At execution time each cell additionally resolves to the
:class:`~repro.results.session.AnalysisSession` content key — the
plan-level keys drive scheduling and deduplication, the session keys
drive memoization, persistence, and resume.
"""

from repro.errors import AnalysisError
from repro.results.store import content_key


class SimTask:
    """One deduplicated dataset simulation."""

    __slots__ = ("key", "model", "n_observations", "n_uops", "seed",
                 "weights", "noisy")

    def __init__(self, key, model, n_observations, n_uops, seed, weights,
                 noisy):
        self.key = key
        self.model = model
        self.n_observations = n_observations
        self.n_uops = n_uops
        self.seed = seed
        self.weights = weights
        self.noisy = noisy

    def __repr__(self):
        return "SimTask(%s x %d uops of %s, seed %d)" % (
            self.n_observations, self.n_uops,
            getattr(self.model, "name", self.model), self.seed,
        )


class DatasetSource:
    """Where a sweep unit's observations come from."""

    __slots__ = ("kind", "sim_key", "source", "scale", "observations")

    def __init__(self, kind, sim_key=None, source=None, scale=1.0,
                 observations=None):
        self.kind = kind                    # "sim" | "bundled" | "inline"
        self.sim_key = sim_key
        self.source = source
        self.scale = scale
        self.observations = observations


class SweepUnit:
    """One (model, dataset, mode) sweep — the assembly unit of every
    matrix-shaped op. Its ``cell_keys`` are the plan-level task keys of
    its verdict cells, shared with any other unit touching the same
    content."""

    __slots__ = ("op_id", "model", "dataset", "use_regions", "correlated",
                 "explain", "cell_keys")

    def __init__(self, op_id, model, dataset, use_regions, correlated,
                 explain, cell_keys):
        self.op_id = op_id
        self.model = model
        self.dataset = dataset
        self.use_regions = use_regions
        self.correlated = correlated
        self.explain = explain
        self.cell_keys = cell_keys


class ReportUnit:
    """One ``analyze`` op: a single observation against a single model."""

    __slots__ = ("op_id", "model", "observation", "explain", "key")

    def __init__(self, op_id, model, observation, explain, key):
        self.op_id = op_id
        self.model = model
        self.observation = observation
        self.explain = explain
        self.key = key


class CompiledPlan:
    """The flat task DAG and the per-op result-assembly recipes.

    Attributes
    ----------
    op_order:
        Execution order (topological, declaration-order tie-break).
    sims:
        ``{sim_key: SimTask}`` in first-use order, globally deduplicated.
    units:
        Every :class:`SweepUnit` in execution order.
    reports:
        Every :class:`ReportUnit`, deduplicated by content key.
    assembly:
        ``{op_id: (kind, payload)}`` describing how each op's result is
        assembled from units/tasks.
    cell_keys:
        The set of distinct verdict-cell task keys.
    cells_requested:
        Total cells over all units *before* deduplication — the
        difference against ``len(cell_keys)`` is the work the plan
        layer saves.
    """

    def __init__(self, plan, op_order):
        self.plan = plan
        self.op_order = op_order
        self.sims = {}
        self.units = []
        self.reports = []
        self.assembly = {}
        self.cell_keys = set()
        self.cells_requested = 0
        self.bundled_sizes = {}

    def counts(self):
        """Task totals for pricing (the dry-run report's raw material)."""
        return {
            "simulations": len(self.sims),
            "cells": len(self.cell_keys),
            "cells_requested": self.cells_requested,
            "deduplicated": self.cells_requested - len(self.cell_keys),
            "reports": len({report.key for report in self.reports}),
        }


def _looks_like_dsl(text):
    """The :func:`repro.sim.as_mudd` heuristic: statement terminators
    or switch blocks mean DSL source, anything else is a bundled name."""
    return ";" in text or "{" in text


def _model_token(model):
    """Content identity of a model argument, for task keys.

    Live cones key by cone fingerprint (their counter ordering is part
    of verdict identity); µDDs and strings key by the canonical µDD
    fingerprint, which ignores naming — so a bundled name and its DSL
    source produce the same token.
    """
    fingerprint = getattr(model, "fingerprint", None)
    if callable(fingerprint):                       # a ready ModelCone
        return ("cone", fingerprint())
    from repro.cone.cache import mudd_fingerprint

    if isinstance(model, str):
        from repro.sim import as_mudd

        return ("mudd", mudd_fingerprint(as_mudd(model)))
    return ("mudd", mudd_fingerprint(model))


def _resolve_model(model):
    """The object the engine will hand to ``pipeline.model_cone``.

    Bundled names must resolve here (``model_cone`` treats bare strings
    as DSL source); DSL source stays a string so facade-routed plans
    build cones exactly the way the pre-plan pipeline did.
    """
    if isinstance(model, str) and not _looks_like_dsl(model):
        from repro.sim import as_mudd

        return as_mudd(model)
    return model


def _mode_token(use_regions, correlated, explain, pipeline):
    if use_regions:
        mode = ("region", bool(correlated), repr(float(pipeline.confidence)))
    else:
        mode = ("point",)
    return mode + (bool(explain), pipeline.backend)


def _observation_token(observation, use_regions):
    from repro.results.fingerprint import observation_fingerprint

    if isinstance(observation, dict) and set(observation) == {"name", "point"}:
        return ("obs", observation_fingerprint(observation["point"]))
    return ("obs", observation_fingerprint(observation, samples=use_regions))


def _bundled_size(compiled, source, scale):
    """Observation count of a bundled hardware dataset (materialized
    once per (source, scale) and cached for the engine to reuse)."""
    slot = (source, repr(float(scale)))
    if slot not in compiled.bundled_sizes:
        from repro.models.dataset import noisy_dataset, standard_dataset

        if source == "standard":
            observations = standard_dataset(scale=scale)
        elif source == "noisy":
            observations = noisy_dataset(scale=scale)
        else:
            raise AnalysisError(
                "unknown bundled dataset %r (known: standard, noisy)" % (source,)
            )
        compiled.bundled_sizes[slot] = list(observations)
    return len(compiled.bundled_sizes[slot])


def _sim_task(compiled, model, n_observations, n_uops, seed, weights, noisy):
    """Intern one simulation spec, returning its content-addressed key."""
    resolved = _resolve_model(model)
    key = content_key(
        "plan-sim",
        _model_token(resolved),
        int(n_observations),
        int(n_uops),
        int(seed),
        repr(weights),
        bool(noisy),
    )
    if key not in compiled.sims:
        compiled.sims[key] = SimTask(
            key, resolved, int(n_observations), int(n_uops), int(seed),
            weights, bool(noisy),
        )
    return key


def _dataset_source(compiled, op, sim_keys):
    """Resolve an op's dataset spec to a :class:`DatasetSource` and the
    per-cell dataset tokens."""
    spec = op.params["dataset"]
    if "ref" in spec:
        key = sim_keys[spec["ref"]]
        task = compiled.sims[key]
        tokens = [("sim", key, index) for index in range(task.n_observations)]
        return DatasetSource("sim", sim_key=key), tokens
    if "simulate" in spec:
        inner = dict(spec["simulate"])
        model = inner.pop("model", None)
        if model is None:
            raise AnalysisError(
                "plan op %r: a 'simulate' dataset spec needs a model"
                % (op.op_id,)
            )
        key = _sim_task(
            compiled,
            model,
            inner.pop("n_observations", 3),
            inner.pop("n_uops", 20000),
            inner.pop("seed", 0),
            inner.pop("weights", None),
            inner.pop("noisy", False),
        )
        if inner:
            raise AnalysisError(
                "plan op %r: unknown simulate-dataset options %s"
                % (op.op_id, ", ".join(sorted(inner)))
            )
        task = compiled.sims[key]
        tokens = [("sim", key, index) for index in range(task.n_observations)]
        return DatasetSource("sim", sim_key=key), tokens
    if "source" in spec:
        source = spec["source"]
        scale = float(spec.get("scale", 1.0))
        size = _bundled_size(compiled, source, scale)
        tokens = [
            ("bundled", source, repr(scale), index) for index in range(size)
        ]
        return DatasetSource("bundled", source=source, scale=scale), tokens
    observations = list(spec["inline"])
    use_regions = bool(op.params.get("use_regions", False))
    tokens = [
        _observation_token(observation, use_regions)
        for observation in observations
    ]
    return DatasetSource("inline", observations=observations), tokens


def _sweep_unit(compiled, pipeline, op_id, model, dataset, tokens,
                use_regions, correlated, explain):
    resolved = _resolve_model(model)
    mode = _mode_token(use_regions, correlated, explain, pipeline)
    model_token = _model_token(resolved)
    cell_keys = [
        content_key("plan-cell", model_token, token, mode) for token in tokens
    ]
    compiled.cells_requested += len(cell_keys)
    compiled.cell_keys.update(cell_keys)
    unit = SweepUnit(
        op_id, resolved, dataset, bool(use_regions), bool(correlated),
        bool(explain), cell_keys,
    )
    compiled.units.append(unit)
    return unit


def compile_plan(plan, pipeline):
    """Expand ``plan`` into a :class:`CompiledPlan` against ``pipeline``
    (whose backend/confidence are part of every cell's identity)."""
    op_order = plan.validate()
    compiled = CompiledPlan(plan, op_order)
    sim_keys = {}      # simulate_dataset op id -> sim task key

    for op_id in op_order:
        op = plan.op(op_id)
        if op.kind == "simulate_dataset":
            sim_keys[op_id] = _sim_task(
                compiled,
                op.params["model"],
                op.params["n_observations"],
                op.params["n_uops"],
                op.params["seed"],
                op.params["weights"],
                op.params["noisy"],
            )
            compiled.assembly[op_id] = ("dataset", sim_keys[op_id])
        elif op.kind == "analyze":
            resolved = _resolve_model(op.params["model"])
            observation = op.params["observation"]
            key = content_key(
                "plan-report",
                _model_token(resolved),
                _observation_token(observation, use_regions=False),
                pipeline.backend,
                bool(op.params["explain"]),
            )
            unit = ReportUnit(
                op_id, resolved, observation, bool(op.params["explain"]), key
            )
            compiled.reports.append(unit)
            compiled.assembly[op_id] = ("report", unit)
        elif op.kind == "sweep":
            dataset, tokens = _dataset_source(compiled, op, sim_keys)
            unit = _sweep_unit(
                compiled, pipeline, op_id, op.params["model"], dataset,
                tokens, op.params["use_regions"], op.params["correlated"],
                op.params["explain"],
            )
            compiled.assembly[op_id] = ("sweep", unit)
        elif op.kind == "compare":
            dataset, tokens = _dataset_source(compiled, op, sim_keys)
            units = [
                _sweep_unit(
                    compiled, pipeline, op_id, model, dataset, tokens,
                    op.params["use_regions"], op.params["correlated"],
                    op.params["explain"],
                )
                for model in op.params["models"]
            ]
            compiled.assembly[op_id] = ("compare", units)
        elif op.kind == "cross_refute":
            from repro.parallel.runner import split_seeds
            from repro.sim import as_mudd

            mudds = [as_mudd(model) for model in op.params["models"]]
            names = [mudd.name for mudd in mudds]
            if len(set(names)) != len(names):
                # The matrix is keyed by model name: a repeated name
                # (every DSL source is named "model") would silently
                # overwrite a row and a column.
                raise AnalysisError(
                    "plan op %r: duplicate model names in cross_refute: %s"
                    % (op_id, ", ".join(names))
                )
            row_seeds = split_seeds(
                op.params["seed"], len(mudds), stride=1000
            )
            rows = []
            for observed, row_seed in zip(mudds, row_seeds):
                key = _sim_task(
                    compiled,
                    observed,
                    op.params["n_observations"],
                    op.params["n_uops"],
                    row_seed,
                    op.params["weights"],
                    False,
                )
                task = compiled.sims[key]
                tokens = [
                    ("sim", key, index)
                    for index in range(task.n_observations)
                ]
                dataset = DatasetSource("sim", sim_key=key)
                row_units = [
                    _sweep_unit(
                        compiled, pipeline, op_id, candidate, dataset,
                        tokens, False, True, op.params["explain"],
                    )
                    for candidate in mudds
                ]
                rows.append((observed.name, [
                    (candidate.name, unit)
                    for candidate, unit in zip(mudds, row_units)
                ]))
            compiled.assembly[op_id] = ("matrix", rows)
    return compiled


__all__ = [
    "CompiledPlan",
    "DatasetSource",
    "ReportUnit",
    "SimTask",
    "SweepUnit",
    "compile_plan",
]
