"""Declarative experiment specs: the :class:`Plan` type.

A plan is *data*: an ordered list of analysis ops (``analyze``,
``sweep``, ``compare``, ``cross_refute``, ``simulate_dataset``) with
dependency edges between them, serializable through the shared
:mod:`repro.results.base` contract (version-stamped ``to_dict`` /
``from_dict`` / ``to_json`` / ``from_json``, structural equality,
golden-file pinning). The whole evaluation campaign behind a paper
table becomes one JSON document::

    plan = Plan()
    data = plan.simulate_dataset("pde_refined", n_observations=2,
                                 n_uops=2000, op_id="data")
    plan.sweep("pde_initial", dataset=data, explain=True)
    plan.compare(["pde_initial", "pde_refined"], dataset=data)
    plan.cross_refute(["pde_refined", "pde_initial"], n_observations=2,
                      n_uops=2000)
    text = plan.to_json(indent=2)        # ship it, diff it, commit it

Ops reference each other by id — a ``dataset="data"`` argument is both
a data edge (the sweep consumes the simulated observations) and a
dependency edge (the simulation runs first). The planner
(:mod:`repro.plan.compiler`) compiles the op list into a flat DAG of
content-addressed simulation/verdict tasks with *global*
deduplication, and the engine (:mod:`repro.plan.engine`) executes it.

Plans built from strings (bundled-model names, DSL source, dataset
specs) serialize; plans built from live objects (a ``ModelCone``, a
list of ``Observation``\\ s — the facade's one-op plans) execute the
same way but refuse ``to_dict`` with a pointed error.
"""

from repro.errors import AnalysisError
from repro.results.base import (
    ResultBase,
    decode_number,
    encode_number,
    register,
)

#: Every op kind a plan may contain, in documentation order.
OP_KINDS = ("simulate_dataset", "analyze", "sweep", "compare", "cross_refute")

#: Parameter order per op kind — fixed so serialized plans are stable.
_OP_PARAMS = {
    "simulate_dataset": (
        "model", "n_observations", "n_uops", "seed", "weights", "noisy",
    ),
    "analyze": ("model", "observation", "explain"),
    "sweep": ("model", "dataset", "use_regions", "correlated", "explain"),
    "compare": ("models", "dataset", "use_regions", "correlated", "explain"),
    "cross_refute": (
        "models", "n_observations", "n_uops", "weights", "seed", "explain",
    ),
}

#: Dataset-spec forms (exactly one key): an op reference, a bundled
#: hardware dataset, an anonymous simulation, or inline observations.
_DATASET_FORMS = ("ref", "source", "simulate", "inline")


class PlanOp:
    """One op in a plan: an id, a kind, parameters, dependency edges.

    ``after`` lists op ids that must complete first *in addition to*
    the data edges implied by ``dataset={"ref": ...}`` references.
    """

    __slots__ = ("op_id", "kind", "params", "after")

    def __init__(self, op_id, kind, params, after=()):
        if kind not in OP_KINDS:
            raise AnalysisError(
                "unknown plan op kind %r (known: %s)" % (kind, ", ".join(OP_KINDS))
            )
        if not op_id or not isinstance(op_id, str):
            raise AnalysisError("plan op ids must be non-empty strings, got %r"
                                % (op_id,))
        self.op_id = op_id
        self.kind = kind
        self.params = dict(params)
        self.after = list(after)

    def references(self):
        """Op ids this op depends on through its dataset edge."""
        dataset = self.params.get("dataset")
        if isinstance(dataset, dict) and "ref" in dataset:
            return [dataset["ref"]]
        return []

    def dependencies(self):
        """All op ids that must complete before this op (data + explicit)."""
        seen = []
        for op_id in self.references() + self.after:
            if op_id not in seen:
                seen.append(op_id)
        return seen

    def __repr__(self):
        return "PlanOp(%r, %r)" % (self.op_id, self.kind)


def _normalize_dataset(dataset):
    """Coerce the builder's ``dataset`` argument to a canonical spec."""
    if isinstance(dataset, str):
        return {"ref": dataset}
    if isinstance(dataset, dict):
        keys = [key for key in _DATASET_FORMS if key in dataset]
        allowed = set(keys) | ({"scale"} if keys == ["source"] else set())
        if len(keys) != 1 or set(dataset) - allowed:
            raise AnalysisError(
                "a dataset spec needs exactly one of %s (plus an optional "
                "'scale' with 'source'), got keys %r"
                % ("/".join(_DATASET_FORMS), sorted(dataset))
            )
        return dict(dataset)
    try:
        return {"inline": list(dataset)}
    except TypeError:
        raise AnalysisError(
            "cannot interpret %r as a dataset spec" % (type(dataset).__name__,)
        ) from None


def _check_positive(op_id, name, value):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise AnalysisError(
            "plan op %r: %s must be a positive int, got %r" % (op_id, name, value)
        )


def _check_weights(op_id, weights):
    if weights is None:
        return None
    if not isinstance(weights, dict) or not all(
        isinstance(prop, str) and isinstance(choices, dict)
        and all(isinstance(value, str) for value in choices)
        for prop, choices in weights.items()
    ):
        raise AnalysisError(
            "plan op %r: weights must be {property: {value: weight}}, got %r"
            % (op_id, weights)
        )
    return {
        prop: {value: float(weight) for value, weight in sorted(choices.items())}
        for prop, choices in sorted(weights.items())
    }


def _serialize_model(op_id, model):
    if isinstance(model, str):
        return model
    raise AnalysisError(
        "plan op %r holds a live %s; only string models (bundled names or "
        "DSL source) serialize — in-memory plans execute but cannot be "
        "written to JSON" % (op_id, type(model).__name__)
    )


def _serialize_observation(op_id, observation):
    if isinstance(observation, dict) and all(
        isinstance(name, str) for name in observation
    ):
        try:
            return {
                name: encode_number(value)
                for name, value in sorted(observation.items())
            }
        except AnalysisError:
            pass
    raise AnalysisError(
        "plan op %r: only {counter: number} observations serialize, got %r"
        % (op_id, type(observation).__name__)
    )


def _serialize_dataset(op_id, dataset):
    if "inline" not in dataset:
        return dict(dataset)
    entries = []
    for entry in dataset["inline"]:
        if not (isinstance(entry, dict) and set(entry) == {"name", "point"}):
            raise AnalysisError(
                "plan op %r holds a live observation; only "
                "{'name': ..., 'point': {counter: number}} entries serialize"
                % (op_id,)
            )
        entries.append({
            "name": entry["name"],
            "point": _serialize_observation(op_id, entry["point"]),
        })
    return {"inline": entries}


def _deserialize_dataset(dataset):
    if "inline" not in dataset:
        return dict(dataset)
    return {"inline": [
        {
            "name": entry["name"],
            "point": {
                name: decode_number(value)
                for name, value in entry["point"].items()
            },
        }
        for entry in dataset["inline"]
    ]}


@register
class Plan(ResultBase):
    """An ordered, dependency-edged list of analysis ops.

    Build one incrementally with the op methods (each returns the new
    op's id, so specs chain naturally), then hand it to
    :meth:`repro.plan.engine.PlanEngine.run` — or serialize it and run
    it later with ``python -m repro run plan.json``.
    """

    kind = "plan"

    def __init__(self, ops=()):
        self.ops = list(ops)
        self._by_id = {}
        for op in self.ops:
            if op.op_id in self._by_id:
                raise AnalysisError("duplicate plan op id %r" % (op.op_id,))
            self._by_id[op.op_id] = op

    # -- builder -----------------------------------------------------------
    def _add(self, kind, params, op_id, after):
        if op_id is None:
            index = len(self.ops)
            while "op%d" % index in self._by_id:
                index += 1
            op_id = "op%d" % index
        op = PlanOp(op_id, kind, params, after)
        if op.op_id in self._by_id:
            raise AnalysisError("duplicate plan op id %r" % (op.op_id,))
        self.ops.append(op)
        self._by_id[op.op_id] = op
        return op.op_id

    def simulate_dataset(self, model, n_observations, n_uops=20000, seed=0,
                         weights=None, noisy=False, op_id=None, after=()):
        """Add a dataset-simulation op; other ops consume it by id."""
        _check_positive(op_id or "?", "n_observations", n_observations)
        _check_positive(op_id or "?", "n_uops", n_uops)
        return self._add("simulate_dataset", {
            "model": model,
            "n_observations": n_observations,
            "n_uops": n_uops,
            "seed": int(seed),
            "weights": _check_weights(op_id or "?", weights),
            "noisy": bool(noisy),
        }, op_id, after)

    def analyze(self, model, observation, explain=False, op_id=None, after=()):
        """Add a single-observation analysis op."""
        return self._add("analyze", {
            "model": model,
            "observation": observation,
            "explain": bool(explain),
        }, op_id, after)

    def sweep(self, model, dataset, use_regions=False, correlated=True,
              explain=False, op_id=None, after=()):
        """Add a one-model dataset sweep op. ``dataset`` is an op id,
        a dataset spec dict, or a live observation sequence."""
        return self._add("sweep", {
            "model": model,
            "dataset": _normalize_dataset(dataset),
            "use_regions": bool(use_regions),
            "correlated": bool(correlated),
            "explain": bool(explain),
        }, op_id, after)

    def compare(self, models, dataset, use_regions=False, correlated=True,
                explain=False, op_id=None, after=()):
        """Add a model-family comparison op over one dataset."""
        return self._add("compare", {
            "models": list(models),
            "dataset": _normalize_dataset(dataset),
            "use_regions": bool(use_regions),
            "correlated": bool(correlated),
            "explain": bool(explain),
        }, op_id, after)

    def cross_refute(self, models, n_observations=3, n_uops=20000,
                     weights=None, seed=0, explain=False, op_id=None,
                     after=()):
        """Add a closed-loop cross-refutation matrix op."""
        _check_positive(op_id or "?", "n_observations", n_observations)
        _check_positive(op_id or "?", "n_uops", n_uops)
        return self._add("cross_refute", {
            "models": list(models),
            "n_observations": n_observations,
            "n_uops": n_uops,
            "weights": _check_weights(op_id or "?", weights),
            "seed": int(seed),
            "explain": bool(explain),
        }, op_id, after)

    def then(self, earlier, later):
        """Add an explicit ordering edge: ``earlier`` before ``later``."""
        for op_id in (earlier, later):
            if op_id not in self._by_id:
                raise AnalysisError("unknown plan op id %r" % (op_id,))
        op = self._by_id[later]
        if earlier not in op.after:
            op.after.append(earlier)
        return self

    # -- queries -----------------------------------------------------------
    def __len__(self):
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def op(self, op_id):
        try:
            return self._by_id[op_id]
        except KeyError:
            raise AnalysisError("unknown plan op id %r" % (op_id,)) from None

    def validate(self):
        """Check ids, references, dataset specs, and acyclicity.

        Returns the execution order (a topological sort, declaration
        order as the tie-break) so callers get ordering for free.
        """
        for op in self.ops:
            for dep in op.dependencies():
                if dep not in self._by_id:
                    raise AnalysisError(
                        "plan op %r depends on unknown op %r" % (op.op_id, dep)
                    )
            for ref in op.references():
                if self._by_id[ref].kind != "simulate_dataset":
                    raise AnalysisError(
                        "plan op %r references %r as a dataset, but it is a "
                        "%r op" % (op.op_id, ref, self._by_id[ref].kind)
                    )
            # Parameter checks run here (not only in the builders) so
            # hand-edited JSON plans fail with a pointed error instead
            # of a deep crash at execution time.
            if op.kind in ("simulate_dataset", "cross_refute"):
                _check_positive(op.op_id, "n_observations",
                                op.params["n_observations"])
                _check_positive(op.op_id, "n_uops", op.params["n_uops"])
                _check_weights(op.op_id, op.params.get("weights"))
            dataset = op.params.get("dataset")
            if (
                isinstance(dataset, dict)
                and "inline" in dataset
                and op.params.get("use_regions")
                and any(
                    isinstance(entry, dict) and set(entry) == {"name", "point"}
                    for entry in dataset["inline"]
                )
            ):
                # Serialized inline entries carry exact totals only —
                # there is no sample matrix to summarise as a region.
                raise AnalysisError(
                    "plan op %r: use_regions needs observations with "
                    "interval samples; inline {'name', 'point'} entries "
                    "carry exact totals only" % (op.op_id,)
                )
            if isinstance(dataset, dict) and "simulate" in dataset:
                inner = dataset["simulate"]
                if not isinstance(inner, dict):
                    raise AnalysisError(
                        "plan op %r: 'simulate' dataset spec must be a dict"
                        % (op.op_id,)
                    )
                _check_positive(op.op_id, "n_observations",
                                inner.get("n_observations", 3))
                _check_positive(op.op_id, "n_uops", inner.get("n_uops", 20000))
                _check_weights(op.op_id, inner.get("weights"))
        # Kahn's algorithm, scanning in declaration order so execution
        # order is deterministic regardless of edge insertion order.
        remaining = {op.op_id: set(op.dependencies()) for op in self.ops}
        order = []
        while remaining:
            ready = [
                op.op_id for op in self.ops
                if op.op_id in remaining and not remaining[op.op_id]
            ]
            if not ready:
                cycle = sorted(remaining)
                raise AnalysisError(
                    "plan has a dependency cycle among ops %s"
                    % ", ".join(repr(op_id) for op_id in cycle)
                )
            for op_id in ready:
                order.append(op_id)
                del remaining[op_id]
            for deps in remaining.values():
                deps.difference_update(ready)
        return order

    def summary(self):
        """Human rendering: one line per op with its dependencies."""
        lines = ["plan: %d ops" % len(self.ops)]
        for op in self.ops:
            deps = op.dependencies()
            lines.append("  %-16s %s%s" % (
                op.op_id,
                op.kind,
                "  (after %s)" % ", ".join(deps) if deps else "",
            ))
        return "\n".join(lines)

    # -- serialization -----------------------------------------------------
    def _payload(self):
        entries = []
        for op in self.ops:
            entry = {"id": op.op_id, "op": op.kind, "after": list(op.after)}
            for name in _OP_PARAMS[op.kind]:
                value = op.params[name]
                if name in ("model",):
                    value = _serialize_model(op.op_id, value)
                elif name == "models":
                    value = [_serialize_model(op.op_id, model) for model in value]
                elif name == "observation":
                    value = _serialize_observation(op.op_id, value)
                elif name == "dataset":
                    value = _serialize_dataset(op.op_id, value)
                entry[name] = value
            entries.append(entry)
        return {"ops": entries}

    @classmethod
    def _from_payload(cls, payload):
        ops = []
        for entry in payload["ops"]:
            kind = entry.get("op")
            if kind not in _OP_PARAMS:
                raise AnalysisError("unknown plan op kind %r" % (kind,))
            params = {}
            for name in _OP_PARAMS[kind]:
                if name not in entry:
                    raise AnalysisError(
                        "plan op %r is missing %r" % (entry.get("id"), name)
                    )
                value = entry[name]
                if name == "observation":
                    value = {
                        counter: decode_number(number)
                        for counter, number in value.items()
                    }
                elif name == "dataset":
                    value = _deserialize_dataset(value)
                params[name] = value
            ops.append(PlanOp(entry["id"], kind, params, entry.get("after", ())))
        plan = cls(ops)
        plan.validate()
        return plan

    def __repr__(self):
        return "Plan(%d ops: %s)" % (
            len(self.ops),
            ", ".join(op.op_id for op in self.ops),
        )


__all__ = ["OP_KINDS", "Plan", "PlanOp"]
