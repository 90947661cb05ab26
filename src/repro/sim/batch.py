"""Vectorised batch simulation: many traces / many models in one pass.

Under a :class:`~repro.sim.oracles.RandomOracle`, every µop samples its
µpath independently: a fresh property on the path picks a branch with a
fixed probability, so the probability of a whole µpath is the product of
its branch choices. A run of ``U`` µops is therefore a multinomial draw
over the model's (deduplicated) µpath signatures — which means a batch
of ``T`` traces collapses to one ``rng.multinomial`` call and one
matrix multiply:

    counts  = multinomial(U, path_probabilities, size=T)    # T x P
    totals  = counts @ signature_matrix                     # T x N

:func:`path_distribution` walks the µDD once to produce the signature
matrix with exact path probabilities (honouring the traversal rule —
a property assigned earlier on the path contributes no extra factor),
and :func:`batch_simulate` turns that into batched observation vectors.
This is the scenario-sweep fast path: thousands of traces or dozens of
model variants per second, statistically indistinguishable from running
the event-driven executor with the same weights, µop by µop.

:func:`batch_simulate` memoizes ``path_distribution`` output per (µDD
fingerprint, counters, weights), so dataset generation enumerates each
model's µpaths once per process instead of once per observation. The
draws do not depend on the memo: the distribution is deterministic,
and one ``rng.multinomial(U, p, size=T)`` equals ``T`` sequential draws
from the same generator (the batched-vs-loop parity
``tests/test_sim_equivalence.py`` pins).
"""

import numpy as np

from repro.errors import SimulationError
from repro.mudd.graph import COUNTER, DECISION, END, MuDD


def _branch_probabilities(prop, branches, weights):
    """Probability per branch value, honouring optional weights."""
    values = list(branches)
    table = (weights or {}).get(prop)
    if not table:
        share = 1.0 / len(values)
        return [(value, share) for value in values]
    raw = [float(table.get(value, 1.0)) for value in values]
    total = sum(raw)
    if total <= 0:
        raise SimulationError(
            "weights for property %r sum to zero over branches %s"
            % (prop, ", ".join(values))
        )
    return [(value, weight / total) for value, weight in zip(values, raw)]


def path_distribution(mudd, counters=None, weights=None, max_paths=2000000):
    """Signatures and exact probabilities of every µpath.

    Parameters
    ----------
    mudd:
        The model; any validated :class:`MuDD`.
    counters:
        Counter ordering for signature columns (defaults to the µDD's).
    weights:
        ``{property: {value: weight}}`` branch biases, matching the
        :class:`~repro.sim.oracles.RandomOracle` parameter.

    Returns
    -------
    ``(counters, signatures, probabilities)`` where ``signatures`` is a
    ``P x N`` integer array of deduplicated µpath signatures and
    ``probabilities`` the matching length-``P`` vector (sums to 1).
    """
    if not isinstance(mudd, MuDD):
        raise SimulationError("path_distribution expects a MuDD")
    if counters is None:
        counters = mudd.counters
    counters = list(counters)
    index = {name: position for position, name in enumerate(counters)}
    start = mudd.start_node()
    accumulated = {}
    produced = 0
    stack = [(start.node_id, {}, (0,) * len(counters), 1.0)]
    while stack:
        node_id, assignments, signature, probability = stack.pop()
        node = mudd.nodes[node_id]
        if node.kind == END:
            produced += 1
            if produced > max_paths:
                raise SimulationError("µDD has more than %d µpaths" % (max_paths,))
            accumulated[signature] = accumulated.get(signature, 0.0) + probability
            continue
        out = mudd.out_edges(node_id)
        if node.kind == DECISION:
            assigned = assignments.get(node.label)
            if assigned is not None:
                matching = [edge for edge in out if edge.value == assigned]
                if not matching:
                    raise SimulationError(
                        "decision %r has no branch for value %r assigned earlier"
                        % (node.label, assigned)
                    )
                follow = [(matching[0], assignments, 1.0)]
            else:
                shares = dict(
                    _branch_probabilities(
                        node.label, [edge.value for edge in out], weights
                    )
                )
                follow = []
                for edge in out:
                    branch = dict(assignments)
                    branch[node.label] = edge.value
                    follow.append((edge, branch, shares[edge.value]))
        else:
            follow = [(out[0], assignments, 1.0)]
        for edge, branch_assignments, share in follow:
            if share == 0.0:
                continue
            target = mudd.nodes[edge.target]
            branch_signature = signature
            if target.kind == COUNTER:
                position = index.get(target.label)
                if position is not None:
                    updated = list(signature)
                    updated[position] += 1
                    branch_signature = tuple(updated)
            stack.append(
                (edge.target, branch_assignments, branch_signature, probability * share)
            )
    signatures = np.array(sorted(accumulated), dtype=np.int64).reshape(
        len(accumulated), len(counters)
    )
    probabilities = np.array(
        [accumulated[tuple(row)] for row in signatures], dtype=float
    )
    return counters, signatures, probabilities


#: Memoized path distributions, keyed by µDD fingerprint + counter
#: ordering + canonical weights + path cap (the ``sim.compile`` moment
#: of the batch path). Bounded FIFO; entries are immutable tuples.
_DISTRIBUTION_MEMO = {}
_DISTRIBUTION_MEMO_CAP = 128


def _weights_token(weights):
    """Canonical, hashable form of a weights mapping."""
    return tuple(
        (prop, tuple(sorted(table.items())))
        for prop, table in sorted((weights or {}).items())
    )


def _distribution(model, counters, weights, max_paths):
    """``path_distribution`` through the compile memo."""
    from repro.cone.cache import mudd_fingerprint

    key = (
        mudd_fingerprint(model, counters),
        None if counters is None else tuple(counters),
        _weights_token(weights),
        max_paths,
    )
    cached = _DISTRIBUTION_MEMO.get(key)
    if cached is not None:
        return cached
    from repro.obs.trace import get_tracer

    with get_tracer().span("sim.compile", model=model.name):
        names, signatures, probabilities = path_distribution(
            model, counters=counters, weights=weights, max_paths=max_paths
        )
    signatures.setflags(write=False)
    probabilities.setflags(write=False)
    if len(_DISTRIBUTION_MEMO) >= _DISTRIBUTION_MEMO_CAP:
        _DISTRIBUTION_MEMO.pop(next(iter(_DISTRIBUTION_MEMO)))
    _DISTRIBUTION_MEMO[key] = (names, signatures, probabilities)
    return _DISTRIBUTION_MEMO[key]


class BatchResult:
    """Counter totals of a batch of simulated traces (``T x N``)."""

    def __init__(self, model_name, counters, totals, n_uops, seed):
        self.model_name = model_name
        self.counters = list(counters)
        self.totals = np.asarray(totals)
        self.n_uops = n_uops
        self.seed = seed

    @property
    def n_traces(self):
        return self.totals.shape[0]

    def observation(self, trace=0):
        """One trace's totals as a counter-name → value mapping."""
        return {
            name: int(self.totals[trace, column])
            for column, name in enumerate(self.counters)
        }

    def observations(self):
        """All traces as observation mappings."""
        return [self.observation(trace) for trace in range(self.n_traces)]

    def mean(self):
        """Mean totals across traces (counter name → float)."""
        means = self.totals.mean(axis=0)
        return {name: float(value) for name, value in zip(self.counters, means)}

    def feasibility(self, model_cone, backend="exact", screen="auto"):
        """Test every trace's totals against ``model_cone`` in one batch.

        Routed through
        :func:`repro.cone.feasibility.test_points_feasibility`: when the
        cone's facets are already deduced, traces are screened with
        exact integer dot products and only the survivors run the flow
        LP — the fast path for scenario sweeps that pit one model's
        synthetic traces against another's cone. Returns a list of
        :class:`~repro.cone.feasibility.FeasibilityResult`, one per
        trace.
        """
        from repro.cone import test_points_feasibility

        return test_points_feasibility(
            model_cone, self.observations(), backend=backend, screen=screen
        )

    def __repr__(self):
        return "BatchResult(%r, %d traces x %d counters, %d µops each)" % (
            self.model_name,
            self.n_traces,
            len(self.counters),
            self.n_uops,
        )


def batch_simulate(
    model, n_uops, n_traces=1, counters=None, weights=None, seed=0,
    max_paths=2000000,
):
    """Simulate ``n_traces`` independent traces of ``n_uops`` µops each.

    ``model`` is a single µDD or a list of µDDs; a list returns
    ``{model_name: BatchResult}`` with every variant evaluated over the
    same trace count (one pass per model — the model-sweep batch mode).
    """
    if isinstance(model, (list, tuple)):
        results = {}
        for variant_index, variant in enumerate(model):
            result = batch_simulate(
                variant,
                n_uops,
                n_traces=n_traces,
                counters=counters,
                weights=weights,
                seed=seed + variant_index,
                max_paths=max_paths,
            )
            results[result.model_name] = result
        return results
    if n_uops <= 0:
        raise SimulationError("n_uops must be positive")
    if n_traces <= 0:
        raise SimulationError("n_traces must be positive")
    from repro.obs.trace import get_tracer

    with get_tracer().span(
        "sim.batch", model=model.name, traces=n_traces, uops=n_uops,
    ):
        names, signatures, probabilities = _distribution(
            model, counters, weights, max_paths
        )
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(n_uops, probabilities, size=n_traces)
        totals = counts @ signatures
        return BatchResult(model.name, names, totals, n_uops, seed)


def expected_totals(model, n_uops, counters=None, weights=None):
    """Exact expected counter totals of an ``n_uops`` trace — the
    analytic mean the batched sampler converges to."""
    names, signatures, probabilities = path_distribution(
        model, counters=counters, weights=weights
    )
    means = n_uops * (probabilities @ signatures)
    return {name: float(value) for name, value in zip(names, means)}
