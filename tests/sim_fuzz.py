"""Seeded random-µDD generator for the differential suites.

Grows random acyclic decision diagrams over all five node kinds
(START / EVENT / COUNTER / DECISION / END) so the seeded sweeps
(``test_sim_equivalence.py``, ``test_path_fold.py``,
``test_certified_lp.py``, ``test_mudd_identity.py``) exercise every
structural feature a µDD walker must handle:

* configurable depth and decision fan-out,
* repeated properties along a path (the traversal rule: a property
  resolved earlier on the same µop's path is never re-asked),
* counters that appear in the graph but not in the requested counter
  ordering (unobserved counters),
* prefetch-style EVENT nodes between decisions.

Generation is tree-shaped (every tree is a DAG, so :meth:`MuDD.validate`
acyclicity holds by construction) and fully determined by the seed.
Repeated decisions always branch over the property's *full* value
domain, so a value assigned upstream always has a matching branch —
fuzz models never dead-end, whatever the oracle chooses.
"""

import random

from repro.mudd.graph import COUNTER, DECISION, END, EVENT, START, MuDD

#: Value domains per generated property (small, so repeats are common).
_DOMAINS = {
    "Hit": ("Yes", "No"),
    "Level": ("L1", "L2", "Mem"),
    "Merged": ("Yes", "No"),
    "PfKind": ("None", "Next", "Stride"),
}

_COUNTER_POOL = (
    "ctr.loads", "ctr.walks", "ctr.hits", "ctr.misses", "ctr.evictions",
)

_EVENT_POOL = ("ev.issue", "ev.prefetch.issue", "ev.prefetch.drop", "ev.retire")


class _Budget:
    """Mutable node budget shared across the recursive build."""

    def __init__(self, nodes):
        self.nodes = nodes

    def take(self):
        self.nodes -= 1
        return self.nodes >= 0


def random_mudd(seed, max_depth=6, max_fanout=3, n_properties=4, n_counters=4,
                n_events=3, p_repeat=0.35, p_counter=0.35, p_event=0.15,
                p_end=0.15, node_budget=300, name=None):
    """A random valid µDD, fully determined by ``seed``."""
    rng = random.Random(seed)
    properties = list(_DOMAINS)[:max(1, min(n_properties, len(_DOMAINS)))]
    counters = list(_COUNTER_POOL[:max(1, min(n_counters, len(_COUNTER_POOL)))])
    events = list(_EVENT_POOL[:max(1, min(n_events, len(_EVENT_POOL)))])
    mudd = MuDD(name or "fuzz-%d" % seed)
    start = mudd.add_node(START)
    budget = _Budget(node_budget)

    def grow(parent, value, depth, assigned):
        """Attach a random subtree below ``parent`` (via ``value`` when
        the parent is a decision)."""
        if depth >= max_depth or not budget.take() or rng.random() < p_end:
            mudd.add_edge(parent, mudd.add_node(END), value=value)
            return
        roll = rng.random()
        if roll < p_counter:
            node = mudd.add_node(COUNTER, rng.choice(counters))
            mudd.add_edge(parent, node, value=value)
            grow(node, None, depth + 1, assigned)
            return
        if roll < p_counter + p_event:
            node = mudd.add_node(EVENT, rng.choice(events))
            mudd.add_edge(parent, node, value=value)
            grow(node, None, depth + 1, assigned)
            return
        repeat = assigned and rng.random() < p_repeat
        prop = rng.choice(sorted(assigned)) if repeat else rng.choice(properties)
        domain = list(_DOMAINS[prop])
        if repeat or prop in assigned:
            # Every already-assignable value needs a branch (traversal
            # rule: the walk follows the earlier assignment statically).
            branch_values = domain
        else:
            fanout = rng.randint(2, min(max_fanout, len(domain)))
            branch_values = rng.sample(domain, fanout)
        node = mudd.add_node(DECISION, prop)
        mudd.add_edge(parent, node, value=value)
        for branch in branch_values:
            grow(node, branch, depth + 1, assigned | {prop})
        return

    grow(start, None, 0, frozenset())
    mudd.validate()
    return mudd


def random_weights(seed, mudd, p_weighted=0.6):
    """A random (possibly empty) RandomOracle ``weights`` mapping for
    ``mudd``'s properties; positive weights only, so no zero-sum."""
    rng = random.Random(seed ^ 0x5EED)
    weights = {}
    for prop in mudd.properties:
        if rng.random() >= p_weighted:
            continue
        weights[prop] = {
            value: rng.choice((0.5, 1.0, 2.0, 3.0)) for value in _DOMAINS[prop]
        }
    return weights or None


def observed_counters(seed, mudd):
    """A counter ordering that drops some of the µDD's counters (the
    unobserved-counter case) and shuffles the rest."""
    rng = random.Random(seed ^ 0xC0C0)
    names = list(mudd.counters)
    if len(names) > 1 and rng.random() < 0.5:
        names = rng.sample(names, rng.randint(1, len(names) - 1))
    rng.shuffle(names)
    return names
