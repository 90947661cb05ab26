"""µpath enumeration and counter signatures.

A *µpath* (Section 3) is one complete walk from START to an END node,
together with the property assignments that selected its branches. Its
*counter signature* records how many times each HEC is incremented along
the walk — the vectors that generate the model cone.

Enumeration follows the paper's traversal rule: at a decision node whose
property was already assigned earlier on the path, the matching branch is
followed; otherwise each labelled branch spawns a separate µpath.

:func:`enumerate_mupaths` walks every µpath depth-first and is the
readable reference; :func:`signature_matrix` reaches the same signatures,
in the same order, by a memoized fold that never enumerates paths.
"""

from operator import itemgetter

import numpy as np

from repro.errors import MuDDError
from repro.mudd.graph import COUNTER, DECISION, END, MuDD

#: Packed-signature field sizes in bytes, with their little-endian dtypes.
_FIELDS = tuple((size, np.dtype("<u%d" % size)) for size in (1, 2, 4, 8))


class MuPath:
    """One microarchitectural execution path through a µDD."""

    __slots__ = ("node_ids", "assignments", "counter_counts")

    def __init__(self, node_ids, assignments, counter_counts):
        self.node_ids = tuple(node_ids)
        self.assignments = dict(assignments)
        self.counter_counts = dict(counter_counts)

    def signature(self, counters):
        """Counter signature as a tuple aligned with ``counters``.

        Per-path convenience only: bulk callers use
        :func:`signature_matrix`, which folds the µDD without
        materialising :class:`MuPath` objects.
        """
        return tuple(self.counter_counts.get(name, 0) for name in counters)

    def events(self, mudd):
        """Event and counter labels along the path, in order."""
        labels = []
        for node_id in self.node_ids:
            node = mudd.nodes[node_id]
            if node.label is not None:
                labels.append(node.label)
        return labels

    def __repr__(self):
        return "MuPath(%d nodes, assignments=%r)" % (len(self.node_ids), self.assignments)


def enumerate_mupaths(mudd, max_paths=100000):
    """Enumerate every µpath of ``mudd``.

    Raises :class:`MuDDError` when a decision is reached whose property
    was assigned a value with no matching branch (a modelling bug), or
    when the number of paths exceeds ``max_paths``.
    """
    if not isinstance(mudd, MuDD):
        raise MuDDError("enumerate_mupaths expects a MuDD")
    start = mudd.start_node()
    paths = []
    # Depth-first with an explicit stack of (node_id, trail, assignments),
    # where a trail is the path so far as a linked list of parent
    # pointers, (node_id, parent trail). A step adds one pair, so a path
    # costs its length once, when END builds its MuPath.
    stack = [(start.node_id, (start.node_id, None), {})]
    while stack:
        node_id, trail, assignments = stack.pop()
        node = mudd.nodes[node_id]
        if node.kind == END:
            path_nodes = []
            while trail is not None:
                path_nodes.append(trail[0])
                trail = trail[1]
            path_nodes.reverse()
            counts = {}
            for path_node in path_nodes:
                step = mudd.nodes[path_node]
                if step.kind == COUNTER:
                    counts[step.label] = counts.get(step.label, 0) + 1
            paths.append(MuPath(path_nodes, assignments, counts))
            if len(paths) > max_paths:
                raise MuDDError("µDD has more than %d µpaths" % (max_paths,))
            continue
        out = mudd.out_edges(node_id)
        if node.kind == DECISION:
            assigned = assignments.get(node.label)
            if assigned is not None:
                matching = [edge for edge in out if edge.value == assigned]
                if not matching:
                    raise MuDDError(
                        "decision %r has no branch for value %r assigned earlier"
                        % (node.label, assigned)
                    )
                edges_to_follow = [(matching[0], assignments)]
            else:
                edges_to_follow = []
                for edge in out:
                    branch_assignments = dict(assignments)
                    branch_assignments[node.label] = edge.value
                    edges_to_follow.append((edge, branch_assignments))
        else:
            if len(out) != 1:
                raise MuDDError(
                    "non-decision node %r must have exactly one outgoing edge" % (node_id,)
                )
            edges_to_follow = [(out[0], assignments)]

        for edge, branch_assignments in edges_to_follow:
            stack.append((edge.target, (edge.target, trail), branch_assignments))
    return paths


def signature_matrix(mudd, counters=None, max_paths=2000000, with_multiplicity=False):
    """Distinct counter signatures of the µpaths, in depth-first walk order.

    Computed as a memoized fold over the µDD DAG, not a walk over every
    raw µpath. A fold *state* is a node plus the values already assigned
    to the properties still decided at or below it: by the traversal
    rule, that is all of a path's history its suffix can depend on. Each
    state's suffix is folded once, as an insertion-ordered
    ``{signature: µpath count}``. END yields the zero signature, COUNTER
    nodes shift their successor's signatures, and a free decision merges
    its branches in *reversed* edge order, the order in which the
    depth-first walk (:func:`enumerate_mupaths`) pops them. Signatures
    therefore come out in the walk's first-occurrence order with the
    walk's multiplicities, and cone fingerprints built from them do not
    depend on which of the two produced them.

    During the fold a signature is one int with a byte-aligned field per
    counter, wide enough for the µDD's COUNTER-node count so no field
    carries into the next; a COUNTER shift is then one int add. The
    packed survivors are joined into one little-endian buffer and read
    as the matrix at that field width, so no signature is unpacked on
    its own.

    Parameters
    ----------
    mudd:
        The µDD to analyse.
    counters:
        Counter-name ordering for the signature vectors. Defaults to the
        µDD's own counters. Names absent from the µDD yield a zero column
        — a deliberate modelling statement that the µDD claims the
        counter never increments. A repeated name counts in its last
        position only.
    max_paths:
        Raise :class:`MuDDError` as soon as the µDD provably has more
        µpaths: when a state's suffix has more, or one node has more
        states (each is a lower bound on the raw µpath count).
    with_multiplicity:
        Additionally return the number of µpaths that collapsed onto
        each signature.

    Returns
    -------
    ``(counters, signatures)`` where ``signatures`` is a read-only
    ``(P, N)`` int64 :class:`numpy.ndarray`, one row per distinct
    signature and one column per counter — plus a parallel
    ``multiplicities`` list of ints when ``with_multiplicity`` is true.
    Exact arithmetic wants Python ints: convert rows with
    ``signatures.tolist()``.
    """
    if not isinstance(mudd, MuDD):
        raise MuDDError("signature_matrix expects a MuDD")
    counters = list(mudd.counters if counters is None else counters)
    index = {name: position for position, name in enumerate(counters)}
    counter_nodes = sum(node.kind == COUNTER for node in mudd.nodes.values())
    size, field = next(field for field in _FIELDS if counter_nodes < 256 ** field[0])
    increments = {name: 1 << (8 * size * position) for name, position in index.items()}
    suffixes = _fold(mudd, increments, max_paths)
    length = size * len(counters)
    packed = b"".join([signature.to_bytes(length, "little") for signature in suffixes])
    signatures = np.ndarray((len(suffixes), len(counters)), field, packed).astype(np.int64)
    signatures.flags.writeable = False
    if with_multiplicity:
        return counters, signatures, list(suffixes.values())
    return counters, signatures


def _fold(mudd, increments, max_paths):
    """``{packed signature: µpath count}`` over every µpath from START.

    ``increments`` maps each counted counter name to one packed
    increment. States live where a walk can branch or stop: at DECISION
    and END nodes, and at any other node without exactly one successor,
    whose expansion raises the walk's error. The runs of single-successor
    nodes between states only add a constant, so a state's suffix is
    memoized as ``(signatures, offset, µpath count)`` and the offset is
    applied when branches merge. The post-order uses an explicit stack,
    so a deep µDD cannot exhaust the recursion limit.
    """
    nodes = mudd.nodes
    edges = {node_id: mudd.out_edges(node_id) for node_id in nodes}
    hops = {}

    def hop(node_id):
        """The first state node at or after ``node_id``, and the packed
        increments of the COUNTER nodes passed on the way to it. Every
        node of the run is memoized, so runs that join are walked once."""
        if node_id in hops:
            return hops[node_id]
        run = []
        target = node_id
        while target not in hops:
            node = nodes[target]
            if node.kind in (DECISION, END) or len(edges[target]) != 1:
                hops[target] = (target, 0)
                break
            if len(run) == len(nodes):
                raise MuDDError("cycle detected through node %r" % (target,))
            run.append(node)
            target = edges[target][0].target
        target, shift = hops[target]
        for node in reversed(run):
            if node.kind == COUNTER:
                shift += increments.get(node.label, 0)
            hops[node.node_id] = (target, shift)
        return hops[node_id]

    root, root_shift = hop(mudd.start_node().node_id)
    below, slots = _properties_below(nodes, edges, hop, root)
    # A state's key is its node plus the values assigned to the properties
    # decided at or below it; itemgetter(slice(0)) gives () for none.
    values = {}
    for node_id, mask in below.items():
        decided = [slot for slot in range(mask.bit_length()) if mask >> slot & 1]
        values[node_id] = itemgetter(*decided) if decided else itemgetter(slice(0))
    too_many = "µDD has more than %d µpaths" % (max_paths,)
    unassigned = (None,) * len(slots)
    root = (root, values[root](unassigned))
    memo = {}
    states = dict.fromkeys(below, 0)
    # Frames are (state, assignment, children); children stay None until
    # the state is expanded, then list each branch's (state, shift).
    stack = [(root, unassigned, None)]
    while stack:
        current, assignment, children = stack.pop()
        node = nodes[current[0]]
        if children is None:
            if current in memo:
                continue
            states[node.node_id] += 1
            if states[node.node_id] > max_paths:
                raise MuDDError(too_many)
            if node.kind == END:
                if max_paths < 1:
                    raise MuDDError(too_many)
                memo[current] = ({0: 1}, 0, 1)
                continue
            if node.kind != DECISION:
                raise MuDDError(
                    "non-decision node %r must have exactly one outgoing edge"
                    % (node.node_id,)
                )
            out = edges[node.node_id]
            slot = slots[node.label]
            assigned = assignment[slot]
            if assigned is None:
                follow = [
                    (edge.target,
                     assignment[:slot] + (edge.value,) + assignment[slot + 1:])
                    for edge in out
                ]
            else:
                matching = [edge for edge in out if edge.value == assigned]
                if not matching:
                    raise MuDDError(
                        "decision %r has no branch for value %r assigned earlier"
                        % (node.label, assigned)
                    )
                follow = [(matching[0].target, assignment)]
            children = []
            pending = []
            for target, branch in follow:
                target, shift = hop(target)
                child = (target, values[target](branch))
                children.append((child, shift))
                if child not in memo:
                    pending.append((child, branch, None))
            stack.append((current, assignment, children))
            stack.extend(pending)
            continue
        if len(children) == 1:
            child, shift = children[0]
            suffix, offset, total = memo[child]
            memo[current] = (suffix, offset + shift, total)
            continue
        # A free decision: merge in reversed edge order, the order the
        # depth-first walk pops the branches. Keys stay relative to the
        # first merged branch's offset, so that branch is a plain copy.
        merged, base, total = {}, 0, 0
        for position, (child, shift) in enumerate(reversed(children)):
            part, offset, count = memo[child]
            total += count
            if position == 0:
                merged, base = dict(part), offset + shift
                continue
            offset += shift - base
            get = merged.get
            for packed, paths in part.items():
                packed += offset
                merged[packed] = get(packed, 0) + paths
        if total > max_paths:
            raise MuDDError(too_many)
        memo[current] = (merged, base, total)
    suffix, offset, _ = memo[root]
    offset += root_shift
    if offset:
        suffix = {packed + offset: paths for packed, paths in suffix.items()}
    return suffix


def _properties_below(nodes, edges, hop, root):
    """Number the properties decided at the state nodes reachable from
    ``root`` and give each such node the bitmask of those decided at or
    below it.

    ``hop`` maps a node to the state node its single-successor run ends
    at. Returns ``({state node: bitmask}, {property: bit})``. Raises
    :class:`MuDDError` on a cycle, which no valid µDD has and on which
    the fold could not terminate.
    """
    below = {root: None}  # None marks a node whose successors are open
    slots = {}
    stack = [(root, iter(edges[root]))]
    while stack:
        node_id, successors = stack[-1]
        for edge in successors:
            target = hop(edge.target)[0]
            if target not in below:
                below[target] = None
                stack.append((target, iter(edges[target])))
                break
            if below[target] is None:
                raise MuDDError("cycle detected through node %r" % (target,))
        else:
            stack.pop()
            mask = 0
            for edge in edges[node_id]:
                mask |= below[hop(edge.target)[0]]
            node = nodes[node_id]
            if node.kind == DECISION:
                mask |= 1 << slots.setdefault(node.label, len(slots))
            below[node_id] = mask
    return below, slots
