"""The µDD graph data structure.

Node kinds follow Figure 4 of the paper:

* ``START`` / ``END`` — path endpoints,
* ``EVENT`` — a standard microarchitectural event (green box),
* ``COUNTER`` — an event recorded by a hardware event counter (blue pill),
* ``DECISION`` — a microarchitectural property whose value selects the
  outgoing *causality* edge (diamond).

Causality edges carry an optional property-value label (used only on
edges leaving a decision node). Happens-before edges constrain event
ordering within a µpath; they do not affect counter signatures but are
validated for acyclicity together with causality edges.

Structural rules enforced by :meth:`MuDD.validate`:

* exactly one START node, at least one END node,
* non-decision nodes have at most one outgoing causality edge
  (branching happens only at decisions),
* every decision's outgoing edges carry distinct value labels,
* the causality graph is acyclic and every node is reachable from START,
* every maximal causality walk ends at an END node.

A µDD changes only through its ``add_*`` methods (nodes and edges are
immutable); each call bumps the mutation counter that keys its identity
memo (``counters``, :func:`repro.cone.cache.mudd_fingerprint`).
"""

from repro.errors import MuDDError

START = "start"
END = "end"
EVENT = "event"
COUNTER = "counter"
DECISION = "decision"

_KINDS = (START, END, EVENT, COUNTER, DECISION)


class _Frozen:
    """Slots set once, by ``__init__``; assigning later raises, so a
    µDD's mutation counter sees every change of content."""

    __slots__ = ()

    def __setattr__(self, *args):
        raise MuDDError(
            "%s is immutable; change a µDD through its add_* methods"
            % type(self).__name__
        )

    __delattr__ = __setattr__

    def __reduce__(self):
        return (type(self), tuple(getattr(self, slot) for slot in self.__slots__))


class Node(_Frozen):
    """A µDD node (immutable).

    ``label`` is the event name for EVENT nodes, the counter name for
    COUNTER nodes and the property name for DECISION nodes.
    """

    __slots__ = ("node_id", "kind", "label")

    def __init__(self, node_id, kind, label=None):
        if kind not in _KINDS:
            raise MuDDError("unknown node kind %r" % (kind,))
        if kind in (EVENT, COUNTER, DECISION) and not label:
            raise MuDDError("%s nodes require a label" % kind)
        _NODE_ID(self, node_id)
        _NODE_KIND(self, kind)
        _NODE_LABEL(self, label)

    def __repr__(self):
        return "Node(%r, %s, label=%r)" % (self.node_id, self.kind, self.label)


class Edge(_Frozen):
    """An immutable causality edge, optionally labelled with a decision value."""

    __slots__ = ("source", "target", "value")

    def __init__(self, source, target, value=None):
        _EDGE_SOURCE(self, source)
        _EDGE_TARGET(self, target)
        _EDGE_VALUE(self, value)

    def __repr__(self):
        return "Edge(%r -> %r, value=%r)" % (self.source, self.target, self.value)


# Slot setters that bypass _Frozen.__setattr__, for __init__ alone.
_NODE_ID, _NODE_KIND, _NODE_LABEL = (getattr(Node, s).__set__ for s in Node.__slots__)
_EDGE_SOURCE, _EDGE_TARGET, _EDGE_VALUE = (getattr(Edge, s).__set__ for s in Edge.__slots__)


class MuDD:
    """A µpath Decision Diagram.

    Build with :meth:`add_node` / :meth:`add_edge` /
    :meth:`add_happens_before`, or — far more conveniently — compile a
    :mod:`repro.mudd.program` AST with
    :func:`repro.mudd.program.compile_program`.
    """

    def __init__(self, name="model"):
        self.name = name
        self.nodes = {}
        self.edges = []
        self.happens_before = []
        self._out_edges = {}
        self._next_id = 0
        # The mutation counter and the identity memo it keys; each add_*
        # starts a new memo, so copies stop sharing one once changed.
        self._version = 0
        self._identity = {}

    def copy(self):
        """An independent copy that shares the immutable nodes and edges,
        and the identity memo until either µDD is next changed."""
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.nodes = dict(self.nodes)
        clone.edges = list(self.edges)
        clone.happens_before = list(self.happens_before)
        clone._out_edges = {key: list(edges) for key, edges in self._out_edges.items()}
        return clone

    def _changed(self):
        self._version += 1
        self._identity = {}

    def _memoized(self, key, compute):
        """``compute()``, once per mutation count, name and ``key``."""
        memo = self._identity
        key = (self._version, self.name) + key
        value = memo.get(key)
        if value is None:
            value = memo[key] = compute()
        return value

    # -- construction ---------------------------------------------------
    def new_node_id(self):
        node_id = "n%d" % self._next_id
        self._next_id += 1
        return node_id

    def add_node(self, kind, label=None, node_id=None):
        """Create and register a node; returns its id."""
        if node_id is None:
            node_id = self.new_node_id()
        if node_id in self.nodes:
            raise MuDDError("duplicate node id %r" % (node_id,))
        self.nodes[node_id] = Node(node_id, kind, label)
        self._out_edges[node_id] = []
        self._changed()
        return node_id

    def add_edge(self, source, target, value=None):
        """Add a causality edge (``value`` labels decision branches)."""
        for node_id in (source, target):
            if node_id not in self.nodes:
                raise MuDDError("edge references unknown node %r" % (node_id,))
        source_node = self.nodes[source]
        if source_node.kind == END:
            raise MuDDError("END nodes cannot have outgoing edges")
        if source_node.kind == DECISION:
            if value is None:
                raise MuDDError(
                    "edges leaving decision %r must carry a value label" % (source,)
                )
            if any(edge.value == value for edge in self._out_edges[source]):
                raise MuDDError(
                    "decision %r already has a branch for value %r" % (source, value)
                )
        else:
            if value is not None:
                raise MuDDError("value labels are only allowed on decision edges")
            if self._out_edges[source]:
                raise MuDDError(
                    "non-decision node %r already has an outgoing edge" % (source,)
                )
        edge = Edge(source, target, value)
        self.edges.append(edge)
        self._out_edges[source].append(edge)
        self._changed()
        return edge

    def add_happens_before(self, earlier, later):
        """Record that ``earlier`` must precede ``later`` in any µpath
        containing both nodes."""
        for node_id in (earlier, later):
            if node_id not in self.nodes:
                raise MuDDError("happens-before references unknown node %r" % (node_id,))
        self.happens_before.append((earlier, later))
        self._changed()

    # -- queries ----------------------------------------------------------
    def out_edges(self, node_id):
        return list(self._out_edges[node_id])

    def start_node(self):
        starts = [n for n in self.nodes.values() if n.kind == START]
        if len(starts) != 1:
            raise MuDDError("µDD must have exactly one START node, found %d" % len(starts))
        return starts[0]

    def end_nodes(self):
        return [n for n in self.nodes.values() if n.kind == END]

    @property
    def counters(self):
        """Counter names in first-appearance order (deterministic)."""
        return list(self._memoized((COUNTER,), lambda: self._labels(COUNTER)))

    @property
    def properties(self):
        """Decision property names in first-appearance order."""
        return list(self._memoized((DECISION,), lambda: self._labels(DECISION)))

    def _labels(self, kind):
        seen = {}
        for node_id in sorted(self.nodes, key=_node_order_key):
            node = self.nodes[node_id]
            if node.kind == kind:
                seen.setdefault(node.label)
        return tuple(seen)

    # -- validation ---------------------------------------------------------
    def validate(self):
        """Check all structural rules; raises :class:`MuDDError`."""
        start = self.start_node()
        if not self.end_nodes():
            raise MuDDError("µDD must have at least one END node")

        # Acyclicity of causality+happens-before via DFS colouring.
        adjacency = {node_id: [] for node_id in self.nodes}
        for edge in self.edges:
            adjacency[edge.source].append(edge.target)
        for earlier, later in self.happens_before:
            adjacency[earlier].append(later)
        state = {}
        stack = [(start.node_id, iter(adjacency[start.node_id]))]
        state[start.node_id] = "active"
        while stack:
            node_id, successors = stack[-1]
            advanced = False
            for successor in successors:
                if state.get(successor) == "active":
                    raise MuDDError("cycle detected through node %r" % (successor,))
                if successor not in state:
                    state[successor] = "active"
                    stack.append((successor, iter(adjacency[successor])))
                    advanced = True
                    break
            if not advanced:
                state[node_id] = "done"
                stack.pop()

        # Reachability (over causality edges only).
        reachable = set()
        frontier = [start.node_id]
        while frontier:
            node_id = frontier.pop()
            if node_id in reachable:
                continue
            reachable.add(node_id)
            for edge in self._out_edges[node_id]:
                frontier.append(edge.target)
        unreachable = set(self.nodes) - reachable
        if unreachable:
            raise MuDDError(
                "unreachable nodes: %s" % ", ".join(sorted(unreachable))
            )

        # Every walk must terminate at END: no dangling non-END sinks.
        for node_id, node in self.nodes.items():
            if node.kind != END and not self._out_edges[node_id]:
                raise MuDDError(
                    "node %r (%s) has no outgoing edge and is not END"
                    % (node_id, node.kind)
                )
        return True

    def __repr__(self):
        return "MuDD(%r, %d nodes, %d edges)" % (
            self.name,
            len(self.nodes),
            len(self.edges),
        )


def _node_order_key(node_id):
    """Sort ids of the form 'n<k>' numerically, others lexically."""
    if node_id.startswith("n") and node_id[1:].isdigit():
        return (0, int(node_id[1:]), node_id)
    return (1, 0, node_id)
