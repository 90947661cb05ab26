"""The generated simulator program: specialised Python source per µDD.

The interpreter in :mod:`repro.sim.executor` walks a µDD node by node
per µop. This module compiles a :class:`~repro.sim.executor.CompiledMuDD`
once more, in three steps:

1. **Skeleton.** Runs of non-decision nodes between decisions collapse
   into macro-edges carrying a step count and a counter-delta row.
2. **Tree.** The skeleton is expanded under the traversal rule into the
   µDD's decision tree: a property resolved earlier on a path is
   statically followed, never re-asked, and a followed label the
   decision does not offer becomes a raise-leaf carrying the
   interpreter's exact dispatch error.
3. **Source.** The tree is emitted as one ``run_trace`` function:
   nested ``if``/``elif`` dispatch on the branch indices that
   per-decision sampler closures (:meth:`repro.sim.oracles.Oracle.
   compile_sampler`) return, one leaf bucket bump per µop, no per-edge
   dict lookups. The caller folds the buckets into counter totals with
   one ``counts @ leaf_deltas`` multiply.

:class:`~repro.sim.executor.MuDDExecutor` runs the program only where
it is exact: the oracle's hooks are inert (:func:`hooks_are_noops`),
the tree fits under :data:`MAX_TREE_NODES` / :data:`MAX_TREE_DEPTH`,
and the longest walk cannot trip ``max_steps``. Oracle samplers consume
the state ``resolve`` would, in path order, so RNG streams stay aligned
with the interpreter (``tests/test_sim_equivalence.py`` fuzzes this).

Programs are memoized in-process, keyed by a hash of the lowered tables
themselves (:func:`program_for`): the program dispatches on decision
node indices and edge-order branch indices, so two µDDs share one only
when those tables are equal. Programs are never written to or read from
disk: nothing read from a cache directory may run code.
"""

import hashlib

import numpy as np

from repro.errors import SimulationError
from repro.obs.trace import get_tracer
from repro.sim.executor import _OP_COUNT, _OP_HALT, _OP_SWITCH
from repro.sim.oracles import Oracle

#: Expansion caps: beyond these the unrolled tree stops paying for
#: itself (and deep nesting strains the Python parser), so the
#: executor interprets instead.
MAX_TREE_NODES = 20000
MAX_TREE_DEPTH = 60

_DISPATCH_ERROR = (
    "oracle resolved %s=%r but %r offers branches %s"
)


def hooks_are_noops(oracle):
    """Whether an oracle's device hooks are provably inert, making it
    *samplable*: ``begin_uop``/``pending_uops`` are the base no-ops (or
    absent) and there is no ``on_event``. Resolution statefulness is
    fine — the program preserves the per-µop, path-order call sequence —
    but a hooked oracle (e.g. :class:`~repro.sim.oracles.MMUOracle`)
    must be interpreted so its bookkeeping runs."""
    cls = type(oracle)
    begin = getattr(cls, "begin_uop", None)
    if begin is not None and begin is not Oracle.begin_uop:
        return False
    pending = getattr(cls, "pending_uops", None)
    if pending is not None and pending is not Oracle.pending_uops:
        return False
    if getattr(oracle, "on_event", None) is not None:
        return False
    instance = getattr(oracle, "__dict__", None)
    if instance and ("begin_uop" in instance or "pending_uops" in instance):
        return False
    return True


def sampler_for(oracle, prop, values, model="µDD"):
    """A branch-index sampler for one decision, honouring the oracle's
    own :meth:`compile_sampler` when it has one (duck-typed oracles get
    the generic resolve-and-map wrapper)."""
    compile_sampler = getattr(oracle, "compile_sampler", None)
    if compile_sampler is not None:
        return compile_sampler(prop, values, model=model)
    return Oracle.compile_sampler(oracle, prop, values, model=model)


# -- skeleton ---------------------------------------------------------------

class _MacroEdge:
    """One compressed run of non-decision nodes.

    ``steps`` counts every node the interpreter would visit on this run
    (including the terminal decision, excluding END), ``deltas`` the
    observed-counter increments, and ``terminal`` the decision node
    index (``-1`` = END).
    """

    __slots__ = ("steps", "deltas", "terminal")

    def __init__(self, steps, deltas, terminal):
        self.steps = steps
        self.deltas = deltas
        self.terminal = terminal


class _Skeleton:
    """The decision-skeleton lowering of a compiled µDD.

    ``start_edge`` leaves START; ``props``, ``values`` and
    ``branch_edges`` map each reachable decision node index to its
    property, its branch labels in edge order, and
    ``{label: macro-edge}``.
    """

    __slots__ = ("start_edge", "props", "values", "branch_edges")

    def __init__(self, compiled):
        self.props = {}
        self.values = {}
        edge_for = {}
        pending = [compiled.start]
        while pending:
            anchor = pending.pop()
            if anchor in edge_for:
                continue
            deltas = [0] * len(compiled.counters)
            steps = 0
            node = anchor
            terminal = -1
            while compiled.ops[node] != _OP_HALT:
                steps += 1
                if compiled.ops[node] == _OP_SWITCH:
                    terminal = node
                    break
                if compiled.ops[node] == _OP_COUNT and compiled.slots[node] >= 0:
                    deltas[compiled.slots[node]] += 1
                node = compiled.nexts[node]
            edge_for[anchor] = _MacroEdge(steps, deltas, terminal)
            if terminal >= 0 and terminal not in self.props:
                self.props[terminal] = compiled.properties[compiled.slots[terminal]]
                branches = compiled.branches[terminal]
                self.values[terminal] = tuple(branches)
                pending.extend(branches.values())
        self.branch_edges = {
            terminal: {
                label: edge_for[target]
                for label, target in compiled.branches[terminal].items()
            }
            for terminal in self.props
        }
        self.start_edge = edge_for[compiled.start]


# -- tree building and source emission --------------------------------------

class _TreeProgram:
    """One generated simulator.

    ``decisions`` lists the ``(node, property, branch labels)`` the
    program samples, ``leaf_deltas`` is the ``leaves x counters``
    delta matrix, ``errors`` the raise-leaf messages, and
    ``max_path_len`` the longest walk in interpreter steps — a run
    whose ``max_steps`` is at least this can never trip the valve.
    """

    __slots__ = ("bind", "decisions", "leaf_deltas", "errors",
                 "max_path_len")

    def __init__(self, source, decisions, leaf_deltas, errors, max_path_len):
        namespace = {"SimulationError": SimulationError}
        exec(compile(source, "<repro-codegen>", "exec"), namespace)
        self.bind = namespace["bind"]
        self.decisions = decisions
        self.leaf_deltas = leaf_deltas
        self.errors = errors
        self.max_path_len = max_path_len

    def runner(self, oracle, model, counts):
        """The program closed over ``oracle``'s branch samplers and the
        leaf buckets ``counts``: a ``run_trace(uops)`` callable."""
        samplers = {
            node: sampler_for(oracle, prop, values, model=model)
            for node, prop, values in self.decisions
        }
        return self.bind(samplers, counts, self.errors)


def _build_tree(skeleton, model):
    """Expand the skeleton into the decision tree, or ``None`` when the
    expansion caps are exceeded.

    Returns ``(root, leaf_deltas, errors, max_path_len)``. Tree nodes
    are ``("leaf", leaf_id)``, ``("raise", error_id)``, or
    ``("dec", decision_node, [children in edge order])``. Repeated
    properties are resolved statically: an already-assigned decision
    contributes no child fan-out (and no sampler call), exactly the
    interpreter's traversal rule.
    """
    leaf_deltas = []
    errors = []
    budget = [MAX_TREE_NODES]
    longest = [0]

    def expand(edge, assignments, deltas, steps, depth):
        if depth > MAX_TREE_DEPTH:
            return None
        while True:
            budget[0] -= 1
            if budget[0] < 0:
                return None
            deltas = [total + delta for total, delta in zip(deltas, edge.deltas)]
            steps += edge.steps
            terminal = edge.terminal
            if terminal < 0:
                longest[0] = max(longest[0], steps)
                leaf_deltas.append(deltas)
                return ("leaf", len(leaf_deltas) - 1)
            prop = skeleton.props[terminal]
            assigned = assignments.get(prop)
            if assigned is None:
                break
            # Statically follow the earlier assignment; a label the
            # decision does not offer raises at runtime, like the
            # interpreter's dispatch error.
            edge = skeleton.branch_edges[terminal].get(assigned)
            if edge is None:
                longest[0] = max(longest[0], steps)
                errors.append(
                    _DISPATCH_ERROR
                    % (prop, assigned, model,
                       ", ".join(skeleton.values[terminal]))
                )
                return ("raise", len(errors) - 1)
        children = []
        for label in skeleton.values[terminal]:
            branch_assignments = dict(assignments)
            branch_assignments[prop] = label
            child = expand(
                skeleton.branch_edges[terminal][label],
                branch_assignments, deltas, steps, depth + 1,
            )
            if child is None:
                return None
            children.append(child)
        return ("dec", terminal, children)

    start = skeleton.start_edge
    root = expand(start, {}, [0] * len(start.deltas), 0, 0)
    if root is None:
        return None
    return root, leaf_deltas, errors, longest[0]


def _emit_source(root, decisions):
    """Generated module source for a decision tree.

    The module defines ``bind(samplers, counts, errors)`` returning
    ``run_trace(uops)``: one sampler call per fresh decision on the
    path, integer branch dispatch, one leaf bucket bump per µop.
    """
    lines = ["def bind(samplers, counts, errors):"]
    lines.append("    def run_trace(uops):")
    # Locals, not closure cells, inside the hot loop.
    for node in decisions:
        lines.append("        _s%d = samplers[%d]" % (node, node))
    lines.append("        _counts = counts")
    lines.append("        for _op in uops:")

    def emit(node, indent):
        pad = "    " * indent
        kind = node[0]
        if kind == "leaf":
            lines.append("%s_counts[%d] += 1" % (pad, node[1]))
            return
        if kind == "raise":
            lines.append(
                "%sraise SimulationError(errors[%d])" % (pad, node[1])
            )
            return
        _, decision, children = node
        lines.append("%s_b = _s%d(_op)" % (pad, decision))
        if len(children) == 1:
            emit(children[0], indent)
            return
        for branch, child in enumerate(children):
            if branch == 0:
                lines.append("%sif _b == 0:" % pad)
            elif branch < len(children) - 1:
                lines.append("%selif _b == %d:" % (pad, branch))
            else:
                lines.append("%selse:" % pad)
            emit(child, indent + 1)

    emit(root, 3)
    lines.append("    return run_trace")
    return "\n".join(lines) + "\n"


def _tree_decisions(root):
    """Decision node ids a tree actually samples, in first-use order."""
    seen = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node[0] != "dec":
            continue
        if node[1] not in seen:
            seen.append(node[1])
        stack.extend(reversed(node[2]))
    return seen


def _build_program(compiled):
    """A fresh :class:`_TreeProgram`, or ``None`` past the caps."""
    skeleton = _Skeleton(compiled)
    built = _build_tree(skeleton, compiled.name)
    if built is None:
        return None
    root, leaf_deltas, errors, max_path_len = built
    decisions = _tree_decisions(root)
    return _TreeProgram(
        _emit_source(root, decisions),
        [(node, skeleton.props[node], skeleton.values[node])
         for node in decisions],
        np.array(leaf_deltas, dtype=np.int64).reshape(
            len(leaf_deltas), len(compiled.counters)
        ),
        errors,
        max_path_len,
    )


def _tables_key(compiled):
    """Content hash of everything a program depends on: the model name
    (raise-leaf messages carry it), counter ordering, properties, the
    opcode/slot/successor tables, branches in edge order, and start.
    EVENT labels stay out — the program only runs for oracles without
    an ``on_event`` hook."""
    tables = (
        compiled.name,
        tuple(compiled.counters),
        tuple(compiled.properties),
        tuple(compiled.ops),
        tuple(compiled.slots),
        tuple(compiled.nexts),
        tuple(
            None if branches is None else tuple(branches.items())
            for branches in compiled.branches
        ),
        compiled.start,
    )
    return hashlib.sha256(repr(tables).encode("utf-8")).hexdigest()


#: In-process memo of generated programs, keyed by :func:`_tables_key`.
#: ``False`` marks a µDD whose tree exceeded the expansion caps.
_PROGRAM_MEMO = {}
_PROGRAM_MEMO_CAP = 256


def program_for(compiled):
    """The generated program for a :class:`~repro.sim.executor.
    CompiledMuDD`, or ``None`` when its tree exceeds the expansion
    caps. Built under a ``sim.compile`` span on a memo miss."""
    key = _tables_key(compiled)
    program = _PROGRAM_MEMO.get(key)
    if program is None:
        with get_tracer().span("sim.compile", model=compiled.name):
            program = _build_program(compiled) or False
        if len(_PROGRAM_MEMO) >= _PROGRAM_MEMO_CAP:
            _PROGRAM_MEMO.pop(next(iter(_PROGRAM_MEMO)))
        _PROGRAM_MEMO[key] = program
    return program or None


__all__ = [
    "MAX_TREE_DEPTH",
    "MAX_TREE_NODES",
    "hooks_are_noops",
    "program_for",
    "sampler_for",
]
