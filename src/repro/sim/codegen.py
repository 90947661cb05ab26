"""The codegen backend: specialised Python source per µDD.

Where :class:`~repro.sim.engines.VectorEngine` still dispatches each
decision through dicts, this backend unrolls the µDD's *decision tree*
— the skeleton expanded under the traversal rule, so a property
resolved earlier on a path is statically followed, never re-asked —
into one generated ``run_trace`` function: nested ``if``/``elif``
branch dispatch on sampler-returned indices, a leaf bucket increment
per µop, no per-edge dict lookups. Leaf buckets flush with one
``counts @ leaf_deltas`` multiply, exactly like the vector engine's
macro-edge buckets.

Generated programs are memoized in-process by the µDD fingerprint
(:func:`repro.cone.cache.mudd_fingerprint` over the µDD plus counter
ordering) as compiled code objects. They are never written to or read
from disk: regenerating one costs well under a second even for the
largest models, and nothing read from a cache directory may run code.

The tree form only runs when it provably cannot trip the ``max_steps``
valve (``max_path_len <= max_steps``) and the tree stays under the
expansion caps; anything else — device oracles with live hooks,
pathological fan-out, tight step bounds — falls back to the inherited
vector walk, which is bit-for-bit the interpreter.
"""

import numpy as np

from repro.errors import SimulationError
from repro.sim.engines import VectorEngine

#: Expansion caps: beyond these the unrolled tree stops paying for
#: itself (and deep nesting strains the Python parser), so the engine
#: keeps the vector walk instead.
MAX_TREE_NODES = 20000
MAX_TREE_DEPTH = 60

_DISPATCH_ERROR = (
    "oracle resolved %s=%r but %r offers branches %s"
)


# -- tree building and source emission --------------------------------------

class _TreeProgram:
    """One generated simulator: source text, its compiled code object,
    and the bind-time leaf tables."""

    __slots__ = ("source", "code", "leaf_deltas", "errors")

    def __init__(self, source, leaf_deltas, errors):
        self.source = source
        self.code = compile(source, "<repro-codegen>", "exec")
        self.leaf_deltas = np.asarray(leaf_deltas, dtype=np.int64)
        self.errors = list(errors)

    def bind(self, samplers, counts):
        """Exec the program and close it over this run's samplers and
        leaf buckets; returns the ``run_trace(uops) -> n`` callable."""
        namespace = {"SimulationError": SimulationError}
        exec(self.code, namespace)
        return namespace["bind"](samplers, counts, self.errors)


def _build_tree(skeleton):
    """Expand the skeleton into the decision tree, or ``None`` when the
    expansion caps are exceeded.

    Returns ``(root, leaf_deltas, errors)``. Tree nodes are
    ``("leaf", leaf_id)``, ``("raise", error_id)``, or
    ``("dec", decision_node, [children in edge order])``. Repeated
    properties are resolved statically: an already-assigned decision
    contributes no child fan-out (and no sampler call), exactly the
    interpreter's traversal rule.
    """
    n_counters = skeleton.delta_matrix.shape[1]
    leaf_deltas = []
    errors = []
    budget = [MAX_TREE_NODES]

    def expand(edge, assignments, deltas, depth):
        if depth > MAX_TREE_DEPTH:
            return None
        budget[0] -= 1
        if budget[0] < 0:
            return None
        deltas = [
            deltas[i] + edge.deltas[i] for i in range(n_counters)
        ]
        terminal = edge.terminal
        while terminal >= 0:
            prop = skeleton.props[terminal]
            assigned = assignments.get(prop)
            if assigned is None:
                break
            # Statically follow the earlier assignment; a label the
            # decision does not offer raises at runtime, like the
            # interpreter's dispatch error.
            nxt = skeleton.branch_edges[terminal].get(assigned)
            if nxt is None:
                errors.append(
                    _DISPATCH_ERROR
                    % (prop, assigned, skeleton.compiled.name,
                       ", ".join(skeleton.values[terminal]))
                )
                return ("raise", len(errors) - 1)
            budget[0] -= 1
            if budget[0] < 0:
                return None
            deltas = [
                deltas[i] + nxt.deltas[i] for i in range(n_counters)
            ]
            terminal = nxt.terminal
        if terminal < 0:
            leaf_deltas.append(deltas)
            return ("leaf", len(leaf_deltas) - 1)
        children = []
        for label in skeleton.values[terminal]:
            branch_assignments = dict(assignments)
            branch_assignments[prop] = label
            child = expand(
                skeleton.branch_edges[terminal][label],
                branch_assignments, deltas, depth + 1,
            )
            if child is None:
                return None
            children.append(child)
        return ("dec", terminal, children)

    root = expand(skeleton.start_edge, {}, [0] * n_counters, 0)
    if root is None:
        return None
    return root, leaf_deltas, errors


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
    lines.append("        n = 0")
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
    lines.append("            n += 1")
    lines.append("        return n")
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


#: In-process memo of compiled programs, keyed by µDD fingerprint.
#: ``False`` marks a µDD whose tree exceeded the expansion caps.
_PROGRAM_MEMO = {}
_PROGRAM_MEMO_CAP = 256


def _program_for(skeleton, fingerprint):
    """The generated program for a skeleton, memoized by fingerprint;
    ``None`` when the tree form is unavailable for this µDD."""
    cached = _PROGRAM_MEMO.get(fingerprint)
    if cached is not None:
        return cached or None
    built = _build_tree(skeleton)
    if built is None:
        _memoize(fingerprint, False)
        return None
    root, leaf_deltas, errors = built
    source = _emit_source(root, _tree_decisions(root))
    program = _TreeProgram(source, leaf_deltas, errors)
    _memoize(fingerprint, program)
    return program


def _memoize(fingerprint, program):
    if len(_PROGRAM_MEMO) >= _PROGRAM_MEMO_CAP:
        _PROGRAM_MEMO.pop(next(iter(_PROGRAM_MEMO)))
    _PROGRAM_MEMO[fingerprint] = program


class CodegenEngine(VectorEngine):
    """The codegen backend.

    Samplable oracles run the generated tree-form ``run_trace`` when it
    provably cannot trip ``max_steps``; everything else inherits the
    vector walk. Leaf buckets are deferred and flushed alongside the
    macro-edge buckets.
    """

    name = "codegen"

    def __init__(self, compiled):
        VectorEngine.__init__(self, compiled)
        self._program = None
        self._program_resolved = False
        self._counts = None
        self._counts_dirty = False

    def _resolve_program(self):
        if not self._program_resolved:
            self._program_resolved = True
            self._program = _program_for(
                self.skeleton, self.skeleton.compiled.fingerprint
            )
            if self._program is not None:
                self._counts = [0] * len(self._program.leaf_deltas)
        return self._program

    def _run_samplable(self, oracle, uops, max_steps):
        if self.skeleton.max_path_len <= max_steps:
            program = self._resolve_program()
            if program is not None:
                runner = program.bind(self._samplers(oracle), self._counts)
                n = runner(uops)
                if n:
                    self._counts_dirty = True
                return n
        return VectorEngine._run_samplable(self, oracle, uops, max_steps)

    def flush(self, executor):
        VectorEngine.flush(self, executor)
        if not self._counts_dirty:
            return
        pending = (
            np.asarray(self._counts, dtype=np.int64)
            @ self._program.leaf_deltas
        )
        totals = executor.totals
        for index, value in enumerate(pending):
            if value:
                totals[index] += int(value)
        self._counts = [0] * len(self._program.leaf_deltas)
        self._counts_dirty = False

    def reset(self):
        VectorEngine.reset(self)
        if self._counts is not None:
            self._counts = [0] * len(self._program.leaf_deltas)
        self._counts_dirty = False


def auto_engine(compiled):
    """The ``backend="auto"`` heuristic: codegen (it embeds the vector
    walk as its own fallback, so it never loses more than compile cost),
    dropping to plain vector only if program generation itself fails."""
    try:
        return CodegenEngine(compiled)
    except Exception:
        return VectorEngine(compiled)


__all__ = ["CodegenEngine", "auto_engine"]
