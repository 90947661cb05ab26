"""Memory-trace files: record and replay µop address streams.

A trace file is a plain text format, one access per line::

    L 0x7f3a00001040
    S 0x7f3a00002000
    l 0x7f3a00003000      # lower case = speculative (does not retire)

:class:`TraceWorkload` replays a trace through the simulator like any
other workload; :func:`write_trace` records one. This lets users capture
address streams from real instrumentation (Pin, DynamoRIO, gem5) and
feed them to the MMU substrate.
"""

from repro.errors import SimulationError
from repro.workloads.base import Workload

_KINDS = {"L": ("load", True), "S": ("store", True), "l": ("load", False), "s": ("store", False)}
_LETTER = {("load", True): "L", ("store", True): "S", ("load", False): "l", ("store", False): "s"}


def parse_trace_line(line, line_number=0):
    """Parse one trace line into ``(kind, vaddr, retires)``."""
    stripped = line.split("#", 1)[0].strip()
    if not stripped:
        return None
    fields = stripped.split()
    if len(fields) != 2 or fields[0] not in _KINDS:
        raise SimulationError("bad trace line %d: %r" % (line_number, line))
    kind, retires = _KINDS[fields[0]]
    try:
        vaddr = int(fields[1], 0)
    except ValueError:
        vaddr = None
    if vaddr is None or vaddr < 0:
        raise SimulationError(
            "bad address on trace line %d: %r" % (line_number, fields[1])
        )
    return kind, vaddr, retires


class TraceWorkload(Workload):
    """Replay a recorded address trace.

    ``source`` is a path or an iterable of lines. The footprint is
    inferred from the maximum address (used only for bookkeeping).
    """

    name = "trace"

    def __init__(self, source):
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        else:
            lines = list(source)
        self._accesses = []
        for line_number, line in enumerate(lines, 1):
            parsed = parse_trace_line(line, line_number)
            if parsed is not None:
                self._accesses.append(parsed)
        if not self._accesses:
            raise SimulationError("trace contains no accesses")
        footprint = max(vaddr for _, vaddr, _ in self._accesses) + 64
        super().__init__(footprint)

    def __len__(self):
        return len(self._accesses)

    def addresses(self, n_ops):
        for index in range(min(n_ops, len(self._accesses))):
            yield self._accesses[index]

    def describe(self):
        info = super().describe()
        info.update(length=len(self._accesses))
        return info


def format_trace(ops):
    """Render an iterable of :class:`repro.mmu.MemoryOp` as trace text."""
    lines = []
    for op in ops:
        lines.append("%s 0x%x" % (_LETTER[(op.kind, op.retires)], op.vaddr))
    return "\n".join(lines) + "\n"


def write_trace(workload, path, n_ops):
    """Record ``n_ops`` of a workload to a trace file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_trace(workload.ops(n_ops)))
