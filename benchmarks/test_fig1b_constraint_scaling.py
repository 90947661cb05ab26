"""Figure 1b: model constraints grow superlinearly with HEC count.

Regenerates the figure's x-axis — counter groups added cumulatively
(Ret | 4, then STLB, Walk, Refs) — and counts the model constraints the
conservative Haswell model implies over each counter subset.
"""

from repro.cone.constraints import deduce_constraints
from repro.counters import cumulative_group_counters
from repro.models import M_SERIES
from repro.models.haswell import build_haswell_mudd
from repro.mudd import signature_matrix


def _constraint_counts():
    mudd = build_haswell_mudd(M_SERIES["m0"], name="m0")
    rows = []
    for label, counters in cumulative_group_counters():
        _, signatures = signature_matrix(mudd, counters=counters)
        constraints = deduce_constraints(signatures.tolist(), counters)
        rows.append((label, len(counters), len(constraints)))
    return rows


def test_fig1b_constraint_scaling(benchmark):
    rows = benchmark.pedantic(_constraint_counts, rounds=1, iterations=1)

    print("\nFigure 1b — constraints vs cumulative counter groups (model m0):")
    print("%-12s %-10s %s" % ("group", "#counters", "#constraints"))
    for label, n_counters, n_constraints in rows:
        print("%-12s %-10d %d" % (label, n_counters, n_constraints))

    counts = [n for _, _, n in rows]
    counter_counts = [c for _, c, _ in rows]
    # Constraints grow with counters...
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]
    # ... and superlinearly over the early steps: the per-counter yield
    # of constraints increases as groups are added (the paper's point
    # that manual derivation becomes intractable).
    early_rate = counts[0] / counter_counts[0]
    mid_rate = (counts[2] - counts[0]) / (counter_counts[2] - counter_counts[0])
    assert mid_rate > early_rate
