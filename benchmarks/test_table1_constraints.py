"""Table 1: three representative Haswell MMU model constraints.

The table's constraints are consequences of the *conservative* model's
assumptions; each is overturned by one of the discovered features:

1. ``load.ret_stlb_miss <= load.walk_done``  (2 HECs) — broken by walk
   merging;
2. the walk_ref upper bound from page sizes and PDE-cache interactions
   (12 HECs) — broken by prefetch-injected walker loads;
3. ``causes_walk + walk_done_1g <= walk_ref`` (8 HECs) — broken by the
   PML4E cache and walk bypassing.

The benchmark verifies each constraint is implied by the conservative
cone (every µpath signature satisfies it) and *refuted* by the final
model m4 (some signature violates it) — i.e. these are exactly the
constraints whose violations CounterPoint used to discover the features.
"""

from fractions import Fraction

import pytest

from repro.geometry.halfspace import ConeConstraint, INEQUALITY
from repro.models import M_SERIES
from repro.models.haswell import ALL_COUNTERS, build_haswell_mudd
from repro.mudd import signature_matrix


def _normal(coefficients):
    """Build a constraint normal over ALL_COUNTERS from a name->coeff map
    (``normal . x >= 0``)."""
    normal = [Fraction(0)] * len(ALL_COUNTERS)
    for name, coefficient in coefficients.items():
        normal[ALL_COUNTERS.index(name)] = Fraction(coefficient)
    return ConeConstraint(normal, INEQUALITY)


WALK_REFS = {"walk_ref.l1": 1, "walk_ref.l2": 1, "walk_ref.l3": 1, "walk_ref.mem": 1}


def table1_constraints():
    # (1) load.ret_stlb_miss <= load.walk_done
    constraint1 = _normal({"load.walk_done": 1, "load.ret_stlb_miss": -1})

    # (2) walk_ref <= load.causes_walk + store.causes_walk
    #              + 3*(load.pde$_miss + store.pde$_miss)
    #              - load.walk_done_2m - store.walk_done_2m
    #              - 2*load.walk_done_1g - 2*store.walk_done_1g
    coefficients2 = {name: -1 for name in WALK_REFS}
    coefficients2.update(
        {
            "load.causes_walk": 1,
            "store.causes_walk": 1,
            "load.pde$_miss": 3,
            "store.pde$_miss": 3,
            "load.walk_done_2m": -1,
            "store.walk_done_2m": -1,
            "load.walk_done_1g": -2,
            "store.walk_done_1g": -2,
        }
    )
    constraint2 = _normal(coefficients2)

    # (3) load.causes_walk + store.causes_walk + load.walk_done_1g
    #     + store.walk_done_1g <= walk_ref
    coefficients3 = dict(WALK_REFS)
    coefficients3.update(
        {
            "load.causes_walk": -1,
            "store.causes_walk": -1,
            "load.walk_done_1g": -1,
            "store.walk_done_1g": -1,
        }
    )
    constraint3 = _normal(coefficients3)
    return constraint1, constraint2, constraint3


def _implied(constraint, signatures):
    return all(constraint.is_satisfied_by(list(signature)) for signature in signatures)


@pytest.fixture(scope="module")
def signature_sets():
    sets = {}
    for name in ("m0", "m4"):
        mudd = build_haswell_mudd(M_SERIES[name], name=name)
        _, signatures = signature_matrix(mudd, counters=ALL_COUNTERS)
        sets[name] = signatures.tolist()
    return sets


def test_table1_constraints(benchmark, signature_sets):
    constraint1, constraint2, constraint3 = benchmark(table1_constraints)
    m0 = signature_sets["m0"]
    m4 = signature_sets["m4"]

    rows = [
        ("(1)", constraint1, 2),
        ("(2)", constraint2, 12),
        ("(3)", constraint3, 8),
    ]
    print("\nTable 1 — representative model constraints (conservative model):")
    print("%-4s %-7s %-12s %-12s" % ("id", "#HECs", "implied(m0)", "implied(m4)"))
    for label, constraint, n_hecs in rows:
        involved = sum(1 for coefficient in constraint.normal if coefficient != 0)
        assert involved == n_hecs, "constraint %s involves %d HECs" % (label, involved)
        print(
            "%-4s %-7d %-12s %-12s"
            % (label, involved, _implied(constraint, m0), _implied(constraint, m4))
        )

    # All three hold in the conservative world...
    for label, constraint, _ in rows:
        assert _implied(constraint, m0), "constraint %s must be implied by m0" % label
    # ...and each is overturned by the final model's features.
    for label, constraint, _ in rows:
        assert not _implied(constraint, m4), (
            "constraint %s must be refutable under m4's features" % label
        )
