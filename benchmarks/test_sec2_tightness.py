"""Section 2's tightness study: correct-but-loose and subtly-wrong
constraints both fail where the tight Constraint 2 succeeds.

The paper walks through three candidate bounds on the page walker's
memory references:

* the **loose** bound ``walk_ref <= 4*(load.causes_walk +
  store.causes_walk)`` — correct, but misses violations Constraint 2
  catches (it ignores page sizes and PDE-cache hits),
* the **too-strong** bound ``walk_ref <= 4*walk_done_4k + 3*walk_done_2m
  + 2*walk_done_1g`` — rejects valid executions where walks inject
  references without terminating (aborted walks),
* the **tight** Constraint 2 — correct and maximally sensitive.

All three are evaluated against µpath signatures and live observations.
"""

from fractions import Fraction

from repro.geometry.halfspace import ConeConstraint, INEQUALITY
from repro.models import A_SERIES, M_SERIES, build_abort_mudd
from repro.models.haswell import ALL_COUNTERS, build_haswell_mudd
from repro.mudd import signature_matrix

WALK_REFS = ("walk_ref.l1", "walk_ref.l2", "walk_ref.l3", "walk_ref.mem")


def _constraint(coefficients):
    normal = [Fraction(0)] * len(ALL_COUNTERS)
    for name, coefficient in coefficients.items():
        normal[ALL_COUNTERS.index(name)] = Fraction(coefficient)
    return ConeConstraint(normal, INEQUALITY)


def loose_bound():
    coefficients = {name: -1 for name in WALK_REFS}
    coefficients.update({"load.causes_walk": 4, "store.causes_walk": 4})
    return _constraint(coefficients)


def too_strong_bound():
    coefficients = {name: -1 for name in WALK_REFS}
    for t in ("load", "store"):
        coefficients["%s.walk_done_4k" % t] = 4
        coefficients["%s.walk_done_2m" % t] = 3
        coefficients["%s.walk_done_1g" % t] = 2
    return _constraint(coefficients)


def tight_bound():
    coefficients = {name: -1 for name in WALK_REFS}
    coefficients.update(
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
    return _constraint(coefficients)


def _analysis(dataset):
    loose, strong, tight = loose_bound(), too_strong_bound(), tight_bound()

    # Violations detected across the (prefetcher-bearing) observations.
    detections = {"loose": 0, "tight": 0}
    for observation in dataset:
        vector = [Fraction(observation.point()[name]) for name in ALL_COUNTERS]
        if not loose.is_satisfied_by(vector):
            detections["loose"] += 1
        if not tight.is_satisfied_by(vector):
            detections["tight"] += 1

    # Soundness against the conservative world (m0 µpaths satisfy both
    # correct bounds) and the abort world (a0 µpaths break the
    # too-strong bound: references without termination).
    m0_signatures = signature_matrix(
        build_haswell_mudd(M_SERIES["m0"]), counters=ALL_COUNTERS
    )[1].tolist()
    a0_signatures = signature_matrix(
        build_abort_mudd(A_SERIES["a0"]), counters=ALL_COUNTERS
    )[1].tolist()
    m0_loose = all(loose.is_satisfied_by(list(s)) for s in m0_signatures)
    m0_strong = all(strong.is_satisfied_by(list(s)) for s in m0_signatures)
    m0_tight = all(tight.is_satisfied_by(list(s)) for s in m0_signatures)
    a0_strong = all(strong.is_satisfied_by(list(s)) for s in a0_signatures)
    return detections, m0_loose, m0_strong, m0_tight, a0_strong


def test_sec2_constraint_tightness(benchmark, dataset):
    detections, m0_loose, m0_strong, m0_tight, a0_strong = benchmark.pedantic(
        _analysis, args=(dataset,), rounds=1, iterations=1
    )

    print("\nSection 2 — bound tightness on %d observations:" % len(dataset))
    print("  loose bound violations detected: %d" % detections["loose"])
    print("  tight bound violations detected: %d" % detections["tight"])
    print("  too-strong bound sound for abort µpaths: %s" % a0_strong)

    # Both correct bounds are implied by the conservative model...
    assert m0_loose and m0_tight
    # ...and the too-strong bound also holds there (its flaw is subtler):
    assert m0_strong
    # but it wrongly rejects abort-world µpaths (refs without walk_done).
    assert not a0_strong
    # Tightness pays: the tight bound catches strictly more violations.
    assert detections["tight"] > detections["loose"]
