"""Differential suite: interior removal with the sum/midpoint screen
against the same removal with a screen that flags nothing.

:meth:`repro.geometry.Cone.irredundant_generators` first drops every
generator ``g`` with ``c*g == h + k`` for two other generators and ``c``
in ``{1, 2}`` (``repro.geometry.cone._sums_and_midpoints``), then runs
its membership LPs on the survivors only. The screen must change how
many LPs run, never the answer:

* ``irredundant_generators`` keeps the same list, in the same order, on
  all three routes: the shared HiGHS model, one ``linprog`` call per
  candidate (no HiGHS bindings) and certified exact membership;
* ``deduce_constraints`` renders the same constraints, in the same
  order, for m0–m11, the six bundled models, random non-negative
  generator sets with planted sums and midpoints, and (marked slow) all
  18 Table 5 variants;
* every flagged generator is certified redundant by
  ``Cone.is_generator_redundant``;
* with every hash weight zero, so that every pair collides, exactly the
  true sums and midpoints are flagged;
* on a cone that is not pointed, or with entries too large for int64
  sums, the screen stays off and the kept generators are the unscreened
  loop's.

It also checks the facet verification's one matrix product against a
per-facet ``is_satisfied_by`` loop, on small and huge entries, and the
``cone.interior_removal`` span's counts on m7.

``SIM_EQUIV_SEED`` (CI rotates it daily) offsets the seed range, as in
``test_certified_lp.py``.
"""

import os
import random

import numpy as np
import pytest

import repro.geometry.cone as cone_module
from repro.cone import ModelCone
from repro.cone.constraints import _uncovered, deduce_constraints
from repro.geometry import Cone
from repro.geometry.halfspace import EQUALITY, INEQUALITY, ConeConstraint
from repro.lp import highs_fast
from repro.models import M_SERIES, T_SERIES, build_model_cone
from repro.models.bundled import bundled_model_names
from repro.obs.trace import Tracer, activate
from repro.sim import as_mudd

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))

N_SETS = 30  # random planted generator sets per sweep

ROUTES = ["highs", "linprog", "exact"]

screen = cone_module._sums_and_midpoints


# -- references and inputs ----------------------------------------------------

def unscreened(patch):
    """Make the screen flag nothing: the removal is its LP loop alone."""
    patch.setattr(cone_module, "_sums_and_midpoints", lambda generators: [])


def on_route(patch, route):
    """Send membership LPs down ``route``; returns the backend name."""
    if route == "linprog":
        patch.setattr(highs_fast, "_HIGHS_OK", False)
    return "exact" if route == "exact" else "scipy"


def kept_both_ways(monkeypatch, generators, route, ambient_dim=None):
    """``irredundant_generators`` on ``route``, screened and unscreened."""
    with monkeypatch.context() as patch:
        backend = on_route(patch, route)
        screened = Cone(generators, ambient_dim).irredundant_generators(backend)
        unscreened(patch)
        reference = Cone(generators, ambient_dim).irredundant_generators(backend)
    return screened, reference


def renders_both_ways(monkeypatch, signatures, counters):
    """``deduce_constraints`` renders, screened and unscreened."""
    screened = deduce_constraints(signatures, counters).render()
    with monkeypatch.context() as patch:
        unscreened(patch)
        reference = deduce_constraints(signatures, counters).render()
    return screened, reference


def true_sums_and_midpoints(generators):
    """Every ``g`` with ``c*g == h + k``, ``h != k``, by trying every
    pair's sum and half-sum against a dictionary of the rows."""
    index = {tuple(g): i for i, g in enumerate(generators)}
    found = set()
    for h in range(len(generators)):
        for k in range(h + 1, len(generators)):
            total = [a + b for a, b in zip(generators[h], generators[k])]
            found.add(index.get(tuple(total)))
            if all(v % 2 == 0 for v in total):
                found.add(index.get(tuple(v // 2 for v in total)))
    found.discard(None)
    return sorted(found)


def planted_generators(rng):
    """Non-negative generators where many are sums or midpoints of
    others (some chained, some gcd-reduced by the cone), shuffled."""
    n_cols = rng.randint(3, 6)
    rows = [
        tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n_cols))
        for _ in range(rng.randint(6, 14))
    ]
    for _ in range(rng.randint(12, 30)):
        h, k = rng.sample(rows, 2)
        if rng.random() < 0.5:
            # h + d, the midpoint of h and a new row h + 2d (d >= 0).
            middle = tuple(a + rng.randint(0, 2) for a in h)
            rows.append(tuple(2 * m - a for m, a in zip(middle, h)))
            rows.append(middle)
        else:
            rows.append(tuple(a + b for a, b in zip(h, k)))
    rng.shuffle(rows)
    return rows


def random_sets():
    for case in range(N_SETS):
        seed = BASE_SEED + 50_000 + case
        yield seed, planted_generators(random.Random(seed))


def model_signatures(name):
    """Signatures and counters of an m-series or bundled model."""
    if name in M_SERIES:
        cone = build_model_cone(M_SERIES[name])
    else:
        cone = ModelCone.from_mudd(as_mudd(name))
    return cone.signatures, cone.counters


# -- irredundant_generators ---------------------------------------------------

@pytest.mark.parametrize("route", ROUTES)
def test_random_sets_keep_the_same_generators(monkeypatch, route):
    screened_total = 0
    for seed, generators in random_sets():
        context = "seed=%d (SIM_EQUIV_SEED=%d) route=%s" % (seed, BASE_SEED, route)
        screened, reference = kept_both_ways(monkeypatch, generators, route)
        assert screened == reference, context
        screened_total += len(screen(Cone(generators).generators))
    assert screened_total > 0  # the planted sums reach the screen


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", ["m0", "m7"])
def test_models_keep_the_same_generators(monkeypatch, route, name):
    signatures, counters = model_signatures(name)
    screened, reference = kept_both_ways(
        monkeypatch, signatures, route, ambient_dim=len(counters)
    )
    assert screened == reference


def test_flagged_generators_are_certified_redundant():
    for seed, generators in random_sets():
        cone = Cone(generators)
        for index in screen(cone.generators):
            assert cone.is_generator_redundant(index), "seed=%d index=%d" % (seed, index)


def test_screen_flags_exactly_the_true_sums_and_midpoints(monkeypatch):
    sets = [Cone(generators).generators for _, generators in random_sets()]
    expected = [true_sums_and_midpoints(generators) for generators in sets]
    assert [screen(generators) for generators in sets] == expected
    # Zero weights make every pair collide with every target: only the
    # exact check stands between the hash and the answer.
    monkeypatch.setattr(
        cone_module, "_screen_weights", lambda n: np.zeros(n, dtype=np.uint64)
    )
    assert [screen(generators) for generators in sets] == expected


def test_m7_screen_matches_brute_force_in_any_block_size(monkeypatch):
    """Blocks of one pair row each, or of every pair at once, find
    exactly the true sums and midpoints."""
    signatures, counters = model_signatures("m7")
    generators = Cone(signatures, len(counters)).generators
    expected = true_sums_and_midpoints(generators)
    for pairs in (1, len(generators) ** 2):
        monkeypatch.setattr(cone_module, "_SCREEN_PAIRS", pairs)
        assert screen(generators) == expected


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("generators", [
    # Not pointed: without the non-negativity guard the screen drops
    # both (1, 1) = (1, 0) + (0, 1) and (1, 0) = (1, 1) + (0, -1).
    [(1, 1), (1, 0), (0, 1), (0, -1)],
    # Sums whose entries are too large for int64 arithmetic.
    [(2**62, 1), (1, 0), (2**62 + 1, 1), (0, 1)],
    [(2**70, 1), (1, 0), (2**70 + 1, 1), (0, 1)],
], ids=["not-pointed", "past-int64-half", "past-int64"])
def test_screen_stays_off_where_it_cannot_hold(monkeypatch, route, generators):
    screened, reference = kept_both_ways(monkeypatch, generators, route)
    assert screened == reference
    assert screen(Cone(generators).generators) == []


# -- deduce_constraints -------------------------------------------------------

MODELS = sorted(M_SERIES, key=lambda name: int(name[1:])) + bundled_model_names()


@pytest.mark.parametrize("name", MODELS)
def test_models_deduce_the_same_constraints(monkeypatch, name):
    screened, reference = renders_both_ways(monkeypatch, *model_signatures(name))
    assert screened == reference


def test_random_sets_deduce_the_same_constraints(monkeypatch):
    for seed, generators in random_sets():
        counters = ["x%d" % i for i in range(len(generators[0]))]
        screened, reference = renders_both_ways(monkeypatch, generators, counters)
        assert screened == reference, "seed=%d (SIM_EQUIV_SEED=%d)" % (seed, BASE_SEED)


@pytest.mark.slow
@pytest.mark.parametrize("trigger", sorted(T_SERIES, key=lambda name: int(name[1:])))
def test_table5_variants_deduce_the_same_constraints(monkeypatch, trigger):
    cone = build_model_cone(M_SERIES["m4"], trigger=T_SERIES[trigger])
    screened, reference = renders_both_ways(monkeypatch, cone.signatures, cone.counters)
    assert screened == reference


# -- facet verification -------------------------------------------------------

def uncovered_by_loop(facets, generators):
    """Reference: every generator against every facet, one exact
    ``is_satisfied_by`` call at a time."""
    return [
        index
        for index, generator in enumerate(generators)
        if not all(facet.is_satisfied_by(generator) for facet in facets)
    ]


@pytest.mark.parametrize("scale", [1, 2**40, 2**70])
def test_verification_product_matches_the_loop(scale):
    """Offenders are the loop's, in its order, in int64 and past it."""
    for case in range(N_SETS):
        rng = random.Random(BASE_SEED + 60_000 + case)
        n_cols = rng.randint(2, 6)
        facets = [
            ConeConstraint(
                [rng.randint(-3, 3) * scale or 1 for _ in range(n_cols)],
                rng.choice((EQUALITY, INEQUALITY, INEQUALITY)),
            )
            for _ in range(rng.randint(1, 8))
        ]
        generators = [
            [rng.randint(-2, 4) * rng.choice((1, scale)) for _ in range(n_cols)]
            for _ in range(rng.randint(1, 20))
        ]
        assert _uncovered(facets, generators) == uncovered_by_loop(facets, generators)
    assert _uncovered([], [[1, 2]]) == []


# -- tracing ------------------------------------------------------------------

def test_interior_removal_span_counts_the_screen_on_m7():
    signatures, counters = model_signatures("m7")
    tracer = Tracer()
    with activate(tracer):
        deduce_constraints(signatures, counters)
    (span,) = [r for r in tracer.records if r.get("name") == "cone.interior_removal"]
    attrs = span["attrs"]
    assert attrs["generators"] == len(Cone(signatures, len(counters)).generators)
    assert attrs["screened"] > 0
    assert attrs["screened"] + attrs["lp_tests"] <= attrs["generators"]
