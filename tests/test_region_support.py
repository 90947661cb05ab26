"""Differential suite: region support LPs on one HiGHS model against ``linprog``.

A counter confidence region definitely violates a model constraint when
the maximum of the constraint's normal over the region's box is below
zero (Section 4). On the ``scipy`` backend, :func:`identify_violations`
answers every support LP of one call on one
:class:`~repro.lp.highs_fast.SupportModel`; the reference is
:func:`repro.cone.violations._region_support`, which builds one
:class:`~repro.lp.LinearProgram` per LP and solves it with ``linprog``.
The model must give the reference's answer bit for bit: the same float,
``None`` for an empty or unbounded LP, and a failure (``ERROR``, which
re-solves through the reference) exactly where the reference raises
:class:`~repro.errors.LPError`. The sweeps draw seeded random regions of
dimension 2-26:

* correlated and independent :class:`ConfidenceRegion` boxes built from
  random low-rank samples;
* :class:`PointRegion` boxes, every row an equality;
* zero-variance regions, some or all counters constant;
* negative-mean regions, whose box misses ``v >= 0`` (empty);

with random integer normals, maximised and minimised. With the HiGHS
bindings disabled, :func:`identify_violations` must return the same list
through the reference, every LP counted as a fallback.

``SIM_EQUIV_SEED`` (CI rotates it daily) offsets the seed range, as in
``test_certified_lp.py``, so the sweep covers new regions over time while
any failure stays reproducible from its seed.
"""

import json
import os

import numpy as np
import pytest

from repro.cone import ModelCone, identify_violations
from repro.cone.violations import _region_support
from repro.errors import LPError
from repro.lp import highs_fast
from repro.obs.trace import Tracer, activate
from repro.stats import ConfidenceRegion, PointRegion

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))

N_REGIONS = 40  # random regions per region kind

N_CONES = 40  # random cones for the identify_violations sweep

KINDS = ("correlated", "independent", "point", "zero_variance", "negative_mean")

needs_highs = pytest.mark.skipif(
    not highs_fast.highs_available(), reason="scipy's HiGHS bindings are unavailable"
)


def random_region(rng, kind, dim):
    """One seeded region of ``kind`` over ``dim`` counters."""
    if kind == "point":
        values = rng.uniform(0.0, 100.0, dim)
        values[rng.random(dim) < 0.3] = 0.0
        return PointRegion(values)
    n_samples = 40
    offset = rng.uniform(0.0, 100.0, dim)
    if kind == "negative_mean":
        # Far beyond any box half-length these samples can produce.
        offset[rng.integers(0, dim)] = -rng.uniform(1e4, 2e4)
    rank = int(rng.integers(1, dim + 1))
    scale = rng.uniform(0.1, 5.0)
    samples = offset + rng.normal(size=(n_samples, rank)) @ rng.normal(
        scale=scale, size=(rank, dim)
    )
    samples += rng.normal(scale=0.01, size=samples.shape)
    if kind == "zero_variance":
        constant = rng.random(dim) < rng.uniform(0.3, 1.0)
        samples[:, constant] = offset[constant]
    correlated = kind != "independent" and (kind == "correlated" or rng.random() < 0.5)
    return ConfidenceRegion.from_samples(samples, correlated=correlated)


def random_normal(rng, dim):
    normal = [0] * dim
    while not any(normal):
        normal = [int(value) for value in rng.integers(-4, 5, dim)]
    return normal


def reference(region, normal, sense):
    """The reference answer: a float, ``None``, or ``"LPError"``."""
    try:
        return _region_support(region, normal, sense, backend="scipy")
    except LPError:
        return "LPError"


def model_answer(model, normal, sense):
    status, value = model.solve(normal, sense == "max")
    return "LPError" if status == highs_fast.ERROR else value


@needs_highs
@pytest.mark.parametrize("kind", KINDS)
def test_support_model_matches_linprog_bit_for_bit(kind):
    answers = {"float": 0, "None": 0}
    for case in range(N_REGIONS):
        seed = BASE_SEED + case
        rng = np.random.default_rng([seed, KINDS.index(kind)])
        dim = int(rng.integers(2, 27))
        region = random_region(rng, kind, dim)
        model = highs_fast.make_support_model(list(region.box_constraints()), dim)
        context = "kind=%s seed=%d (SIM_EQUIV_SEED=%d)" % (kind, seed, BASE_SEED)
        assert model is not None, context
        for _ in range(3):
            normal = random_normal(rng, dim)
            for sense in ("max", "min"):
                expected = reference(region, normal, sense)
                # repr() is exact for floats and tells -0.0 from 0.0.
                assert repr(model_answer(model, normal, sense)) == repr(expected), (
                    context, normal, sense,
                )
                answers["None" if expected is None else "float"] += 1
    if kind == "negative_mean":
        assert answers["float"] == 0, answers
    else:
        assert answers["float"] > 0, answers


def random_cone(rng):
    dim = int(rng.integers(2, 7))
    signatures = [
        tuple(int(value) for value in rng.integers(0, 4, dim))
        for _ in range(int(rng.integers(2, 8)))
    ]
    signatures = [signature for signature in signatures if any(signature)] or [(1,) * dim]
    return ModelCone(["c%d" % index for index in range(dim)], signatures)


def records(violations):
    return [json.dumps(violation.to_dict(), sort_keys=True) for violation in violations]


def violation_spans(tracer):
    return [record for record in tracer.records if record.get("name") == "cone.violations"]


def test_identify_violations_without_bindings_is_unchanged(monkeypatch):
    cases = []
    for case in range(N_CONES):
        seed = BASE_SEED + case
        rng = np.random.default_rng([seed, len(KINDS)])
        cone = random_cone(rng)
        kind = KINDS[case % len(KINDS)]
        region = random_region(rng, kind, len(cone.counters))
        cases.append((cone, region, "seed=%d kind=%s (SIM_EQUIV_SEED=%d)" % (
            seed, kind, BASE_SEED)))
    with_model = [records(identify_violations(cone, region, backend="scipy"))
                  for cone, region, _ in cases]
    monkeypatch.setattr(highs_fast, "_HIGHS_OK", False)
    tracer = Tracer()
    with activate(tracer):
        without = [records(identify_violations(cone, region, backend="scipy"))
                   for cone, region, _ in cases]
    for (_, _, context), expected, got in zip(cases, with_model, without):
        assert got == expected, context
    spans = violation_spans(tracer)
    lps = sum(span["attrs"]["support_lps"] for span in spans)
    assert lps > 0
    assert sum(span["attrs"]["fallbacks"] for span in spans) == lps
    assert tracer.metrics.counter("lp.region.fallbacks").value == lps


# -- spans, fallbacks and the model's lifetime -----------------------------------

FIG6A = ModelCone(["load.causes_walk", "load.pde$_miss"], [(1, 0), (1, 1)])
VIOLATED = ConfidenceRegion(np.array([4.0, 10.0]), np.eye(2) * 0.01)
SATISFIED = ConfidenceRegion(np.array([10.0, 4.0]), np.eye(2) * 0.01)


@needs_highs
def test_spans_count_support_lps():
    tracer = Tracer()
    with activate(tracer):
        violations = identify_violations(FIG6A, VIOLATED, backend="scipy")
        identify_violations(FIG6A, {"load.causes_walk": 4, "load.pde$_miss": 10})
    assert violations and violations[0].definite
    region, point = violation_spans(tracer)
    solves = [
        record for record in tracer.records
        if record.get("name") == "lp.solve" and record["depth"] > region["depth"]
    ]
    assert region["attrs"]["mode"] == "region"
    assert region["attrs"]["support_lps"] == len(solves) == len(violations)
    assert region["attrs"]["fallbacks"] == 0
    assert all(record["attrs"]["backend"] == "highs_fast" for record in solves)
    assert point["attrs"]["mode"] == "point"
    assert point["attrs"]["support_lps"] == point["attrs"]["fallbacks"] == 0


class StubModel:
    """A support model whose every answer is one ``linprog`` would reject."""

    def solve(self, normal, maximize):
        return highs_fast.ERROR, None


@pytest.mark.parametrize("stub, reason", [(StubModel(), "rejected"), (None, "no model")])
def test_failed_model_answers_fall_back(monkeypatch, stub, reason):
    expected = records(identify_violations(FIG6A, VIOLATED, backend="scipy"))
    monkeypatch.setattr(highs_fast, "make_support_model", lambda boxes, n: stub)
    tracer = Tracer()
    with activate(tracer):
        assert records(identify_violations(FIG6A, VIOLATED, backend="scipy")) == expected
    (span,) = violation_spans(tracer)
    assert span["attrs"]["fallbacks"] == span["attrs"]["support_lps"] > 0
    outer = [
        record for record in tracer.records
        if record.get("name") == "lp.solve" and record["attrs"]["backend"] == "highs_fast"
    ]
    assert [record["attrs"]["fallback"] for record in outer] == \
        [reason] * span["attrs"]["support_lps"]
    # The reference re-solves inside the span that fell back.
    nested = [
        record for record in tracer.records
        if record.get("name") == "lp.solve" and record["attrs"]["backend"] == "scipy"
    ]
    assert len(nested) == len(outer)
    assert all(record["depth"] > outer[0]["depth"] for record in nested)


def test_one_lazy_model_per_call_never_stored(monkeypatch):
    built = []
    real = highs_fast.make_support_model

    def counting(boxes, n_cols):
        built.append(n_cols)
        return real(boxes, n_cols)

    monkeypatch.setattr(highs_fast, "make_support_model", counting)
    assert identify_violations(FIG6A, SATISFIED, backend="scipy") == []
    assert built == []
    identify_violations(FIG6A, VIOLATED, backend="scipy")
    identify_violations(FIG6A, VIOLATED, backend="scipy")
    assert built == [2, 2]
    identify_violations(FIG6A, VIOLATED, backend="exact")
    assert built == [2, 2]
    for owner in (FIG6A, VIOLATED):
        assert not any(
            isinstance(value, highs_fast.SupportModel) for value in vars(owner).values()
        )


def test_non_finite_boxes_build_no_model():
    boxes = [([1.0, 0.0], 0.0, float("inf")), ([0.0, 1.0], 0.0, 1.0)]
    assert highs_fast.make_support_model(boxes, 2) is None
