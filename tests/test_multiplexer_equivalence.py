"""Differential test: the chunked multiplexer against its frozen loop.

:class:`repro.counters.MultiplexingSimulator` computes a run a chunk of
intervals at a time: the schedule once per run, each chunk's phase
weights and jitter in one draw, and each counter's scheduled slices
summed over a contiguous gather. ``mmu_reference.ReferenceMultiplexer``
is the per-interval, per-counter loop it replaced. Built with the same
parameters and seed, the two must return identical estimates, bit for
bit, and leave their generators in the same state after every call, so
a second call on the same simulator draws the same stream too.

The cases are seeded; ``SIM_EQUIV_SEED`` (CI rotates it daily) offsets
the seed range, as in ``test_mmu_fastpath.py``.
"""

import os
import random

import numpy as np
import pytest

import mmu_reference
from repro.counters import MultiplexingSimulator
from repro.counters import multiplexing

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))

FUZZ_CASES = 100


def chunk_rows(n_counters, slices, jitter):
    """Intervals per chunk of ``observe_run``'s draws."""
    layers = 1 + n_counters if jitter > 0 else 1
    return max(1, multiplexing._CHUNK_DRAWS // (layers * slices))


def truth_matrix(rng, n_intervals, n_counters, integer):
    """Ground-truth counts: event counts, or fractional values."""
    generator = np.random.default_rng(rng.randrange(1 << 32))
    if integer:
        return generator.integers(0, 50000, size=(n_intervals, n_counters)).astype(float)
    return generator.random((n_intervals, n_counters)) * 1e4


def assert_same_run(params, truth, calls=2):
    """Run ``truth`` ``calls`` times through one multiplexer of each kind
    and require identical estimates and generator state after each."""
    fast = MultiplexingSimulator(**params)
    reference = mmu_reference.ReferenceMultiplexer(**params)
    for call in range(calls):
        got = fast.observe_run(truth)
        want = reference.observe_run(truth)
        context = "call %d of %r on %r truth" % (call, params, truth.shape)
        assert got.shape == want.shape, context
        assert np.array_equal(got, want), context
        # Equal bytes too: the same sign on every zero.
        assert got.tobytes() == want.tobytes(), context
        assert fast._rng.bit_generator.state == reference._rng.bit_generator.state, context


def random_case(seed):
    """``(params, truth)`` for one seed: 1 interval up to several chunks,
    with and without multiplexing, jitter and phase noise."""
    rng = random.Random(seed)
    n_physical = rng.randint(1, 8)
    # Many slices make chunks short enough to span several in a short run.
    slices = rng.choice((1, 2, 3, 7, 24, 48, 4096))
    counts = [0, 1, n_physical, n_physical + 1, 12, 26]
    if slices <= 7:
        counts.append(n_physical * slices + rng.randint(1, 4))
    n_counters = rng.choice(counts)
    jitter = rng.choice((0.0, 0.01, 0.3, 2.0))
    phase_noise = rng.choice((0.0, 0.3, 0.35, 1.5))
    rows = chunk_rows(n_counters, slices, jitter)
    n_intervals = rng.choice((1, 2, 75, rows, rows + 1, 2 * rows + rng.randint(1, rows)))
    params = dict(
        n_physical=n_physical,
        slices_per_interval=slices,
        phase_noise=phase_noise,
        jitter=jitter,
        seed=rng.randrange(1 << 16),
    )
    return params, truth_matrix(rng, min(n_intervals, 400), n_counters, rng.random() < 0.5)


def test_random_runs_match_the_reference():
    for case in range(FUZZ_CASES):
        params, truth = random_case(BASE_SEED + case)
        assert_same_run(params, truth)


def test_random_runs_cover_every_regime():
    """The sweep reaches every regime the chunked path distinguishes."""
    seen = set()
    for case in range(FUZZ_CASES):
        params, truth = random_case(BASE_SEED + case)
        n_intervals, n_counters = truth.shape
        slices = params["slices_per_interval"]
        rows = chunk_rows(n_counters, slices, params["jitter"])
        seen.add("one interval" if n_intervals == 1 else "many intervals")
        if n_intervals > 2 * rows:
            seen.add("several chunks")
        if n_counters <= params["n_physical"]:
            seen.add("no multiplexing")
        elif params["n_physical"] * slices < n_counters:
            seen.add("unscheduled counters")
        else:
            seen.add("multiplexed")
        seen.add("jitter" if params["jitter"] > 0 else "no jitter")
        seen.add("phase noise" if params["phase_noise"] > 0 else "no phase noise")
        seen.add("integer" if np.array_equal(truth, np.round(truth)) else "fractional")
    assert seen == {
        "one interval",
        "many intervals",
        "several chunks",
        "no multiplexing",
        "unscheduled counters",
        "multiplexed",
        "jitter",
        "no jitter",
        "phase noise",
        "no phase noise",
        "integer",
        "fractional",
    }


# -- the named regimes, one case each ---------------------------------------

DATASET = dict(n_physical=4, slices_per_interval=48, phase_noise=0.3, jitter=0.01, seed=7)


@pytest.mark.parametrize(
    "label,params,n_intervals,n_counters",
    [
        ("dataset-shaped", DATASET, 75, 26),
        ("one interval", DATASET, 1, 26),
        ("several chunks", DATASET, 3 * chunk_rows(26, 48, 0.01) + 5, 26),
        ("no multiplexing", dict(DATASET, n_physical=8), 40, 8),
        ("unscheduled counters", dict(DATASET, n_physical=2, slices_per_interval=3), 30, 9),
        ("no jitter", dict(DATASET, jitter=0.0), 75, 26),
        (
            "no jitter, several chunks",
            dict(DATASET, jitter=0.0, slices_per_interval=4096),
            2 * chunk_rows(26, 4096, 0.0) + 1,
            26,
        ),
        ("no phase noise", dict(DATASET, phase_noise=0.0), 50, 26),
        ("no counters", DATASET, 5, 0),
    ],
)
@pytest.mark.parametrize("integer", [True, False], ids=["integer", "fractional"])
def test_named_regimes_match_the_reference(label, params, n_intervals, n_counters, integer):
    truth = truth_matrix(random.Random(BASE_SEED), n_intervals, n_counters, integer)
    assert_same_run(params, truth)


def test_unscheduled_counters_read_zero():
    truth = np.full((6, 9), 1000.0)
    estimates = MultiplexingSimulator(n_physical=2, slices_per_interval=3, seed=1).observe_run(truth)
    # 2 slots x 3 slices schedule counters 0-5; 6, 7 and 8 never run.
    assert (estimates[:, 6:] == 0.0).all()
    assert (estimates[:, :6] > 0.0).all()


@pytest.mark.parametrize("jitter", [0.0, 0.01])
def test_observe_interval_matches_the_reference(jitter):
    params = dict(DATASET, jitter=jitter)
    fast = MultiplexingSimulator(**params)
    reference = mmu_reference.ReferenceMultiplexer(**params)
    rng = random.Random(BASE_SEED)
    for _ in range(20):
        row = truth_matrix(rng, 1, 26, rng.random() < 0.5)[0]
        got = fast.observe_interval(row)
        want = reference.observe_interval(row)
        assert got.shape == (26,)
        assert got.tobytes() == want.tobytes()
    assert fast._rng.bit_generator.state == reference._rng.bit_generator.state
