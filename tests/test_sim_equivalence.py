"""Seeded checks of the interpreter that every simulation runs.

:meth:`MuDDExecutor.run <repro.sim.executor.MuDDExecutor.run>` and
:meth:`~repro.sim.executor.MuDDExecutor.run_intervals` drive the µop
stream through :meth:`~repro.sim.executor.MuDDExecutor.run_uop`, and
:func:`repro.sim.batch.batch_simulate` replaces per-trace loops with
one multinomial draw. These sweeps hold each against its reference over
seeded random µDDs (``tests/sim_fuzz.py``): event streams fire exactly
as a ``run_uop`` loop fires them, the ``max_steps`` valve and the
dead-end dispatch raise their exact messages, and a batched draw equals
the per-trace loop.

``SIM_EQUIV_SEED`` (CI rotates it daily) offsets every sweep's seed
range, so the suite explores new models over time while any failure
stays reproducible from the seed in the assertion message.
"""

import os

import numpy as np

from repro.errors import SimulationError
from repro.mudd.graph import COUNTER, DECISION, END, START, MuDD
from repro.sim import (
    MuDDExecutor,
    RandomOracle,
    batch_simulate,
    path_distribution,
)
from sim_fuzz import random_mudd, random_weights

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))


def _interpret(mudd, oracle, uops, counters=None, max_steps=100000):
    """The reference: a ``run_uop`` loop, which always interprets."""
    executor = MuDDExecutor(mudd, counters=counters, max_steps=max_steps)
    for op in uops:
        executor.run_uop(oracle, op)
    return executor


def _outcome(run):
    try:
        return ("ok", run())
    except SimulationError as error:
        return ("raise", str(error))


class _RecordingOracle(RandomOracle):
    """A random oracle that also records fired events."""

    def __init__(self, seed=0, weights=None):
        RandomOracle.__init__(self, seed=seed, weights=weights)
        self.events = []

    def on_event(self, label, op):
        self.events.append((label, op))


def test_differential_fuzz_event_streams():
    """Under ``run``, a hooked oracle's events fire exactly as a
    ``run_uop`` loop fires them (label, µop, order), with equal
    totals."""
    fired_any = 0
    for case in range(60):
        seed = BASE_SEED + 2000 + case
        mudd = random_mudd(seed, p_event=0.4)
        weights = random_weights(seed, mudd)
        reference = _RecordingOracle(seed=seed, weights=weights)
        ref_totals = _interpret(mudd, reference, range(30)).snapshot()
        fired_any += bool(reference.events)
        oracle = _RecordingOracle(seed=seed, weights=weights)
        assert MuDDExecutor(mudd).run(oracle, range(30)) == ref_totals, seed
        assert oracle.events == reference.events, seed
    assert fired_any > 10  # the sweep actually exercised event nodes


def test_batched_multinomial_matches_per_trace_loop():
    """One ``multinomial(size=T)`` call equals T sequential draws, so
    ``batch_simulate`` totals are loop-equivalent."""
    for case in range(6):
        seed = BASE_SEED + 4000 + case
        mudd = random_mudd(seed)
        weights = random_weights(seed, mudd)
        names, signatures, probabilities = path_distribution(
            mudd, weights=weights
        )
        rng = np.random.default_rng(seed)
        expected = rng.multinomial(500, probabilities, size=4) @ signatures
        result = batch_simulate(
            mudd, 500, n_traces=4, weights=weights, seed=seed,
        )
        assert result.counters == names
        assert np.array_equal(result.totals, expected), seed
        loop_rng = np.random.default_rng(seed)
        looped = np.stack([
            loop_rng.multinomial(500, probabilities) @ signatures
            for _ in range(4)
        ])
        assert np.array_equal(looped, expected), seed


def _chain_mudd(length):
    """START → COUNTER×length → DECISION → END: every µop walks
    ``length + 2`` non-HALT nodes."""
    mudd = MuDD("chain-%d" % length)
    node = mudd.add_node(START)
    for step in range(length):
        counter = mudd.add_node(COUNTER, "ctr.step")
        mudd.add_edge(node, counter)
        node = counter
    decision = mudd.add_node(DECISION, "Hit")
    mudd.add_edge(node, decision)
    for value in ("Yes", "No"):
        mudd.add_edge(decision, mudd.add_node(END), value=value)
    return mudd


def test_max_steps_valve_identical_across_backends():
    """The runaway-walk valve trips in ``run`` exactly when it trips in a
    ``run_uop`` loop — when a walk (8 steps here, the terminal decision
    included) exceeds ``max_steps`` — with the same message, and the
    failing µop's partial walk stays counted."""
    mudd = _chain_mudd(6)
    for max_steps, trips in ((4, True), (7, True), (8, False), (100, False)):
        ran = _outcome(lambda: MuDDExecutor(mudd, max_steps=max_steps).run(
            RandomOracle(seed=1), range(3)
        ))
        reference = _outcome(lambda: _interpret(
            mudd, RandomOracle(seed=1), range(3), max_steps=max_steps
        ).snapshot())
        assert ran == reference, max_steps
        assert (ran[0] == "raise") == trips, max_steps
    tripped = MuDDExecutor(mudd, max_steps=4)
    assert _outcome(lambda: tripped.run(RandomOracle(), [None])) == (
        "raise", "µop exceeded 4 steps in 'chain-6'"
    )
    # START and three counters ran before the fifth step tripped.
    assert tripped.snapshot()["ctr.step"] == 3
    assert tripped.n_uops == 0
    executor = MuDDExecutor(mudd, max_steps=100)
    executor.run(RandomOracle(seed=1), range(3))
    assert executor.snapshot()["ctr.step"] == 18


def test_dead_end_raises_the_interpreter_message():
    """A repeated decision missing the label assigned upstream raises
    the exact dispatch error, from ``run`` as from a ``run_uop``
    loop."""
    mudd = MuDD("dead-end")
    decision = mudd.add_node(DECISION, "Hit")
    mudd.add_edge(mudd.add_node(START), decision)
    for value in ("Yes", "No"):
        counter = mudd.add_node(COUNTER, "ctr.%s" % value)
        mudd.add_edge(decision, counter, value=value)
        again = mudd.add_node(DECISION, "Hit")
        mudd.add_edge(counter, again)
        mudd.add_edge(again, mudd.add_node(END), value="Yes")
    ran = _outcome(lambda: MuDDExecutor(mudd).run(RandomOracle(seed=2), range(20)))
    reference = _outcome(lambda: _interpret(
        mudd, RandomOracle(seed=2), range(20)
    ).snapshot())
    assert ran == reference
    assert ran == ("raise", "oracle resolved Hit='No' but 'dead-end' "
                            "offers branches Yes")


def test_max_steps_valve_on_fuzz_models():
    """``run`` and a ``run_uop`` loop agree on *whether* the valve trips,
    and on the message when it does, across random models with a tight
    budget."""
    tripped = 0
    for case in range(60):
        seed = BASE_SEED + 5000 + case
        mudd = random_mudd(seed, max_depth=8, p_end=0.05)
        reference = _outcome(lambda: _interpret(
            mudd, RandomOracle(seed=seed), range(10), max_steps=3
        ).snapshot())
        tripped += reference[0] == "raise"
        ran = _outcome(lambda: MuDDExecutor(mudd, max_steps=3).run(
            RandomOracle(seed=seed), range(10)
        ))
        assert ran == reference, seed
    assert tripped > 5  # the sweep actually exercised the valve
