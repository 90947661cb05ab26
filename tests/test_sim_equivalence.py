"""Differential fuzzing: the generated program equals the interpreter.

:meth:`MuDDExecutor.run <repro.sim.executor.MuDDExecutor.run>` runs a
µDD's generated program (:mod:`repro.sim.codegen`) whenever the oracle's
hooks are inert and the program cannot trip ``max_steps``; everything
else is interpreted. The reference semantics is a ``run_uop`` loop,
which always interprets: ``run`` must reproduce it exactly — same
counter totals, same µop counts, same event streams, same RNG
consumption, same error messages. These sweeps drive both over hundreds
of seeded random µDDs (``tests/sim_fuzz.py``) and a zoo of oracles, and
check that the program really is the path taken.

``SIM_EQUIV_SEED`` (CI rotates it daily) offsets every sweep's seed
range, so the suite explores new models over time while any failure
stays reproducible from the seed in the assertion message.
"""

import os
import pickle

import numpy as np
import pytest

from repro.dsl import compile_dsl
from repro.errors import SimulationError
from repro.mudd.graph import COUNTER, DECISION, END, START, MuDD
from repro.sim import (
    CompiledMuDD,
    MuDDExecutor,
    RandomOracle,
    TableOracle,
    batch_simulate,
    path_distribution,
)
from repro.sim import codegen
from repro.sim.codegen import program_for
from sim_fuzz import (
    constant_table,
    observed_counters,
    random_mudd,
    random_weights,
)

BASE_SEED = int(os.environ.get("SIM_EQUIV_SEED", "0"))


@pytest.fixture()
def program_runs(monkeypatch):
    """Model names of every ``run`` that took the generated program."""
    runs = []
    runner = codegen._TreeProgram.runner

    def counting_runner(program, oracle, model, counts):
        runs.append(model)
        return runner(program, oracle, model, counts)

    monkeypatch.setattr(codegen._TreeProgram, "runner", counting_runner)
    return runs


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


def test_differential_fuzz_totals(program_runs):
    """400 random µDDs: ``run`` totals and µop counts equal the
    interpreter's, and the program runs for at least 90% of them."""
    cases = 400
    for case in range(cases):
        seed = BASE_SEED + case
        mudd = random_mudd(seed)
        weights = random_weights(seed, mudd)
        counters = observed_counters(seed, mudd) if case % 3 == 0 else None
        reference = _interpret(
            mudd, RandomOracle(seed=seed, weights=weights), range(40),
            counters=counters,
        )
        executor = MuDDExecutor(mudd, counters=counters)
        totals = executor.run(RandomOracle(seed=seed, weights=weights), range(40))
        assert totals == reference.snapshot(), (seed, totals, reference.snapshot())
        assert executor.n_uops == reference.n_uops, seed
    assert len(program_runs) >= 0.9 * cases, len(program_runs)


class _RecordingOracle(RandomOracle):
    """A random oracle that also records fired events (its ``on_event``
    hook makes it ineligible for the generated program)."""

    def __init__(self, seed=0, weights=None):
        RandomOracle.__init__(self, seed=seed, weights=weights)
        self.events = []

    def on_event(self, label, op):
        self.events.append((label, op))


def test_differential_fuzz_event_streams(program_runs):
    """A hooked oracle never takes the program: its events fire exactly
    as the interpreter fires them (label, µop, order)."""
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
    assert program_runs == []


def test_differential_fuzz_table_oracles(program_runs):
    """Scripted oracles: constants, callables, and fallback chains."""
    cases = 60
    for case in range(cases):
        seed = BASE_SEED + 3000 + case
        mudd = random_mudd(seed, full_domains=True)
        table = constant_table(seed, mudd)
        if case % 2:
            # Scripted per-µop behaviour: replace one constant with a
            # callable picking branches by µop index.
            for prop in sorted(table):
                table[prop] = lambda op, values: sorted(values)[
                    op % len(values)
                ]
                break

        def build():
            return TableOracle(dict(table), fallback=RandomOracle(seed=seed))

        reference = _interpret(mudd, build(), range(30)).snapshot()
        assert MuDDExecutor(mudd).run(build(), range(30)) == reference, seed
    assert len(program_runs) >= 0.9 * cases, len(program_runs)


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


def test_max_steps_valve_identical_across_backends(program_runs):
    """The runaway-walk valve trips with the interpreter's exact message
    whenever the interpreter's would, and the program runs exactly when
    the longest walk (8 steps here, the terminal decision included)
    fits within ``max_steps``."""
    mudd = _chain_mudd(6)
    for max_steps, trips in ((4, True), (7, True), (8, False), (100, False)):
        before = len(program_runs)
        ran = _outcome(lambda: MuDDExecutor(mudd, max_steps=max_steps).run(
            RandomOracle(seed=1), range(3)
        ))
        reference = _outcome(lambda: _interpret(
            mudd, RandomOracle(seed=1), range(3), max_steps=max_steps
        ).snapshot())
        assert ran == reference, max_steps
        assert (ran[0] == "raise") == trips, max_steps
        assert (len(program_runs) > before) == (not trips), max_steps
    assert "exceeded 4 steps in 'chain-6'" in _outcome(
        lambda: MuDDExecutor(mudd, max_steps=4).run(RandomOracle(), [None])
    )[1]
    executor = MuDDExecutor(mudd, max_steps=100)
    executor.run(RandomOracle(seed=1), range(3))
    assert executor.snapshot()["ctr.step"] == 18


def test_dead_end_raises_the_interpreter_message(program_runs):
    """A repeated decision missing the label assigned upstream is a
    raise-leaf in the program: it raises the interpreter's exact
    dispatch error."""
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
    assert program_runs == ["dead-end"]


def test_max_steps_valve_on_fuzz_models():
    """``run`` and the interpreter agree on *whether* the valve trips,
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


def test_branch_values_edge_order_is_stable():
    """``CompiledMuDD.branch_values`` preserves µDD edge insertion order
    — the contract program dispatch indices rely on — across repeated
    compiles and pickle round-trips, and a round-tripped compile maps
    to the same program."""
    mudd = MuDD("branch-order")
    start = mudd.add_node(START)
    decision = mudd.add_node(DECISION, "Level")
    mudd.add_edge(start, decision)
    for value in ("Mem", "L1", "L2"):     # deliberately unsorted
        counter = mudd.add_node(COUNTER, "ctr.%s" % value)
        mudd.add_edge(decision, counter, value=value)
        mudd.add_edge(counter, mudd.add_node(END))

    def decision_orders(compiled):
        return [
            compiled.branch_values(node)
            for node in range(len(compiled.ops))
            if compiled.branches[node]
        ]

    compiled = CompiledMuDD(mudd)
    assert decision_orders(compiled) == [["Mem", "L1", "L2"]]
    assert decision_orders(CompiledMuDD(mudd)) == decision_orders(compiled)
    clone = pickle.loads(pickle.dumps(compiled))
    assert decision_orders(clone) == decision_orders(compiled)
    assert program_for(clone) is program_for(compiled)
    reference = _interpret(compiled, RandomOracle(seed=3), range(50))
    assert MuDDExecutor(clone).run(
        RandomOracle(seed=3), range(50)
    ) == reference.snapshot()


_YES_FIRST = """
switch Hit {
  Yes => incr probe.hits;
  No  => { incr probe.misses; incr probe.walks; done; }
};
done;
"""

_NO_FIRST = """
switch Hit {
  No  => { incr probe.misses; incr probe.walks; done; }
  Yes => incr probe.hits;
};
done;
"""


def test_branch_order_variants_run_their_own_programs(program_runs):
    """Regression: two µDDs (both named ``model``) that differ only in
    branch order shared one generated program, because the program memo
    was keyed by a fingerprint that sorts branches by label. The second
    model then ran the first's dispatch and swapped its hit and miss
    totals (95/905 for 905/95)."""
    counters = ["probe.hits", "probe.misses", "probe.walks"]
    weights = {"Hit": {"Yes": 9, "No": 1}}
    for source in (_YES_FIRST, _NO_FIRST):
        mudd = compile_dsl(source)
        totals = MuDDExecutor(mudd, counters=counters).run(
            RandomOracle(seed=1, weights=weights), range(1000)
        )
        reference = _interpret(
            mudd, RandomOracle(seed=1, weights=weights), range(1000),
            counters=counters,
        )
        assert totals == reference.snapshot(), source
        assert totals["probe.hits"] > totals["probe.misses"], totals
    assert program_runs == ["model", "model"]
