"""Table 5: TLB-prefetch trigger-condition models.

Regenerates the eighteen-model table (t0..t17): m4 variants whose
prefetches are attached to candidate triggering µop paths. The paper's
pattern, which the assertions encode:

* every speculative-trigger model (t0-t8) is feasible,
* retired-only pre-TLB triggers (t9, t12, t15) are feasible,
* retired-only triggers fed by the DTLB/STLB demand-miss streams
  (t10, t11, t13, t14, t16, t17) are refuted — and only by linear
  microbenchmark observations, whose TLB misses all but vanish when the
  prefetcher stays ahead of the sweep.

The table is regenerated twice: on the float ``scipy`` backend, and on
the default ``exact`` backend, whose certified verdicts must reproduce
it without a single simplex fallback.
"""

from repro.models import M_SERIES, T_SERIES, build_model_cone
from repro.pipeline import CounterPoint

ORDER = ["t%d" % i for i in range(18)]
EXPECTED_FEASIBLE = {"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t12", "t15"}


def _sweep_all(counterpoint, dataset):
    sweeps = {}
    for name in ORDER:
        cone = build_model_cone(M_SERIES["m4"], trigger=T_SERIES[name])
        sweeps[name] = counterpoint.sweep(cone, dataset)
    return sweeps


def test_table5_prefetch_triggers(benchmark, counterpoint, dataset):
    sweeps = benchmark.pedantic(
        _sweep_all, args=(counterpoint, dataset), rounds=1, iterations=1
    )

    print("\nTable 5 — prefetch trigger conditions (%d observations):" % len(dataset))
    print("%-5s %-40s %s" % ("model", "trigger", "#infeasible"))
    for name in ORDER:
        print("%-5s %-40r %d" % (name, T_SERIES[name], sweeps[name].n_infeasible))

    feasible = {name for name in ORDER if sweeps[name].feasible}
    assert feasible == EXPECTED_FEASIBLE

    # The refuting observations are exactly linear microbenchmark runs.
    refuters = {
        observation
        for name in ORDER
        for observation in sweeps[name].infeasible_names
    }
    assert refuters
    assert all(name.startswith("lin4k") for name in refuters)


def test_table5_prefetch_triggers_exact(benchmark, dataset):
    """Table 5 on ``CounterPoint()`` (the exact backend), traced: the same
    feasible set and lin4k-only refuters, every verdict certified."""
    counterpoint = CounterPoint(trace=True)
    sweeps = benchmark.pedantic(
        _sweep_all, args=(counterpoint, dataset), rounds=1, iterations=1
    )

    feasible = {name for name in ORDER if sweeps[name].feasible}
    assert feasible == EXPECTED_FEASIBLE
    refuters = {
        observation
        for name in ORDER
        for observation in sweeps[name].infeasible_names
    }
    assert refuters
    assert all(name.startswith("lin4k") for name in refuters)

    certified = [
        record for record in counterpoint.tracer.records
        if record.get("name") == "lp.solve"
        and record["attrs"].get("method") == "certified"
    ]
    assert certified
    counters = counterpoint.tracer.metrics.as_dict()["counters"]
    assert counters.get("lp.certify.fallbacks", 0) == 0
