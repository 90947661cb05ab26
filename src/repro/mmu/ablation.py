"""Hardware-side ablations: counterfactual MMUs.

The paper ablates *models* against fixed hardware. The simulator
substrate also supports the converse — running the same workload on
feature-ablated *hardware* — which yields a powerful consistency check
of the whole methodology: data produced by hardware-without-feature-F
must be feasible for the model-without-F (and the counter deltas show
each feature's performance signature directly).

:func:`run_ablations` executes a workload across a set of configurations
and returns per-configuration counter totals; :func:`feature_ablations`
builds the standard one-feature-removed configuration set.
"""

from repro.errors import ConfigurationError
from repro.mmu.config import FEATURE_OPTIONS, MMUConfig
from repro.mmu.core import MMUSimulator


def config_without(feature, **overrides):
    """Full-Haswell configuration with one Table 4 feature disabled."""
    option = FEATURE_OPTIONS.get(feature)
    if option is None:
        raise ConfigurationError("unknown ablatable feature %r" % (feature,))
    options = {option: False}
    options.update(overrides)
    return MMUConfig.full_haswell(**options)


def feature_ablations(**overrides):
    """``{label: MMUConfig}`` for full hardware plus each single-feature
    ablation."""
    configurations = {"full": MMUConfig.full_haswell(**overrides)}
    for feature in FEATURE_OPTIONS:
        configurations["no-%s" % feature] = config_without(feature, **overrides)
    return configurations


def run_ablations(workload, n_ops, configurations=None, page_size="4k"):
    """Run one workload across hardware configurations.

    Returns ``{label: counter_totals}``. Workload generators are
    deterministic, so differences between configurations are exactly the
    ablated feature's counter signature.
    """
    configurations = configurations or feature_ablations()
    results = {}
    for label, config in configurations.items():
        simulator = MMUSimulator(config, page_size=page_size)
        simulator.run(workload.ops(n_ops))
        results[label] = simulator.snapshot()
    return results


def counter_delta(baseline, variant):
    """Per-counter difference ``variant - baseline`` (non-zero only)."""
    return {
        name: variant[name] - baseline[name]
        for name in baseline
        if variant[name] != baseline[name]
    }
