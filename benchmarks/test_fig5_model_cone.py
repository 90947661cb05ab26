"""Figure 5: the model cone, spurious infeasibility, and its remedy.

* (a) the model cone is determined purely by µpath counter signatures;
* (b) multiplexing noise can make a perfectly valid observation appear
  infeasible when treated as an exact point;
* (c) the confidence-region construction (PCA-aligned bounding box at
  99%) restores the correct verdict.
"""

import numpy as np

from repro.cone import ModelCone
from repro.cone import test_point_feasibility as point_feasibility
from repro.cone import test_region_feasibility as region_feasibility
from repro.geometry import Cone
from repro.stats import ConfidenceRegion

# Figure 5a's cone: paths A=(1,0), B=(1,1), C=(2,1) over
# (causes_walk, pde$_miss). C is inside cone(A,B).
SIGNATURES = [(1, 0), (1, 1), (2, 1)]


def _experiment(seed=5):
    cone = ModelCone(["causes_walk", "pde$_miss"], SIGNATURES, name="fig5")

    # Ground truth on the cone boundary: every walk missed the PDE cache.
    truth = np.array([750.0, 750.0])
    rng = np.random.default_rng(seed)
    # Multiplexing-style noise: shared phase scaling + per-counter jitter.
    n = 80
    scale = 1.0 + 0.2 * rng.standard_normal(n)
    samples = np.stack(
        [
            truth[0] * scale * (1.0 + 0.03 * rng.standard_normal(n)),
            truth[1] * scale * (1.0 + 0.03 * rng.standard_normal(n)),
        ],
        axis=1,
    )
    noisy_mean = samples.mean(axis=0)
    point_verdict = point_feasibility(cone, list(noisy_mean))
    region = ConfidenceRegion.from_samples(samples, confidence=0.99)
    region_verdict = region_feasibility(cone, region)
    return cone, noisy_mean, point_verdict, region_verdict


def test_fig5_model_cone(benchmark):
    cone, noisy_mean, point_verdict, region_verdict = benchmark(_experiment)

    print("\nFigure 5 — noise vs the model cone:")
    print("  cone generators (signatures): %s" % (SIGNATURES,))
    print("  deduced constraints: %s" % cone.constraints().render())
    print("  noisy observed mean: (%.2f, %.2f)" % tuple(noisy_mean))
    print("  exact-point verdict:   %s" % ("feasible" if point_verdict.feasible else "infeasible (spurious!)"))
    print("  99%% region verdict:    %s" % ("feasible" if region_verdict.feasible else "infeasible"))

    # (a) Redundant generator C does not add constraints: the cone is
    # exactly {pde$_miss <= causes_walk, pde$_miss >= 0}.
    rendered = set(cone.constraints().render())
    assert "pde$_miss <= causes_walk" in rendered
    assert len(Cone(cone.signatures).irredundant_generators()) == 2

    # (b) The noisy mean appears infeasible as an exact point (ground
    # truth sits on the boundary; noise pushes the mean outside).
    assert not point_verdict.feasible

    # (c) The confidence region restores feasibility.
    assert region_verdict.feasible
