"""Model-cone analysis — CounterPoint's primary contribution.

Given a µDD, this subpackage:

* builds the **model cone** (:class:`ModelCone`) — the set of HEC value
  vectors producible by non-negative µop flows through the µDD's µpaths
  (the Counter Flow Equation of Section 3),
* tests **feasibility** of point observations and of counter confidence
  regions against the cone with a linear program
  (:func:`test_point_feasibility`, :func:`test_region_feasibility`;
  Appendix A) — batched on one LP model per call in
  :func:`test_points_feasibility`; a verdict depends only on the cone
  and the observation,
* **caches model cones by µDD content** (:mod:`repro.cone.cache`), so
  signature enumeration and constraint deduction run once per model per
  process,
* **deduces the model constraints** — the cone's H-representation — via
  the exact pipeline of Section 6 (:func:`deduce_constraints`), and
* **identifies which constraints an infeasible observation violates**
  (:func:`identify_violations`), the feedback that drives guided model
  refinement (Section 5).
"""

from repro.cone.model_cone import ModelCone
from repro.cone.cache import (
    ModelConeCache,
    mudd_fingerprint,
    shared_cache,
)
from repro.cone.diskcache import CACHE_FORMAT_VERSION, DiskConeCache
from repro.cone.constraints import ConstraintSet, ModelConstraint, deduce_constraints
from repro.cone.feasibility import (
    FeasibilityResult,
    test_point_feasibility,
    test_points_feasibility,
    test_region_feasibility,
)
from repro.cone.violations import Violation, identify_violations
from repro.cone.certificates import separating_constraint

__all__ = [
    "CACHE_FORMAT_VERSION",
    "ConstraintSet",
    "DiskConeCache",
    "FeasibilityResult",
    "ModelCone",
    "ModelConeCache",
    "ModelConstraint",
    "Violation",
    "deduce_constraints",
    "identify_violations",
    "mudd_fingerprint",
    "separating_constraint",
    "shared_cache",
    "test_point_feasibility",
    "test_points_feasibility",
    "test_region_feasibility",
]
