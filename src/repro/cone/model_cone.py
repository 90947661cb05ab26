"""The model cone: all HEC vectors a µDD can produce.

The Counter Flow Equation (Section 3) states that observed counter
values are ``v = sum_p S(p) * f(p)`` for non-negative flows ``f``; the
model cone ``K_D`` is the set of all such ``v``. :class:`ModelCone`
couples the cone geometry with the counter-name ordering so that
observations (dicts of counter name → value) can be tested directly.
"""

import math

from repro.errors import AnalysisError
from repro.geometry import Cone
from repro.linalg import as_fraction_vector
from repro.mudd import MuDD, signature_matrix


class ModelCone:
    """The cone of counter vectors generated by a µDD's µpaths.

    Parameters
    ----------
    counters:
        Ordered counter names defining the vector space axes.
    signatures:
        µpath counter signatures (integer tuples aligned to ``counters``).
    name:
        Human-readable model name (propagated from the µDD).
    multiplicities:
        Optional µpath count per signature (parallel to ``signatures``);
        recorded when signatures were deduplicated with multiplicity.
    """

    def __init__(self, counters, signatures, name="model", multiplicities=None):
        if not counters:
            raise AnalysisError("a model cone needs at least one counter")
        for signature in signatures:
            if len(signature) != len(counters):
                raise AnalysisError(
                    "signature %r does not match %d counters" % (signature, len(counters))
                )
            if any(entry < 0 for entry in signature):
                raise AnalysisError("counter signatures must be non-negative")
        self.counters = list(counters)
        self.signatures = [tuple(sig) for sig in signatures]
        self.name = name
        if multiplicities is not None and len(multiplicities) != len(self.signatures):
            raise AnalysisError(
                "%d multiplicities for %d signatures"
                % (len(multiplicities), len(self.signatures))
            )
        self.multiplicities = None if multiplicities is None else list(multiplicities)
        self._constraints = None
        self._signature_array = None
        self._flow_model = None
        self._flow_model_built = False
        self._fingerprint = None

    @classmethod
    def from_mudd(cls, mudd, counters=None, max_paths=2000000):
        """Build the model cone of a µDD (Counter Flow Equation)."""
        if not isinstance(mudd, MuDD):
            raise AnalysisError("from_mudd expects a MuDD")
        counters, signatures, multiplicities = signature_matrix(
            mudd, counters=counters, max_paths=max_paths, with_multiplicity=True
        )
        if not counters:
            raise AnalysisError(
                "µDD %r has no counters; a model cone is undefined" % (mudd.name,)
            )
        return cls(counters, signatures, name=mudd.name, multiplicities=multiplicities)

    # -- vector plumbing -------------------------------------------------
    def vector_from_observation(self, observation):
        """Align an observation to this cone's counter order.

        ``observation`` may be a mapping (counter name → value) or a
        sequence already in counter order. Mappings must cover every
        counter; extra keys are an error (they indicate the model and
        measurement disagree about scope), and so is a non-finite value
        (``nan``, ``inf``), which no flow can produce.
        """
        if isinstance(observation, dict):
            missing = [name for name in self.counters if name not in observation]
            if missing:
                raise AnalysisError("observation missing counters: %s" % ", ".join(missing))
            extra = [name for name in observation if name not in self.counters]
            if extra:
                raise AnalysisError(
                    "observation has counters outside the model: %s" % ", ".join(extra)
                )
            values = [observation[name] for name in self.counters]
        else:
            values = list(observation)
            if len(values) != len(self.counters):
                raise AnalysisError(
                    "observation has %d values for %d counters"
                    % (len(values), len(self.counters))
                )
        try:
            return as_fraction_vector(values)
        except (ValueError, OverflowError):
            for name, value in zip(self.counters, values):
                if isinstance(value, float) and not math.isfinite(value):
                    raise AnalysisError(
                        "counter %r has a non-finite value %r" % (name, value)
                    ) from None
            raise

    # -- queries -----------------------------------------------------------
    @property
    def n_paths(self):
        """Number of distinct µpath signatures (cone generators before
        redundancy removal)."""
        return len(self.signatures)

    def contains(self, observation, backend="exact"):
        """Exact membership: can any non-negative flow produce this
        observation? (Point feasibility without noise handling.)"""
        vector = self.vector_from_observation(observation)
        return self._geometry().contains(vector, backend=backend)

    def constraints(self):
        """The deduced model constraints (cached)."""
        if self._constraints is None:
            from repro.cone.constraints import deduce_constraints
            from repro.obs.trace import get_tracer

            with get_tracer().span("cone.constraints", model=self.name):
                self._constraints = deduce_constraints(
                    self.signatures, self.counters
                )
        return self._constraints

    def fingerprint(self):
        """Canonical content hash of this cone (cached).

        Covers the counter ordering and the signature list *in order* —
        LP-derived verdict details (witnesses, certificates) can depend
        on generator order, so order is part of content identity. The
        model name is deliberately excluded: two differently-named but
        structurally identical models share verdicts. This is the cone
        half of :class:`repro.results.session.AnalysisSession`'s
        content-addressed verdict keys.
        """
        if getattr(self, "_fingerprint", None) is None:
            import hashlib

            payload = repr((tuple(self.counters), tuple(self.signatures)))
            self._fingerprint = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return self._fingerprint

    def has_deduced_constraints(self):
        """Whether constraint deduction already ran for this cone.

        The cone cache consults this to write a deduced cone back to
        disk, so no later process pays the exponential deduction (the
        paper's Figure 9b cost) for it again. No verdict reads it: a
        point's verdict and evidence never depend on whether the cone
        was deduced.
        """
        return self._constraints is not None

    def signature_array(self):
        """Cached ``N x P`` float matrix of signatures (counters by
        µpaths) — the scipy fast path's equality matrix."""
        if self._signature_array is None:
            import numpy as np

            self._signature_array = np.array(self.signatures, dtype=float).T
        return self._signature_array

    def flow_model(self):
        """Cached persistent HiGHS model of the flow system ``S^T f = v``
        (:mod:`repro.lp.highs_fast`), or ``None`` when unavailable."""
        if not self._flow_model_built:
            from repro.lp.highs_fast import make_feasibility_model

            self._flow_model = make_feasibility_model(self.signature_array())
            self._flow_model_built = True
        return self._flow_model

    # -- serialisation ----------------------------------------------------
    def __getstate__(self):
        """Pickle everything except process-local accelerators.

        The process pool pickles cones between its own processes. The
        persistent HiGHS flow model wraps a C++ handle and cannot cross
        a process boundary; the float signature array is cheap to
        rebuild. Deduced constraints *are* kept — they are the
        expensive artefact a worker should not recompute.
        """
        state = dict(self.__dict__)
        state["_flow_model"] = None
        state["_flow_model_built"] = False
        state["_signature_array"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    def is_subset_of(self, other, backend="exact"):
        """Model-cone inclusion; used by the guided search to confirm
        that adding a feature truly expanded the cone (Section 5)."""
        if self.counters != other.counters:
            raise AnalysisError("cones compare only over identical counter orderings")
        return self._geometry().is_subset_of(other._geometry(), backend=backend)

    def _geometry(self):
        """The signatures as a gcd-reduced, deduplicated
        :class:`~repro.geometry.Cone`, built per call: only
        :meth:`contains` and :meth:`is_subset_of` need one, and
        deduction and the verdict paths work from the signatures."""
        return Cone(self.signatures, ambient_dim=len(self.counters))

    def __repr__(self):
        return "ModelCone(%r, %d counters, %d signatures)" % (
            self.name,
            len(self.counters),
            len(self.signatures),
        )
