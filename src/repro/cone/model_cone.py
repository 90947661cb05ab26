"""The model cone: all HEC vectors a µDD can produce.

The Counter Flow Equation (Section 3) states that observed counter
values are ``v = sum_p S(p) * f(p)`` for non-negative flows ``f``; the
model cone ``K_D`` is the set of all such ``v``. :class:`ModelCone`
couples the cone geometry with the counter-name ordering so that
observations (dicts of counter name → value) can be tested directly.

A cone holds its signatures once, as a read-only ``(P, N)`` int64
matrix (:attr:`ModelCone.rows`). Exact arithmetic reads
:attr:`ModelCone.signatures`, Python-int tuples built from it on first
use: an int64 would wrap silently where a Python int grows.
"""

import hashlib
import math
import numbers
import struct

import numpy as np

from repro.errors import AnalysisError
from repro.geometry import Cone
from repro.linalg import as_fraction_vector
from repro.mudd import MuDD, signature_matrix

_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)


def _int64_entries(array):
    """``array`` as int64, or :class:`AnalysisError` naming its first
    entry that is not an integer within int64. Only arrays whose dtype
    already says something is off reach this entry-by-entry look."""
    for entry in array.flat:
        if not isinstance(entry, numbers.Integral) or isinstance(entry, bool):
            raise AnalysisError("counter signatures must be integers, got %r" % (entry,))
        if not _INT64_MIN <= entry <= _INT64_MAX:
            raise AnalysisError("counter signature entry %d does not fit in int64" % (entry,))
    return array.astype(np.int64)


def _signature_rows(signatures, width):
    """``signatures`` — a 2-D integer array or any sequence of integer
    rows — as a read-only, C-ordered ``(P, width)`` int64 matrix.

    It is checked once, on the whole array: two dimensions, ``width``
    columns, integer entries (no floats, however integral, and no bools)
    within int64, none negative. :class:`AnalysisError` names the first
    problem. A caller's writable array is copied; a read-only int64 one,
    such as :func:`~repro.mudd.paths.signature_matrix` returns, is kept.
    """
    given = signatures
    if not isinstance(signatures, np.ndarray):
        signatures = list(signatures) or np.zeros((0, width), dtype=np.int64)
        try:
            array = np.array(signatures)
        except ValueError:
            raise AnalysisError("signatures must be rows of %d integers" % (width,)) from None
        # Ints past int64 turn a list into uint64 or float64: keep the
        # entries themselves, to name the one at fault.
        signatures = array if array.dtype.kind == "i" else np.array(signatures, dtype=object)
    if signatures.ndim != 2 or signatures.shape[1] != width:
        raise AnalysisError(
            "signatures must form a (P, %d) matrix, one column per counter, got shape %r"
            % (width, signatures.shape)
        )
    kind = signatures.dtype.kind
    if kind not in "iu" or (kind == "u" and signatures.size and signatures.max() > _INT64_MAX):
        signatures = _int64_entries(signatures)
    rows = np.ascontiguousarray(signatures, dtype=np.int64)
    # argmin skips the ufunc reduction behind min(), which costs twice
    # as much on the small cones a plan campaign builds by the thousand.
    if rows.size and rows.item(rows.argmin()) < 0:
        raise AnalysisError("counter signatures must be non-negative")
    if rows.flags.writeable:
        if rows is given:
            rows = rows.copy()
        rows.flags.writeable = False
    return rows


class ModelCone:
    """The cone of counter vectors generated by a µDD's µpaths.

    Parameters
    ----------
    counters:
        Ordered counter names defining the vector space axes.
    signatures:
        µpath counter signatures aligned to ``counters``: a ``(P, N)``
        integer matrix (as :func:`~repro.mudd.paths.signature_matrix`
        returns) or any sequence of integer rows; a malformed one raises
        :class:`~repro.errors.AnalysisError` naming the problem.
    name:
        Human-readable model name (propagated from the µDD).
    multiplicities:
        Optional µpath count per signature (parallel to ``signatures``);
        recorded when signatures were deduplicated with multiplicity.

    :attr:`rows` is the read-only int64 matrix; :attr:`signatures` the
    same rows as Python-int tuples, for exact arithmetic.
    """

    def __init__(self, counters, signatures, name="model", multiplicities=None):
        if not counters:
            raise AnalysisError("a model cone needs at least one counter")
        self.counters = list(counters)
        self.rows = _signature_rows(signatures, len(self.counters))
        self.name = name
        if multiplicities is not None and len(multiplicities) != len(self.rows):
            raise AnalysisError(
                "%d multiplicities for %d signatures"
                % (len(multiplicities), len(self.rows))
            )
        self.multiplicities = None if multiplicities is None else list(multiplicities)
        self._signatures = None
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
    def signatures(self):
        """The signatures as a list of Python-int tuples, in row order
        (built from :attr:`rows` on first read): the form exact
        arithmetic — verdict certificates, deduction, geometry — reads."""
        if self._signatures is None:
            self._signatures = list(map(tuple, self.rows.tolist()))
        return self._signatures

    @property
    def n_paths(self):
        """Number of distinct µpath signatures (cone generators before
        redundancy removal)."""
        return len(self.rows)

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

        Covers the counter ordering and the signature rows *in order* —
        LP-derived verdict details (witnesses, certificates) can depend
        on generator order, so order is part of content identity. It is
        the sha256 of ``repr(tuple(counters))`` (UTF-8), then the
        matrix shape ``(P, N)`` as two little-endian int64s, then the
        matrix's row-major little-endian int64 bytes. The model name is
        deliberately excluded: two differently-named but structurally
        identical models share verdicts. This is the cone half of
        :class:`repro.results.session.AnalysisSession`'s
        content-addressed verdict keys.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256(repr(tuple(self.counters)).encode("utf-8"))
            digest.update(struct.pack("<2q", *self.rows.shape))
            digest.update(self.rows.astype("<i8", copy=False).tobytes())
            self._fingerprint = digest.hexdigest()
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
        """Cached, read-only ``N x P`` float matrix of signatures
        (counters by µpaths): the equality matrix of every HiGHS flow
        model of this cone."""
        if self._signature_array is None:
            array = self.rows.T.astype(float)
            array.flags.writeable = False
            self._signature_array = array
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
        a process boundary; the float signature array and the tuple
        view of the signatures are rebuilt from :attr:`rows` on demand.
        Deduced constraints *are* kept — they are the expensive
        artefact a worker should not recompute.
        """
        state = dict(self.__dict__)
        state["_flow_model"] = None
        state["_flow_model_built"] = False
        state["_signature_array"] = None
        state["_signatures"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.rows.flags.writeable = False

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
            len(self.rows),
        )
