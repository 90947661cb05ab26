"""The unified result layer: typed, serializable pipeline outputs.

Every analysis entry point — ``CounterPoint.analyze`` / ``sweep`` /
``compare`` / ``cross_refute``, the plan engine, and the guided
exploration — returns (or is convertible to) a result object
from this package. All of them share one contract:

* ``to_dict()`` produces a stable, JSON-serializable schema (stamped
  with :data:`~repro.results.base.RESULTS_SCHEMA_VERSION` and a
  ``kind`` tag),
* ``from_dict()`` / :func:`result_from_dict` reconstruct an equal
  object from that schema,
* equality is structural (two results are equal iff their schemas are),
* ``summary()`` renders the human-readable report.

The schemas are also the wire format: :mod:`repro.parallel` workers
ship result dicts across the process pool instead of pickled ad-hoc
objects, and :class:`~repro.results.store.ArtifactStore` persists them
as content-addressed JSON artifacts — the substrate of
:class:`~repro.results.session.AnalysisSession`'s incremental verdict
memoization.
"""

from repro.results.base import (
    RESULTS_SCHEMA_VERSION,
    decode_number,
    decode_vector,
    encode_number,
    encode_vector,
    result_from_dict,
    result_from_json,
)
from repro.results.fingerprint import observation_fingerprint
from repro.results.session import AnalysisSession, SessionStats
from repro.results.store import ArtifactStore, ClaimTable
from repro.results.types import (
    AnalysisReport,
    CellVerdict,
    CompareResult,
    ModelSweep,
    RefutationMatrix,
)

__all__ = [
    "AnalysisReport",
    "AnalysisSession",
    "ArtifactStore",
    "CellVerdict",
    "ClaimTable",
    "CompareResult",
    "ModelSweep",
    "RESULTS_SCHEMA_VERSION",
    "RefutationMatrix",
    "SessionStats",
    "decode_number",
    "decode_vector",
    "encode_number",
    "encode_vector",
    "observation_fingerprint",
    "result_from_dict",
    "result_from_json",
]
