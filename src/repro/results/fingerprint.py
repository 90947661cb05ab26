"""Content fingerprints for observation-shaped inputs.

The analysis entry points accept a zoo of observation forms — dataset
:class:`~repro.models.dataset.Observation` objects, plain counter
mappings, ordered value sequences, and confidence regions. The verdict
memo (:class:`~repro.results.session.AnalysisSession`) needs one
canonical content hash for any of them; :func:`observation_fingerprint`
is that dispatcher.

Hashes cover measured *content* only (values, counter names, region
geometry), never run names or metadata, so re-measuring identical data
under a different label still hits the memo. Exactness tiers matter:
``repr`` is used for scalar folding, so ``5`` and ``5.0`` hash
differently — which is correct, because exact and float observations can
receive different verdict details from the LP layer.
"""

import hashlib

from repro.errors import AnalysisError


def _digest(payload):
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def sample_matrix_fingerprint(matrix):
    """Content hash of a :class:`repro.counters.sampling.SampleMatrix`
    (counter names + every interval sample) — the one definition of
    region-mode observation identity, shared by
    :meth:`repro.models.dataset.Observation.fingerprint` and the
    duck-type path below."""
    import numpy as np

    head = repr((tuple(matrix.counters), matrix.samples.shape)).encode("utf-8")
    body = np.ascontiguousarray(matrix.samples).tobytes()
    return hashlib.sha256(head + body).hexdigest()


def observation_fingerprint(observation, samples=False):
    """Canonical content hash of any observation form.

    Parameters
    ----------
    observation:
        A dataset observation (``point()``/``fingerprint()``), a counter
        mapping, an ordered value sequence, or a region object
        (``box_constraints()``).
    samples:
        For dataset observations: hash the interval sample matrix
        instead of the exact totals (the region-analysis view).
    """
    fingerprint = getattr(observation, "fingerprint", None)
    if callable(fingerprint):
        return fingerprint(samples=samples)
    point = getattr(observation, "point", None)
    if callable(point):
        # Observation-shaped duck types without their own fingerprint.
        if samples:
            matrix = getattr(observation, "samples", None)
            if matrix is not None:
                return sample_matrix_fingerprint(matrix)
        return observation_fingerprint(point())
    if hasattr(observation, "box_constraints"):
        boxes = tuple(
            (tuple(repr(float(value)) for value in direction),
             repr(float(lower)), repr(float(upper)))
            for direction, lower, upper in observation.box_constraints()
        )
        center = tuple(repr(float(value)) for value in observation.center())
        return _digest(repr(("region", center, boxes)))
    if isinstance(observation, dict):
        payload = tuple(sorted(
            (name, repr(value)) for name, value in observation.items()
        ))
        return _digest(repr(("point", payload)))
    try:
        values = tuple(repr(value) for value in observation)
    except TypeError:
        raise AnalysisError(
            "cannot fingerprint %r as an observation"
            % (type(observation).__name__,)
        ) from None
    return _digest(repr(("vector", values)))


class RunFingerprints(dict):
    """:func:`observation_fingerprint`, at most once per observation and
    view (point or samples) over one plan run.

    Keyed by object identity, so it lives only as long as the run; each
    entry holds its observation, so no id is reused while it does.
    """

    __slots__ = ()

    def __call__(self, observation, samples=False):
        key = (id(observation), bool(samples))
        if key not in self:
            self[key] = (observation, observation_fingerprint(observation, samples))
        return self[key][1]


__all__ = ["RunFingerprints", "observation_fingerprint", "sample_matrix_fingerprint"]
