"""Pin the contents of the two bundled MMU datasets.

``standard_dataset()`` (24 observations) and ``noisy_dataset()`` (12)
are what every paper benchmark analyses. A change to the simulator that
is meant to be a pure speed-up must leave them bit-identical:
``tests/golden/mmu_datasets.json`` records, per observation, the exact
counter totals, the totals fingerprint, and the sample matrix's shape
and fingerprints (the measured samples and, for multiplexed runs, the
exact interval counts behind them).

Both datasets are memoised per process, so this reuses whatever the
rest of the session already built. Regenerate deliberately with
``PYTHONPATH=src python tests/test_mmu_datasets.py regen``.
"""

import json
import os
import sys

from repro.counters.sampling import SampleMatrix
from repro.models import noisy_dataset, standard_dataset
from repro.results.fingerprint import sample_matrix_fingerprint

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "mmu_datasets.json"
)


def describe(observation):
    """The pinned, JSON-able view of one observation."""
    matrix = observation.samples
    return {
        "name": observation.name,
        "page_size": observation.page_size,
        "fingerprint": observation.fingerprint(),
        "totals": dict(sorted(observation.totals.items())),
        "samples": {
            "shape": list(matrix.samples.shape),
            "fingerprint": observation.fingerprint(samples=True),
            "truth": sample_matrix_fingerprint(SampleMatrix(matrix.counters, matrix.truth)),
        },
    }


def current():
    return {
        "standard": [describe(o) for o in standard_dataset()],
        "noisy": [describe(o) for o in noisy_dataset()],
    }


def _load():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _assert_matches(kind, built):
    golden = _load()[kind]
    assert [entry["name"] for entry in built] == [entry["name"] for entry in golden]
    for entry, expected in zip(built, golden):
        assert entry == expected, "%s observation %s differs" % (kind, entry["name"])


def test_standard_dataset_matches_golden():
    _assert_matches("standard", [describe(o) for o in standard_dataset()])


def test_noisy_dataset_matches_golden():
    _assert_matches("noisy", [describe(o) for o in noisy_dataset()])


if __name__ == "__main__" and sys.argv[1:] == ["regen"]:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(current(), handle, indent=1, sort_keys=True)
        handle.write("\n")
