"""Pin every Section 7.1 region violation, margins included.

Section 7.1 compares correlated and independent confidence regions by
the model constraints each *definitely* violates; a definite violation
is a support LP over the region's box whose optimum is negative. The
§7.1 benchmark asserts only counts, and perfbench's goldens digest flags
and constraints, so without this file nothing would notice a margin
moving in its last bits.

``tests/golden/region_violations.json`` records, for each of the 48
cells (the 12 ``noisy_dataset()`` observations x correlated/independent
regions x the deduced m0/m7 cones), every ``Violation.to_dict()`` of
``identify_violations(cone, region, backend="scipy")``, in order. The
constraint's counter names are the cone's, so they are stored once per
model rather than once per violation. Regenerate deliberately with
``PYTHONPATH=src python benchmarks/test_sec71_region_violations.py regen``.

The margins are HiGHS optima, and another scipy may ship another HiGHS
whose optima differ in their last bits. So the file records the scipy it
was solved with: on that scipy every margin must match bit for bit, on
any other to within 1e-6, absolute or relative (constraints and flags
still exactly).
"""

import json
import math
import os
import sys

import scipy

from repro.cone import identify_violations
from repro.models import M_SERIES, build_model_cone, noisy_dataset

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "golden", "region_violations.json",
)

MODELS = ("m0", "m7")
KINDS = ("correlated", "independent")


def region_violations(observations):
    """``{"counters": {model: names}, "cells": {label: [record]}}``."""
    cones = {name: build_model_cone(M_SERIES[name]) for name in MODELS}
    counters = {name: list(cone.counters) for name, cone in cones.items()}
    cells = {}
    for observation in observations:
        for kind in KINDS:
            region = observation.region(correlated=kind == "correlated")
            for name, cone in cones.items():
                records = []
                for violation in identify_violations(cone, region, backend="scipy"):
                    record = violation.to_dict()
                    assert record["constraint"].pop("counters") == counters[name]
                    records.append(record)
                cells["%s/%s/%s" % (observation.name, kind, name)] = records
    return {"counters": counters, "cells": cells}


def _load():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _dump(data, handle):
    """One violation per line, so a moved margin diffs as one line."""
    handle.write('{"scipy": %s,\n "counters": %s,\n "cells": {' % (
        json.dumps(scipy.__version__), json.dumps(data["counters"], sort_keys=True)))
    for index, (label, records) in enumerate(data["cells"].items()):
        rows = "".join(
            "\n  %s%s" % (json.dumps(record, sort_keys=True), "," if i < len(records) - 1 else "")
            for i, record in enumerate(records)
        )
        handle.write('%s\n %s: [%s]' % ("," if index else "", json.dumps(label), rows))
    handle.write("\n}}\n")


def _near(record, pinned):
    """Equal but for a float margin within 1e-6 (absolute or relative)
    of the pinned one."""
    margin, expected = record["margin"], pinned["margin"]
    return dict(record, margin=None) == dict(pinned, margin=None) and (
        margin == expected
        or isinstance(margin, float) and isinstance(expected, float)
        and math.isclose(margin, expected, rel_tol=1e-6, abs_tol=1e-6)
    )


def test_sec71_region_violations_match_golden(noisy_observations):
    built = region_violations(noisy_observations)
    golden = _load()
    assert built["counters"] == golden["counters"]
    assert list(built["cells"]) == list(golden["cells"])
    exact = golden["scipy"] == scipy.__version__
    for label, records in built["cells"].items():
        pinned = golden["cells"][label]
        if exact:
            assert records == pinned, "cell %s differs" % label
        else:
            assert len(records) == len(pinned), "cell %s differs" % label
            assert all(map(_near, records, pinned)), "cell %s differs" % label
    assert sum(len(records) for records in built["cells"].values()) == 548


if __name__ == "__main__" and sys.argv[1:] == ["regen"]:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        _dump(region_violations(noisy_dataset()), handle)
