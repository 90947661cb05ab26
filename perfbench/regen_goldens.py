"""Re-record ``goldens.json`` from seed-0 runs of every workload.

Run it only after a change that is meant to alter the program's
outputs, and review the diff of ``goldens.json`` it leaves behind::

    python3 perfbench/regen_goldens.py
"""

import json
import os
import sys
import tempfile

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if CHECKOUT not in sys.path:
    sys.path.insert(0, CHECKOUT)

from perfbench import run  # noqa: E402
from perfbench.harness import UnitClock  # noqa: E402
from perfbench.reference import NOMINAL_SECONDS  # noqa: E402
from perfbench.workloads import GOLDENS_PATH, WORKLOADS  # noqa: E402


def main():
    sys.path.insert(0, run.SOURCE)
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    goldens = {}
    for name, workload_class in WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix="goldens-", dir=run.WORK_ROOT)
        workload = workload_class(0, workdir, {})
        clock = UnitClock(reference=lambda: NOMINAL_SECONDS)
        run.execute(workload, clock)
        errors = [unit for unit in clock.units if unit.error and "golden" not in unit.error]
        if errors:
            raise SystemExit("%s: %s failed: %s" % (name, errors[0].name, errors[0].error))
        section = goldens.setdefault(workload.golden_section or name, {})
        for key, value in workload.outputs.items():
            if section.get(key, value) != value:
                raise SystemExit("%s: %s disagrees between workloads" % (name, key))
            section[key] = value
        print("%s: %d outputs" % (name, len(workload.outputs)))
    with open(GOLDENS_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
