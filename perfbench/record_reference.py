"""Record reference.json: the digest of every output the workloads produce.

    python3 perfbench/record_reference.py

Run it only on code whose outputs are known to be right: the benchmark
counts every later difference from this record as a failure. It refuses to
record a report with a mismatch or a witness that does not replay.
"""

from __future__ import annotations

import json
import random
import sys

from check import REFERENCE, WitnessReplay, item_digests
from run import fresh_import, run_pass, SRC
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, SRC)
    fresh_import()
    reference: dict[str, str] = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        workload.setup()
        replay = WitnessReplay(workload.cap)
        for item in run_pass(workload, random.Random(0)).items:
            problems = [item.error] if item.error else replay.problems(item)
            if not item.error and item.doc.get("mismatches"):
                problems.append(f"{item.doc['mismatches']} mismatches")
            if problems:
                print(f"refusing to record {name}/{item.key}: {problems}", file=sys.stderr)
                return 1
            reference.update(item_digests(name, item))
        print(f"{name}: recorded", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(reference)} digests written to {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
