"""Pin the digests the benchmark checks against: ``digests.json`` maps
``<workload>/<seed>`` to the generated input's digest and, for the sequence
workloads, the digest of the rollup rows computed in process (no Ray).

Correction semantics are bit-exact by rule, so the pins taken at one commit
hold for every later one; re-pin only when the benchmark's inputs change.

    python3 perfbench/pin.py 100      # seeds 0..99
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    n_seeds = int(sys.argv[1])
    pins = {}
    work = os.path.join(ROOT, ".pbwork", "pin")
    for name, cls in WORKLOADS.items():
        for seed in range(n_seeds):
            wl = cls()
            info = wl.prepare(work, seed)
            pins[f"{name}/{seed}"] = {"input": info["digest"]}
            if hasattr(wl, "reference"):
                pins[f"{name}/{seed}"]["output"] = wl.reference()
            shutil.rmtree(work)
    with open(os.path.join(os.path.dirname(__file__), "digests.json"), "w") as f:
        json.dump(pins, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
