"""yolokit's output contract: the digests of its deterministic outputs.

A change that means to alter one of these outputs updates its digest here
in the same commit and names the change in CHANGES.md. The values were
made with numpy 2.4.6; if another numpy version gives other bytes, record
that version's value beside this one rather than drop the check.

    python3 tests/contract.py WORKLOAD

exits 1 unless perfbench/out/WORKLOAD-seed1-trace0.json, which
`python3 perfbench/run.py --workload WORKLOAD --seed 1` writes, holds the
output digest below for WORKLOAD.
"""

import json
import os
import sys

NUMPY = "2.4.6"

# sha256 of C10's detection files and eval report (tests/test_acceptance.py)
C10 = "c6a5aa977457c50d1ab20be216e23b139838d331766bc8c2316274341c708fcf"

# `output_digest` of each perfbench workload at seed 1, as CI runs them
PERFBENCH_SEED1 = {
    "frames": "0676519142c345b09e5f912c9b1f3f332b416ba96b71cb5dc863747f87d50a63",
    "eval": "376c2c2058539c5a25fb86662df73e0709e0978071d031a7f38abdefc5ab4b4e",
    "cli": "be30d7567255578bbc59602109bf545df9f300def5e92eed6800ce4ced9ca082",
    "prep": "c11d645aef3a61a959f4da3208ca97dd302bd697b1282af7944f7fa677dedfbf",
}


def main(workload: str) -> int:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "perfbench", "out", f"{workload}-seed1-trace0.json")
    with open(path, encoding="utf-8") as fh:
        got = json.load(fh)["context"]["output_digest"]
    want = PERFBENCH_SEED1[workload]
    if got != want:
        print(f"{workload}: output digest {got}, expected {want} "
              f"(made with numpy {NUMPY})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
