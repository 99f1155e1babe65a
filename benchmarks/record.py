"""Record the reference digests that every benchmark pass checks.

    python3 benchmarks/record.py

Runs one unchecked pass per (workload, seed in ``SEEDS``), two at a
time, and writes reference.json: the sha256 of the ``matrix`` JSON per
seed (``matrix-j2`` must give the same bytes), the digest of each
seed-independent ``scan`` verdict, and the digest of all ``scan`` and
``arith`` results per seed.  Run it only on a commit whose outputs are
known to be right: the digests are the golden that later commits are
held to.
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

from run import REFERENCE, run_pass

SEEDS = list(range(25)) + [42]
WORKERS = 2


def main() -> int:
    jobs = [(w, s) for s in SEEDS for w in ("matrix", "scan", "arith")]
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(
            lambda job: run_pass(*job, reference=None), jobs))
    ref = {"matrix": {}, "scan": {"calls": None, "seeds": {}}, "arith": {}}
    for (workload, seed), result in zip(jobs, results):
        if result["failed"]:
            print("%s seed %d failed its own checks: %s"
                  % (workload, seed, result["failures"]), file=sys.stderr)
            return 1
        if workload == "scan":
            calls = result["call_digests"]
            if ref["scan"]["calls"] not in (None, calls):
                print("scan verdicts depend on the seed", file=sys.stderr)
                return 1
            ref["scan"]["calls"] = calls
            ref["scan"]["seeds"][str(seed)] = result["digest"]
        else:
            ref[workload][str(seed)] = result["digest"]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
