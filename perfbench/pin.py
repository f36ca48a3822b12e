"""Pin the exact output of every fixed job into expected.json.

    python3 perfbench/pin.py        (from the root of a pdvp checkout)

Run only when the job list changes.  Before writing, each output is checked
against what is known independently of the code that produced it: histogram
totals equal the size of the space, avoider counts equal known sequence
terms, each solved series equals the dynamic program to order 60, and each
verify check passes or fails as run.verify_status says.
"""

from __future__ import annotations

import json
import os
import sys
from math import comb

import run
import workloads

KNOWN = {
    "dist_123_S7": lambda d: d["counts"]["0"] == str(comb(14, 7) // 8),  # Catalan(7)
    "avoid_pair_t3n10": lambda d: d == "596",           # fib(15) - 10 - 4
    "avoid_gp231_gp132_S8": lambda d: d == str(2**7),   # V-shaped permutations
    "avoid_1234_S8": lambda d: d == "15767",            # OEIS A005802
}


def main() -> int:
    root = os.getcwd()
    env = run.child_env(root)
    pinned = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.fixed_jobs(workload)
        for job in jobs:
            if job["kind"] == "solve":
                job["naive_n"] = 0  # asks the child for the dp comparison
        payload, _ = run.run_pass(jobs, False, env, root, 600)
        if payload is None:
            return 1
        for job, row in zip(jobs, payload["jobs"]):
            if row["error"]:
                print(f"{job['id']}: {row['error']}", file=sys.stderr)
                return 1
            check, data = row["check"], row["data"]
            ok = True
            if "total" in check:
                ok = check["total"] == job["objects"]
            if "dp_equal" in check:
                ok = check["dp_equal"] and check["totals_ok"]
            if job["kind"] == "verify":
                ok = check == run.verify_status(job["check_id"])
            if job["id"] in KNOWN:
                ok = ok and KNOWN[job["id"]](data)
            if not ok:
                print(f"{job['id']}: output fails its independent check", file=sys.stderr)
                return 1
            pinned[job["id"]] = {"sha256": row["digest"], "output": data}
            print(job["id"], row["digest"][:16], round(row["seconds"], 3))
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
