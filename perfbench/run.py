"""pdvp benchmark: one closed-loop client running a workload's jobs.

    python3 perfbench/run.py --workload scan_dist --seed 1 --seconds 30 --trace 0

Run from the root of a pdvp checkout; the program is imported from ./src.
Each repetition (pass) runs the workload's job list once in a fresh child
interpreter, one job at a time, with PDVP_BUDGET removed from its
environment, so no in-process cache (lru_caches, compiled patterns, IntSet
memos) survives from one pass to the next.  Only the child computes, so at
most two processes are alive.  Passes repeat until another would overrun
--seconds; every job of every pass is checked (see check_job).

--trace 0 reports, as medians over passes:
  wall_s         the pass's job times added up (first job start to last job end,
                 less the speed samples taken meanwhile)
  objects_per_s  objects of S_n / {1..t}^n the pass settles, per second of job time.
                 The objects are fixed per workload, so this is wall_s turned
                 into a throughput; on gf and verify it adds nothing to wall_s
  setup_s        child spawn to first job ready: interpreter start, import, parsing
  peak_rss_mb    peak resident memory of the child

Times are scaled to a reference speed.  On shared, virtualised hardware the
interpreter's speed drifts by tens of percent over minutes, so the child
samples its own speed every 0.1 s while the jobs run (child.SpeedProbe), and
every time of a pass is multiplied by CAL_REF_S over that pass's mean sample.
The mean, not the median: the machine switches between fast and slow spells
within a pass, and the jobs slow down by the share of time spent in slow
ones, which the mean follows and the median does not.  Over the same
scan_dist passes on a 2-vCPU virtual machine, the coefficient of variation of
wall_s was 14% raw, 9% scaled by the median sample and 4% scaled by the
mean (gf: 11%, 6%, 5%).  The raw times and scale factors are in the detail
line, and baseline.py records the spread of both.

--trace 1 alternates untraced and traced passes (tracing.py) and reports the
per-layer figures of the traced passes, as medians, plus trace.overhead, the
traced-to-untraced wall_s ratio.  Kept spans and per-job work counts are
written under .perfbench/ in the checkout.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
line before it ("detail ...") holds per-job medians and work counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations, product

import oracle
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT = 170
# Times are reported as if one SpeedProbe sample took CAL_REF_S: a fixed
# reference, about the mean sample in a slow spell of a 2-vCPU x86-64
# virtual machine with CPython 3.11
CAL_REF_S = 0.0017


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PDVP_BUDGET", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(jobs, trace: bool, env: dict, root: str, timeout: float):
    """One fresh child over the job list: (child payload or None, setup seconds)."""
    stdin = json.dumps({"jobs": jobs, "trace": trace})
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD], input=stdin, capture_output=True, text=True,
            env=env, cwd=root, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print("child timed out", file=sys.stderr)
        return None, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None, None
    payload = json.loads(lines[-1])
    return payload, payload["ready"] - spawned


# ---------------------------------------------------------------------------
# correctness


def _space(job):
    if job["kind"].startswith("perm"):
        return permutations(range(1, job["n"] + 1))
    return product(range(1, job["t"] + 1), repeat=job["n"])


def naive_answers(jobs) -> dict:
    """What the naive oracle says each seeded job must produce (untimed)."""
    out = {}
    for job in jobs:
        kind, t = job["kind"], job.get("t")
        if kind.endswith("_dist") and "spec" in job:
            counts = Counter(str(oracle.count(job["spec"], obj, t)) for obj in _space(job))
            out[job["id"]] = dict(counts)
        elif "specs" in job:
            out[job["id"]] = sum(oracle.avoids_all(job["specs"], obj, t) for obj in _space(job))
        elif "naive_n" in job:
            out[job["id"]] = [
                dict(Counter(str(oracle.count(job["spec"], w, t))
                             for w in product(range(1, t + 1), repeat=n)))
                for n in range(job["naive_n"] + 1)
            ]
    return out


def verify_status(check_id: str) -> dict:
    """What one check must give: together the checks give `pdvp verify`'s exit
    code 1, with FAIL exactly on the three contradicted reference values."""
    fails = check_id in workloads.VERIFY_FAILS
    return {"exit": int(fails), "status": {check_id: "FAIL" if fails else "PASS"}}


def check_job(job: dict, row: dict, expected: dict, naive: dict) -> str | None:
    """None if the job's output is right, else the reason it is not.

    Seeded jobs are checked against the naive oracle, fixed jobs against the
    digest of their whole output pinned in expected.json.
    """
    if row.get("error"):
        return row["error"]
    check = row["check"]
    jid, kind = job["id"], job["kind"]
    if jid in naive:
        if kind.endswith("_dist"):
            if check["total"] != job["objects"]:
                return f"histogram total {check['total']} != {job['objects']}"
            if check["counts"] != naive[jid]:
                return "histogram differs from the naive oracle's"
        elif kind.endswith("_avoid"):
            if check["count"] != naive[jid]:
                return f"avoiders {check['count']} != naive {naive[jid]}"
        else:
            if not (check["dp_equal"] and check["totals_ok"]):
                return "solved series differs from the dp, or a row total is not t^n"
            if check["rows"] != naive[jid]:
                return "series rows differ from a naive word scan"
        return None
    if kind == "verify" and check != verify_status(job["check_id"]):
        return f"verify: {check}, expected {verify_status(job['check_id'])}"
    want = expected.get(jid)
    if want is None:
        return "no pinned output"
    if row["digest"] != want["sha256"]:
        return f"digest {row['digest'][:12]} != pinned {want['sha256'][:12]}"
    return None


# ---------------------------------------------------------------------------
# passes and metrics


class Tally:
    def __init__(self, jobs, expected, naive):
        self.jobs, self.expected, self.naive = jobs, expected, naive
        self.attempted = 0
        self.failed = 0
        self.job_times: dict[str, list[float]] = {j["id"]: [] for j in jobs}

    def record(self, payload, setup) -> dict | None:
        """Check one pass; returns its end-to-end figures, None if it crashed."""
        self.attempted += len(self.jobs)
        if payload is None:
            self.failed += len(self.jobs)
            return None
        cal = payload["cal"]
        scale = CAL_REF_S / statistics.mean(cal)
        rows = {row["id"]: row for row in payload["jobs"]}
        busy = 0.0
        for job in self.jobs:
            row = rows.get(job["id"], {"error": "missing from child output"})
            why = check_job(job, row, self.expected, self.naive)
            if why is not None:
                self.failed += 1
                print(f"FAILED {job['id']}: {why}", file=sys.stderr)
            if "seconds" in row:
                took = row["seconds"]
                busy += took
                self.job_times[job["id"]].append(took * scale)
        return {
            "wall_s": busy * scale,
            "objects_per_s": sum(j["objects"] for j in self.jobs) / (busy * scale),
            "setup_s": setup * scale,
            "peak_rss_mb": payload["peak_rss_kb"] / 1024,
            "raw_wall_s": busy,
            "raw_setup_s": setup,
            "scale": scale,
        }


def median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def measure(jobs, args, env, root, tally: Tally):
    """Alternate untraced (and traced) passes until another round would overrun."""
    began = time.monotonic()
    plain, traced, rounds = [], [], []
    while True:
        start = time.monotonic()
        payload, setup = run_pass(jobs, False, env, root, CHILD_TIMEOUT - (start - began))
        figures = tally.record(payload, setup)
        if figures is not None:
            plain.append(figures)
        if args.trace:
            left = CHILD_TIMEOUT - (time.monotonic() - began)
            payload, setup = run_pass(jobs, True, env, root, left)
            figures = tally.record(payload, setup)
            if figures is not None:
                traced.append((figures, payload["trace"]))
        rounds.append(time.monotonic() - start)
        if time.monotonic() - began + statistics.median(rounds) > args.seconds:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pdvp", "__init__.py")):
        print(f"error: no pdvp sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    jobs = workloads.jobs(args.workload, args.seed)
    tally = Tally(jobs, expected, naive_answers(jobs))
    plain, traced = measure(jobs, args, child_env(root), root, tally)
    if not plain or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    detail = {"jobs": {jid: statistics.median(ts) for jid, ts in tally.job_times.items() if ts},
              "passes": [{k: p[k] for k in ("raw_wall_s", "raw_setup_s", "scale")}
                         for p in plain]}
    if args.trace:
        layers = []
        for figures, trace in traced:
            layer = tracing.layer_metrics(trace, workloads.VERIFY_CHECKS)
            layers.append({k: v * figures["scale"] if tracing.unit(k) in ("s", "us") else v
                           for k, v in layer.items()})
        metrics = {k: {"value": statistics.median(l[k] for l in layers),
                       "unit": tracing.unit(k)} for k in layers[0]}
        overhead = median_of([f for f, _ in traced], "wall_s") / median_of(plain, "wall_s")
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        detail["work"] = traced[0][1]["jobs"]
        out_dir = os.path.join(root, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(traced[0][1], fh)
    else:
        metrics = {
            "wall_s": {"value": median_of(plain, "wall_s"), "unit": "s"},
            "objects_per_s": {"value": median_of(plain, "objects_per_s"), "unit": "1/s"},
            "setup_s": {"value": median_of(plain, "setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": median_of(plain, "peak_rss_mb"), "unit": "MiB"},
        }
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
