"""Run the benchmark over several seeds and record its spread and baseline.

    python3 perfbench/baseline.py [--write]

Run from the root of a pdvp checkout.  Runs every workload once for each of
SEEDS seeds, for BENCHMARK.json's run_seconds.  Seeds go in the outer loop and
workloads in the inner one, so a slow spell of the machine is shared out
instead of landing on one workload.  For each end-to-end metric this prints
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, and the same for the unscaled times (raw_wall_s,
raw_setup_s: each run's median over its passes).  --write also makes one
traced run per workload and stores everything in perfbench/baseline.json,
beside the figures the roadmap recorded before the benchmark existed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)

# (figure recorded before this benchmark existed, job or metric that measures the nearest thing)
ROADMAP_FIGURES = [
    ("word scan, t=4, n=10: 15.3 s", "job dist_P_t4n8 (t=4, n=8: 1/16 of the words)"),
    ("perm_distribution on S_9: 4.7 s", "job dist_gp2-31_S8 (S_8: 1/9 of the objects)"),
    ("dp_series to order 30: under 20 ms", "job dp_W4_t6 (order 60, 216 states)"),
    ("solve, 12|P,{1,2},P|(1,2,{2})|P,P: 0.14 s at t=4, 0.77 s at t=5, 4.9 s at t=6",
     "job solve_P_t5 (solve plus expansion to order 60)"),
    ("solve, 12|P,{1,2,3},P|(1,2,{2})|P,P at t=4 (64 states): 61 s",
     "job solve_W4_t3 (27 states)"),
    ("pdvp verify: 9.6 s (9.1-10.5 s over 5 fresh runs); words123 5.6 s, ank 3.1 s",
     "workload verify, wall_s; traced checks.words123_s and checks.ank_s"),
    ("solve at t=6: 4.7-5.8 s over 6 runs", "end_to_end gf wall_s quartiles (whole pass)"),
]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed: {proc.stderr[-2000:]}")
    detail = json.loads(lines[-2].removeprefix("detail "))
    return json.loads(lines[-1]), detail


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    values = {w: {} for w in workloads.WORKLOADS}
    jobs = {w: {} for w in workloads.WORKLOADS}
    ok = True
    for seed in SEEDS:
        for w in workloads.WORKLOADS:
            result, detail = run_once(w, seed, seconds, 0)
            ok = ok and result["correct"]
            for k, v in result["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
            for k in ("raw_wall_s", "raw_setup_s"):
                raw = statistics.median(p[k] for p in detail["passes"])
                values[w].setdefault(k, []).append(raw)
            for jid, took in detail["jobs"].items():
                jobs[w].setdefault(jid, []).append(took)
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f", passes={len(detail['passes'])}, correct={result['correct']}", flush=True)

    table = {w: {k: summary(v) for k, v in ms.items()} for w, ms in values.items()}
    for w, ms in table.items():
        for k, s in ms.items():
            print(f"{w:10s} {k:14s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {100 * s['spread']:.2f}%")
    if args.write:
        traced = {}
        for w in workloads.WORKLOADS:
            result, detail = run_once(w, 1, seconds, 1)
            ok = ok and result["correct"]
            traced[w] = {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "work_counts_per_job": detail.get("work", {})}
        record = {
            "revision": git_revision(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seeds": list(SEEDS),
            "run_seconds": seconds,
            "end_to_end": table,
            "job_seconds_median": {w: {j: statistics.median(t) for j, t in js.items()}
                                   for w, js in jobs.items()},
            "per_layer_seed_1": traced,
            "roadmap_figures": [{"recorded": a, "measured_by": b} for a, b in ROADMAP_FIGURES],
        }
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
