"""Self-test of the benchmark's exact work counts.

    python3 -m pytest perfbench/test_counts.py      (from a checkout root)

Traced runs with the same seed must report identical work counts for every
job; a different seed may change only the seeded jobs.  verify has no seeded
part and takes longest, so it is left out.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

EXACT = ("objects", "states", "bareiss_n", "matcher.count.calls", "matcher.exists.calls",
         "matcher.search.calls", "transfer.exact_div.calls")


def traced_work(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    *_, detail, result = proc.stdout.strip().splitlines()
    assert json.loads(result)["correct"], proc.stderr
    return json.loads(detail.removeprefix("detail "))["work"]


@pytest.mark.parametrize("workload", ["scan_dist", "scan_avoid", "gf"])
def test_counts_repeat_and_only_seeded_jobs_move(workload):
    first, again, other = (traced_work(workload, s) for s in (1, 1, 2))
    assert first == again
    assert any(first[j][k] for j in first for k in EXACT if k in first[j])

    fixed = {j["id"] for j in workloads.fixed_jobs(workload)}
    for job_id in fixed:
        assert first[job_id] == other[job_id], job_id
    seeded_1 = workloads.seeded_jobs(workload, 1)
    seeded_2 = workloads.seeded_jobs(workload, 2)
    assert [j["id"] for j in seeded_1] == [j["id"] for j in seeded_2]
    assert seeded_1 != seeded_2
