"""One repetition of a workload, run in a fresh interpreter by run.py.

Reads {"jobs": [...], "trace": bool} as JSON on stdin.  Imports pdvp, parses
every pattern, then runs the jobs one at a time and prints one JSON line:

  ready        time.monotonic() when the first job was ready (CLOCK_MONOTONIC
               is system-wide on Linux, so run.py subtracts its spawn time)
  jobs         per job: seconds, error, output digest, checking data
  cal          speed samples taken while the jobs ran (SpeedProbe)
  peak_rss_kb  peak resident memory once the last job ended
  trace        with "trace": the tracer's report (tracing.py)

Checking data is computed after the last job ends, so it is never timed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import signal
import sys
import time

import oracle

_rng = random.Random(0)
CAL_SPEC = {"mode": "perm", "base": [1, 3, 2], "x": ["P"] * 4, "y": [], "z": ["P"] * 3}
CAL_PERMS = [_rng.sample(range(1, 9), 8) for _ in range(10)]
CAL_INTERVAL_S = 0.1


class SpeedProbe:
    """Samples the machine's speed while the jobs run.

    Every CAL_INTERVAL_S of wall time a timer signal times a small fixed piece
    of pure-Python work that shares no code with pdvp (about 2% of the time).
    Samples spread evenly over a pass, however long its jobs are; run.py
    divides job times by their mean to cancel the machine's speed drift.
    The garbage collector is off during a sample, so a sample never pays for
    collecting pdvp's heap, and a program that keeps more live objects does
    not read as a slower machine.  `spent` is the time taken by the samples,
    which jobs do not count.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a tick that arrives during a sample is dropped
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        for perm in CAL_PERMS:
            oracle.count(CAL_SPEC, perm)
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.spent += took
        self._busy = False

    def start(self):
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


def _table(table) -> dict:
    return {"n": table.length, "counts": {str(m): str(c) for m, c in sorted(table.counts.items())}}


def _prepare(job, pdvp):
    """Parse a job's inputs; returns (run, check) closures."""
    from pdvp import cli, exhaustive, problems, transfer
    from pdvp.pattern import Mode

    def parse(text, mode):
        if text.startswith("gp:"):
            return pdvp.parse_gp(text[3:], mode)
        return pdvp.parse_pattern(text, mode)

    kind = job["kind"]
    if kind in ("perm_dist", "word_dist"):
        perm = kind == "perm_dist"
        pat = parse(job["pattern"], Mode.PERMUTATION if perm else Mode.WORD)
        if perm:
            run = lambda: exhaustive.perm_distribution(pat, job["n"])
        else:
            run = lambda: exhaustive.word_distribution(pat, job["t"], job["n"])

        def check(table):
            counts = {str(m): c for m, c in table.counts.items()}
            return _table(table), {"total": table.total(), "counts": counts}

        return run, check
    if kind in ("perm_avoid", "word_avoid"):
        perm = kind == "perm_avoid"
        pats = [parse(p, Mode.PERMUTATION if perm else Mode.WORD) for p in job["patterns"]]
        if perm:
            run = lambda: exhaustive.perm_multi_avoiders(pats, job["n"])
        else:
            run = lambda: exhaustive.word_multi_avoiders(pats, job["t"], job["n"])
        return run, lambda count: (str(count), {"count": count})
    if kind == "problem":
        run = lambda: problems.problem_report(job["which"], job["max_size"])
        return run, lambda report: (report.to_json_obj(), {})
    if kind in ("solve", "dp"):
        sp = transfer.StatPattern(parse(job["pattern"], Mode.WORD))
        t, order = job["t"], job["order"]
        if kind == "dp":
            run = lambda: transfer.dp_series(sp, t, order)
            return run, lambda table: (table.to_json_obj(), {})

        def run():
            gf = transfer.solve_transfer_system(sp, t)
            return gf, transfer.expand_rational(gf, order)

        def check(out):
            gf, series = out
            data = {"gf": gf.to_json_obj(), "series": series.to_json_obj()}
            if "naive_n" not in job:
                return data, {}
            dp = transfer.dp_series(sp, t, order)
            rows = [series.z_poly(n) for n in range(job["naive_n"] + 1)]
            return data, {
                "dp_equal": dp == series,
                "totals_ok": series.totals() == [t**n for n in range(order + 1)],
                "rows": [{str(j): c for j, c in row.items()} for row in rows],
            }

        return run, check
    if kind == "verify":
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify", "--check", job["check_id"]])
            return code, out.getvalue()

        def check(result):
            code, text = result
            status = {}
            for line in text.splitlines():
                word, _, name = line.partition(" ")
                if word in ("PASS", "FAIL"):
                    status[name] = word
            # the text carries every value the check computed
            return {"exit": code, "text": text}, {"exit": code, "status": status}

        return run, check
    raise ValueError(f"unknown job kind {kind!r}")


def main() -> None:
    spec = json.load(sys.stdin)
    import pdvp
    import pdvp.cli  # noqa: F401  (the CLI imports every module)

    tracer = None
    if spec["trace"]:
        import tracing

        modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                   if name.startswith("pdvp.")}
        modules["pdvp"] = pdvp
        tracer = tracing.install(modules)

    prepared = []
    for job in spec["jobs"]:
        try:
            prepared.append(_prepare(job, pdvp))
        except Exception as exc:  # a job that cannot even be parsed fails
            prepared.append(exc)
    ready = time.monotonic()

    probe = SpeedProbe()
    probe.start()
    timed = []
    for job, prep in zip(spec["jobs"], prepared):
        start, spent = time.perf_counter(), probe.spent
        if isinstance(prep, Exception):
            out, err = None, f"{type(prep).__name__}: {prep}"
        else:
            try:
                out = tracer.run_job(job["id"], prep[0]) if tracer else prep[0]()
                err = None
            except Exception as exc:
                out, err = None, f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - start - (probe.spent - spent)
        timed.append((out, err, took))
    probe.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:  # copied now, so the checking below stays out of the trace
        trace = json.loads(json.dumps(tracer.report()))
        trace["prep_cache_size"] = len(getattr(pdvp.matcher, "_PREP_CACHE", ()))

    results = []
    for job, prep, (out, err, took) in zip(spec["jobs"], prepared, timed):
        row = {"id": job["id"], "seconds": took, "error": err}
        if err is None:
            try:
                data, check = prep[1](out)
                row["digest"] = digest(data)
                row["check"] = check
                # small outputs travel whole, for pin.py to show
                row["data"] = data if len(_canonical(data)) <= 400 else None
            except Exception as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
        results.append(row)

    payload = {"ready": ready, "jobs": results, "peak_rss_kb": peak_kb, "cal": probe.samples}
    if tracer:
        payload["trace"] = trace
    sys.stdout.write(json.dumps(payload) + "\n")


if __name__ == "__main__":
    main()
