"""Outside-in tracing of the pdvp modules for the benchmark's traced run.

`install` replaces public entry points (and the few private ones other
modules call directly) with timing wrappers, from outside the package: the
program itself carries no instrumentation.  Every wrapped call is a span with
a name, start, end and parent; a span's self time is its duration minus the
durations of its traced children.

Spans of coarse calls (jobs, scans, solves, checks) stay in memory until the
pass ends.  Calls made millions of times per pass (matcher searches, IntSet
membership, polynomial products, exact divisions) are folded into per-name
totals as they close, so memory stays bounded; their time still counts
against their parent's self time.  The traced pass runs in its own fresh
process, so nothing here is ever undone.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from math import factorial

clock = time.perf_counter

COUNTERS = (
    "exists_true",    # matcher._exists calls that found an occurrence
    "objects",        # items drawn from the scan modules' permutations/product
    "scan_space",     # |S_n| or t^n summed over exhaustive.* calls
    "avoiders",       # avoiders found by exhaustive.* calls
    "states",         # suffix states t^(W-1) summed over solve_transfer_system calls
    "bareiss_n",      # matrix dimension summed over det_bareiss calls
    "det_terms",      # terms in the determinants det_bareiss returned
    "dp_transitions", # (state, letter) steps taken by dp_series
)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []   # open spans: [child seconds, kept-span index]
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.spans: list = []          # kept spans: (name, start, end, parent index)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.jobs: dict[str, dict] = {}
        self.missing: list[str] = []

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, keep=True, on_result=None, drain=False):
        """Span wrapper; `drain` runs a generator to the end inside the span."""
        stack, spans = self.stack, self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        depth = [0]  # nested calls of one name add their time once

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            up = parent[1] if parent else -1
            if keep:
                frame = [0.0, len(spans)]
                spans.append(None)
            else:
                frame = [0.0, up]
            stack.append(frame)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            finally:
                end = clock()
                stack.pop()
                depth[0] -= 1
                took = end - start
                stat[0] += 1
                stat[2] += took - frame[0]
                if not depth[0]:
                    stat[1] += took
                if parent:
                    parent[0] += took
                if keep:
                    spans[frame[1]] = (name, start, end, up)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def wrap_leaf(self, name, fn):
        """Cheaper wrapper for hot calls that call nothing traced."""
        stack = self.stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args):
            start = clock()
            result = fn(*args)
            took = clock() - start
            stat[0] += 1
            stat[1] += took
            stat[2] += took
            if stack:
                stack[-1][0] += took
            return result

        return traced

    def counting(self, key, gen):
        """Wrap an iterator factory so every item drawn adds one to a counter."""
        counters = self.counters

        def make(*args, **kwargs):
            for item in gen(*args, **kwargs):
                counters[key] += 1
                yield item

        return make

    def add(self, key, amount):
        self.counters[key] += amount

    # -- jobs -----------------------------------------------------------------

    def run_job(self, job_id, fn):
        """Run one job as a kept span and record the work counts it caused."""
        before = self._snapshot()
        try:
            return self.wrap("job", fn)()
        finally:
            after = self._snapshot()
            self.jobs[job_id] = {k: after[k] - before.get(k, 0) for k in after
                                 if after[k] != before.get(k, 0)}

    def _snapshot(self) -> dict:
        snap = {f"{name}.calls": st[0] for name, st in self.stats.items()}
        snap.update(self.counters)
        return snap

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "counters": self.counters,
            "jobs": self.jobs,
            "spans": self.spans,
            "missing": self.missing,
        }


def _replace(modules, old, new):
    """Point every module attribute bound to `old` at `new`."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def install(modules: dict) -> Tracer:
    """Wrap the layers of an imported pdvp package, given as {short name: module}."""
    tr = Tracer()
    mods = list(modules.values())
    add = tr.add

    def patch(owner, attr, name, *, keep=True, on_result=None, drain=False, leaf=False):
        fn = getattr(owner, attr, None)
        if fn is None:
            tr.missing.append(name)
            return
        if leaf:
            new = tr.wrap_leaf(name, fn)
        else:
            new = tr.wrap(name, fn, keep=keep, on_result=on_result, drain=drain)
        _replace(mods + [owner], fn, new)  # a class may bind it twice (__rmul__)

    intset, matcher, transfer = modules["intset"], modules["matcher"], modules["transfer"]
    int_set = getattr(intset, "IntSet", None)
    patch(int_set, "__contains__", "intset.contains", leaf=True)
    patch(int_set, "members_up_to", "intset.members_up_to", leaf=True)

    patch(modules["dsl"], "parse_pattern", "dsl.parse_pattern")
    patch(modules["dsl"], "parse_gp", "dsl.parse_gp")

    patch(matcher, "_count", "matcher.count", keep=False)
    patch(matcher, "_exists", "matcher.exists", keep=False,
          on_result=lambda a, k, found: found and add("exists_true", 1))
    patch(matcher, "_search", "matcher.search", keep=False, drain=True)

    exhaustive = modules["exhaustive"]
    for attr in ("perm_distribution", "perm_multi_avoiders",
                 "word_distribution", "word_multi_avoiders"):
        fn = getattr(exhaustive, attr, None)
        if fn is not None:
            patch(exhaustive, attr, f"exhaustive.{attr}", on_result=_scan_hook(tr, fn))
    for mod in (exhaustive, modules["checks"], modules["problems"]):
        for attr, val in list(vars(mod).items()):
            if val is itertools.permutations or val is itertools.product:
                setattr(mod, attr, tr.counting("objects", val))

    def solved(args, kwargs, result):
        bound = inspect.signature(solve).bind(*args, **kwargs).arguments
        add("states", bound["t"] ** max(bound["sp"].window_width - 1, 0))

    def eliminated(args, kwargs, det):
        add("bareiss_n", len(args[0]))
        add("det_terms", len(det.terms()))

    solve = getattr(transfer, "solve_transfer_system", None)
    patch(transfer, "solve_transfer_system", "transfer.solve", on_result=solved)
    patch(transfer, "dp_series", "transfer.dp")
    patch(transfer, "expand_rational", "transfer.expand")
    patch(transfer, "det_bareiss", "transfer.bareiss", on_result=eliminated)
    patch(transfer, "exact_div", "transfer.exact_div", keep=False)
    patch(getattr(transfer, "BivarPoly", None), "__mul__", "transfer.poly_mul", keep=False)

    # dp_series takes one window counter per call and calls it once per
    # (state, letter) transition
    window = getattr(transfer, "_window_occurrences", None)
    if window is None:
        tr.missing.append("transfer.dp_transitions")
    else:
        def counted_window(*args, **kwargs):
            ending_at_last = window(*args, **kwargs)

            def step(word):
                tr.counters["dp_transitions"] += 1
                return ending_at_last(word)

            return step

        _replace(mods, window, counted_window)

    patch(modules["problems"], "problem_report", "problems.report")

    formulas = modules["formulas"]
    for attr, val in list(vars(formulas).items()):
        if (not attr.startswith("_") and callable(val) and not isinstance(val, type)
                and getattr(val, "__module__", None) == formulas.__name__):
            patch(formulas, attr, f"formulas.{attr}")

    registry = getattr(modules["checks"], "CHECKS", {})
    for check_id, fn in list(registry.items()):
        registry[check_id] = tr.wrap(f"checks.{check_id}", fn)
    if tr.missing:
        print(f"tracing: not found, reported as 0: {', '.join(tr.missing)}", file=sys.stderr)
    return tr


def _scan_hook(tr: Tracer, fn):
    """Adds an exhaustive scan's space size and avoider count to the counters."""
    sig = inspect.signature(fn)
    perm = "t" not in sig.parameters

    def hook(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        n = bound["n"]
        tr.add("scan_space", factorial(n) if perm else bound["t"] ** n)
        tr.add("avoiders", result if isinstance(result, int) else result[0])

    return hook


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass


def layer_metrics(report: dict, check_ids) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name."""
    stats = report["stats"]
    c = report["counters"]

    def calls(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[0] for n in names)

    def incl(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[1] for n in names)

    def self_s(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[2] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    match = ("matcher.count", "matcher.exists", "matcher.search")
    scans = tuple(n for n in stats if n.startswith("exhaustive."))
    forms = tuple(n for n in stats if n.startswith("formulas."))
    out = {
        "intset.contains_calls": calls("intset.contains"),
        "intset.members_up_to_calls": calls("intset.members_up_to"),
        "intset.self_s": self_s("intset.contains", "intset.members_up_to"),
        "dsl.parse_calls": calls("dsl.parse_pattern", "dsl.parse_gp"),
        "dsl.parse_s": incl("dsl.parse_pattern", "dsl.parse_gp"),
        "matcher.count_calls": calls("matcher.count"),
        "matcher.exists_calls": calls("matcher.exists"),
        "matcher.search_calls": calls("matcher.search"),
        "matcher.self_s": self_s(*match),
        "matcher.us_per_call": 1e6 * ratio(self_s(*match), calls(*match)),
        "matcher.exists_true_ratio": ratio(c["exists_true"], calls("matcher.exists")),
        "matcher.prep_cache_size": report["prep_cache_size"],
        "exhaustive.objects": c["objects"],
        "exhaustive.self_s": self_s(*scans),
        "exhaustive.matcher_calls_per_object": ratio(calls(*match), c["objects"]),
        "exhaustive.avoider_ratio": ratio(c["avoiders"], c["scan_space"]),
        "transfer.states": c["states"],
        "transfer.solve_s": incl("transfer.solve"),
        "transfer.bareiss_calls": calls("transfer.bareiss"),
        "transfer.bareiss_n": c["bareiss_n"],
        "transfer.bareiss_s": incl("transfer.bareiss"),
        "transfer.exact_div_calls": calls("transfer.exact_div"),
        "transfer.exact_div_s": incl("transfer.exact_div"),
        "transfer.poly_mul_calls": calls("transfer.poly_mul"),
        "transfer.det_terms": c["det_terms"],
        "transfer.dp_transitions": c["dp_transitions"],
        "transfer.dp_s": incl("transfer.dp"),
        "transfer.expand_s": incl("transfer.expand"),
        "problems.s": incl("problems.report"),
        "formulas.calls": calls(*forms),
        # formulas call no other traced layer, so their self times add up to
        # the time spent in formulas
        "formulas.s": self_s(*forms),
    }
    for check_id in check_ids:
        out[f"checks.{check_id}_s"] = incl(f"checks.{check_id}")
    return out


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("us_per_call"):
        return "us"
    if metric.endswith(("_ratio", "_per_object", "overhead")):
        return "ratio"
    return "count"
