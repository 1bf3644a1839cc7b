"""Spans around the pipeline's layer calls, recorded from outside mkg.

``install`` replaces functions at the module globals where the pipeline
looks them up with wrappers that record one span per call: name, parent
span, wall start and end (``perf_counter``), thread CPU start and end
(``thread_time``) and two integers ``a`` and ``b`` describing the
outcome.  Each thread keeps its own span stack and columns, so spans
recorded by the scan's worker threads never interleave.  Spans stay in
memory until ``dump`` writes them out; ``summarize`` turns a dump into
the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import math
import threading
import time
from array import array
from pathlib import Path

# (module, attribute, span name); the pipeline calls each of these
# through the named module's globals
WRAPPED = (
    ("mkg.verifier", "verify_conjecture", "verify"),
    ("mkg.verifier", "parse_graph6", "parse"),
    ("mkg.verifier", "build_matching_kneser", "kneser"),
    ("mkg.verifier", "ex_exact", "ex"),
    ("mkg.verifier", "is_snark", "snark"),
    ("mkg.verifier", "chromatic_number", "chi"),
    ("mkg.kneser", "enumerate_matchings", "enumerate"),
    ("mkg.extremal", "has_matching_of_size", "oracle"),
)
NAMES = tuple(w[2] for w in WRAPPED)
FIELDS = (("name", "b"), ("parent", "q"), ("start", "d"), ("end", "d"),
          ("cpu_start", "d"), ("cpu_end", "d"), ("a", "q"), ("b", "q"))


def _outcome(name: str, result) -> tuple[int, int]:
    """(a, b) recorded for a call that returned."""
    if name == "enumerate":
        return len(result), 0  # r-matchings found
    if name == "oracle":
        return int(result is not None), 0  # 1 when an r-matching exists
    if name == "kneser":
        return result.m, result.n  # Kneser edges and vertices
    return 0, 0


def _failure(name: str, exc: BaseException) -> tuple[int, int]:
    """(a, b) recorded for a call that raised: chi's budget exhaustion
    records (1, upper - lower bound); anything else records (-1, 0)."""
    if name == "chi" and hasattr(exc, "upper_bound"):
        return 1, exc.upper_bound - exc.lower_bound
    return -1, 0


class _Columns:
    """One thread's spans, column-wise, plus its stack of open spans."""

    def __init__(self):
        self.cols = {f: array(t) for f, t in FIELDS}
        self.stack: list[int] = []

    def open(self, code: int, start: float, cpu_start: float) -> int:
        c = self.cols
        i = len(c["name"])
        c["name"].append(code)
        c["parent"].append(self.stack[-1] if self.stack else -1)
        c["start"].append(start)
        c["cpu_start"].append(cpu_start)
        # filled in by close
        c["end"].append(0.0)
        c["cpu_end"].append(0.0)
        c["a"].append(0)
        c["b"].append(0)
        self.stack.append(i)
        return i

    def close(self, i: int, cpu_end: float, end: float,
              outcome: tuple[int, int]) -> None:
        c = self.cols
        c["cpu_end"][i] = cpu_end
        c["end"][i] = end
        c["a"][i], c["b"][i] = outcome
        self.stack.pop()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads: list[_Columns] = []

    def _columns(self) -> _Columns:
        cols = getattr(self._local, "cols", None)
        if cols is None:
            cols = self._local.cols = _Columns()
            self._threads.append(cols)
        return cols

    def wrap(self, fn, code: int):
        name = NAMES[code]
        perf = time.perf_counter
        cpu = time.thread_time

        def traced(*args, **kwargs):
            c = self._columns()
            i = c.open(code, perf(), cpu())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                c.close(i, cpu(), perf(), _failure(name, exc))
                raise
            c.close(i, cpu(), perf(), _outcome(name, result))
            return result

        return traced

    def dump(self, directory: Path) -> None:
        counts = [len(c.cols["name"]) for c in self._threads]
        with open(directory / "spans.bin", "wb") as fh:
            for c in self._threads:
                for f, _ in FIELDS:
                    c.cols[f].tofile(fh)
        (directory / "spans.json").write_text(json.dumps(
            {"names": NAMES, "fields": FIELDS, "threads": counts}))


def install() -> Tracer:
    tracer = Tracer()
    for code, (module, attr, _) in enumerate(WRAPPED):
        mod = importlib.import_module(module)
        setattr(mod, attr, tracer.wrap(getattr(mod, attr), code))
    return tracer


def load(directory: Path) -> list[dict]:
    """The dumped spans, one dict of columns per thread."""
    index = json.loads((directory / "spans.json").read_text())
    threads = []
    with open(directory / "spans.bin", "rb") as fh:
        for count in index["threads"]:
            cols = {}
            for f, t in index["fields"]:
                cols[f] = array(t)
                cols[f].fromfile(fh, count)
            threads.append(cols)
    return threads


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summarize(threads: list[dict]) -> tuple[dict, dict, dict]:
    """Per-layer metrics, the counters that must repeat exactly between
    two traced runs, and the self-check results."""
    code = {n: i for i, n in enumerate(NAMES)}
    k = len(NAMES)
    self_wall = [0.0] * k
    self_cpu = [0.0] * k
    calls = [0] * k
    sum_a = [0] * k
    sum_b = [0] * k
    pairs = 0
    burn_wall = burn_cpu = 0.0
    undecided = gap = 0
    instance_s = []
    wait = 0.0
    min_self = 0.0
    tree_self = tree_wall = 0.0
    verify = code["verify"]
    for cols in threads:
        name, parent = cols["name"], cols["parent"]
        n = len(name)
        dur = [e - s for s, e in zip(cols["start"], cols["end"])]
        cdur = [e - s for s, e in zip(cols["cpu_start"], cols["cpu_end"])]
        child_wall = [0.0] * n
        child_cpu = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_wall[p] += dur[i]
                child_cpu[p] += cdur[i]
                root[i] = root[p]  # parents precede their children
        a, b = cols["a"], cols["b"]
        for i in range(n):
            c = name[i]
            sw = dur[i] - child_wall[i]
            sc = cdur[i] - child_cpu[i]
            min_self = min(min_self, sw, sc)
            self_wall[c] += sw
            self_cpu[c] += sc
            calls[c] += 1
            sum_a[c] += a[i]
            sum_b[c] += b[i]
            if name[root[i]] == verify:
                tree_self += sw
            if parent[i] < 0:
                wait += dur[i] - cdur[i]
                if c == verify:
                    tree_wall += dur[i]
                    instance_s.append(dur[i])
            if c == code["kneser"]:
                pairs += b[i] * (b[i] - 1) // 2
            elif c == code["chi"] and a[i] == 1:
                burn_wall += dur[i]
                burn_cpu += cdur[i]
                undecided += 1
                gap += b[i]
    instance_s.sort()
    oracle = code["oracle"]

    def layer(metric: str, span: str) -> dict:
        c = code[span]
        return {metric + "_s": self_wall[c], metric + "_cpu_s": self_cpu[c]}

    m = {}
    m.update(layer("graph_core.parse", "parse"))
    m.update(layer("matchings.enumerate", "enumerate"))
    m["matchings.r_matchings"] = sum_a[code["enumerate"]]
    m["matchings.oracle_calls"] = calls[oracle]
    m.update(layer("matchings.oracle", "oracle"))
    m["matchings.oracle_hit_ratio"] = (sum_a[oracle] / calls[oracle]
                                       if calls[oracle] else 0.0)
    m.update(layer("kneser.build", "kneser"))
    m["kneser.edges"] = sum_a[code["kneser"]]
    m["kneser.pairs_tested"] = pairs
    m.update(layer("extremal.ex", "ex"))
    m.update(layer("edge_coloring.snark", "snark"))
    m.update(layer("coloring.chi", "chi"))
    # burn as a share of chi's time: absolute seconds would read exactly
    # 0.0 on every run of a workload whose chi calls all finish
    chi = code["chi"]
    m["coloring.budget_burn_share"] = (burn_wall / self_wall[chi]
                                       if self_wall[chi] else 0.0)
    m["coloring.budget_burn_cpu_share"] = (burn_cpu / self_cpu[chi]
                                           if self_cpu[chi] else 0.0)
    m["coloring.undecided"] = undecided
    m["coloring.bound_gap"] = gap
    m.update(layer("verifier.self", "verify"))
    m["verifier.instance_p50_ms"] = 1000 * _percentile(instance_s, 0.50)
    m["verifier.instance_p99_ms"] = 1000 * _percentile(instance_s, 0.99)
    m["verifier.wait_s"] = wait
    counters = {"calls": dict(zip(NAMES, calls)), "a": dict(zip(NAMES, sum_a)),
                "b": dict(zip(NAMES, sum_b)), "pairs": pairs}
    checks = {"min_self_s": min_self, "verify_tree_self_s": tree_self,
              "verify_wall_s": tree_wall, "instances": len(instance_s)}
    return m, counters, checks
