"""The mkg benchmark.

    python3 mkgbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; mkg is imported from its ``src``.
Every measured scan is a fresh child interpreter (``child.py``) that
calls ``mkg.verifier.scan_lines`` on the workload's graph6 lines, the
function behind ``mkg scan``, with the program's default configuration.

--trace 0 prints the end-to-end metrics: it launches set-up-only
children, then repeats the scan (at least MIN_SCANS times) for about S
seconds and reports medians.  --trace 1 prints the per-layer metrics: one untraced scan and
two traced ones whose counters must agree exactly.  Every report is
checked by ``validate.py`` outside the timed region.  The last line of
stdout is the result; the line before it holds the run's metadata and
details.  A run with MKG_THREADS set is refused so that baselines stay
comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import validate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_LAUNCHES = 15  # set-up-only children per run, besides one per scan
MIN_SCANS = 3  # untraced scans per end-to-end run, even past S seconds
TRACED_SCANS = 2
DEADLINE_S = 170.0  # a run must end within 180 s


def _child(inputs: Path, outdir: Path, mode: list[str], timeout: float):
    """Launch child.py; return (its result dict, its report lines)."""
    outdir.mkdir()
    launched = time.monotonic()
    try:
        rc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(inputs), str(outdir),
             *mode], stdout=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        rc = None
    path = outdir / "result.json"
    result = json.loads(path.read_text()) if path.exists() else {}
    if "ready" in result:
        result["setup_s"] = result["ready"] - launched
    if rc != 0:
        result["error"] = result.get("error") or f"child exited with {rc}"
    path = outdir / "reports.jsonl"
    reports = path.read_text(encoding="ascii").splitlines() if path.exists() else []
    return result, reports


def _commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


class Run:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.started = time.monotonic()
        self.passes = workloads.passes(args.workload, args.seed)
        self.inputs = work / "inputs.json"
        self.inputs.write_text(json.dumps(self.passes), encoding="ascii")
        self.instances = [(line, p["r"]) for p in self.passes
                          for line in p["lines"]]
        self.launches = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, mode: list[str]):
        self.launches += 1
        outdir = self.work / str(self.launches)
        result, reports = _child(self.inputs, outdir, mode,
                                 max(1.0, self.remaining()))
        if result.get("error"):
            self.problems.append(result["error"].strip().splitlines()[-1])
        return result, reports, outdir

    def setups(self) -> list[float]:
        return [self.child(["--setup-only"])[0].get("setup_s")
                for _ in range(SETUP_LAUNCHES)]

    def check_reports(self, scans):
        """(attempted, failed, parsed reports of each scan); identical
        outputs are validated once."""
        pins = validate.load_pins(self.args.workload)
        require = (self.args.workload != "dense-r2"
                   or self.args.seed in workloads.PINNED_SEEDS)
        seen = {}
        failed = 0
        parsed = []
        for _, reports in scans:
            key = "\n".join(reports)
            if key not in seen:
                seen[key] = validate.validate(self.instances, reports, pins,
                                              require)
                for i, reason in seen[key][0][:5]:
                    self.problems.append(
                        f"instance {i} ({self.instances[i][0]}): {reason}")
            failed += len(seen[key][0])
            parsed.append(seen[key][1])
        return len(self.instances) * len(scans), failed, parsed

    def details(self, parsed, scans) -> dict:
        verdicts = {}
        for rep in parsed:
            v = rep["verdict"] if rep else "failed"
            verdicts[v] = verdicts.get(v, 0) + 1
        d = {"verdicts": verdicts,
             "scan_wall_s": [res.get("wall_s") for res, _ in scans]}
        if self.args.workload == "dense-r2":
            d["hosts"] = [
                {"graph6": line, "n": rep["n"], "m": rep["m"],
                 "kneser_vertices": rep["kneser_vertices"],
                 "kneser_edges": rep["kneser_edges"], "verdict": rep["verdict"]}
                for (line, _), rep in zip(self.instances, parsed) if rep]
        return d

    def end_to_end(self):
        setups = self.setups()
        results = []
        scans = []
        t0 = time.monotonic()
        while True:
            result, reports, _ = self.child([])
            results.append(result)
            scans.append((result, reports))
            elapsed = time.monotonic() - t0
            per_scan = elapsed / len(scans)
            if self.remaining() < 1.5 * per_scan or (
                    len(scans) >= MIN_SCANS
                    and elapsed + per_scan / 2 >= self.args.seconds):
                break
        attempted, failed, parsed = self.check_reports(scans)
        decided = [sum(1 for rep in p if rep and rep["verdict"] != "undecided")
                   / len(p) for p in parsed]
        metrics = {
            "wall_s": (_median(r.get("wall_s") for r in results), "s"),
            "setup_s": (_median(setups + [r.get("setup_s") for r in results]), "s"),
            "peak_rss_mib": (_median(r.get("peak_rss_mib") for r in results), "MiB"),
            "decided_share": (statistics.median(decided), "ratio"),
            "valid_share": (1 - failed / attempted, "ratio"),
        }
        details = self.details(parsed[0], scans)
        details["setup_s"] = setups + [r.get("setup_s") for r in results]
        return metrics, attempted, failed, details, results[0]

    def per_layer(self):
        untraced, reports, _ = self.child([])
        scans = [(untraced, reports)]
        summaries = []
        for _ in range(TRACED_SCANS):
            result, reports, outdir = self.child(["--trace"])
            scans.append((result, reports))
            if (outdir / "spans.json").exists():
                summaries.append((result, *spans.summarize(spans.load(outdir))))
        attempted, failed, parsed = self.check_reports(scans)
        if len(summaries) < TRACED_SCANS:
            self.problems.append("a traced scan wrote no spans")
            return {}, attempted, failed, self.details(parsed[0], scans), untraced
        self.self_check(summaries, parsed[0])
        layers = [s[1] for s in summaries]
        metrics = {}
        for name, first in layers[0].items():
            # counters repeat exactly (self_check); times take the median
            metrics[name] = (first if isinstance(first, int)
                             else statistics.median(m[name] for m in layers))
        traced_wall = statistics.median(s[0].get("wall_s", 0.0) for s in summaries)
        metrics["verifier.cpu_s"] = untraced.get("cpu_s", 0.0)
        metrics["trace.overhead_s"] = traced_wall - untraced.get("wall_s", 0.0)
        units = {}
        for name in metrics:
            if name.endswith("_ms"):
                units[name] = "ms"
            elif name.endswith("_s"):
                units[name] = "s"
            elif name.endswith(("_ratio", "_share")):
                units[name] = "ratio"
            else:
                units[name] = "count"
        details = self.details(parsed[0], scans)
        details["self_check"] = [s[3] for s in summaries]
        return ({k: (v, units[k]) for k, v in metrics.items()},
                attempted, failed, details, untraced)

    def self_check(self, summaries, parsed) -> None:
        """Self times are non-negative, the layers' self times add up to
        the verify_conjecture spans, counters repeat exactly between the
        traced scans and agree with the reports."""
        for *_, checks in summaries:
            if checks["min_self_s"] < -1e-6:
                self.problems.append(f"negative self time {checks['min_self_s']}")
            if abs(checks["verify_tree_self_s"] - checks["verify_wall_s"]) > 1e-6:
                self.problems.append("layer self times do not add up to "
                                     "the verify_conjecture spans")
            if checks["instances"] != len(self.instances):
                self.problems.append("not one verify_conjecture span per instance")
        if summaries[0][2] != summaries[1][2]:
            self.problems.append("counters differ between the traced scans")
        reps = [rep for rep in parsed if rep]
        m = summaries[0][1]
        expect = {
            "matchings.r_matchings": sum(r["num_r_matchings"] for r in reps),
            "kneser.edges": sum(r["kneser_edges"] for r in reps),
            "coloring.undecided": sum(r["verdict"] == "undecided" for r in reps),
        }
        for name, value in expect.items():
            if m[name] != value:
                self.problems.append(f"{name} = {m[name]}, reports say {value}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if "MKG_THREADS" in os.environ:
        print("refusing to run with MKG_THREADS set: the benchmark measures "
              "the default pool size", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "mkg" / "__init__.py").is_file():
        print(f"no mkg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".mkgbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args, work)
        metrics, attempted, failed, details, first = (
            run.per_layer() if args.trace else run.end_to_end())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "scan_threads": first.get("scan_threads"),
            "mkg_threads_set": False, "commit": _commit(),
            "problems": run.problems}
    print(json.dumps({"meta": meta, "details": details}))
    print(json.dumps({
        "correct": failed == 0 and not run.problems,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
