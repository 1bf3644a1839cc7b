"""End-to-end conjecture evaluation and the machine-readable report.

For a host graph G and matching size r the conjectured equality is

    chi(KG(G, rK2)) = |E(G)| - ex(G, rK2)

and each ConjectureReport carries both sides, certificates for each, the
snark flag, and a verdict.  The "<=" direction is a theorem and must
hold in every report; "counterexample" means the hypotheses hold
(connected, r >= 2) and the sides differ.
"""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .coloring import (BudgetExhausted, DEFAULT_BUDGET, chromatic_number,
                       validate_coloring)
from .edge_coloring import is_snark
from .extremal import ex_exact, validate_certificate
from .graph_core import Graph, Graph6Error, is_connected, parse_graph6, write_graph6
from .kneser import build_matching_kneser

VERDICT_HOLDS = "holds"
VERDICT_COUNTEREXAMPLE = "counterexample"
VERDICT_NOT_CONNECTED = "not-connected"
VERDICT_OUT_OF_SCOPE = "r-out-of-scope"
VERDICT_UNDECIDED = "undecided"


@dataclass
class ConjectureReport:
    """Both sides of the conjecture for one (graph, r) instance.

    certificates holds, in fixed key order: "extremal_edges" (sorted edge
    indices of the ex witness), "coloring" (color array over KG vertices
    in enumeration order), "pairwise_intersect" (only when the KG is
    nonempty and edgeless: an independent re-check that all r-matchings
    pairwise share an edge), and "chi_bounds" (only on verdict
    "undecided": the bounds the exhausted search had established, with
    chromatic_number reported as -1).
    """

    graph6: str
    n: int
    m: int
    r: int
    num_r_matchings: int
    kneser_vertices: int
    kneser_edges: int
    chromatic_number: int
    ex_value: int
    rhs: int
    verdict: str
    is_snark: bool
    certificates: dict = field(default_factory=dict)


class SelfCheckError(RuntimeError):
    """A certificate computed for a report failed its independent
    re-check; no verdict is given for that instance."""


class ConfigError(ValueError):
    """A bad environment setting, such as a non-numeric MKG_THREADS."""


@dataclass
class ScanError:
    """A line of a catalog that failed to parse; scanning continues."""

    line: int
    error: str


def verify_conjecture(g: Graph, r: int, budget: int = DEFAULT_BUDGET,
                      kg=None) -> ConjectureReport:
    """Compute both sides of the conjecture for (g, r), r >= 1.

    Verdict precedence: budget exhaustion gives "undecided" (exit code 3
    at the CLI); otherwise a disconnected host gives "not-connected" and
    r = 1 gives "r-out-of-scope", both still reporting the computed
    sides; otherwise "counterexample" iff the sides differ.

    kg may pass in build_matching_kneser(g, r) when the caller already
    has it.  Before any report is returned the ex certificate, and the
    coloring when one was found, are re-checked by independent code;
    a failure raises SelfCheckError.
    """
    if r < 1:
        raise ValueError("verify_conjecture requires r >= 1")
    if kg is None:
        kg = build_matching_kneser(g, r)
    elif kg.r != r or kg.base != g:
        raise ValueError("kg is not KG(g, rK2) for this g and r")
    cert = ex_exact(g, r)
    if not validate_certificate(g, cert):
        raise SelfCheckError(
            f"ex certificate of {write_graph6(g)} at r={r} failed its re-check")
    rhs = g.m - cert.value
    snark, _ = is_snark(g)
    certs = {"extremal_edges": sorted(cert.edges)}
    try:
        chi, col = chromatic_number(kg, budget=budget)
        certs["coloring"] = list(col.colors)
        undecided = False
    except BudgetExhausted as exc:
        chi = -1
        certs["coloring"] = []
        certs["chi_bounds"] = [exc.lower_bound, exc.upper_bound]
        undecided = True
    if not undecided and (col.k != chi or not validate_coloring(kg, col)):
        raise SelfCheckError(
            f"{chi}-coloring of KG({write_graph6(g)}, {r}K2) "
            "failed its re-check")
    if kg.n > 0 and kg.m == 0:
        # re-derive edgelessness straight from the matchings: every pair
        # of r-matchings must share an edge
        masks = [mt.edge_mask() for mt in kg.vertices]
        certs["pairwise_intersect"] = all(
            masks[i] & masks[j]
            for i in range(len(masks)) for j in range(i + 1, len(masks)))
    if undecided:
        verdict = VERDICT_UNDECIDED
    elif not is_connected(g):
        verdict = VERDICT_NOT_CONNECTED
    elif r < 2:
        verdict = VERDICT_OUT_OF_SCOPE
    elif chi != rhs:
        verdict = VERDICT_COUNTEREXAMPLE
    else:
        verdict = VERDICT_HOLDS
    return ConjectureReport(
        graph6=write_graph6(g), n=g.n, m=g.m, r=r,
        num_r_matchings=kg.n, kneser_vertices=kg.n, kneser_edges=kg.m,
        chromatic_number=chi, ex_value=cert.value, rhs=rhs,
        verdict=verdict, is_snark=snark, certificates=certs)


def skipped_report(g: Graph, reason_verdict: str = VERDICT_OUT_OF_SCOPE,
                   ) -> ConjectureReport:
    """Report for a graph the r-policy skips (odd order under
    half-order).  No r exists, so r is recorded as 0 and the derived
    quantities are zeroed; rhs = m keeps the field invariant rhs = m -
    ex_value intact."""
    snark, _ = is_snark(g)
    return ConjectureReport(
        graph6=write_graph6(g), n=g.n, m=g.m, r=0,
        num_r_matchings=0, kneser_vertices=0, kneser_edges=0,
        chromatic_number=0, ex_value=0, rhs=g.m,
        verdict=reason_verdict, is_snark=snark, certificates={})


def resolve_r(g: Graph, r_policy):
    """int r, or None when the policy yields none for this graph."""
    if r_policy == "half-order":
        if g.n % 2 == 1 or g.n == 0:
            return None
        return g.n // 2
    r = int(r_policy)
    if r < 1:
        raise ValueError("fixed r policy requires r >= 1")
    return r


def _scan_worker(args):
    lineno, text, r_policy, budget = args
    try:
        g = parse_graph6(text)
    except Graph6Error as exc:
        return ScanError(lineno, str(exc))
    r = resolve_r(g, r_policy)
    if r is None:
        return skipped_report(g)
    return verify_conjecture(g, r, budget=budget)


def default_threads() -> int:
    """MKG_THREADS when set (a positive integer), else the CPU count.
    Raises ConfigError on any other value."""
    env = os.environ.get("MKG_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise ConfigError(
                f"MKG_THREADS must be a positive integer, got {env!r}")
        return n
    return os.cpu_count() or 1


def scan_lines(lines, r_policy, budget: int = DEFAULT_BUDGET, threads=None):
    """Reports for an iterable of graph6 lines, in input order.

    r_policy is an int (fixed r) or the string "half-order" (r = n/2,
    odd orders reported r-out-of-scope).  Blank lines are skipped.
    Yields ConjectureReport and ScanError records; graphs are processed
    concurrently (MKG_THREADS caps the pool) but emission order is the
    input order.
    """
    work = [(i, line.strip(), r_policy, budget)
            for i, line in enumerate(lines, start=1) if line.strip()]
    nthreads = threads if threads else default_threads()
    if nthreads <= 1 or len(work) <= 1:
        for item in work:
            yield _scan_worker(item)
        return
    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        # map preserves input order, which is the reorder contract
        yield from pool.map(_scan_worker, work)


def scan_catalog(path, r_policy, budget: int = DEFAULT_BUDGET, threads=None):
    """scan_lines over a graph6 file."""
    with open(path, "r", encoding="ascii") as fh:
        yield from scan_lines(fh, r_policy, budget=budget, threads=threads)


# ------------------------------------------------------------------ JSON --

def report_to_json(rep: ConjectureReport) -> str:
    """One-line JSON with fields in declaration order.

    The encoder is fixed (compact separators, no key sorting) so that
    parse -> re-serialize round-trips byte-identically.
    """
    d = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
    return json.dumps(d, separators=(",", ":"))


def report_from_json(text: str) -> ConjectureReport:
    d = json.loads(text)
    names = {f.name for f in dataclasses.fields(ConjectureReport)}
    if set(d) != names:
        raise ValueError("not a ConjectureReport line")
    return ConjectureReport(**d)


def scan_error_to_json(err: ScanError) -> str:
    return json.dumps({"line": err.line, "error": err.error},
                      separators=(",", ":"))
