"""End-to-end conjecture evaluation and the machine-readable report.

For a host graph G and matching size r the conjectured equality is

    chi(KG(G, rK2)) = |E(G)| - ex(G, rK2)

and each ConjectureReport carries both sides, certificates for each, the
snark flag, and a verdict.  The "<=" direction is a theorem and must
hold in every report; "counterexample" means the hypotheses hold
(connected, r >= 2) and the sides differ.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

from .coloring import (BudgetExhausted, DEFAULT_BUDGET, chromatic_number,
                       greedy_ex_coloring, star_triangle_bound,
                       validate_coloring)
from .edge_coloring import is_snark
from .extremal import ex_exact, validate_certificate
from .graph_core import (Graph, Graph6Error, check_count, is_connected,
                         open_graph6, parse_graph6, write_graph6)
from .kneser import build_matching_kneser
from .matchings import pairwise_intersect

VERDICT_HOLDS = "holds"
VERDICT_COUNTEREXAMPLE = "counterexample"
VERDICT_NOT_CONNECTED = "not-connected"
VERDICT_OUT_OF_SCOPE = "r-out-of-scope"
VERDICT_UNDECIDED = "undecided"


class ConjectureReport(NamedTuple):
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
    certificates: dict


class SelfCheckError(RuntimeError):
    """A certificate computed for a report failed its independent
    re-check; no verdict is given for that instance."""


class ScanError(NamedTuple):
    """A line of a catalog that failed to parse; scanning continues."""

    line: int
    error: str


def verify_conjecture(g: Graph, r: int,
                      budget: int = DEFAULT_BUDGET) -> ConjectureReport:
    """Compute both sides of the conjecture for (g, r), r >= 1.

    Verdict precedence: budget exhaustion gives "undecided" (exit code 3
    at the CLI); otherwise a disconnected host gives "not-connected" and
    r = 1 gives "r-out-of-scope", both still reporting the computed
    sides; otherwise "counterexample" iff the sides differ.

    Before any report is returned the ex certificate, and the coloring
    when one was found, are re-checked by independent code, and chi (or,
    when undecided, its lower bound) is checked against the theorem
    chi <= rhs; a failure raises SelfCheckError.  At r = 2, a host that
    star_triangle_bound certifies within the node budget has chi >= rhs,
    so the theorem's coloring (greedy_ex_coloring) is taken with no
    coloring search; fewer colors refute the bound and raise
    SelfCheckError too.  r is a count >= 1 and budget one >= 0
    (graph_core.check_count), and g has a graph6 form (n <= 62), all
    checked before any search.
    """
    check_count(r, 1, "r")
    check_count(budget, 0, "budget")
    g6 = write_graph6(g)
    kg = build_matching_kneser(g, r)
    # at n = 2r the r-matchings are the perfect matchings that the ex
    # seed proof and the snark test read
    listed = kg.vertices if g.n == 2 * r else None
    cert = ex_exact(g, r, matchings=listed)
    if not validate_certificate(g, cert):
        raise SelfCheckError(
            f"ex certificate of {g6} at r={r} failed its re-check")
    rhs = g.m - cert.value
    snark, _ = is_snark(g, listed)
    certs = {"extremal_edges": sorted(cert.edges)}
    try:
        if r == 2 and kg.m > 0 and star_triangle_bound(g, cert.value,
                                                       budget):
            # chi >= rhs is proved, so the theorem's coloring is optimal
            col = greedy_ex_coloring(kg, cert)
            chi = col.k
            if chi < rhs:
                raise SelfCheckError(
                    f"a {chi}-coloring of KG({g6}, {r}K2) refutes the "
                    f"star-triangle bound chi >= rhs = {rhs}")
        else:
            chi, col = chromatic_number(kg, budget=budget)
    except BudgetExhausted as exc:
        chi, lower = -1, exc.lower_bound  # -1 marks chi undecided
        certs["coloring"] = []
        certs["chi_bounds"] = [exc.lower_bound, exc.upper_bound]
    else:
        if col.k != chi or not validate_coloring(kg, col):
            raise SelfCheckError(
                f"{chi}-coloring of KG({g6}, {r}K2) failed its re-check")
        certs["coloring"] = list(col.colors)
        lower = chi
    if lower > rhs:
        raise SelfCheckError(
            f"chi of KG({g6}, {r}K2) is at least {lower}, "
            f"above the theorem's bound rhs = {rhs}")
    if kg.n > 0 and kg.m == 0:
        # re-derive edgelessness straight from the matchings, not kg.rows
        certs["pairwise_intersect"] = pairwise_intersect(kg.vertices)
        if not certs["pairwise_intersect"]:
            raise SelfCheckError(f"edgeless KG({g6}, {r}K2) "
                                 "failed its pairwise re-check")
    if chi == -1:
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
        graph6=g6, n=g.n, m=g.m, r=r,
        num_r_matchings=kg.n, kneser_vertices=kg.n, kneser_edges=kg.m,
        chromatic_number=chi, ex_value=cert.value, rhs=rhs,
        verdict=verdict, is_snark=snark, certificates=certs)


def skipped_report(g: Graph) -> ConjectureReport:
    """Report for a graph the r-policy skips (odd or zero order under
    half-order).  No r exists, so r is recorded as 0 and the derived
    quantities are zeroed; rhs = m keeps the field invariant rhs = m -
    ex_value intact."""
    # never a snark: no cubic graph has odd order (handshake lemma), and
    # the null graph has chromatic index 0
    return ConjectureReport(
        graph6=write_graph6(g), n=g.n, m=g.m, r=0,
        num_r_matchings=0, kneser_vertices=0, kneser_edges=0,
        chromatic_number=0, ex_value=0, rhs=g.m,
        verdict=VERDICT_OUT_OF_SCOPE, is_snark=False, certificates={})


def parse_decimal(text: str) -> int:
    """The int written as ASCII digits, after an optional "-".  Unlike
    int() it takes no "+", "_", surrounding space or non-ASCII digit;
    raises ValueError for those and anything else."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def parse_r_policy(r_policy):
    """An r-policy checked once: "half-order" (r = n/2) or an int r >= 1.

    Takes an int (not a bool), a string parse_decimal accepts or
    "half-order"; raises ValueError for anything else.
    """
    if r_policy == "half-order":
        return r_policy
    try:
        if isinstance(r_policy, bool) or not isinstance(r_policy, (int, str)):
            raise ValueError
        r = r_policy if isinstance(r_policy, int) else parse_decimal(r_policy)
    except ValueError:
        raise ValueError("r-policy must be an integer or 'half-order', "
                         f"got {r_policy!r}") from None
    try:
        check_count(r, 1, "r")
    except ValueError:
        raise ValueError(f"r-policy must be >= 1, got {r}") from None
    return r


def report_for(g: Graph, r_policy,
               budget: int = DEFAULT_BUDGET) -> ConjectureReport:
    """The report for g under a valid r-policy (see parse_r_policy):
    skipped_report when half-order gives g no r (odd or zero order),
    else verify_conjecture."""
    if r_policy == "half-order":
        if g.n % 2 == 1 or g.n == 0:
            return skipped_report(g)
        r_policy = g.n // 2
    return verify_conjecture(g, r_policy, budget=budget)


def scan_lines(lines, r_policy, budget: int = DEFAULT_BUDGET):
    """Reports for an iterable of graph6 lines, in input order.

    r_policy is checked by parse_r_policy, and budget as a count >= 0
    (graph_core.check_count), before the first line is pulled.  Blank
    lines are skipped.  Yields ConjectureReport and ScanError records,
    one per non-blank line, pulling the next line only after the current
    record is consumed, so the catalog is never held in memory whole.
    """
    r_policy = parse_r_policy(r_policy)
    check_count(budget, 0, "budget")
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            g = parse_graph6(text)
        except Graph6Error as exc:
            yield ScanError(lineno, str(exc))
            continue
        yield report_for(g, r_policy, budget)


def scan_catalog(path, r_policy, budget: int = DEFAULT_BUDGET):
    """scan_lines over a graph6 file."""
    with open_graph6(path) as fh:
        yield from scan_lines(fh, r_policy, budget=budget)


# ------------------------------------------------------------------ JSON --

def report_to_json(rep: ConjectureReport) -> str:
    """One-line JSON with fields in declaration order.

    The encoder is fixed (compact separators, no key sorting) so that
    parse -> re-serialize round-trips byte-identically.
    """
    return json.dumps(rep._asdict(), separators=(",", ":"))


_VERDICTS = (VERDICT_HOLDS, VERDICT_COUNTEREXAMPLE, VERDICT_NOT_CONNECTED,
             VERDICT_OUT_OF_SCOPE, VERDICT_UNDECIDED)


def report_from_json(text: str) -> ConjectureReport:
    """The report of a report_to_json line.  Raises ValueError unless
    the line is an object with exactly the report's keys, graph6 a
    string, the counts ints (not bools), verdict one of the five,
    is_snark a bool and certificates an object."""
    d = json.loads(text)
    if not isinstance(d, dict) or set(d) != set(ConjectureReport._fields):
        raise ValueError("not a ConjectureReport line")
    for name, value in d.items():
        if name == "graph6":
            ok = isinstance(value, str)
        elif name == "verdict":
            ok = value in _VERDICTS
        elif name == "is_snark":
            ok = isinstance(value, bool)
        elif name == "certificates":
            ok = isinstance(value, dict)
        else:
            ok = isinstance(value, int) and not isinstance(value, bool)
        if not ok:
            raise ValueError(f"ConjectureReport field {name} is {value!r}")
    return ConjectureReport(**d)


def scan_error_to_json(err: ScanError) -> str:
    return json.dumps(err._asdict(), separators=(",", ":"))
