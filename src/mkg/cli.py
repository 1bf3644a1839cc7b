"""mkg command line interface.

Subcommands: check (one graph), scan (a catalog), ex, chi-index, kneser.
Exit codes: 0 all verdicts holds or out-of-scope, 1 at least one
counterexample found (the interesting outcome, announced on stderr),
2 usage, parse or environment error (or a report that failed its own
re-check), 3 undecided due to coloring budget.
"""

from __future__ import annotations

import argparse
import sys

from .coloring import DEFAULT_BUDGET
from .edge_coloring import chromatic_index
from .extremal import ex_exact
from .graph_core import Graph6Error, parse_graph6
from .kneser import build_matching_kneser, to_dot
from .verifier import (ConfigError, ConjectureReport, ScanError,
                       SelfCheckError, VERDICT_COUNTEREXAMPLE,
                       VERDICT_UNDECIDED, report_to_json, resolve_r,
                       scan_error_to_json, scan_lines, skipped_report,
                       verify_conjecture)


def _read_lines(path: str) -> list[str]:
    if path == "-":
        return sys.stdin.read().splitlines()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read().splitlines()


def _first_graph(path: str):
    for line in _read_lines(path):
        if line.strip():
            return parse_graph6(line)
    raise Graph6Error("no graph6 line found in input", 0)


def _parse_r(value: str, parser: argparse.ArgumentParser):
    if value == "half-order":
        return value
    try:
        r = int(value)
    except ValueError:
        parser.error(f"-r must be an integer or 'half-order', got {value!r}")
    if r < 1:
        parser.error("-r must be >= 1")
    return r


def _report_text(rep: ConjectureReport) -> str:
    lines = [
        f"graph6: {rep.graph6}",
        f"n={rep.n} m={rep.m} r={rep.r}",
        f"r-matchings: {rep.num_r_matchings}",
        f"kneser: {rep.kneser_vertices} vertices, {rep.kneser_edges} edges",
        f"chromatic_number: {rep.chromatic_number}",
        f"ex_value: {rep.ex_value}",
        f"rhs: {rep.rhs}",
        f"is_snark: {str(rep.is_snark).lower()}",
        f"verdict: {rep.verdict}",
    ]
    return "\n".join(lines)


def _scan_line_text(rec) -> str:
    if isinstance(rec, ScanError):
        return f"line {rec.line}: parse error: {rec.error}"
    return (f"{rec.graph6} r={rec.r} chi={rec.chromatic_number} "
            f"rhs={rec.rhs} verdict={rec.verdict} "
            f"snark={str(rec.is_snark).lower()}")


def _exit_code(reports, had_parse_error: bool) -> int:
    verdicts = [rep.verdict for rep in reports]
    if VERDICT_COUNTEREXAMPLE in verdicts:
        return 1
    if VERDICT_UNDECIDED in verdicts:
        return 3
    if had_parse_error:
        return 2
    return 0


def _announce_counterexamples(reports) -> None:
    for rep in reports:
        if rep.verdict == VERDICT_COUNTEREXAMPLE:
            print(f"counterexample: {rep.graph6} r={rep.r} "
                  f"chi={rep.chromatic_number} rhs={rep.rhs}",
                  file=sys.stderr)


def _cmd_check(args, parser) -> int:
    g = _first_graph(args.graph)
    r = resolve_r(g, _parse_r(args.r, parser))
    if r is None:
        rep = skipped_report(g)
    else:
        kg = build_matching_kneser(g, r) if args.dot else None
        rep = verify_conjecture(g, r, budget=args.budget, kg=kg)
        if kg is not None:
            with open(args.dot, "w", encoding="ascii") as fh:
                fh.write(to_dot(kg))
    print(report_to_json(rep) if args.json else _report_text(rep))
    _announce_counterexamples([rep])
    return _exit_code([rep], False)


def _cmd_scan(args, parser) -> int:
    r_policy = _parse_r(args.r, parser)
    lines = _read_lines(args.graph)
    reports = []
    had_error = False
    for rec in scan_lines(lines, r_policy):
        if isinstance(rec, ScanError):
            had_error = True
            print(scan_error_to_json(rec) if args.json
                  else _scan_line_text(rec))
            continue
        reports.append(rec)
        print(report_to_json(rec) if args.json else _scan_line_text(rec))
    _announce_counterexamples(reports)
    return _exit_code(reports, had_error)


def _cmd_ex(args, parser) -> int:
    g = _first_graph(args.graph)
    cert = ex_exact(g, args.r)
    kept = sorted(cert.edges)
    print(f"n={g.n} m={g.m} r={cert.r}")
    print(f"ex_value={cert.value}")
    print("edges=" + " ".join(
        f"{e}=({g.edges[e][0]},{g.edges[e][1]})" for e in kept))
    return 0


def _cmd_chi_index(args, parser) -> int:
    g = _first_graph(args.graph)
    res = chromatic_index(g)
    print(f"chromatic_index={res.chromatic_index}")
    print(f"class={res.vizing_class}")
    return 0


def _cmd_kneser(args, parser) -> int:
    g = _first_graph(args.graph)
    kg = build_matching_kneser(g, args.r)
    if args.dot:
        sys.stdout.write(to_dot(kg))
    else:
        print(f"vertices={kg.n} edges={kg.m}")
    return 0


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkg",
        description="Matching Kneser graph conjecture verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify one graph")
    p_check.add_argument("-g", "--graph", required=True,
                         help="graph6 file, or - for stdin")
    p_check.add_argument("-r", "--r", required=True,
                         help="matching size, or 'half-order' for r = n/2")
    p_check.add_argument("--json", action="store_true",
                         help="emit the report as one JSON line")
    p_check.add_argument("--dot", metavar="OUT",
                         help="also write the Kneser graph as DOT to OUT")
    p_check.add_argument("--budget", type=_positive_int,
                         default=DEFAULT_BUDGET,
                         help="coloring search node budget")
    p_check.set_defaults(fn=_cmd_check)

    p_scan = sub.add_parser("scan", help="verify every graph in a catalog")
    p_scan.add_argument("-g", "--graph", required=True,
                        help="graph6 file, or - for stdin")
    p_scan.add_argument("-r", "--r", required=True,
                        help="matching size, or 'half-order'")
    p_scan.add_argument("--json", action="store_true",
                        help="emit JSON-lines reports")
    p_scan.set_defaults(fn=_cmd_scan)

    p_ex = sub.add_parser("ex", help="exact ex(G, rK2) with certificate")
    p_ex.add_argument("-g", "--graph", required=True)
    p_ex.add_argument("-r", type=_positive_int, required=True)
    p_ex.set_defaults(fn=_cmd_ex)

    p_ci = sub.add_parser("chi-index", help="exact chromatic index")
    p_ci.add_argument("-g", "--graph", required=True)
    p_ci.set_defaults(fn=_cmd_chi_index)

    p_kg = sub.add_parser("kneser", help="build KG(G, rK2)")
    p_kg.add_argument("-g", "--graph", required=True)
    p_kg.add_argument("-r", type=_positive_int, required=True)
    p_kg.add_argument("--dot", action="store_true",
                      help="print DOT instead of a summary")
    p_kg.set_defaults(fn=_cmd_kneser)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except (Graph6Error, OSError, ConfigError, SelfCheckError) as exc:
        print(f"mkg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
