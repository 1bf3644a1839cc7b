"""mkg command line interface.

Subcommands: check (one graph), scan (a catalog), ex, chi-index, kneser.
Exit codes: 0 all verdicts holds or out-of-scope, 1 at least one
counterexample found (the interesting outcome, announced on stderr),
2 usage, parse or input error (or a report that failed its own
re-check), 3 undecided due to coloring budget.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .coloring import DEFAULT_BUDGET
from .edge_coloring import chromatic_index
from .extremal import ex_exact
from .graph_core import (Graph6Error, check_count, open_graph6,
                         parse_graph6)
from .kneser import KneserGraph, build_matching_kneser, to_dot
from .verifier import (ConjectureReport, ScanError, SelfCheckError,
                       VERDICT_COUNTEREXAMPLE, VERDICT_UNDECIDED,
                       parse_decimal, parse_r_policy, report_for,
                       report_to_json, scan_error_to_json, scan_lines)


def _open_input(path: str):
    """The graph6 input named by -g: a file, or stdin for "-".

    stdin is decoded as open_graph6 decodes a file, whatever the locale
    or PYTHONIOENCODING say, so a non-ASCII byte is a parse error.
    """
    if path == "-":
        if sys.stdin is None:  # fd 0 was closed at startup
            raise OSError("stdin is closed")
        sys.stdin.reconfigure(encoding="ascii", errors="surrogateescape")
        return contextlib.nullcontext(sys.stdin)
    return open_graph6(path)


class InputError(Exception):
    """A single-graph command's input holds no graph, or more than one."""


def _only_graph(path: str):
    """The one graph of a single-graph command's input; none, or a second
    non-blank line (pointed at mkg scan), is an InputError."""
    g = None
    with _open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                if g is not None:
                    raise InputError(f"line {lineno} holds a second graph;"
                                     " only mkg scan reads more than one")
                g = parse_graph6(line)
    if g is None:
        raise InputError("no graph6 line found in input")
    return g


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


def _exit_code(verdicts, had_parse_error: bool) -> int:
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


def _cmd_check(args) -> int:
    g = _only_graph(args.graph)
    rep = report_for(g, args.r, budget=args.budget)
    if args.dot:
        # a skipped host (r = 0) gets the null derived graph its report
        # describes
        kg = (build_matching_kneser(g, rep.r) if rep.r
              else KneserGraph(g, 0, (), (), 0))
        with open(args.dot, "w", encoding="ascii") as fh:
            fh.write(to_dot(kg))
    print(report_to_json(rep) if args.json else _report_text(rep))
    _announce_counterexamples([rep])
    return _exit_code({rep.verdict}, False)


def _cmd_scan(args) -> int:
    verdicts = set()
    counterexamples = []  # the only reports kept past their output line
    had_error = False
    with _open_input(args.graph) as fh:
        for rec in scan_lines(fh, args.r, budget=args.budget):
            if isinstance(rec, ScanError):
                had_error = True
                print(scan_error_to_json(rec) if args.json
                      else _scan_line_text(rec))
                continue
            verdicts.add(rec.verdict)
            if rec.verdict == VERDICT_COUNTEREXAMPLE:
                counterexamples.append(rec)
            print(report_to_json(rec) if args.json else _scan_line_text(rec))
    _announce_counterexamples(counterexamples)
    return _exit_code(verdicts, had_error)


def _cmd_ex(args) -> int:
    g = _only_graph(args.graph)
    cert = ex_exact(g, args.r)
    kept = sorted(cert.edges)
    print(f"n={g.n} m={g.m} r={cert.r}")
    print(f"ex_value={cert.value}")
    print("edges=" + " ".join(
        f"{e}=({g.edges[e][0]},{g.edges[e][1]})" for e in kept))
    return 0


def _cmd_chi_index(args) -> int:
    g = _only_graph(args.graph)
    res = chromatic_index(g)
    print(f"chromatic_index={res.chromatic_index}")
    print(f"class={res.vizing_class}")
    return 0


def _cmd_kneser(args) -> int:
    g = _only_graph(args.graph)
    kg = build_matching_kneser(g, args.r)
    if args.dot:
        sys.stdout.write(to_dot(kg))
    else:
        print(f"vertices={kg.n} edges={kg.m}")
    return 0


def _positive_int(value: str) -> int:
    try:
        n = parse_decimal(value)
    except ValueError:
        raise argparse.ArgumentTypeError("must be an integer") from None
    try:
        check_count(n, 1, "value")
    except ValueError:
        raise argparse.ArgumentTypeError("must be >= 1") from None
    return n


def _r_policy(value: str):
    try:
        return parse_r_policy(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkg",
        description="Matching Kneser graph conjecture verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by subcommands, each defined once
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("-g", "--graph", required=True,
                       help="graph6 file, or - for stdin")
    verify = argparse.ArgumentParser(add_help=False, parents=[graph])
    verify.add_argument("-r", "--r", type=_r_policy, required=True,
                        help="matching size, or 'half-order' for r = n/2")
    verify.add_argument("--json", action="store_true",
                        help="emit each report as one JSON line")
    verify.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                        help="node budget of each chi search, and at r = 2 "
                             "of the star-triangle lower bound")

    p_check = sub.add_parser("check", parents=[verify],
                             help="verify one graph")
    p_check.add_argument("--dot", metavar="OUT",
                         help="also write the Kneser graph as DOT to OUT")
    p_check.set_defaults(fn=_cmd_check)

    p_scan = sub.add_parser("scan", parents=[verify],
                            help="verify every graph in a catalog")
    p_scan.set_defaults(fn=_cmd_scan)

    p_ex = sub.add_parser("ex", parents=[graph],
                          help="exact ex(G, rK2) with certificate")
    p_ex.add_argument("-r", type=_positive_int, required=True)
    p_ex.set_defaults(fn=_cmd_ex)

    p_ci = sub.add_parser("chi-index", parents=[graph],
                          help="exact chromatic index")
    p_ci.set_defaults(fn=_cmd_chi_index)

    p_kg = sub.add_parser("kneser", parents=[graph], help="build KG(G, rK2)")
    p_kg.add_argument("-r", type=_positive_int, required=True)
    p_kg.add_argument("--dot", action="store_true",
                      help="print DOT instead of a summary")
    p_kg.set_defaults(fn=_cmd_kneser)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (Graph6Error, InputError, OSError, SelfCheckError) as exc:
        print(f"mkg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
