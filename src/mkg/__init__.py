"""mkg: exact tools for matching Kneser graphs KG(G, rK2).

Constructs KG(G, rK2), computes both sides of the conjectured equality
chi(KG(G, rK2)) = |E(G)| - ex(G, rK2), and certifies snark
counterexamples.
"""

from .graph_core import (Graph, Graph6Error, bridges, complete, cycle,
                         disjoint_matching, flower, generate, is_connected,
                         is_cubic, parse_graph6, petersen, star,
                         write_graph6)
from .matchings import (enumerate_matchings, enumerate_perfect_matchings,
                        has_matching_of_size, matching_number,
                        perfect_matchings_pairwise_intersect,
                        schonberger_check)
from .edge_coloring import EdgeColoringResult, chromatic_index, is_snark
from .kneser import (EquivalenceResult, KneserGraph, build_kneser,
                     build_matching_kneser, structurally_equivalent, to_dot)
from .coloring import (BudgetExhausted, Coloring, DEFAULT_BUDGET,
                       InvalidCertificateError, chromatic_number,
                       greedy_ex_coloring, validate_coloring)
from .extremal import (ExtremalCertificate, ex_exact, star_removal_bound,
                       validate_certificate)
from .verifier import (ConjectureReport, ScanError, report_from_json,
                       report_to_json, scan_catalog, scan_lines,
                       skipped_report, verify_conjecture)

__version__ = "0.1.0"

__all__ = [
    "Graph", "Graph6Error", "parse_graph6", "write_graph6",
    "generate", "petersen", "cycle", "complete", "star",
    "disjoint_matching", "flower", "is_connected", "bridges", "is_cubic",
    "enumerate_matchings", "enumerate_perfect_matchings",
    "has_matching_of_size", "matching_number", "schonberger_check",
    "perfect_matchings_pairwise_intersect",
    "EdgeColoringResult", "chromatic_index", "is_snark",
    "KneserGraph", "EquivalenceResult", "build_matching_kneser",
    "build_kneser", "structurally_equivalent", "to_dot",
    "Coloring", "BudgetExhausted", "InvalidCertificateError",
    "DEFAULT_BUDGET", "chromatic_number", "greedy_ex_coloring",
    "validate_coloring",
    "ExtremalCertificate", "ex_exact", "star_removal_bound",
    "validate_certificate",
    "ConjectureReport", "ScanError", "verify_conjecture", "scan_lines",
    "scan_catalog", "skipped_report", "report_to_json", "report_from_json",
    "__version__",
]
