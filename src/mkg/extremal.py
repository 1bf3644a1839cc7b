"""Exact ex(G, rK2): the most edges a subgraph can keep while avoiding
an r-matching.

The search is a branch and bound over edges in index order, deciding
keep or delete (keep branch first).  Two prunes carry it: a branch dies
the moment the kept set contains an r-matching, and a branch dies when
kept + undecided cannot beat the incumbent.  The "has an r-matching"
test is the matchings backtracker with early exit at size r.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import Graph, bit_indices
from .matchings import has_matching_of_size, matching_number


@dataclass(frozen=True)
class ExtremalCertificate:
    """Edge subset F with nu(F) <= r-1 witnessing a value of ex(G, rK2)."""

    edges: frozenset[int]
    value: int
    r: int


def star_removal_bound(g: Graph, r: int) -> ExtremalCertificate | None:
    """Lower-bound construction: drop the star of a minimum-degree vertex.

    Only applicable when n = 2r; then every r-matching is perfect, so it
    must cover the chosen vertex, and removing that vertex's edges kills
    them all.  Keeps m - delta(G) edges.  The vertex is the lowest-index
    one of minimum degree.  Returns None when n != 2r (not an error).
    """
    if g.n != 2 * r:
        return None
    v = min(range(g.n), key=lambda u: (g.degree(u), u))
    keep = frozenset(i for i, (a, b) in enumerate(g.edges) if v not in (a, b))
    return ExtremalCertificate(keep, len(keep), r)


def ex_exact(g: Graph, r: int) -> ExtremalCertificate:
    """Exact ex(g, rK2) with a witnessing certificate.

    Seeded with star_removal_bound when n = 2r, otherwise unseeded; the
    branch and bound only chases strict improvements, so when the seed is
    already optimal it is returned unchanged.  Ties go to the first
    optimum in search order; unseeded, that is the optimum whose keep
    indicator vector (edge 0 first) is lexicographically greatest.
    """
    if r < 1:
        raise ValueError("ex_exact requires r >= 1")
    m = g.m
    seed = star_removal_bound(g, r)
    if seed is not None:
        best_value = seed.value
        best_mask = sum(1 << e for e in seed.edges)
    else:
        best_value, best_mask = -1, 0

    def rec(i: int, kept_mask: int, kept_count: int) -> None:
        nonlocal best_value, best_mask
        if kept_count + (m - i) <= best_value:
            return
        if i == m:
            # strictly better than the incumbent by the prune above
            best_value = kept_count
            best_mask = kept_mask
            return
        cand = kept_mask | (1 << i)
        if has_matching_of_size(g, r, allowed=cand) is None:
            rec(i + 1, cand, kept_count + 1)
        rec(i + 1, kept_mask, kept_count)

    rec(0, 0, 0)
    return ExtremalCertificate(frozenset(bit_indices(best_mask)), best_value, r)


def validate_certificate(g: Graph, cert: ExtremalCertificate) -> bool:
    """Independent re-check: the kept subgraph really has nu <= r-1.

    Rebuilds the subgraph and runs the exact matching number on it, a
    different code path from the backtracker used inside the search.
    """
    if cert.value != len(cert.edges):
        return False
    if any(not 0 <= e < g.m for e in cert.edges):
        return False
    sub = Graph(g.n, [g.edges[e] for e in cert.edges])
    return matching_number(sub) <= cert.r - 1
