"""Exact ex(G, rK2): the most edges a subgraph can keep while avoiding
an r-matching.

The search is a branch and bound over edges in index order, deciding
keep or delete (keep branch first).  Two prunes carry it: a branch dies
the moment the kept set contains an r-matching, and a branch dies when
kept + undecided cannot beat the incumbent.  The "has an r-matching"
test is incremental: the search carries a maximum matching of the kept
set down the keep branch, and since one more edge raises the matching
number by at most one, a single augmenting-path search (the blossom
search of matchings._augment; Berge's theorem says it is enough)
decides each keep.  validate_certificate re-checks the result with the
matchings backtracker instead, a code path the search does not use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import Graph, allow_recursion, bit_indices
from .matchings import _augment, has_matching_of_size


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
    already optimal it is returned unchanged.  Keeping edge (a, b) with
    both ends free in the carried matching grows it with no search; with
    one end free, an augmenting path must end there, so one blossom
    search from that end decides; with both ends matched, the free
    vertices are tried as roots until one search augments.  Ties go to
    the first optimum in search order; unseeded, that is the optimum
    whose keep indicator vector (edge 0 first) is lexicographically
    greatest.
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

    n = g.n
    edges = g.edges
    rows = [0] * n  # adjacency bitmasks of the kept set K
    match = [-1] * n  # a maximum matching of K; nu is its size

    def grows(a: int, b: int) -> bool:
        """With (a, b) just added to K, grow match by one edge if nu(K)
        rose."""
        if match[a] == -1 and match[b] == -1:
            match[a], match[b] = b, a  # (a, b) itself: no search needed
            return True
        if match[a] == -1:
            return _augment(n, rows, match, a)
        if match[b] == -1:
            return _augment(n, rows, match, b)
        # a path through (a, b) joins two other free vertices
        return any(_augment(n, rows, match, v)
                   for v in range(n) if match[v] == -1)

    def rec(i: int, kept_mask: int, kept_count: int, nu: int) -> None:
        nonlocal best_value, best_mask
        if kept_count + (m - i) <= best_value:
            return
        if i == m:
            # strictly better than the incumbent by the prune above
            best_value = kept_count
            best_mask = kept_mask
            return
        a, b = edges[i]
        saved = match[:]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
        kept_nu = nu + grows(a, b)
        if kept_nu < r:
            rec(i + 1, kept_mask | (1 << i), kept_count + 1, kept_nu)
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
        match[:] = saved
        rec(i + 1, kept_mask, kept_count, nu)

    allow_recursion(m)
    rec(0, 0, 0, 0)
    return ExtremalCertificate(frozenset(bit_indices(best_mask)), best_value, r)


def validate_certificate(g: Graph, cert: ExtremalCertificate) -> bool:
    """Independent re-check: the kept subgraph really has nu <= r-1.

    Runs the matchings backtracker over the certificate's edges, a
    different code path from the blossom search used inside ex_exact.
    """
    if cert.value != len(cert.edges) or cert.r < 1:
        return False
    if any(not 0 <= e < g.m for e in cert.edges):
        return False
    mask = sum(1 << e for e in cert.edges)
    return has_matching_of_size(g, cert.r, allowed=mask) is None
