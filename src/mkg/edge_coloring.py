"""Exact chromatic index and the snark predicate.

Class-2 status is certified exhaustively, never by heuristic: whether a
cubic graph is a snark is what the whole counterexample hangs on.
Both go through the perfect matchings when the graph is cubic: a cubic
graph is 3-edge-colorable exactly when some perfect matching leaves a
2-factor whose cycles are all even, so it is class two (and, when
connected and bridgeless, a snark) when no perfect matching does.
chromatic_index certifies class two by counting (an overfull graph), by
that perfect-matching test (a cubic graph), or else by exhaustive
failure of the Delta-edge-coloring search.
The verifier hands is_snark the perfect matchings its Kneser build
listed, so at n = 2r they are listed once; called alone, and in
chromatic_index, the test lists them itself and stops at the first hit.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .graph_core import Graph, allow_recursion, bridges, is_connected, is_cubic
from .matchings import _search


class EdgeColoringResult(NamedTuple):
    chromatic_index: int
    coloring: tuple[int, ...]  # edge index -> color in 0..chromatic_index-1
    vizing_class: str  # "one" if chi' == Delta else "two"


def _backtrack_edge_coloring(g: Graph, k: int):
    """A proper k-edge-coloring as a list, or None if none exists.

    k must be at least the maximum degree (chromatic_index passes Delta
    or Delta + 1).  Edges are processed in index order, colors tried in
    ascending order.
    Symmetry break, the only one: a fresh color may only be the lowest
    unused one, which is harmless up to color permutation.  The star of
    vertex 0 holds the lowest edge indices, so this alone colors it
    0..deg(0)-1 with no alternative, and as long as first-fit over the
    edges in index order needs at most k colors, it is the first descent.
    """
    m = g.m
    edges = g.edges
    color = [-1] * m
    used_at = [0] * g.n  # bitmask of colors present at each vertex

    def rec(i: int, maxc: int) -> bool:
        """Color edges i..m-1; maxc is the highest color in use."""
        if i == m:
            return True
        u, v = edges[i]
        blocked = used_at[u] | used_at[v]
        for c in range(min(k - 1, maxc + 1) + 1):
            if blocked >> c & 1:
                continue
            color[i] = c
            used_at[u] |= 1 << c
            used_at[v] |= 1 << c
            if rec(i + 1, max(maxc, c)):
                return True
            used_at[u] &= ~(1 << c)
            used_at[v] &= ~(1 << c)
        return False

    allow_recursion(m)
    return color if rec(0, -1) else None


def chromatic_index(g: Graph) -> EdgeColoringResult:
    """Exact chi'(G) with a witnessing proper edge coloring.

    An overfull graph (m > Delta * floor(n/2)) is class two by counting,
    since each color class is a matching of at most floor(n/2) edges.
    A cubic graph is class two when no perfect matching leaves an even
    2-factor (_three_edge_colorable), with no 3-coloring search.
    Otherwise tries a Delta-edge-coloring by backtracking, and the graph
    is class two when that search fails exhaustively (on a cubic graph
    that passed the test it never does).  For class two the
    same backtracker with k=Delta+1 produces the coloring, which
    Vizing's theorem guarantees to exist.
    Convention: m=0 gives chi'=0.
    """
    if g.m == 0:
        return EdgeColoringResult(0, (), "one")
    delta = max(row.bit_count() for row in g.rows)
    if g.m <= delta * (g.n // 2) and (
            not is_cubic(g) or _three_edge_colorable(g)):
        col = _backtrack_edge_coloring(g, delta)
        if col is not None:
            return EdgeColoringResult(delta, tuple(col), "one")
    col = _backtrack_edge_coloring(g, delta + 1)
    return EdgeColoringResult(delta + 1, tuple(col), "two")


def _leaves_even_two_factor(g: Graph, pm: tuple[int, ...]) -> bool:
    """Is every cycle of the 2-factor that the perfect matching pm
    leaves in the cubic graph g even?  Then pm and the two halves of the
    2-factor's alternate edges are a 3-edge-coloring.  Each cycle is
    walked once, one bitmask step per vertex."""
    two = list(g.rows)  # the 2-factor: every edge off pm
    for e in pm:
        a, b = g.edges[e]
        two[a] ^= 1 << b
        two[b] ^= 1 << a
    seen = 0
    for v in range(g.n):
        if seen >> v & 1:
            continue
        length = 0
        bit = 1 << v
        while bit:
            seen |= bit
            length += 1
            ahead = two[bit.bit_length() - 1] & ~seen
            bit = ahead & -ahead
        if length & 1:
            return False
    return True


def _three_edge_colorable(g: Graph, perfect_matchings=None) -> bool:
    """Does some perfect matching of the cubic graph g leave an even
    2-factor, that is, is g 3-edge-colorable?  Goes through
    perfect_matchings when given (all of g's, in any order), and
    otherwise lists them lazily with _search, stopping at the first
    hit; a graph with no perfect matching answers False."""
    even = partial(_leaves_even_two_factor, g)
    if perfect_matchings is not None:
        return any(map(even, perfect_matchings))
    return _search(g, g.n // 2, None, even)


def is_snark(g: Graph, perfect_matchings=None):
    """(bool, reason) snark test: connected, bridgeless, cubic, class two.

    Clauses are evaluated in this fixed order so the reason string is
    deterministic.  No girth or cyclic-connectivity requirements.  reason
    is None on True.  The last clause goes through the perfect matchings
    in order and stops at the first that leaves an even 2-factor; a
    snark is proved class two when none does.  It scans
    perfect_matchings when given (all of g's, in any order), and
    otherwise lists them lazily with _search, stopping at the first hit.
    """
    if not is_connected(g):
        return False, "not connected"
    if bridges(g):
        return False, "has a bridge"
    if not is_cubic(g):
        return False, "not cubic"
    # cubic: m = 3n/2 is never overfull, so chi' is 3 or 4 (0 when n = 0)
    if _three_edge_colorable(g, perfect_matchings):
        return False, f"chromatic index {3 if g.m else 0}"
    return True, None
