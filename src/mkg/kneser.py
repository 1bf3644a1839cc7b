"""Matching Kneser graphs KG(G, rK2) and classical Kneser graphs KG(n, r).

Vertices of KG(G, rK2) are the r-matchings of G in lexicographic
enumeration order; two are adjacent when their matchings are edge-
disjoint (they may well share vertices).  KG(n, r) is built by an
independent route, directly over r-subsets, so the stated isomorphism
KG(nK2, rK2) = KG(n, r) can be cross-checked rather than assumed.  Both
routes list their vertices in the same order, so the check is labelled
equality: equal vertices and equal rows, with no vertex map to search.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .graph_core import Graph, bit_indices, check_count, disjoint_matching
from .matchings import enumerate_matchings, holder_index


class KneserGraph(NamedTuple):
    """A derived Kneser-type graph, held as one adjacency bitmask per vertex.

    base: the host graph G.
    r: the matching size.
    vertices: the r-matchings as sorted tuples of host edge indices, in
        lexicographic order; vertex i of the derived graph is vertices[i].
    rows: rows[i] has bit j set iff vertices i and j are adjacent; no
        vertex is adjacent to itself.  Graph.rows has the same form, so
        code that reads only n, m and rows takes either.
    m: the number of edges, sum of the row popcounts over 2.
    """

    base: Graph
    r: int
    vertices: tuple[tuple[int, ...], ...]
    rows: tuple[int, ...]
    m: int

    @property
    def n(self) -> int:
        return len(self.rows)


def _from_rows(base: Graph, r: int, verts, rows: list[int]) -> KneserGraph:
    m = sum(row.bit_count() for row in rows) // 2
    return KneserGraph(base, r, tuple(verts), tuple(rows), m)


def build_matching_kneser(g: Graph, r: int) -> KneserGraph:
    """KG(g, rK2) over all r-matchings of g.

    r is a count >= 1 (graph_core.check_count); r=0 would give a
    degenerate one-vertex graph that answers nothing.  Zero
    r-matchings yield a null derived graph.  With holders[e] the bitmask
    of the r-matchings that use host edge e (holder_index), the row of
    matching M is everything outside the OR of holders[e] over e in M:
    O(N*r) big-int operations, no pair tests.
    """
    check_count(r, 1, "r")
    verts = enumerate_matchings(g, r)
    holders = holder_index(g.m, verts)
    full = (1 << len(verts)) - 1
    rows = []
    for mt in verts:
        meets = 0
        for e in mt:
            meets |= holders[e]
        rows.append(full & ~meets)
    return _from_rows(g, r, verts, rows)


def build_kneser(n: int, r: int) -> KneserGraph:
    """Classical KG(n, r): r-subsets of {0..n-1}, adjacent when disjoint.

    Encoded over the host nK2 so the result is directly comparable with
    build_matching_kneser(disjoint_matching(n), r): subset element i
    plays edge index i.  Built from combinations and pairwise
    disjointness tests, not from the matching enumerator or the per-edge
    masks, to keep the isomorphism check two-sided.  n < r gives a null
    derived graph.
    """
    check_count(n, 1, "n")
    check_count(r, 1, "r")
    base = disjoint_matching(n)
    subs = list(combinations(range(n), r))
    masks = [sum(1 << x for x in s) for s in subs]
    nv = len(subs)
    rows = [0] * nv
    for i in range(nv):
        mi = masks[i]
        for j in range(i + 1, nv):
            if mi & masks[j] == 0:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return _from_rows(base, r, subs, rows)


def to_dot(kg: KneserGraph) -> str:
    """DOT text: one node per matching labeled with its edge list, one
    undirected edge per adjacency, nodes in enumeration order and edges
    (i, j), i < j, in lexicographic order."""
    lines = ["graph kneser {"]
    for i, mt in enumerate(kg.vertices):
        pairs = (kg.base.edges[e] for e in mt)
        label = ",".join(f"{u}-{v}" for u, v in pairs)
        lines.append(f'  {i} [label="{label}"];')
    for i, row in enumerate(kg.rows):
        # each edge once, from its low end
        for j in bit_indices(row >> (i + 1) << (i + 1)):
            lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
