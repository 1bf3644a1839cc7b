"""Matching Kneser graphs KG(G, rK2) and classical Kneser graphs KG(n, r).

Vertices of KG(G, rK2) are the r-matchings of G in lexicographic
enumeration order; two are adjacent when their matchings are edge-
disjoint (they may well share vertices).  KG(n, r) is built by an
independent route, directly over r-subsets, so the stated isomorphism
KG(nK2, rK2) = KG(n, r) can be cross-checked rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .graph_core import Graph, disjoint_matching
from .matchings import Matching, enumerate_matchings


@dataclass(frozen=True)
class KneserGraph:
    """A derived Kneser-type graph, held as one adjacency bitmask per vertex.

    base: the host graph G.
    r: the matching size.
    vertices: the r-matchings, in lexicographic order; vertex i of the
        derived graph is vertices[i].
    rows: rows[i] has bit j set iff vertices i and j are adjacent; no
        vertex is adjacent to itself.
    m: the number of edges, sum of the row popcounts over 2.

    adjacency, the same graph as a Graph, is built on first use and
    cached; only DOT output and the isomorphism check need it.
    """

    base: Graph
    r: int
    vertices: tuple[Matching, ...]
    rows: tuple[int, ...]
    m: int

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def adjacency(self) -> Graph:
        edges = []
        for i, row in enumerate(self.rows):
            rest = row >> (i + 1) << (i + 1)  # each edge once, from its low end
            while rest:
                bit = rest & -rest
                edges.append((i, bit.bit_length() - 1))
                rest ^= bit
        return Graph(self.n, edges)


def _from_rows(base: Graph, r: int, verts, rows: list[int]) -> KneserGraph:
    m = sum(row.bit_count() for row in rows) // 2
    return KneserGraph(base, r, tuple(verts), tuple(rows), m)


def build_matching_kneser(g: Graph, r: int) -> KneserGraph:
    """KG(g, rK2) over all r-matchings of g.

    r must be >= 1; r=0 is rejected (it would give a degenerate one-
    vertex graph that answers nothing).  Zero r-matchings yield a null
    derived graph.  With contains[e] the bitmask of the r-matchings that
    use host edge e, the row of matching M is everything outside the OR
    of contains[e] over e in M: O(N*r) big-int operations, no pair tests.
    """
    if r < 1:
        raise ValueError("build_matching_kneser requires r >= 1")
    verts = enumerate_matchings(g, r)
    contains = [0] * g.m
    for i, mt in enumerate(verts):
        bit = 1 << i
        for e in mt.edges:
            contains[e] |= bit
    full = (1 << len(verts)) - 1
    rows = []
    for mt in verts:
        meets = 0
        for e in mt.edges:
            meets |= contains[e]
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
    if n < 1 or r < 1:
        raise ValueError("build_kneser requires n >= 1 and r >= 1")
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
    return _from_rows(base, r, (Matching(s) for s in subs), rows)


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of structurally_equivalent.

    method is "isomorphism" when an exact backtracking check ran (12
    vertices or fewer), "invariants" when only vertex count, edge count
    and degree sequence were compared.  Truthiness follows equivalent.
    """

    equivalent: bool
    method: str

    def __bool__(self) -> bool:
        return self.equivalent


def _as_graph(x) -> Graph:
    return x.adjacency if isinstance(x, KneserGraph) else x


def _isomorphic(a: Graph, b: Graph) -> bool:
    """Backtracking vertex bijection; intended for <= 12 vertices."""
    if a.n != b.n or a.m != b.m:
        return False
    da = sorted(len(s) for s in a.adj)
    db = sorted(len(s) for s in b.adj)
    if da != db:
        return False
    n = a.n
    # map vertices of a in descending degree order, candidates must match
    # degree and adjacency with everything already mapped
    order = sorted(range(n), key=lambda v: (-len(a.adj[v]), v))
    image = [-1] * n
    used = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            return True
        v = order[k]
        for w in range(n):
            if used[w] or len(b.adj[w]) != len(a.adj[v]):
                continue
            ok = True
            for j in range(k):
                u = order[j]
                if (u in a.adj[v]) != (image[u] in b.adj[w]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if extend(k + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    return extend(0)


def structurally_equivalent(a, b) -> EquivalenceResult:
    """Compare two derived graphs (KneserGraph or Graph).

    Up to 12 vertices this is an exact isomorphism test; beyond that only
    (vertex count, edge count, sorted degree sequence) are compared and
    the result is flagged as invariant-level.
    """
    ga, gb = _as_graph(a), _as_graph(b)
    if ga.n <= 12 and gb.n <= 12:
        return EquivalenceResult(_isomorphic(ga, gb), "isomorphism")
    same = (ga.n == gb.n and ga.m == gb.m
            and sorted(len(s) for s in ga.adj) == sorted(len(s) for s in gb.adj))
    return EquivalenceResult(same, "invariants")


def to_dot(kg: KneserGraph) -> str:
    """DOT text: one node per matching labeled with its edge list, one
    undirected edge per adjacency, nodes in enumeration order."""
    lines = ["graph kneser {"]
    for i, mt in enumerate(kg.vertices):
        label = ",".join(f"{u}-{v}" for u, v in mt.endpoint_pairs(kg.base))
        lines.append(f'  {i} [label="{label}"];')
    for u, v in kg.adjacency.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
