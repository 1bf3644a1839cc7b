"""Exact chromatic index and the snark predicate.

Class-2 status is certified by exhaustive failure of the Delta-edge-
coloring search, never by heuristic: whether a cubic graph is a snark is
what the whole counterexample hangs on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import Graph, bridges, is_connected, is_cubic


@dataclass(frozen=True)
class EdgeColoringResult:
    chromatic_index: int
    coloring: tuple[int, ...]  # edge index -> color in 0..chromatic_index-1
    vizing_class: str  # "one" if chi' == Delta else "two"


def _backtrack_edge_coloring(g: Graph, k: int):
    """A proper k-edge-coloring as a list, or None if none exists.

    Edges are processed in index order, colors tried in ascending order.
    Symmetry break: the star of vertex 0 is pre-colored 0..deg(0)-1 in
    edge-index order, which is harmless up to color permutation.  On top
    of that a fresh color may only be the lowest unused one.
    """
    m = g.m
    if m == 0:
        return []
    if k <= 0:
        return None
    if g.n and g.degree(0) > k:
        return None
    color = [-1] * m
    used_at = [0] * g.n  # bitmask of colors present at each vertex
    maxc = -1  # highest color index in use
    star0 = [i for i, (u, v) in enumerate(g.edges) if 0 in (u, v)]
    for c, i in enumerate(star0):
        u, v = g.edges[i]
        color[i] = c
        used_at[u] |= 1 << c
        used_at[v] |= 1 << c
        maxc = c
    order = [i for i in range(m) if color[i] == -1]
    total = len(order)
    # iterative DFS: trial[pos] is the next color to try at that depth
    trial = [0] * total
    maxstack = [maxc] * (total + 1)
    pos = 0
    maxstack[0] = maxc
    while True:
        if pos == total:
            return color
        i = order[pos]
        u, v = g.edges[i]
        blocked = used_at[u] | used_at[v]
        cap = min(k - 1, maxstack[pos] + 1)  # first-use colors in order
        placed = False
        for c in range(trial[pos], cap + 1):
            if (blocked >> c) & 1:
                continue
            color[i] = c
            used_at[u] |= 1 << c
            used_at[v] |= 1 << c
            trial[pos] = c + 1
            maxstack[pos + 1] = max(maxstack[pos], c)
            pos += 1
            placed = True
            break
        if placed:
            continue
        trial[pos] = 0
        pos -= 1
        if pos < 0:
            return None
        j = order[pos]
        uu, vv = g.edges[j]
        c = color[j]
        color[j] = -1
        used_at[uu] &= ~(1 << c)
        used_at[vv] &= ~(1 << c)


def _greedy_edge_coloring(g: Graph) -> list[int]:
    """First-fit over edges in index order; palette unbounded."""
    used_at = [0] * g.n
    color = []
    for u, v in g.edges:
        blocked = used_at[u] | used_at[v]
        c = 0
        while (blocked >> c) & 1:
            c += 1
        color.append(c)
        used_at[u] |= 1 << c
        used_at[v] |= 1 << c
    return color


def chromatic_index(g: Graph) -> EdgeColoringResult:
    """Exact chi'(G) with a witnessing proper edge coloring.

    Tries a Delta-edge-coloring by backtracking; if that search fails
    exhaustively the graph is class two and a (Delta+1)-coloring is
    produced (greedy first, falling back to the backtracker with
    k=Delta+1, which Vizing's theorem guarantees to succeed).
    Convention: m=0 gives chi'=0.
    """
    if g.m == 0:
        return EdgeColoringResult(0, (), "one")
    delta = max(row.bit_count() for row in g.rows)
    col = _backtrack_edge_coloring(g, delta)
    if col is not None:
        return EdgeColoringResult(delta, tuple(col), "one")
    col = _greedy_edge_coloring(g)
    if max(col) > delta:  # greedy overshoot past Delta+1 colors
        col = _backtrack_edge_coloring(g, delta + 1)
    return EdgeColoringResult(delta + 1, tuple(col), "two")


def is_snark(g: Graph):
    """(bool, reason) snark test: connected, bridgeless, cubic, class two.

    Clauses are evaluated in this fixed order so the reason string is
    deterministic.  No girth or cyclic-connectivity requirements.  reason
    is None on True.
    """
    if not is_connected(g):
        return False, "not connected"
    if bridges(g):
        return False, "has a bridge"
    if not is_cubic(g):
        return False, "not cubic"
    ci = chromatic_index(g).chromatic_index
    if ci != 4:
        return False, f"chromatic index {ci}"
    return True, None
