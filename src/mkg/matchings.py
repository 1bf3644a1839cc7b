"""Matchings: enumeration, exact maximum matching, perfect-matching checks.

A matching is a set of pairwise vertex-disjoint edges, held as sorted
edge indices into the host graph's canonical edge list.  Enumeration
order is lexicographic on those index tuples; the Kneser construction
inherits its vertex numbering from this order, so it must never change.
"""

from __future__ import annotations

from collections import deque

from .graph_core import Graph, bit_indices


def _search(g: Graph, r: int, idxs, first: bool) -> list[tuple[int, ...]]:
    """The r-matchings among the edges idxs (ascending), in lexicographic
    order, or only the first of them when first is set.

    Backtracks over idxs keeping a covered-vertex mask; the loop bound
    stops each branch as soon as too few edges are left to reach size r.
    r=0 gives exactly one empty matching.
    """
    if r < 0:
        raise ValueError("matching size must be >= 0")
    evmask = g.edge_vertex_masks
    k = len(idxs)
    out: list[tuple[int, ...]] = []
    cur: list[int] = []

    def rec(start: int, covered: int, need: int) -> bool:
        if need == 0:
            out.append(tuple(cur))
            return first
        for pos in range(start, k - need + 1):
            e = idxs[pos]
            if covered & evmask[e]:
                continue
            cur.append(e)
            if rec(pos + 1, covered | evmask[e], need - 1):
                return True
            cur.pop()
        return False

    rec(0, 0, r)
    return out


def enumerate_matchings(g: Graph, r: int) -> list[tuple[int, ...]]:
    """All matchings of size exactly r, in lexicographic order; r=0
    yields exactly one empty matching, ()."""
    return _search(g, r, list(range(g.m)), first=False)


def has_matching_of_size(g: Graph, r: int, allowed=None):
    """First r-matching of g using only allowed edges, or None.

    allowed is None (all edges) or an int bitmask over edge indices.  The
    enumeration's backtracking with early exit on the first hit; this is
    the check the extremal branch and bound leans on.
    """
    idxs = list(range(g.m)) if allowed is None else bit_indices(allowed)
    found = _search(g, r, idxs, first=True)
    return found[0] if found else None


def _augment(n: int, rows: list[int], match: list[int], root: int) -> bool:
    """Grow match by one edge along an augmenting path from root.

    Edmonds' blossom search over the adjacency bitmasks rows, from the
    free vertex root: alternating trees grown breadth first, odd cycles
    contracted to their base.  match[v] is v's partner or -1.  Returns
    True and augments match in place when such a path exists; returns
    False with match untouched when none does, since the search finds
    an augmenting path from root whenever one exists.
    """
    used = [False] * n
    p = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        used_path = [False] * n
        x = a
        while True:
            x = base[x]
            used_path[x] = True
            if match[x] == -1:
                break
            x = p[match[x]]
        y = b
        while True:
            y = base[y]
            if used_path[y]:
                return y
            y = p[match[y]]

    def mark_path(v: int, b: int, child: int, blossom: list) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    used[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in bit_indices(rows[v]):
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                # odd cycle found: contract the blossom
                curbase = lca(v, to)
                blossom = [False] * n
                mark_path(v, curbase, to, blossom)
                mark_path(to, curbase, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    # augment along the alternating path to root
                    u = to
                    while u != -1:
                        pv = p[u]
                        ppv = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = ppv
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def matching_number(g: Graph) -> int:
    """Exact maximum matching size: a greedy start, then one blossom
    search (_augment) from each vertex still free.

    The brute-force oracle in the test suite pins this down on all small
    graphs; the algorithm itself is the standard O(n^3) one.
    """
    n = g.n
    match = [-1] * n
    # cheap greedy start cuts the number of augmenting phases
    for u, v in g.edges:
        if match[u] == -1 and match[v] == -1:
            match[u] = v
            match[v] = u
    for v in range(n):
        if match[v] == -1:
            _augment(n, g.rows, match, v)
    return sum(1 for v in range(n) if match[v] != -1) // 2


def enumerate_perfect_matchings(g: Graph) -> list[tuple[int, ...]]:
    """All perfect matchings; empty for odd order."""
    if g.n % 2 == 1:
        return []
    return enumerate_matchings(g, g.n // 2)


def schonberger_check(g: Graph):
    """Does every pair of distinct edges miss some perfect matching?

    Returns (True, None), or (False, (e, f)) with the lexicographically
    first pair of edge indices such that no perfect matching avoids both.
    Requires m >= 2.
    """
    if g.m < 2:
        raise ValueError("schonberger_check needs at least two edges")
    pm_masks = [sum(1 << e for e in pm)
                for pm in enumerate_perfect_matchings(g)]
    for e in range(g.m):
        for f in range(e + 1, g.m):
            banned = (1 << e) | (1 << f)
            if not any(mask & banned == 0 for mask in pm_masks):
                return False, (e, f)
    return True, None


def pairwise_intersect(matchings) -> bool:
    """True iff every two of the given matchings share an edge; vacuously
    true for fewer than two."""
    masks = [sum(1 << e for e in mt) for mt in matchings]
    return all(masks[i] & masks[j]
               for i in range(len(masks)) for j in range(i + 1, len(masks)))


def perfect_matchings_pairwise_intersect(g: Graph) -> bool:
    """True iff every two distinct perfect matchings share an edge.

    Vacuously true with at most one perfect matching.  For a snark of
    order 2r this is the mechanism that leaves KG(G, rK2) edgeless.
    """
    return pairwise_intersect(enumerate_perfect_matchings(g))
