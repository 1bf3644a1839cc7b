"""Matchings: enumeration, exact maximum matching, perfect-matching checks.

A matching is a set of pairwise vertex-disjoint edges, held as sorted
edge indices into the host graph's canonical edge list.  Enumeration
order is lexicographic on those index tuples; the Kneser construction
inherits its vertex numbering from this order, so it must never change.

The r-matchings come from one backtracker, _search, that branches on
the lowest vertex not yet decided: covered by an edge to a higher
vertex, or left uncovered while the slack n - 2r allows.  Edges are
sorted by lower endpoint, so a matching's index tuple lists its edges
in the order this search picks them, and the search meets the
matchings in lexicographic order.  The blossom search _augment grows a
maximum matching one augmenting path at a time for matching_number and
for ex_exact.
"""

from __future__ import annotations

from .graph_core import Graph


def _search(g: Graph, r: int, allowed, first: bool) -> list[tuple[int, ...]]:
    """The r-matchings of g among the allowed edges (an edge bitmask, or
    None for all), in lexicographic order, or only the first of them
    when first is set.

    Each node takes the lowest vertex v that is neither covered nor
    given up.  It first covers v with each allowed edge (v, w) to a
    higher vertex w still free, in edge-index order, and then leaves v
    uncovered.  An r-matching leaves n - 2r vertices uncovered, so a
    branch may give up only that many (the slack); at r = n/2 a vertex
    with no free higher neighbour ends its branch at once.

    The order is lexicographic: every vertex below v is decided, so the
    next edge of any matching below this node is the one at its lowest
    covered vertex.  That edge is (v, w) when v is covered, and its
    index grows with w; when v is left uncovered, every later edge has
    a lower endpoint above v and so an index above every (v, w).  r=0
    gives exactly one empty matching.
    """
    if r < 0:
        raise ValueError("matching size must be >= 0")
    slack = g.n - 2 * r
    if slack < 0:
        return []
    if r == 0:
        return [()]
    # up[v]: (edge index, bit of w) for the allowed edges (v, w), w > v
    up = [[] for _ in range(g.n)]
    for e, (v, w) in enumerate(g.edges):
        if allowed is None or allowed >> e & 1:
            up[v].append((e, 1 << w))
    out: list[tuple[int, ...]] = []
    cur: list[int] = []

    def rec(decided: int, need: int, slack: int) -> bool:
        while True:
            low = ~decided & (decided + 1)
            for e, wbit in up[low.bit_length() - 1]:
                if decided & wbit:
                    continue
                cur.append(e)
                if need == 1:
                    out.append(tuple(cur))
                    if first:
                        return True
                elif rec(decided | low | wbit, need - 1, slack):
                    return True
                cur.pop()
            if not slack:
                return False
            slack -= 1  # leave low's vertex uncovered
            decided |= low

    rec(0, r, slack)
    return out


def enumerate_matchings(g: Graph, r: int) -> list[tuple[int, ...]]:
    """All matchings of size exactly r, in lexicographic order; r=0
    yields exactly one empty matching, ()."""
    return _search(g, r, None, first=False)


def has_matching_of_size(g: Graph, r: int, allowed=None):
    """First r-matching of g using only allowed edges, or None.

    allowed is None (all edges) or an int bitmask over the edge indices
    0..m-1; a negative mask or one with a bit at m or above raises
    ValueError.  The witness is the first r-matching in enumeration
    order; validate_certificate leans on this check.
    """
    if allowed is not None and (allowed < 0 or allowed >> g.m):
        raise ValueError(f"allowed must be an edge bitmask below 2**{g.m}")
    found = _search(g, r, allowed, first=True)
    return found[0] if found else None


def _augment(n: int, rows: list[int], match: list[int], root: int) -> bool:
    """Grow match by one edge along an augmenting path from root.

    Edmonds' blossom search over the adjacency bitmasks rows, from the
    free vertex root: alternating trees grown breadth first, odd cycles
    contracted to their base.  match[v] is v's partner or -1.  Returns
    True and augments match in place when such a path exists; returns
    False with match untouched when none does, since the search finds
    an augmenting path from root whenever one exists.

    Neighbours are walked in ascending order straight off rows[v]; the
    queued vertices, the bases on the path to the root (for the lowest
    common ancestor) and a blossom's bases are bitmasks.
    """
    p = [-1] * n
    base = list(range(n))
    used = 1 << root
    queue = [root]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        nb = rows[v]
        while nb:
            bit = nb & -nb
            nb ^= bit
            to = bit.bit_length() - 1
            if base[v] == base[to] or match[v] == to:
                continue
            mt = match[to]
            if to == root or (mt != -1 and p[mt] != -1):
                # odd cycle found: contract the blossom.  Its base is
                # the first base on to's path that v's path also meets.
                path = 0
                x = v
                while True:
                    x = base[x]
                    path |= 1 << x
                    if match[x] == -1:
                        break
                    x = p[match[x]]
                y = base[to]
                while not path >> y & 1:
                    y = base[p[match[y]]]
                blossom = 0
                for x, child in ((v, to), (to, v)):
                    while base[x] != y:
                        blossom |= 1 << base[x] | 1 << base[match[x]]
                        p[x] = child
                        child = match[x]
                        x = p[child]
                for i in range(n):
                    if blossom >> base[i] & 1:
                        base[i] = y
                        if not used >> i & 1:
                            used |= 1 << i
                            queue.append(i)
            elif p[to] == -1:
                p[to] = v
                if mt == -1:
                    # augment along the alternating path to root
                    u = to
                    while u != -1:
                        pv = p[u]
                        ppv = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = ppv
                    return True
                used |= 1 << mt
                queue.append(mt)
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
