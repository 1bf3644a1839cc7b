"""Matchings: enumeration, augmenting paths, perfect-matching checks.

A matching is a set of pairwise vertex-disjoint edges, held as sorted
edge indices into the host graph's canonical edge list.  Enumeration
order is lexicographic on those index tuples; the Kneser construction
inherits its vertex numbering from this order, so it must never change.

The r-matchings come from one backtracker, _search, that branches on
the lowest vertex not yet decided: covered by an edge to a higher
vertex, or left uncovered while the slack n - 2r allows.  Edges are
sorted by lower endpoint, so a matching's index tuple lists its edges
in the order this search picks them, and the search meets the
matchings in lexicographic order; at r = n/2 it looks one step ahead.
It hands each one to a visit callback and stops when visit returns a
true value, so a caller that wants the first matching with some
property (is_snark's even 2-factor) never enumerates the rest.  A
caller that wants the matchings of a subgraph builds that subgraph.
For ex_exact, the blossom search _augment grows a maximum matching one
augmenting path at a time, and the hitting search _hits finds at most d
edges meeting every listed matching (schonberger_check runs d = 2).
"""

from __future__ import annotations

from .graph_core import Graph, check_count


def _search(g: Graph, r: int, visit) -> bool:
    """Call visit on each r-matching of g, in lexicographic order, until
    visit returns a true value; return whether one did.

    Each node takes the lowest vertex v that is neither covered nor
    given up.  It first covers v with each edge (v, w) to a higher
    vertex w still free, in edge-index order, and then leaves v
    uncovered.  An r-matching leaves n - 2r vertices uncovered, so a
    branch may give up only that many (the slack); at r = n/2 a vertex
    with no free higher neighbour ends its branch at once, and so does
    covering v with (v, w) when it leaves a neighbour of v or w with no
    free neighbour (a look-ahead that cuts no matching; it reads
    g.rows, and only at slack 0).

    The order is lexicographic: every vertex below v is decided, so the
    next edge of any matching below this node is the one at its lowest
    covered vertex.  That edge is (v, w) when v is covered, and its
    index grows with w; when v is left uncovered, every later edge has
    a lower endpoint above v and so an index above every (v, w).  r=0
    gives exactly one empty matching.  The search is lazy: it stops at
    the matching visit accepts, so a caller that wants a matching with
    some property pays only for the matchings before it.
    """
    check_count(r, 0, "r")
    slack = g.n - 2 * r
    if slack < 0:
        return False
    if r == 0:
        return bool(visit(()))
    # up[v]: (edge index, bit of w, neighbours of v and w at slack 0)
    # for the edges (v, w), w > v
    nbr = g.rows
    up = [[] for _ in range(g.n)]
    for e, (v, w) in enumerate(g.edges):
        up[v].append((e, 1 << w, 0 if slack else nbr[v] | nbr[w]))
    cur: list[int] = []

    def rec(decided: int, need: int, slack: int) -> bool:
        while True:
            low = ~decided & (decided + 1)
            for e, wbit, near in up[low.bit_length() - 1]:
                if decided & wbit:
                    continue
                taken = decided | low | wbit
                if near:  # slack 0: look one step ahead
                    free = ~taken
                    near &= free
                    while near and nbr[(near & -near).bit_length() - 1] & free:
                        near &= near - 1  # that one still has a partner
                    if near:
                        continue
                cur.append(e)
                if need == 1:
                    if visit(tuple(cur)):
                        return True
                elif rec(taken, need - 1, slack):
                    return True
                cur.pop()
            if not slack:
                return False
            slack -= 1  # leave low's vertex uncovered
            decided |= low

    return rec(0, r, slack)


def enumerate_matchings(g: Graph, r: int) -> list[tuple[int, ...]]:
    """All matchings of size exactly r, in lexicographic order; r=0
    yields exactly one empty matching, ()."""
    out: list[tuple[int, ...]] = []
    _search(g, r, out.append)
    return out


def has_matching_of_size(g: Graph, r: int):
    """First r-matching of g in enumeration order, or None.
    validate_certificate leans on this check."""
    found: list[tuple[int, ...]] = []
    _search(g, r, lambda mt: found.append(mt) or True)
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


def holder_index(m: int, matchings) -> list[int]:
    """holders[e] for each of the m host edges: the bitmask of the listed
    matchings that hold e (bit j for matchings[j]).  The Kneser build
    and _hits (ex's seed proof, schonberger_check) read this one index."""
    holders = [0] * m
    for j, mt in enumerate(matchings):
        bit = 1 << j
        for e in mt:
            holders[e] |= bit
    return holders


def _hits(matchings, holders: list[int], alive: int, d: int, kept: int = 0):
    """A tuple of at most d edges, none in the bitmask kept, that meets
    every matching in the bitmask alive, or None.  holders is their
    holder_index.  Any such set meets the first alive matching, so the
    search branches on its edges; an edge tried and failed is kept in
    the later branches and below them, so no set is visited twice."""
    if not alive:
        return ()
    if not d:
        return None
    for e in matchings[(alive & -alive).bit_length() - 1]:
        if kept >> e & 1:
            continue
        rest = _hits(matchings, holders, alive & ~holders[e], d - 1, kept)
        if rest is not None:
            return (e,) + rest
        kept |= 1 << e
    return None


def schonberger_check(g: Graph):
    """(True, None) when every two edges miss some perfect matching,
    else (False, D): _hits at d = 2 found D, sorted, of at most two edge
    indices meeting every perfect matching (D = () when there is none)."""
    pms = enumerate_matchings(g, g.n // 2) if g.n % 2 == 0 else []
    hit = _hits(pms, holder_index(g.m, pms), (1 << len(pms)) - 1, 2)
    return (True, None) if hit is None else (False, tuple(sorted(hit)))


def pairwise_intersect(matchings) -> bool:
    """True iff every two of the given matchings share an edge; vacuously
    true for fewer than two.

    Linear in the total size of the matchings rather than quadratic in
    their number: holders[e] is the bitmask of the matchings that contain
    edge e, so matching M meets every matching iff the union of
    holders[e] over the edges e of M is all of them.  It keeps its own
    loop, not holder_index: it re-checks the Kneser build independently.
    """
    matchings = list(matchings)
    if len(matchings) < 2:
        return True
    holders = {}
    for j, mt in enumerate(matchings):
        for e in mt:
            holders[e] = holders.get(e, 0) | 1 << j
    everyone = (1 << len(matchings)) - 1
    for mt in matchings:
        met = 0
        for e in mt:
            met |= holders[e]
        if met != everyone:
            return False
    return True
