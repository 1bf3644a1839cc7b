"""Exact chromatic number of derived Kneser graphs.

chromatic_number runs one complete search: a DSATUR-ordered branch and
bound with a clique lower bound.  Tie-breaks are fixed (highest
saturation, then highest degree, then lowest vertex index) so search
traces are reproducible.  Its first leaf, the one-pass DSATUR coloring,
is the upper bound the search starts from.  It returns at a node that
uses as many colors as the incumbent: the count never falls along a
branch.  The test suite checks it against brute force, against pinned
chromatic numbers and against a list-based twin that must visit the
same nodes in the same order.  A blown node budget raises
BudgetExhausted rather than ever returning a guess.

Each search node costs a few bitmask operations, not a pass over the
vertices.  The search relabels the vertices by degree (highest first,
then index), keeps one bitmask of uncolored vertices per saturation
level and one bitmask per color of the uncolored vertices next to that
color; its next vertex is the lowest bit of the highest nonempty level.

star_triangle_bound proves chi(KG(G, 2K2)) >= |E| - ex(G, 2K2) by
counting star and triangle color classes, which decides r = 2 on most
hosts without a coloring search: the theorem's coloring
(greedy_ex_coloring) then has the fewest colors.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .graph_core import allow_recursion, bit_indices, check_count
from .kneser import KneserGraph

DEFAULT_BUDGET = 10_000_000

_CLIQUE_CAP = 8  # the lower-bound clique search looks no further
_CLIQUE_NODES = 50_000
_STAR_TRIANGLE_NODES = 1_000_000  # about a second


class Coloring(NamedTuple):
    """Proper vertex coloring; colors[v] in 0..k-1, every color used."""

    colors: tuple[int, ...]
    k: int


class BudgetExhausted(RuntimeError):
    """Search node budget ran out; carries the best bounds found so far."""

    def __init__(self, lower_bound: int, upper_bound: int, budget: int):
        super().__init__(
            f"coloring budget of {budget} nodes exhausted; "
            f"bounds {lower_bound} <= chi <= {upper_bound}")
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.budget = budget


class InvalidCertificateError(ValueError):
    """An extremal certificate that still contains an r-matching."""

    def __init__(self, matching):
        super().__init__(
            f"extremal certificate contains the r-matching {matching}")
        self.matching = matching


class _SearchCapped(Exception):
    pass


def _lower_bound_clique(masks: list[int], n: int, supports: list[int],
                        per: int) -> list[int]:
    """A clique for the chi lower bound: the greedy one (vertices by
    degree, highest first), then improved by a branch and bound that
    stops once the best clique reaches _CLIQUE_CAP vertices or after
    _CLIQUE_NODES nodes.  Stopping early only weakens the bound.

    supports[v] is a bitmask of v's ground elements, each vertex has per
    of them, and adjacent vertices have disjoint supports.  So a clique
    among the candidates uses per distinct elements of the union U of
    their supports for each member, and no more than |U| // per members
    can join the current clique; the search prunes on that count (the
    Kneser bound on each sub-search).  A vertex of KG(G, rK2) is
    supported by its r host edges.  A plain Graph has no such structure
    and gets singleton supports {v} with per = 1, where U is the
    candidate set itself and the prune is a plain vertex count.
    """
    best = []
    cand = (1 << n) - 1
    for v in sorted(range(n), key=lambda u: (-masks[u].bit_count(), u)):
        if (cand >> v) & 1:
            best.append(v)
            cand &= masks[v]
    nodes = 0

    def rec(cur: list[int], cand: int) -> None:
        nonlocal best, nodes
        if len(cur) > len(best):
            best = list(cur)
        while cand:
            if len(best) >= _CLIQUE_CAP:
                return
            union = 0
            for u in bit_indices(cand):
                union |= supports[u]
            if len(cur) + union.bit_count() // per <= len(best):
                return
            nodes += 1
            if nodes > _CLIQUE_NODES:
                return
            bit = cand & -cand
            v = bit.bit_length() - 1
            cand ^= bit
            rec(cur + [v], cand & masks[v])

    rec([], (1 << n) - 1)
    return best


def _clique_supports(kg) -> tuple[list[int], int]:
    """supports and per for _lower_bound_clique: the host edges of each
    r-matching of a KneserGraph, r per vertex, or singletons for a plain
    Graph."""
    if isinstance(kg, KneserGraph):
        return [sum(1 << e for e in mt) for mt in kg.vertices], kg.r
    return [1 << v for v in range(kg.n)], 1


def _relabel(rows, order):
    """The bitmasks rows with bit order[i] moved to bit i, for a
    permutation order of range(n), n >= 1."""
    n = len(order)
    # one binary string per row, read back in the new bit order
    pick = itemgetter(*(n - 1 - u for u in reversed(order)))
    return [int("".join(pick(f"{row:0{n}b}")), 2) for row in rows]


def _dsatur_bnb(masks, n, clique, ub0, cols0, budget, first=False):
    """DSATUR-ordered branch and bound.  Returns (k, colors).

    With first set the search stops at its first leaf.  Started with no
    clique and ub0 = n + 1, every vertex there takes its lowest free
    color, so that leaf is the one-pass DSATUR coloring: the upper bound
    and the incumbent of the full search.

    The search runs on a relabelled copy of the graph, vertices sorted
    by degree (highest first) and then index.  level[s] is the bitmask
    of uncolored vertices with saturation s, so the pinned choice
    (saturation desc, degree desc, index asc) is the lowest bit of the
    highest nonempty level.  near[c] is the bitmask of uncolored
    vertices with a neighbor of color c: coloring v with c raises the
    saturation of exactly the uncolored neighbors of v outside near[c].
    """
    best_k = ub0
    best_cols = list(cols0)
    lb = len(clique)
    # the search ends once it holds a coloring with this many colors
    enough = n if first else lb
    allow_recursion(n)
    order = sorted(range(n), key=lambda u: (-masks[u].bit_count(), u))
    label = [0] * n
    for i, u in enumerate(order):
        label[u] = i
    adj = _relabel([masks[u] for u in order], order)
    colors = [-1] * n
    near = [0] * n
    # a saturation never exceeds the number of colors in use, below n
    # while a vertex is left
    level = [0] * (n + 1)
    level[0] = uncolored = (1 << n) - 1
    nodes = 0

    def lift(rise, top):
        # every vertex of rise moves up one level; none is above top
        s = top
        while rise:
            moving = rise & level[s]
            if moving:
                level[s] ^= moving
                level[s + 1] |= moving
                rise ^= moving
            s -= 1

    def drop(rise):
        # undo lift; walking up, a moved vertex is never met again
        s = 1
        while rise:
            moving = rise & level[s]
            if moving:
                level[s] ^= moving
                level[s - 1] |= moving
                rise ^= moving
            s += 1

    # the clique vertices are forced pairwise-distinct; fixing them up
    # front removes that symmetry from the search.  The i-th of them has
    # the i colors before it as neighbors, so it sits on level i.
    for i, u in enumerate(clique):
        v = label[u]
        level[i] &= ~(1 << v)
        uncolored &= ~(1 << v)
        colors[v] = i
        rise = adj[v] & uncolored & ~near[i]
        near[i] |= rise
        lift(rise, i)
    used0 = len(clique)

    def rec(used):
        nonlocal best_k, best_cols, nodes, uncolored
        # used never falls along a branch, so once it reaches best_k no
        # leaf below can improve on the incumbent
        if best_k <= enough or used >= best_k:
            return
        if not uncolored:
            best_k = used
            best_cols = [colors[i] for i in label]
            return
        s = used
        while not level[s]:
            s -= 1
        vbit = level[s] & -level[s]
        v = vbit.bit_length() - 1
        level[s] ^= vbit
        uncolored ^= vbit
        row = adj[v] & uncolored
        for c in range(min(used + 1, best_k - 1)):
            if near[c] & vbit:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(lb, best_k, budget)
            colors[v] = c
            rise = row & ~near[c]
            near[c] |= rise
            lift(rise, used)
            rec(max(used, c + 1))
            near[c] ^= rise
            drop(rise)
            if best_k <= enough:
                break
        uncolored |= vbit
        level[s] |= vbit

    rec(used0)
    return best_k, best_cols


def chromatic_number(kg, budget: int = DEFAULT_BUDGET):
    """Exact chi with a witnessing Coloring, as (chi, Coloring).

    The clique bound and the first DSATUR leaf come first; when they
    differ, the DSATUR branch and bound, with the clique colored up
    front, closes the gap.  Reads kg.n, kg.m and the adjacency bitmasks
    kg.rows, so a KneserGraph and a plain Graph are both accepted; a
    KneserGraph's vertices and r also bound its lower-bound clique
    search.  Conventions: the null graph has chi 0, a nonempty edgeless
    graph has chi 1 (the counterexample arithmetic depends on the
    latter).  Raises BudgetExhausted, with the best bounds found, if the
    search exceeds the node budget, a count >= 0
    (graph_core.check_count).
    """
    check_count(budget, 0, "budget")
    n, m, masks = kg.n, kg.m, kg.rows
    if n == 0:
        return 0, Coloring((), 0)
    if m == 0:
        return 1, Coloring((0,) * n, 1)
    clique = _lower_bound_clique(masks, n, *_clique_supports(kg))
    lb = len(clique)
    # the first leaf takes one node per vertex, so a budget of n suffices
    ub, cols0 = _dsatur_bnb(masks, n, [], n + 1, [], n, first=True)
    if lb >= ub:
        return ub, Coloring(tuple(cols0), ub)
    k, cols = _dsatur_bnb(masks, n, clique, ub, cols0, budget)
    return k, Coloring(tuple(cols), k)


def greedy_ex_coloring(kg: KneserGraph, extremal) -> Coloring:
    """The greedy coloring of KG(G, rK2) behind chi <= |E| - ex.

    Each vertex of kg, an r-matching, is colored by the smallest-index
    edge it contains outside extremal.edges; matchings sharing that edge
    intersect, hence are never adjacent, so the coloring is proper.
    Colors are compacted to 0..k-1 preserving relative edge order,
    giving at most m - |extremal.edges| of them.

    Raises InvalidCertificateError carrying the first r-matching, in
    enumeration order, that lies inside the certificate's edge set.
    """
    ex_set = frozenset(extremal.edges)
    raw = []
    for mt in kg.vertices:
        e = next((e for e in mt if e not in ex_set), None)
        if e is None:
            raise InvalidCertificateError(mt)
        raw.append(e)
    remap = {e: c for c, e in enumerate(sorted(set(raw)))}
    return Coloring(tuple(remap[e] for e in raw), len(remap))


def star_triangle_bound(g, ex_value: int,
                        budget: int = DEFAULT_BUDGET) -> bool:
    """Whether chi(KG(g, 2K2)) >= g.m - ex_value follows from counting.

    Two 2-matchings of g are non-adjacent in KG(g, 2K2) when they share
    an edge, so a color class lies in a star (every 2-matching through
    one edge e) or is a triangle {e+f, e+g, f+g} of a 3-matching
    {e, f, g}.  Let T be the centers of a coloring's star classes and S
    = E - T: the p(S) 2-matchings inside S meet no star class and take
    three per triangle class at most.  So every coloring has at least
    m - |S| + ceil(p(S) / 3) colors, and chi >= m - ex_value unless some
    edge set S has 3|S| - p(S) >= 3 ex_value + 3.

    Decided by a keep/skip branch and bound over the edges in index
    order.  Adding e to S changes 3|S| - p(S) by 3 - d, d the number of
    edges of S vertex-disjoint from e; d never falls as S grows, so an
    edge with d >= 3 is never added, and a node is cut once its value
    plus the positive gains of the undecided edges misses the target.
    The counts are held as three bitmasks, the edges with d = 0, 1 and
    2, so a node costs a few bitmask operations.  The search stops
    after budget nodes, or _STAR_TRIANGLE_NODES if fewer, and returns
    False, which only withholds the bound.  budget is a count >= 0
    (graph_core.check_count).
    """
    check_count(budget, 0, "budget")
    cap = min(budget, _STAR_TRIANGLE_NODES)
    m = g.m
    ends = [(1 << u) | (1 << v) for u, v in g.edges]
    # disjoint[e]: bitmask of the edges vertex-disjoint from e
    disjoint = [sum(1 << f for f in range(m) if not ends[e] & ends[f])
                for e in range(m)]
    target = 3 * ex_value + 3
    nodes = 0

    def reaches(rest: int, d0: int, d1: int, d2: int, value: int) -> bool:
        # whether adding edges of rest, the undecided edges that still
        # gain, lifts value to target.  d0, d1 and d2 hold the edges
        # with 0, 1 and 2 edges of S vertex-disjoint from them, so an
        # edge of d0 gains 3, of d1 2 and of d2 1; the others gain none
        nonlocal nodes
        room = (value + 3 * (rest & d0).bit_count()
                + 2 * (rest & d1).bit_count() + (rest & d2).bit_count())
        while rest:
            if room < target:
                return False
            nodes += 1
            if nodes > cap:
                raise _SearchCapped
            bit = rest & -rest
            rest ^= bit
            gain = 3 if d0 & bit else 2 if d1 & bit else 1
            if value + gain >= target:
                return True
            # keep the edge: its disjoint edges move up one count
            far = disjoint[bit.bit_length() - 1]
            k0 = d0 & ~far
            k1 = (d1 & ~far) | (d0 & far)
            k2 = (d2 & ~far) | (d1 & far)
            if reaches(rest & (k0 | k1 | k2), k0, k1, k2, value + gain):
                return True
            room -= gain
        return False

    allow_recursion(m)
    every = (1 << m) - 1
    try:
        return not reaches(every, every, 0, 0, 0)
    except _SearchCapped:
        return False


def validate_coloring(graph, coloring: Coloring) -> bool:
    """Independent properness and no-gap re-check used by the verifier:
    no vertex's adjacency row may meet its own color class."""
    n, rows = graph.n, graph.rows
    colors = coloring.colors
    if len(colors) != n:
        return False
    if n == 0:
        return coloring.k == 0
    if sorted(set(colors)) != list(range(coloring.k)):
        return False
    classes = [0] * coloring.k
    for v, c in enumerate(colors):
        classes[c] |= 1 << v
    return all(rows[v] & classes[c] == 0 for v, c in enumerate(colors))
