"""Exact chromatic number of derived Kneser graphs.

Two complete search engines sit behind chromatic_number:

* DSATUR-ordered branch and bound with a clique lower bound, the default.
  Tie-breaks are fixed (highest saturation, then highest degree, then
  lowest vertex index) so search traces are reproducible.
* a set-cover branch and bound over all maximal independent sets, used
  for large dense inputs where DSATUR crawls.  Dense matching Kneser
  graphs have few maximal independent sets (intersecting families), so
  covering V by them is the cheaper formulation by orders of magnitude.

Both are exact and both respect the same node budget; the test suite
cross-checks them against each other and against brute force.  A blown
budget raises BudgetExhausted rather than ever returning a guess.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass

from .graph_core import Graph
from .kneser import KneserGraph
from .matchings import enumerate_matchings, has_matching_of_size

DEFAULT_BUDGET = 10_000_000

# dispatch to the cover engine above this size and density
_COVER_MIN_N = 30
_COVER_DENSITY_NUM = 11  # density threshold 11/20 = 0.55
_COVER_DENSITY_DEN = 20
_MIS_CAP = 100_000  # bail out to DSATUR if the MIS family explodes
_MEMO_CAP = 1_500_000


@dataclass(frozen=True)
class Coloring:
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
            f"extremal certificate contains the r-matching {matching.edges}")
        self.matching = matching


class _MisOverflow(Exception):
    pass


def _adjacency_masks(g: Graph) -> list[int]:
    """Adjacency bitmask rows of a plain Graph; a KneserGraph carries its
    own as kg.rows."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _rows_of(graph) -> tuple[int, int, Sequence[int]]:
    """(vertex count, edge count, adjacency rows) of a KneserGraph or Graph."""
    if isinstance(graph, KneserGraph):
        return graph.n, graph.m, graph.rows
    return graph.n, graph.m, _adjacency_masks(graph)


def _greedy_clique(masks: list[int], n: int) -> list[int]:
    verts = sorted(range(n), key=lambda v: (-masks[v].bit_count(), v))
    clique = []
    cand = (1 << n) - 1
    for v in verts:
        if (cand >> v) & 1:
            clique.append(v)
            cand &= masks[v]
    return clique


def _exact_clique_capped(masks: list[int], n: int, seed: list[int],
                         cap: int = 8, node_cap: int = 50_000) -> list[int]:
    """Best clique found by bounded branch and bound, never looking past
    size cap.  Used purely as a lower bound, so stopping early is fine."""
    best = list(seed)
    nodes = 0

    def rec(cur: list[int], cand: int) -> None:
        nonlocal best, nodes
        if len(cur) > len(best):
            best = list(cur)
        while cand:
            if len(best) >= cap:
                return
            if len(cur) + cand.bit_count() <= len(best):
                return
            nodes += 1
            if nodes > node_cap:
                return
            bit = cand & -cand
            v = bit.bit_length() - 1
            cand ^= bit
            rec(cur + [v], cand & masks[v])

    rec([], (1 << n) - 1)
    return best


def _dsatur_order_key(satdeg, degs):
    def key(v):
        return (satdeg[v], degs[v], -v)
    return key


def _greedy_dsatur(masks: list[int], n: int) -> list[int]:
    """One-pass DSATUR heuristic coloring (no backtracking): the upper
    bound and incumbent witness for both exact engines."""
    colors = [-1] * n
    neigh = [0] * n  # colors seen at each vertex
    degs = [masks[v].bit_count() for v in range(n)]
    satdeg = [0] * n
    uncolored = set(range(n))
    key = _dsatur_order_key(satdeg, degs)
    for _ in range(n):
        v = max(uncolored, key=key)
        uncolored.discard(v)
        c = 0
        blocked = neigh[v]
        while (blocked >> c) & 1:
            c += 1
        colors[v] = c
        rest = masks[v]
        while rest:
            bit = rest & -rest
            w = bit.bit_length() - 1
            rest ^= bit
            if colors[w] == -1 and not (neigh[w] >> c) & 1:
                neigh[w] |= 1 << c
                satdeg[w] += 1
    return colors


def _dsatur_bnb(masks, n, clique, lb, ub0, cols0, budget):
    """DSATUR-ordered branch and bound.  Returns (k, colors, nodes)."""
    best_k = ub0
    best_cols = list(cols0)
    if lb >= best_k:
        return best_k, best_cols, 0
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 1000))
    colors = [-1] * n
    neigh = [0] * n
    satdeg = [0] * n
    degs = [masks[v].bit_count() for v in range(n)]
    nodes = 0

    def assign(v, c):
        nonlocal nodes
        colors[v] = c
        touched = []
        rest = masks[v]
        while rest:
            bit = rest & -rest
            w = bit.bit_length() - 1
            rest ^= bit
            if colors[w] == -1 and not (neigh[w] >> c) & 1:
                neigh[w] |= 1 << c
                satdeg[w] += 1
                touched.append(w)
        return touched

    def undo(v, c, touched):
        colors[v] = -1
        for w in touched:
            neigh[w] &= ~(1 << c)
            satdeg[w] -= 1

    # the clique vertices are forced pairwise-distinct; fixing them up
    # front removes that symmetry from the search
    for i, v in enumerate(clique):
        assign(v, i)
    used0 = len(clique)
    uncolored = [v for v in range(n) if colors[v] == -1]

    def rec(remaining, used):
        nonlocal best_k, best_cols, nodes
        if best_k == lb:
            return
        if not remaining:
            if used < best_k:
                best_k = used
                best_cols = colors.copy()
            return
        # pinned tie-breaks: saturation desc, degree desc, index asc
        v = max(remaining, key=lambda u: (satdeg[u], degs[u], -u))
        rest = [u for u in remaining if u != v]
        cap = min(used + 1, best_k - 1)
        blocked = neigh[v]
        for c in range(cap):
            if (blocked >> c) & 1:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(lb, best_k, budget)
            touched = assign(v, c)
            rec(rest, max(used, c + 1))
            undo(v, c, touched)
            if best_k == lb:
                return

    rec(uncolored, used0)
    return best_k, best_cols, nodes


def _maximal_independent_sets(masks, n, cap):
    """All maximal independent sets as vertex bitmasks (Bron-Kerbosch
    with pivoting on the complement)."""
    full = (1 << n) - 1
    cmask = [full & ~(masks[v] | (1 << v)) for v in range(n)]
    out = []

    def bk(r, p, x):
        if p == 0 and x == 0:
            out.append(r)
            if len(out) > cap:
                raise _MisOverflow
            return
        # pivot: candidate from p|x with the most neighbors in p
        pu, best = -1, -1
        rest = p | x
        while rest:
            bit = rest & -rest
            u = bit.bit_length() - 1
            rest ^= bit
            cnt = (p & cmask[u]).bit_count()
            if cnt > best:
                best = cnt
                pu = u
        ext = p & ~cmask[pu]
        while ext:
            bit = ext & -ext
            v = bit.bit_length() - 1
            ext ^= bit
            bk(r | bit, p & cmask[v], x & cmask[v])
            p ^= bit
            x |= bit

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 1000))
    bk(0, full, 0)
    return out


def _cover_bnb(masks, n, lb, ub0, cols0, budget):
    """Minimum cover of V by maximal independent sets == chi.

    Branch on the uncovered vertex that appears in the fewest sets;
    candidates ordered by coverage of what remains.  A dominance memo on
    the uncovered bitmask (keyed to the best depth that reached it) plus
    a greedy clique bound on the uncovered subgraph do the heavy lifting.
    Returns (k, colors, nodes); raises _MisOverflow if the MIS family is
    too large to enumerate (caller falls back to DSATUR).
    """
    sets = _maximal_independent_sets(masks, n, _MIS_CAP)
    nsets = len(sets)
    alpha = max(s.bit_count() for s in sets)
    covers = [[] for _ in range(n)]
    for idx, s in enumerate(sets):
        rest = s
        while rest:
            bit = rest & -rest
            covers[bit.bit_length() - 1].append(idx)
            rest ^= bit
    rarity = sorted(range(n), key=lambda v: (len(covers[v]), v))

    def clique_lb(unc):
        # greedy clique inside the uncovered subgraph; every clique vertex
        # needs its own covering set
        size = 0
        cand = unc
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            size += 1
            cand &= masks[v]
        return size

    best_k = ub0
    best_sets = None
    full = (1 << n) - 1
    chosen = []
    seen = {}
    nodes = 0

    def rec(unc, depth):
        nonlocal best_k, best_sets, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted(lb, best_k, budget)
        if unc == 0:
            if depth < best_k:
                best_k = depth
                best_sets = list(chosen)
            return
        prev = seen.get(unc)
        if prev is not None and prev <= depth:
            return
        if len(seen) < _MEMO_CAP:
            seen[unc] = depth
        bound = max(-(-unc.bit_count() // alpha), clique_lb(unc))
        if depth + bound >= best_k:
            return
        for v in rarity:
            if (unc >> v) & 1:
                break
        cands = sorted(covers[v],
                       key=lambda i: (-(sets[i] & unc).bit_count(), i))
        for i in cands:
            chosen.append(i)
            rec(unc & ~sets[i], depth + 1)
            chosen.pop()
            if best_k == lb:
                return

    rec(full, 0)
    if best_sets is None:
        return best_k, list(cols0), nodes
    colors = [-1] * n
    for ci, si in enumerate(best_sets):
        rest = sets[si]
        while rest:
            bit = rest & -rest
            w = bit.bit_length() - 1
            rest ^= bit
            if colors[w] == -1:
                colors[w] = ci
    # a minimum cover leaves no set without a private vertex, so every
    # color index is used and no compaction is needed
    return best_k, colors, nodes


def chromatic_number(kg, budget: int = DEFAULT_BUDGET):
    """Exact chi with a witnessing Coloring, as (chi, Coloring).

    Accepts a KneserGraph or a plain Graph.  Conventions: the null graph
    has chi 0, a nonempty edgeless graph has chi 1 (the counterexample
    arithmetic depends on the latter).  Raises BudgetExhausted, with the
    best bounds found, if the search exceeds the node budget.
    """
    n, m, masks = _rows_of(kg)
    if n == 0:
        return 0, Coloring((), 0)
    if m == 0:
        return 1, Coloring((0,) * n, 1)
    clique = _greedy_clique(masks, n)
    if len(clique) < 8:
        clique = max(clique, _exact_clique_capped(masks, n, clique), key=len)
    lb = len(clique)
    cols0 = _greedy_dsatur(masks, n)
    ub = max(cols0) + 1
    if lb >= ub:
        return ub, Coloring(tuple(cols0), ub)
    dense = (n >= _COVER_MIN_N and
             2 * m * _COVER_DENSITY_DEN >= _COVER_DENSITY_NUM * n * (n - 1))
    if dense:
        try:
            k, cols, _ = _cover_bnb(masks, n, lb, ub, cols0, budget)
            return k, Coloring(tuple(cols), k)
        except _MisOverflow:
            pass
    k, cols, _ = _dsatur_bnb(masks, n, clique, lb, ub, cols0, budget)
    return k, Coloring(tuple(cols), k)


def greedy_ex_coloring(g: Graph, r: int, extremal) -> Coloring:
    """The greedy coloring behind the upper bound chi <= |E| - ex.

    Each r-matching is colored by the smallest-index edge it contains
    outside extremal.edges; matchings sharing that edge intersect, hence
    are never adjacent in KG(g, rK2), so the coloring is proper.  Colors
    are compacted to 0..k-1 preserving relative edge order, giving at
    most m - |extremal.edges| of them.

    Raises InvalidCertificateError (carrying the violating matching) if
    the certificate's edge set still contains an r-matching.
    """
    if r < 1:
        raise ValueError("greedy_ex_coloring requires r >= 1")
    witness = has_matching_of_size(g, r, allowed=extremal.edges)
    if witness is not None:
        raise InvalidCertificateError(witness)
    ex_set = frozenset(extremal.edges)
    raw = []
    for mt in enumerate_matchings(g, r):
        raw.append(next(e for e in mt.edges if e not in ex_set))
    remap = {e: c for c, e in enumerate(sorted(set(raw)))}
    return Coloring(tuple(remap[e] for e in raw), len(remap))


def validate_coloring(graph, coloring: Coloring) -> bool:
    """Independent properness and no-gap re-check used by the verifier:
    no vertex's adjacency row may meet its own color class."""
    n, _, rows = _rows_of(graph)
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
