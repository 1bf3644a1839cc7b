"""Independent oracles for the test suite.

Everything here is deliberately naive: exhaustive dynamic programs and
plain backtracking with no heuristics, sharing no code with the package
search engines they check.  Two engines that only the tests use live
here too: matching_number, which drives the package's blossom search
mkg.matchings._augment, and build_kneser, the classical KG(n, r) built
without the package's matching enumerator.
"""

import os
import subprocess
import sys
from collections import deque
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from random import Random

from mkg import (BudgetExhausted, Graph, KneserGraph, disjoint_matching,
                 parse_graph6, star_removal_bound)
from mkg.edge_coloring import EdgeColoringResult, _backtrack_edge_coloring
from mkg.graph_core import bit_indices, check_count
from mkg.matchings import _augment

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(argv, env=None, **kwargs):
    """Run argv as a new process with this checkout's mkg importable and
    env added to the environment; stdout and stderr are captured.  A new
    interpreter starts at its default recursion limit, whatever earlier
    tests raised it to."""
    full_env = dict(os.environ, **(env or {}))
    full_env["PYTHONPATH"] = (str(SRC) + os.pathsep
                              + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(argv, capture_output=True, env=full_env,
                          timeout=60, **kwargs)


def bad_counts(floor: int) -> list:
    """Values that graph_core.check_count rejects for a count >= floor:
    a bool, two floats, a digit string and floor - 1."""
    return [True, 2.5, 2.0, "2", floor - 1]


def load_fixture(name):
    out = []
    for line in (FIXTURES / name).read_text().splitlines():
        line = line.strip()
        if line:
            out.append(parse_graph6(line))
    return out


def edge_subgraph(g: Graph, mask: int) -> Graph:
    """The spanning subgraph of g on the edges whose bits mask sets."""
    return Graph(g.n, [e for i, e in enumerate(g.edges) if mask >> i & 1])


def random_graph(rng: Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def brute_matching_number(g: Graph) -> int:
    """Exhaustive DP over vertex subsets; fine up to n ~ 16."""
    adjm = [0] * g.n
    for u, v in g.edges:
        adjm[u] |= 1 << v
        adjm[v] |= 1 << u

    @lru_cache(maxsize=None)
    def best(avail: int) -> int:
        if avail == 0:
            return 0
        bit = avail & -avail
        v = bit.bit_length() - 1
        rest = avail ^ bit
        result = best(rest)  # v stays unmatched
        cand = adjm[v] & rest
        while cand:
            ubit = cand & -cand
            cand ^= ubit
            result = max(result, 1 + best(rest ^ ubit))
        return result

    return best((1 << g.n) - 1)


def matching_number(g: Graph) -> int:
    """Exact maximum matching size: one blossom search (_augment) from
    each vertex still free, in vertex order; a vertex with no augmenting
    path never gains one later, so one pass suffices.
    brute_matching_number pins this down on all small graphs.
    """
    n = g.n
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            _augment(n, g.rows, match, v)
    return sum(1 for v in range(n) if match[v] != -1) // 2


def build_kneser(n: int, r: int) -> KneserGraph:
    """Classical KG(n, r): r-subsets of {0..n-1}, adjacent when disjoint.

    Encoded over the host nK2 so the result is directly comparable with
    build_matching_kneser(disjoint_matching(n), r): subset element i
    plays edge index i.  Built from combinations and pairwise
    disjointness tests, not from the matching enumerator or the per-edge
    masks, to keep the isomorphism check two-sided.  n < r gives a null
    derived graph.  n and r are counts >= 1 (graph_core.check_count).
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
    m = sum(row.bit_count() for row in rows) // 2
    return KneserGraph(base, r, tuple(subs), tuple(rows), m)


def brute_matchings(g: Graph, r: int):
    """All r-matchings straight from combinations, as sorted tuples."""
    def disjoint(es):
        vs = [w for e in es for w in g.edges[e]]
        return len(vs) == len(set(vs))
    return [c for c in combinations(range(g.m), r) if disjoint(c)]


def ref_r_matchings(g: Graph, r: int, first=False):
    """The r-matchings of g in lexicographic order, or only the first of
    them when first is set: mkg.matchings' edge-index backtracker as it
    was before it branched on vertices.  It tries the edges in index
    order and cuts a branch only when too few edges are left to reach
    size r."""
    evmask = [(1 << u) | (1 << v) for u, v in g.edges]
    out = []
    cur = []

    def rec(start, covered, need):
        if need == 0:
            out.append(tuple(cur))
            return first
        for e in range(start, g.m - need + 1):
            if covered & evmask[e]:
                continue
            cur.append(e)
            if rec(e + 1, covered | evmask[e], need - 1):
                return True
            cur.pop()
        return False

    rec(0, 0, r)
    return out


def ref_augment(n: int, rows, match, root: int) -> bool:
    """mkg.matchings._augment as it was written with two closures, an
    O(n) list per LCA and per blossom, and a neighbour list per queued
    vertex.  It must take the same augmenting path, so the tests compare
    return values and the match arrays left behind."""
    used = [False] * n
    p = [-1] * n
    base = list(range(n))

    def lca(a, b):
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

    def mark_path(v, b, child, blossom):
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


def ref_pairwise_intersect(matchings) -> bool:
    """Every two of the matchings share an edge, by testing each pair of
    edge masks: the quadratic form of mkg.matchings.pairwise_intersect."""
    masks = [sum(1 << e for e in mt) for mt in matchings]
    return all(masks[i] & masks[j]
               for i in range(len(masks)) for j in range(i + 1, len(masks)))


def ref_schonberger_check(g: Graph):
    """mkg.matchings.schonberger_check pair by pair: each pair of edges
    against every perfect matching's edge mask, with the perfect
    matchings from ref_r_matchings.  Returns (True, None), or
    (False, (e, f)) for the lexicographically first pair that no perfect
    matching avoids; needs m >= 2."""
    if g.m < 2:
        raise ValueError("ref_schonberger_check needs at least two edges")
    pms = ref_r_matchings(g, g.n // 2) if g.n % 2 == 0 else []
    pm_masks = [sum(1 << e for e in pm) for pm in pms]
    for e in range(g.m):
        for f in range(e + 1, g.m):
            banned = (1 << e) | (1 << f)
            if not any(mask & banned == 0 for mask in pm_masks):
                return False, (e, f)
    return True, None


def _rows_to_lists(g):
    """Neighbor lists, ascending, from the adjacency bitmasks g.rows."""
    return [[w for w in range(g.n) if row >> w & 1] for row in g.rows]


def brute_chromatic(g) -> int:
    """Smallest k admitting a proper coloring, by plain recursion over
    vertices in index order.  No ordering heuristics, no bounds.  g is a
    Graph or a KneserGraph."""
    if g.n == 0:
        return 0
    adj = _rows_to_lists(g)

    def colorable(k: int) -> bool:
        col = [-1] * g.n

        def rec(i: int) -> bool:
            if i == g.n:
                return True
            for c in range(k):
                if all(col[w] != c for w in adj[i] if w < i):
                    col[i] = c
                    if rec(i + 1):
                        return True
            col[i] = -1
            return False

        return rec(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def brute_clique_number(g, cap: int) -> int:
    """min(omega(g), cap): cliques grown in vertex index order, with no
    bound but the count of vertices left.  g is a Graph or a
    KneserGraph."""
    adj = [set(ns) for ns in _rows_to_lists(g)]
    best = 0

    def grow(size: int, cands: list) -> None:
        nonlocal best
        best = max(best, size)
        if best >= cap or size + len(cands) <= best:
            return
        for i, v in enumerate(cands):
            grow(size + 1, [w for w in cands[i + 1:] if w in adj[v]])

    grow(0, list(range(g.n)))
    return min(best, cap)


def brute_colorable(g, k: int) -> bool:
    """Exhaustive k-colorability, used to confirm non-(chi-1)-colorability.
    g is a Graph or a KneserGraph."""
    if g.n == 0:
        return True
    if k == 0:
        return False
    adj = _rows_to_lists(g)

    def rec(i: int, col) -> bool:
        if i == g.n:
            return True
        for c in range(k):
            if all(col[w] != c for w in adj[i] if w < i):
                col[i] = c
                if rec(i + 1, col):
                    return True
        col[i] = -1
        return False

    return rec(0, [-1] * g.n)


def _nu_table(g: Graph) -> list:
    """nu of every edge subset of g, indexed by the subset's bitmask,
    by a subset DP (m <= ~16)."""
    m = g.m
    conflict = [0] * m
    for i, (u, v) in enumerate(g.edges):
        for j, (x, y) in enumerate(g.edges):
            if {u, v} & {x, y}:
                conflict[i] |= 1 << j
    nu = [0] * (1 << m)
    for s in range(1, 1 << m):
        bit = s & -s
        e = bit.bit_length() - 1
        nu[s] = max(nu[s ^ bit], 1 + nu[s & ~conflict[e]])
    return nu


def brute_ex_multi(g: Graph, rs) -> dict:
    """ex(g, rK2) for each r in rs, over all 2^m edge subsets.  One nu
    table serves every r."""
    nu = _nu_table(g)
    out = {}
    for r in rs:
        out[r] = max(s.bit_count() for s in range(1 << g.m) if nu[s] <= r - 1)
    return out


def brute_ex_keep_first(g: Graph, r: int) -> frozenset:
    """Of the largest nu <= r-1 edge sets, the one whose indicator vector
    (edge 0 first) is lexicographically greatest."""
    nu = _nu_table(g)
    best = max((s for s in range(1 << g.m) if nu[s] <= r - 1),
               key=lambda s: (s.bit_count(), [s >> e & 1 for e in range(g.m)]))
    return frozenset(e for e in range(g.m) if best >> e & 1)


def brute_star_triangle_excess(g: Graph) -> int:
    """The largest 3|S| - p(S) over all 2^m edge sets S of g, p(S) the
    number of pairs of edges of S with no common end, counted pair by
    pair.  mkg.coloring.star_triangle_bound(g, ex) is true iff this is
    below 3 ex + 3."""
    best = 0
    for bits in range(1 << g.m):
        s = [g.edges[e] for e in range(g.m) if bits >> e & 1]
        p = sum(1 for a, b in combinations(s, 2) if not set(a) & set(b))
        best = max(best, 3 * len(s) - p)
    return best


def brute_ex(g: Graph, r: int) -> int:
    return brute_ex_multi(g, [r])[r]


def ref_ex_exact(g: Graph, r: int):
    """(edges, value) of mkg.extremal.ex_exact, by its keep/delete search
    with the room prune alone: no forced-deletion count, no degree cap.
    The package search must meet the same incumbents, so it must return
    the same set."""
    m, n = g.m, g.n
    seed = star_removal_bound(g, r)
    best = [seed.value, sum(1 << e for e in seed.edges)] if seed else [-1, 0]
    rows = [0] * n
    match = [-1] * n
    sys.setrecursionlimit(max(sys.getrecursionlimit(), m + 1000))

    def grows(a, b):
        if match[a] == -1 and match[b] == -1:
            match[a], match[b] = b, a
            return True
        roots = [v for v in (a, b) if match[v] == -1] or [
            v for v in range(n) if match[v] == -1]
        return any(_augment(n, rows, match, v) for v in roots)

    def rec(i, kept_mask, kept_count, nu):
        if kept_count + (m - i) <= best[0]:
            return
        if i == m:
            best[:] = [kept_count, kept_mask]
            return
        a, b = g.edges[i]
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

    rec(0, 0, 0, 0)
    return frozenset(e for e in range(m) if best[1] >> e & 1), best[0]


def reachability_connected(g: Graph) -> bool:
    """Connectivity via a brute transitive-closure matrix."""
    if g.n <= 1:
        return True
    reach = [[u == v or bool(g.rows[u] >> v & 1) for v in range(g.n)]
             for u in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(g.n):
                    if row_k[j]:
                        row_i[j] = True
    return all(reach[0])


def ref_bridges(g: Graph) -> list:
    """mkg.graph_core.bridges as it was before its low-link search: an
    edge (u, v) is a bridge when, with the edge removed, v is out of
    u's reach, found by one breadth-first search per edge."""
    adj = [set(bit_indices(row)) for row in g.rows]
    out = []
    for i, (u, v) in enumerate(g.edges):
        seen = {u}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in seen and {x, y} != {u, v}:
                    seen.add(y)
                    queue.append(y)
        if v not in seen:
            out.append(i)
    return out


def ref_chromatic_index(g: Graph) -> EdgeColoringResult:
    """mkg.edge_coloring.chromatic_index as it was before cubic graphs
    went through their perfect matchings: counting for an overfull
    graph, else the backtracker at Delta colors, and at Delta + 1 after
    that search fails exhaustively.  It shares the backtracker, so the
    witnesses must be the same colorings."""
    if g.m == 0:
        return EdgeColoringResult(0, (), "one")
    delta = max(row.bit_count() for row in g.rows)
    if g.m <= delta * (g.n // 2):
        col = _backtrack_edge_coloring(g, delta)
        if col is not None:
            return EdgeColoringResult(delta, tuple(col), "one")
    col = _backtrack_edge_coloring(g, delta + 1)
    return EdgeColoringResult(delta + 1, tuple(col), "two")


# Reference twin of the chi search in mkg.coloring, as it was written
# before it moved to per-color bitmasks: plain lists and an O(n) scan for
# every choice.  It must visit the same nodes in the same order, so the
# tests compare results and budget cut-offs exactly.


def ref_dsatur_bnb(masks, n, clique, ub0, cols0, budget, first=False):
    """DSATUR-ordered branch and bound over a per-vertex list of the
    colors next to each vertex; the same (k, colors) or BudgetExhausted
    as mkg.coloring._dsatur_bnb."""
    best_k = ub0
    best_cols = list(cols0)
    lb = len(clique)
    enough = n if first else lb
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 1000))
    colors = [-1] * n
    neigh = [0] * n
    satdeg = [0] * n
    degs = [masks[v].bit_count() for v in range(n)]
    nodes = 0

    def assign(v, c):
        colors[v] = c
        touched = []
        for w in range(n):
            if (masks[v] >> w) & 1 and colors[w] == -1 \
                    and not (neigh[w] >> c) & 1:
                neigh[w] |= 1 << c
                satdeg[w] += 1
                touched.append(w)
        return touched

    def undo(v, c, touched):
        colors[v] = -1
        for w in touched:
            neigh[w] &= ~(1 << c)
            satdeg[w] -= 1

    for i, v in enumerate(clique):
        assign(v, i)
    uncolored = [v for v in range(n) if colors[v] == -1]

    def rec(remaining, used):
        nonlocal best_k, best_cols, nodes
        if best_k <= enough or used >= best_k:
            return
        if not remaining:
            best_k = used
            best_cols = colors.copy()
            return
        v = max(remaining, key=lambda u: (satdeg[u], degs[u], -u))
        rest = [u for u in remaining if u != v]
        for c in range(min(used + 1, best_k - 1)):
            if (neigh[v] >> c) & 1:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(lb, best_k, budget)
            touched = assign(v, c)
            rec(rest, max(used, c + 1))
            undo(v, c, touched)
            if best_k <= enough:
                return

    rec(uncolored, len(clique))
    return best_k, best_cols
