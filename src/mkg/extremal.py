"""Exact ex(G, rK2): the most edges a subgraph can keep while avoiding
an r-matching.

The search is a branch and bound over edges in index order, deciding
keep or delete (keep branch first).  A branch dies the moment the kept
set contains an r-matching, and it dies when one of three upper bounds
on its best leaf cannot beat the incumbent:

- room: kept + undecided edges, since a leaf keeps at most all of them.
- forced deletions: once the kept set has a matching of r - 1 edges,
  an undecided edge missing all of its vertices would complete an
  r-matching, so no leaf below keeps it; room minus their count.
- degree cap: by Gallai-Edmonds, every edge of a graph with
  nu <= r - 1 touches a set S of s <= r - 1 vertices or lies inside a
  component of the rest, and those components hold at most r - 1 - s
  matching edges.  The s largest degrees of kept + undecided bound the
  first part, the densest such components (Erdos-Gallai) the second;
  the maximum over s bounds every leaf.

The "has an r-matching" test is incremental: the search carries a
maximum matching of the kept set down the keep branch, and since one
more edge raises the matching number by at most one, a single
augmenting-path search (the blossom search of matchings._augment;
Berge's theorem says it is enough) decides each keep.

At n = 2r a seed proof runs before the branch and bound.  Every
r-matching is then perfect, and the star seed keeps m - delta edges; it
is optimal exactly when no set of at most delta - 1 edges meets every
perfect matching.  The hitting search matchings._hits over a listing
of the perfect matchings (the verifier passes its Kneser build's)
decides that.  When no set exists the seed is returned, which the
branch and bound would return too, since it only replaces the
incumbent on a strict gain.  On a snark this is Schonberger's theorem
at work, which schonberger_check tests with the same search at d = 2:
no two edges of a bridgeless cubic graph meet every perfect matching.

validate_certificate re-checks that the kept subgraph holds no
r-matching with the matchings backtracker instead, a code path the
branch and bound does not use.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph_core import Graph, allow_recursion, bit_indices, check_count
from .matchings import (_augment, _hits, enumerate_matchings,
                        has_matching_of_size, holder_index)


class ExtremalCertificate(NamedTuple):
    """Edge subset F with nu(F) <= r-1 witnessing a value of ex(G, rK2)."""

    edges: frozenset[int]
    value: int
    r: int


def star_removal_bound(g: Graph, r: int) -> ExtremalCertificate | None:
    """Lower-bound construction: drop the star of a minimum-degree vertex.

    Only applicable when n = 2r; then every r-matching is perfect, so it
    must cover the chosen vertex, and removing that vertex's edges kills
    them all.  Keeps m - delta(G) edges.  The vertex is the lowest-index
    one of minimum degree.  Returns None when n != 2r (not an error);
    r is a count >= 1 (graph_core.check_count).
    """
    check_count(r, 1, "r")
    if g.n != 2 * r:
        return None
    v = min(range(g.n), key=lambda u: (g.degree(u), u))
    keep = frozenset(i for i, (a, b) in enumerate(g.edges) if v not in (a, b))
    return ExtremalCertificate(keep, len(keep), r)


def ex_exact(g: Graph, r: int, *, matchings=None) -> ExtremalCertificate:
    """Exact ex(g, rK2) with a witnessing certificate.

    r is a count >= 1 (graph_core.check_count).  Seeded with
    star_removal_bound when n = 2r, otherwise unseeded; the branch and
    bound only chases strict improvements, so when the seed is already
    optimal it is returned unchanged.  At n = 2r _seed_is_optimal
    first tries to prove that from perfect matchings alone, and when it
    does the seed is returned without a branch and bound; this is exact,
    since the branch and bound would meet no strictly better leaf and
    return the seed too.  matchings, if given, are g's r-matchings,
    which the seed proof then reads instead of listing them itself.

    Keeping edge (a, b) with both ends free in the carried matching
    grows it with no search; with one end free, an augmenting path must
    end there, so one blossom search from that end decides; with both
    ends matched, the free vertices are tried as roots until one search
    augments.  Ties go to the first optimum in search order; unseeded,
    that is the optimum whose keep indicator vector (edge 0 first) is
    lexicographically greatest.

    A node is cut when one of three upper bounds on the final set F
    (kept edges K plus some of the undecided ones, nu(F) <= k = r-1)
    cannot beat the incumbent:

    - room: |K| + the undecided edges, since F keeps at most all of them.
    - forced deletions: once the carried matching has k edges, an
      undecided edge with both ends unmatched would complete an
      r-matching with it, so no such edge is in F; room minus them.
    - degree cap: F is a subgraph of P = K + undecided with nu(F) <= k,
      so _degree_cap over P's degrees bounds |F| (its docstring gives
      the Gallai-Edmonds argument).  Only the delete branch changes P.
      The cap is never below C(2r-1, 2), so it is skipped when that is
      at least m.

    None cuts a subtree holding a strictly better leaf, so the search
    meets the same incumbents, and returns the same set, as with the
    room bound alone.
    """
    check_count(r, 1, "r")
    m = g.m
    n = g.n
    deg = [g.degree(v) for v in range(n)]  # degrees in P = K + undecided
    seed = star_removal_bound(g, r)
    if seed is not None:
        if _seed_is_optimal(g, r, seed.value, deg, matchings):
            return seed
        best_value = seed.value
        best_mask = sum(1 << e for e in seed.edges)
    else:
        best_value, best_mask = -1, 0

    k = r - 1
    edges = g.edges
    rows = [0] * n  # adjacency bitmasks of the kept set K
    match = [-1] * n  # a maximum matching of K; nu is its size
    incident = [0] * n  # edge bitmask at each vertex
    for e, (a, b) in enumerate(edges):
        incident[a] |= 1 << e
        incident[b] |= 1 << e
    # at s = 0 the cap is k(2k+1) = C(2r-1, 2), so it never undercuts
    # room (at most m) unless that is below m
    capped = k * (2 * k + 1) < m

    def grows(a: int, b: int) -> bool:
        """With (a, b) just added to K, grow match by one edge if nu(K)
        rose."""
        if match[a] == -1 and match[b] == -1:
            match[a], match[b] = b, a  # (a, b) itself: no search needed
            return True
        if match[a] == -1:
            return _augment(n, rows, match, a)
        if match[b] == -1:
            return _augment(n, rows, match, b)
        # a path through (a, b) joins two other free vertices
        return any(_augment(n, rows, match, v)
                   for v in range(n) if match[v] == -1)

    def rec(i: int, kept_mask: int, kept_count: int, nu: int,
            cap: int) -> None:
        nonlocal best_value, best_mask
        room = kept_count + (m - i)
        if room <= best_value or cap <= best_value:
            return
        if nu == k:
            blocked = 0  # edges at a matched vertex
            for v in range(n):
                if match[v] != -1:
                    blocked |= incident[v]
            forced = ((1 << m) - (1 << i)) & ~blocked
            if room - forced.bit_count() <= best_value:
                return
        if i == m:
            # strictly better than the incumbent by the prune above
            best_value = kept_count
            best_mask = kept_mask
            return
        a, b = edges[i]
        saved = match[:]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
        kept_nu = nu + grows(a, b)
        if kept_nu < r:
            rec(i + 1, kept_mask | (1 << i), kept_count + 1, kept_nu, cap)
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
        match[:] = saved
        if room - 1 <= best_value:  # the delete child's room; spares a cap
            return
        deg[a] -= 1
        deg[b] -= 1
        rec(i + 1, kept_mask, kept_count, nu,
            _degree_cap(deg, k) if capped else m)
        deg[a] += 1
        deg[b] += 1

    allow_recursion(m)
    rec(0, 0, 0, 0, _degree_cap(deg, k) if capped else m)
    return ExtremalCertificate(frozenset(bit_indices(best_mask)), best_value, r)


def _seed_is_optimal(g: Graph, r: int, seed_value: int, deg: list[int],
                     matchings) -> bool:
    """At n = 2r, is the star seed (m - delta edges) optimal?

    Every r-matching is then a perfect matching, so a kept set F avoids
    them all exactly when the deleted set D = E - F meets every perfect
    matching.  The seed deletes delta edges; it is beaten exactly when
    some D of at most d = delta - 1 edges meets every perfect matching.

    The root cut of the branch and bound comes first: when the degree
    cap is at most the seed's value, nothing beats it.  Then _hits
    searches for D over matchings, listed here if the caller passed
    none; with none at all, D = {} already works (ex = m).
    """
    d = min(deg) - 1
    if d < 0 or _degree_cap(deg, r - 1) <= seed_value:
        return True
    if matchings is None:
        matchings = enumerate_matchings(g, r)
    allow_recursion(d)
    return _hits(matchings, holder_index(g.m, matchings),
                 (1 << len(matchings)) - 1, d) is None


def _degree_cap(deg: list[int], k: int) -> int:
    """Most edges a subgraph F of a graph P with degrees deg can have
    when nu(F) <= k.

    Take S = A(F) of the Gallai-Edmonds decomposition, s = |S|.  Each
    component of F - S is factor-critical (2j + 1 vertices for its j
    matching edges) or has a perfect matching (2j vertices), and
    nu(F) = s + the components' j, so s <= k and the j sum to at most
    k - s.  A component then has at most j(2j + 1) edges, a count
    superadditive in j, so the components hold at most
    (k - s)(2(k - s) + 1) edges.  The edges touching S number at most
    the sum of the s largest degrees, and, since every vertex of S has
    a neighbour in F, at most C(s, 2) + s(n' - s) on the n'
    non-isolated vertices of P.  The maximum over s bounds |F|.
    """
    top = sorted(deg, reverse=True)
    live = len(top) - top.count(0)
    best = k * (2 * k + 1)  # s = 0
    touching = 0
    for s in range(1, min(k, live) + 1):
        touching += top[s - 1]
        spanned = s * (s - 1) // 2 + s * (live - s)
        j = k - s
        bound = (touching if touching < spanned else spanned) + j * (2 * j + 1)
        if bound > best:
            best = bound
    return best


def validate_certificate(g: Graph, cert: ExtremalCertificate) -> bool:
    """Independent re-check: the kept subgraph really has nu <= r-1.

    Runs the matchings backtracker on the subgraph of the certificate's
    edges, a different code path from the blossom search used inside
    ex_exact.  Answers False, and never raises, for a malformed
    certificate: r, the value and every edge index must pass
    graph_core.check_count, each edge index must be below m, and the
    value must count the distinct edges.
    """
    kept = set()
    try:
        check_count(cert.r, 1, "r")
        check_count(cert.value, 0, "value")
        for e in cert.edges:
            check_count(e, 0, "edge index")
            if e >= g.m:
                return False
            kept.add(e)
    except ValueError:
        return False
    if cert.value != len(kept):
        return False
    sub = Graph(g.n, [g.edges[e] for e in kept])
    return has_matching_of_size(sub, cert.r) is None
