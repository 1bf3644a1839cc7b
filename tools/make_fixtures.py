"""Generate the graph6 fixture files under fixtures/.

Run from the repository root:  python3 tools/make_fixtures.py

Outputs:
  fixtures/petersen.g6                the canonical snark
  fixtures/flower_j5.g6               flower snark J5 (n=20, m=30)
  fixtures/blanusa_1.g6, blanusa_2.g6 the two Blanusa snarks (n=18)
  fixtures/cubic_bridgeless_n14.g6    connected bridgeless cubic corpus
  fixtures/connected_n7.g6            all connected graphs with n <= 7

networkx is used here only for cross-checks that need machinery the
package deliberately does not ship (isomorphism dedup beyond 12
vertices, automorphism counts, the small-graph atlas).  All structural
claims about the fixtures (cubic, bridgeless, chromatic index 4) are
established with the package's own exact code before anything is
written.
"""

import sys
from itertools import combinations
from pathlib import Path

import networkx as nx
from networkx.algorithms import isomorphism as nxiso
from networkx.generators.atlas import graph_atlas_g

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mkg import (Graph, bridges, complete, flower, generalized_petersen,
                 is_connected, is_cubic, is_snark, petersen, write_graph6)
from mkg.graph_core import bit_indices

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def aut_count(g: Graph) -> int:
    h = to_nx(g)
    gm = nxiso.GraphMatcher(h, h)
    return sum(1 for _ in gm.isomorphisms_iter())


def girth(g: Graph) -> int:
    return min(len(c) for c in nx.cycle_basis(to_nx(g)))


# ---------------------------------------------------------------- snarks --

def dot_products():
    """All dot products of the Petersen graph with itself.

    Take P1 minus two independent edges {a,b}, {c,d} and P2 minus two
    adjacent vertices u, v; join a,b to u's other neighbors and c,d to
    v's, in every orientation.  Every result is cubic of order 18; the
    snarks among them fall into the two Blanusa isomorphism classes.
    """
    p = petersen()
    out = []
    indep_pairs = [
        (e1, e2) for e1, e2 in combinations(range(p.m), 2)
        if not set(p.edges[e1]) & set(p.edges[e2])
    ]
    for e1, e2 in indep_pairs:
        a, b = p.edges[e1]
        c, d = p.edges[e2]
        for u, v in p.edges:
            for (uu, vv) in ((u, v), (v, u)):
                xs = bit_indices(p.rows[uu] & ~(1 << vv))
                ys = bit_indices(p.rows[vv] & ~(1 << uu))
                for x1, x2 in ((xs[0], xs[1]), (xs[1], xs[0])):
                    for y1, y2 in ((ys[0], ys[1]), (ys[1], ys[0])):
                        yield _assemble(p, (a, b), (c, d), (uu, vv),
                                        (x1, x2), (y1, y2))


def _assemble(p, ab, cd, uv, xpair, ypair):
    # left block: Petersen minus edges ab, cd keeps labels 0..9
    drop = {tuple(sorted(ab)), tuple(sorted(cd))}
    edges = [e for e in p.edges if e not in drop]
    # right block: Petersen minus vertices u, v relabeled to 10..17
    keep = [w for w in range(10) if w not in uv]
    relab = {w: 10 + i for i, w in enumerate(keep)}
    for (s, t) in p.edges:
        if s in uv or t in uv:
            continue
        edges.append((relab[s], relab[t]))
    a, b = ab
    c, d = cd
    x1, x2 = xpair
    y1, y2 = ypair
    edges += [(a, relab[x1]), (b, relab[x2]), (c, relab[y1]), (d, relab[y2])]
    return Graph(18, edges)


def find_blanusa():
    classes = []  # (nx graph, mkg graph)
    for g in dot_products():
        ok, _ = is_snark(g)
        if not ok:
            continue
        h = to_nx(g)
        if any(nx.is_isomorphic(h, ref) for ref, _ in classes):
            continue
        classes.append((h, g))
    assert len(classes) == 2, f"expected 2 Blanusa classes, got {len(classes)}"
    # the first Blanusa snark has the automorphism group of order 8,
    # the second of order 4
    byaut = sorted(((aut_count(g), g) for _, g in classes), reverse=True)
    assert [n for n, _ in byaut] == [8, 4], byaut
    return byaut[0][1], byaut[1][1]


# ----------------------------------------------------- cubic n<=14 corpus --

def mobius_ladder(k: int) -> Graph:
    n = 2 * k
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, i + k) for i in range(k)]
    return Graph(n, edges)


def k33() -> Graph:
    return Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])


def heawood() -> Graph:
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(14) if i % 2 == 0]
    return Graph(14, edges)


def cubic_corpus():
    named = [
        ("K4", complete(4)),
        ("K33", k33()),
        ("prism3", generalized_petersen(3, 1)),
        ("cube", generalized_petersen(4, 1)),
        ("wagner", mobius_ladder(4)),
        ("pentaprism", generalized_petersen(5, 1)),
        ("ml5", mobius_ladder(5)),
        ("petersen", petersen()),
        ("hexaprism", generalized_petersen(6, 1)),
        ("ml6", mobius_ladder(6)),
        ("gp62", generalized_petersen(6, 2)),
        ("heptaprism", generalized_petersen(7, 1)),
        ("ml7", mobius_ladder(7)),
        ("gp72", generalized_petersen(7, 2)),
        ("heawood", heawood()),
    ]
    seen = []
    out = []
    for name, g in named:
        assert g.n <= 14, name
        assert is_connected(g), name
        assert is_cubic(g), name
        assert not bridges(g), name
        h = to_nx(g)
        assert not any(nx.is_isomorphic(h, ref) for ref in seen), \
            f"{name} duplicates an earlier corpus entry"
        seen.append(h)
        out.append((name, g))
    return out


# ------------------------------------------------------------- n<=7 atlas --

def connected_atlas():
    graphs = []
    for h in graph_atlas_g():
        if h.number_of_nodes() < 1 or not nx.is_connected(h):
            continue
        nodes = sorted(h.nodes())
        idx = {v: i for i, v in enumerate(nodes)}
        graphs.append(Graph(len(nodes),
                            [(idx[u], idx[v]) for u, v in h.edges()]))
    return graphs


def main():
    FIXTURES.mkdir(exist_ok=True)

    p = petersen()
    assert is_snark(p) == (True, None)
    assert aut_count(p) == 120
    (FIXTURES / "petersen.g6").write_text(write_graph6(p) + "\n")
    print("petersen.g6: n=%d m=%d aut=120" % (p.n, p.m))

    j5 = flower(5)
    ok, reason = is_snark(j5)
    assert ok, reason
    assert (j5.n, j5.m, girth(j5), aut_count(j5)) == (20, 30, 5, 20)
    (FIXTURES / "flower_j5.g6").write_text(write_graph6(j5) + "\n")
    print("flower_j5.g6: n=20 m=30 girth=5 aut=20")

    b1, b2 = find_blanusa()
    for name, g in (("blanusa_1", b1), ("blanusa_2", b2)):
        assert (g.n, g.m, girth(g)) == (18, 27, 5)
        (FIXTURES / f"{name}.g6").write_text(write_graph6(g) + "\n")
        print(f"{name}.g6: n=18 m=27 girth=5 aut={aut_count(g)}")

    corpus = cubic_corpus()
    with open(FIXTURES / "cubic_bridgeless_n14.g6", "w") as fh:
        for name, g in corpus:
            fh.write(write_graph6(g) + "\n")
    print("cubic_bridgeless_n14.g6: %d graphs (%s)"
          % (len(corpus), ", ".join(name for name, _ in corpus)))

    atlas = connected_atlas()
    with open(FIXTURES / "connected_n7.g6", "w") as fh:
        for g in atlas:
            fh.write(write_graph6(g) + "\n")
    print("connected_n7.g6: %d connected graphs n<=7" % len(atlas))


if __name__ == "__main__":
    main()
