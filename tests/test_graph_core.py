import random
import sys
from pathlib import Path

import pytest

import networkx as nx
from helpers import (FIXTURES, bad_counts, load_fixture, random_graph,
                     reachability_connected, ref_bridges)
from mkg import (
    Graph,
    Graph6Error,
    bridges,
    complete,
    cycle,
    disjoint_matching,
    flower,
    generalized_petersen,
    generate,
    is_connected,
    is_cubic,
    parse_graph6,
    petersen,
    star,
    write_graph6,
)


class TestGraphClass:
    def test_basic(self):
        g = Graph(4, [(1, 0), (2, 3), (0, 2)])
        assert g.n == 4 and g.m == 3
        assert g.edges == ((0, 1), (0, 2), (2, 3))  # canonical, sorted
        assert g.degree(0) == 2 and g.degree(3) == 1
        assert g.rows == (0b0110, 0b0001, 0b1001, 0b0100)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(3, [(-1, 2)])

    def test_eq_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(4, [(0, 1), (1, 2)])

    def test_holds_the_host_graph_only(self):
        assert Graph.__slots__ == ("n", "edges", "m", "rows")
        assert not hasattr(Graph(2, [(0, 1)]), "__dict__")


class TestGraph6:
    def test_known_encodings(self):
        assert parse_graph6("A_") == Graph(2, [(0, 1)])
        assert parse_graph6("Bw") == Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert parse_graph6("?") == Graph(0, [])
        assert write_graph6(Graph(2, [(0, 1)])) == "A_"
        assert write_graph6(Graph(0, [])) == "?"

    def test_header_prefix(self):
        assert parse_graph6(">>graph6<<A_") == Graph(2, [(0, 1)])

    def test_petersen_roundtrip(self):
        g = generate("petersen")
        assert parse_graph6(write_graph6(g)) == g

    def test_roundtrip_random(self):
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randrange(0, 20)
            g = random_graph(rng, n, rng.random())
            assert parse_graph6(write_graph6(g)) == g

    def test_matches_networkx(self):
        # cross-check the codec against an independent implementation
        rng = random.Random(13)
        for _ in range(150):
            n = rng.randrange(1, 32)
            g = random_graph(rng, n, rng.random())
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges)
            ref = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert write_graph6(g) == ref
            back = parse_graph6(ref)
            assert back == g

    def test_errors_carry_byte_offset(self):
        with pytest.raises(Graph6Error) as ei:
            parse_graph6("A" + chr(30))
        assert ei.value.byte_offset == 1
        with pytest.raises(Graph6Error):
            parse_graph6(chr(126) + "A_")  # long form unsupported
        with pytest.raises(Graph6Error):
            parse_graph6("A")  # truncated body
        with pytest.raises(Graph6Error):
            parse_graph6("A__")  # trailing bytes
        with pytest.raises(Graph6Error) as ei:
            parse_graph6("A" + chr(63 + 1))  # nonzero padding bits
        assert ei.value.byte_offset == 1
        with pytest.raises(Graph6Error):
            parse_graph6("")


class TestGenerators:
    def test_petersen(self):
        g = generate("petersen")
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in range(10))
        assert is_connected(g)

    def test_cycle(self):
        g = generate("cycle(7)")
        assert g.n == 7 and g.m == 7
        assert all(g.degree(v) == 2 for v in range(7))
        with pytest.raises(ValueError):
            generate("cycle(2)")

    def test_complete(self):
        g = generate("complete(5)")
        assert g.n == 5 and g.m == 10

    def test_star(self):
        g = generate("star(4)")
        assert g.n == 5 and g.m == 4
        assert g.degree(0) == 4
        assert all(g.degree(v) == 1 for v in range(1, 5))

    def test_disjoint_matching(self):
        g = generate("disjoint_matching(6)")
        assert g.n == 12 and g.m == 6
        assert all(g.degree(v) == 1 for v in range(12))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            generate("mystery(3)")
        with pytest.raises(ValueError):
            generate("cycle")  # missing argument

    def test_ascii_digits_only(self):
        assert generate("cycle(3)") == generate("cycle( 3 )")
        assert generate("cycle(3)").m == 3
        for spec in ("cycle(\u0663)", "complete(\uff15)", "star(1_0)",
                     "cycle(+3)"):
            with pytest.raises(ValueError):
                generate(spec)

    def test_flower(self):
        # the fixture's J5 was written by tools/make_fixtures.py from
        # this generator, so the labels must not move
        assert generate("flower(5)") == load_fixture("flower_j5.g6")[0]
        for k in (3, 5, 7, 9):
            g = generate(f"flower({k})")
            assert g.n == 4 * k and g.m == 6 * k
            assert is_cubic(g) and is_connected(g) and not bridges(g)
        with pytest.raises(ValueError):
            generate("flower(2)")

    def test_generalized_petersen(self):
        # petersen() is GP(5, 2); pin it against its own edge list too
        edges = [e for i in range(5)
                 for e in ((i, (i + 1) % 5), (i, i + 5),
                           (5 + i, 5 + (i + 2) % 5))]
        assert petersen() == Graph(10, edges) == generalized_petersen(5, 2)
        assert write_graph6(petersen()) == "IheA@GUAo"
        for k in (3, 4, 7):
            g = generalized_petersen(k, 1)  # the k-prism
            assert g.n == 2 * k and g.m == 3 * k and is_cubic(g)

    @pytest.mark.parametrize("build, floor, name", [
        (Graph, 0, "n"), (cycle, 3, "n"), (complete, 1, "n"),
        (star, 1, "k"), (disjoint_matching, 1, "n"), (flower, 3, "k"),
        (lambda k: generalized_petersen(k, 1), 3, "k"),
        (lambda s: generalized_petersen(7, s), 1, "s"),
    ], ids=["Graph", "cycle", "complete", "star", "disjoint_matching",
            "flower", "generalized_petersen_k", "generalized_petersen_s"])
    def test_rejects_non_int_count(self, build, floor, name):
        # Graph(True) and complete(True) used to build K1, and Graph(2.5),
        # cycle(5.0) and flower(5.0) raised TypeError
        for bad in bad_counts(floor):
            with pytest.raises(ValueError, match=f"an int {name} >= {floor}"):
                build(bad)


class TestConnectivity:
    def test_examples(self):
        assert is_connected(generate("petersen"))
        assert not is_connected(generate("disjoint_matching(2)"))
        assert is_connected(Graph(0, []))
        assert is_connected(Graph(1, []))
        assert not is_connected(Graph(2, []))

    def test_against_closure(self):
        rng = random.Random(5)
        for _ in range(200):
            g = random_graph(rng, rng.randrange(0, 9), rng.random())
            assert is_connected(g) == reachability_connected(g)


class TestBridges:
    def test_cycles_have_none(self):
        for n in range(3, 13):
            assert bridges(generate(f"cycle({n})")) == []

    def test_petersen_has_none(self):
        assert bridges(generate("petersen")) == []

    def test_tree_edges_all_bridges(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randrange(2, 13)
            # random tree: attach each vertex to an earlier one
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            g = Graph(n, edges)
            assert bridges(g) == list(range(g.m))

    def test_two_triangles_joined(self):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
        assert bridges(g) == [g.edges.index((2, 3))]

    def test_sorted_by_edge_index(self):
        rng = random.Random(23)
        graphs = [random_graph(rng, rng.randrange(2, 10), 0.25)
                  for _ in range(100)]
        # connected_n7.g6 and the cubic and snark fixtures
        for path in sorted(FIXTURES.glob("*.g6")):
            graphs += load_fixture(path.name)
        for g in graphs:
            out = bridges(g)
            assert out == sorted(out)
            assert set(out) == _nx_bridges(g)

    def test_matches_twins_on_random_graphs(self):
        # the low-link search against the per-edge reachability twin and
        # networkx: sparse and dense graphs up to 14 vertices, with
        # isolated vertices, several components joined or not by single
        # edges, and n = 0 and n = 1
        rng = random.Random(1974)
        graphs = [Graph(0, []), Graph(1, [])]
        while len(graphs) < 2200:
            n = rng.randrange(0, 15)
            edges = []
            start = 0
            while start < n:
                size = rng.randrange(1, n - start + 1)
                p = rng.random()
                edges += [(start + u, start + v)
                          for u in range(size) for v in range(u + 1, size)
                          if rng.random() < p]
                if start and rng.random() < 0.5:
                    edges.append((rng.randrange(start),
                                  start + rng.randrange(size)))
                start += size
            graphs.append(Graph(n, edges))
        kinds = set()
        for g in graphs:
            out = bridges(g)
            assert out == ref_bridges(g), g
            assert set(out) == _nx_bridges(g), g
            kinds.add((is_connected(g), bool(out),
                       any(row == 0 for row in g.rows)))
        # connected or not, with bridges or not, with an isolated vertex
        # or not: a connected graph with an isolated vertex is K1
        assert len(kinds) == 7

    def test_matches_twins_on_fixtures_and_bench_corpora(self):
        graphs = [g for path in sorted(FIXTURES.glob("*.g6"))
                  for g in load_fixture(path.name)]
        for path in sorted(BENCH_CORPUS.glob("*.g6")):
            graphs += [parse_graph6(line)
                       for line in path.read_text().splitlines() if line]
        # 1,015 fixture graphs, 996 + 19 bench hosts
        assert len(graphs) == 2030
        for g in graphs:
            out = bridges(g)
            assert out == ref_bridges(g), g
            assert set(out) == _nx_bridges(g), g

    def test_long_path_and_cycle_at_default_recursion_limit(self):
        # the search is iterative: 5,000 vertices deep at the default
        # limit of 1,000 frames ends in no RecursionError
        n = 5000
        path = Graph(n, [(v, v + 1) for v in range(n - 1)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert bridges(path) == list(range(path.m))
            assert bridges(cycle(n)) == []
        finally:
            sys.setrecursionlimit(limit)


BENCH_CORPUS = Path(__file__).resolve().parent.parent / "mkgbench" / "corpus"


def _nx_bridges(g: Graph) -> set:
    """The edge indices of g's bridges, by networkx."""
    if not g.m:
        return set()
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return {g.edges.index(tuple(sorted(e))) for e in nx.bridges(h)}


def test_is_cubic():
    assert is_cubic(generate("petersen"))
    assert is_cubic(generate("complete(4)"))
    assert not is_cubic(generate("cycle(6)"))
    assert is_cubic(Graph(0, []))  # vacuous


def test_fixture_files_parse():
    for name, count in [("petersen.g6", 1), ("flower_j5.g6", 1),
                        ("blanusa_1.g6", 1), ("blanusa_2.g6", 1),
                        ("cubic_bridgeless_n14.g6", 15),
                        ("connected_n7.g6", 996)]:
        graphs = load_fixture(name)
        assert len(graphs) == count
