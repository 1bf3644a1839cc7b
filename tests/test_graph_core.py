import random

import pytest

import networkx as nx
from helpers import (FIXTURES, load_fixture, random_graph,
                     reachability_connected)
from mkg import (
    Graph,
    Graph6Error,
    bridges,
    generate,
    is_connected,
    is_cubic,
    parse_graph6,
    write_graph6,
)


class TestGraphClass:
    def test_basic(self):
        g = Graph(4, [(1, 0), (2, 3), (0, 2)])
        assert g.n == 4 and g.m == 3
        assert g.edges == ((0, 1), (0, 2), (2, 3))  # canonical, sorted
        assert g.degree(0) == 2 and g.degree(3) == 1
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(1, 3)
        assert not any(g.has_edge(u, v) for u, v in ((0, 4), (4, 0), (0, -1),
                                                      (-1, 0)))
        assert g.edge_index(2, 3) == 2 and g.edge_index(1, 0) == 0
        for u, v in ((1, 3), (3, 3), (0, 0)):
            with pytest.raises(KeyError):
                g.edge_index(u, v)
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
        assert bridges(g) == [g.edge_index(2, 3)]

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
            # cross-check membership against networkx
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges)
            ref = {tuple(sorted(e)) for e in nx.bridges(h)} if g.m else set()
            assert {g.edges[i] for i in out} == ref


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
