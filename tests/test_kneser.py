import random
from math import comb

import networkx as nx
import pytest

from helpers import bad_counts, random_graph
from mkg import (
    build_kneser,
    build_matching_kneser,
    disjoint_matching,
    enumerate_matchings,
    generate,
    to_dot,
)


def _nx(g):
    """A networkx copy of a Graph or KneserGraph, read from its rows."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((v, w) for v, row in enumerate(g.rows)
                     for w in range(v + 1, g.n) if row >> w & 1)
    return h


def _disjoint_pairs(kg):
    """(i, j), i < j, for every pair of edge-disjoint r-matchings, in
    lexicographic order, straight from the matchings' edge masks."""
    masks = [sum(1 << e for e in mt) for mt in kg.vertices]
    return [(i, j) for i in range(kg.n) for j in range(i + 1, kg.n)
            if masks[i] & masks[j] == 0]


class TestBuildMatchingKneser:
    def test_petersen_r5_edgeless(self):
        kg = build_matching_kneser(generate("petersen"), 5)
        assert kg.n == 6 and kg.m == 0

    def test_c5_r2_is_five_cycle(self):
        kg = build_matching_kneser(generate("cycle(5)"), 2)
        assert kg.n == 5 and kg.m == 5
        assert all(row.bit_count() == 2 for row in kg.rows)
        assert nx.is_isomorphic(_nx(kg), _nx(generate("cycle(5)")))

    def test_no_matchings_gives_null(self):
        kg = build_matching_kneser(generate("star(3)"), 2)
        assert kg.n == 0 and kg.m == 0

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            build_matching_kneser(generate("cycle(5)"), 0)

    @pytest.mark.parametrize("r", [*bad_counts(1), -1])
    def test_rejects_non_int_r(self, r):
        # "2" used to raise TypeError from the r < 1 test
        with pytest.raises(ValueError, match="an int r >= 1"):
            build_matching_kneser(generate("petersen"), r)

    def test_vertex_order_matches_enumeration(self):
        g = generate("petersen")
        kg = build_matching_kneser(g, 3)
        assert list(kg.vertices) == enumerate_matchings(g, 3)
        assert kg.base is g and kg.r == 3

    def test_adjacency_is_edge_disjointness(self):
        rng = random.Random(909)
        for r in (2, 3):
            for _ in range(30):
                g = random_graph(rng, rng.randrange(3, 9), 0.6)
                kg = build_matching_kneser(g, r)
                masks = [sum(1 << e for e in mt) for mt in kg.vertices]
                for i in range(kg.n):
                    want = sum(1 << j for j in range(kg.n)
                               if masks[i] & masks[j] == 0)
                    assert kg.rows[i] == want, (i, r)
                assert kg.m == len(_disjoint_pairs(kg)), r


class TestBuildKneser:
    def test_counts(self):
        kg = build_kneser(5, 2)
        assert kg.n == comb(5, 2) and kg.m == 15
        kg = build_kneser(3, 2)
        assert kg.n == 3 and kg.m == 0
        kg = build_kneser(4, 2)
        assert kg.n == 6 and kg.m == 3
        kg = build_kneser(2, 3)  # no 3-subsets of a 2-set
        assert kg.n == 0

    def test_regular_degree(self):
        for n, r in [(5, 2), (6, 2), (7, 3), (6, 3)]:
            kg = build_kneser(n, r)
            want = comb(n - r, r)
            assert all(row.bit_count() == want for row in kg.rows)

    def test_petersen_is_kg_5_2(self):
        assert nx.is_isomorphic(_nx(build_kneser(5, 2)),
                                _nx(generate("petersen")))

    def test_rejects_bad_args(self):
        # build_kneser(True, True) used to build KG(1, 1)
        for bad in bad_counts(1):
            with pytest.raises(ValueError, match="an int n >= 1"):
                build_kneser(bad, 2)
            with pytest.raises(ValueError, match="an int r >= 1"):
                build_kneser(5, bad)

    def test_rows_equal_matching_route(self):
        # same vertex order on both sides, so the rows must agree exactly:
        # labelled equality, stronger than an isomorphism
        for n in range(1, 9):
            for r in range(1, n + 1):
                a = build_matching_kneser(disjoint_matching(n), r)
                b = build_kneser(n, r)
                assert a.vertices == b.vertices, (n, r)
                assert a.rows == b.rows and a.m == b.m, (n, r)


class TestStructurallyEquivalent:
    def test_matching_route_agrees_with_subset_route(self):
        # the two routes give isomorphic graphs; the labelled check is
        # TestBuildKneser.test_rows_equal_matching_route
        for n in range(2, 7):
            for r in range(1, n + 1):
                a = build_matching_kneser(generate(f"disjoint_matching({n})"), r)
                b = build_kneser(n, r)
                assert nx.is_isomorphic(_nx(a), _nx(b)), (n, r)


def test_to_dot_golden():
    kg = build_matching_kneser(generate("cycle(5)"), 2)
    want = """graph kneser {
  0 [label="0-1,2-3"];
  1 [label="0-1,3-4"];
  2 [label="0-4,1-2"];
  3 [label="0-4,2-3"];
  4 [label="1-2,3-4"];
  0 -- 2;
  0 -- 4;
  1 -- 2;
  1 -- 3;
  3 -- 4;
}
"""
    assert to_dot(kg) == want


def test_to_dot_edges_are_disjoint_pairs_in_order():
    rng = random.Random(2718)
    for r in (2, 3):
        for _ in range(20):
            kg = build_matching_kneser(
                random_graph(rng, rng.randrange(4, 9), 0.6), r)
            edges = [line for line in to_dot(kg).splitlines() if " -- " in line]
            assert edges == [f"  {i} -- {j};" for i, j in _disjoint_pairs(kg)]


def test_to_dot_edgeless():
    kg = build_matching_kneser(generate("petersen"), 5)
    text = to_dot(kg)
    assert text.startswith("graph kneser {")
    assert text.count("[label=") == 6
    assert " -- " not in text
