import random
from math import comb

import pytest

from helpers import random_graph
from mkg import (
    Graph,
    build_kneser,
    build_matching_kneser,
    disjoint_matching,
    enumerate_matchings,
    generate,
    structurally_equivalent,
    to_dot,
)


class TestBuildMatchingKneser:
    def test_petersen_r5_edgeless(self):
        kg = build_matching_kneser(generate("petersen"), 5)
        assert kg.n == 6 and kg.m == 0

    def test_c5_r2_is_five_cycle(self):
        kg = build_matching_kneser(generate("cycle(5)"), 2)
        assert kg.n == 5 and kg.m == 5
        assert all(kg.adjacency.degree(v) == 2 for v in range(5))
        assert bool(structurally_equivalent(kg.adjacency, generate("cycle(5)")))

    def test_no_matchings_gives_null(self):
        kg = build_matching_kneser(generate("star(3)"), 2)
        assert kg.n == 0 and kg.m == 0

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            build_matching_kneser(generate("cycle(5)"), 0)

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
                masks = [mt.edge_mask() for mt in kg.vertices]
                for i in range(kg.n):
                    want = sum(1 << j for j in range(kg.n)
                               if masks[i] & masks[j] == 0)
                    assert kg.rows[i] == want, (i, r)
                    for j in range(i + 1, kg.n):
                        assert kg.adjacency.has_edge(i, j) == bool(want >> j & 1)
                assert kg.m == len(kg.adjacency.edges)
                assert kg.adjacency is kg.adjacency  # built once, cached


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
            assert all(kg.adjacency.degree(v) == want for v in range(kg.n))

    def test_petersen_is_kg_5_2(self):
        res = structurally_equivalent(build_kneser(5, 2), generate("petersen"))
        assert res.equivalent and res.method == "isomorphism"

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_kneser(0, 2)
        with pytest.raises(ValueError):
            build_kneser(5, 0)

    def test_rows_equal_matching_route(self):
        # same vertex order on both sides, so the rows must agree exactly,
        # also past the 12-vertex limit of the isomorphism check
        for n in range(1, 9):
            for r in range(1, n + 1):
                a = build_matching_kneser(disjoint_matching(n), r)
                b = build_kneser(n, r)
                assert a.vertices == b.vertices, (n, r)
                assert a.rows == b.rows and a.m == b.m, (n, r)


class TestStructurallyEquivalent:
    def test_matching_route_agrees_with_subset_route(self):
        for n in range(2, 7):
            for r in range(1, n + 1):
                a = build_matching_kneser(generate(f"disjoint_matching({n})"), r)
                b = build_kneser(n, r)
                res = structurally_equivalent(a, b)
                assert res.equivalent, (n, r)

    def test_large_side_flagged_invariants(self):
        a = build_matching_kneser(generate("disjoint_matching(6)"), 2)
        b = build_kneser(6, 2)  # 15 vertices, past the exact cutoff
        res = structurally_equivalent(a, b)
        assert res.equivalent and res.method == "invariants"

    def test_exact_negative_same_degree_sequence(self):
        c12 = generate("cycle(12)")
        c6 = generate("cycle(6)")
        two_c6 = Graph(12, list(c6.edges)
                       + [(u + 6, v + 6) for u, v in c6.edges])
        res = structurally_equivalent(c12, two_c6)
        assert not res and res.method == "isomorphism"

    def test_trivial_mismatches(self):
        assert not structurally_equivalent(generate("cycle(5)"),
                                           generate("cycle(6)"))
        assert not structurally_equivalent(generate("complete(4)"),
                                           generate("star(3)"))

    def test_truthiness(self):
        res = structurally_equivalent(generate("cycle(5)"), generate("cycle(5)"))
        assert res and res.equivalent


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


def test_to_dot_edgeless():
    kg = build_matching_kneser(generate("petersen"), 5)
    text = to_dot(kg)
    assert text.startswith("graph kneser {")
    assert text.count("[label=") == 6
    assert " -- " not in text
