import random

import pytest

from helpers import brute_matching_number, brute_matchings, load_fixture, random_graph
from mkg import (
    Graph,
    enumerate_matchings,
    enumerate_perfect_matchings,
    generate,
    has_matching_of_size,
    matching_number,
    perfect_matchings_pairwise_intersect,
    schonberger_check,
)
from mkg.edge_coloring import chromatic_index


class TestEnumeration:
    def test_known_counts(self):
        assert len(enumerate_matchings(generate("petersen"), 5)) == 6
        assert len(enumerate_matchings(generate("cycle(5)"), 2)) == 5
        assert enumerate_matchings(generate("star(3)"), 2) == []
        g = generate("complete(4)")
        assert len(enumerate_matchings(g, 1)) == g.m
        assert enumerate_matchings(g, 0) == [()]

    def test_lexicographic_order_and_shape(self):
        g = generate("petersen")
        for r in (1, 2, 3):
            tuples = enumerate_matchings(g, r)
            assert tuples == sorted(tuples)
            assert len(set(tuples)) == len(tuples)
            for t in tuples:
                assert type(t) is tuple
                assert list(t) == sorted(t) and len(t) == r

    def test_against_brute(self):
        rng = random.Random(101)
        for _ in range(120):
            g = random_graph(rng, rng.randrange(2, 10), rng.random())
            for r in (1, 2, 3):
                assert enumerate_matchings(g, r) == brute_matchings(g, r)

    def test_fixture_sample_against_brute(self):
        hosts = load_fixture("connected_n7.g6")[::40]
        for g in hosts:
            for r in (2, 3):
                assert enumerate_matchings(g, r) == brute_matchings(g, r)

    def test_matching_mask_and_endpoints(self):
        g = generate("cycle(6)")
        mt = enumerate_matchings(g, 3)[0]
        assert len(mt) == 3
        assert sum(1 << e for e in mt).bit_count() == 3
        assert sorted(v for e in mt for v in g.edges[e]) == list(range(6))


class TestMatchingNumber:
    def test_examples(self):
        assert matching_number(generate("petersen")) == 5
        assert matching_number(generate("star(3)")) == 1
        assert matching_number(generate("cycle(5)")) == 2
        assert matching_number(Graph(4, [])) == 0
        assert matching_number(Graph(0, [])) == 0

    def test_against_brute(self):
        rng = random.Random(2024)
        for _ in range(150):
            g = random_graph(rng, rng.randrange(0, 13), rng.random())
            assert matching_number(g) == brute_matching_number(g)

    def test_consistent_with_enumeration(self):
        rng = random.Random(8)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 9), rng.random())
            nu = matching_number(g)
            assert enumerate_matchings(g, nu) or nu == 0
            assert enumerate_matchings(g, nu + 1) == []

    def test_edge_removal_monotone(self):
        rng = random.Random(44)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(3, 10), 0.5)
            if g.m == 0:
                continue
            nu = matching_number(g)
            drop = rng.randrange(g.m)
            h = Graph(g.n, [e for i, e in enumerate(g.edges) if i != drop])
            assert matching_number(h) in (nu, nu - 1)


class TestHasMatching:
    def test_early_exit_witness(self):
        g = generate("petersen")
        w = has_matching_of_size(g, 5)
        assert w is not None and len(w) == 5
        seen = set()
        for e in w:
            u, v = g.edges[e]
            assert u not in seen and v not in seen
            seen.update((u, v))
        assert has_matching_of_size(g, 6) is None

    def test_allowed_subsets(self):
        g = generate("cycle(5)")
        # edges (0,1),(0,4),(1,2),(2,3),(3,4)
        assert has_matching_of_size(g, 2, allowed=0b01001) is not None
        assert has_matching_of_size(g, 2, allowed=0b00011) is None

    def test_agrees_with_enumeration(self):
        # the witness is the first enumerated r-matching inside allowed
        rng = random.Random(303)
        mask_rng = random.Random(304)
        for _ in range(80):
            g = random_graph(rng, rng.randrange(1, 9), rng.random())
            for r in (1, 2, 3):
                every = enumerate_matchings(g, r)
                for allowed in [None] + [mask_rng.getrandbits(g.m)
                                         for _ in range(4)]:
                    inside = [mt for mt in every if allowed is None
                              or all(allowed >> e & 1 for e in mt)]
                    assert (has_matching_of_size(g, r, allowed=allowed)
                            == (inside[0] if inside else None))


class TestPerfectMatchings:
    def test_examples(self):
        assert len(enumerate_perfect_matchings(generate("petersen"))) == 6
        assert len(enumerate_perfect_matchings(generate("complete(4)"))) == 3
        assert enumerate_perfect_matchings(generate("cycle(5)")) == []
        assert enumerate_perfect_matchings(generate("cycle(6)")) != []

    def test_odd_order_empty(self):
        assert enumerate_perfect_matchings(generate("star(2)")) == []


class TestSchonberger:
    def test_petersen_passes(self):
        ok, pair = schonberger_check(generate("petersen"))
        assert ok and pair is None

    def test_failure_names_lex_first_edge_pair(self):
        g = generate("cycle(4)")
        ok, pair = schonberger_check(g)
        assert not ok
        assert pair == (0, 1)  # edges (0,1) and (0,3): every PM hits one
        e, f = pair
        for pm in enumerate_perfect_matchings(g):
            assert e in pm or f in pm

    def test_needs_two_edges(self):
        with pytest.raises(ValueError):
            schonberger_check(Graph(2, [(0, 1)]))

    def test_cubic_corpus(self):
        # every bridgeless cubic graph passes; proved for the cubic case
        for g in load_fixture("cubic_bridgeless_n14.g6"):
            ok, pair = schonberger_check(g)
            assert ok and pair is None

    def test_pairwise_intersect_wrapper(self):
        assert perfect_matchings_pairwise_intersect(generate("petersen"))
        assert not perfect_matchings_pairwise_intersect(generate("complete(4)"))
        assert perfect_matchings_pairwise_intersect(generate("cycle(5)"))  # vacuous

    def test_class_two_cubic_implies_intersecting(self):
        for name in ("petersen.g6", "flower_j5.g6", "blanusa_1.g6",
                     "blanusa_2.g6"):
            g = load_fixture(name)[0]
            assert chromatic_index(g).chromatic_index == 4
            assert perfect_matchings_pairwise_intersect(g)
