import importlib.util
import random
import time

import pytest

from helpers import (FIXTURES, bad_counts, brute_matching_number,
                     brute_matchings, load_fixture, random_graph, ref_augment,
                     ref_pairwise_intersect, ref_r_matchings,
                     ref_schonberger_check)
from mkg import (
    Graph,
    bridges,
    build_matching_kneser,
    enumerate_matchings,
    enumerate_perfect_matchings,
    generate,
    has_matching_of_size,
    matching_number,
    parse_graph6,
    perfect_matchings_pairwise_intersect,
    schonberger_check,
)
from mkg.edge_coloring import chromatic_index
from mkg.matchings import _augment, _search, pairwise_intersect

SNARK_FIXTURES = ("petersen.g6", "blanusa_1.g6", "blanusa_2.g6",
                  "flower_j5.g6", "cubic_bridgeless_n14.g6")


def _dense_r2_hosts(seed):
    """The random and complete hosts of the benchmark's dense-r2
    workload, from mkgbench/workloads.py."""
    path = FIXTURES.parent / "mkgbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("mkgbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [parse_graph6(line) for line in workloads.dense_lines(seed)]


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

    def test_flower_j9_perfect_matchings(self):
        # n = 36: an edge-index backtracker dies late at r = n/2 and took
        # seconds already for J7; branching on vertices takes milliseconds
        g = generate("flower(9)")
        start = time.perf_counter()
        pms = enumerate_matchings(g, 18)
        assert time.perf_counter() - start < 10
        assert len(pms) == 512
        assert pms == sorted(pms) and len(set(pms)) == 512
        assert all(len({w for e in pm for w in g.edges[e]}) == 36
                   for pm in pms)

    def test_matching_mask_and_endpoints(self):
        g = generate("cycle(6)")
        mt = enumerate_matchings(g, 3)[0]
        assert len(mt) == 3
        assert sum(1 << e for e in mt).bit_count() == 3
        assert sorted(v for e in mt for v in g.edges[e]) == list(range(6))


class TestSearchTwin:
    """_search against tests/helpers.ref_r_matchings, the edge-index
    backtracker it replaced: the same lists in the same order, and the
    same first hit, with and without an allowed subset."""

    @staticmethod
    def _agree(g, r, rng, subsets=2):
        for allowed in [None] + [rng.getrandbits(g.m)
                                 for _ in range(subsets)]:
            for first in (False, True):
                seen = []
                stopped = _search(g, r, allowed,
                                  lambda mt: seen.append(mt) or first)
                assert seen == ref_r_matchings(g, r, allowed, first), (
                    g.edges, r, allowed, first)
                assert stopped == (first and bool(seen))

    def test_catalog(self):
        rng = random.Random(14)
        for g in load_fixture("connected_n7.g6"):
            for r in range(5):
                self._agree(g, r, rng)

    def test_snarks_near_half_order(self):
        rng = random.Random(15)
        for name in SNARK_FIXTURES:
            for g in load_fixture(name):
                for r in (g.n // 2, g.n // 2 - 1):
                    self._agree(g, r, rng, subsets=4)

    def test_dense_r2_hosts(self):
        rng = random.Random(16)
        for g in _dense_r2_hosts(1):
            for r in range(1, g.n // 2 + 1):
                self._agree(g, r, rng)

    def test_random_graphs(self):
        rng = random.Random(17)
        for _ in range(200):
            g = random_graph(rng, rng.randrange(0, 11), rng.random())
            for r in range(g.n // 2 + 2):
                self._agree(g, r, rng)

    def test_negative_size(self):
        with pytest.raises(ValueError):
            enumerate_matchings(generate("cycle(4)"), -1)

    @pytest.mark.parametrize("r", bad_counts(0))
    def test_non_int_size(self, r):
        # 2.5 used to fail with IndexError inside _search, and True ran
        # as r = 1; every entry point into _search rejects them
        g = generate("petersen")
        for call in (lambda: enumerate_matchings(g, r),
                     lambda: has_matching_of_size(g, r)):
            with pytest.raises(ValueError, match="an int r >= 0"):
                call()
        with pytest.raises(ValueError, match="an int r >= 1"):
            build_matching_kneser(g, r)


class TestAugmentTwin:
    def test_random_graphs(self):
        # the same augmenting path: equal return values and match arrays
        # from every free root of a random partial matching
        rng = random.Random(18)
        roots = 0
        for _ in range(1500):
            n = rng.randrange(1, 17)
            g = random_graph(rng, n, rng.random())
            match = [-1] * n
            for u, v in rng.sample(g.edges, g.m):
                if match[u] == match[v] == -1 and rng.random() < 0.6:
                    match[u], match[v] = v, u
            twin = match[:]
            for root in range(n):
                if match[root] != -1:
                    continue
                grew = _augment(n, list(g.rows), match, root)
                assert grew == ref_augment(n, list(g.rows), twin, root)
                assert match == twin
                roots += 1
        assert roots > 3000


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

    def test_allowed_must_be_an_edge_mask(self):
        g = generate("cycle(6)")
        for bad in (-1, -(1 << 6), 1 << 6, 1 << 40, (1 << 7) - 1):
            with pytest.raises(ValueError):
                has_matching_of_size(g, 2, allowed=bad)
        # True used to read as the mask of edge 0
        for bad in bad_counts(0):
            with pytest.raises(ValueError, match="an int allowed >= 0"):
                has_matching_of_size(g, 1, allowed=bad)
        assert has_matching_of_size(g, 2, allowed=(1 << 6) - 1) == (0, 3)
        assert has_matching_of_size(g, 2, allowed=0) is None
        assert has_matching_of_size(g, 0, allowed=0) == ()

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

    def test_twin(self):
        # one OR of two holder masks per edge pair against the pair-by-pair
        # test: random graphs of even order (with and without a bridge or
        # a perfect matching) and the cubic fixtures
        rng = random.Random(22)
        kinds = set()
        graphs = []
        while len(graphs) < 400:
            n = rng.choice((2, 4, 6, 8, 10))
            g = random_graph(rng, n, rng.random())
            if g.m >= 2:
                graphs.append(g)
        for name in ("cubic_bridgeless_n14.g6", "petersen.g6",
                     "blanusa_1.g6", "blanusa_2.g6", "flower_j5.g6"):
            graphs += load_fixture(name)
        for g in graphs:
            got = schonberger_check(g)
            assert got == ref_schonberger_check(g), g
            kinds.add((got[0], bool(bridges(g)),
                       bool(enumerate_perfect_matchings(g))))
        # passes and failures, graphs with bridges, graphs with no
        # perfect matching
        assert {ok for ok, _, _ in kinds} == {True, False}
        assert (False, True, True) in kinds and (True, False, True) in kinds
        assert any(not has_pm for _, _, has_pm in kinds)

    def test_pairwise_intersect_wrapper(self):
        assert perfect_matchings_pairwise_intersect(generate("petersen"))
        assert not perfect_matchings_pairwise_intersect(generate("complete(4)"))
        assert perfect_matchings_pairwise_intersect(generate("cycle(5)"))  # vacuous

    def test_pairwise_intersect_twin(self):
        # the per-edge holder masks against the pair-by-pair test: random
        # families, the same with one pair made disjoint (the last, so a
        # pair-by-pair test meets it only at the end), and families of
        # zero or one matching, empty or not
        rng = random.Random(2024)
        seen = set()
        for _ in range(1500):
            m = rng.randrange(1, 12)
            size = rng.randrange(1, 5)
            family = [tuple(sorted(rng.sample(range(m), min(size, m))))
                      for _ in range(rng.randrange(0, 9))]
            cases = [family, family[:1], [()], [(), ()], [(), (0,)]]
            if len(family) >= 2:
                # a common edge m makes every pair meet; then the last two
                # trade it for edges m + 1 and m + 2, which the others
                # hold too, so theirs is the only disjoint pair
                shared = [mt + (m, m + 1, m + 2) for mt in family]
                shared[-2:] = [(m + 1,), (m + 2,)]
                assert not ref_pairwise_intersect(shared)
                assert ref_pairwise_intersect(shared[:-1])
                assert ref_pairwise_intersect(shared[:-2] + shared[-1:])
                cases += [[mt + (m,) for mt in family], shared]
            for case in cases:
                want = ref_pairwise_intersect(case)
                assert pairwise_intersect(case) is want, case
                assert pairwise_intersect(iter(case)) is want, case
                seen.add(want)
        assert seen == {True, False}
        assert pairwise_intersect([])

    def test_pairwise_intersect_on_kneser_vertices(self):
        # the verifier's use: the r-matchings of a host, edgeless KG or not
        for name, r in (("petersen", 5), ("petersen", 4), ("complete(6)", 3),
                        ("cycle(7)", 3), ("flower(5)", 10)):
            ms = build_matching_kneser(generate(name), r).vertices
            assert pairwise_intersect(ms) is ref_pairwise_intersect(ms)

    def test_class_two_cubic_implies_intersecting(self):
        for name in ("petersen.g6", "flower_j5.g6", "blanusa_1.g6",
                     "blanusa_2.g6"):
            g = load_fixture(name)[0]
            assert chromatic_index(g).chromatic_index == 4
            assert perfect_matchings_pairwise_intersect(g)
