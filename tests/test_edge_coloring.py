import hashlib
import random
import time
from itertools import combinations

import mkg.edge_coloring
from helpers import (FIXTURES, brute_chromatic, load_fixture, random_graph,
                     ref_chromatic_index)
from mkg import (Graph, bridges, complete, cycle, enumerate_matchings,
                 flower, generalized_petersen, is_connected, is_cubic,
                 petersen, star)
from mkg.edge_coloring import (_backtrack_edge_coloring, chromatic_index,
                               is_snark)
from mkg.matchings import pairwise_intersect

# sha256 of repr(chromatic_index(g)), one per line, over every fixture
# graph in file-name order; change it only with an intended change of
# witness coloring
GOLDEN_SHA256 = ("9dbfec45b48e6cc437be80e7476c3cf8"
                 "49ecaf82e45101b5c5ceb7ce792320cb")

# sha256 of repr(chromatic_index(flower(k))), as the exhaustive 3-color
# search and the 4-color backtracker gave it
FLOWER_SHA256 = {
    7: "12994b791cfad301e1b225555b38ad7fde8aabf49e145c1815534b31b8e281db",
    9: "c25df7d1ad5e2f0b7599f6c7441dfaaea76e56c5a0d9cc29fa17c9304d4efe3d",
}

# a centre (vertex 15) joined by three bridges to three K4s, each with
# one edge subdivided: connected and cubic, with no perfect matching,
# since deleting the centre leaves three odd components
NO_PM_CUBIC = Graph(16, [e for b in (0, 5, 10) for e in (
    (b, b + 1), (b, b + 2), (b, b + 3), (b + 1, b + 2), (b + 1, b + 4),
    (b + 2, b + 3), (b + 3, b + 4), (b + 4, 15))])


def line_graph(g: Graph) -> Graph:
    pairs = [(i, j) for i in range(g.m) for j in range(i + 1, g.m)
             if set(g.edges[i]) & set(g.edges[j])]
    return Graph(g.m, pairs)


def assert_proper(g: Graph, res) -> None:
    assert len(res.coloring) == g.m
    assert all(0 <= c < res.chromatic_index for c in res.coloring)
    for i in range(g.m):
        for j in range(i + 1, g.m):
            if set(g.edges[i]) & set(g.edges[j]):
                assert res.coloring[i] != res.coloring[j]


class TestChromaticIndex:
    def test_examples(self):
        res = chromatic_index(petersen())
        assert res.chromatic_index == 4 and res.vizing_class == "two"
        res = chromatic_index(complete(4))
        assert res.chromatic_index == 3 and res.vizing_class == "one"
        res = chromatic_index(cycle(6))
        assert res.chromatic_index == 2 and res.vizing_class == "one"
        res = chromatic_index(cycle(5))
        assert res.chromatic_index == 3 and res.vizing_class == "two"
        res = chromatic_index(star(4))
        assert res.chromatic_index == 4 and res.vizing_class == "one"

    def test_empty(self):
        res = chromatic_index(Graph(3, []))
        assert res.chromatic_index == 0 and res.coloring == ()
        assert res.vizing_class == "one"

    def test_witness_proper(self):
        rng = random.Random(424)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(1, 9), rng.random())
            res = chromatic_index(g)
            assert_proper(g, res)
            delta = max((g.degree(v) for v in range(g.n)), default=0)
            assert res.chromatic_index in (delta, delta + 1) or g.m == 0
            assert res.vizing_class == ("one" if res.chromatic_index == delta
                                        else "two")

    def test_against_line_graph_oracle(self):
        rng = random.Random(99)
        checked = 0
        while checked < 60:
            g = random_graph(rng, rng.randrange(2, 8), rng.random())
            if g.m == 0 or g.m > 10:
                continue
            checked += 1
            assert chromatic_index(g).chromatic_index == brute_chromatic(
                line_graph(g))

    def test_cubic_class_one_iff_pm_partition(self):
        # for cubic graphs a 3-edge-coloring is a partition into 3 PMs
        for g in load_fixture("cubic_bridgeless_n14.g6"):
            if g.n > 12:
                continue
            masks = [sum(1 << e for e in pm)
                     for pm in enumerate_matchings(g, g.n // 2)]
            full = (1 << g.m) - 1
            has_partition = any(
                a | b | c == full
                for a, b, c in combinations(masks, 3)
                if a & b == 0 and a & c == 0 and b & c == 0)
            res = chromatic_index(g)
            assert (res.chromatic_index == 3) == has_partition
            if res.chromatic_index == 3:
                for color in range(3):
                    cls = [i for i, c in enumerate(res.coloring) if c == color]
                    assert len(cls) == g.n // 2

    def test_snark_fixtures_class_two(self):
        for name in ("petersen.g6", "flower_j5.g6", "blanusa_1.g6",
                     "blanusa_2.g6"):
            g = load_fixture(name)[0]
            res = chromatic_index(g)
            assert res.chromatic_index == 4
            assert_proper(g, res)

    def test_golden_witnesses(self):
        # report bytes carry only the snark flag, so this pins the witness
        # colorings themselves: repr of every result on every fixture graph
        results = [chromatic_index(g)
                   for path in sorted(FIXTURES.glob("*.g6"))
                   for g in load_fixture(path.name)]
        assert len(results) == 1015
        assert sum(res.vizing_class == "two" for res in results) == 45
        text = "".join(repr(res) + "\n" for res in results)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256

    def test_overfull_is_class_two_by_counting(self):
        # K9 has m = 36 > Delta * floor(n/2) = 32: no 8-edge-coloring can
        # exist, and the exhaustive 8-color search alone runs for minutes
        g = complete(9)
        start = time.perf_counter()
        res = chromatic_index(g)
        assert time.perf_counter() - start < 10
        assert res.chromatic_index == 9 and res.vizing_class == "two"
        assert_proper(g, res)

    def test_flower_witnesses_pinned(self):
        # class two from the perfect matchings: no exhaustive 3-color
        # search, so J9 answers in milliseconds
        for k, want in FLOWER_SHA256.items():
            res = chromatic_index(flower(k))
            assert res.vizing_class == "two"
            assert hashlib.sha256(repr(res).encode()).hexdigest() == want

    def test_matches_twin(self):
        # the route before cubic graphs went through their perfect
        # matchings: the same result, witness included, on every host
        cubic = two = 0
        for g in _scan_hosts():
            res = chromatic_index(g)
            assert res == ref_chromatic_index(g), g
            if is_cubic(g) and g.m:
                cubic += 1
                two += res.vizing_class == "two"
        # the 75 cubic hosts and 9 snarks of TestEvenTwoFactorScan
        assert (cubic, two) == (75, 9)

    def test_cubic_runs_one_backtracker(self, monkeypatch):
        # a cubic graph is decided by its perfect matchings first: a
        # class-two one runs only the 4-color search, a class-one one
        # only the 3-color search
        calls = []
        backtrack = mkg.edge_coloring._backtrack_edge_coloring

        def spy(g, k):
            calls.append(k)
            return backtrack(g, k)

        monkeypatch.setattr(mkg.edge_coloring, "_backtrack_edge_coloring",
                            spy)
        seen = set()
        for g in _scan_hosts() + [NO_PM_CUBIC]:
            if not is_cubic(g) or g.m == 0:
                continue
            calls.clear()
            res = chromatic_index(g)
            assert calls == [res.chromatic_index], g
            seen.add(res.vizing_class)
        assert seen == {"one", "two"}

    def test_cubic_without_perfect_matching(self):
        g = NO_PM_CUBIC
        assert is_cubic(g) and is_connected(g)
        assert bridges(g) == [g.edges.index((b + 4, 15)) for b in (0, 5, 10)]
        assert enumerate_matchings(g, g.n // 2) == []
        res = chromatic_index(g)
        assert res == ref_chromatic_index(g)
        assert res.chromatic_index == 4 and res.vizing_class == "two"
        assert_proper(g, res)
        assert is_snark(g) == (False, "has a bridge")


BRIDGED_CUBIC = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3),
                           (2, 4), (0, 5),
                           (5, 6), (6, 7), (7, 8), (8, 9), (5, 9), (6, 8),
                           (7, 9)])


class TestIsSnark:
    def test_petersen(self):
        ok, reason = is_snark(petersen())
        assert ok and reason is None

    def test_three_edge_colorable(self):
        ok, reason = is_snark(complete(4))
        assert not ok and reason == "chromatic index 3"

    def test_not_cubic(self):
        ok, reason = is_snark(cycle(6))
        assert not ok and reason == "not cubic"

    def test_bridge(self):
        ok, reason = is_snark(BRIDGED_CUBIC)
        assert not ok and reason == "has a bridge"

    def test_disconnected(self):
        k4 = complete(4)
        two = Graph(8, list(k4.edges) + [(u + 4, v + 4) for u, v in k4.edges])
        ok, reason = is_snark(two)
        assert not ok and reason == "not connected"

    def test_clause_order(self):
        # disconnected and not cubic: connectivity is reported first
        g = Graph(5, [(0, 1), (2, 3)])
        ok, reason = is_snark(g)
        assert not ok and reason == "not connected"

    def test_all_snark_fixtures(self):
        for name in ("petersen.g6", "flower_j5.g6", "blanusa_1.g6",
                     "blanusa_2.g6"):
            ok, reason = is_snark(load_fixture(name)[0])
            assert ok and reason is None

    def test_matches_chromatic_index_route(self):
        # is_snark goes through the perfect matchings; the route through
        # the chromatic index twin, which shares no code with that test,
        # must give the same pair, reason strings included
        def via_chromatic_index(g):
            if not is_connected(g):
                return False, "not connected"
            if bridges(g):
                return False, "has a bridge"
            if not is_cubic(g):
                return False, "not cubic"
            ci = ref_chromatic_index(g).chromatic_index
            return (ci == 4, None if ci == 4 else f"chromatic index {ci}")

        graphs = load_fixture("cubic_bridgeless_n14.g6")
        for name in ("petersen.g6", "flower_j5.g6", "blanusa_1.g6",
                     "blanusa_2.g6"):
            graphs += load_fixture(name)
        graphs += [flower(k) for k in range(3, 8)]
        graphs += load_fixture("connected_n7.g6") + [Graph(0, [])]
        reasons = set()
        for g in graphs:
            got = is_snark(g)
            assert got == via_chromatic_index(g), g
            reasons.add(got[1])
        assert reasons == {None, "chromatic index 3", "chromatic index 0",
                           "not cubic", "has a bridge"}


def _scan_hosts():
    """The fixture graphs, flower(3..7) and GP(k, s) for k <= 20 and
    s <= 3, cubic or not."""
    graphs = [g for path in sorted(FIXTURES.glob("*.g6"))
              for g in load_fixture(path.name)]
    graphs += [flower(k) for k in range(3, 8)]
    graphs += [generalized_petersen(k, s)
               for k in range(3, 21) for s in range(1, 4) if 2 * s < k]
    return graphs


def _backtracking_is_snark(g):
    """is_snark as it was when its last clause ran the 3-edge-coloring
    backtracker."""
    if not is_connected(g):
        return False, "not connected"
    if bridges(g):
        return False, "has a bridge"
    if not is_cubic(g):
        return False, "not cubic"
    if _backtrack_edge_coloring(g, 3) is not None:
        return False, f"chromatic index {3 if g.m else 0}"
    return True, None


class TestEvenTwoFactorScan:
    """is_snark's last clause goes through the perfect matchings for an
    even 2-factor; the 3-edge-coloring backtracker and the pairwise
    intersection of the perfect matchings are its twins."""

    def test_matches_twins(self):
        hosts = [g for g in _scan_hosts()
                 if is_connected(g) and not bridges(g) and is_cubic(g)]
        snarks = 0
        for g in hosts:
            got, _ = is_snark(g)
            assert got == (_backtrack_edge_coloring(g, 3) is None), g
            pms = enumerate_matchings(g, g.n // 2)
            assert got == pairwise_intersect(pms), g
            snarks += got
        # 22 cubic fixtures (3 of them in connected_n7), J3..J7 and 48
        # GP(k, s); the class-two ones are Petersen (three times: its
        # fixture, one in cubic_bridgeless_n14 and GP(5, 2)), both
        # Blanusa snarks, J5 (twice), J3 and J7
        assert (len(hosts), snarks) == (75, 9)

    def test_reasons_match_backtracker(self):
        reasons = set()
        for g in _scan_hosts() + [Graph(0, []), Graph(2, [])]:
            got = is_snark(g)
            assert got == _backtracking_is_snark(g), g
            reasons.add(got[1])
        assert reasons == {None, "chromatic index 3", "chromatic index 0",
                           "not connected", "not cubic", "has a bridge"}

    def test_reads_a_passed_listing(self, monkeypatch):
        # the verifier hands is_snark the Kneser build's listing of the
        # perfect matchings; with it no search runs
        hosts = [g for path in sorted(FIXTURES.glob("*.g6"))
                 for g in load_fixture(path.name) if g.n % 2 == 0]
        hosts += [flower(k) for k in range(3, 10)]
        for g in hosts:
            want = is_snark(g)
            pms = enumerate_matchings(g, g.n // 2)
            with monkeypatch.context() as patched:
                patched.setattr(mkg.edge_coloring, "_search", None)
                assert is_snark(g, pms) == want, g

    def test_lazy_on_a_large_prism(self, monkeypatch):
        # the 80-vertex prism GP(40, 1) has millions of perfect
        # matchings; an even 2-factor turns up within the first few
        visited = 0
        search = mkg.edge_coloring._search

        def counted(g, r, visit):
            def counting(mt):
                nonlocal visited
                visited += 1
                return visit(mt)
            return search(g, r, counting)

        monkeypatch.setattr(mkg.edge_coloring, "_search", counted)
        assert is_snark(generalized_petersen(40, 1)) == (
            False, "chromatic index 3")
        assert 0 < visited < 10
