import hashlib
import random
import sys

import pytest

from helpers import (bad_counts, brute_chromatic, brute_clique_number,
                     brute_star_triangle_excess, load_fixture, random_graph,
                     ref_dsatur_bnb)
from mkg import (
    BudgetExhausted,
    Coloring,
    InvalidCertificateError,
    build_kneser,
    build_matching_kneser,
    chromatic_number,
    generate,
    greedy_ex_coloring,
    star_triangle_bound,
    validate_coloring,
)
from mkg import coloring
from mkg.coloring import (
    _CLIQUE_CAP,
    _CLIQUE_NODES,
    _clique_supports,
    _dsatur_bnb,
    _lower_bound_clique,
)
from mkg.extremal import ExtremalCertificate, ex_exact
from mkg.matchings import has_matching_of_size


class TestConventions:
    def test_null_graph(self):
        kg = build_matching_kneser(generate("star(3)"), 2)
        chi, col = chromatic_number(kg)
        assert chi == 0 and col.colors == () and col.k == 0
        assert validate_coloring(kg, col)

    def test_edgeless(self):
        kg = build_matching_kneser(generate("petersen"), 5)
        chi, col = chromatic_number(kg)
        assert chi == 1 and col.colors == (0,) * 6
        assert validate_coloring(kg, col)


class TestExamples:
    def test_small_graphs(self):
        assert chromatic_number(generate("cycle(5)"))[0] == 3
        assert chromatic_number(generate("cycle(6)"))[0] == 2
        assert chromatic_number(generate("complete(4)"))[0] == 4
        assert chromatic_number(generate("petersen"))[0] == 3

    def test_kneser_graphs(self):
        kg = build_matching_kneser(generate("cycle(5)"), 2)
        assert chromatic_number(kg)[0] == 3
        assert chromatic_number(build_kneser(5, 2))[0] == 3  # Kneser bound
        assert chromatic_number(build_kneser(6, 2))[0] == 4


class TestAgainstBrute:
    def test_random_graphs(self):
        rng = random.Random(7171)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 12), rng.random())
            chi, col = chromatic_number(g)
            assert chi == brute_chromatic(g)
            assert validate_coloring(g, col)

    def test_small_kneser_instances(self):
        cases = [("cycle(4)", 2), ("cycle(5)", 2), ("cycle(6)", 2),
                 ("cycle(6)", 3), ("complete(4)", 2),
                 ("disjoint_matching(4)", 2), ("disjoint_matching(4)", 3),
                 ("petersen", 5)]
        for name, r in cases:
            kg = build_matching_kneser(generate(name), r)
            chi, col = chromatic_number(kg)
            assert chi == brute_chromatic(kg), (name, r)
            assert validate_coloring(kg, col)


def _singletons(n):
    return [1 << v for v in range(n)]


def _first_leaf(masks, n):
    """(k, colors) of the DSATUR search's first leaf, chi's upper bound."""
    return _dsatur_bnb(masks, n, [], n + 1, [], n, first=True)


def _clique_search(kg, supports, per):
    """_lower_bound_clique's clique and the number of branch-and-bound
    nodes it visited (the calls of its nested rec, less the root)."""
    calls = 0

    def tracer(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if code.co_name == "rec" and code.co_filename == coloring.__file__:
            calls += 1

    sys.settrace(tracer)
    try:
        clique = _lower_bound_clique(kg.rows, kg.n, supports, per)
    finally:
        sys.settrace(None)
    return clique, calls - 1


class TestLowerBoundClique:
    def _instances(self):
        rng = random.Random(2718)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(4, 9), 0.3 + 0.7 * rng.random())
            for r in (2, 3):
                yield build_matching_kneser(g, r)
        for n in range(1, 10):
            for k in range(1, n + 1):
                yield build_kneser(n, k)

    def test_support_bound_is_exact(self):
        # the support prune cuts only subtrees that hold no larger
        # clique: the clique equals that of the vertex-count search
        # whenever the latter ends under the node cap, and it is a
        # maximum clique wherever omega is below the size cap
        compared = exact = 0
        for kg in self._instances():
            supports, per = _clique_supports(kg)
            assert per == kg.r
            clique, nodes = _clique_search(kg, supports, per)
            assert nodes < _CLIQUE_NODES
            old, old_nodes = _clique_search(kg, _singletons(kg.n), 1)
            if old_nodes < _CLIQUE_NODES:
                assert clique == old
                compared += 1
            omega = brute_clique_number(kg, _CLIQUE_CAP)
            if omega < _CLIQUE_CAP:
                assert len(clique) == omega
                exact += 1
            else:
                assert len(clique) >= _CLIQUE_CAP
            for i, v in enumerate(clique):
                assert all(kg.rows[v] >> w & 1 for w in clique[i + 1:])
        assert compared >= 80 and exact >= 80

    def test_plain_graph_gets_singletons(self):
        g = random_graph(random.Random(5), 9, 0.5)
        assert _clique_supports(g) == (_singletons(9), 1)

    def test_claim_workload_cliques(self):
        # the chi lower-bound clique of KG(G, rK2) for every connected
        # host with n <= 7 at r = 2 and r = 3, pinned before the support
        # prune replaced the vertex-count prune
        out = []
        for r in (2, 3):
            for g in load_fixture("connected_n7.g6"):
                kg = build_matching_kneser(g, r)
                out.append(_lower_bound_clique(kg.rows, kg.n,
                                               *_clique_supports(kg)))
        assert len(out) == 1992
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "63e8ea5175b2a4c320c67131c33c56be5598e596ccdccc77dd802aff1926e333")


class TestUpperBound:
    def test_claim_workload_colorings(self):
        # the DSATUR upper-bound coloring of KG(G, rK2) for every connected
        # host with n <= 7 and m(KG) > 0 at r = 2 and r = 3, pinned from
        # the one-pass greedy DSATUR that the first leaf replaced
        out = []
        for r in (2, 3):
            for g in load_fixture("connected_n7.g6"):
                kg = build_matching_kneser(g, r)
                if kg.m:
                    k, cols = _first_leaf(kg.rows, kg.n)
                    assert validate_coloring(kg, Coloring(tuple(cols), k))
                    out.append(cols)
        assert len(out) == 1779
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "ec0174e981ca77de8e5dce47fcf9679559dc378f2e068ef8a64da36a2c43e31d")


class TestEnginesAgree:
    # chi of random graphs too large for brute_chromatic, pinned while a
    # second exact engine (a cover by maximal independent sets) still
    # agreed with the DSATUR search on every one of them
    def test_dsatur_vs_cover(self):
        rng = random.Random(31337)
        got = []
        while len(got) < 25:
            g = random_graph(rng, rng.randrange(10, 22),
                             0.4 + 0.5 * rng.random())
            if g.m == 0:
                continue
            chi, col = chromatic_number(g)
            assert validate_coloring(g, col) and col.k == chi
            got.append(chi)
        assert got == [8, 9, 5, 8, 9, 7, 8, 8, 5, 8, 7, 6, 5, 7, 6, 5, 3,
                       4, 8, 6, 4, 7, 3, 8, 10]

    def test_dense_dispatch_still_exact(self):
        # the dense graph that once went to the cover engine: chi is the
        # pinned value, and a bare DSATUR search from the first leaf agrees
        g = random_graph(random.Random(555), 32, 0.6)
        chi, col = chromatic_number(g)
        assert chi == 8
        assert validate_coloring(g, col) and col.k == chi
        masks = g.rows
        clique = _lower_bound_clique(masks, g.n, *_clique_supports(g))
        ub, cols0 = _first_leaf(masks, g.n)
        k, _ = _dsatur_bnb(masks, g.n, clique, ub, cols0, 10**8)
        assert k == chi


def _outcome(engine, *args):
    """(k, colors) of a search, or the bounds it ran out of budget with."""
    try:
        k, cols = engine(*args)
    except BudgetExhausted as err:
        return "exhausted", err.lower_bound, err.upper_bound
    return "done", k, list(cols)


class TestSlowTwin:
    # the DSATUR search against its list-based twin in tests/helpers.py:
    # the same nodes in the same order give the same coloring, or run
    # out of budget at the same node with the same bounds.  Each search
    # starts from the first-leaf upper bound, as in chromatic_number,
    # and from no incumbent at all.
    BUDGETS = (1, 10, 100, 1000, 10**9)

    def _instances(self):
        rng = random.Random(4242)
        for _ in range(16):
            yield random_graph(rng, rng.randrange(12, 23),
                               0.3 + 0.55 * rng.random())
        for n, k in ((5, 2), (6, 2), (7, 2), (7, 3)):
            yield build_kneser(n, k)
        for name, r in (("cycle(7)", 2), ("complete(5)", 2),
                        ("complete(6)", 2), ("cycle(9)", 3)):
            yield build_matching_kneser(generate(name), r)

    def _starts(self, g):
        masks, n = g.rows, g.n
        first = _first_leaf(masks, n)
        assert first == ref_dsatur_bnb(masks, n, [], n + 1, [], n,
                                       first=True)
        clique = _lower_bound_clique(masks, n, *_clique_supports(g))
        for ub, cols0 in (first, (n + 1, [])):
            yield masks, n, clique, ub, cols0

    def test_dsatur_matches_twin(self):
        outcomes = []
        for g in self._instances():
            for masks, n, clique, ub, cols0 in self._starts(g):
                # with the clique colored up front, as chromatic_number
                # does, and with every vertex left to the search
                for pre in (clique, []):
                    for budget in self.BUDGETS:
                        args = (masks, n, pre, ub, cols0, budget)
                        got = _outcome(_dsatur_bnb, *args)
                        assert got == _outcome(ref_dsatur_bnb, *args), (
                            n, pre, ub, budget)
                        outcomes.append(got[0])
        assert outcomes.count("exhausted") >= 100
        assert outcomes.count("done") >= 200


class TestSearchFingerprint:
    def test_outcomes_pinned(self):
        # chi or the exhaustion bounds at three budgets, on a dense graph
        # (KG(K8, 2K2), 210 vertices: [14, 24], [14, 24], [14, 22]) and a
        # sparser one (Petersen at r = 3, 145 vertices).  The search
        # returns at a node whose colour count has reached the
        # incumbent's, so Petersen exhausts budgets 10^3 and 10^4 at
        # [5, 9], not [5, 10]
        out = []
        for name, r in (("complete(8)", 2), ("petersen", 3)):
            kg = build_matching_kneser(generate(name), r)
            for budget in (10**2, 10**3, 10**4):
                try:
                    chi, col = chromatic_number(kg, budget=budget)
                    out.append(("chi", chi, col.colors))
                except BudgetExhausted as err:
                    out.append(("exhausted", err.lower_bound,
                                err.upper_bound))
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "16659dcd826a7b7914831f7e2246e5e19a671900420c53021a8fe60ebb94f52f")


class TestBudget:
    def test_budget_exhausted_carries_bounds(self):
        with pytest.raises(BudgetExhausted) as ei:
            chromatic_number(generate("cycle(5)"), budget=0)
        err = ei.value
        assert err.budget == 0
        assert 0 < err.lower_bound <= 3 <= err.upper_bound
        assert "exhausted" in str(err)

    @pytest.mark.parametrize("budget", bad_counts(0))
    def test_rejects_non_int_budget(self, budget):
        with pytest.raises(ValueError, match="an int budget >= 0"):
            chromatic_number(generate("cycle(5)"), budget=budget)

    def test_big_budget_fine(self):
        chi, _ = chromatic_number(generate("petersen"), budget=10**6)
        assert chi == 3


class TestGreedyExColoring:
    def test_petersen_r5(self):
        g = generate("petersen")
        cert = ex_exact(g, 5)
        kg = build_matching_kneser(g, 5)
        col = greedy_ex_coloring(kg, cert)
        assert validate_coloring(kg, col)
        assert col.k <= g.m - cert.value

    def test_c5_r2(self):
        g = generate("cycle(5)")
        cert = ex_exact(g, 2)
        kg = build_matching_kneser(g, 2)
        col = greedy_ex_coloring(kg, cert)
        assert validate_coloring(kg, col)
        assert col.k <= g.m - cert.value
        assert chromatic_number(kg)[0] <= col.k

    def test_empty_kneser(self):
        g = generate("star(3)")
        cert = ex_exact(g, 2)  # all edges survive, nu = 1
        col = greedy_ex_coloring(build_matching_kneser(g, 2), cert)
        assert col.colors == () and col.k == 0

    def test_invalid_certificate_rejected(self):
        g = generate("cycle(5)")
        bogus = ExtremalCertificate(frozenset({0, 1, 2, 3, 4}), 5, 2)
        with pytest.raises(InvalidCertificateError) as ei:
            greedy_ex_coloring(build_matching_kneser(g, 2), bogus)
        w = ei.value.matching
        assert len(w) == 2
        u1, v1 = g.edges[w[0]]
        u2, v2 = g.edges[w[1]]
        assert not {u1, v1} & {u2, v2}
        # the witness the certificate check's backtracker finds first
        assert w == has_matching_of_size(g, 2, allowed=0b11111)

    def test_random_hosts_bound_holds(self):
        rng = random.Random(64)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(4, 8), 0.6)
            if g.m < 2:
                continue
            cert = ex_exact(g, 2)
            kg = build_matching_kneser(g, 2)
            col = greedy_ex_coloring(kg, cert)
            assert validate_coloring(kg, col)
            assert col.k <= g.m - cert.value
            if kg.n:
                assert chromatic_number(kg)[0] <= col.k


class TestStarTriangleBound:
    def test_matches_brute_force(self):
        rng = random.Random(2020)
        checked = 0
        while checked < 40:
            g = random_graph(rng, rng.randrange(4, 9), rng.random())
            if g.m > 12:
                continue
            checked += 1
            excess = brute_star_triangle_excess(g)
            for ex_value in range(g.m + 1):
                assert star_triangle_bound(g, ex_value) == (
                    excess < 3 * ex_value + 3), (g.edges, ex_value)

    def test_sound_on_connected_n7(self):
        # wherever the bound certifies chi >= rhs at r = 2, the search,
        # told nothing, finds chi = rhs
        hosts = load_fixture("connected_n7.g6")
        assert len(hosts) == 996
        certified = 0
        for g in hosts:
            ex_value = ex_exact(g, 2).value
            if not star_triangle_bound(g, ex_value):
                continue
            certified += 1
            kg = build_matching_kneser(g, 2)
            assert chromatic_number(kg)[0] == g.m - ex_value, g.edges
        assert certified == 859

    def test_complete_hosts(self):
        # K4 and K5 reach the target with their whole edge set:
        # 3 * 6 - 3 = 15 >= 3 * 3 + 3, and 3 * 10 - 15 = 15 >= 3 * 4 + 3
        for n in (4, 5):
            g = generate(f"complete({n})")
            assert not star_triangle_bound(g, n - 1)
        for n in range(6, 11):
            assert star_triangle_bound(generate(f"complete({n})"), n - 1)

    def test_node_caps_withhold_the_bound(self, monkeypatch):
        # KG(K6, 2K2) is certified after 298 nodes, not within 297, and
        # the search takes the smaller of budget and its own cap
        g = generate("complete(6)")
        assert star_triangle_bound(g, 5, budget=298)
        assert not star_triangle_bound(g, 5, budget=297)
        assert not star_triangle_bound(g, 5, budget=0)
        monkeypatch.setattr(coloring, "_STAR_TRIANGLE_NODES", 297)
        assert not star_triangle_bound(g, 5)

    @pytest.mark.parametrize("budget", bad_counts(0))
    def test_rejects_bad_budget(self, budget):
        with pytest.raises(ValueError, match="budget"):
            star_triangle_bound(generate("complete(6)"), 5, budget=budget)


class TestValidateColoring:
    def test_rejects_bad_witnesses(self):
        g = generate("cycle(4)")
        assert validate_coloring(g, Coloring((0, 1, 0, 1), 2))
        assert not validate_coloring(g, Coloring((0, 1, 0), 2))  # length
        assert not validate_coloring(g, Coloring((0, 2, 0, 2), 3))  # gap
        assert not validate_coloring(g, Coloring((0, 0, 1, 1), 2))  # improper
