import hashlib
import random
import sys
from math import comb

import pytest

import helpers
import mkg.extremal
import mkg.matchings
from helpers import (
    bad_counts,
    brute_ex,
    brute_ex_keep_first,
    brute_ex_multi,
    load_fixture,
    random_graph,
    ref_ex_exact,
    run_fresh,
)
from mkg import (
    ExtremalCertificate,
    Graph,
    enumerate_matchings,
    ex_exact,
    generate,
    matching_number,
    star_removal_bound,
    validate_certificate,
)
from mkg.extremal import _degree_cap


class TestStarRemoval:
    def test_petersen(self):
        cert = star_removal_bound(generate("petersen"), 5)
        assert cert is not None and cert.value == 12
        assert validate_certificate(generate("petersen"), cert)

    def test_only_half_order(self):
        assert star_removal_bound(generate("petersen"), 4) is None
        assert star_removal_bound(generate("cycle(5)"), 2) is None

    def test_picks_lowest_min_degree_vertex(self):
        g = generate("star(3)")  # n=4, r=2: min degree vertex is leaf 1
        cert = star_removal_bound(g, 2)
        assert cert.value == g.m - 1
        assert cert.edges == frozenset({1, 2})  # edge 0 = (0,1) dropped

    def test_value_is_m_minus_mindeg(self):
        rng = random.Random(40)
        for _ in range(40):
            n = 2 * rng.randrange(2, 6)
            g = random_graph(rng, n, 0.7)
            cert = star_removal_bound(g, n // 2)
            mind = min(g.degree(v) for v in range(n))
            assert cert.value == g.m - mind
            assert validate_certificate(g, cert)


class TestExExact:
    def test_examples(self):
        assert ex_exact(generate("petersen"), 5).value == 12
        assert ex_exact(generate("cycle(5)"), 2).value == 2
        assert ex_exact(generate("star(3)"), 2).value == 3
        assert ex_exact(generate("complete(4)"), 2).value == 3

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            ex_exact(generate("cycle(5)"), 0)

    @pytest.mark.parametrize("r", bad_counts(1))
    def test_rejects_non_int_r(self, r):
        # True used to give a certificate with r=True, 2.5 a TypeError,
        # and star_removal_bound(petersen, 5.0) a certificate with r=5.0
        for call in (ex_exact, star_removal_bound):
            with pytest.raises(ValueError, match="an int r >= 1"):
                call(generate("petersen"), r)

    def test_against_brute_random(self):
        rng = random.Random(616)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(2, 8), rng.random())
            if g.m == 0 or g.m > 12:
                continue
            for r in (1, 2, 3):
                cert = ex_exact(g, r)
                assert cert.value == brute_ex(g, r), (g.edges, r)
                assert validate_certificate(g, cert)

    def test_against_brute_fixtures(self):
        small = [g for g in load_fixture("cubic_bridgeless_n14.g6")
                 if g.m <= 16]
        for g in small:
            for r in (1, 2, 3):
                cert = ex_exact(g, r)
                assert cert.value == brute_ex(g, r)
                assert validate_certificate(g, cert)

    def test_r_one_is_zero(self):
        # a 1-matching is a single edge, so nothing can be kept
        assert ex_exact(generate("petersen"), 1).value == 0
        assert ex_exact(generate("complete(5)"), 1).value == 0

    def test_r_above_nu_keeps_everything(self):
        g = generate("cycle(5)")
        cert = ex_exact(g, 3)  # nu(C5) = 2
        assert cert.value == g.m and cert.edges == frozenset(range(g.m))

    def test_monotone_in_r(self):
        rng = random.Random(2)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(3, 8), 0.6)
            vals = [ex_exact(g, r).value for r in (1, 2, 3)]
            assert vals == sorted(vals)

    def test_star_seed_returned_when_optimal(self):
        # on snarks the star bound is tight; first-optimum rule keeps it
        for name in ("petersen.g6", "blanusa_1.g6", "blanusa_2.g6"):
            g = load_fixture(name)[0]
            r = g.n // 2
            seed = star_removal_bound(g, r)
            cert = ex_exact(g, r)
            assert cert.value == seed.value
            assert cert.edges == seed.edges

    def test_deterministic(self):
        g = generate("cycle(5)")
        a = ex_exact(g, 2)
        b = ex_exact(g, 2)
        assert a == b
        # the first leaf, {0,1}, is already optimal for C5, r=2
        assert a.edges == frozenset({0, 1})

    def test_ties_go_to_the_keep_first_optimum(self):
        # with no star seed (n != 2r) the search keeps edges first and only
        # replaces its incumbent on a strict gain, so of the optimal sets
        # it returns the one whose indicator vector, edge 0 first, is
        # lexicographically greatest; report bytes depend on this choice
        rng = random.Random(1717)
        checked = 0
        for _ in range(300):
            g = random_graph(rng, rng.randrange(2, 8), rng.random())
            if g.m == 0 or g.m > 12:
                continue
            for r in (1, 2, 3):
                if g.n == 2 * r:
                    continue
                checked += 1
                assert ex_exact(g, r).edges == brute_ex_keep_first(g, r), (
                    g.edges, r)
        assert checked >= 500

    def test_near_perfect_against_brute(self, monkeypatch):
        # r at or just below floor(n/2): the kept sets run deep and nearly
        # saturated, so keeping an edge mostly needs the augmenting-path
        # search (blossoms included), not the both-ends-free shortcut
        augmented = []
        augment = mkg.extremal._augment

        def spy(*args):
            grown = augment(*args)
            augmented.append(grown)
            return grown

        monkeypatch.setattr(mkg.extremal, "_augment", spy)
        rng = random.Random(2468)
        hosts = []
        while len(hosts) < 120:
            n = rng.randrange(4, 11)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            if 0 < g.m <= 14:
                hosts.append((g, (n // 2, n // 2 - 1)))
        hosts += [(generate(f"cycle({n})"), (n // 2,))
                  for n in range(3, 16, 2)]
        cubic = load_fixture("cubic_bridgeless_n14.g6") + load_fixture(
            "petersen.g6")
        hosts += [(g, (g.n // 2,)) for g in cubic if g.m <= 15]
        for g, rs in hosts:
            want = brute_ex_multi(g, [r for r in rs if r >= 1])
            for r, value in want.items():
                cert = ex_exact(g, r)
                assert cert.value == value, (g.edges, r)
                assert validate_certificate(g, cert)
        assert augmented.count(True) >= 1000
        assert augmented.count(False) >= 1000

    def test_against_reference_search_random(self):
        # the forced-deletion count and the degree cap only cut subtrees
        # with no strictly better leaf, so the pruned search must return
        # the very set the room-only search returns
        rng = random.Random(8080)
        cases = 0
        while cases < 2000:
            n = rng.randrange(1, 11)
            g = random_graph(rng, n, rng.random())
            if g.m > 18:
                continue
            for r in range(1, n // 2 + 2):  # n = 2r: the star seed
                cert = ex_exact(g, r)
                assert (cert.edges, cert.value) == ref_ex_exact(g, r), (
                    g.edges, r)
                cases += 1

    def test_against_reference_search_fixtures(self):
        for name in ("petersen.g6", "blanusa_1.g6", "blanusa_2.g6",
                     "flower_j5.g6", "cubic_bridgeless_n14.g6",
                     "connected_n7.g6"):
            for g in load_fixture(name):
                for r in {2, 3, g.n // 2} - {0}:
                    cert = ex_exact(g, r)
                    assert (cert.edges, cert.value) == ref_ex_exact(g, r), (
                        name, g.edges, r)

    def test_prunes_cut_the_blossom_searches(self, monkeypatch):
        # both bounds beyond room must fire: at r = 2 the degree cap ends
        # these searches soon after their first leaf, at r = 3 the forced
        # deletions do most of the cutting
        calls = {"search": 0, "reference": 0}

        def spy(key, augment):
            def counted(*args):
                calls[key] += 1
                return augment(*args)
            return counted

        monkeypatch.setattr(mkg.extremal, "_augment",
                            spy("search", mkg.extremal._augment))
        monkeypatch.setattr(helpers, "_augment",
                            spy("reference", helpers._augment))
        hosts = [load_fixture(name)[0]
                 for name in ("petersen.g6", "blanusa_1.g6", "flower_j5.g6")]
        for r in (2, 3):
            calls.update(search=0, reference=0)
            for g in hosts:
                ex_exact(g, r)
                ref_ex_exact(g, r)
            assert 4 * calls["search"] < calls["reference"], (r, calls)

    def test_claim_workload_certificates(self):
        # the certificate of every connected host with n <= 7 at r = 2
        # and r = 3, pinned before the forced-deletion count and the
        # degree cap joined the room prune
        out = []
        for r in (2, 3):
            for g in load_fixture("connected_n7.g6"):
                cert = ex_exact(g, r)
                out.append((sorted(cert.edges), cert.value))
        assert len(out) == 1992
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "011c4c40d516512adc7e6944029e3b271036d429c8a482a405e2f4ae308c5be1")

    def test_certificate_subgraph_nu(self):
        rng = random.Random(5150)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(3, 8), 0.7)
            for r in (2, 3):
                cert = ex_exact(g, r)
                sub = Graph(g.n, [g.edges[e] for e in cert.edges])
                assert matching_number(sub) <= r - 1


def _branch_and_bound_only(monkeypatch, g, r):
    """ex_exact with the seed proof switched off: the branch and bound
    alone, seeded with the star as before."""
    with monkeypatch.context() as patched:
        patched.setattr(mkg.extremal, "_seed_is_optimal",
                        lambda *args: False)
        return ex_exact(g, r)


class TestSeedProof:
    """At n = 2r, ex_exact proves the star seed optimal by a hitting
    search over perfect matchings before any branch and bound; it must
    return what the branch and bound alone returns."""

    def test_against_reference_random(self):
        rng = random.Random(2222)
        seen = {"isolated": 0, "no perfect matching": 0, "seed beaten": 0}
        hosts = 0
        while hosts < 2000:
            n = 2 * rng.randrange(1, 6)
            g = random_graph(rng, n, rng.random())
            if g.m > 18:
                continue
            hosts += 1
            r = n // 2
            cert = ex_exact(g, r)
            assert (cert.edges, cert.value) == ref_ex_exact(g, r), g.edges
            seen["isolated"] += min(g.degree(v) for v in range(n)) == 0
            seen["no perfect matching"] += matching_number(g) < r
            seen["seed beaten"] += (
                cert.value > star_removal_bound(g, r).value)
        assert min(seen.values()) >= 50, seen

    def test_against_twins(self, monkeypatch):
        # every fixture graph of even order, K_2r and flower snarks at
        # r = n/2; the room-only reference search on K8 at r = 4 already
        # takes a second, so it checks the complete graphs up to K6
        hosts = [g for path in sorted(helpers.FIXTURES.glob("*.g6"))
                 for g in load_fixture(path.name) if g.n % 2 == 0 and g.n]
        hosts += [generate(f"flower({k})") for k in range(3, 8)]
        complete = [generate(f"complete({2 * r})") for r in range(1, 6)]
        for g in hosts + complete:
            r = g.n // 2
            cert = ex_exact(g, r)
            assert cert == _branch_and_bound_only(monkeypatch, g, r), g
            if g not in complete or r <= 3:
                assert (cert.edges, cert.value) == ref_ex_exact(g, r), g
            assert validate_certificate(g, cert)
        assert len(hosts) == 143

    def test_complete_graphs_meet_erdos_gallai(self):
        # ex(K_2r, rK2) = max{C(2r-1, 2), C(r-1, 2) + (r-1)(r+1)}
        for r in range(1, 8):
            cert = ex_exact(generate(f"complete({2 * r})"), r)
            want = max(comb(2 * r - 1, 2), comb(r - 1, 2) + (r - 1) * (r + 1))
            assert cert.value == want, r

    def test_hitting_search_nodes_on_flower_j9(self, monkeypatch):
        # J9 at r = 18: no two edges meet every perfect matching, and the
        # hitting search proves it in at most r + r^2 nodes, one per
        # deletion tried under a node of depth below d = 2
        nodes = 0
        hits = mkg.extremal._hits

        def counted(*args):
            nonlocal nodes
            nodes += 1
            return hits(*args)

        monkeypatch.setattr(mkg.extremal, "_hits", counted)
        g = generate("flower(9)")
        r = g.n // 2
        cert = ex_exact(g, r)
        assert cert == star_removal_bound(g, r)
        assert 0 < nodes <= r + r * r

    def test_reads_a_passed_listing(self, monkeypatch):
        # the verifier hands ex_exact the Kneser build's listing; with
        # it the seed proof lists nothing itself
        hosts = [g for path in sorted(helpers.FIXTURES.glob("*.g6"))
                 for g in load_fixture(path.name) if g.n % 2 == 0 and g.n]
        hosts += [generate(f"flower({k})") for k in range(3, 10)]
        for g in hosts:
            r = g.n // 2
            listed = enumerate_matchings(g, r)
            with monkeypatch.context() as patched:
                patched.setattr(mkg.extremal, "enumerate_matchings", None)
                cert = ex_exact(g, r, matchings=listed)
            assert cert == _branch_and_bound_only(monkeypatch, g, r), g


class TestDegreeCap:
    def test_erdos_gallai_on_complete_graphs(self):
        # on K_n with n >= 2k+1 the cap is exactly ex(K_n, (k+1)K2),
        # max{C(2k+1, 2), C(k, 2) + k(n-k)} (Erdos-Gallai 1959)
        for n in range(1, 16):
            for k in range((n - 1) // 2 + 1):
                want = max(comb(2 * k + 1, 2), comb(k, 2) + k * (n - k))
                assert _degree_cap([n - 1] * n, k) == want, (n, k)

    def test_bounds_ex_from_above(self):
        rng = random.Random(4242)
        for _ in range(150):
            n = rng.randrange(1, 9)
            g = random_graph(rng, n, rng.random())
            if g.m > 14:
                continue
            degs = [g.degree(v) for v in range(n)]
            exs = brute_ex_multi(g, range(1, n // 2 + 2))
            for r, value in exs.items():
                assert _degree_cap(degs, r - 1) >= value, (g.edges, r)

    def test_tight_at_a_middle_s(self):
        # a hub of degree 9 and a disjoint triangle, nu = 2: at k = 2 the
        # maximum sits at s = 1, the hub's 9 edges plus a triangle's 3
        g = Graph(13, [(0, v) for v in range(1, 10)]
                  + [(10, 11), (10, 12), (11, 12)])
        degs = [g.degree(v) for v in range(g.n)]
        assert _degree_cap(degs, 2) == brute_ex(g, 3) == 12

    def test_isolated_vertices_do_not_count(self):
        # K10 and five isolated vertices, k = 2: the two top vertices
        # touch at most C(2, 2) + 2 * 8 = 17 edges, not 1 + 2 * 13
        assert _degree_cap([9] * 10 + [0] * 5, 2) == 17


class TestValidateCertificate:
    def test_accepts_good(self):
        g = generate("petersen")
        assert validate_certificate(g, ex_exact(g, 5))

    def test_rejects_bad(self):
        g = generate("cycle(5)")
        assert not validate_certificate(
            g, ExtremalCertificate(frozenset({0, 1}), 3, 2))  # value mismatch
        assert not validate_certificate(
            g, ExtremalCertificate(frozenset({0, 9}), 2, 2))  # out of range
        assert not validate_certificate(
            g, ExtremalCertificate(frozenset(range(5)), 5, 2))  # has 2-matching
        # malformed counts answer False: r = 2.0 used to raise ValueError
        # from the matching search, edge 2.5 a TypeError, and edge True
        # counted as edge 1; edges [1, 1, 3] used to be summed into the
        # mask of edges 2 and 3 and pass as a value of 3 > ex(C5, 2K2)
        for cert in (ExtremalCertificate(frozenset({0}), 1, 2.0),
                     ExtremalCertificate(frozenset({2.5}), 1, 2),
                     ExtremalCertificate(frozenset({True}), 1, 2),
                     ExtremalCertificate([1, 1, 3], 3, 2)):
            assert validate_certificate(g, cert) is False

    def test_recheck_is_independent_of_the_search(self, monkeypatch):
        # the search grows matchings with the blossom search; the re-check
        # must reach its verdict without it
        g = generate("petersen")
        cert = ex_exact(g, 5)

        def fail(*args):
            raise AssertionError("the re-check ran the blossom search")

        monkeypatch.setattr(mkg.matchings, "_augment", fail)
        monkeypatch.setattr(mkg.extremal, "_augment", fail)
        assert validate_certificate(g, cert)
        assert not validate_certificate(
            g, ExtremalCertificate(frozenset(range(g.m)), g.m, 5))


def test_deep_star_at_default_recursion_limit():
    # one frame per edge: 1,100 edges nest deeper than the default limit,
    # which a fresh interpreter starts at
    code = ("from mkg import ex_exact, star, validate_certificate\n"
            "g = star(1100)\n"
            "cert = ex_exact(g, 2)\n"
            "print(cert.value, validate_certificate(g, cert))\n")
    proc = run_fresh([sys.executable, "-c", code])
    assert (proc.returncode, proc.stdout.decode()) == (0, "1100 True\n"), \
        proc.stderr.decode()
