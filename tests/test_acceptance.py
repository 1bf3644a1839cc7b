"""Acceptance gate: eight end-to-end criteria, each printing one
PASS/FAIL line (forced past pytest's capture so they show up in plain
runs).  All asserts are exact; the only tolerances are wall-clock
ceilings on the three expensive criteria."""

import random
import time
from contextlib import contextmanager

from helpers import (
    brute_chromatic,
    brute_colorable,
    brute_ex_multi,
    brute_matching_number,
    load_fixture,
    random_graph,
)
from mkg import (
    Coloring,
    ExtremalCertificate,
    build_kneser,
    build_matching_kneser,
    chromatic_number,
    enumerate_perfect_matchings,
    ex_exact,
    generate,
    matching_number,
    parse_graph6,
    perfect_matchings_pairwise_intersect,
    schonberger_check,
    validate_certificate,
    validate_coloring,
    verify_conjecture,
    write_graph6,
)
from mkg.edge_coloring import chromatic_index, is_snark


@contextmanager
def criterion(capsys, num):
    note = {"msg": ""}
    try:
        yield note
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {num}] FAIL {note['msg']}".rstrip())
        raise
    with capsys.disabled():
        print(f"\n[criterion {num}] PASS {note['msg']}".rstrip())


def test_criterion_1_petersen_counterexample(capsys):
    with criterion(capsys, 1) as note:
        t0 = time.monotonic()
        g = generate("petersen")
        rep = verify_conjecture(g, 5)
        assert rep.n == 10 and rep.m == 15 and rep.r == 5
        assert rep.num_r_matchings == 6
        assert rep.kneser_vertices == 6 and rep.kneser_edges == 0
        assert rep.chromatic_number == 1
        assert rep.ex_value == 12 and rep.rhs == 3
        assert rep.verdict == "counterexample"
        assert rep.is_snark is True
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        note["msg"] = f"petersen r=5: chi=1 rhs=3 in {elapsed:.2f}s"


def test_criterion_2_snark_corpus(capsys):
    with criterion(capsys, 2) as note:
        times = []
        for name, n, m in [("blanusa_1.g6", 18, 27), ("blanusa_2.g6", 18, 27),
                           ("flower_j5.g6", 20, 30)]:
            g = load_fixture(name)[0]
            assert g.n == n and g.m == m
            t0 = time.monotonic()
            rep = verify_conjecture(g, g.n // 2)
            elapsed = time.monotonic() - t0
            assert rep.is_snark is True
            assert rep.kneser_edges == 0 and rep.kneser_vertices > 0
            assert rep.chromatic_number == 1
            assert rep.ex_value == m - 3 and rep.rhs == 3
            assert rep.verdict == "counterexample"
            assert elapsed < 60.0, (name, elapsed)
            times.append(elapsed)
        note["msg"] = ("3 snarks, slowest "
                       f"{max(times):.2f}s (limit 60s each)")


def test_criterion_3_theorem_side_sweep(capsys):
    with criterion(capsys, 3) as note:
        t0 = time.monotonic()
        hosts = load_fixture("connected_n7.g6")
        assert len(hosts) == 996
        violations = []
        counterexamples = []
        for g in hosts:
            for r in (2, 3):
                rep = verify_conjecture(g, r)
                assert rep.verdict != "undecided"
                if rep.chromatic_number > rep.rhs:
                    violations.append((rep.graph6, r))
                if rep.verdict == "counterexample":
                    counterexamples.append((g, rep))
        assert violations == []
        # every reported inequality gets its certificate pair re-validated
        for g, rep in counterexamples:
            assert rep.chromatic_number < rep.rhs
            cert = ExtremalCertificate(
                frozenset(rep.certificates["extremal_edges"]),
                rep.ex_value, rep.r)
            assert validate_certificate(g, cert)
            kg = build_matching_kneser(g, rep.r)
            col = Coloring(tuple(rep.certificates["coloring"]),
                           rep.chromatic_number)
            assert validate_coloring(kg, col)
            # independent optimality check: chi-1 colors cannot suffice
            assert not brute_colorable(kg, rep.chromatic_number - 1)
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0
        note["msg"] = (f"996 hosts x r in (2,3): 0 violations of "
                       f"chi <= m - ex, {len(counterexamples)} equality "
                       f"failures re-validated, {elapsed:.1f}s (limit 600s)")


def test_criterion_4_equality_spot_checks(capsys):
    with criterion(capsys, 4) as note:
        for name, want in [("cycle(5)", 3), ("star(3)", 0), ("complete(4)", 3)]:
            g = generate(name)
            rep = verify_conjecture(g, 2)
            assert rep.chromatic_number == want and rep.rhs == want, name
            assert rep.verdict == "holds"
        note["msg"] = "cycle(5)=3, star(3)=0, complete(4)=3 at r=2"


def test_criterion_5_kneser_isomorphism(capsys):
    with criterion(capsys, 5) as note:
        pairs = 0
        for n in range(1, 9):
            for r in range(1, 5):
                a = build_matching_kneser(generate(f"disjoint_matching({n})"),
                                          r)
                b = build_kneser(n, r)
                # both routes list the r-subsets in the same order, so the
                # isomorphism is the identity: equal labels, equal rows
                assert a.vertices == b.vertices, (n, r)
                assert a.rows == b.rows, (n, r)
                pairs += 1
        note["msg"] = (f"all n <= 8, r <= 4: {pairs} pairs with equal "
                       "vertices and rows")


def test_criterion_6_oracle_suites(capsys):
    with criterion(capsys, 6) as note:
        rng = random.Random(20240601)
        for _ in range(200):
            g = random_graph(rng, rng.randrange(0, 13), rng.random())
            assert matching_number(g) == brute_matching_number(g)

        fixture_names = ["petersen.g6", "flower_j5.g6", "blanusa_1.g6",
                         "blanusa_2.g6", "cubic_bridgeless_n14.g6",
                         "connected_n7.g6"]
        ex_checked = 0
        small_hosts = []
        for name in fixture_names:
            for g in load_fixture(name):
                if g.m <= 16:
                    small_hosts.append(g)
        for g in small_hosts:
            want = brute_ex_multi(g, (2, 3))
            for r in (2, 3):
                assert ex_exact(g, r).value == want[r], write_graph6(g)
                ex_checked += 1

        chi_checked = 0
        hosts = ([generate(s) for s in
                  ("cycle(4)", "cycle(5)", "cycle(6)", "complete(4)",
                   "star(3)", "disjoint_matching(4)", "petersen")]
                 + load_fixture("connected_n7.g6"))
        for g in hosts:
            for r in (2, 3, 5):
                if 2 * r > g.n:
                    continue
                kg = build_matching_kneser(g, r)
                if kg.n > 12:
                    continue
                chi, col = chromatic_number(kg)
                assert chi == brute_chromatic(kg), (write_graph6(g), r)
                assert validate_coloring(kg, col)
                chi_checked += 1
        assert chi_checked > 100  # the population is not accidentally empty
        note["msg"] = (f"200 matching, {ex_checked} ex (m <= 16), "
                       f"{chi_checked} chromatic (KG <= 12 vertices): "
                       "0 mismatches")


def test_criterion_7_empirical_theorem_checks(capsys):
    with criterion(capsys, 7) as note:
        corpus = load_fixture("cubic_bridgeless_n14.g6")
        assert len(corpus) == 15
        class_two = 0
        for g in corpus:
            assert g.n <= 14
            assert enumerate_perfect_matchings(g), write_graph6(g)
            ok, pair = schonberger_check(g)
            assert ok and pair is None, write_graph6(g)
            if chromatic_index(g).chromatic_index == 4:
                class_two += 1
                assert perfect_matchings_pairwise_intersect(g)
        for name in ("flower_j5.g6", "blanusa_1.g6", "blanusa_2.g6"):
            g = load_fixture(name)[0]
            assert is_snark(g)[0]
            assert perfect_matchings_pairwise_intersect(g)
            class_two += 1
        note["msg"] = (f"15 cubic fixtures pass PM + pair checks; "
                       f"{class_two} class-two fixtures all intersecting")


def test_criterion_8_graph6_round_trip(capsys):
    with criterion(capsys, 8) as note:
        rng = random.Random(62)
        for i in range(1000):
            n = rng.randrange(0, 63)
            g = random_graph(rng, n, rng.random())
            line = write_graph6(g)
            back = parse_graph6(line)
            assert back == g
            assert write_graph6(back) == line  # byte-identical re-encode
        note["msg"] = "1000 random graphs n <= 62 byte-identical"
