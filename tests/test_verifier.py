import hashlib
import json
import random

import pytest

import mkg.verifier
from helpers import FIXTURES, bad_counts, load_fixture, random_graph
from mkg import (
    ConjectureReport,
    Graph,
    ScanError,
    build_matching_kneser,
    chromatic_number,
    complete,
    cycle,
    disjoint_matching,
    flower,
    is_snark,
    petersen,
    report_from_json,
    report_to_json,
    scan_catalog,
    scan_lines,
    star,
    verify_conjecture,
    write_graph6,
)
from mkg.verifier import (
    VERDICT_COUNTEREXAMPLE,
    VERDICT_HOLDS,
    VERDICT_NOT_CONNECTED,
    VERDICT_OUT_OF_SCOPE,
    VERDICT_UNDECIDED,
    parse_r_policy,
    scan_error_to_json,
    skipped_report,
)


class TestVerifyConjecture:
    def test_petersen_counterexample(self):
        g = petersen()
        rep = verify_conjecture(g, 5)
        assert rep.verdict == VERDICT_COUNTEREXAMPLE
        assert rep.n == 10 and rep.m == 15 and rep.r == 5
        assert rep.num_r_matchings == 6 == rep.kneser_vertices
        assert rep.kneser_edges == 0
        assert rep.chromatic_number == 1
        assert rep.ex_value == 12 and rep.rhs == 3
        assert rep.is_snark
        assert rep.certificates["pairwise_intersect"] is True
        assert len(rep.certificates["extremal_edges"]) == 12
        assert rep.certificates["coloring"] == [0] * 6

    def test_c5_holds(self):
        rep = verify_conjecture(cycle(5), 2)
        assert rep.verdict == VERDICT_HOLDS
        assert rep.chromatic_number == 3 and rep.rhs == 3
        assert not rep.is_snark
        assert "pairwise_intersect" not in rep.certificates

    def test_empty_kneser_holds(self):
        rep = verify_conjecture(star(3), 2)
        assert rep.verdict == VERDICT_HOLDS
        assert rep.chromatic_number == 0 and rep.rhs == 0
        assert rep.kneser_vertices == 0

    def test_rhs_identity(self):
        rng = random.Random(1234)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(2, 8), 0.5)
            rep = verify_conjecture(g, 2)
            assert rep.rhs == rep.m - rep.ex_value
            assert rep.graph6 == write_graph6(g)

    def test_theorem_side_never_violated(self):
        # chi <= rhs is proved; equality may fail but the bound cannot
        rng = random.Random(4321)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(2, 8), 0.6)
            rep = verify_conjecture(g, 2)
            assert rep.chromatic_number <= rep.rhs

    def test_not_connected(self):
        rep = verify_conjecture(disjoint_matching(3), 2)
        assert rep.verdict == VERDICT_NOT_CONNECTED
        # sides still computed: any two 2-subsets of 3 edges intersect,
        # so the KG is 3 isolated vertices
        assert rep.kneser_vertices == 3 and rep.kneser_edges == 0
        assert rep.chromatic_number == 1

    def test_r_one_out_of_scope(self):
        g = cycle(5)
        rep = verify_conjecture(g, 1)
        assert rep.verdict == VERDICT_OUT_OF_SCOPE
        # KG(G, 1K2) is the complete graph on m vertices
        assert rep.chromatic_number == g.m
        assert rep.ex_value == 0 and rep.rhs == g.m

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            verify_conjecture(cycle(5), 0)

    @pytest.mark.parametrize("r", bad_counts(1))
    def test_rejects_non_int_r(self, r):
        # True would run as r = 1 and write "r":true; 2.5 used to fail
        # with IndexError deep in the matching search
        with pytest.raises(ValueError, match="an int r >= 1"):
            verify_conjecture(petersen(), r)

    @pytest.mark.parametrize("budget", bad_counts(0) + ["x"])
    def test_rejects_non_int_budget_before_any_search(self, budget,
                                                      monkeypatch):
        # "x" used to run the Kneser build, ex and the snark test and then
        # fail with TypeError inside chi
        builds = []
        real = mkg.verifier.build_matching_kneser
        monkeypatch.setattr(mkg.verifier, "build_matching_kneser",
                            lambda g, r: builds.append(r) or real(g, r))
        with pytest.raises(ValueError, match="an int budget >= 0"):
            verify_conjecture(complete(6), 2, budget=budget)
        assert builds == []

    def test_rejects_host_past_graph6_before_any_search(self, monkeypatch):
        # a 64-vertex host used to search for seconds and only then fail
        # in write_graph6 when the report was built
        builds = []
        real = mkg.verifier.build_matching_kneser
        monkeypatch.setattr(mkg.verifier, "build_matching_kneser",
                            lambda g, r: builds.append(r) or real(g, r))
        with pytest.raises(ValueError, match="requires n <= 62"):
            verify_conjecture(cycle(64), 2)
        assert builds == []

    def test_undecided_on_tiny_budget(self):
        rep = verify_conjecture(complete(7), 2, budget=3)
        assert rep.verdict == VERDICT_UNDECIDED
        assert rep.chromatic_number == -1
        lo, hi = rep.certificates["chi_bounds"]
        assert 0 < lo <= hi
        assert rep.certificates["coloring"] == []

    def test_complete_hosts_at_r2_hold(self):
        # the star-triangle count proves chi >= rhs for K6-K10, so the
        # greedy rhs-coloring is returned; chi(KG(Kn, 2K2)) = C(n-1, 2)
        for n in range(6, 11):
            rep = verify_conjecture(complete(n), 2)
            assert rep.verdict == VERDICT_HOLDS
            assert rep.chromatic_number == rep.rhs == (n - 1) * (n - 2) // 2

    def test_search_runs_only_where_the_bound_fails(self, monkeypatch):
        calls = []
        real = mkg.verifier.chromatic_number

        def spy(kg, budget):
            calls.append((kg.base.n, kg.r, budget))
            return real(kg, budget=budget)

        monkeypatch.setattr(mkg.verifier, "chromatic_number", spy)
        for n, r, budget in ((5, 2, 10**5), (6, 2, 10**5), (6, 2, 297),
                             (6, 3, 10**5)):
            verify_conjecture(complete(n), r, budget=budget)
        # K5 is not certified; K6 is, but not within 297 nodes (its
        # search then ends undecided); r = 3 is out of the bound's reach
        assert calls == [(5, 2, 10**5), (6, 2, 297), (6, 3, 10**5)]

    def test_flower_j7_minus_a_vertex_holds(self):
        # KG(J7 - v, 13K2): 720 vertices, 4,192 edges.  DSATUR starts
        # from a 4-colouring and soon meets a 3-colouring; it must then
        # return at every open node that already uses 3 colours, since
        # searching below them takes more than 10^5 nodes
        f = flower(7)
        g = Graph(f.n - 1, [(a - 1, b - 1) for a, b in f.edges if a > 0])
        rep = verify_conjecture(g, 13)
        assert (rep.kneser_vertices, rep.kneser_edges) == (720, 4192)
        assert rep.verdict == VERDICT_HOLDS
        assert rep.chromatic_number == rep.rhs == 3

    def test_k7_at_r3_holds_within_1e5_nodes(self):
        # KG(K7, 3K2): 105 vertices, clique 7, rhs 10; the chi search
        # proves 10 colours optimal within 10^5 nodes
        rep = verify_conjecture(complete(7), 3, budget=10**5)
        assert rep.verdict == VERDICT_HOLDS
        assert rep.chromatic_number == rep.rhs == 10

    def test_snark_fixtures(self):
        for name in ("flower_j5.g6", "blanusa_1.g6", "blanusa_2.g6"):
            g = load_fixture(name)[0]
            rep = verify_conjecture(g, g.n // 2)
            assert rep.verdict == VERDICT_COUNTEREXAMPLE
            assert rep.chromatic_number == 1 and rep.rhs == 3
            assert rep.is_snark
            assert rep.certificates["pairwise_intersect"] is True


class TestSkippedReport:
    def test_fields(self):
        g = cycle(5)
        rep = skipped_report(g)
        assert rep.verdict == VERDICT_OUT_OF_SCOPE
        assert rep.r == 0 and rep.chromatic_number == 0
        assert rep.rhs == rep.m - rep.ex_value == g.m
        assert not rep.is_snark

    def test_never_a_snark(self):
        # skipped_report writes is_snark=False without a search; is_snark
        # must agree on every host the half-order policy skips
        hosts = [g for g in load_fixture("connected_n7.g6") if g.n % 2]
        assert len(hosts) == 877
        for g in hosts + [Graph(0, [])]:
            assert skipped_report(g).is_snark == is_snark(g)[0]


class TestScan:
    def test_order_and_errors(self):
        lines = [
            write_graph6(cycle(5)),
            "",
            "!!notgraph6",
            write_graph6(petersen()),
        ]
        out = list(scan_lines(lines, 2))
        assert len(out) == 3
        assert isinstance(out[0], ConjectureReport) and out[0].n == 5
        assert isinstance(out[1], ScanError) and out[1].line == 3
        assert isinstance(out[2], ConjectureReport) and out[2].n == 10
        assert out[2].verdict == VERDICT_HOLDS  # r=2 on Petersen holds

    def test_half_order_policy(self):
        lines = [write_graph6(cycle(5)),
                 write_graph6(cycle(6))]
        out = list(scan_lines(lines, "half-order"))
        assert out[0].verdict == VERDICT_OUT_OF_SCOPE and out[0].r == 0
        assert out[1].r == 3

    def test_streams_its_input(self):
        pulled = []

        def lines():
            for n in (4, 5):
                pulled.append(n)
                yield write_graph6(cycle(n))

        out = scan_lines(lines(), 2)
        assert next(out).n == 4 and pulled == [4]
        assert next(out).n == 5 and pulled == [4, 5]

    def test_scan_catalog(self, tmp_path):
        path = tmp_path / "cat.g6"
        path.write_bytes(write_graph6(cycle(4)).encode() + b"\n\n"
                         + b"D\xc3\xa9\n"
                         + write_graph6(cycle(5)).encode() + b"\n")
        out = list(scan_catalog(path, 2))
        assert [rep.n for rep in out if not isinstance(rep, ScanError)] == [4, 5]
        assert isinstance(out[1], ScanError) and out[1].line == 3
        assert out[1].error.startswith("non-ASCII character")

    def test_bad_fixed_r(self):
        with pytest.raises(ValueError):
            list(scan_lines(["A_"], 0))

    @pytest.mark.parametrize("catalog", [
        [write_graph6(cycle(4)),
         write_graph6(cycle(5))],
        ["!!notgraph6", "~"],
    ], ids=["parsable", "unparsable"])
    @pytest.mark.parametrize("policy", [2.5, True, 0, -1, "two", None])
    def test_bad_policy_raises_before_any_line(self, catalog, policy):
        pulled = []

        def lines():
            for line in catalog:
                pulled.append(line)
                yield line

        with pytest.raises(ValueError):
            next(scan_lines(lines(), policy))
        assert pulled == []

    @pytest.mark.parametrize("budget", bad_counts(0))
    def test_bad_budget_raises_before_any_line(self, budget, tmp_path):
        pulled = []

        def lines():
            for g in (cycle(4), cycle(5)):
                pulled.append(g)
                yield write_graph6(g)

        with pytest.raises(ValueError, match="an int budget >= 0"):
            next(scan_lines(lines(), 2, budget=budget))
        assert pulled == []
        path = tmp_path / "c.g6"
        path.write_text(write_graph6(cycle(4)) + "\n")
        with pytest.raises(ValueError, match="an int budget >= 0"):
            next(scan_catalog(path, 2, budget=budget))

    def test_parse_r_policy(self):
        assert parse_r_policy(3) == parse_r_policy("3") == 3
        assert parse_r_policy("half-order") == "half-order"
        # only ASCII digits: int() would take all of these
        for text in ("1_0", "+3", " 2 ", "2\n", "\u0663"):
            with pytest.raises(ValueError):
                parse_r_policy(text)


class TestSelfCheck:
    def test_improper_coloring_raises(self, monkeypatch):
        from mkg import Coloring
        import mkg.verifier as verifier

        def one_color(kg, budget):
            return 1, Coloring((0,) * kg.n, 1)

        monkeypatch.setattr(verifier, "chromatic_number", one_color)
        with pytest.raises(verifier.SelfCheckError):
            verify_conjecture(cycle(5), 2)  # KG is a 5-cycle
        # an edgeless Kneser graph really is 1-colorable
        assert verify_conjecture(petersen(), 5).chromatic_number == 1

    def test_chi_above_rhs_raises(self, monkeypatch):
        from mkg import Coloring, validate_coloring
        import mkg.verifier as verifier

        # a proper 4-coloring of KG(C5, 2K2), whose rhs is 3: without the
        # theorem check it reads as a counterexample
        four = Coloring((0, 0, 1, 2, 3), 4)
        g = cycle(5)
        assert validate_coloring(build_matching_kneser(g, 2), four)
        monkeypatch.setattr(verifier, "chromatic_number",
                            lambda kg, budget: (4, four))
        with pytest.raises(verifier.SelfCheckError, match="rhs = 3"):
            verify_conjecture(g, 2)

    def test_lower_bound_above_rhs_raises(self, monkeypatch):
        from mkg import BudgetExhausted
        import mkg.verifier as verifier

        def stuck(kg, budget):
            raise BudgetExhausted(4, 5, budget)

        monkeypatch.setattr(verifier, "chromatic_number", stuck)
        with pytest.raises(verifier.SelfCheckError, match="at least 4"):
            verify_conjecture(cycle(5), 2)

    def test_coloring_below_the_bound_raises(self, monkeypatch):
        from mkg import Coloring
        import mkg.verifier as verifier

        # KG(K6, 2K2) is certified chi >= rhs = 10; a 9-coloring (the
        # theorem's with its last class merged into the first) refutes
        # that, and no verdict may rest on it
        real = verifier.greedy_ex_coloring

        def merged(kg, cert):
            col = real(kg, cert)
            top = col.k - 1
            return Coloring(tuple(0 if c == top else c for c in col.colors),
                            top)

        monkeypatch.setattr(verifier, "greedy_ex_coloring", merged)
        with pytest.raises(verifier.SelfCheckError,
                           match="9-coloring .* refutes the star-triangle"):
            verify_conjecture(complete(6), 2)

    def test_bad_ex_certificate_raises(self, monkeypatch):
        from mkg import ExtremalCertificate
        import mkg.verifier as verifier

        def all_edges(g, r, matchings=None):
            return ExtremalCertificate(frozenset(range(g.m)), g.m, r)

        monkeypatch.setattr(verifier, "ex_exact", all_edges)
        with pytest.raises(verifier.SelfCheckError):
            verify_conjecture(cycle(5), 2)

    def test_failed_pairwise_recheck_raises(self, monkeypatch):
        import mkg.verifier as verifier

        # KG(Petersen, 5K2) is edgeless; if the matchings did not pairwise
        # share an edge, chi 1 would read as a counterexample
        monkeypatch.setattr(verifier, "pairwise_intersect", lambda ms: False)
        with pytest.raises(verifier.SelfCheckError, match="pairwise"):
            verify_conjecture(petersen(), 5)

    def test_build_that_loses_an_adjacency_raises(self, monkeypatch):
        import mkg.verifier as verifier

        # KG(C7, 3K2) is the 7-cycle; without its first edge it is a path,
        # 2-colourable against rhs = 3.  The colouring is proper for the
        # build's rows, so only the re-check from the matchings sees that
        # a colour class holds two disjoint 3-matchings
        real = verifier.build_matching_kneser

        def lossy(g, r):
            kg = real(g, r)
            i = next(v for v, row in enumerate(kg.rows) if row)
            j = (kg.rows[i] & -kg.rows[i]).bit_length() - 1
            rows = list(kg.rows)
            rows[i] ^= 1 << j
            rows[j] ^= 1 << i
            return kg._replace(rows=tuple(rows), m=kg.m - 1)

        assert verify_conjecture(cycle(7), 3).verdict == VERDICT_HOLDS
        monkeypatch.setattr(verifier, "build_matching_kneser", lossy)
        with pytest.raises(verifier.SelfCheckError,
                           match="color class .* pairwise"):
            verify_conjecture(cycle(7), 3)


class TestJson:
    def test_round_trip_byte_identical(self):
        for g, r in [(petersen(), 5), (cycle(5), 2), (star(3), 2)]:
            line = report_to_json(verify_conjecture(g, r))
            again = report_to_json(report_from_json(line))
            assert line == again
            # stable under a plain json round trip too
            assert json.dumps(json.loads(line), separators=(",", ":")) == line

    def test_field_order(self):
        line = report_to_json(verify_conjecture(cycle(5), 2))
        keys = list(json.loads(line).keys())
        assert keys == ["graph6", "n", "m", "r", "num_r_matchings",
                        "kneser_vertices", "kneser_edges", "chromatic_number",
                        "ex_value", "rhs", "verdict", "is_snark",
                        "certificates"]
        assert keys == list(ConjectureReport._fields)

    def test_rejects_foreign_lines(self):
        # any JSON value but an object with the report's keys
        for line in ('{"line":3,"error":"nope"}', "[1]", "3", "null",
                     '"graph6"', "true"):
            with pytest.raises(ValueError,
                               match="not a ConjectureReport line"):
                report_from_json(line)

    @pytest.mark.parametrize("field, bad", [
        ("graph6", 3), ("n", True), ("m", None), ("r", "2"),
        ("num_r_matchings", 1.0), ("kneser_vertices", False),
        ("kneser_edges", None), ("chromatic_number", "3"),
        ("ex_value", 2.5), ("rhs", [3]), ("verdict", "maybe"),
        ("is_snark", 0), ("certificates", [])])
    def test_rejects_bad_field(self, field, bad):
        d = json.loads(report_to_json(verify_conjecture(cycle(5), 2)))
        d[field] = bad
        with pytest.raises(ValueError, match=f"field {field} is"):
            report_from_json(json.dumps(d))

    def test_rejects_all_null_and_all_true(self):
        # the right keys alone do not make a report
        for value in (None, True):
            line = json.dumps(dict.fromkeys(ConjectureReport._fields, value))
            with pytest.raises(ValueError, match="field graph6 is"):
                report_from_json(line)

    def test_rejects_duplicate_keys(self):
        # the last value would silently win: a Petersen line with a
        # second n, and one with a second coloring inside certificates
        line = report_to_json(verify_conjecture(petersen(), 5))
        assert report_from_json(line).n == 10
        for bad in (line[:-1] + ',"n":11}',
                    line.replace('"certificates":{',
                                 '"certificates":{"coloring":[0],')):
            assert bad != line
            with pytest.raises(ValueError, match="repeats a key"):
                report_from_json(bad)

    def test_scan_error_json(self):
        assert (scan_error_to_json(ScanError(7, "bad byte"))
                == '{"line":7,"error":"bad byte"}')


def test_counterexample_certificates_revalidate():
    """For a verdict=counterexample report both certificates must pass
    independent re-checks; this is the re-validation the scan sweep
    relies on."""
    from mkg import Coloring, ExtremalCertificate, validate_certificate
    from mkg import validate_coloring

    g = petersen()
    rep = verify_conjecture(g, 5)
    cert = ExtremalCertificate(frozenset(rep.certificates["extremal_edges"]),
                               rep.ex_value, rep.r)
    assert validate_certificate(g, cert)
    kg = build_matching_kneser(g, rep.r)
    col = Coloring(tuple(rep.certificates["coloring"]), rep.chromatic_number)
    assert validate_coloring(kg, col)
    assert chromatic_number(kg)[0] == rep.chromatic_number


# sha256 of the report_to_json lines of _golden_reports, one per line.
# Any change to a report byte on this corpus changes it, so a refactor
# must keep it; change it only with an intended change of report content.
GOLDEN_SHA256 = ("1db0369d11a2c039f5e6eef13481503d"
                 "dc147486878c8c20ced31072d2171824")


def _golden_reports():
    """The 120 reports of a corpus that runs in a few seconds:
    snark and cubic bridgeless hosts at half-order, every 20th host of
    connected_n7.g6 at r = 2 and r = 3, and KG(K7, 3K2), which the chi
    search solves with the default budget and leaves undecided with 50
    nodes.  flower_j5 is pinned on its own, in
    test_flower_j5_report_bytes."""
    for name in ("petersen.g6", "blanusa_1.g6", "blanusa_2.g6",
                 "cubic_bridgeless_n14.g6"):
        yield from scan_catalog(FIXTURES / name, "half-order")
    hosts = (FIXTURES / "connected_n7.g6").read_text().splitlines()[::20]
    for r in (2, 3):
        yield from scan_lines(hosts, r)
    k7 = complete(7)
    yield verify_conjecture(k7, 3)
    yield verify_conjecture(k7, 3, budget=50)


def test_golden_report_bytes():
    reports = list(_golden_reports())
    assert [rep.verdict for rep in reports[-2:]] == [VERDICT_HOLDS,
                                                     VERDICT_UNDECIDED]
    text = "".join(report_to_json(rep) + "\n" for rep in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256


# sha256 of flower J5's half-order report_to_json line and its newline
FLOWER_J5_SHA256 = ("1499cd3acb010eaf7abca5ec7d36a8c8"
                    "90883b6c232775be9a53cced58235889")


def test_flower_j5_report_bytes():
    # a snark of order 20 (m = 30, r = 10): the deepest ex search among
    # the fixtures, so it pins the certificate ex_exact picks near n = 2r
    (rep,) = scan_catalog(FIXTURES / "flower_j5.g6", "half-order")
    assert rep.verdict == VERDICT_COUNTEREXAMPLE
    line = report_to_json(rep) + "\n"
    assert hashlib.sha256(line.encode()).hexdigest() == FLOWER_J5_SHA256


# sha256 of flower J7's half-order report_to_json line and its newline
FLOWER_J7_SHA256 = ("2a83c33d22bb2da98934391ce0c86ff3"
                    "14894510a54bf8377b034c884b2e6506")


def test_flower_j7_report():
    # n = 28, r = 14: 128 perfect matchings, pairwise intersecting, so
    # KG(J7, 14K2) is edgeless; the r-matching search dominates here
    (rep,) = scan_lines([write_graph6(flower(7))], "half-order")
    assert rep.verdict == VERDICT_COUNTEREXAMPLE
    assert (rep.r, rep.num_r_matchings, rep.kneser_edges) == (14, 128, 0)
    assert (rep.chromatic_number, rep.rhs, rep.ex_value) == (1, 3, 39)
    line = report_to_json(rep) + "\n"
    assert hashlib.sha256(line.encode()).hexdigest() == FLOWER_J7_SHA256
