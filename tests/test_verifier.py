import hashlib
import json
import random

import pytest

from helpers import FIXTURES, load_fixture, random_graph
from mkg import (
    ConjectureReport,
    ScanError,
    build_matching_kneser,
    chromatic_number,
    generate,
    report_from_json,
    report_to_json,
    scan_catalog,
    scan_lines,
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
        g = generate("petersen")
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
        rep = verify_conjecture(generate("cycle(5)"), 2)
        assert rep.verdict == VERDICT_HOLDS
        assert rep.chromatic_number == 3 and rep.rhs == 3
        assert not rep.is_snark
        assert "pairwise_intersect" not in rep.certificates

    def test_empty_kneser_holds(self):
        rep = verify_conjecture(generate("star(3)"), 2)
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
        rep = verify_conjecture(generate("disjoint_matching(3)"), 2)
        assert rep.verdict == VERDICT_NOT_CONNECTED
        # sides still computed: any two 2-subsets of 3 edges intersect,
        # so the KG is 3 isolated vertices
        assert rep.kneser_vertices == 3 and rep.kneser_edges == 0
        assert rep.chromatic_number == 1

    def test_r_one_out_of_scope(self):
        g = generate("cycle(5)")
        rep = verify_conjecture(g, 1)
        assert rep.verdict == VERDICT_OUT_OF_SCOPE
        # KG(G, 1K2) is the complete graph on m vertices
        assert rep.chromatic_number == g.m
        assert rep.ex_value == 0 and rep.rhs == g.m

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            verify_conjecture(generate("cycle(5)"), 0)

    def test_undecided_on_tiny_budget(self):
        rep = verify_conjecture(generate("complete(7)"), 2, budget=3)
        assert rep.verdict == VERDICT_UNDECIDED
        assert rep.chromatic_number == -1
        lo, hi = rep.certificates["chi_bounds"]
        assert 0 < lo <= hi
        assert rep.certificates["coloring"] == []

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
        g = generate("cycle(5)")
        rep = skipped_report(g)
        assert rep.verdict == VERDICT_OUT_OF_SCOPE
        assert rep.r == 0 and rep.chromatic_number == 0
        assert rep.rhs == rep.m - rep.ex_value == g.m
        assert not rep.is_snark


class TestScan:
    def test_order_and_errors(self):
        lines = [
            write_graph6(generate("cycle(5)")),
            "",
            "!!notgraph6",
            write_graph6(generate("petersen")),
        ]
        out = list(scan_lines(lines, 2))
        assert len(out) == 3
        assert isinstance(out[0], ConjectureReport) and out[0].n == 5
        assert isinstance(out[1], ScanError) and out[1].line == 3
        assert isinstance(out[2], ConjectureReport) and out[2].n == 10
        assert out[2].verdict == VERDICT_HOLDS  # r=2 on Petersen holds

    def test_half_order_policy(self):
        lines = [write_graph6(generate("cycle(5)")),
                 write_graph6(generate("cycle(6)"))]
        out = list(scan_lines(lines, "half-order"))
        assert out[0].verdict == VERDICT_OUT_OF_SCOPE and out[0].r == 0
        assert out[1].r == 3

    def test_streams_its_input(self):
        pulled = []

        def lines():
            for name in ("cycle(4)", "cycle(5)"):
                pulled.append(name)
                yield write_graph6(generate(name))

        out = scan_lines(lines(), 2)
        assert next(out).n == 4 and pulled == ["cycle(4)"]
        assert next(out).n == 5 and pulled == ["cycle(4)", "cycle(5)"]

    def test_scan_catalog(self, tmp_path):
        path = tmp_path / "cat.g6"
        path.write_bytes(write_graph6(generate("cycle(4)")).encode() + b"\n\n"
                         + b"D\xc3\xa9\n"
                         + write_graph6(generate("cycle(5)")).encode() + b"\n")
        out = list(scan_catalog(path, 2))
        assert [rep.n for rep in out if not isinstance(rep, ScanError)] == [4, 5]
        assert isinstance(out[1], ScanError) and out[1].line == 3
        assert out[1].error.startswith("non-ASCII character")

    def test_bad_fixed_r(self):
        with pytest.raises(ValueError):
            list(scan_lines(["A_"], 0))

    @pytest.mark.parametrize("catalog", [
        [write_graph6(generate("cycle(4)")),
         write_graph6(generate("cycle(5)"))],
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
            verify_conjecture(generate("cycle(5)"), 2)  # KG is a 5-cycle
        # an edgeless Kneser graph really is 1-colorable
        assert verify_conjecture(generate("petersen"), 5).chromatic_number == 1

    def test_chi_above_rhs_raises(self, monkeypatch):
        from mkg import Coloring, validate_coloring
        import mkg.verifier as verifier

        # a proper 4-coloring of KG(C5, 2K2), whose rhs is 3: without the
        # theorem check it reads as a counterexample
        four = Coloring((0, 0, 1, 2, 3), 4)
        g = generate("cycle(5)")
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
            verify_conjecture(generate("cycle(5)"), 2)

    def test_bad_ex_certificate_raises(self, monkeypatch):
        from mkg import ExtremalCertificate
        import mkg.verifier as verifier

        def all_edges(g, r):
            return ExtremalCertificate(frozenset(range(g.m)), g.m, r)

        monkeypatch.setattr(verifier, "ex_exact", all_edges)
        with pytest.raises(verifier.SelfCheckError):
            verify_conjecture(generate("cycle(5)"), 2)


class TestJson:
    def test_round_trip_byte_identical(self):
        for g, r in [(generate("petersen"), 5), (generate("cycle(5)"), 2),
                     (generate("star(3)"), 2)]:
            line = report_to_json(verify_conjecture(g, r))
            again = report_to_json(report_from_json(line))
            assert line == again
            # stable under a plain json round trip too
            assert json.dumps(json.loads(line), separators=(",", ":")) == line

    def test_field_order(self):
        line = report_to_json(verify_conjecture(generate("cycle(5)"), 2))
        keys = list(json.loads(line).keys())
        assert keys == ["graph6", "n", "m", "r", "num_r_matchings",
                        "kneser_vertices", "kneser_edges", "chromatic_number",
                        "ex_value", "rhs", "verdict", "is_snark",
                        "certificates"]

    def test_rejects_foreign_lines(self):
        with pytest.raises(ValueError):
            report_from_json('{"line":3,"error":"nope"}')

    def test_scan_error_json(self):
        assert (scan_error_to_json(ScanError(7, "bad byte"))
                == '{"line":7,"error":"bad byte"}')


def test_counterexample_certificates_revalidate():
    """For a verdict=counterexample report both certificates must pass
    independent re-checks; this is the re-validation the scan sweep
    relies on."""
    from mkg import Coloring, ExtremalCertificate, validate_certificate
    from mkg import validate_coloring

    g = generate("petersen")
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
GOLDEN_SHA256 = ("0538d52ac25cfa2b74789c0b6bf0e22b"
                 "6dd8362a96d4baf878ec93670e7638bc")


def _golden_reports():
    """The 120 reports of a corpus that runs in a few seconds:
    snark and cubic bridgeless hosts at half-order, every 20th host of
    connected_n7.g6 at r = 2 and r = 3, and KG(K6, 2K2), which the cover
    engine solves with the default budget and leaves undecided with 50
    nodes.  flower_j5 is pinned on its own, in
    test_flower_j5_report_bytes."""
    for name in ("petersen.g6", "blanusa_1.g6", "blanusa_2.g6",
                 "cubic_bridgeless_n14.g6"):
        yield from scan_catalog(FIXTURES / name, "half-order")
    hosts = (FIXTURES / "connected_n7.g6").read_text().splitlines()[::20]
    for r in (2, 3):
        yield from scan_lines(hosts, r)
    k6 = generate("complete(6)")
    yield verify_conjecture(k6, 2)
    yield verify_conjecture(k6, 2, budget=50)


def test_golden_report_bytes(monkeypatch):
    import mkg.coloring as coloring

    cover_runs = []
    cover_bnb = coloring._cover_bnb

    def spy(*args):
        cover_runs.append(args[1])
        return cover_bnb(*args)

    monkeypatch.setattr(coloring, "_cover_bnb", spy)
    reports = list(_golden_reports())
    assert [rep.verdict for rep in reports[-2:]] == [VERDICT_HOLDS,
                                                     VERDICT_UNDECIDED]
    assert cover_runs.count(45) >= 2  # KG(K6, 2K2) has 45 vertices
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
    (rep,) = scan_lines([write_graph6(generate("flower(7)"))], "half-order")
    assert rep.verdict == VERDICT_COUNTEREXAMPLE
    assert (rep.r, rep.num_r_matchings, rep.kneser_edges) == (14, 128, 0)
    assert (rep.chromatic_number, rep.rhs, rep.ex_value) == (1, 3, 39)
    line = report_to_json(rep) + "\n"
    assert hashlib.sha256(line.encode()).hexdigest() == FLOWER_J7_SHA256
