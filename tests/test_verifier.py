import json
import random

import pytest

from helpers import load_fixture, random_graph
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

    def test_threaded_matches_serial(self, monkeypatch):
        lines = [write_graph6(generate(f"cycle({n})")) for n in range(3, 11)]
        serial = [report_to_json(rep) for rep in scan_lines(lines, 2,
                                                            threads=1)]
        monkeypatch.setenv("MKG_THREADS", "4")
        threaded = [report_to_json(rep) for rep in scan_lines(lines, 2)]
        assert serial == threaded

    def test_threads_env_must_be_positive_integer(self, monkeypatch):
        from mkg.verifier import ConfigError, default_threads
        monkeypatch.setenv("MKG_THREADS", "3")
        assert default_threads() == 3
        for bad in ("abc", "0", "-1", "2.5"):
            monkeypatch.setenv("MKG_THREADS", bad)
            with pytest.raises(ConfigError):
                default_threads()
        monkeypatch.setenv("MKG_THREADS", "")  # empty means unset
        assert default_threads() >= 1

    def test_scan_catalog(self, tmp_path):
        path = tmp_path / "cat.g6"
        path.write_text(write_graph6(generate("cycle(4)")) + "\n\n"
                        + write_graph6(generate("cycle(5)")) + "\n")
        out = list(scan_catalog(path, 2))
        assert [rep.n for rep in out] == [4, 5]

    def test_bad_fixed_r(self):
        with pytest.raises(ValueError):
            list(scan_lines(["A_"], 0))


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

    def test_bad_ex_certificate_raises(self, monkeypatch):
        from mkg import ExtremalCertificate
        import mkg.verifier as verifier

        def all_edges(g, r):
            return ExtremalCertificate(frozenset(range(g.m)), g.m, r)

        monkeypatch.setattr(verifier, "ex_exact", all_edges)
        with pytest.raises(verifier.SelfCheckError):
            verify_conjecture(generate("cycle(5)"), 2)

    def test_prebuilt_kneser_graph_must_match(self):
        g = generate("cycle(5)")
        kg = build_matching_kneser(g, 2)
        assert (report_to_json(verify_conjecture(g, 2, kg=kg))
                == report_to_json(verify_conjecture(g, 2)))
        with pytest.raises(ValueError):
            verify_conjecture(g, 1, kg=kg)
        with pytest.raises(ValueError):
            verify_conjecture(generate("cycle(6)"), 2, kg=kg)


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
