import io
import json
from pathlib import Path

import pytest

from mkg import build_matching_kneser, generate, to_dot, write_graph6
from mkg.cli import main
from mkg.verifier import report_from_json, report_to_json


@pytest.fixture
def g6file(tmp_path):
    def make(*graphs, name="in.g6", raw=None):
        path = tmp_path / name
        lines = list(raw or []) + [write_graph6(g) for g in graphs]
        path.write_text("\n".join(lines) + "\n")
        return str(path)
    return make


class TestCheck:
    def test_counterexample_json(self, g6file, capsys):
        rc = main(["check", "-g", g6file(generate("petersen")), "-r", "5",
                   "--json"])
        out, err = capsys.readouterr()
        assert rc == 1
        rep = json.loads(out)
        assert rep["verdict"] == "counterexample"
        assert rep["chromatic_number"] == 1 and rep["rhs"] == 3
        assert "counterexample:" in err

    def test_holds_text(self, g6file, capsys):
        rc = main(["check", "-g", g6file(generate("cycle(5)")), "-r", "2"])
        out, err = capsys.readouterr()
        assert rc == 0
        assert "verdict: holds" in out
        assert "chromatic_number: 3" in out
        assert err == ""

    def test_half_order(self, g6file, capsys):
        rc = main(["check", "-g", g6file(generate("petersen")),
                   "-r", "half-order"])
        out, _ = capsys.readouterr()
        assert rc == 1 and "r=5" in out

    def test_half_order_odd_skipped(self, g6file, capsys):
        rc = main(["check", "-g", g6file(generate("cycle(5)")),
                   "-r", "half-order"])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert "verdict: r-out-of-scope" in out

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(write_graph6(generate("cycle(5)"))))
        rc = main(["check", "-g", "-", "-r", "2"])
        out, _ = capsys.readouterr()
        assert rc == 0 and "verdict: holds" in out

    def test_dot_half_order(self, g6file, tmp_path, capsys):
        dot = tmp_path / "kg.dot"
        rc = main(["check", "-g", g6file(generate("cycle(6)")),
                   "-r", "half-order", "--dot", str(dot)])
        out, _ = capsys.readouterr()
        assert rc == 0 and "r=3" in out
        kg = build_matching_kneser(generate("cycle(6)"), 3)
        assert dot.read_text() == to_dot(kg)

    def test_dot_output(self, g6file, tmp_path, capsys):
        dot = tmp_path / "kg.dot"
        rc = main(["check", "-g", g6file(generate("cycle(5)")), "-r", "2",
                   "--dot", str(dot)])
        capsys.readouterr()
        assert rc == 0
        kg = build_matching_kneser(generate("cycle(5)"), 2)
        assert dot.read_text() == to_dot(kg)

    def test_budget_undecided(self, g6file, capsys):
        rc = main(["check", "-g", g6file(generate("complete(7)")), "-r", "2",
                   "--budget", "3"])
        out, _ = capsys.readouterr()
        assert rc == 3
        assert "verdict: undecided" in out
        assert "chromatic_number: -1" in out

    def test_bad_r_is_usage_error(self, g6file):
        path = g6file(generate("cycle(5)"))
        for bad in ("0", "-3", "two"):
            with pytest.raises(SystemExit) as ei:
                main(["check", "-g", path, "-r", bad])
            assert ei.value.code == 2

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["check", "-g", str(tmp_path / "nope.g6"), "-r", "2"])
        _, err = capsys.readouterr()
        assert rc == 2 and "mkg:" in err

    def test_unparsable_graph(self, g6file, capsys):
        rc = main(["check", "-g", g6file(raw=["!!bad"]), "-r", "2"])
        _, err = capsys.readouterr()
        assert rc == 2 and "byte" in err


class TestScan:
    def test_text_with_parse_error(self, g6file, capsys):
        path = g6file(generate("cycle(4)"), generate("cycle(5)"),
                      raw=["%%%"])
        rc = main(["scan", "-g", path, "-r", "2"])
        out, err = capsys.readouterr()
        lines = out.strip().splitlines()
        assert rc == 2  # parse error, no counterexample
        assert lines[0].startswith("line 1: parse error:")
        assert "verdict=holds" in lines[1] and "verdict=holds" in lines[2]
        assert err == ""

    def test_counterexample_wins_exit_code(self, g6file, capsys):
        path = g6file(generate("petersen"), raw=["%%%"])
        rc = main(["scan", "-g", path, "-r", "half-order"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert "counterexample:" in err

    def test_json_lines(self, g6file, capsys):
        path = g6file(generate("cycle(4)"), generate("petersen"), raw=["!"])
        rc = main(["scan", "-g", path, "-r", "2", "--json"])
        out, _ = capsys.readouterr()
        lines = out.strip().splitlines()
        assert rc == 2
        err_rec = json.loads(lines[0])
        assert err_rec == {"line": 1, "error": err_rec["error"]}
        for line in lines[1:]:
            assert report_to_json(report_from_json(line)) == line

    def test_bad_threads_env_is_usage_error(self, capsys, monkeypatch):
        path = str(Path(__file__).resolve().parent.parent
                   / "fixtures" / "petersen.g6")
        for bad in ("abc", "0", "-2"):
            monkeypatch.setenv("MKG_THREADS", bad)
            rc = main(["scan", "-g", path, "-r", "5"])
            out, err = capsys.readouterr()
            assert rc == 2, bad
            assert out == ""
            assert err.startswith("mkg: MKG_THREADS must be a positive integer")

    def test_scan_stdin(self, capsys, monkeypatch):
        text = "\n".join([write_graph6(generate("cycle(4)")),
                          write_graph6(generate("cycle(6)"))])
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        rc = main(["scan", "-g", "-", "-r", "2"])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert len(out.strip().splitlines()) == 2


class TestSmallCommands:
    def test_ex(self, g6file, capsys):
        rc = main(["ex", "-g", g6file(generate("cycle(5)")), "-r", "2"])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert "n=5 m=5 r=2" in out
        assert "ex_value=2" in out
        assert "edges=0=(0,1) 1=(0,4)" in out

    def test_chi_index(self, g6file, capsys):
        rc = main(["chi-index", "-g", g6file(generate("petersen"))])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert "chromatic_index=4" in out and "class=two" in out

    def test_kneser_summary(self, g6file, capsys):
        rc = main(["kneser", "-g", g6file(generate("cycle(5)")), "-r", "2"])
        out, _ = capsys.readouterr()
        assert rc == 0 and out.strip() == "vertices=5 edges=5"

    def test_kneser_dot(self, g6file, capsys):
        rc = main(["kneser", "-g", g6file(generate("cycle(5)")), "-r", "2",
                   "--dot"])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert out == to_dot(build_matching_kneser(generate("cycle(5)"), 2))


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2

    def test_unknown_flag(self, g6file):
        with pytest.raises(SystemExit) as ei:
            main(["check", "-g", g6file(generate("cycle(5)")), "-r", "2",
                  "--frobnicate"])
        assert ei.value.code == 2

    def test_ex_rejects_bad_r(self, g6file):
        with pytest.raises(SystemExit) as ei:
            main(["ex", "-g", g6file(generate("cycle(5)")), "-r", "0"])
        assert ei.value.code == 2
