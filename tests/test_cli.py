import io
import json
import sys

import pytest

from helpers import run_fresh
from mkg import (build_matching_kneser, complete, cycle, petersen, to_dot,
                 write_graph6)
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


def _stdin_bytes(monkeypatch, data: bytes):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))


class TestCheck:
    def test_counterexample_json(self, g6file, capsys):
        rc = main(["check", "-g", g6file(petersen()), "-r", "5",
                   "--json"])
        out, err = capsys.readouterr()
        assert rc == 1
        rep = json.loads(out)
        assert rep["verdict"] == "counterexample"
        assert rep["chromatic_number"] == 1 and rep["rhs"] == 3
        assert "counterexample:" in err

    def test_holds_text(self, g6file, capsys):
        rc = main(["check", "-g", g6file(cycle(5)), "-r", "2"])
        out, err = capsys.readouterr()
        assert rc == 0
        assert "verdict: holds" in out
        assert "chromatic_number: 3" in out
        assert err == ""

    def test_half_order(self, g6file, capsys):
        rc = main(["check", "-g", g6file(petersen()),
                   "-r", "half-order"])
        out, _ = capsys.readouterr()
        assert rc == 1 and "r=5" in out

    def test_half_order_odd_skipped(self, g6file, capsys):
        rc = main(["check", "-g", g6file(cycle(5)),
                   "-r", "half-order"])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert "verdict: r-out-of-scope" in out

    def test_stdin(self, capsys, monkeypatch):
        _stdin_bytes(monkeypatch, write_graph6(cycle(5)).encode())
        rc = main(["check", "-g", "-", "-r", "2"])
        out, _ = capsys.readouterr()
        assert rc == 0 and "verdict: holds" in out

    def test_dot_half_order(self, g6file, tmp_path, capsys):
        dot = tmp_path / "kg.dot"
        rc = main(["check", "-g", g6file(cycle(6)),
                   "-r", "half-order", "--dot", str(dot)])
        out, _ = capsys.readouterr()
        assert rc == 0 and "r=3" in out
        kg = build_matching_kneser(cycle(6), 3)
        assert dot.read_text() == to_dot(kg)

    def test_dot_output(self, g6file, tmp_path, capsys):
        dot = tmp_path / "kg.dot"
        rc = main(["check", "-g", g6file(cycle(5)), "-r", "2",
                   "--dot", str(dot)])
        capsys.readouterr()
        assert rc == 0
        kg = build_matching_kneser(cycle(5), 2)
        assert dot.read_text() == to_dot(kg)

    def test_dot_skipped_host_writes_null_graph(self, g6file, tmp_path,
                                                capsys):
        # half-order skips K5; the DOT file holds the null derived graph
        # that the report describes
        dot = tmp_path / "kg.dot"
        rc = main(["check", "-g", g6file(complete(5)),
                   "-r", "half-order", "--dot", str(dot)])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        assert "kneser: 0 vertices, 0 edges" in out
        assert "verdict: r-out-of-scope" in out
        assert dot.read_bytes() == b"graph kneser {\n}\n"

    def test_budget_undecided(self, g6file, capsys):
        rc = main(["check", "-g", g6file(complete(7)), "-r", "2",
                   "--budget", "3"])
        out, _ = capsys.readouterr()
        assert rc == 3
        assert "verdict: undecided" in out
        assert "chromatic_number: -1" in out

    def test_bad_r_is_usage_error(self, g6file):
        path = g6file(cycle(5))
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

    def test_non_ascii_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"D\xc3\xa9\n")
        rc = main(["check", "-g", str(path), "-r", "2"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("mkg: non-ASCII character")


class TestScan:
    def test_text_with_parse_error(self, g6file, capsys):
        path = g6file(cycle(4), cycle(5),
                      raw=["%%%"])
        rc = main(["scan", "-g", path, "-r", "2"])
        out, err = capsys.readouterr()
        lines = out.strip().splitlines()
        assert rc == 2  # parse error, no counterexample
        assert lines[0].startswith("line 1: parse error:")
        assert "verdict=holds" in lines[1] and "verdict=holds" in lines[2]
        assert err == ""

    def test_counterexample_wins_exit_code(self, g6file, capsys):
        path = g6file(petersen(), raw=["%%%"])
        rc = main(["scan", "-g", path, "-r", "half-order"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert "counterexample:" in err

    def test_json_lines(self, g6file, capsys):
        path = g6file(cycle(4), petersen(), raw=["!"])
        rc = main(["scan", "-g", path, "-r", "2", "--json"])
        out, _ = capsys.readouterr()
        lines = out.strip().splitlines()
        assert rc == 2
        err_rec = json.loads(lines[0])
        assert err_rec == {"line": 1, "error": err_rec["error"]}
        for line in lines[1:]:
            assert report_to_json(report_from_json(line)) == line

    def test_non_ascii_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"D\xc3\xa9\n")
        rc = main(["scan", "-g", str(path), "-r", "2"])
        out, err = capsys.readouterr()
        assert rc == 2 and err == ""
        assert out == "line 1: parse error: non-ASCII character (byte offset 1)\n"

    def test_budget_undecided(self, g6file, capsys):
        rc = main(["scan", "-g", g6file(complete(7)), "-r", "2",
                   "--budget", "3"])
        out, _ = capsys.readouterr()
        assert rc == 3
        assert "chi=-1" in out and "verdict=undecided" in out

    def test_scan_stdin(self, capsys, monkeypatch):
        text = "\n".join([write_graph6(cycle(4)),
                          write_graph6(cycle(6))])
        _stdin_bytes(monkeypatch, text.encode())
        rc = main(["scan", "-g", "-", "-r", "2"])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert len(out.strip().splitlines()) == 2


class TestSmallCommands:
    def test_ex(self, g6file, capsys):
        rc = main(["ex", "-g", g6file(cycle(5)), "-r", "2"])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert "n=5 m=5 r=2" in out
        assert "ex_value=2" in out
        assert "edges=0=(0,1) 1=(0,4)" in out

    def test_chi_index(self, g6file, capsys):
        rc = main(["chi-index", "-g", g6file(petersen())])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert "chromatic_index=4" in out and "class=two" in out

    def test_kneser_summary(self, g6file, capsys):
        rc = main(["kneser", "-g", g6file(cycle(5)), "-r", "2"])
        out, _ = capsys.readouterr()
        assert rc == 0 and out.strip() == "vertices=5 edges=5"

    def test_kneser_dot(self, g6file, capsys):
        rc = main(["kneser", "-g", g6file(cycle(5)), "-r", "2",
                   "--dot"])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert out == to_dot(build_matching_kneser(cycle(5), 2))


class TestOneGraph:
    """check, ex, chi-index and kneser answer for one graph; a second
    one in their input is refused, not dropped."""

    ARGS = {"check": ["-r", "2"], "ex": ["-r", "2"], "chi-index": [],
            "kneser": ["-r", "2"]}
    MESSAGE = ("mkg: line 3 holds a second graph; only mkg scan reads more "
               "than one\n")

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_file(self, g6file, capsys, command):
        path = g6file(cycle(5), petersen(),
                      raw=[""])
        rc = main([command, "-g", path, *self.ARGS[command]])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (2, "", self.MESSAGE)

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_stdin(self, capsys, monkeypatch, command):
        text = "\n".join(["", write_graph6(cycle(5)),
                          write_graph6(petersen()), ""])
        _stdin_bytes(monkeypatch, text.encode())
        rc = main([command, "-g", "-", *self.ARGS[command]])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (2, "", self.MESSAGE)

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_blank_input(self, capsys, monkeypatch, command):
        # an input error of its own, with no graph6 byte offset
        _stdin_bytes(monkeypatch, b"\n  \n")
        rc = main([command, "-g", "-", *self.ARGS[command]])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (2, "",
                                  "mkg: no graph6 line found in input\n")

    def test_blank_lines_around_one_graph(self, g6file, capsys):
        path = g6file(cycle(5), raw=["", "  "])
        with open(path, "a") as fh:
            fh.write("\n \n")
        assert main(["ex", "-g", path, "-r", "2"]) == 0
        assert "ex_value=2" in capsys.readouterr().out


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2

    def test_unknown_flag(self, g6file):
        with pytest.raises(SystemExit) as ei:
            main(["check", "-g", g6file(cycle(5)), "-r", "2",
                  "--frobnicate"])
        assert ei.value.code == 2

    @pytest.mark.parametrize("command", ["check", "scan"])
    @pytest.mark.parametrize("budget, message", [
        ("abc", "must be an integer"), ("1.5", "must be an integer"),
        ("0", "must be >= 1"), ("1_000", "must be an integer"),
        ("+5", "must be an integer"), (" 5 ", "must be an integer"),
        ("\u0665", "must be an integer")])
    def test_bad_budget(self, g6file, capsys, command, budget, message):
        with pytest.raises(SystemExit) as ei:
            main([command, "-g", g6file(cycle(5)), "-r", "2",
                  "--budget", budget])
        assert ei.value.code == 2
        _, err = capsys.readouterr()
        assert err.endswith(
            f"mkg {command}: error: argument --budget: {message}\n")

    @pytest.mark.parametrize("command", ["check", "scan"])
    @pytest.mark.parametrize("r, message", [
        ("0", "r-policy must be >= 1, got 0"),
        ("-3", "r-policy must be >= 1, got -3"),
        ("two", "r-policy must be an integer or 'half-order', got 'two'"),
        ("1_0", "r-policy must be an integer or 'half-order', got '1_0'"),
        ("+3", "r-policy must be an integer or 'half-order', got '+3'"),
        (" 2 ", "r-policy must be an integer or 'half-order', got ' 2 '"),
        ("\u0663",
         "r-policy must be an integer or 'half-order', got '\u0663'")])
    def test_bad_r(self, g6file, capsys, command, r, message):
        with pytest.raises(SystemExit) as ei:
            main([command, "-g", g6file(cycle(5)), "-r", r])
        assert ei.value.code == 2
        _, err = capsys.readouterr()
        assert err.endswith(
            f"mkg {command}: error: argument -r/--r: {message}\n")

    def test_ex_rejects_bad_r(self, g6file):
        with pytest.raises(SystemExit) as ei:
            main(["ex", "-g", g6file(cycle(5)), "-r", "0"])
        assert ei.value.code == 2


@pytest.mark.parametrize("command, out, err", [
    ("scan", "line 1: parse error: non-ASCII character (byte offset 1)\n",
     ""),
    ("check", "", "mkg: non-ASCII character (byte offset 1)\n"),
], ids=["scan", "check"])
def test_non_ascii_stdin_is_parse_error(command, out, err):
    # a strict UTF-8 stdin must not turn a bad byte into a traceback
    proc = run_fresh(
        [sys.executable, "-m", "mkg", command, "-g", "-", "-r", "2"],
        env={"PYTHONIOENCODING": "utf-8:strict"}, input=b"D\xff\n")
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
        2, out, err)


@pytest.mark.parametrize("command", ["scan", "check"])
def test_closed_stdin_is_input_error(command):
    # with fd 0 closed Python sets sys.stdin to None
    proc = run_fresh(
        ["sh", "-c", f'"$0" -m mkg {command} -g - -r 2 <&-', sys.executable])
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
        2, "", "mkg: stdin is closed\n")


class TestDeepSearch:
    """K46 has 1,035 edges, and ex_exact recurses once per edge: deeper
    than the interpreter's default recursion limit, which a fresh process
    starts at."""

    @pytest.fixture
    def k46(self, tmp_path):
        path = tmp_path / "k46.g6"
        path.write_text(write_graph6(complete(46)) + "\n")
        return str(path)

    def test_ex(self, k46):
        proc = run_fresh([sys.executable, "-m", "mkg", "ex", "-g", k46,
                          "-r", "1"])
        assert proc.returncode == 0, proc.stderr.decode()
        assert "ex_value=0" in proc.stdout.decode().splitlines()

    def test_check(self, k46):
        proc = run_fresh([sys.executable, "-m", "mkg", "check", "-g", k46,
                          "-r", "1", "--json"])
        assert proc.returncode == 0, proc.stderr.decode()
        assert json.loads(proc.stdout)["verdict"] == "r-out-of-scope"
