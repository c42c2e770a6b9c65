import dataclasses
import json

import pytest

from kmetric import cli
from kmetric.cli import main
from kmetric.fileio import graph_from_text, graph_to_text, write_graph
from kmetric.graphs import build_graph, complete_graph, cycle_graph, path_graph
from kmetric.solver import solve_exact


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    write_graph(path, path_graph(3))
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    write_graph(path, complete_graph(4))
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    write_graph(path, cycle_graph(4))
    return str(path)


class TestDimCommand:
    def test_worked_example_output(self, p3_file, capsys):
        assert main(["dim", p3_file, "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "dim_2 = 2, basis {v1, v3}" in out
        assert "optimal: true" in out

    def test_infinite_is_success(self, k4_file, capsys):
        assert main(["dim", k4_file, "--k", "3"]) == 0
        assert "dim_3 = infinite" in capsys.readouterr().out

    def test_rooted_pendant_zero(self, tmp_path, capsys):
        path = tmp_path / "p5.txt"
        write_graph(path, path_graph(5))
        assert main(["dim", str(path), "--k", "2", "--rooted", "0"]) == 0
        assert "dim_2 = 0, basis {}" in capsys.readouterr().out

    def test_json_schema(self, p3_file, capsys):
        assert main(["dim", p3_file, "--k", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out.splitlines()[0])
        assert data == {
            "k": 2,
            "dim": 2,
            "infinite": False,
            "basis": [1, 3],
            "optimal": True,
            "stats": {"nodes": 2, "rows": 1, "pruned": 2},
        }

    def test_oracle_agreement(self, c4_file, capsys):
        assert main(["dim", c4_file, "--k", "2", "--oracle"]) == 0

    def test_oracle_limit_exceeded(self, c4_file, capsys):
        assert main(["dim", c4_file, "--k", "1", "--oracle", "--oracle-limit", "3"]) == 3
        assert capsys.readouterr().err == "error: universe 4 exceeds oracle limit 3\n"

    def test_rooted_oracle(self, c4_file, capsys):
        assert main(["dim", c4_file, "--k", "2", "--rooted", "0", "--oracle"]) == 0
        assert "dim_2 = 2, basis {v2, v4}" in capsys.readouterr().out
        argv = ["dim", c4_file, "--k", "2", "--rooted", "0", "--oracle", "--oracle-limit", "3"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: universe 4 exceeds oracle limit 3\n"

    def test_oracle_basis_mismatch(self, c4_file, capsys, monkeypatch):
        # Both solvers report the lexicographically smallest basis, so one of
        # the same size but other vertices is a mismatch too.
        def other_basis(inst, limit):
            return dataclasses.replace(solve_exact(inst), basis=(2, 3))

        monkeypatch.setattr(cli, "oracle_solve", other_basis)
        assert main(["dim", c4_file, "--k", "1", "--oracle"]) == 4
        err = capsys.readouterr().err
        assert err == "error: oracle mismatch: solver 2 {v1, v2} vs oracle 2 {v3, v4}\n"

    def test_invalid_k(self, p3_file, capsys):
        assert main(["dim", p3_file, "--k", "0"]) == 3

    def test_invalid_roots(self, p3_file):
        assert main(["dim", p3_file, "--k", "1", "--rooted", "9"]) == 3
        assert main(["dim", p3_file, "--k", "1", "--rooted", "a,b"]) == 3

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 9\n0 1\n")
        assert main(["dim", str(bad), "--k", "1"]) == 2
        bad.write_text("3 3\n0 1\n1 2\n0 1\n")
        assert main(["dim", str(bad), "--k", "1"]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["dim", str(tmp_path / "nope.txt"), "--k", "1"]) == 2

    def test_deterministic_output(self, c4_file, capsys):
        main(["dim", c4_file, "--k", "2", "--json"])
        first = capsys.readouterr().out
        main(["dim", c4_file, "--k", "2", "--json"])
        assert capsys.readouterr().out == first

    def test_run_record_log(self, p3_file, tmp_path, capsys):
        log = tmp_path / "session.jsonl"
        main(["dim", p3_file, "--k", "2", "--log", str(log)])
        main(["dim", p3_file, "--k", "2", "--log", str(log)])
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["command"] == "dim" and rec["k"] == 2
        assert len(rec["digest"]) == 64
        assert rec["digest"] == json.loads(lines[1])["digest"]
        assert rec["result"]["dim"] == 2
        assert rec["wall_time"] >= 0

    def test_log_records_the_argv_given_to_main(self, p3_file, tmp_path, monkeypatch, capsys):
        # The record used to take sys.argv, which is not main's argv when
        # main is called from Python.
        monkeypatch.setattr("sys.argv", ["python"])
        log = str(tmp_path / "session.jsonl")
        dim_argv = ["dim", p3_file, "--k", "1", "--log", log]
        maxk_argv = ["maxk", p3_file, "--log", log]
        assert main(dim_argv) == 0 and main(tuple(maxk_argv)) == 0
        records = [json.loads(line) for line in open(log, encoding="utf-8")]
        assert [r["argv"] for r in records] == [dim_argv, maxk_argv]

    def test_no_log_record_built_without_log(self, p3_file, monkeypatch, capsys):
        # The record's digest hashes the whole graph text; without --log
        # nothing of the record is built.
        def refuse(g):
            raise AssertionError("digest computed without --log")

        monkeypatch.setattr(cli, "_digest", refuse)
        assert main(["dim", p3_file, "--k", "1"]) == 0
        assert main(["maxk", p3_file, "--json"]) == 0

    @pytest.mark.parametrize("argv", [["dim", "{p3}"], ["dim", "{p3}", "--k", "1", "--bogus"]])
    def test_command_line_argparse_rejects_exits_2(self, argv, p3_file, capsys):
        # A missing --k is argparse's error, not an invalid k (exit 3).
        with pytest.raises(SystemExit) as exc:
            main([a.format(p3=p3_file) for a in argv])
        assert exc.value.code == 2


class TestMaxkCommand:
    def test_p3(self, p3_file, capsys):
        assert main(["maxk", p3_file]) == 0
        assert "max_k = 2" in capsys.readouterr().out

    def test_k4(self, k4_file, capsys):
        assert main(["maxk", k4_file]) == 0
        assert "max_k = 2" in capsys.readouterr().out

    def test_json(self, p3_file, capsys):
        assert main(["maxk", p3_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"max_k": 2, "infinite": False}

    def test_one_vertex_is_infinite(self, tmp_path, capsys):
        # No pairs to distinguish, so every k admits a generator.
        path = tmp_path / "k1.txt"
        log = tmp_path / "session.jsonl"
        write_graph(path, build_graph(1, []))
        assert main(["maxk", str(path), "--json", "--log", str(log)]) == 0
        assert capsys.readouterr().out == '{"infinite": true, "max_k": null}\n'
        assert json.loads(log.read_text())["result"] == {"max_k": "infinite"}
        assert main(["maxk", str(path)]) == 0
        assert capsys.readouterr().out == "max_k = infinite\n"


class TestProductCommand:
    def test_hier_f41(self, tmp_path, capsys):
        c8 = tmp_path / "c8.txt"
        p2 = tmp_path / "p2.txt"
        write_graph(c8, cycle_graph(8))
        write_graph(p2, path_graph(2))
        rc = main(["product", "hier", str(c8), str(p2), "--roots", "1,3,5,7",
                   "--check-prop1"])
        assert rc == 0
        g = graph_from_text(capsys.readouterr().out)
        assert g.n == 16 and g.num_edges == 20

    def test_splice_paths(self, tmp_path, capsys):
        p2 = tmp_path / "p2.txt"
        write_graph(p2, path_graph(2))
        assert main(["product", "splice", str(p2), str(p2), "-a", "1", "-b", "0"]) == 0
        g = graph_from_text(capsys.readouterr().out)
        assert g.adjacency == path_graph(3).adjacency

    def test_bridge(self, c4_file, capsys):
        assert main(["product", "bridge", c4_file, "--root", "0", "--d", "3"]) == 0
        g = graph_from_text(capsys.readouterr().out)
        assert g.n == 12 and g.num_edges == 14

    def test_missing_second_factor(self, c4_file):
        assert main(["product", "splice", c4_file]) == 3

    def test_output_file(self, c4_file, tmp_path):
        out = tmp_path / "out.txt"
        assert main(["product", "bridge", c4_file, "--root", "0", "--d", "2",
                     "-o", str(out)]) == 0
        assert graph_from_text(out.read_text()).n == 8


class TestGenCommand:
    def test_nanotube(self, capsys):
        assert main(["gen", "nanotube", "--p", "4", "--q", "1"]) == 0
        g = graph_from_text(capsys.readouterr().out)
        assert g.n == 16 and g.num_edges == 20

    def test_polyhex(self, capsys):
        assert main(["gen", "polyhex", "--p", "2"]) == 0
        assert graph_from_text(capsys.readouterr().out).n == 14

    def test_polyhex_stack(self, capsys):
        assert main(["gen", "polyhex-stack", "--p", "2", "--levels", "3"]) == 0
        assert graph_from_text(capsys.readouterr().out).n == 28

    def test_armchair(self, capsys):
        assert main(["gen", "armchair", "--p", "2"]) == 0
        assert graph_from_text(capsys.readouterr().out).n == 56

    def test_families_call_the_chemgen_attribute(self, monkeypatch, capsys):
        # A wrapper put on the module attribute after import is what gen runs.
        calls = []
        original = cli.chemgen.nanotube

        def wrapped(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli.chemgen, "nanotube", wrapped)
        assert main(["gen", "nanotube", "--p", "3", "--q", "2"]) == 0
        assert calls == [(3, 2)]
        assert graph_from_text(capsys.readouterr().out).n == 24

    def test_bad_params(self, capsys):
        assert main(["gen", "nanotube", "--p", "1", "--q", "1"]) == 3
        assert main(["gen", "polyhex-stack", "--p", "2", "--levels", "4"]) == 3

    def test_dot_output(self, capsys):
        assert main(["gen", "polyhex", "--p", "2", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("graph G {")


class TestBoundCommand:
    def test_formula_values(self, capsys):
        assert main(["bound", "cycle-rooted", "--p", "4", "--k", "5"]) == 0
        assert capsys.readouterr().out.strip() == "6"
        assert main(["bound", "polyhex", "--p", "7", "--k", "10"]) == 0
        assert capsys.readouterr().out.strip() == "22"

    def test_formula_out_of_range(self, capsys):
        assert main(["bound", "cycle-rooted", "--p", "4", "--k", "8"]) == 3

    def test_t1_json(self, tmp_path, capsys):
        c8 = tmp_path / "c8.txt"
        p2 = tmp_path / "p2.txt"
        write_graph(c8, cycle_graph(8))
        write_graph(p2, path_graph(2))
        rc = main(["bound", "t1", "--graph", str(c8), "--second", str(p2),
                   "--roots", "1,3,5,7", "--k", "2", "--exact", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "upper" and data["value"] == 4
        assert data["exact"] == 4 and data["slack"] == 0

    def test_t2_hypothesis_report(self, tmp_path, capsys):
        p5 = tmp_path / "p5.txt"
        p2 = tmp_path / "p2.txt"
        write_graph(p5, path_graph(5))
        write_graph(p2, path_graph(2))
        rc = main(["bound", "t2", "--graph", str(p5), "--second", str(p2),
                   "--root", "0", "--k", "2"])
        assert rc == 0
        assert "hypothesis not met" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["bound", "t1", "--k", "1"],
    ["bound", "t2", "--k", "1"],
    ["bound", "splice", "--k", "1"],
    ["bound", "link", "--k", "1"],
    ["bound", "t2", "--graph", "{c4}", "--k", "1"],
    ["bound", "t1", "--graph", "{c4}", "--second", "{c4}", "--k", "1"],
])
def test_missing_file_or_roots_is_invalid(argv, c4_file, capsys):
    assert main([a.format(c4=c4_file) for a in argv]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("which", ["t1", "t2", "splice", "link", "cycle-rooted", "nanotube"])
def test_bound_k_below_one_is_invalid(which, c4_file, capsys):
    argv = ["bound", which, "--graph", c4_file, "--second", c4_file, "--roots", "0", "--k", "0"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["product", "splice", "{c4}", "{c4}", "-a", "9"],
    ["product", "link", "{c4}", "{c4}", "-b", "9"],
    ["product", "bridge", "{c4}", "--root", "9"],
    ["product", "bridge", "{c4}", "--d", "0"],
    ["dim", "{c4}", "--k", "1", "--rooted", ","],
    ["gen", "polyhex", "--p", "2", "-o", "{missing}/x"],
    ["product", "bridge", "{c4}", "-o", "{missing}/x"],
    ["maxk", "{c4}", "--log", "{missing}/l"],
    ["product", "bridge", "{c4}", "{missing}/second"],
])
def test_library_and_output_errors_are_invalid(argv, c4_file, tmp_path, capsys):
    # The range checks are the library's and an unwritable output is an
    # OSError; main turns each into exit 3 and one line, not a traceback.
    # A second file given to bridge, which takes none, is refused the same
    # way instead of being ignored.
    missing = tmp_path / "missing"
    assert main([a.format(c4=c4_file, missing=missing) for a in argv]) == 3
    assert capsys.readouterr().err.startswith("error: ")


class TestVerifyTable:
    def test_reproduces_table(self, capsys):
        assert main(["verify-table"]) == 0
        out = capsys.readouterr().out
        assert "all 12 exact values reproduced" in out
        assert out.count("known discrepancy") == 2


class TestExportDot:
    def test_dot(self, p3_file, capsys):
        assert main(["export-dot", p3_file]) == 0
        out = capsys.readouterr().out
        assert "0 -- 1;" in out and "1 -- 2;" in out


class TestRoundTrip:
    def test_write_then_read_identical(self, capsys):
        main(["gen", "nanotube", "--p", "3", "--q", "1"])
        text = capsys.readouterr().out
        assert graph_to_text(graph_from_text(text)) == text
