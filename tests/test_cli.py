import gc
import hashlib
import json
import os
import random
import stat
import subprocess
import sys

import pytest

from choosability import cli, generators, reductions
from choosability.cli import main
from choosability.errors import InternalCheckError
from choosability.dimacs import MAX_GRAPH_VERTICES, parse_graph, write_graph
from choosability.graphs import Graph, induced_subgraph
from choosability.recognition import is_2_choosable, is_L_colorable, parse_list_assignment

from conftest import complete_bipartite, cycle_graph, path_graph, theta_graph


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.graph"
    path.write_text(write_graph(cycle_graph(5)))
    return str(path)


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.graph"
    path.write_text(write_graph(cycle_graph(6)))
    return str(path)


def run_json(capsys, argv):
    code = main(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def solved_artifact(tmp_path, capsys, kind):
    """``(base, sidecar, answer)`` of the ``kind`` artifact of (1 or 2 or not 3), p = 1.

    ``answer`` holds the verdicts and witnesses of solving it for 110.
    """
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 -3 0\n")
    base = str(tmp_path / "art")
    options = ["--p", "1"] if kind == "planar3sat" else []
    assert main(["reduce", kind, str(cnf), "--out", base] + options) == 0
    capsys.readouterr()
    code, report = run_json(capsys, ["solution-from-assignment", base, "--tau", "110"])
    assert code == 0
    with open(base + ".roles.json") as fh:
        sidecar = json.load(fh)
    return base, sidecar, (report["verdicts"], report["witnesses"])


def solve_edited(capsys, base, sidecar):
    """Write ``sidecar`` over the artifact's, solve for 110 with --json: ``(code, captured)``."""
    with open(base + ".roles.json", "w") as fh:
        json.dump(sidecar, fh)
    code = main(["--json", "solution-from-assignment", base, "--tau", "110"])
    return code, capsys.readouterr()


def answer(captured):
    report = json.loads(captured.out)
    return report["verdicts"], report["witnesses"]


class TestExitCodes:
    def test_check2_negative(self, c5_file, capsys):
        assert main(["check2", c5_file]) == 1
        assert "not 2-choosable" in capsys.readouterr().out

    def test_check2_positive(self, c6_file, capsys):
        assert main(["check2", c6_file]) == 0

    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_missing_file(self, capsys):
        assert main(["stats", "/nonexistent/path.graph"]) == 2

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("p edge 2 1\ne 1 1\n")
        assert main(["stats", str(bad)]) == 2
        assert "self-loop" in capsys.readouterr().err

    def test_vertex_limit(self, tmp_path, capsys):
        # the header is rejected before any graph of that size is allocated
        big = tmp_path / "big.graph"
        big.write_text("c over the limit\np edge %d 0\n" % (MAX_GRAPH_VERTICES + 1))
        assert main(["core", str(big)]) == 2
        assert capsys.readouterr().err == (
            "error: line 2: header declares %d vertices; the limit is %d\n"
            % (MAX_GRAPH_VERTICES + 1, MAX_GRAPH_VERTICES))
        assert main(["--json", "stats", str(big)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "input"

    def test_vertex_limit_is_inclusive(self):
        g = parse_graph("p edge %d 0\n" % MAX_GRAPH_VERTICES)
        assert g.n == MAX_GRAPH_VERTICES

    def test_writers_refuse_a_graph_over_the_vertex_limit(self, tmp_path, capsys):
        out = tmp_path / "big.graph"
        n = str(MAX_GRAPH_VERTICES + 1)
        assert main(["gen", "cycle", "--n", n, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: graph has %d vertices; the limit is %d\n"
            % (MAX_GRAPH_VERTICES + 1, MAX_GRAPH_VERTICES))
        assert main(["--json", "gen", "cycle", "--n", n, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "input"
        # the triangle reduction adds a vertex per edge: limit + 1 from a path
        half = tmp_path / "half.graph"
        half.write_text(write_graph(path_graph(MAX_GRAPH_VERTICES // 2 + 1)))
        assert main(["reduce", "vc", str(half), "--out", str(tmp_path / "r")]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["half.graph"]

    @pytest.mark.parametrize("argv, n", [
        (["gnp", "--n", str(MAX_GRAPH_VERTICES + 1), "--prob", "0", "--seed", "1"],
         MAX_GRAPH_VERTICES + 1),
        (["cycle", "--n", str(MAX_GRAPH_VERTICES + 1)], MAX_GRAPH_VERTICES + 1),
        (["theta", "--paths", "60000", "60000", "3"], 120002)])
    def test_generators_refuse_before_building(self, monkeypatch, capsys, argv, n):
        # the count is checked first: no draw is made and no Graph is built
        def unreachable(*args):
            raise AssertionError("generator built a graph over the limit")
        monkeypatch.setattr(generators, "Graph", unreachable)
        monkeypatch.setattr(generators.random, "Random", unreachable)
        assert main(["gen"] + argv) == 2
        assert capsys.readouterr().err == (
            "error: graph has %d vertices; the limit is %d\n" % (n, MAX_GRAPH_VERTICES))
        code, report = run_json(capsys, ["gen"] + argv)
        assert code == 2 and report["error"]["kind"] == "input"

    @pytest.mark.parametrize("prob", ["nan", "-0.1", "1.5", "inf"])
    def test_gnp_refuses_a_probability_outside_0_1(self, capsys, prob):
        assert main(["gen", "gnp", "--n", "5", "--prob", prob, "--seed", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: edge probability %r is not in [0, 1]\n" % float(prob))

    def test_formula_refuses_a_negative_clause_count(self, capsys):
        assert main(["gen", "formula", "--vars", "3", "--clauses", "-2", "--seed", "1"]) == 2
        assert capsys.readouterr() == ("", "error: clause count -2 is negative\n")
        # no clauses is a valid file; reduce sat3 refuses it later
        assert main(["gen", "formula", "--vars", "3", "--clauses", "0", "--seed", "1"]) == 0
        assert capsys.readouterr().out.startswith("p cnf 3 0")

    def test_written_graph_at_the_vertex_limit_reads_back(self, tmp_path):
        out = tmp_path / "limit.graph"
        assert main(["gen", "cycle", "--n", str(MAX_GRAPH_VERTICES), "--out", str(out)]) == 0
        assert parse_graph(out.read_text()) == cycle_graph(MAX_GRAPH_VERTICES)

    @pytest.mark.parametrize("exc", [InternalCheckError("re-check failed"), KeyError("x")])
    def test_internal_error(self, c5_file, capsys, monkeypatch, exc):
        def handler(args, run):
            raise exc
        monkeypatch.setitem(cli._HANDLERS, "stats", handler)
        assert main(["stats", c5_file]) == 4
        assert capsys.readouterr().err.startswith("internal error: %s" % type(exc).__name__)

    def test_budget_exceeded(self, c6_file, capsys):
        assert main(["check2", c6_file, "--oracle", "--budget", "3"]) == 3

    def test_near3_infeasible(self, tmp_path, capsys):
        k5 = tmp_path / "k5.graph"
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        k5.write_text(write_graph(Graph(5, edges)))
        assert main(["near3", str(k5)]) == 1

    def test_oracle_budget_on_long_cycle(self, tmp_path, capsys):
        # a list per vertex on the search path, 3000 deep
        path = tmp_path / "c3000.graph"
        path.write_text(write_graph(cycle_graph(3000)))
        assert main(["check2", str(path), "--oracle", "--budget", "20000"]) == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_oracle_proves_c8_under_raised_cap(self, tmp_path, capsys):
        path = tmp_path / "c8.graph"
        assert main(["gen", "cycle", "--n", "8", "--out", str(path)]) == 0
        assert main(["check2", str(path), "--oracle", "--cap", "8"]) == 0


class TestJsonErrors:
    """With --json, exits 2-4 print one JSON line on stdout; stderr is unchanged."""

    def run_error(self, capsys, argv):
        code = main(["--json"] + argv)
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 1
        return code, json.loads(captured.out)["error"], captured.err

    @pytest.mark.parametrize("argv,message", [
        (["stats"], "the following arguments are required: graph"),
        ([], "the following arguments are required: command"),
        (["check2", "g", "--budget", "many"], "argument --budget: invalid int value: 'many'"),
    ])
    def test_usage_error(self, capsys, argv, message):
        code, body, err = self.run_error(capsys, argv)
        assert code == 2 and body == {"kind": "usage", "message": message}
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err)
        assert err.startswith("usage: choosability") and err.endswith(": error: %s\n" % message)

    @pytest.mark.parametrize("command", [["check2", "--oracle"], ["near3"], ["near3", "--min"],
                                         ["del2", "--exact"]])
    @pytest.mark.parametrize("option,value", [("--budget", "-5"), ("--cap", "-1")])
    def test_negative_budget_or_cap_is_usage_error(self, c6_file, capsys, command, option,
                                                   value):
        # an argument error, not a search that spent its budget (exit 3)
        argv = command[:1] + [c6_file] + command[1:] + [option, value]
        code, body, err = self.run_error(capsys, argv)
        message = "argument %s: invalid non-negative int value: '%s'" % (option, value)
        assert code == 2 and body == {"kind": "usage", "message": message}
        assert err.startswith("usage: choosability") and err.endswith(": error: %s\n" % message)

    @pytest.mark.parametrize("command", [["check2", "--oracle"], ["near3"], ["del2", "--exact"]])
    def test_zero_budget_is_a_spent_search(self, c6_file, capsys, command):
        argv = command[:1] + [c6_file] + command[1:] + ["--budget", "0"]
        code, body, err = self.run_error(capsys, argv)
        assert code == 3 and body["kind"] == "budget" and body["stats"]["limit"] == 0

    def test_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("p edge 2 1\ne 1 1\n")
        code, body, err = self.run_error(capsys, ["stats", str(bad)])
        assert code == 2 and err == "error: line 2: self-loop at vertex 1\n"
        assert body == {"kind": "input", "message": "line 2: self-loop at vertex 1"}

    def test_gadget_above_vertex_limit(self, capsys):
        # the positive edge gadget has 30p + 55 vertices: 100,015 at p = 3332
        code, body, err = self.run_error(capsys, ["verify", "gadgets", "--p", "3332"])
        message = "the reduction would have 100015 vertices; the limit is 100000"
        assert code == 2 and body == {"kind": "input", "message": message}
        assert err == "error: %s\n" % message

    def test_budget_exceeded(self, c6_file, capsys):
        code, body, err = self.run_error(capsys, ["check2", c6_file, "--oracle", "--budget", "3"])
        assert code == 3 and err == "budget exceeded: node-expansion budget of 3 exceeded\n"
        assert body["kind"] == "budget"
        assert body["message"] == "node-expansion budget of 3 exceeded"
        assert body["stats"]["expanded"] == 4 and body["stats"]["limit"] == 3
        assert body["stats"]["stage"] == "oracle"

    def test_oracle_budget_report(self, tmp_path, capsys):
        # the oracle's progress count is put on the error only when it is raised
        path = tmp_path / "c8.graph"
        path.write_text(write_graph(cycle_graph(8)))
        code = main(["--json", "check2", str(path), "--oracle", "--cap", "8", "--budget", "50"])
        assert code == 3
        assert capsys.readouterr().out == (
            '{"error":{"kind":"budget","message":"node-expansion budget of 50 exceeded",'
            '"stats":{"assignments":37,"expanded":51,"limit":50,"stage":"oracle"}}}\n')

    @pytest.mark.parametrize("argv,stage", [(["del2", "--exact"], "del2-branch"),
                                            (["near3"], "near3-check"),
                                            (["near3", "--min"], "near3-check")])
    def test_default_node_budget(self, tmp_path, capsys, monkeypatch, argv, stage):
        path = tmp_path / "k34.graph"
        path.write_text(write_graph(complete_bipartite(3, 4)))
        command = argv[:1] + [str(path)] + argv[1:]
        assert main(command) in (0, 1)          # within the real default
        capsys.readouterr()
        monkeypatch.setattr(cli, "DEFAULT_NODE_BUDGET", 5)
        code, body, err = self.run_error(capsys, command)
        assert code == 3 and err == "budget exceeded: node-expansion budget of 5 exceeded\n"
        assert body["kind"] == "budget" and body["stats"]["limit"] == 5
        assert body["stats"]["expanded"] == 6 and body["stats"]["stage"] == stage
        # an explicit --budget still wins over the default
        assert main(command + ["--budget", "1000"]) in (0, 1)

    def test_internal_error(self, c5_file, capsys, monkeypatch):
        def handler(args, run):
            raise InternalCheckError("re-check failed")
        monkeypatch.setitem(cli._HANDLERS, "stats", handler)
        code, body, err = self.run_error(capsys, ["stats", c5_file])
        assert code == 4
        assert err.startswith("internal error: InternalCheckError: re-check failed\n")
        assert body == {"kind": "internal", "message": "InternalCheckError: re-check failed"}


class TestStats:
    def test_c5(self, c5_file, capsys):
        code, report = run_json(capsys, ["stats", c5_file])
        assert code == 0
        v = report["verdicts"]
        assert (v["n"], v["m"], v["bipartite"], v["triangle_free"]) == (5, 5, False, True)
        assert v["diameter"] == 2 and v["girth"] == 5
        g = cycle_graph(5)
        for key in ("odd_cycle", "girth_cycle"):
            cyc = report["witnesses"][key]
            for i, x in enumerate(cyc):
                assert g.has_edge(x - 1, cyc[(i + 1) % len(cyc)] - 1)

    def test_diameter_of_long_cycle_and_path(self, tmp_path, capsys):
        for g, expected in ((cycle_graph(3000), 1500), (path_graph(5000), 4999)):
            path = tmp_path / "long.graph"
            path.write_text(write_graph(g))
            code, report = run_json(capsys, ["stats", str(path)])
            assert code == 0 and report["verdicts"]["diameter"] == expected


class TestCore:
    def test_theta_plus_pendant(self, tmp_path, capsys):
        g = theta_graph(2, 2, 4)
        pend = Graph(g.n + 1, list(g.edges) + [(0, g.n)])
        path = tmp_path / "t.graph"
        path.write_text(write_graph(pend))
        code, report = run_json(capsys, ["core", str(path)])
        assert code == 0
        assert report["verdicts"]["core_size"] == g.n
        (comp,) = report["verdicts"]["components"]
        assert comp["kind"] == "theta-2-2-even" and comp["m"] == 2


class TestWitnessRevalidation:
    def test_check2_witness(self, c5_file, capsys):
        code, report = run_json(capsys, ["check2", c5_file, "--witness"])
        assert code == 1
        comp = [v - 1 for v in report["witnesses"]["offending_component"]]
        sub, _ = induced_subgraph(cycle_graph(5), comp)
        assert not is_2_choosable(sub)[0]

    def test_oracle_witness(self, c5_file, capsys):
        code, report = run_json(capsys, ["check2", c5_file, "--oracle", "--witness"])
        assert code == 1
        lists = parse_list_assignment(report["witnesses"]["bad_list_assignment"])
        assert not is_L_colorable(cycle_graph(5), lists)[0]

    def test_del2_witness(self, c5_file, capsys):
        code, report = run_json(capsys, ["del2", c5_file])
        assert code == 0
        deleted = [v - 1 for v in report["witnesses"]["deleted"]]
        from choosability.graphs import delete_vertices
        assert is_2_choosable(delete_vertices(cycle_graph(5), deleted)[0])[0]

    def test_del2_exact_c6(self, c6_file, capsys):
        code, report = run_json(capsys, ["del2", c6_file, "--exact"])
        assert code == 0
        assert report["verdicts"]["size"] == 0
        assert report["witnesses"]["deleted"] == []


class TestDeterminism:
    def test_reports_byte_identical_modulo_runtime(self, c5_file, capsys):
        outputs = []
        for _ in range(2):
            main(["--json", "del2", c5_file])
            outputs.append(capsys.readouterr().out)
        a, b = (json.loads(o) for o in outputs)
        a["counters"]["runtime_ms"] = b["counters"]["runtime_ms"] = 0.0
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_gen_deterministic(self, capsys):
        main(["gen", "gnp", "--n", "12", "--prob", "0.3", "--seed", "5"])
        first = capsys.readouterr().out
        main(["gen", "gnp", "--n", "12", "--prob", "0.3", "--seed", "5"])
        assert capsys.readouterr().out == first
        parse_graph(first)


class TestReduceAndSolve:
    def test_sat3_roundtrip(self, tmp_path, capsys):
        cnf = tmp_path / "phi.cnf"
        cnf.write_text("p cnf 3 1\n1 2 -3 0\n")
        base = str(tmp_path / "art")
        code, report = run_json(capsys, ["reduce", "sat3", str(cnf), "--out", base])
        assert code == 0
        assert report["verdicts"]["n"] == 596
        code = main(["solution-from-assignment", base, "--tau", "110"])
        assert code == 0
        assert "valid decomposition" in capsys.readouterr().out
        assert main(["solution-from-assignment", base, "--tau", "001"]) == 2

    def test_planar3sat_roundtrip(self, tmp_path, capsys):
        cnf = tmp_path / "phi.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        base = str(tmp_path / "gart")
        code, report = run_json(capsys, ["reduce", "planar3sat", str(cnf), "--p", "1",
                                         "--out", base])
        assert code == 0
        assert report["verdicts"]["n"] < 280
        code, report = run_json(capsys, ["solution-from-assignment", base, "--tau", "100"])
        assert code == 0
        assert report["verdicts"]["size"] <= 42

    def test_planar3sat_ignores_rot_lines(self, tmp_path, capsys):
        plain = "p cnf 4 2\n1 -2 3 0\n-2 3 4 0\n"
        written = []
        for name, text in (("plain", plain), ("rot", "c rot 1 3 1 2\nc rot 2 2 1 3\n" + plain)):
            cnf = tmp_path / (name + ".cnf")
            cnf.write_text(text)
            base = tmp_path / name
            assert main(["reduce", "planar3sat", str(cnf), "--p", "1", "--out", str(base)]) == 0
            written.append([(tmp_path / (name + ext)).read_bytes()
                            for ext in (".graph", ".roles.json")])
        assert written[0] == written[1]

    def test_old_sidecar_with_rotation_is_not_the_reduction(self, tmp_path, capsys):
        # clause (1, -2, 3) under a former clause rotation (3, 1, 2) was wired
        # as (3, 1, -2); the rotation is no longer read, so the graph is not
        # the reduction of the recorded formula
        cnf = tmp_path / "phi.cnf"
        cnf.write_text("p cnf 3 1\n3 1 -2 0\n")
        base = str(tmp_path / "gart")
        assert main(["reduce", "planar3sat", str(cnf), "--p", "1", "--out", base]) == 0
        sidecar_path = tmp_path / "gart.roles.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["meta"]["formula"] = {"num_vars": 3, "clauses": [[1, -2, 3]],
                                      "rotation": [[3, 1, 2]]}
        sidecar_path.write_text(json.dumps(sidecar, sort_keys=True, indent=1) + "\n")
        capsys.readouterr()
        code = main(["--json", "solution-from-assignment", base, "--tau", "100"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: the graph is not the reduction of meta.formula")

    @pytest.mark.parametrize("drop, solves", [
        ("meta.formula", False), ("kind", False),
        ("meta.formula.num_vars", False), ("planar3sat/meta.p", False),
        # roles and gadget records are annotation: the builders read the rebuilt artifact's
        ("roles", True), ("roles.0", True),
        ("planar3sat/meta.edge_gadgets", True),
        ("planar3sat/meta.forbidden_gadgets", True),
        ("planar3sat/meta.forbidden_gadgets.0", True),
        ("planar3sat/meta.edge_gadgets.0.blue", True),
        ("planar3sat/meta.edge_gadgets.0.red", True),
        ("planar3sat/roles.0.var", True)])
    def test_solution_sidecar_missing_key(self, tmp_path, capsys, drop, solves):
        kind, _, drop = drop.rpartition("/")
        base, sidecar, intact = solved_artifact(tmp_path, capsys, kind or "sat3")
        *path, last = drop.split(".")
        record = sidecar
        for key in path:
            record = record[int(key)] if isinstance(record, list) else record[key]
        del record[int(last) if isinstance(record, list) else last]
        code, captured = solve_edited(capsys, base, sidecar)
        if solves:
            assert code == 0 and answer(captured) == intact
        else:
            assert code == 2 and captured.err.startswith("error:")
            assert json.loads(captured.out)["error"]["kind"] == "input"

    def test_planar3sat_answer_ignores_swapped_blue_and_red(self, tmp_path, capsys):
        base, sidecar, intact = solved_artifact(tmp_path, capsys, "planar3sat")
        record = sidecar["meta"]["edge_gadgets"][0]
        record["blue"], record["red"] = record["red"], record["blue"]
        code, captured = solve_edited(capsys, base, sidecar)
        assert code == 0 and answer(captured) == intact

    @pytest.mark.parametrize("kind", ["sat3", "planar3sat"])
    @pytest.mark.parametrize("field, value", [
        ("num_vars", 3.0), ("clauses", [[1.0, 2, -3]]), ("clauses", [[True, 2, -3]])],
        ids=["float-num-vars", "float-literal", "bool-literal"])
    def test_formula_numbers_must_be_integers(self, tmp_path, capsys, kind, field, value):
        base, sidecar, _ = solved_artifact(tmp_path, capsys, kind)
        sidecar["meta"]["formula"][field] = value
        code, captured = solve_edited(capsys, base, sidecar)
        assert code == 2
        assert captured.err.startswith("error: ") and "is not an integer" in captured.err

    def test_sat3_sidecar_with_other_clauses(self, tmp_path, capsys):
        # the artifact of (1 or 2 or not 3) with its formula's clause edited
        cnf = tmp_path / "phi.cnf"
        cnf.write_text("p cnf 3 1\n1 2 -3 0\n")
        base = str(tmp_path / "art")
        assert main(["reduce", "sat3", str(cnf), "--out", base]) == 0
        sidecar_path = tmp_path / "art.roles.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["meta"]["formula"]["clauses"] = [[1, 2, 3]]
        sidecar_path.write_text(json.dumps(sidecar))
        capsys.readouterr()
        code = main(["--json", "solution-from-assignment", base, "--tau", "110"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: the graph is not the reduction of meta.formula")
        assert json.loads(captured.out)["error"]["kind"] == "input"

    @pytest.mark.parametrize("kind, options, side", [
        ("sat3", [], "independent_side"), ("planar3sat", ["--p", "1"], "deleted")])
    def test_extra_edge_in_the_graph_file_is_input_error(self, tmp_path, capsys,
                                                         kind, options, side):
        cnf = tmp_path / "phi.cnf"
        cnf.write_text("p cnf 3 1\n1 2 -3 0\n")
        base = str(tmp_path / "art")
        assert main(["reduce", kind, str(cnf), "--out", base] + options) == 0
        capsys.readouterr()
        code, report = run_json(capsys, ["solution-from-assignment", base, "--tau", "110"])
        assert code == 0
        # join two vertices of the independent side; the header's count grows by one
        u, v = report["witnesses"][side][:2]
        graph_path = tmp_path / "art.graph"
        g = parse_graph(graph_path.read_text())
        graph_path.write_text(write_graph(Graph(g.n, g.edges + ((u - 1, v - 1),))))
        code = main(["--json", "solution-from-assignment", base, "--tau", "110"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: the graph is not the reduction of meta.formula")
        assert json.loads(captured.out)["error"]["kind"] == "input"

    def test_sat3_graph_file_with_one_edge_moved_is_input_error(self, tmp_path, capsys):
        # the header's counts stay those of the reduction; only one edge differs
        base, _, _ = solved_artifact(tmp_path, capsys, "sat3")
        graph_path = tmp_path / "art.graph"
        g = parse_graph(graph_path.read_text())
        u, _ = g.edges[0]
        w = next(w for w in range(g.n) if w != u and not g.has_edge(u, w))
        moved = Graph(g.n, g.edges[1:] + ((u, w),))
        assert (moved.n, moved.m) == (g.n, g.m)
        graph_path.write_text(write_graph(moved))
        code = main(["--json", "solution-from-assignment", base, "--tau", "110"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: the graph is not the reduction of meta.formula")
        assert json.loads(captured.out)["error"]["kind"] == "input"

    def test_sat3_graph_file_rewritten_in_another_order_solves(self, tmp_path, capsys):
        base, _, intact = solved_artifact(tmp_path, capsys, "sat3")
        graph_path = tmp_path / "art.graph"
        g = parse_graph(graph_path.read_text())
        edges = [(v, u) for u, v in g.edges]
        random.Random(1).shuffle(edges)
        lines = ["c the same graph: edges shuffled, endpoints swapped",
                 "p edge %d %d" % (g.n, g.m)]
        lines += ["e %d %d" % (u + 1, v + 1) for u, v in edges]
        graph_path.write_text("\n".join(lines) + "\n")
        code = main(["--json", "solution-from-assignment", base, "--tau", "110"])
        assert code == 0 and answer(capsys.readouterr()) == intact

    @pytest.mark.parametrize("kind, options", [("sat3", []), ("planar3sat", ["--p", "1"])])
    def test_construction_fault_on_untouched_artifact_is_internal(self, tmp_path, capsys,
                                                                 monkeypatch, kind, options):
        cnf = tmp_path / "phi.cnf"
        cnf.write_text("p cnf 3 1\n1 2 -3 0\n")
        base = str(tmp_path / "art")
        assert main(["reduce", kind, str(cnf), "--out", base] + options) == 0
        capsys.readouterr()
        real = reductions._rechecked

        def faulty(g, a):
            # a builder that also took both ends of an edge: A is not independent
            return real(g, set(a) | set(g.edges[0]))

        monkeypatch.setattr(reductions, "_rechecked", faulty)
        code = main(["--json", "solution-from-assignment", base, "--tau", "110"])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.out)["error"] == {
            "kind": "internal",
            "message": "InternalCheckError: constructed solution failed decomposition_is_valid"}

    def test_planar3sat_rebuild_needs_a_positive_p(self, tmp_path, capsys):
        base, sidecar, _ = solved_artifact(tmp_path, capsys, "planar3sat")
        sidecar["meta"]["p"] = True
        code, captured = solve_edited(capsys, base, sidecar)
        assert code == 2
        assert captured.err == "error: meta.p must be a positive integer, not True\n"

    def test_planar3sat_without_clauses(self, tmp_path, capsys):
        cnf = tmp_path / "phi.cnf"
        cnf.write_text("p cnf 2 0\n")
        base = str(tmp_path / "gart")
        assert main(["reduce", "planar3sat", str(cnf), "--p", "1", "--out", base]) == 0
        capsys.readouterr()
        code, report = run_json(capsys, ["solution-from-assignment", base, "--tau", "10"])
        assert code == 0
        assert report["verdicts"]["size"] == 0

    def test_reduce_over_larger_artifact_equals_fresh_write(self, tmp_path, capsys):
        big = tmp_path / "big.cnf"
        big.write_text("p cnf 4 3\n1 2 -3 0\n-1 3 4 0\n2 -3 -4 0\n")
        small = tmp_path / "small.cnf"
        small.write_text("p cnf 3 1\n1 2 -3 0\n")
        (tmp_path / "fresh").mkdir()
        fresh, reused = str(tmp_path / "fresh" / "art"), str(tmp_path / "art")
        assert main(["reduce", "sat3", str(big), "--out", reused]) == 0
        with open(reused + ".graph", "rb") as fh:
            old = fh.read()
        assert main(["reduce", "sat3", str(small), "--out", reused]) == 0
        assert main(["reduce", "sat3", str(small), "--out", fresh]) == 0
        for ext in (".graph", ".roles.json"):
            with open(fresh + ext, "rb") as a, open(reused + ext, "rb") as b:
                assert a.read() == b.read()
        with open(fresh + ".graph", "rb") as fh:
            assert len(fh.read()) < len(old)

    def test_reduce_onto_directory_is_input_error(self, c5_file, tmp_path, capsys):
        (tmp_path / "art.graph").mkdir()
        assert main(["reduce", "vc", c5_file, "--out", str(tmp_path / "art")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_gen_out_over_existing_file(self, tmp_path, capsys):
        path = tmp_path / "g.graph"
        path.write_text("c an older and much longer file\n" * 50)
        assert main(["gen", "cycle", "--n", "4", "--out", str(path)]) == 0
        assert path.read_text() == write_graph(cycle_graph(4))

    def test_gen_out_into_devices_and_fifos(self, tmp_path, capsys):
        # special files are written into, never unlinked and replaced
        assert main(["gen", "cycle", "--n", "4", "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        link = tmp_path / "null-link"
        link.symlink_to(os.devnull)
        assert main(["gen", "cycle", "--n", "4", "--out", str(link)]) == 0
        assert link.is_symlink() and stat.S_ISCHR(os.stat(os.devnull).st_mode)
        fifo = tmp_path / "g.graph"
        os.mkfifo(fifo)
        # a non-blocking read end lets the writer open at once; the payload
        # fits in the pipe buffer, so nothing waits and nothing can hang
        read_end = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["gen", "cycle", "--n", "4", "--out", str(fifo)]) == 0
            received = os.read(read_end, 1 << 16).decode()
        finally:
            os.close(read_end)
        assert received == write_graph(cycle_graph(4))
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    @pytest.mark.parametrize("reduction, text, args, n", [
        # H_phi has (nv + 14k) * 34k + 17k + 1 vertices
        ("sat3", "p cnf 20000 1\n1 2 3 0", [], (20000 + 14) * 34 + 17 + 1),
        # G_phi_p: nv, 9p + 18 per clause, 30p + 53 per positive literal
        ("planar3sat", "p cnf 3 1\n1 2 3 0\n", ["--p", "2000"], 3 + 18018 + 3 * 60053),
        ("vc", "p edge %d 1\ne 1 2\n" % MAX_GRAPH_VERTICES, [], MAX_GRAPH_VERTICES + 1),
    ], ids=["sat3", "planar3sat", "vc"])
    def test_reduction_over_the_vertex_limit_builds_nothing(self, reduction, text, args, n,
                                                             tmp_path, capsys):
        source = tmp_path / "input"
        source.write_text(text)
        argv = ["reduce", reduction, str(source), *args, "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: the reduction would have %d vertices; the limit is %d\n"
            % (n, MAX_GRAPH_VERTICES))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["input"]

    def test_solution_reads_the_graph_file_once(self, tmp_path, capsys, monkeypatch):
        cnf = tmp_path / "phi.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        base = str(tmp_path / "art")
        assert main(["reduce", "planar3sat", str(cnf), "--p", "1", "--out", base]) == 0
        capsys.readouterr()
        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        code, report = run_json(capsys, ["solution-from-assignment", base, "--tau", "100"])
        monkeypatch.undo()
        assert code == 0 and opened.count(base + ".graph") == 1
        digest = hashlib.sha256((tmp_path / "art.graph").read_bytes()).hexdigest()
        assert report["input_digest"] == digest

    def test_vc_reduction_to_stdout(self, c5_file, capsys):
        code = main(["reduce", "vc", c5_file])
        assert code == 0
        g = parse_graph(capsys.readouterr().out)
        assert g.n == 10 and len(g.edges) == 15

    def test_verify_gadgets(self, capsys):
        code, report = run_json(capsys, ["verify", "gadgets", "--p", "2"])
        assert code == 0
        assert report["verdicts"]["all_ok"]
        assert report["verdicts"]["checks"]["constraint_graph"]["ok"]

    def test_near3_min(self, c5_file, capsys):
        code, report = run_json(capsys, ["near3", c5_file, "--min"])
        assert code == 0
        assert report["verdicts"]["minimum_size"] == 1

    @pytest.mark.parametrize("g", [cycle_graph(5), cycle_graph(7), complete_bipartite(3, 3),
                                   theta_graph(1, 3, 3), path_graph(4)])
    def test_near3_min_reports_the_size_of_the_plain_independent_side(self, g, tmp_path,
                                                                       capsys):
        path = tmp_path / "g.graph"
        path.write_text(write_graph(g))
        code, plain = run_json(capsys, ["near3", str(path)])
        code_min, minimum = run_json(capsys, ["near3", str(path), "--min"])
        assert code == code_min == 0
        side = plain["witnesses"]["independent_side"]
        assert minimum["verdicts"]["minimum_size"] == len(side)
        assert minimum["witnesses"]["independent_set"] == side
        assert minimum["counters"]["nodes"] == plain["counters"]["nodes"] > 0


def gc_paused_call(argv):
    """``main(argv)`` with the cyclic collector off: ``(code, objects gc.collect() then finds)``."""
    enabled = gc.isenabled()
    gc.collect()                          # garbage that fixtures and earlier tests left
    gc.disable()
    try:
        code = main(argv)
        return code, gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestProcessState:
    """main pauses the cyclic collector and shares one parser across calls."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case,code", [("-h", 0), ("stats", 0), ("check2", 1),
                                           ("usage", 2), ("input", 2), ("budget", 3),
                                           ("internal", 4)])
    def test_main_restores_the_gc_state(self, c5_file, c6_file, tmp_path, capsys, monkeypatch,
                                        enabled, case, code):
        argv = {"-h": ["-h"], "stats": ["stats", c5_file], "check2": ["check2", c5_file],
                "usage": ["stats"], "input": ["stats", str(tmp_path / "missing.graph")],
                "budget": ["check2", c6_file, "--oracle", "--budget", "3"],
                "internal": ["stats", c5_file]}[case]
        if case == "internal":
            def handler(args, run):
                raise InternalCheckError("re-check failed")
            monkeypatch.setitem(cli._HANDLERS, "stats", handler)
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(argv) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()

    @pytest.mark.parametrize("argv", [
        ["stats", "{c5}"],
        ["check2", "{c5}"],
        ["check2", "{c5}", "--witness"],
        ["check2", "{c5}", "--oracle", "--witness"],
        ["core", "{c5}"],
        ["near3", "{c5}"],
        ["near3", "{c5}", "--min"],
        ["del2", "{c5}"],
        ["del2", "{c5}", "--exact"],
        ["reduce", "sat3", "{cnf}"],
        ["reduce", "sat3", "{cnf}", "--out", "{tmp}/fresh"],
        ["reduce", "planar3sat", "{cnf}", "--p", "1"],
        ["reduce", "vc", "{c5}"],
        ["solution-from-assignment", "{tmp}/sat3", "--tau", "110"],
        ["solution-from-assignment", "{tmp}/planar3sat", "--tau", "110"],
        ["verify", "gadgets", "--p", "1"],
        ["gen", "gnp", "--n", "12", "--prob", "0.3", "--seed", "5"],
        ["gen", "cycle", "--n", "7", "--out", "{tmp}/c7.graph"],
        ["gen", "theta", "--paths", "1", "2", "3"],
        ["gen", "formula", "--vars", "4", "--clauses", "6", "--seed", "2"],
    ])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_no_command_leaves_cyclic_garbage(self, c5_file, tmp_path, capsys, argv, json_flag):
        cnf = tmp_path / "phi.cnf"
        cnf.write_text("p cnf 3 1\n1 2 -3 0\n")
        for kind, options in (("sat3", []), ("planar3sat", ["--p", "1"])):
            assert main(["reduce", kind, str(cnf), "--out", str(tmp_path / kind)] + options) == 0
        argv = [a.format(c5=c5_file, cnf=cnf, tmp=tmp_path) for a in argv]
        code, garbage = gc_paused_call(json_flag + argv)
        assert code in (0, 1) and garbage == 0

    @pytest.mark.parametrize("argv", [["del2", "--exact"], ["near3"]])
    def test_budget_exceeded_leaves_no_cyclic_garbage(self, tmp_path, capsys, argv):
        # 40 disjoint triangles; each search spends its whole budget
        path = tmp_path / "triangles.graph"
        edges = [(3 * i + a, 3 * i + b) for i in range(40) for a, b in ((0, 1), (0, 2), (1, 2))]
        path.write_text(write_graph(Graph(120, edges)))
        command = ["--json"] + argv[:1] + [str(path)] + argv[1:] + [
            "--budget", "20000", "--cap", "120"]
        assert gc_paused_call(command) == (3, 0)

    @pytest.mark.parametrize("argv,code", [
        # negative verdicts
        (["check2", "{c5}"], 1),
        (["check2", "{c5}", "--oracle"], 1),
        (["--json", "check2", "{c5}"], 1),
        (["near3", "{k5}"], 1),
        (["near3", "{k5}", "--min"], 1),
        # input errors
        (["stats", "{missing}"], 2),
        (["--json", "stats", "{missing}"], 2),
        (["core", "{missing}"], 2),
        (["check2", "{missing}"], 2),
        (["check2", "{missing}", "--oracle"], 2),
        (["near3", "{missing}"], 2),
        (["del2", "{missing}"], 2),
        (["del2", "{missing}", "--exact"], 2),
        (["reduce", "sat3", "{missing}"], 2),
        (["reduce", "planar3sat", "{missing}", "--p", "1"], 2),
        (["reduce", "vc", "{missing}"], 2),
        (["solution-from-assignment", "{missing}", "--tau", "110"], 2),
        (["verify", "gadgets", "--p", "0"], 2),
        (["gen", "gnp", "--n", "5", "--prob", "2", "--seed", "1"], 2),
        (["gen", "cycle", "--n", "2"], 2),
        (["gen", "theta", "--paths", "0", "0", "0"], 2),
        (["gen", "formula", "--vars", "3", "--clauses", "-1", "--seed", "1"], 2),
        # budgets run out
        (["check2", "{c6}", "--oracle", "--budget", "50"], 3),
        (["--json", "check2", "{c6}", "--oracle", "--budget", "50"], 3),
        (["near3", "{c5}", "--budget", "0"], 3),
        (["near3", "{c5}", "--min", "--budget", "0"], 3),
        (["del2", "{c5}", "--exact", "--budget", "0"], 3),
        # usage errors
        ([], 2),
        (["bogus"], 2),
        (["--json", "bogus"], 2),
        (["--json", "check2"], 2),
        (["stats"], 2),
        (["core"], 2),
        (["check2"], 2),
        (["check2", "{c5}", "--budget", "-1"], 2),
        (["near3"], 2),
        (["del2"], 2),
        (["reduce"], 2),
        (["reduce", "sat3"], 2),
        (["solution-from-assignment", "{c5}"], 2),
        (["verify"], 2),
        (["gen"], 2),
        (["gen", "gnp", "--n", "x"], 2),
        # help
        (["-h"], 0),
        (["--json", "-h"], 0),
        (["stats", "-h"], 0),
        (["core", "-h"], 0),
        (["check2", "-h"], 0),
        (["near3", "-h"], 0),
        (["del2", "-h"], 0),
        (["reduce", "-h"], 0),
        (["reduce", "sat3", "-h"], 0),
        (["solution-from-assignment", "-h"], 0),
        (["verify", "gadgets", "-h"], 0),
        (["gen", "-h"], 0),
        (["gen", "gnp", "-h"], 0),
    ])
    def test_no_exit_leaves_cyclic_garbage(self, c5_file, c6_file, tmp_path, capsys, argv,
                                           code):
        # the successes are above; argparse's help formatters sit in reference
        # cycles, so the usage-error and -h exits collect them before returning
        k5 = tmp_path / "k5.graph"
        k5.write_text(write_graph(Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])))
        argv = [a.format(c5=c5_file, c6=c6_file, k5=k5, missing=tmp_path / "missing")
                for a in argv]
        assert gc_paused_call(argv) == (code, 0)

    def test_first_call_leaves_no_cyclic_garbage(self, c5_file):
        # building the parser makes help formatters in reference cycles too
        script = ("import gc, sys; from choosability.cli import main; gc.disable(); "
                  "main(['stats', sys.argv[1]]); n = gc.collect(); "
                  "sys.exit(n and 'garbage: %d' % n)")
        result = subprocess.run([sys.executable, "-c", script, c5_file], capture_output=True,
                                env=dict(os.environ, PYTHONPATH=os.path.dirname(
                                    os.path.dirname(cli.__file__))))
        assert result.returncode == 0, result.stderr

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("bad", [["stats"], ["gen", "gnp", "--n", "x"], ["--json", "bogus"]])
    def test_usage_error_then_valid_call(self, c5_file, capsys, bad):
        assert main(bad) == 2
        capsys.readouterr()
        code, report = run_json(capsys, ["stats", c5_file])
        assert code == 0 and report["verdicts"]["n"] == 5

    def test_options_do_not_carry_over(self, c5_file, capsys):
        code, report = run_json(capsys, ["check2", c5_file, "--witness"])
        assert code == 1 and report["witnesses"]
        assert main(["check2", c5_file]) == 1
        assert capsys.readouterr().out == "not 2-choosable\n"
        code, report = run_json(capsys, ["check2", c5_file])
        assert code == 1 and report["witnesses"] == {}

    def test_defaults_follow_the_module_constants(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "k34.graph"
        path.write_text(write_graph(complete_bipartite(3, 4)))
        command = ["--json", "near3", str(path)]
        assert main(command) in (0, 1)
        monkeypatch.setattr(cli, "DEFAULT_NODE_BUDGET", 5)
        assert main(command) == 3
        assert main(command + ["--budget", "1000"]) in (0, 1)   # an explicit value still wins
        monkeypatch.setattr(cli, "DEFAULT_NEAR3_CAP", 6)
        assert main(command + ["--budget", "1000"]) == 2         # n=7 exceeds cap 6
        assert main(command + ["--budget", "1000", "--cap", "7"]) in (0, 1)
        monkeypatch.undo()
        capsys.readouterr()
        code, report = run_json(capsys, ["near3", str(path)])
        assert code in (0, 1) and report["counters"]["nodes"] > 5

    @pytest.mark.parametrize("argv,code", [(["--json", "core"], 0),
                                           (["--json", "check2", "--witness"], 1)])
    def test_reader_closing_stdout_early(self, tmp_path, argv, code):
        # the report lists all 29,999 vertices, more than a pipe buffer holds;
        # the cycle is odd, so check2 exits 1
        path = tmp_path / "c29999.graph"
        path.write_text(write_graph(cycle_graph(29999)))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.Popen([sys.executable, "-m", "choosability.cli"] + argv + [str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == code
        assert err == b""
