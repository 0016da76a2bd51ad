import json

import pytest

from choosability.cli import main
from choosability.dimacs import parse_graph, write_graph
from choosability.graphs import induced_subgraph
from choosability.recognition import is_2_choosable, is_L_colorable, parse_list_assignment

from conftest import cycle_graph, theta_graph


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

    def test_budget_exceeded(self, c6_file, capsys):
        assert main(["check2", c6_file, "--oracle", "--budget", "3"]) == 3

    def test_near3_infeasible(self, tmp_path, capsys):
        k5 = tmp_path / "k5.graph"
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        from choosability.graphs import Graph
        k5.write_text(write_graph(Graph(5, edges)))
        assert main(["near3", str(k5)]) == 1


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


class TestCore:
    def test_theta_plus_pendant(self, tmp_path, capsys):
        g = theta_graph(2, 2, 4)
        from choosability.graphs import Graph
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

    @pytest.mark.parametrize("drop", ["meta.formula", "kind", "roles"])
    def test_solution_sidecar_missing_key(self, tmp_path, capsys, drop):
        cnf = tmp_path / "phi.cnf"
        cnf.write_text("p cnf 3 1\n1 2 -3 0\n")
        base = str(tmp_path / "art")
        assert main(["reduce", "sat3", str(cnf), "--out", base]) == 0
        sidecar_path = tmp_path / "art.roles.json"
        sidecar = json.loads(sidecar_path.read_text())
        if drop == "meta.formula":
            del sidecar["meta"]["formula"]
        else:
            del sidecar[drop]
        sidecar_path.write_text(json.dumps(sidecar))
        capsys.readouterr()
        assert main(["solution-from-assignment", base, "--tau", "110"]) == 2
        assert "error:" in capsys.readouterr().err

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
