"""Command-line surface tying the toolkit together.

Exit codes: 0 success, 1 negative verdict on a decision query, 2 usage or
input error, 3 node-expansion budget exceeded.  ``--json`` replaces the
human-readable output with a machine-readable report; identical arguments,
inputs and seeds give byte-identical reports except for the runtime counter.
"""

import argparse
import hashlib
import json
import sys
import time

from . import __version__
from .approx import approx_2_del
from .dimacs import (ParseError, parse_dimacs_cnf, parse_graph, read_artifact,
                     write_artifact, write_dimacs_cnf, write_graph)
from .errors import Budget, BudgetExceededError
from .exact import min_2_del_exact, min_near_3, near_3_decide
from .generators import gen_cycle, gen_formula, gen_gnp, gen_theta
from .graphs import (CountedMultiGraph, diameter, is_bipartite,
                     is_triangle_free, shortest_cycle)
from .recognition import (classify_core, compute_core, format_list_assignment,
                          is_2_choosable, is_k_choosable_exhaustive)
from .reductions import (build_G_phi_p, build_H_phi, build_forbidden_gadget,
                         build_clause_gadget_planar, build_edge_gadget,
                         constraint_graph_P, decomposition_from_assignment,
                         deletion_set_from_assignment, triangle_reduction,
                         verify_lemma_2_2)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="choosability",
        description="2-choosability toolkit: recognition, deletion solvers, reductions")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="basic structure of a graph file")
    p.add_argument("graph")

    p = sub.add_parser("core", help="iterated degree-1 deletion and classification")
    p.add_argument("graph")

    p = sub.add_parser("check2", help="decide 2-choosability")
    p.add_argument("graph")
    p.add_argument("--oracle", action="store_true",
                   help="use the exhaustive list-assignment oracle")
    p.add_argument("--witness", action="store_true", help="print the witness")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--cap", type=int, default=None, help="oracle size cap override")

    p = sub.add_parser("near3", help="near-3-choosable decomposition")
    p.add_argument("graph")
    p.add_argument("--min", action="store_true", dest="minimize",
                   help="minimize the independent deleted set")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--cap", type=int, default=25)

    p = sub.add_parser("del2", help="2-choosable deletion set")
    p.add_argument("graph")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--cap", type=int, default=20)

    p = sub.add_parser("reduce", help="build a reduction artifact")
    red = p.add_subparsers(dest="reduction", required=True)
    r = red.add_parser("sat3", help="satisfiability to near-3-choosability")
    r.add_argument("cnf")
    r.add_argument("--out", default=None, help="write <out>.graph and <out>.roles.json")
    r = red.add_parser("planar3sat", help="planar satisfiability to deletion gadgets")
    r.add_argument("cnf")
    r.add_argument("--p", type=int, required=True, help="petal parameter")
    r.add_argument("--out", default=None)
    r = red.add_parser("vc", help="vertex cover to 2-choosable deletion")
    r.add_argument("graph")
    r.add_argument("--out", default=None)

    p = sub.add_parser("solution-from-assignment",
                       help="derive a validated solution from a truth assignment")
    p.add_argument("artifact", help="artifact base path (without extension)")
    p.add_argument("--tau", required=True, help="assignment bits, e.g. 101")

    p = sub.add_parser("verify", help="run construction verifiers")
    ver = p.add_subparsers(dest="verification", required=True)
    v = ver.add_parser("gadgets", help="constraint graph and gadget invariants")
    v.add_argument("--p", type=int, default=1)

    p = sub.add_parser("gen", help="deterministic generators")
    gen = p.add_subparsers(dest="generator", required=True)
    g = gen.add_parser("gnp")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--prob", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", default=None)
    g = gen.add_parser("cycle")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out", default=None)
    g = gen.add_parser("theta")
    g.add_argument("--paths", type=int, nargs=3, required=True, metavar=("A", "B", "C"))
    g.add_argument("--out", default=None)
    g = gen.add_parser("formula")
    g.add_argument("--vars", type=int, required=True)
    g.add_argument("--clauses", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", default=None)
    return parser


def _digest(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _read(path):
    with open(path) as fh:
        return fh.read()


def _ids(vertices):
    return [v + 1 for v in vertices]


class _Run:
    """Collects report fields while a command executes."""

    def __init__(self, argv):
        self.report = {
            "version": __version__,
            "command": argv,
            "input_digest": None,
            "verdicts": {},
            "witnesses": {},
            "counters": {"nodes": 0, "runtime_ms": 0.0},
        }
        self.lines = []
        self.exit_code = 0

    def verdict(self, key, value):
        self.report["verdicts"][key] = value

    def witness(self, key, value):
        self.report["witnesses"][key] = value

    def say(self, text):
        self.lines.append(text)


def _cmd_stats(args, run):
    text = _read(args.graph)
    run.report["input_digest"] = _digest(text)
    g = parse_graph(text)
    run.verdict("n", g.n)
    run.verdict("m", len(g.edges))
    bip, bw = is_bipartite(g)
    run.verdict("bipartite", bip)
    if not bip:
        run.witness("odd_cycle", _ids(bw))
    tf, tw = is_triangle_free(g)
    run.verdict("triangle_free", tf)
    if not tf:
        run.witness("triangle", _ids(tw))
    d = diameter(g)
    run.verdict("diameter", "disconnected" if d is None else d)
    cyc = shortest_cycle(CountedMultiGraph.from_graph(g))
    run.verdict("girth", "acyclic" if cyc is None else len(cyc))
    if cyc is not None:
        run.witness("girth_cycle", _ids(cyc))
    run.say("n=%d m=%d bipartite=%s triangle-free=%s diameter=%s girth=%s" % (
        g.n, len(g.edges), bip, tf, run.report["verdicts"]["diameter"],
        run.report["verdicts"]["girth"]))


def _cmd_core(args, run):
    text = _read(args.graph)
    run.report["input_digest"] = _digest(text)
    g = parse_graph(text)
    core, kept = compute_core(g)
    run.verdict("core_size", core.n)
    run.witness("kept", _ids(kept))
    comps = []
    for verdict in classify_core(core):
        comps.append({"kind": verdict.kind, "m": verdict.m,
                      "vertices": _ids(sorted(kept[v] for v in verdict.vertices))})
    run.verdict("components", comps)
    run.say("core has %d vertices; components: %s" % (
        core.n, ", ".join(c["kind"] for c in comps) or "none"))


def _cmd_check2(args, run):
    text = _read(args.graph)
    run.report["input_digest"] = _digest(text)
    g = parse_graph(text)
    if args.oracle:
        bud = Budget(args.budget)
        ok, bad = is_k_choosable_exhaustive(g, 2, budget=bud, cap=args.cap)
        run.report["counters"]["nodes"] = bud.used
        if not ok and args.witness:
            run.witness("bad_list_assignment", format_list_assignment(bad))
    else:
        ok, comp = is_2_choosable(g)
        if not ok and args.witness:
            run.witness("offending_component", _ids(comp))
    run.verdict("two_choosable", ok)
    run.say("2-choosable" if ok else "not 2-choosable")
    if not ok:
        run.exit_code = 1


def _cmd_near3(args, run):
    text = _read(args.graph)
    run.report["input_digest"] = _digest(text)
    g = parse_graph(text)
    bud = Budget(args.budget)
    if args.minimize:
        result = min_near_3(g, budget=bud, cap=args.cap)
        run.report["counters"]["nodes"] = bud.used
        if result is None:
            run.verdict("near_3_choosable", False)
            run.say("no independent set works")
            run.exit_code = 1
        else:
            size, a = result
            run.verdict("near_3_choosable", True)
            run.verdict("minimum_size", size)
            run.witness("independent_set", _ids(a))
            run.say("minimum independent deleted set has size %d: %s" % (size, _ids(a)))
    else:
        decomp = near_3_decide(g, budget=bud, cap=args.cap)
        run.report["counters"]["nodes"] = bud.used
        if decomp is None:
            run.verdict("near_3_choosable", False)
            run.say("not near-3-choosable")
            run.exit_code = 1
        else:
            run.verdict("near_3_choosable", True)
            run.witness("independent_side", _ids(decomp.a))
            run.witness("remainder", _ids(decomp.b))
            run.say("decomposition found; independent side %s" % _ids(decomp.a))


def _cmd_del2(args, run):
    text = _read(args.graph)
    run.report["input_digest"] = _digest(text)
    g = parse_graph(text)
    if args.exact:
        bud = Budget(args.budget)
        size, a = min_2_del_exact(g, budget=bud, cap=args.cap)
        run.report["counters"]["nodes"] = bud.used
        run.verdict("size", size)
        run.witness("deleted", _ids(a))
        run.say("minimum deletion set has size %d: %s" % (size, _ids(a)))
    else:
        a = approx_2_del(g)
        run.verdict("size", len(a))
        run.witness("deleted", _ids(a))
        run.say("deletion set of size %d: %s" % (len(a), _ids(a)))


def _cmd_reduce(args, run):
    if args.reduction == "sat3":
        text = _read(args.cnf)
        art = build_H_phi(parse_dimacs_cnf(text))
    elif args.reduction == "planar3sat":
        text = _read(args.cnf)
        art = build_G_phi_p(parse_dimacs_cnf(text), args.p)
    else:
        text = _read(args.graph)
        art = triangle_reduction(parse_graph(text))
    run.report["input_digest"] = _digest(text)
    run.verdict("kind", art.kind)
    run.verdict("n", art.graph.n)
    run.verdict("m", len(art.graph.edges))
    if args.out:
        graph_path, sidecar_path = write_artifact(art, args.out)
        run.verdict("graph_file", graph_path)
        run.verdict("sidecar_file", sidecar_path)
        run.say("wrote %s and %s (n=%d, m=%d)" % (
            graph_path, sidecar_path, art.graph.n, len(art.graph.edges)))
    else:
        run.say(write_graph(art.graph).rstrip("\n"))


def _cmd_solution(args, run):
    art = read_artifact(args.artifact)
    run.report["input_digest"] = _digest(_read(args.artifact + ".graph"))
    if not args.tau or set(args.tau) - {"0", "1"}:
        raise ValueError("--tau must be a non-empty string of 0s and 1s")
    tau = [ch == "1" for ch in args.tau]
    if art.kind not in ("sat3", "planar3sat"):
        raise ValueError("artifact kind %r has no assignment-driven solution" % art.kind)
    if "formula" not in art.meta:
        raise ParseError("%s.roles.json: %s sidecar has no meta.formula"
                         % (args.artifact, art.kind))
    if art.kind == "sat3":
        decomp = decomposition_from_assignment(art, tau)
        run.verdict("kind", "decomposition")
        run.verdict("independent_side_size", len(decomp.a))
        run.witness("independent_side", _ids(decomp.a))
        run.say("valid decomposition; |A|=%d |B|=%d" % (len(decomp.a), len(decomp.b)))
    else:
        a = deletion_set_from_assignment(art, tau)
        run.verdict("kind", "deletion-set")
        run.verdict("size", len(a))
        run.witness("deleted", _ids(a))
        run.say("valid independent deletion set of size %d" % len(a))


def _cmd_verify(args, run):
    report = verify_lemma_2_2(constraint_graph_P())
    checks = {"constraint_graph": report}
    p = args.p
    gadgets = {}
    forb = build_forbidden_gadget(p)
    gadgets["forbidden"] = {
        "n": forb.graph.n, "expected_n": 3 * p + 5,
        "two_choosable": is_2_choosable(forb.graph)[0],
        "bipartite": is_bipartite(forb.graph)[0],
    }
    clause = build_clause_gadget_planar(p)
    gadgets["clause"] = {
        "n": clause.graph.n, "expected_n": 9 * p + 18,
        "two_choosable": is_2_choosable(clause.graph)[0],
        "bipartite": is_bipartite(clause.graph)[0],
    }
    for kind in ("positive", "negative"):
        art = build_edge_gadget(kind, p)
        gadgets[kind + "_edge"] = {
            "n": art.graph.n, "max_owned": 84 * p,
            "owned": art.graph.n - 1,
            "two_choosable": is_2_choosable(art.graph)[0],
            "bipartite": is_bipartite(art.graph)[0],
        }
    ok = (report["ok"]
          and gadgets["forbidden"]["n"] == gadgets["forbidden"]["expected_n"]
          and gadgets["clause"]["n"] == gadgets["clause"]["expected_n"]
          and all(not rec["two_choosable"] and rec["bipartite"] for rec in gadgets.values())
          and all(rec["owned"] <= rec["max_owned"] for key, rec in gadgets.items()
                  if key.endswith("_edge")))
    checks["gadgets"] = gadgets
    run.verdict("all_ok", ok)
    run.verdict("checks", checks)
    run.say("all gadget checks passed (p=%d)" % p if ok else "GADGET CHECKS FAILED")
    if not ok:
        run.exit_code = 1


def _cmd_gen(args, run):
    if args.generator == "gnp":
        payload = write_graph(gen_gnp(args.n, args.prob, args.seed))
        params = "gnp n=%d prob=%r seed=%d" % (args.n, args.prob, args.seed)
    elif args.generator == "cycle":
        payload = write_graph(gen_cycle(args.n))
        params = "cycle n=%d" % args.n
    elif args.generator == "theta":
        payload = write_graph(gen_theta(*args.paths))
        params = "theta paths=%s" % (tuple(args.paths),)
    else:
        payload = write_dimacs_cnf(gen_formula(args.vars, args.clauses, args.seed))
        params = "formula vars=%d clauses=%d seed=%d" % (args.vars, args.clauses, args.seed)
    run.report["input_digest"] = _digest(params)
    run.verdict("output_digest", _digest(payload))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        run.verdict("file", args.out)
        run.say("wrote %s" % args.out)
    else:
        run.say(payload.rstrip("\n"))


_HANDLERS = {
    "stats": _cmd_stats,
    "core": _cmd_core,
    "check2": _cmd_check2,
    "near3": _cmd_near3,
    "del2": _cmd_del2,
    "reduce": _cmd_reduce,
    "solution-from-assignment": _cmd_solution,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    run = _Run(list(argv))
    started = time.perf_counter()
    try:
        _HANDLERS[args.command](args, run)
    except BudgetExceededError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    run.report["counters"]["runtime_ms"] = round(
        (time.perf_counter() - started) * 1000.0, 3)
    if args.json:
        print(json.dumps(run.report, sort_keys=True, separators=(",", ":")))
    else:
        for line in run.lines:
            print(line)
    return run.exit_code


if __name__ == "__main__":
    sys.exit(main())
