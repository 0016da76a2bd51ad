"""Command-line surface tying the toolkit together.

Exit codes: 0 success, 1 negative verdict on a decision query, 2 usage or
input error, 3 node-expansion budget exceeded, 4 internal error (a failed
self-check or any other unexpected exception).  ``--json`` replaces the
human-readable output with a machine-readable report; identical arguments,
inputs and seeds give byte-identical reports except for the runtime counter.
With ``--json`` before the command, exits 2, 3 and 4 print
``{"error": {"kind", "message"}}`` on stdout instead (kind ``usage`` for an
argument error that argparse finds, a negative ``--budget`` or ``--cap``
among them, ``input``, ``budget`` or ``internal``; a budget error also
carries the search's ``stats``); stderr is the same either way.  A reader
that closes stdout early ends the output quietly: the exit code stays the
command's own.

``main`` pauses the cyclic garbage collector for the length of one command
and restores the caller's setting on every exit path.  A command allocates
hundreds of thousands of tuples and lists while it loads a graph of tens of
thousands of edges, none of them in a reference cycle, so reference counting
frees them all; the collector only traversed them.  In one pass of the
benchmark's ``pipeline`` workload (30 commands) it ran 1,649 young, 149
middle and 10 full collections, about 0.25 s of a 1.7 s pass, and the only
cyclic garbage they found was the argument parser, which is now built once
per process; with the pause the pass runs none.  The pause is process-wide: other threads of a program that
calls ``main`` run without cyclic collection until it returns.
"""

import argparse
import functools
import gc
import hashlib
import json
import os
import sys
import time

from . import __version__
from .approx import approx_2_del
from .dimacs import (_read_artifact, _write_new_file, parse_dimacs_cnf, parse_graph,
                     write_artifact, write_dimacs_cnf, write_graph)
from .errors import Budget, BudgetExceededError
from .exact import (DEFAULT_DEL_CAP, DEFAULT_NEAR3_CAP, DEFAULT_NODE_BUDGET,
                    min_2_del_exact, near_3_decide)
from .generators import gen_cycle, gen_formula, gen_gnp, gen_theta
from .graphs import diameter, is_bipartite, is_triangle_free, shortest_cycle
from .recognition import (classify_core, format_list_assignment,
                          is_2_choosable, is_k_choosable_exhaustive)
from .reductions import (build_G_phi_p, build_H_phi, build_forbidden_gadget,
                         build_clause_gadget_planar, build_edge_gadget,
                         constraint_graph_P, decomposition_from_assignment,
                         deletion_set_from_assignment, triangle_reduction,
                         verify_lemma_2_2)


class _UsageError(Exception):
    """An argument error that argparse found; its usage text is already on stderr."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """Print the usage text as argparse does, then raise _UsageError, not SystemExit."""
        try:
            super().error(message)
        except SystemExit:
            raise _UsageError(message) from None


def _non_negative_int(text):
    """The argparse type of ``--budget`` and ``--cap``: an int of 0 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("invalid non-negative int value: %r" % text)
    return value


@functools.cache
def build_parser():
    """The command-line parser, built on the first call and shared after it.

    Each ``main`` call parses into a fresh namespace, so no call sees a value
    left by an earlier one.  An option whose default is a module constant
    defaults to None here and takes the constant when its handler runs.
    """
    parser = _ArgumentParser(
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
    p.add_argument("--budget", type=_non_negative_int, default=None)
    p.add_argument("--cap", type=_non_negative_int, default=None, help="oracle size cap override")

    p = sub.add_parser("near3", help="near-3-choosable decomposition")
    p.add_argument("graph")
    p.add_argument("--min", action="store_true", dest="minimize",
                   help="report the minimum independent deleted set and its size")
    p.add_argument("--budget", type=_non_negative_int, default=None,
                   help="node budget (default %d)" % DEFAULT_NODE_BUDGET)
    p.add_argument("--cap", type=_non_negative_int, default=None,
                   help="size cap (default %d)" % DEFAULT_NEAR3_CAP)

    p = sub.add_parser("del2", help="2-choosable deletion set")
    p.add_argument("graph")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--budget", type=_non_negative_int, default=None,
                   help="node budget of --exact (default %d)" % DEFAULT_NODE_BUDGET)
    p.add_argument("--cap", type=_non_negative_int, default=None,
                   help="size cap of --exact (default %d)" % DEFAULT_DEL_CAP)

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


def _load_graph(path, run):
    """Parse the graph file at ``path`` and record its digest in the report."""
    text = _read(path)
    run.report["input_digest"] = _digest(text)
    return parse_graph(text)


def _ids(vertices):
    return [v + 1 for v in vertices]


def _or_default(value, default):
    """An option's value, or ``default`` when it was left out (see ``build_parser``)."""
    return default if value is None else value


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
    g = _load_graph(args.graph, run)
    run.verdict("n", g.n)
    run.verdict("m", g.m)
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
    cyc = shortest_cycle(g)
    run.verdict("girth", "acyclic" if cyc is None else len(cyc))
    if cyc is not None:
        run.witness("girth_cycle", _ids(cyc))
    run.say("n=%d m=%d bipartite=%s triangle-free=%s diameter=%s girth=%s" % (
        g.n, g.m, bip, tf, run.report["verdicts"]["diameter"],
        run.report["verdicts"]["girth"]))


def _cmd_core(args, run):
    g = _load_graph(args.graph, run)
    verdicts = classify_core(g)
    kept = sorted(v for verdict in verdicts for v in verdict.vertices)
    run.verdict("core_size", len(kept))
    run.witness("kept", _ids(kept))
    comps = [{"kind": verdict.kind, "m": verdict.m, "vertices": _ids(verdict.vertices)}
             for verdict in verdicts]
    run.verdict("components", comps)
    run.say("core has %d vertices; components: %s" % (
        len(kept), ", ".join(c["kind"] for c in comps) or "none"))


def _cmd_check2(args, run):
    g = _load_graph(args.graph, run)
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
    g = _load_graph(args.graph, run)
    bud = Budget(_or_default(args.budget, DEFAULT_NODE_BUDGET))
    decomp = near_3_decide(g, budget=bud, cap=_or_default(args.cap, DEFAULT_NEAR3_CAP))
    run.report["counters"]["nodes"] = bud.used
    run.verdict("near_3_choosable", decomp is not None)
    if decomp is None:
        run.say("no independent set works" if args.minimize else "not near-3-choosable")
        run.exit_code = 1
    elif args.minimize:
        # near_3_decide's A is min_near_3's optimum, so its size is the minimum
        run.verdict("minimum_size", len(decomp.a))
        run.witness("independent_set", _ids(decomp.a))
        run.say("minimum independent deleted set has size %d: %s" % (
            len(decomp.a), _ids(decomp.a)))
    else:
        run.witness("independent_side", _ids(decomp.a))
        run.witness("remainder", _ids(decomp.b))
        run.say("decomposition found; independent side %s" % _ids(decomp.a))


def _cmd_del2(args, run):
    g = _load_graph(args.graph, run)
    if args.exact:
        bud = Budget(_or_default(args.budget, DEFAULT_NODE_BUDGET))
        size, a = min_2_del_exact(g, budget=bud, cap=_or_default(args.cap, DEFAULT_DEL_CAP))
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
    run.verdict("m", art.graph.m)
    if args.out:
        graph_path, sidecar_path = write_artifact(art, args.out)
        run.verdict("graph_file", graph_path)
        run.verdict("sidecar_file", sidecar_path)
        run.say("wrote %s and %s (n=%d, m=%d)" % (
            graph_path, sidecar_path, art.graph.n, art.graph.m))
    else:
        run.say(write_graph(art.graph).rstrip("\n"))


def _cmd_solution(args, run):
    art, text = _read_artifact(args.artifact)
    run.report["input_digest"] = _digest(text)
    if not args.tau or set(args.tau) - {"0", "1"}:
        raise ValueError("--tau must be a non-empty string of 0s and 1s")
    tau = [ch == "1" for ch in args.tau]
    if art.kind == "sat3":
        decomp = decomposition_from_assignment(art, tau)
        run.verdict("kind", "decomposition")
        run.verdict("independent_side_size", len(decomp.a))
        run.witness("independent_side", _ids(decomp.a))
        run.say("valid decomposition; |A|=%d |B|=%d" % (len(decomp.a), len(decomp.b)))
    elif art.kind == "planar3sat":
        a = deletion_set_from_assignment(art, tau)
        run.verdict("kind", "deletion-set")
        run.verdict("size", len(a))
        run.witness("deleted", _ids(a))
        run.say("valid independent deletion set of size %d" % len(a))
    else:
        raise ValueError("artifact kind %r has no assignment-driven solution" % art.kind)


def _cmd_verify(args, run):
    report = verify_lemma_2_2(constraint_graph_P())
    p = args.p
    gadgets, ok = {}, report["ok"]
    for key, art in (("forbidden", build_forbidden_gadget(p)),
                     ("clause", build_clause_gadget_planar(p)),
                     ("positive_edge", build_edge_gadget("positive", p)),
                     ("negative_edge", build_edge_gadget("negative", p))):
        g = art.graph
        rec = gadgets[key] = {"n": g.n, "two_choosable": is_2_choosable(g)[0],
                              "bipartite": is_bipartite(g)[0]}
        if key.endswith("_edge"):
            rec.update(owned=g.n - 1, max_owned=84 * p)
            size_ok = rec["owned"] <= rec["max_owned"]
        else:
            rec["expected_n"] = 3 * p + 5 if key == "forbidden" else 9 * p + 18
            size_ok = g.n == rec["expected_n"]
        ok = ok and size_ok and not rec["two_choosable"] and rec["bipartite"]
    run.verdict("all_ok", ok)
    run.verdict("checks", {"constraint_graph": report, "gadgets": gadgets})
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
        _write_new_file(args.out, payload)
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


def _emit(lines):
    """Print ``lines`` on stdout; if the reader has closed it, drop them quietly."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull,
        # as the Python docs' note on SIGPIPE advises, so that flush does not raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _error_exit(args, code, kind, message, **details):
    """Return exit ``code``; with ``--json`` first print the error as a JSON line."""
    if args.json:
        body = dict(details, kind=kind, message=message)
        _emit([json.dumps({"error": body}, sort_keys=True, separators=(",", ":"))])
    return code


def main(argv=None):
    """Run one command and return its exit code, with the cyclic collector paused."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(sys.argv[1:] if argv is None else argv)
    finally:
        if gc_was_enabled:
            gc.enable()


def _main(argv):
    args = argparse.Namespace()           # holds --json even when parsing fails after it
    try:
        build_parser().parse_args(argv, args)
    except _UsageError as exc:
        return _error_exit(args, 2, "usage", str(exc))
    except SystemExit as exc:             # -h
        return 2 if exc.code not in (0, None) else 0
    run = _Run(list(argv))
    started = time.perf_counter()
    try:
        _HANDLERS[args.command](args, run)
    except BudgetExceededError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return _error_exit(args, 3, "budget", str(exc), stats=exc.stats)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _error_exit(args, 2, "input", str(exc))
    except Exception as exc:              # a bug, never bad input: report it with its traceback
        import traceback                  # imported here so that runs without a bug never load it
        message = "%s: %s" % (type(exc).__name__, exc)
        print("internal error: %s" % message, file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return _error_exit(args, 4, "internal", message)
    run.report["counters"]["runtime_ms"] = round(
        (time.perf_counter() - started) * 1000.0, 3)
    if args.json:
        _emit([json.dumps(run.report, sort_keys=True, separators=(",", ":"))])
    else:
        _emit(run.lines)
    return run.exit_code


if __name__ == "__main__":
    sys.exit(main())
