"""The three workloads: their jobs, their inputs and the checks on their answers.

A workload function receives the freshly imported package, the seed, the
scale ("full" or "tiny"), a scratch directory and a ``SetupClock``, and
returns its job list; every package call it makes while building the jobs
goes through the clock.
Each job is called with a node-counting budget and returns its raw answer;
``check`` sees that answer outside the timed region and returns None or a
``(code, detail)`` failure.  Checks reach their verdict through
``reference`` or through package functions other than the one the job
timed.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import time

import inputs
import reference

#: node-expansion cap per job; a job that needs more is counted as failed
NODE_LIMIT = 5_000_000

#: brute-force budgets for the reference optima (ratio and optimality checks)
HEURISTIC_BRUTE_BUDGET = 2_000
EXACT_BRUTE_BUDGET = 200_000

#: fixed subset of the 156 isomorphism classes on six vertices for the oracle:
#: one 2-choosable class (which needs the full enumeration) and the slowest
#: non-2-choosable classes, plus three that fail at once
ORACLE_CLASSES = (
    ("k23-plus-k1", ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
    ("k24", ((0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5))),
    ("bipartite-7-edges", ((0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4))),
    ("k33-minus-edge", ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4))),
    ("k33", ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))),
    ("triangle-path", ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5))),
    ("k4-plus-edge", ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5))),
    ("wheel-c5", ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                  (5, 0), (5, 1), (5, 2), (5, 3), (5, 4))),
)


class SetupClock:
    """Adds up the time of the package calls made during set-up."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds += time.perf_counter() - start


class Job:
    """One closed-loop request: ``call(budget)`` is timed, the rest is not."""

    def __init__(self, name, layer, call, check, size=None, canon=None, rung=None):
        self.name = name
        self.layer = layer
        self.call = call
        self.check = check
        self.size = size or (lambda answer: 0)
        self.canon = canon or (lambda answer: answer)
        self.rung = rung
        self.corrupt = None


# ---------------------------------------------------------------------------
# pipeline: cli.main on files
# ---------------------------------------------------------------------------

def run_cli(pkg, argv):
    """Call ``cli.main`` in-process with its output captured; returns (code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pkg.cli.main(list(argv))
    return code, out.getvalue()


def _report(answer):
    code, text = answer
    return code, json.loads(text)


def _parse_graph_file(path):
    """Minimal reader of the edge-list format, independent of the package's parser."""
    n, edges = 0, []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts and parts[0] == "p":
                n = int(parts[2])
            elif parts and parts[0] == "e":
                edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
    return n, edges


class _References:
    """Reference core classifications, computed once per distinct graph."""

    def __init__(self):
        self._cache = {}

    def of_file(self, path):
        """Reference for a file the package wrote, keyed by its content."""
        with open(path, "rb") as fh:
            key = hashlib.sha256(fh.read()).hexdigest()
        if key not in self._cache:
            self.of_graph(key, *_parse_graph_file(path))
        return self._cache[key]

    def of_graph(self, key, n, edges):
        if key not in self._cache:
            self._cache[key] = (n, edges, reference.core_components(n, edges))
        return self._cache[key]


def _components_of(report):
    return sorted(((c["kind"], c["m"], tuple(v - 1 for v in c["vertices"]))
                   for c in report["verdicts"]["components"]), key=lambda c: c[2])


def pipeline(pkg, seed, scale, workdir, clock):
    tiny = scale == "tiny"
    refs = _References()
    jobs = []

    def path(name):
        return os.path.join(workdir, name)

    def canon(answer):
        code, text = answer
        text = text.replace(workdir, "<dir>")
        try:
            report = json.loads(text)
        except ValueError:
            return [code, text]
        report["counters"].pop("runtime_ms", None)
        return [code, report]

    def cli_job(name, argv, check, size=None, rung=None):
        argv = ["--json"] + list(argv)
        jobs.append(Job(name, "cli.main", lambda budget: run_cli(pkg, argv), check,
                        size=size, canon=canon, rung=rung))

    def expect_core(graph_ref):
        def check(answer):
            code, report = _report(answer)
            _, _, comps = graph_ref()
            if code != 0:
                return "exit-code", "core exited %d" % code
            if _components_of(report) != comps:
                return "verdict", "core components differ from the reference"
            return None
        return check

    def expect_check2(graph_ref):
        def check(answer):
            code, report = _report(answer)
            _, _, comps = graph_ref()
            outside = {c[2] for c in comps if c[0] == "outside"}
            ok = not outside
            if code != (0 if ok else 1) or report["verdicts"]["two_choosable"] != ok:
                return "verdict", "check2 said %s (exit %d), reference %s" % (
                    report["verdicts"]["two_choosable"], code, ok)
            witness = report["witnesses"].get("offending_component")
            if witness is not None and tuple(v - 1 for v in witness) not in outside:
                return "witness", "offending component is not an outside core component"
            return None
        return check

    def expect_solution(base, key):
        def check(answer):
            code, report = _report(answer)
            if code != 0:
                return "exit-code", "solution-from-assignment exited %d" % code
            n, edges, _ = refs.of_file(base + ".graph")
            chosen = [v - 1 for v in report["witnesses"][key]]
            if not reference.is_independent(edges, chosen):
                return "invalid", "returned set is not independent"
            if not reference.two_choosable(*reference.remainder_edges(n, edges, chosen)):
                return "invalid", "remainder is not 2-choosable"
            return None
        return check

    def solution_size(key):
        return lambda answer: len(_report(answer)[1]["witnesses"][key])

    def expect_reduce(n, m):
        def check(answer):
            code, report = _report(answer)
            got = (code, report["verdicts"]["n"], report["verdicts"]["m"])
            if got != (0, n, m):
                return "verdict", "reduce gave (exit, n, m) = %s, expected %s" % (got, (0, n, m))
            return None
        return check

    def write(name, text):
        with open(path(name), "w") as fh:
            fh.write(text)
        return path(name)

    def formula(stream, num_vars, num_clauses):
        rng = inputs.seeded(seed, "pipeline", stream)
        while True:
            clauses = inputs.formula(num_vars, num_clauses, rng)
            tau = inputs.satisfying_assignment(num_vars, clauses)
            if tau is not None:
                return clauses, tau, rng

    # satisfiability graphs (reduce sat3) and their read paths
    for i, (nv, k) in enumerate([(3, 1)] if tiny else [(3, 1), (4, 2)]):
        clauses, tau, _ = formula("sat3-%d" % i, nv, k)
        cnf = write("sat3-%d.cnf" % i, inputs.cnf_text(nv, clauses))
        base = path("sat3-%d" % i)
        rows, p = nv + 14 * k, 17 * k
        n = rows * 2 * p + p + 1
        m = rows * p * (p - 1) + 2 * p * rows + p + 31 * k
        graph_ref = functools.partial(refs.of_file, base + ".graph")
        cli_job("reduce/sat3-%d" % i, ["reduce", "sat3", cnf, "--out", base], expect_reduce(n, m))
        cli_job("check2/sat3-%d" % i, ["check2", base + ".graph"], expect_check2(graph_ref))
        cli_job("core/sat3-%d" % i, ["core", base + ".graph"], expect_core(graph_ref))
        cli_job("solution/sat3-%d" % i, ["solution-from-assignment", base, "--tau", tau],
                expect_solution(base, "independent_side"), size=solution_size("independent_side"))

    # planar gadget graphs (reduce planar3sat), half of them with clause rotations
    planar = [(4, 3, 1)] if tiny else [(6, 8, 1), (6, 8, 2), (8, 12, 2), (8, 12, 3)]
    for i, (nv, k, p) in enumerate(planar):
        clauses, tau, rng = formula("planar-%d" % i, nv, k)
        rotations = None
        if i % 2:
            rotations = [tuple(rng.sample((1, 2, 3), 3)) for _ in clauses]
        cnf = write("planar-%d.cnf" % i, inputs.cnf_text(nv, clauses, rotations))
        base = path("planar-%d" % i)
        forbidden_n, forbidden_m = 3 * p + 4, 4 * p + 5
        n = nv + k * (6 + 3 * forbidden_n)
        m = k * (7 + 3 * forbidden_m)
        for lit in (lit for c in clauses for lit in c):
            blacks = 10 if lit > 0 else 4
            n += (13 if lit > 0 else 4) + blacks * forbidden_n
            m += (21 if lit > 0 else 7) + blacks * forbidden_m
        graph_ref = functools.partial(refs.of_file, base + ".graph")
        cli_job("reduce/planar-%d" % i, ["reduce", "planar3sat", cnf, "--p", str(p), "--out", base],
                expect_reduce(n, m))
        cli_job("check2/planar-%d" % i, ["check2", base + ".graph"], expect_check2(graph_ref))
        cli_job("solution/planar-%d" % i, ["solution-from-assignment", base, "--tau", tau],
                expect_solution(base, "deleted"), size=solution_size("deleted"))

    def expect_gadgets(answer):
        code, report = _report(answer)
        if code != 0 or report["verdicts"]["all_ok"] is not True:
            return "verdict", "verify gadgets failed (exit %d)" % code
        return None

    for p in [1] if tiny else [1, 2, 3]:
        cli_job("verify-gadgets/p%d" % p, ["verify", "gadgets", "--p", str(p)], expect_gadgets)

    # large sparse graphs: one 2-choosable, and a doubling ladder of mixed ones
    base_m = 300 if tiny else 10_000
    forests = [("clean", base_m, None)] + [("mixed", base_m << rung, rung) for rung in range(3)]
    for flavour, target, rung in forests:
        rng = inputs.seeded(seed, "pipeline", "forest", flavour, target)
        n, edges = inputs.planted_forest(target, flavour == "clean", rng)
        name = "forest-%s-%d" % (flavour, target)
        graph_file = write(name + ".graph", inputs.graph_text(n, edges, rng))
        graph_ref = functools.partial(refs.of_graph, name, n, edges)
        if flavour == "clean":
            cli_job("check2/" + name, ["check2", graph_file], expect_check2(graph_ref))
        else:
            cli_job("check2-witness/" + name, ["check2", "--witness", graph_file],
                    expect_check2(graph_ref), rung=rung)
            cli_job("core/" + name, ["core", graph_file], expect_core(graph_ref), rung=rung)

    first_check2 = next(job for job in jobs if job.name.startswith("check2/"))
    first_check2.corrupt = lambda answer: (1 - answer[0], answer[1])
    return jobs


# ---------------------------------------------------------------------------
# heuristic: approx_2_del
# ---------------------------------------------------------------------------

def heuristic(pkg, seed, scale, workdir, clock):
    tiny = scale == "tiny"
    Graph = pkg.graphs.Graph
    graphs = []                                  # (name, n, edges, rung)

    # The random graphs come from a fixed pool that the seed relabels, and
    # the ladder is the same for every seed: fresh random graphs per seed
    # move the cost of a pass, and its latency percentiles, by up to a factor
    # of two, which would drown the differences the benchmark should show.
    # All are G(n, m) at the density of G(n, 2.5/n).
    pool_rng = inputs.seeded(0, "heuristic", "small")
    label_rng = inputs.seeded(seed, "heuristic", "small-labels")
    for i in range(6 if tiny else 120):
        n = (20, 30, 40)[i % 3]
        edges = inputs.relabel(n, inputs.gnm(n, 5 * n // 4, pool_rng), label_rng)
        graphs.append(("small/%03d-n%d" % (i, n), n, edges, None))

    ladder_rng = inputs.seeded(0, "heuristic", "ladder")
    base_n = 50 if tiny else 250
    for rung in range(3):
        n = base_n << rung
        graphs.append(("ladder/%d" % n, n, inputs.gnm(n, 5 * n // 4, ladder_rng), rung))

    shape_rng = inputs.seeded(seed, "heuristic", "structured")
    spiders = (3, 10) if tiny else (3, 10, 20, 30, 50)
    for k in spiders:
        n, edges = inputs.spider(k)
        graphs.append(("spider/%d" % k, n, inputs.relabel(n, edges, shape_rng), None))
    dumbbells = ((3, 3, 1),) if tiny else ((3, 3, 1), (3, 5, 2), (5, 5, 3), (3, 7, 4), (7, 9, 6))
    for a, b, length in dumbbells:
        n, edges = inputs.dumbbell(a, b, length)
        graphs.append(("dumbbell/%d-%d-%d" % (a, b, length), n,
                       inputs.relabel(n, edges, shape_rng), None))

    formula_rng = inputs.seeded(seed, "heuristic", "gadget-formula")
    clauses = tuple(inputs.formula(4, 1 if tiny else 2, formula_rng))
    phi = clock(pkg.reductions.CnfFormula, 4, clauses)
    art = clock(pkg.reductions.build_G_phi_p, phi, 1)
    graphs.append(("gadgets/G_phi_1", art.graph.n, list(art.graph.edges), None))

    jobs = []

    def optimum(n, edges):
        """Brute-force optimum on the 2-core under a budget; None when it runs out.

        Pendant trees never need a deletion, so the optimum of G is that of
        its core.  Up to 64 core vertices the budget is HEURISTIC_BRUTE_BUDGET
        nodes; up to 256 it covers the empty set and every single vertex, so
        optima of 0 and 1 (the spiders) are always established.
        """
        core = reference.core_vertices(n, edges)
        if len(core) > 256:
            return None
        index = {v: i for i, v in enumerate(core)}
        g = Graph(len(core), [(index[u], index[v]) for u, v in edges
                              if u in index and v in index])
        budget = HEURISTIC_BRUTE_BUDGET if g.n <= 64 else g.n + 1
        try:
            return pkg.exact.min_2_del_bruteforce(g, budget=budget)[0]
        except pkg.errors.BudgetExceededError:
            return None

    for name, n, edges, rung in graphs:
        g = clock(Graph, n, edges)

        def check(answer, n=n, edges=edges):
            # approx_2_del re-validates with is_2_choosable itself, so the
            # remainder is checked by the reference classification instead
            if not reference.two_choosable(*reference.remainder_edges(n, edges, answer)):
                return "invalid", "remainder is not 2-choosable"
            # Each outside core component needs its own deletion, so their
            # number bounds the optimum from below; the brute force is only
            # needed when the answer exceeds the bound times that.
            bound = max(3, 2 * inputs.log2_ceil(max(n, 2)))
            disjoint = sum(1 for kind, _, _ in reference.core_components(n, edges)
                           if kind == "outside")
            if len(answer) <= bound * disjoint:
                return None
            opt = optimum(n, edges)
            if opt is not None and len(answer) > bound * opt:
                return "ratio-bound", "size %d > %d = bound x optimum %d" % (
                    len(answer), bound * opt, opt)
            return None

        jobs.append(Job("approx/" + name, "approx.approx_2_del",
                        lambda budget, g=g: pkg.approx.approx_2_del(g), check,
                        size=len, canon=list, rung=rung))
    spider_job = next(job for job in jobs if job.name.startswith("approx/spider/"))
    spider_job.corrupt = lambda answer: ()
    return jobs


# ---------------------------------------------------------------------------
# exact: the four solvers and the oracle
# ---------------------------------------------------------------------------

def exact(pkg, seed, scale, workdir, clock):
    tiny = scale == "tiny"
    Graph = pkg.graphs.Graph
    graphs = []                                  # (name, n, edges)

    # A fixed pool of G(n, p) graphs, the same for every seed and in its
    # drawn labelling.  Fresh graphs per seed move the solvers' cost, and so
    # the latency percentiles, by up to half.  Whether min_2_del_exact is
    # optimal on a graph depends on its vertex order, so relabelling the
    # pool would change with the seed which instances fail; in one fixed
    # labelling the failing instances are named in provenance.json.
    pool_rng = inputs.seeded(0, "exact", "gnp")
    sizes = ((10, 0.3), (12, 0.25)) if tiny else (
        (10, 0.3), (11, 0.3), (12, 0.25), (12, 0.3), (13, 0.25), (14, 0.2), (14, 0.25))
    for i in range(2 if tiny else 42):
        n, prob = sizes[i % len(sizes)]
        graphs.append(("gnp/%02d-n%d" % (i, n), n, inputs.gnp(n, prob, pool_rng)))
    # the counterexample to min_2_del_exact's optimality named in the roadmap
    graphs.append(("gnp/roadmap-n10-seed159", 10, inputs.gnp(10, 0.3, random.Random(159))))

    shape_rng = inputs.seeded(seed, "exact", "structured")
    shapes = [("spider/3",) + inputs.spider(3)]
    if not tiny:
        shapes += [("spider/4",) + inputs.spider(4),
                   ("dumbbell/3-3-2",) + inputs.dumbbell(3, 3, 2),
                   ("dumbbell/3-5-1",) + inputs.dumbbell(3, 5, 1),
                   ("dumbbell/5-5-3",) + inputs.dumbbell(5, 5, 3),
                   ("theta/2-3-3",) + inputs.theta(2, 3, 3),
                   ("theta/1-3-5",) + inputs.theta(1, 3, 5),
                   ("theta/2-2-5",) + inputs.theta(2, 2, 5),
                   ("k2n/3",) + inputs.k2n(3),
                   ("k2n/4",) + inputs.k2n(4),
                   ("k2n/6",) + inputs.k2n(6)]
    for name, n, edges in shapes:
        graphs.append((name, n, inputs.relabel(n, edges, shape_rng)))

    jobs = []
    refs = {}

    def ref(key, compute):
        if key not in refs:
            refs[key] = compute()
        return refs[key]

    def del2_optimum(g):
        try:
            return pkg.exact.min_2_del_bruteforce(g, budget=EXACT_BRUTE_BUDGET)[0]
        except pkg.errors.BudgetExceededError:
            return None

    for name, n, edges in graphs:
        g = clock(Graph, n, edges)
        rest_ok = (lambda n, edges: lambda chosen: reference.two_choosable(
            *reference.remainder_edges(n, edges, chosen)))(n, edges)

        def check_del2(answer, name=name, g=g, rest_ok=rest_ok):
            size, chosen = answer
            if size != len(chosen) or not rest_ok(chosen):
                return "invalid", "deletion set does not leave a 2-choosable graph"
            opt = ref(("del2", name), lambda: del2_optimum(g))
            if opt is not None and size != opt:
                return "not-optimal", "returned %d, brute-force optimum %d" % (size, opt)
            return None

        def check_near3_min(answer, name=name, n=n, edges=edges, rest_ok=rest_ok):
            best = ref(("near3", name), lambda: reference.min_near_3_size(n, edges))
            if answer is None:
                return None if best is None else ("verdict", "no set returned, optimum %d" % best)
            size, chosen = answer
            if not reference.is_independent(edges, chosen) or not rest_ok(chosen):
                return "invalid", "set is not independent or leaves a non-2-choosable graph"
            if size != len(chosen) or size != best:
                return "not-optimal", "returned %d, brute-force optimum %s" % (size, best)
            return None

        def check_near3_decide(answer, name=name, g=g, n=n, edges=edges):
            if answer is None:
                best = ref(("near3", name), lambda: reference.min_near_3_size(n, edges))
                return None if best is None else ("verdict", "said no, but size %d works" % best)
            if not pkg.exact.decomposition_is_valid(g, answer):
                return "invalid", "decomposition_is_valid rejects the decomposition"
            return None

        def check_vc(answer, edges=edges):
            size, chosen = answer
            if size != len(chosen) or not reference.covers(edges, chosen):
                return "invalid", "returned set misses an edge"
            return None

        jobs.append(Job("del2/" + name, "exact.min_2_del_exact",
                        lambda budget, g=g: pkg.exact.min_2_del_exact(g, budget=budget, cap=20),
                        check_del2, size=lambda a: a[0], canon=list))
        jobs.append(Job("near3-min/" + name, "exact.min_near_3",
                        lambda budget, g=g: pkg.exact.min_near_3(g, budget=budget),
                        check_near3_min, size=lambda a: 0 if a is None else a[0],
                        canon=lambda a: None if a is None else list(a)))
        jobs.append(Job("near3-decide/" + name, "exact.near_3_decide",
                        lambda budget, g=g: pkg.exact.near_3_decide(g, budget=budget),
                        check_near3_decide, size=lambda a: 0 if a is None else len(a.a),
                        canon=lambda a: None if a is None else [a.a, a.b]))
        jobs.append(Job("vc/" + name, "exact.min_vertex_cover_exact",
                        lambda budget, g=g: pkg.exact.min_vertex_cover_exact(g, budget=budget),
                        check_vc, size=lambda a: a[0], canon=list))

    for name, edges in ORACLE_CLASSES[-3:] if tiny else ORACLE_CLASSES:
        g = clock(Graph, 6, edges)

        def check_oracle(answer, g=g, edges=edges):
            ok, lists = answer
            if ok != pkg.recognition.is_2_choosable(g)[0]:
                return "verdict", "oracle says %s, core classification disagrees" % ok
            if not ok and (any(len(set(lists[v])) != 2 for v in range(6))
                           or reference.list_colorable(6, edges, lists)):
                return "witness", "witness is not an uncolourable 2-list assignment"
            return None

        jobs.append(Job("oracle/" + name, "recognition.is_k_choosable_exhaustive",
                        lambda budget, g=g: pkg.recognition.is_k_choosable_exhaustive(
                            g, 2, budget=budget),
                        check_oracle,
                        canon=lambda a: [a[0], None if a[1] is None else sorted(a[1].items())]))
    spider_job = next(job for job in jobs if job.name.startswith("vc/spider/"))
    spider_job.corrupt = lambda answer: (0, ())
    return jobs


WORKLOADS = {"pipeline": pipeline, "heuristic": heuristic, "exact": exact}
