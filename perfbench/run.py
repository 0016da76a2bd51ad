"""Benchmark of the choosability package: three closed-loop workloads.

Run one workload (one client, one thread, each job issued when the last
returns) and print its metrics; the last line of output is one JSON object:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics from a separate traced run.  ``--workload all`` runs
every workload in its own process, both ways; ``--self-test`` runs each
workload at tiny size and checks the benchmark itself.  Run from the root of
a checkout: the package is imported from ``src/`` there and nowhere else.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import tracing                                         # noqa: E402
from workloads import NODE_LIMIT, WORKLOADS, SetupClock  # noqa: E402

MODULES = ("approx", "cli", "dimacs", "errors", "exact", "graphs", "recognition", "reductions")

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: timed passes per run at least, after the warm-up pass
MIN_PASSES = 2
#: timed jobs per untraced run at least, so that ten lie beyond the 90th percentile
MIN_JOBS = 100
#: nominal time of ``reference_time``: setup_s is scaled to a machine that takes this long
REFERENCE_S = 0.035


class SetupError(Exception):
    """The checkout does not hold the package or the benchmark description."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise SetupError("no BENCHMARK.json at %s" % ROOT)
    with open(path) as fh:
        return json.load(fh)


def load_provenance():
    with open(os.path.join(HERE, "provenance.json")) as fh:
        return json.load(fh)


def load_package():
    """Import the package from the checkout's src/, dropping any earlier import."""
    if not os.path.isfile(os.path.join(SRC, "choosability", "__init__.py")):
        raise SetupError("no package at %s" % os.path.join(SRC, "choosability"))
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "choosability" or m.startswith("choosability.")]:
        del sys.modules[name]
    pkg = types.SimpleNamespace(**{
        name: importlib.import_module("choosability." + name) for name in MODULES})
    if not os.path.abspath(pkg.cli.__file__).startswith(SRC + os.sep):
        raise SetupError("imported the package from %s, not from %s" % (pkg.cli.__file__, SRC))
    return pkg


def tally_budget_class(errors):
    """A Budget that also tallies every charge by its ``stage=`` label."""

    class TallyBudget(errors.Budget):
        __slots__ = ("by_stage",)

        def __init__(self, limit=None):
            super().__init__(limit)
            self.by_stage = {}

        def charge(self, amount=1, **stats):
            stage = stats.get("stage", "unlabelled")
            self.by_stage[stage] = self.by_stage.get(stage, 0) + amount
            super().charge(amount, **stats)

    return TallyBudget


def source_digest():
    """Digest of the package and benchmark sources: runs with equal digests must agree."""
    h = hashlib.sha256()
    for folder in (os.path.join(SRC, "choosability"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one workload process
# ---------------------------------------------------------------------------

def set_up(workload, seed, scale, workdir):
    """Import the package and build the workload's jobs; returns (pkg, jobs, seconds).

    ``seconds`` is the package's share of the set-up: its import and the
    package calls made while the jobs are built.  The benchmark's own input
    generation and file writing are not counted.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    clock = SetupClock()
    pkg = clock(load_package)
    return pkg, WORKLOADS[workload](pkg, seed, scale, workdir, clock), clock.seconds


def reference_work():
    """A fixed pure-Python loop of integer arithmetic.

    It measures interpreter speed and allocates nothing that outlives an
    iteration.  A routine that built lists, dicts and sets varied up to
    40% between processes with the heap layout, more than the workloads
    it was meant to gauge; this loop followed their speed within 7%.
    """
    x = 0
    for i in range(300_000):
        x = (x * 31 + i) & 0xFFFFF
    return x


def reference_time():
    """Best of three timings of ``reference_work``, 30 to 37 ms on a 2-vCPU Xeon VM."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


def run_pass(pkg, jobs, budget_class, tracer=None, corrupt=False):
    """Issue every job once, in order; returns the timings and raw answers."""
    results = []
    if tracer is not None:
        tracer.install()
    clock = time.perf_counter
    wall0, cpu0 = clock(), time.process_time()
    try:
        for index, job in enumerate(jobs):
            budget = budget_class(NODE_LIMIT)
            if tracer is not None:
                tracer.job = index
            start = clock()
            try:
                answer, error = job.call(budget), None
            except Exception as exc:             # a failed job is data, not a crash
                answer, error = None, exc
            results.append((clock() - start, answer, error, budget))
        wall, cpu = clock() - wall0, time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.remove()
    if corrupt:
        index = next(i for i, job in enumerate(jobs) if job.corrupt is not None)
        latency, answer, error, budget = results[index]
        results[index] = (latency, jobs[index].corrupt(answer), error, budget)
    return {"wall": wall, "cpu": cpu, "results": results}


class Checker:
    """Checks answers outside the timed region, once per distinct answer."""

    def __init__(self, jobs):
        self.jobs = jobs
        self._seen = {}

    def check(self, index, answer, error):
        if error is not None:
            return "raised", "%s: %s" % (type(error).__name__, error)
        job = self.jobs[index]
        key = (index, json.dumps(job.canon(answer), sort_keys=True, default=repr))
        if key not in self._seen:
            try:
                self._seen[key] = job.check(answer)
            except Exception as exc:             # a malformed answer fails its check
                self._seen[key] = ("malformed", "%s: %s" % (type(exc).__name__, exc))
        return self._seen[key]


def summarize_pass(jobs, checker, record):
    """Failures, answer and node digests, solution size and node tallies of one pass."""
    failures, canon, nodes = [], [], []
    size = 0
    by_layer, by_stage = {}, {}
    for index, (_, answer, error, budget) in enumerate(record["results"]):
        job = jobs[index]
        failure = checker.check(index, answer, error)
        if failure is not None:
            failures.append((job.name,) + tuple(failure))
        if error is None:
            canon.append([job.name, job.canon(answer)])
            try:
                size += job.size(answer)
            except Exception:                    # counted as a failure by its check
                pass
        else:
            canon.append([job.name, "raised %s" % type(error).__name__])
        nodes.append([job.name, budget.used, sorted(budget.by_stage.items())])
        by_layer[job.layer] = by_layer.get(job.layer, 0) + budget.used
        for stage, count in budget.by_stage.items():
            by_stage[stage] = by_stage.get(stage, 0) + count

    def digest(value):
        return hashlib.sha256(json.dumps(value, sort_keys=True, default=repr).encode()).hexdigest()

    # the answers are dropped once checked, so that peak memory does not grow with the passes
    record.update(failures=failures, size=size, nodes_by_layer=by_layer, nodes_by_stage=by_stage,
                  answers_digest=digest(canon), nodes_digest=digest(nodes),
                  latencies=[r[0] for r in record.pop("results")])
    return record


def known_failure(provenance, workload, name, code):
    return any(k["workload"] == workload and k["code"] == code and name in k["jobs"]
               for k in provenance["known_seed_failures"])


def compare_with_earlier_runs(key, answers, nodes):
    """Record this run's digests; returns a message if an earlier run with the same key differs."""
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "digests.json")
    try:
        with open(path) as fh:
            records = json.load(fh)
    except (OSError, ValueError):
        records = {}
    earlier = records.get(key)
    records[key] = {"answers": answers, "nodes": nodes}
    fd, tmp = tempfile.mkstemp(dir=WORK)
    with os.fdopen(fd, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    if earlier is not None and earlier != records[key]:
        return "digests differ from an earlier run of the same sources: %s" % earlier
    return None


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload, seed, seconds, trace_mode, scale="full", corrupt=False):
    """Set up, run closed-loop passes for ``seconds``, check; returns the result dict."""
    spec = load_spec()
    provenance = load_provenance()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % workload, dir=WORK)
    try:
        setups, setup_refs = [], []
        for _ in range(SETUP_REPEATS):
            setup_refs.append(reference_time())
            pkg, jobs, package_s = set_up(workload, seed, scale, workdir)
            setups.append(package_s)
        setup_refs.append(reference_time())
        budget_class = tally_budget_class(pkg.errors)
        checker = Checker(jobs)
        rung_of_job = {i: job.rung for i, job in enumerate(jobs) if job.rung is not None}
        # the first pass warms caches and fills the checker; its timings are dropped
        warmup = summarize_pass(jobs, checker, run_pass(pkg, jobs, budget_class, corrupt=corrupt))
        plain, traced, folded = [], [], []
        min_jobs = 0 if scale == "tiny" else MIN_JOBS
        deadline = time.perf_counter() + seconds
        while True:
            tracer = tracing.Tracer() if trace_mode and len(plain) > len(traced) else None
            before = reference_time()
            record = summarize_pass(jobs, checker, run_pass(pkg, jobs, budget_class, tracer))
            record["ref"] = (before + reference_time()) / 2
            if tracer is None:
                plain.append(record)
            else:
                traced.append(record)
                folded.append(tracing.fold(tracer.spans, tracer.bytes, rung_of_job))
                record["spans"] = len(tracer.spans)
            if time.perf_counter() < deadline or len(plain) + len(traced) < MIN_PASSES:
                continue
            if trace_mode and traced:
                break
            if not trace_mode and sum(len(r["latencies"]) for r in plain) >= min_jobs:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [warmup] + plain + traced
    attempted = sum(len(r["latencies"]) for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    problems = []
    compared = passes[1:] if corrupt else passes     # the corrupted first pass differs on purpose
    if len({(r["answers_digest"], r["nodes_digest"], r["size"]) for r in compared}) > 1:
        problems.append("answers or node counts differ between passes")
    unexpected = sorted({f for f in failures if not known_failure(provenance, workload, f[0], f[1])})
    problems += ["unexpected failure %s %s: %s" % f for f in unexpected]
    last = passes[-1]
    if not corrupt:
        key = "%s/%s/%s/%s" % (workload, seed, scale, source_digest())
        mismatch = compare_with_earlier_runs(key, last["answers_digest"], last["nodes_digest"])
        if mismatch:
            problems.append(mismatch)

    latencies = [t for p in plain for t in p["latencies"]]
    values = {
        # the package's set-up time in seconds on a machine whose
        # reference_time is REFERENCE_S, so that drift in machine speed cancels
        "setup_s": statistics.median(setups) / statistics.median(setup_refs) * REFERENCE_S,
        "setup_raw_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall"] for p in plain),
        "wall_ref": statistics.median(p["wall"] / p["ref"] for p in plain),
        "cpu_s": statistics.median(p["cpu"] for p in plain),
        "job_p50_ms": 1000 * statistics.median(latencies),
        "job_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "solution_size": last["size"],
        "fail_ratio": len(failures) / attempted,
    }
    if trace_mode:
        values.update(layer_values(spec, folded, traced, plain))
    section = "per_layer" if trace_mode else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    return {
        "workload": workload, "seed": seed, "trace": trace_mode, "scale": scale,
        "passes": len(passes), "traced_passes": len(traced), "attempted": attempted,
        "failed": len(failures), "failures": sorted(set(failures)), "problems": problems,
        "values": values, "metrics": metrics, "digests": (last["answers_digest"], last["nodes_digest"]),
        "nodes_by_layer": last["nodes_by_layer"], "nodes_by_stage": last["nodes_by_stage"],
        "correct": not problems,
    }


def layer_values(spec, folded, traced, plain):
    """Per-layer metric values named ``<module>.<function>.<stat>`` from the traced passes."""
    def cost(records):
        return statistics.median(r["wall"] / r["ref"] for r in records)

    values = {
        # traced minus untraced pass time, both measured against the reference
        # routine so that drift in machine speed between the passes cancels
        "trace.overhead_s": (cost(traced) - cost(plain))
        * statistics.median(r["ref"] for r in plain + traced),
        "trace.spans": traced[-1]["spans"],
    }
    last = folded[-1]
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in values:
            continue
        layer, stat = name.rsplit(".", 1)
        if layer == "exact.nodes_by_stage":
            values[name] = traced[-1]["nodes_by_stage"].get(stat, 0)
        elif stat == "nodes":
            values[name] = traced[-1]["nodes_by_layer"].get(layer, 0)
        elif stat in ("busy_s", "self_s"):
            key = stat[:-2]
            values[name] = statistics.median(f[layer][key] if layer in f else 0.0 for f in folded)
        elif stat == "growth_exp":
            values[name] = statistics.median(
                tracing.growth_exponent(f[layer]["rung_busy"]) if layer in f else 0.0 for f in folded)
        elif stat in ("calls", "bytes", "rounds"):
            values[name] = last[layer][stat] if layer in last else 0
        else:
            raise SetupError("no rule computes per-layer metric %r" % name)
    return values


def render(result):
    """Human-readable lines, then the one-line JSON result."""
    lines = ["workload=%s seed=%s trace=%d scale=%s passes=%d traced_passes=%d jobs=%d" % (
        result["workload"], result["seed"], result["trace"], result["scale"], result["passes"],
        result["traced_passes"], result["attempted"])]
    v = result["values"]
    lines.append("end-to-end (untraced passes):")
    for name, unit in (("setup_s", "s"), ("setup_raw_s", "s"), ("wall_s", "s"),
                       ("wall_ref", "ref"), ("cpu_s", "s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"), ("peak_rss_mb", "MB"),
                       ("solution_size", "vertices")):
        lines.append("  %-14s %.6g %s" % (name, v[name], unit))
    lines.append("  %-14s %.6g ratio (%d failed of %d attempted)" % (
        "fail_ratio", v["fail_ratio"], result["failed"], result["attempted"]))
    if result["trace"]:
        lines.append("per-layer (traced passes; times include the tracing overhead):")
        for name, metric in result["metrics"].items():
            lines.append("  %-50s %.6g %s" % (name, metric["value"], metric["unit"]))
    lines.append("digest answers=%s nodes=%s" % result["digests"])
    lines.append("nodes by layer: %s" % json.dumps(result["nodes_by_layer"], sort_keys=True))
    lines.append("nodes by stage: %s" % json.dumps(result["nodes_by_stage"], sort_keys=True))
    for failure in result["failures"]:
        lines.append("failed job %s [%s]: %s" % failure)
    for problem in result["problems"]:
        lines.append("PROBLEM: %s" % problem)
    lines.append(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                             "failed": result["failed"], "metrics": result["metrics"]}))
    return lines


# ---------------------------------------------------------------------------
# all workloads, and the self-test
# ---------------------------------------------------------------------------

def run_all(seed, seconds):
    """Each workload in its own process, untraced and traced; prints everything."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace_mode in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace_mode)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SetupError("workload %s exited %d" % (workload, proc.returncode))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary["correct"] &= result["correct"]
            if not trace_mode:
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(summary))
    return 0


def self_test():
    """Tiny runs: every metric printed with its unit, and a corrupted answer counted."""
    spec = load_spec()
    errors = []
    for workload in WORKLOADS:
        for trace_mode, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(workload, 1, 0, trace_mode, scale="tiny")
            printed = json.loads(render(result)[-1])
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in printed["metrics"].items()}
            if got != expected:
                errors.append("%s trace=%d prints %s, BENCHMARK.json names %s" % (
                    workload, trace_mode, sorted(got.items()), sorted(expected.items())))
            if not all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in printed["metrics"].values()):
                errors.append("%s trace=%d prints a value that is not a finite number" % (
                    workload, trace_mode))
            if not printed["correct"]:
                errors.append("%s trace=%d: %s" % (workload, trace_mode, result["problems"]))
        clean = run_workload(workload, 1, 0, 0, scale="tiny")
        broken = run_workload(workload, 1, 0, 0, scale="tiny", corrupt=True)
        if broken["failed"] != clean["failed"] + 1 or \
                not broken["values"]["fail_ratio"] > clean["values"]["fail_ratio"] or broken["correct"]:
            errors.append("%s: a corrupted answer was not counted (failed %d -> %d)" % (
                workload, clean["failed"], broken["failed"]))
        print("self-test %s: %d jobs, metrics and corruption checked" % (workload, clean["attempted"]))
    for error in errors:
        print("SELF-TEST FAILURE: %s" % error)
    print(json.dumps({"self_test_ok": not errors}))
    return 1 if errors else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print("\n".join(render(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
