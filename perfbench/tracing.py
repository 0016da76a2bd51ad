"""In-memory spans around the package's public functions.

A traced pass rebinds each target function, in every loaded module of the
package that refers to it, to a wrapper that records a span: name, start,
end, parent span and job id.  Rebinding at the import sites matters because
the package calls its own functions through module globals (``approx_2_del``
looks up ``preprocess`` in ``choosability.approx``).  Untraced passes run
with no wrapper installed.
"""

import math
import sys
import time
from collections import Counter

#: the layers the benchmark traces, as ``<module>.<function>`` of choosability
TARGETS = (
    "dimacs.parse_graph", "dimacs.write_graph", "dimacs.parse_dimacs_cnf",
    "dimacs.write_artifact", "dimacs.read_artifact",
    "reductions.build_H_phi", "reductions.build_G_phi_p",
    "reductions.decomposition_from_assignment",
    "reductions.deletion_set_from_assignment", "reductions.verify_lemma_2_2",
    "recognition.compute_core", "recognition.classify_core",
    "recognition.is_2_choosable", "recognition.is_k_choosable_exhaustive",
    "graphs.induced_subgraph", "graphs.delete_vertices", "graphs.shortest_cycle",
    "approx.approx_2_del", "approx.preprocess",
    "exact.min_2_del_exact", "exact.min_near_3", "exact.near_3_decide",
    "exact.min_vertex_cover_exact",
    "cli.main",
)

#: bytes read or written by the text-format layers, from a call's arguments and result
_BYTES = {
    "dimacs.parse_graph": lambda args, result: len(args[0]),
    "dimacs.write_graph": lambda args, result: len(result),
}


class Tracer:
    """Installs span-recording wrappers for one pass and removes them after."""

    def __init__(self):
        self.spans = []
        self.bytes = Counter()
        self.job = None
        self._stack = []
        self._active = Counter()
        self._patches = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "choosability" or name.startswith("choosability."))]
        for target in TARGETS:
            module_name, func_name = target.split(".")
            original = getattr(sys.modules["choosability." + module_name], func_name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        measure = _BYTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = not active[name]
            active[name] += 1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                spans[index] = (name, start, end, parent, self.job, outermost)
            if measure is not None:
                self.bytes[name] += measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _record():
    return {"calls": 0, "busy": 0.0, "self": 0.0, "bytes": 0, "rounds": 0,
            "rung_busy": Counter()}


def fold(spans, byte_counts, rung_of_job):
    """Per-layer statistics of one traced pass.

    ``busy`` sums the outermost span of each name (recursion is not double
    counted); ``self`` is a span's duration minus its direct children's;
    ``rung_busy`` splits busy time by the doubling-ladder rung of the job;
    ``rounds`` of ``approx.approx_2_del`` counts the shortest-cycle calls it
    makes itself.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, start, end, parent, job, outermost) in enumerate(spans):
        rec = stats.get(name)
        if rec is None:
            rec = stats[name] = _record()
        rec["calls"] += 1
        rec["self"] += end - start - child[i]
        if outermost:
            rec["busy"] += end - start
            rung = rung_of_job.get(job)
            if rung is not None:
                rec["rung_busy"][rung] += end - start
        if name == "graphs.shortest_cycle" and parent >= 0:
            caller = spans[parent][0]
            stats.setdefault(caller, _record())["rounds"] += 1
    for name, count in byte_counts.items():
        stats.setdefault(name, _record())["bytes"] = count
    return stats


def growth_exponent(rung_busy):
    """log2 of the busy-time ratio per doubling, from the smallest to the largest rung."""
    if len(rung_busy) < 2:
        return 0.0
    low, high = min(rung_busy), max(rung_busy)
    if rung_busy[low] <= 0 or rung_busy[high] <= 0:
        return 0.0
    return math.log2(rung_busy[high] / rung_busy[low]) / (high - low)
