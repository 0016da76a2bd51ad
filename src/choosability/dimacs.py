"""Line-oriented interchange formats: edge-list graphs, CNF, artifact sidecars.

Graphs: comment lines start with 'c', a header ``p edge <n> <m>`` and m lines
``e <u> <v>`` with 1-based endpoints.  CNF: standard DIMACS with exactly
three literals per clause; every ``c`` line is a comment.  All ids are
1-based externally and 0-based internally.  A graph header may declare at
most ``MAX_GRAPH_VERTICES`` vertices, and the writer refuses a larger graph.
A ParseError names the first faulty line in file order, whether the fault is
in its syntax or, for a graph, a self-loop, an out-of-range endpoint or a
repeated edge; the count check at the end of the file comes last.
"""

import json
import os
import stat

from .graphs import MAX_GRAPH_VERTICES, Graph
from .reductions import CnfFormula, ReductionArtifact


class ParseError(ValueError):
    """Malformed input; ``line`` is the 1-based offending line number, if any."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else "line %d: %s" % (line, message))
        self.line = line


def parse_graph(text):
    """The graph in ``text``; ParseError naming the first faulty line in file order.

    One pass checks the syntax and collects the edges in file orientation;
    ``Graph`` then checks them for self-loops, range and duplicates.  Only
    when something fails are the edges read so far walked in file order, so
    that an edge fault on an earlier line is the one reported.
    """
    n = m = None
    edges = []
    append = edges.append
    try:
        for lineno, raw in enumerate(text.splitlines(), 1):
            parts = raw.split()
            if not parts:
                continue
            head = parts[0]
            if head == "e":
                if n is None:
                    raise ParseError("edge before header", lineno)
                if len(parts) != 3:
                    raise ParseError("edge line must be 'e <u> <v>'", lineno)
                try:
                    append((int(parts[1]) - 1, int(parts[2]) - 1))
                except ValueError:
                    raise ParseError("edge endpoints must be integers", lineno) from None
            elif head == "p":
                if n is not None:
                    raise ParseError("duplicate header", lineno)
                if len(parts) != 4 or parts[1] != "edge":
                    raise ParseError("header must be 'p edge <n> <m>'", lineno)
                try:
                    n, m = int(parts[2]), int(parts[3])
                except ValueError:
                    raise ParseError("header counts must be integers", lineno) from None
                if n < 0 or m < 0:
                    raise ParseError("header counts must be non-negative", lineno)
                if n > MAX_GRAPH_VERTICES:
                    raise ParseError("header declares %d vertices; the limit is %d"
                                     % (n, MAX_GRAPH_VERTICES), lineno)
            elif not head.startswith("c"):
                raise ParseError("unrecognized line %r" % raw.strip(), lineno)
        if n is None:
            raise ParseError("missing 'p edge' header", max(1, text.count("\n") + 1))
        if len(edges) != m:
            raise ParseError("header promised %d edges, found %d" % (m, len(edges)),
                             text.count("\n") + 1)
        return Graph(n, edges)
    except ValueError:
        fault = _first_edge_fault(text, n, edges)
        if fault is None:
            raise
        raise fault from None


def _first_edge_fault(text, n, edges):
    """The ParseError of the first self-loop, out-of-range or repeated edge, or None.

    ``edges`` are those read so far, 0-based in file orientation; the i-th
    of them came from the i-th ``e`` line of ``text``.
    """
    seen = set()
    for i, (u, v) in enumerate(edges):
        e = (u, v) if u < v else (v, u)
        if u == v:
            message = "self-loop at vertex %d" % (u + 1)
        elif not (0 <= u < n and 0 <= v < n):
            message = "vertex out of range in edge (%d, %d)" % (u + 1, v + 1)
        elif e in seen:
            message = "duplicate edge (%d, %d)" % (u + 1, v + 1)
        else:
            seen.add(e)
            continue
        for lineno, raw in enumerate(text.splitlines(), 1):
            parts = raw.split()
            if parts and parts[0] == "e":
                if i == 0:
                    return ParseError(message, lineno)
                i -= 1
    return None


def write_graph(g):
    """The text of ``g`` in the graph format; ValueError above ``MAX_GRAPH_VERTICES``.

    Every graph it accepts reads back equal: ``parse_graph(write_graph(g)) == g``.
    Each vertex's ``"e <u> "`` head and ``"<v>\\n"`` tail are formatted
    once, so an edge line is one concatenation, and the lines are joined
    once.  The edges go out in ``g.edges`` order, ascending, but a reader
    need not keep it: ``parse_graph`` sorts them again, so a ``sat3``
    artifact is checked against :func:`reductions._h_edges` on its edge set,
    whatever the order, orientation or comment lines of its file.
    """
    n = g.n
    if n > MAX_GRAPH_VERTICES:
        raise ValueError("graph has %d vertices; the limit is %d" % (n, MAX_GRAPH_VERTICES))
    heads = ["e %d " % v for v in range(1, n + 1)]
    tails = ["%d\n" % v for v in range(1, n + 1)]
    lines = ["p edge %d %d\n" % (n, len(g.edges))]
    lines += [heads[u] + tails[v] for u, v in g.edges]
    return "".join(lines)


def parse_dimacs_cnf(text):
    num_vars = num_clauses = None
    clauses = []
    pending = []
    pending_line = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "c":
            continue
        if parts[0] == "p":
            if num_vars is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("header must be 'p cnf <vars> <clauses>'", lineno)
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("header counts must be integers", lineno) from None
            if num_vars < 0 or num_clauses < 0:
                raise ParseError("header counts must be non-negative", lineno)
            if num_vars == 0:
                raise ParseError("need at least one variable", lineno)
            continue
        if num_vars is None:
            raise ParseError("clause before header", lineno)
        for token in parts:
            try:
                lit = int(token)
            except ValueError:
                raise ParseError("literal %r is not an integer" % token, lineno) from None
            if lit == 0:
                if len(pending) != 3:
                    raise ParseError("clause has %d literals; need exactly 3" % len(pending),
                                     lineno)
                if len(set(pending)) != 3:
                    raise ParseError("duplicate literal in clause", lineno)
                clauses.append(tuple(pending))
                pending = []
                pending_line = None
            else:
                if abs(lit) > num_vars:
                    raise ParseError("literal %d out of range" % lit, lineno)
                pending.append(lit)
                pending_line = lineno
    if pending:
        raise ParseError("clause not terminated by 0", pending_line)
    if num_vars is None:
        raise ParseError("missing 'p cnf' header", max(1, text.count("\n") + 1))
    if len(clauses) != num_clauses:
        raise ParseError("header promised %d clauses, found %d" % (num_clauses, len(clauses)),
                         text.count("\n") + 1)
    return CnfFormula(num_vars, tuple(clauses))


def write_dimacs_cnf(phi):
    lines = ["p cnf %d %d" % (phi.num_vars, phi.num_clauses)]
    for clause in phi.clauses:
        lines.append("%d %d %d 0" % clause)
    return "\n".join(lines) + "\n"


def _write_new_file(path, text):
    """Write ``text`` to ``path``, replacing a regular file there, not truncating it.

    On ext4 (``auto_da_alloc``) closing a truncated file starts writeback,
    so the next rewrite of the path would wait for the disk; unlinking the
    old file and creating a new one does not.  Only a regular file is
    unlinked: anything else at ``path`` (a symlink such as ``/dev/stdout``
    or ``/dev/fd/N``, a device such as ``/dev/null``, a FIFO) is opened and
    written through, as with ``open(path, "w")``.  A hard link to the old
    file and a handle still open on it keep the old bytes, and the new file
    gets the default mode and owner.  Nothing is fsynced.
    """
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        regular = None
    if regular:
        os.unlink(path)
    with open(path, "w" if regular is False else "x") as fh:
        fh.write(text)


def write_artifact(art, base_path):
    """Write ``<base>.graph`` and ``<base>.roles.json``; returns both paths."""
    graph_path = str(base_path) + ".graph"
    sidecar_path = str(base_path) + ".roles.json"
    _write_new_file(graph_path, write_graph(art.graph))
    sidecar = {
        "kind": art.kind,
        "roles": {str(v): art.roles[v] for v in sorted(art.roles)},
        "meta": art.meta,
    }
    # without indent, json.dumps uses the C encoder, about four times faster
    _write_new_file(sidecar_path, json.dumps(sidecar, sort_keys=True) + "\n")
    return graph_path, sidecar_path


def read_artifact(base_path):
    """Inverse of :func:`write_artifact`; raises ParseError on a malformed sidecar."""
    return _read_artifact(base_path)[0]


def _read_artifact(base_path):
    """:func:`read_artifact`'s artifact and the text of ``<base>.graph`` it parsed."""
    with open(str(base_path) + ".graph") as fh:
        text = fh.read()
    g = parse_graph(text)
    sidecar_path = str(base_path) + ".roles.json"
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    # roles are annotation that no solution builder reads, so they may be left out
    if not (isinstance(sidecar, dict) and isinstance(sidecar.get("kind"), str)
            and isinstance(sidecar.get("roles", {}), dict)
            and isinstance(sidecar.get("meta", {}), dict)):
        raise ParseError("%s: need an object with a string 'kind', an optional object "
                         "'roles' and an optional object 'meta'" % sidecar_path)
    roles = {int(v): rec for v, rec in sidecar.get("roles", {}).items()}
    return ReductionArtifact(sidecar["kind"], g, roles, sidecar.get("meta", {})), text
