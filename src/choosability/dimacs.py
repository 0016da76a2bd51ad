"""Line-oriented interchange formats: edge-list graphs, CNF, artifact sidecars.

Graphs: comment lines start with 'c', a header ``p edge <n> <m>`` and m lines
``e <u> <v>`` with 1-based endpoints.  CNF: standard DIMACS with exactly
three literals per clause, plus the extension ``c rot <j> <a> <b> <c>``
carrying a clause's attachment rotation.  All ids are 1-based externally
and 0-based internally.
"""

import json

from .graphs import Graph
from .reductions import CnfFormula, ReductionArtifact


class ParseError(ValueError):
    """Malformed input; ``line`` is the 1-based offending line number, if any."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else "line %d: %s" % (line, message))
        self.line = line


def parse_graph(text):
    n = m = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
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
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before header", lineno)
            if len(parts) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("edge endpoints must be integers", lineno) from None
            if u == v:
                raise ParseError("self-loop at vertex %d" % u, lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError("vertex out of range in edge (%d, %d)" % (u, v), lineno)
            e = (min(u, v) - 1, max(u, v) - 1)
            if e in seen:
                raise ParseError("duplicate edge (%d, %d)" % (u, v), lineno)
            seen.add(e)
            edges.append(e)
        else:
            raise ParseError("unrecognized line %r" % line, lineno)
    if n is None:
        raise ParseError("missing 'p edge' header", max(1, text.count("\n") + 1))
    if len(edges) != m:
        raise ParseError("header promised %d edges, found %d" % (m, len(edges)),
                         text.count("\n") + 1)
    return Graph(n, edges)


def write_graph(g):
    lines = ["p edge %d %d" % (g.n, len(g.edges))]
    for u, v in g.edges:
        lines.append("e %d %d" % (u + 1, v + 1))
    return "\n".join(lines) + "\n"


def parse_dimacs_cnf(text):
    num_vars = num_clauses = None
    clauses = []
    rotations = {}
    pending = []
    pending_line = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "c":
            if len(parts) == 6 and parts[1] == "rot":
                try:
                    j, a, b, c = (int(x) for x in parts[2:])
                except ValueError:
                    raise ParseError("rotation entries must be integers", lineno) from None
                if sorted((a, b, c)) != [1, 2, 3]:
                    raise ParseError("rotation must be a permutation of 1 2 3", lineno)
                rotations[j] = (a, b, c)
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
    rotation = None
    if rotations:
        if sorted(rotations) != list(range(1, len(clauses) + 1)):
            raise ParseError("rotation lines must cover clauses 1..%d exactly" % len(clauses),
                             text.count("\n") + 1)
        rotation = tuple(rotations[j] for j in range(1, len(clauses) + 1))
    return CnfFormula(num_vars, tuple(clauses), rotation)


def write_dimacs_cnf(phi):
    lines = ["p cnf %d %d" % (phi.num_vars, phi.num_clauses)]
    if phi.rotation is not None:
        for j, rot in enumerate(phi.rotation, 1):
            lines.append("c rot %d %d %d %d" % (j, *rot))
    for clause in phi.clauses:
        lines.append("%d %d %d 0" % clause)
    return "\n".join(lines) + "\n"


def write_artifact(art, base_path):
    """Write ``<base>.graph`` and ``<base>.roles.json``; returns both paths."""
    graph_path = str(base_path) + ".graph"
    sidecar_path = str(base_path) + ".roles.json"
    with open(graph_path, "w") as fh:
        fh.write(write_graph(art.graph))
    sidecar = {
        "kind": art.kind,
        "roles": {str(v): art.roles[v] for v in sorted(art.roles)},
        "meta": art.meta,
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return graph_path, sidecar_path


def read_artifact(base_path):
    """Inverse of :func:`write_artifact`; raises ParseError on a malformed sidecar."""
    with open(str(base_path) + ".graph") as fh:
        g = parse_graph(fh.read())
    sidecar_path = str(base_path) + ".roles.json"
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    if not (isinstance(sidecar, dict) and isinstance(sidecar.get("kind"), str)
            and isinstance(sidecar.get("roles"), dict)
            and isinstance(sidecar.get("meta", {}), dict)):
        raise ParseError("%s: need an object with a string 'kind', an object 'roles' "
                         "and an optional object 'meta'" % sidecar_path)
    roles = {int(v): rec for v, rec in sidecar["roles"].items()}
    return ReductionArtifact(sidecar["kind"], g, roles, sidecar.get("meta", {}))
