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

from .graphs import MAX_GRAPH_VERTICES, Graph, _check_vertex_limit
from .reductions import CnfFormula, ReductionArtifact


class ParseError(ValueError):
    """Malformed input; ``line`` is the 1-based offending line number, if any."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else "line %d: %s" % (line, message))
        self.line = line


#: the most text the writer-shape reader splits at once, in characters; a
#: piece ends at the last line break inside it
_CHUNK = 1 << 16


def parse_graph(text):
    """The graph in ``text``; ParseError naming the first faulty line in file order.

    A text in the writer's shape takes a fast path (:func:`_parse_written`):
    ``c`` lines, one ``p edge <n> <m>`` header, then ``e <u> <v>`` lines,
    each field after a single space and each line ended by ``\\n``; the
    edge lines may come in any order and orientation.  Any other text, and
    any text with a fault, goes to :func:`_parse_lines`, the general reader
    and the one that names a faulty line.
    """
    g = _parse_written(text)
    return _parse_lines(text) if g is None else g


def _parse_written(text):
    """The graph of ``text`` if it is in the writer's shape with no fault, else None.

    After the ``c`` lines and the header, the edge lines are read in pieces
    of at most ``_CHUNK`` characters, each cut after a line break.  A piece
    is accepted only when it is exactly lines ``e <u> <v>\\n`` with ASCII
    decimal endpoints without a sign or leading zero: its fields, spaces
    and line breaks are counted against its number of lines, so a tab, a
    ``\\r``, a doubled or trailing space, a blank or comment line all fail.
    Each accepted piece is split once into its two endpoint columns, and
    ``Graph._from_columns`` checks the edges; the text is never split as
    a whole.  Every endpoint maps to one shared int per vertex.
    """
    start = 0
    while text.startswith("c", start):
        start = text.find("\n", start) + 1
        if not start:
            return None
    end = text.find("\n", start)
    head = text[:end + 1]
    fields = text[start:end].split(" ")
    # no line break but "\n" (or "\r\n", one break) in the comments and the header
    if (end < 0 or len(head.splitlines()) != head.count("\n")
            or len(fields) != 4 or fields[:2] != ["p", "edge"]
            or not (fields[2].isdigit() and fields[3].isdigit())):
        return None
    try:
        n, m = int(fields[2]), int(fields[3])
    except ValueError:      # a digit int() does not read, or too many digits
        return None
    if n > MAX_GRAPH_VERTICES:
        return None
    us, vs = [], []
    pos, size = end + 1, len(text)
    if pos < size:
        vertex = list(range(-1, n)).__getitem__      # 1-based id to 0-based
        try:
            while pos < size:
                cut = text.rfind("\n", pos, pos + _CHUNK) + 1
                if cut <= pos:
                    return None
                piece = text[pos:cut]
                pos = cut
                lines = piece.count("\n")
                tokens = piece.split()
                heads, tails = tokens[1::3], tokens[2::3]
                digits = "".join(heads) + "".join(tails)
                if not (len(tokens) == 3 * lines and tokens[::3].count("e") == lines
                        and piece.count(" ") == 2 * lines
                        and piece.count("\ne ") == lines - 1
                        and len(piece) == 4 * lines + len(digits)
                        and piece.isascii() and digits.isdigit() and " 0" not in piece):
                    return None
                us += map(vertex, map(int, heads))
                vs += map(vertex, map(int, tails))
        except (IndexError, ValueError):    # an endpoint above n, or too many digits
            return None
    if len(us) != m:
        return None
    try:
        return Graph._from_columns(n, us, vs)
    except ValueError:
        return None


def _parse_lines(text):
    """:func:`parse_graph` of any text, line by line.

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
    once.  The text is in the shape :func:`parse_graph` reads on its fast
    path: no comment, the header, then ``e <u> <v>\\n`` lines.  The edges
    go out in ``g.edges`` order, ascending (built from the adjacency if
    ``g`` was not given them that way), but a reader need not keep it: the
    parsed graph lists them ascending again, so a ``sat3`` artifact is
    checked against :func:`reductions._h_edges` on its edge set, whatever
    the order, orientation or comment lines of its file.
    """
    n = g.n
    _check_vertex_limit(n)
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
