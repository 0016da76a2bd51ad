import contextlib
import io
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choosability import dimacs
from choosability.cli import main
from choosability.dimacs import (MAX_GRAPH_VERTICES, ParseError, parse_dimacs_cnf,
                                 parse_graph, read_artifact, write_artifact,
                                 write_dimacs_cnf, write_graph)
from choosability.generators import gen_formula, gen_gnp
from choosability.graphs import Graph
from choosability.reductions import CnfFormula, constraint_graph_P, triangle_reduction

from conftest import cycle_graph, parse_graph_reference, write_graph_reference


class TestGraphFormat:
    def test_parse_triangle(self):
        g = parse_graph("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g == cycle_graph(3)

    def test_comments_and_blank_lines(self):
        g = parse_graph("c a triangle\n\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g.n == 3

    def test_self_loop_error_line(self):
        with pytest.raises(ParseError, match="line 2.*self-loop"):
            parse_graph("p edge 2 1\ne 1 1\n")

    def test_duplicate_edge_error(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("p edge 2 2\ne 1 2\ne 2 1\n")

    def test_out_of_range_error(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_graph("p edge 2 1\ne 1 3\n")

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="promised"):
            parse_graph("p edge 3 2\ne 1 2\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_graph("e 1 2\n")

    def test_roundtrip_constraint_graph(self):
        g = constraint_graph_P().graph
        text = write_graph(g)
        # labels are not serialized; compare structure
        parsed = parse_graph(text)
        assert parsed.n == g.n and parsed.edges == g.edges
        assert write_graph(parsed) == text

    def test_writer_keeps_to_the_parser_vertex_limit(self):
        edgeless = parse_graph("p edge %d 0\n" % MAX_GRAPH_VERTICES)
        assert parse_graph(write_graph(edgeless)) == edgeless
        with pytest.raises(ValueError, match="the limit is %d" % MAX_GRAPH_VERTICES):
            write_graph(Graph(MAX_GRAPH_VERTICES + 1, []))

    @pytest.mark.parametrize("g", [Graph(0, []), Graph(5, [(1, 3)]), Graph(4, []),
                                   cycle_graph(99999)],
                             ids=["empty", "isolated-vertices", "edgeless", "C99999"])
    def test_writer_matches_the_former_writer(self, g):
        text = write_graph(g)
        assert text == write_graph_reference(g)
        assert parse_graph(text) == g

    def test_roundtrip_generated_corpus(self):
        for seed in range(40):
            g = gen_gnp(1 + seed % 17, 0.3, seed=seed)
            assert parse_graph(write_graph(g)) == g


class TestCnfFormat:
    def test_basic(self):
        phi = parse_dimacs_cnf("p cnf 3 1\n1 2 -3 0\n")
        assert phi == CnfFormula(3, [(1, 2, -3)])

    def test_duplicate_literal(self):
        with pytest.raises(ParseError, match="duplicate literal"):
            parse_dimacs_cnf("p cnf 3 1\n1 1 2 0\n")

    def test_missing_terminator(self):
        with pytest.raises(ParseError, match="line 2.*not terminated"):
            parse_dimacs_cnf("p cnf 3 1\n1 2 -3\n")

    def test_arity_error(self):
        with pytest.raises(ParseError, match="need exactly 3"):
            parse_dimacs_cnf("p cnf 4 1\n1 2 3 4 0\n")

    def test_out_of_range_literal(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_dimacs_cnf("p cnf 2 1\n1 2 -3 0\n")

    def test_clause_spanning_lines(self):
        phi = parse_dimacs_cnf("p cnf 3 1\n1 2\n-3 0\n")
        assert phi.clauses == ((1, 2, -3),)

    @pytest.mark.parametrize("rot", ["c rot 1 2 3 1\nc rot 2 1 2 3", "c rot 1 2 3 1",
                                     "c rot 1 1 1 2\nc rot x y z w", "c rot 9 1 2 3\nc rot 1 2"],
                             ids=["former-extension", "one-clause", "not-permutations",
                                  "bad-index-and-arity"])
    def test_rot_lines_are_comments(self, rot):
        plain = "p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n"
        phi = parse_dimacs_cnf(plain)
        assert parse_dimacs_cnf(rot + "\n" + plain) == phi
        assert parse_dimacs_cnf(plain.replace("\n", "\n" + rot + "\n", 1)) == phi

    @pytest.mark.parametrize("header, message", [
        ("p cnf 3 -1", "header counts must be non-negative"),
        ("p cnf -2 1", "header counts must be non-negative"),
        ("p cnf 0 0", "need at least one variable"),
        ("p cnf 0 1", "need at least one variable"),
    ])
    def test_header_counts_rejected_at_the_header(self, header, message):
        with pytest.raises(ParseError) as info:
            parse_dimacs_cnf("c first\n%s\n1 2 3 0\n" % header)
        assert str(info.value) == "line 2: " + message

    def test_roundtrip(self):
        for seed in range(25):
            phi = gen_formula(4 + seed % 4, 1 + seed % 3, seed=seed)
            assert parse_dimacs_cnf(write_dimacs_cnf(phi)) == phi


class TestArtifactFiles:
    def test_roundtrip(self, tmp_path):
        art = triangle_reduction(cycle_graph(4))
        base = tmp_path / "artifact"
        write_artifact(art, base)
        loaded = read_artifact(base)
        assert loaded.kind == art.kind
        assert loaded.graph == art.graph
        assert loaded.roles == {v: rec for v, rec in art.roles.items()}
        assert loaded.meta == art.meta

    def test_rewrite_leaves_open_handle_on_old_bytes(self, tmp_path):
        base = tmp_path / "artifact"
        write_artifact(triangle_reduction(cycle_graph(5)), base)
        graph_path = tmp_path / "artifact.graph"
        old = graph_path.read_bytes()
        art = triangle_reduction(cycle_graph(4))
        with open(graph_path, "rb") as fh:
            write_artifact(art, base)
            assert fh.read() == old
        assert graph_path.read_text() == write_graph(art.graph)

    def test_hard_link_replaced_symlink_written_through(self, tmp_path):
        shared = tmp_path / "shared.graph"
        shared.write_text("keep me\n")
        linked = tmp_path / "linked.json"
        linked.write_text("c an older and much longer file\n" * 50)
        os.link(shared, tmp_path / "artifact.graph")
        (tmp_path / "artifact.roles.json").symlink_to(linked)
        art = triangle_reduction(cycle_graph(4))
        write_artifact(art, tmp_path / "artifact")
        assert shared.read_text() == "keep me\n"
        assert (tmp_path / "artifact.roles.json").is_symlink()
        assert linked.read_text().startswith("{")
        loaded = read_artifact(tmp_path / "artifact")
        assert loaded.graph == art.graph and loaded.kind == art.kind


# ---------------------------------------------------------------------------
# fuzzing: texts near the grammar, perturbed by junk lines
# ---------------------------------------------------------------------------

FUZZ = settings(derandomize=True, max_examples=500, deadline=None, database=None)

# short lines with small numbers, so no header asks for a huge graph
_JUNK = st.one_of(
    st.sampled_from(["", "c", "c rot 1 2 3 1", "c rot 1 1", "p", "e", "0", "1 2 3",
                     "p edge 2", "p cnf 3", "p edge x 1", "p cnf 3 y", "e 1", "e a b"]),
    st.builds("e {} {}".format, st.integers(-1, 8), st.integers(-1, 8)),
    st.builds("p {} {} {}".format, st.sampled_from(["edge", "cnf"]),
              st.integers(-1, 8), st.integers(-1, 8)),
    st.builds(" ".join, st.lists(st.integers(-5, 5).map(str), max_size=5)),
    st.text(alphabet="pecnfdg-0123456789 \t\r", max_size=10),
    st.text(max_size=10),
)


@st.composite
def _perturbed(draw, lines):
    """Insert and delete a few lines of a valid document."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK))
    if lines and draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def graph_texts(draw):
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = ["p edge %d %d" % (n, len(edges))]
    lines += ["e %d %d" % ((u, v) if draw(st.booleans()) else (v, u)) for u, v in edges]
    return draw(_perturbed(lines))


@st.composite
def cnf_texts(draw):
    n = draw(st.integers(2, 6))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=3, max_size=3, unique=True), max_size=4))
    lines = ["p cnf %d %d" % (n, len(clauses))]
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    return draw(_perturbed(lines))


def _main_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


class TestFuzz:
    """Parsers raise only ValueError (ParseError included), the CLI maps it to exit 2,
    and every accepted text round-trips through the writer."""

    @staticmethod
    def _check(parse, write, text, path, argv):
        try:
            parsed = parse(text)
        except ValueError:
            path.unlink(missing_ok=True)  # a truncating rewrite is flushed at close
            path.write_text(text)
            code, err = _main_quietly(argv + [str(path)])
            assert code == 2 and err.startswith("error:")
            return
        assert parse(write(parsed)) == parsed

    @FUZZ
    @given(graph_texts())
    def test_parse_graph(self, fuzz_file, text):
        self._check(parse_graph, write_graph, text, fuzz_file, ["core"])

    @FUZZ
    @given(cnf_texts())
    def test_parse_dimacs_cnf(self, fuzz_file, text):
        self._check(parse_dimacs_cnf, write_dimacs_cnf, text, fuzz_file,
                    ["reduce", "planar3sat", "--p", "1"])


# ---------------------------------------------------------------------------
# the one-pass graph parser against the parser that checked every edge line
# ---------------------------------------------------------------------------

_SYNTAX_FAULTS = ["e 1", "e 1 2 3", "e a 2", "x 1 2", "p edge 3 3", "p", "e 1.5 2"]


def _edge_fault(rng, n, edges):
    """An ``e`` line that is a self-loop, out of range, or repeats one of ``edges``."""
    kind = rng.choice(["self-loop", "range", "duplicate"] if edges else ["self-loop", "range"])
    if kind == "self-loop":
        u = rng.randint(1, n + 2)
        return "e %d %d" % (u, u)
    if kind == "range":
        u, v = rng.randint(1, n), rng.choice([0, -1, n + 1, n + 5])
        return "e %d %d" % ((u, v) if rng.random() < 0.5 else (v, u))
    u, v = rng.choice(edges)
    return "e %d %d" % ((u, v) if rng.random() < 0.5 else (v, u))


def fault_corpus(seed=2024, count=1500):
    """Graph texts with one or two edge faults placed before or after a syntax
    fault, or before an edge count that does not match the header."""
    rng = random.Random(seed)
    texts = []
    for trial in range(count):
        n = rng.randint(2, 8)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = rng.sample(pairs, rng.randint(0, min(6, len(pairs))))
        body = ["e %d %d" % ((u, v) if rng.random() < 0.5 else (v, u)) for u, v in edges]
        faults = []
        for _ in range(rng.randint(1, 2)):
            at = rng.randint(0, len(body))
            body.insert(at, _edge_fault(rng, n, edges))
            faults = [i + (i >= at) for i in faults] + [at]
        m = len(body)
        if trial % 3 == 0:                       # a syntax fault after every edge fault
            body.insert(rng.randint(max(faults) + 1, len(body)), rng.choice(_SYNTAX_FAULTS))
        elif trial % 3 == 1:                     # a syntax fault before the first one
            body.insert(rng.randint(0, min(faults)), rng.choice(_SYNTAX_FAULTS))
        else:                                    # an edge count that does not match
            m += rng.choice([-1, 1, 3])
        lines = ["c seeded fault %d" % trial, "p edge %d %d" % (n, max(m, 0))] + body
        for _ in range(rng.randint(0, 2)):
            lines.insert(rng.randint(1, len(lines)), rng.choice(["", "c note", "   "]))
        texts.append("\n".join(lines) + rng.choice(["", "\n"]))
    return texts


def _outcome(parse, text):
    try:
        return "graph", parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line


class TestParseGraphAgainstReference:
    @FUZZ
    @given(graph_texts())
    def test_hypothesis_corpus(self, text):
        assert _outcome(parse_graph, text) == _outcome(parse_graph_reference, text)

    def test_seeded_fault_corpus(self):
        reported = []
        for text in fault_corpus():
            expected = _outcome(parse_graph_reference, text)
            assert _outcome(parse_graph, text) == expected, text
            reported.append(expected[1])
        # the corpus reaches each edge fault and syntax faults that come first;
        # every text has an edge fault, so the count check is never reported
        for kind in ("self-loop", "out of range", "duplicate edge", "edge line must be",
                     "edge endpoints must be integers", "unrecognized line"):
            assert any(kind in message for message in reported), kind


# ---------------------------------------------------------------------------
# the writer-shape fast path against the line loop it hands every other text to
# ---------------------------------------------------------------------------

def _written(seed, n, prob):
    """``(graph, text)``: a seeded G(n, prob) and its file as the writer makes it,
    after two comment lines."""
    g = gen_gnp(n, prob, seed=seed)
    return g, "c seeded %d\nc written\n" % seed + write_graph(g)


def _shuffled_flipped(g, rng):
    """A file of ``g`` with its edge lines in random order and orientation."""
    lines = ["e %d %d" % ((u + 1, v + 1) if rng.random() < 0.5 else (v + 1, u + 1))
             for u, v in g.edges]
    rng.shuffle(lines)
    return "".join(line + "\n" for line in ["p edge %d %d" % (g.n, g.m)] + lines)


#: ways to bend one edge line ``e <u> <v>`` out of the writer's shape; each
#: gives the lines that replace it, and the file may or may not stay valid
_BENT_LINES = {
    "tab": lambda u, v: ["e\t%s %s" % (u, v)],
    "double space": lambda u, v: ["e %s  %s" % (u, v)],
    "trailing space": lambda u, v: ["e %s %s " % (u, v)],
    "leading space": lambda u, v: [" e %s %s" % (u, v)],
    "crlf on one line": lambda u, v: ["e %s %s\r" % (u, v)],
    "blank line": lambda u, v: ["", "e %s %s" % (u, v)],
    "comment after header": lambda u, v: ["c after the header", "e %s %s" % (u, v)],
    "plus sign": lambda u, v: ["e +%s %s" % (u, v)],
    "underscore": lambda u, v: ["e %s_0 %s" % (u, v)],
    "leading zero": lambda u, v: ["e %s 00%s" % (u, v)],
    "vertical tab": lambda u, v: ["e %s\x0b%s" % (u, v)],
    "line separator": lambda u, v: ["e %s %s\u2028" % (u, v)],
    "non-ASCII digit": lambda u, v: ["e %s \u0661" % u],
    "uppercase": lambda u, v: ["E %s %s" % (u, v)],
    "self-loop": lambda u, v: ["e %s %s" % (u, u)],
    "out of range": lambda u, v: ["e %s 100001" % u],
}


def _bend_line(text, at, kind):
    """``text`` with its ``at``-th line (0-based), an edge line, bent by ``kind``."""
    lines = text.split("\n")
    _, u, v = lines[at].split(" ")
    lines[at:at + 1] = _BENT_LINES[kind](u, v)
    return "\n".join(lines)


def _bend_file(text, kind):
    """``text`` bent out of the writer's shape as a whole."""
    if kind == "crlf everywhere":
        return text.replace("\n", "\r\n")
    if kind == "no final newline":
        return text[:-1]
    if kind.startswith("line break in a comment"):
        return "c a%sb\n" % kind[-1] + text
    if kind == "field moved to the next line":
        # the counts of fields, spaces and line breaks stay those of the shape
        at = _edge_lines(text)[0]
        lines = text.split("\n")
        head, _, last = lines[at].rpartition(" ")
        lines[at:at + 2] = [head, last + " " + lines[at + 1]]
        return "\n".join(lines)
    header = next(line for line in text.split("\n") if line.startswith("p "))
    _, _, n, m = header.split(" ")
    step = 1 if kind == "m plus one" else -1
    return text.replace(header, "p edge %s %d" % (n, int(m) + step), 1)


_BENT_FILES = ["crlf everywhere", "no final newline", "m plus one", "m minus one",
               "field moved to the next line", "line break in a comment \r",
               "line break in a comment \x0b", "line break in a comment \u2028"]


def _edge_lines(text):
    return [i for i, line in enumerate(text.split("\n")) if line.startswith("e ")]


def _same_as_reference_by_the_line_loop(text):
    assert dimacs._parse_written(text) is None, text[:200]
    assert _outcome(parse_graph, text) == _outcome(parse_graph_reference, text)


class TestWriterShapeFastPath:
    @pytest.fixture
    def lines_only(self, monkeypatch):
        """Make the line loop fail, so that only the fast path can parse."""
        def refuse(text):
            raise AssertionError("the line loop ran")
        monkeypatch.setattr(dimacs, "_parse_lines", refuse)

    @pytest.mark.parametrize("seed", range(6))
    def test_fast_path_runs_on_written_and_shuffled_files(self, lines_only, seed):
        rng = random.Random(seed)
        # the last two files are over twice _CHUNK characters long
        g, text = _written(seed, [1, 5, 30, 120, 900, 1000][seed], 0.05 + 0.05 * (seed % 3))
        for variant in (write_graph(g), text, _shuffled_flipped(g, rng)):
            assert parse_graph(variant) == parse_graph_reference(variant) == g
        assert (len(text) > 2 * dimacs._CHUNK) == (seed >= 4)

    def test_fast_path_runs_on_headers_without_edges(self, lines_only):
        for text in ("p edge 0 0\n", "c x\np edge 7 0\n", "p edge %d 0\n" % MAX_GRAPH_VERTICES,
                     "c \u00e9t\u00e9, crlf\r\ncomment\np edge 3 2\ne 3 1\ne 1 2\n"):
            assert parse_graph(text) == parse_graph_reference(text)

    @pytest.mark.parametrize("text", ["p edge \u00b2 0\n", "p edge 0 \u00b2\n",
                                      "p edge %s 0\n" % ("9" * 5000),
                                      "p edge 0 %s\n" % ("9" * 5000)],
                             ids=["superscript n", "superscript m", "long n", "long m"])
    def test_header_counts_int_cannot_read_go_to_the_line_loop(self, text):
        # a superscript digit passes str.isdigit, and 5,000 digits pass it
        # but exceed int's default limit of 4,300
        _same_as_reference_by_the_line_loop(text)

    @pytest.mark.parametrize("kind", list(_BENT_LINES) + _BENT_FILES)
    def test_near_misses_go_to_the_line_loop(self, kind):
        for seed in range(8):
            rng = random.Random(seed)
            g, text = _written(seed, 8 + seed, 0.4)
            if not g.m:
                continue
            for base in (text, _shuffled_flipped(g, rng)):
                if kind in _BENT_LINES:
                    near = _bend_line(base, rng.choice(_edge_lines(base)), kind)
                else:
                    near = _bend_file(base, kind)
                _same_as_reference_by_the_line_loop(near)

    @pytest.mark.parametrize("kind", list(_BENT_LINES) + ["duplicate"])
    def test_large_files_bent_at_the_piece_boundary(self, kind):
        _, text = _written(3, 900, 0.03)
        assert len(text) > dimacs._CHUNK
        lines = text.split("\n")
        # the first line of the second piece, which starts after the header
        body = text.index("\n", text.index("p edge")) + 1
        second = text.count("\n", 0, text.rfind("\n", body, body + dimacs._CHUNK) + 1)
        assert lines[second].startswith("e ") and lines[second - 1].startswith("e ")
        for at in (second - 1, second, second + 1, len(lines) - 2):
            if kind == "duplicate":
                near = "\n".join(lines[:at] + [lines[second - 7]] + lines[at + 1:])
            else:
                near = _bend_line(text, at, kind)
            _same_as_reference_by_the_line_loop(near)

    @pytest.mark.parametrize("kind", _BENT_FILES)
    def test_large_files_bent_as_a_whole(self, kind):
        rng = random.Random(5)
        g, text = _written(5, 900, 0.03)
        for base in (text, _shuffled_flipped(g, rng)):
            _same_as_reference_by_the_line_loop(_bend_file(base, kind))
