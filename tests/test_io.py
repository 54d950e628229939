import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gemfree
from gemfree.cli import main
from gemfree.graph_io import (
    FORMATS,
    parse,
    parse_dimacs,
    parse_edgelist,
    format_for_path,
    parse_json_graph,
    read_graph,
    serialize,
    to_dot,
)
from gemfree.graphs import Graph, GraphError
from gemfree.patterns import cycle_graph

from conftest import small_graphs, token_texts


@given(small_graphs(max_n=10), st.text())
def test_roundtrip_all_formats(g, name):
    g = Graph(g.n, g.adj, name)
    for fmt in ("dimacs", "edgelist", "json"):
        back = parse(serialize(g, fmt), fmt)
        assert back.n == g.n and back.adj == g.adj
    assert parse(serialize(g, "json"), "json").name == name


def test_dimacs_comments_and_1_based():
    text = "c a comment\np edge 3 2\ne 1 2\ne 2 3\n"
    g = parse_dimacs(text)
    assert g.n == 3 and g.has_edge(0, 1) and g.has_edge(1, 2)


# malformed DIMACS input -> a pattern its error text starts with
DIMACS_MALFORMED = {
    "e 1 2\n": "DIMACS edge line 1 before header: 'e 1 2'",
    "c x\ne 1 2\n": "DIMACS edge line 2 before header: 'e 1 2'",  # comments keep line numbers
    "p edge 2 1\ne 1 5\n": "endpoint 5 outside 1..2 on line 2: 'e 1 5'",
    "p wrong 2 1\n": "bad DIMACS header on line 1",
    "p edge 2 1\nx 1 2\n": "unrecognized DIMACS line 2",
    "p edge 3 1\ne 1\n": "DIMACS edge line 2 needs two endpoints",
    "p edge x 1\n": "non-integer 'x' on line 1",
    "p edge 3 1\ne 1 x\n": "non-integer 'x' on line 2",
    "p edge 3 x\ne 1 2\n": "non-integer 'x' on line 1",  # non-numeric edge count
    "p edge 3 99\ne 1 2\n": "expected 99 edge lines, found 1",  # fewer edge lines
    "p edge 5 1\ne 4 5\np edge 6 1\n": "repeated DIMACS header on line 3",
    "p edge 4 2\ne 1 2\ne 3 3\n": "self-loop at vertex 3 on line 3: 'e 3 3'",  # 1-based
    "p edge 4 1\ne 0 2\n": "endpoint 0 outside 1..4 on line 2",  # 0 is not a DIMACS vertex
    "p edge 600 1\ne 1 700\n": "vertex count 600 outside supported range",  # n first
}


@pytest.mark.parametrize("text", list(DIMACS_MALFORMED))
def test_dimacs_rejects_malformed(text):
    with pytest.raises(GraphError, match="^" + re.escape(DIMACS_MALFORMED[text])):
        parse_dimacs(text)


def test_dimacs_repeated_header_names_line():
    with pytest.raises(GraphError, match="repeated DIMACS header on line 3"):
        parse_dimacs("p edge 5 1\ne 4 5\np edge 6 1\n")


# malformed edge-list input -> a pattern its error text starts with
EDGELIST_MALFORMED = {
    "3 2\n0 1\n": "expected 2 edge lines, found 1",
    "3 1\n0\n": "edge-list line 2 needs two endpoints: '0'",
    "3 1\n0 1 2\n": "edge-list line 2 needs two endpoints: '0 1 2'",
    "# c\n3 1 0\n0 1\n": "edge-list header line 2 must be 'n m': '3 1 0'",
    "3 1\n0 x\n": "non-integer 'x' on line 2",
    "x 1\n0 1\n": "non-integer 'x' on line 1",
    "4 2\n0 1\n2 9\n": "endpoint 9 outside 0..3 on line 3: '2 9'",
    "4 1\n# c\n1 1\n": "self-loop at vertex 1 on line 3: '1 1'",  # comments keep line numbers
    "-1 2\n0 1\n": "vertex count -1 outside supported range",  # n before the edge count
}


@pytest.mark.parametrize("text", list(EDGELIST_MALFORMED))
def test_edgelist_rejects_malformed(text):
    with pytest.raises(GraphError, match="^" + re.escape(EDGELIST_MALFORMED[text])):
        parse_edgelist(text)


# malformed JSON input -> the start of the error text after the common prefix
JSON_MALFORMED = {
    '{"n": "x", "edges": []}': "n",
    '{"n": 3, "edges": [[0]]}': "edges",
    '{"n": 1e400, "edges": []}': "n",
    "not json": "",
    "[1, 2]": "expected an object",
    '{"n": 2.7, "edges": [[0, 1]]}': "n",  # was truncated to 2
    '{"n": true, "edges": []}': "n",  # was read as 1
    '{"n": 3, "edges": [[0, 1.0]]}': r"edges\[0\]\[1\]",
    '{"n": 3, "edges": [[0, 1], [false, 2]]}': r"edges\[1\]\[0\]",
    '{"n": 3, "edges": [[0, 1, 2]]}': r"edges\[0\]",
    '{"n": 3, "edges": "01"}': "edges",
    '{"n": 2, "edges": [], "name": 5}': "name",  # was an int name
    '{"n": 4, "edges": [[0, 1], [2, 7]]}': r"endpoint 7 outside 0\.\.3 in edges\[1\]",
    '{"n": 4, "edges": [[0, 1], [2, 2]]}': r"self-loop at vertex 2 in edges\[1\]",
}


@pytest.mark.parametrize("text", list(JSON_MALFORMED))
def test_json_rejects_malformed(text, tmp_path, capsys):
    with pytest.raises(GraphError, match="bad JSON graph object: " + JSON_MALFORMED[text]):
        parse_json_graph(text)
    p = tmp_path / "g.json"
    p.write_text(text)
    assert main(["check", str(p)]) == 2
    assert "bad JSON graph object" in capsys.readouterr().err


def test_json_rejects_deep_nesting(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    with pytest.raises(GraphError, match="bad JSON graph object"):
        parse_json_graph(p.read_text())
    assert main(["check", str(p)]) == 2


def test_json_name_defaults_to_argument():
    assert parse_json_graph('{"n": 2, "edges": [[0, 1]]}', "fallback").name == "fallback"
    assert parse_json_graph('{"n": 2, "edges": [], "name": "g"}', "fallback").name == "g"


def test_non_integer_token_names_line():
    with pytest.raises(GraphError, match="non-integer 'x' on line 2: '0 x'"):
        parse_edgelist("3 1\n0 x\n")
    with pytest.raises(GraphError, match="non-integer 'x' on line 3"):
        parse_dimacs("c\np edge 3 1\ne 1 x\n")


@given(token_texts())
def test_parse_returns_graph_or_graph_error(text):
    for fmt in FORMATS:
        try:
            assert isinstance(parse(text, fmt), Graph)
        except GraphError:
            pass


def test_dot_export_mentions_all_edges():
    dot = to_dot(cycle_graph(4))
    assert dot.count("--") == 4


def test_dot_input_is_named_write_only(tmp_path, capsys):
    with pytest.raises(GraphError, match="format 'dot' is write-only"):
        parse(to_dot(cycle_graph(4)), "dot")
    with pytest.raises(GraphError, match="unknown format 'gml'"):
        parse("", "gml")
    p = tmp_path / "g.dot"
    p.write_text(to_dot(cycle_graph(4)))
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err == "error: format 'dot' is write-only\n"


def test_serialize_refuses_an_unknown_format():
    # the writers' twin of parse's refusal: dot is writable, gml is neither
    assert serialize(cycle_graph(4), "dot") == to_dot(cycle_graph(4))
    with pytest.raises(GraphError, match="^unknown format 'gml'$"):
        serialize(cycle_graph(4), "gml")


def test_read_graph_infers_format(tmp_path):
    p = tmp_path / "c5.col"
    p.write_text(serialize(cycle_graph(5), "dimacs"))
    g, data = read_graph(p)
    assert g.n == 5 and g.num_edges == 5 and g.name == "c5"
    assert data == p.read_bytes()


def _outcome(fn):
    try:
        return fn()
    except (GraphError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name,data", [
    ("crlf.json", b'{"n": 3,\r\n "edges": [[0, 1],\r\n [1, 2]]}\r\n'),
    ("crlf-bad.json", b'{"n": 3,\r\n "edges": [[0, 1],\r\n [1, 2]\r\n'),
    ("cr-only.txt", b"3 2\r0 1\r1 x\r"),
    ("crlf.col", b"c g\r\np edge 3 2\r\ne 1 2\r\ne 2\r\n"),
    ("latin1.col", b"c caf\xe9\np edge 2 1\ne 1 2\n"),
    ("bom.json", b'\xef\xbb\xbf{"n": 2, "edges": [[0, 1]]}'),
])
def test_read_graph_decodes_as_read_text(name, data, tmp_path):
    # the bytes are read once, then decoded as `Path.read_text()` would decode them
    p = tmp_path / name
    p.write_bytes(data)
    want = _outcome(lambda: parse(p.read_text(), format_for_path(p), p.stem))
    assert _outcome(lambda: read_graph(p)[0]) == want


_DECODE_PROBE = """
import json, sys
from pathlib import Path
from gemfree.graph_io import format_for_path, parse, read_graph

def outcome(fn):
    try:
        g = fn()
        return [g.n, g.num_edges, g.name]
    except ValueError as exc:
        return [type(exc).__name__, str(exc)]

rows = []
for arg in sys.argv[1:]:
    p = Path(arg)
    rows.append([outcome(lambda: read_graph(p)[0]),
                 outcome(lambda: parse(p.read_text(), format_for_path(p), p.stem))])
print(json.dumps([sys.flags.utf8_mode, rows]))
"""


@pytest.mark.parametrize("flags,env,utf8", [
    (["-X", "utf8"], {"LC_ALL": "C"}, 1),
    ([], {"LC_ALL": "C"}, 1),  # the C locale turns UTF-8 mode on by itself
    (["-X", "utf8=0"], {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}, 0),  # ASCII
])
def test_read_graph_decodes_as_read_text_in_every_mode(flags, env, utf8, tmp_path):
    # a child interpreter, as the encoding that `read_text()` uses is fixed at start-up
    files = []
    for name, data in (("utf8.col", "c café\np edge 2 1\ne 1 2\n".encode()),
                       ("latin1.col", b"c caf\xe9\np edge 2 1\ne 1 2\n"),
                       ("ascii.col", b"c g\r\np edge 2 1\r\ne 1 2\r\n")):
        files.append(tmp_path / name)
        files[-1].write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(Path(gemfree.__file__).resolve().parents[1]), **env)
    proc = subprocess.run([sys.executable, *flags, "-c", _DECODE_PROBE, *map(str, files)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    mode, rows = json.loads(proc.stdout)
    assert mode == utf8
    for got, want in rows:
        assert got == want
    # the UTF-8 comment parses in UTF-8 mode and is refused in ASCII
    assert (rows[0][0] == [2, 1, "utf8"]) == bool(utf8)
