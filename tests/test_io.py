import pytest
from hypothesis import given

from gemfree.graph_io import (
    parse,
    parse_dimacs,
    parse_edgelist,
    read_graph,
    serialize,
    to_dot,
)
from gemfree.graphs import GraphError
from gemfree.patterns import cycle_graph

from conftest import small_graphs


@given(small_graphs(max_n=10))
def test_roundtrip_all_formats(g):
    for fmt in ("dimacs", "edgelist", "json"):
        back = parse(serialize(g, fmt), fmt)
        assert back.n == g.n and back.adj == g.adj


def test_dimacs_comments_and_1_based():
    text = "c a comment\np edge 3 2\ne 1 2\ne 2 3\n"
    g = parse_dimacs(text)
    assert g.n == 3 and g.has_edge(0, 1) and g.has_edge(1, 2)


@pytest.mark.parametrize(
    "text",
    ["e 1 2\n", "p edge 2 1\ne 1 5\n", "p wrong 2 1\n", "p edge 2 1\nx 1 2\n",
     "p edge 3 1\ne 1\n"],
)
def test_dimacs_rejects_malformed(text):
    with pytest.raises(GraphError):
        parse_dimacs(text)


@pytest.mark.parametrize("text", [
    "3 2\n0 1\n",  # fewer edge lines than the header says
    "3 1\n0\n",  # one endpoint
    "3 1\n0 1 2\n",  # three numbers
])
def test_edgelist_rejects_malformed(text):
    with pytest.raises(GraphError):
        parse_edgelist(text)


def test_dot_export_mentions_all_edges():
    dot = to_dot(cycle_graph(4))
    assert dot.count("--") == 4


def test_read_graph_infers_format(tmp_path):
    p = tmp_path / "c5.col"
    p.write_text(serialize(cycle_graph(5), "dimacs"))
    g = read_graph(p)
    assert g.n == 5 and g.num_edges == 5 and g.name == "c5"
