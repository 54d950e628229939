import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemfree.generators import ExpansionSpec, complete_expansion, named_graph, random_class_member
from gemfree.graph_io import parse
from gemfree.graphs import (
    Coloring,
    Graph,
    GraphError,
    _twin_classes,
    bits,
    build_graph,
    cograph_coloring,
    complement,
    disjoint_union,
    first_occurrence_colors,
    join,
    mask_of,
)
from gemfree.patterns import complete_graph, cycle_graph, find_induced, path_graph

from conftest import small_graphs, to_nx


def test_build_c5():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert g.n == 5 and g.num_edges == 5
    assert all(g.degree(v) == 2 for v in range(5))


def test_build_edgeless_complement_is_complete():
    g = build_graph(3, [])
    assert complement(g).num_edges == 3


def test_duplicate_edges_collapse():
    g = build_graph(4, [(0, 1), (0, 1)])
    assert g.num_edges == 1


@pytest.mark.parametrize("bad", [[(0, 5)], [(2, 2)], [(-1, 0)]])
def test_build_rejects_bad_edges(bad):
    with pytest.raises((GraphError, ValueError)):
        build_graph(4, bad)


@pytest.mark.parametrize("build", [
    lambda: build_graph(10**7, []),
    lambda: parse("p edge 10000000 0\n", "dimacs"),
    lambda: parse("10000000 0\n", "edgelist"),
    lambda: parse('{"n": 10000000, "edges": []}', "json"),
    lambda: named_graph("k2000"),
    lambda: named_graph("p200000"),
    lambda: named_graph("c200000"),
    lambda: complete_expansion(ExpansionSpec(cycle_graph(5), (1000, 1, 1, 1, 1))),
    lambda: random_class_member(1000, 0, "expand"),
    lambda: random_class_member(1000, 0, "prune"),
], ids=["build_graph", "dimacs", "edgelist", "json", "k2000", "p200000", "c200000",
        "expansion", "random-expand", "random-prune"])
def test_oversized_graph_fails_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="outside supported range"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak {peak} bytes before the vertex count was rejected"


def test_complement_k4_is_edgeless():
    assert complement(complete_graph(4)).num_edges == 0


def test_c5_self_complementary():
    c5 = cycle_graph(5)
    assert nx.is_isomorphic(to_nx(complement(c5)), to_nx(c5))


@given(small_graphs(max_n=8))
def test_complement_involution(g):
    assert complement(complement(g)).adj == g.adj


@given(small_graphs(max_n=6), small_graphs(max_n=6))
def test_union_and_join_edge_counts(g1, g2):
    assert disjoint_union(g1, g2).num_edges == g1.num_edges + g2.num_edges
    assert join(g1, g2).num_edges == g1.num_edges + g2.num_edges + g1.n * g2.n


def test_join_k2_k3_is_k5():
    assert nx.is_isomorphic(to_nx(join(complete_graph(2), complete_graph(3))), to_nx(complete_graph(5)))


def test_union_p3_p2_shape():
    g = disjoint_union(path_graph(3), path_graph(2))
    assert g.n == 5 and g.num_edges == 3
    assert len(g.components()) == 2


def test_induced_consecutive_c5_is_p4():
    w = find_induced(cycle_graph(5), "p4", mask_of([0, 1, 2, 3]))
    assert w is not None and w.embedding == (0, 1, 2, 3)


def test_gem_minus_path_end_is_diamond():
    gem = join(complete_graph(1), path_graph(4))  # apex is vertex 0
    assert find_induced(gem, "diamond", mask_of([0, 1, 2, 3])) is not None


def test_brackets_on_join_and_union():
    left = mask_of([0, 1])
    right = mask_of([2, 3, 4])
    g = join(complete_graph(2), complete_graph(3))
    assert all(g.adj[v] & right == right for v in bits(left))
    u = disjoint_union(complete_graph(2), complete_graph(3))
    assert not any(u.adj[v] & right for v in bits(left))


def test_first_occurrence_colors():
    n = Coloring(first_occurrence_colors((5, 3, 5, 7)))
    assert n.colors == (1, 2, 1, 3) and n.num_colors == 3
    assert n.distinct_colors == n.num_colors
    # an uncoloured vertex stays 0 and takes no label
    assert first_occurrence_colors((0, 4, 0, 2, 4)) == (0, 1, 0, 2, 1)
    assert first_occurrence_colors(()) == ()


def test_coloring_num_colors_is_largest_color():
    assert Coloring((2, 5, 1)).num_colors == 5
    assert Coloring(()).num_colors == 0
    with pytest.raises(TypeError):
        Coloring((1, 2), 3)


def test_graph_n_is_its_row_count():
    assert Graph((0b10, 0b01), "k2").n == 2
    assert Graph(()).n == 0
    with pytest.raises(TypeError):
        Graph((0, 0), "x", 3)


@pytest.mark.parametrize("adj,message", [
    ((0b100, 0b000), "row 0 has bits >= n"),
    ((0b01, 0b00), "self-loop at vertex 0"),
    ((0b10, 0b00), "asymmetric adjacency between 1 and 0"),
], ids=["bit-beyond-n", "self-loop", "asymmetric"])
def test_graph_rejects_malformed_rows(adj, message):
    with pytest.raises(GraphError, match=message):
        Graph(adj)


@given(small_graphs(min_n=0, max_n=6), small_graphs(min_n=0, max_n=6))
def test_unchecked_constructions_pass_every_check(g1, g2):
    # build_graph, complement, join and disjoint_union skip the row checks
    for g in (g1, complement(g1), join(g1, g2), disjoint_union(g1, g2)):
        assert Graph(g.adj, g.name) == g


def test_twin_classes_merge_inside_a_mask():
    # in P4 0-1-2-3 only the ends tell 1 and 2 apart
    p4 = path_graph(4)
    assert _twin_classes(p4, p4.full_mask) == {0: 0b0001, 1: 0b0010, 2: 0b0100, 3: 0b1000}
    assert _twin_classes(p4, 0b0110) == {1: 0b0110}
    assert _twin_classes(p4, 0b1110) == {1: 0b0010, 2: 0b0100, 3: 0b1000}
    assert _twin_classes(p4, 0) == {}
    # K[C5](2), bag i = {2i, 2i+1}: five classes of G. Two adjacent bags
    # merge once the bags that told them apart are left out
    g = complete_expansion(ExpansionSpec(cycle_graph(5), (2,) * 5))
    assert _twin_classes(g, g.full_mask) == {2 * i: 0b11 << 2 * i for i in range(5)}
    assert _twin_classes(g, 0b1111) == {0: 0b1111}
    assert _twin_classes(g, 0b111111) == {0: 0b11, 2: 0b1100, 4: 0b110000}
    # false twins: in P4, 1 and 3 share the open neighbourhood {2} once 0 leaves
    assert _twin_classes(p4, p4.full_mask, closed=False) == {0: 0b0001, 1: 0b0010, 2: 0b0100, 3: 0b1000}
    assert _twin_classes(p4, 0b1110, closed=False) == {1: 0b1010, 2: 0b0100}


@settings(max_examples=200, deadline=None)
@given(small_graphs(min_n=0, max_n=9), st.data(), st.booleans())
def test_twin_classes_are_the_neighbourhood_classes(g, data, closed):
    # true twins share closed neighbourhoods inside the mask, false twins open ones
    mask = data.draw(st.integers(0, g.full_mask))
    classes = _twin_classes(g, mask, closed=closed)
    assert list(classes) == sorted(classes)
    assert sum(classes.values()) == mask  # disjoint, and covering the mask
    for r, cls in classes.items():
        assert cls & -cls == 1 << r
    row = {v: g.adj[v] & mask | (1 << v if closed else 0) for v in bits(mask)}
    class_of = {v: r for r, cls in classes.items() for v in bits(cls)}
    for u in bits(mask):
        for v in bits(mask):
            assert (class_of[u] == class_of[v]) == (row[u] == row[v])


def test_coloring_rejects_nonpositive():
    with pytest.raises(GraphError):
        Coloring((0, 1))


def _dict_cograph_coloring(g, mask):
    """Reference: the cotree colouring built as a fresh {vertex: colour} dict
    at every node, merged upwards."""
    if not mask & (mask - 1):
        return {mask.bit_length() - 1: 1} if mask else {}
    comps = g.components(mask)
    is_join = len(comps) == 1
    if is_join:
        comps = complement(g).components(mask)
        if len(comps) == 1:
            return None
    out = {}
    offset = 0
    for comp in comps:
        sub = _dict_cograph_coloring(g, comp)
        if sub is None:
            return None
        for v, c in sub.items():
            out[v] = c + offset
        if is_join:
            offset += max(sub.values())
    return out


@settings(max_examples=300, deadline=None)
@given(small_graphs(min_n=1, max_n=9), st.data(), st.integers(0, 5))
def test_cograph_coloring_in_place_matches_dict_reference(g, data, base):
    mask = data.draw(st.integers(0, g.full_mask))
    ref = _dict_cograph_coloring(g, mask)
    colors = [-1] * g.n
    used = cograph_coloring(g, mask, colors, base)
    assert (used is None) == (ref is None)
    if ref is not None:
        assert used == max(ref.values(), default=0)
        assert colors == [ref[v] + base if mask >> v & 1 else -1 for v in range(g.n)]


def test_bits_and_masks_roundtrip():
    assert list(bits(mask_of([4, 1, 7]))) == [1, 4, 7]
