import networkx as nx
import pytest
from hypothesis import given, settings

import gemfree.generators
from gemfree.exact import chromatic_number, max_clique
from gemfree.generators import (
    ExpansionSpec,
    SamplingError,
    check_srg,
    class_corpus,
    complete_expansion,
    expansion_bags,
    groetzsch_graph,
    mycielskian,
    named_graph,
    random_class_member,
    schlafli_complement,
)
from gemfree.graphs import MAX_VERTICES, Graph, GraphError, build_graph, complement, mask_of
from gemfree.patterns import (
    complete_graph,
    cycle_graph,
    is_class_member,
    path_graph,
)

from conftest import small_graphs, to_nx


def test_expansion_identity():
    g = complete_expansion(ExpansionSpec(cycle_graph(5), (1,) * 5))
    assert nx.is_isomorphic(to_nx(g), to_nx(cycle_graph(5)))


def test_expansion_k2_bags_is_k5():
    g = complete_expansion(ExpansionSpec(complete_graph(2), (2, 3)))
    assert nx.is_isomorphic(to_nx(g), to_nx(complete_graph(5)))


def test_expansion_counts_and_bags():
    spec = ExpansionSpec(cycle_graph(5), (2,) * 5)
    g = complete_expansion(spec)
    assert g.n == 10 and g.num_edges == 25
    assert max_clique(g).omega == 4
    assert max_clique(complement(g)).omega == 2
    bags = expansion_bags(spec)
    assert bags[0] == [0, 1] and bags[4] == [8, 9]
    # cross-bag completeness exactly on base edges
    assert all(g.adj[v] & mask_of(bags[1]) == mask_of(bags[1]) for v in bags[0])
    assert not any(g.adj[v] & mask_of(bags[2]) for v in bags[0])


def test_expansion_rejects_bad_spec():
    with pytest.raises(GraphError):
        ExpansionSpec(cycle_graph(5), (2, 2))
    with pytest.raises(GraphError):
        ExpansionSpec(cycle_graph(5), (2, 2, 2, 2, 0))


def test_mycielskian_k2_is_c5():
    assert nx.is_isomorphic(to_nx(mycielskian(complete_graph(2))), to_nx(cycle_graph(5)))


def test_groetzsch_counts():
    g = groetzsch_graph()
    assert g.n == 11 and g.num_edges == 20
    assert Graph(g.n, g.adj, "groetzsch") == g  # the rows pass the full check
    assert max_clique(g).omega == 2
    assert chromatic_number(g).chi == 4


@settings(max_examples=15, deadline=None)
@given(small_graphs(min_n=2, max_n=6))
def test_mycielskian_raises_chi_by_one(g):
    assert chromatic_number(mycielskian(g)).chi == chromatic_number(g).chi + 1


@settings(max_examples=15, deadline=None)
@given(small_graphs(min_n=2, max_n=7))
def test_mycielskian_preserves_triangle_freeness(g):
    if max_clique(g).omega <= 2:
        assert max_clique(mycielskian(g)).omega <= 2


def test_schlafli_complement_parameters():
    g = schlafli_complement()
    assert check_srg(g) == (27, 10, 1, 5)
    assert max_clique(g).omega == 3
    assert max_clique(complement(g)).omega == 6
    assert is_class_member(g)[0]


def test_schlafli_complement_is_built_once():
    # an immutable graph: the model and its SRG self-check run once per process
    assert schlafli_complement() is schlafli_complement()


@pytest.mark.parametrize("g,params", [
    (cycle_graph(5), (5, 2, 0, 1)),
    (build_graph(10, list(nx.petersen_graph().edges())), (10, 3, 0, 1)),
    (build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)]), (6, 3, 0, 3)),
    (complete_graph(4), None),  # no non-adjacent pair: no mu
    (cycle_graph(6), None),  # mu is 0 or 2
    (path_graph(3), None),  # two degrees
    (build_graph(3, []), None),  # no adjacent pair: no lambda
    (build_graph(0, []), None),
], ids=["C5", "petersen", "K3,3", "K4", "C6", "P3", "empty-3", "no-vertices"])
def test_check_srg(g, params):
    assert check_srg(g) == params


def test_named_graph_dispatch():
    assert named_graph("gem").num_edges == 7
    assert named_graph("K6").n == 6
    assert named_graph("p5").num_edges == 4
    assert named_graph("groetzsch").n == 11
    assert named_graph("schlafli-complement").n == 27
    with pytest.raises(GraphError):
        named_graph("petersen-cube")


def test_random_member_deterministic():
    a = random_class_member(8, 42, "reject")
    b = random_class_member(8, 42, "reject")
    assert a.adj == b.adj
    assert is_class_member(a)[0]


@pytest.mark.parametrize("strategy", ["reject", "expand", "prune"])
def test_random_member_strategies(strategy):
    g = random_class_member(9, 3, strategy)
    assert g.n == 9 and is_class_member(g)[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prune_small_n_redraws_short_expansions(n):
    # n + randint(1, 5) can fall below the bag count of C5 or C4
    for seed in range(60):
        g = random_class_member(n, seed, "prune")
        assert g.n == n and is_class_member(g)[0]


class _Expanded(Exception):
    pass


@pytest.mark.parametrize("n,seed", [(510, 0), (512, 1)])
def test_prune_expansion_stays_within_vertex_limit(n, seed, monkeypatch):
    # stop at the expansion: a membership check at n = 510 is too slow for tier-1
    totals = []

    def spy(spec):
        totals.append(sum(spec.sizes))
        raise _Expanded

    monkeypatch.setattr(gemfree.generators, "complete_expansion", spy)
    with pytest.raises(_Expanded):
        random_class_member(n, seed, "prune")
    assert n <= totals[0] <= MAX_VERTICES


def test_reject_guardrail():
    with pytest.raises(GraphError):
        random_class_member(17, 0, "reject")
    with pytest.raises(GraphError):
        random_class_member(8, 0, "bogus")


def test_corpus_all_members():
    corpus = class_corpus(count=30, n_range=(5, 10), seed=7)
    assert len(corpus) == 30
    assert all(is_class_member(g)[0] for g in corpus)
    assert all(5 <= g.n <= 10 for g in corpus)


def test_corpus_skips_a_failed_draw(monkeypatch):
    # a draw that exhausts its sampling budget is skipped, and the next seed
    # fills its place: here every odd draw fails, so 6 members take 11 draws
    draws = []

    def odd_draws_fail(n, seed, strategy):
        draws.append(seed)
        if seed % 2:
            raise SamplingError("attempt budget exhausted")
        return random_class_member(n, seed, strategy)

    monkeypatch.setattr(gemfree.generators, "random_class_member", odd_draws_fail)
    corpus = class_corpus(count=6, n_range=(5, 7), seed=0)
    assert draws == list(range(11))
    # n cycles through 5, 6, 7 and the strategy through reject, expand, prune
    assert corpus == [random_class_member(5 + i % 3, i, ("reject", "expand", "prune")[i % 3])
                      for i in range(0, 11, 2)]


def test_corpus_refuses_empty_size_range():
    with pytest.raises(GraphError, match=r"empty size range n_range=\(10, 5\)"):
        class_corpus(n_range=(10, 5))
