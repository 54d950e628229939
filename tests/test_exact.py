import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemfree.exact import (
    SizeGuardError,
    chi_alpha2_shortcut,
    chromatic_number,
    clique_number,
    independence_number,
    max_clique,
)
from gemfree.generators import (
    ExpansionSpec,
    complete_expansion,
    groetzsch_graph,
    schlafli_complement,
)
from gemfree.graphs import Graph, bits, build_graph, complement, mask_of
from gemfree.patterns import complete_graph, cycle_graph

from conftest import delete_vertex, small_graphs


def test_max_clique_k4():
    r = max_clique(complete_graph(4))
    assert r.omega == 4 and r.witness == mask_of([0, 1, 2, 3])


def test_max_clique_c5_lex_least_witness():
    r = max_clique(cycle_graph(5))
    assert r.omega == 2 and r.witness == mask_of([0, 1])


def test_max_clique_schlafli():
    assert max_clique(schlafli_complement()).omega == 3


@pytest.mark.parametrize("m,omega", [(1, 2), (2, 4), (3, 6)])
def test_expansion_clique_number(m, omega):
    g = complete_expansion(ExpansionSpec(cycle_graph(5), (m,) * 5))
    assert max_clique(g).omega == omega


@given(small_graphs(max_n=8), st.integers(min_value=0, max_value=255))
def test_max_clique_witness_is_maximal_clique(g, mask):
    r = max_clique(g)
    assert g.is_clique(r.witness)
    outside = g.full_mask & ~r.witness
    for v in bits(outside):
        assert not g.is_clique(r.witness | (1 << v))
    least = next(mask_of(c) for c in itertools.combinations(range(g.n), r.omega)
                 if g.is_clique(mask_of(c)))
    assert r.witness == least
    # inside a vertex mask: the least clique of maximum size
    mask &= g.full_mask
    inside = list(bits(mask))
    least = next(mask_of(c) for k in range(len(inside), -1, -1)
                 for c in itertools.combinations(inside, k) if g.is_clique(mask_of(c)))
    r = max_clique(g, mask)
    assert (r.omega, r.witness) == (least.bit_count(), least)


def test_independence_numbers():
    assert independence_number(build_graph(6, [])) == 6
    assert independence_number(cycle_graph(5)) == 2
    g = complete_expansion(ExpansionSpec(cycle_graph(5), (2,) * 5))
    assert independence_number(g) == 2


def test_chromatic_witnesses():
    assert chromatic_number(groetzsch_graph()).chi == 4
    assert chromatic_number(complete_graph(5)).chi == 5
    g2 = complete_expansion(ExpansionSpec(cycle_graph(5), (2,) * 5))
    assert chromatic_number(g2).chi == 5


def test_chromatic_schlafli_is_6():
    assert chromatic_number(schlafli_complement()).chi == 6


def test_chromatic_guardrail():
    big = build_graph(65, [])
    with pytest.raises(SizeGuardError):
        chromatic_number(big)
    assert chromatic_number(big, max_n=65).chi == 1


def test_chromatic_witness_is_proper_and_optimal_count():
    g = cycle_graph(5)
    r = chromatic_number(g)
    assert r.chi == 3
    assert r.witness.distinct_colors == 3
    for u, v in g.edges():
        assert r.witness.colors[u] != r.witness.colors[v]


def test_alpha2_shortcut():
    assert chi_alpha2_shortcut(cycle_graph(5)) == 3
    assert chi_alpha2_shortcut(complete_graph(6)) == 6
    g3 = complete_expansion(ExpansionSpec(cycle_graph(5), (3,) * 5))
    assert chi_alpha2_shortcut(g3) == 8


def test_alpha2_shortcut_refuses():
    with pytest.raises(ValueError):
        chi_alpha2_shortcut(build_graph(3, []))


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=7))
def test_omega_le_chi_le_n(g):
    chi = chromatic_number(g).chi
    assert clique_number(g) <= chi <= max(g.n, 1) or g.n == 0


@settings(max_examples=25, deadline=None)
@given(small_graphs(min_n=2, max_n=7))
def test_chi_monotone_under_induced(g):
    chi = chromatic_number(g).chi
    assert chromatic_number(delete_vertex(g, 0)).chi <= chi


@settings(max_examples=25, deadline=None)
@given(small_graphs(min_n=1, max_n=7))
def test_shortcut_agrees_with_exact_when_applicable(g):
    if independence_number(g) <= 2:
        assert chi_alpha2_shortcut(g) == chromatic_number(g).chi
