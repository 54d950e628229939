import itertools
import math
import random
import sys
import types

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemfree import exact
from gemfree.exact import (
    EXACT_MAX_N,
    SizeGuardError,
    _alpha2_matching,
    _augment_from,
    _k_colorable,
    _max_matching,
    chi_alpha2_shortcut,
    chromatic_number,
    max_clique,
)
from gemfree.generators import (
    ExpansionSpec,
    complete_expansion,
    groetzsch_graph,
    mycielskian,
    random_class_member,
    schlafli_complement,
)
from gemfree.graphs import bits, build_graph, complement, first_occurrence_colors, mask_of
from gemfree.patterns import complete_graph, cycle_graph, is_class_member
from gemfree.suite import _exhaustive_chi

from conftest import (
    alpha2_graphs,
    cocktail_party,
    count_calls,
    delete_vertex,
    dsatur_chi,
    reference_k_colorable,
    prism,
    reference_max_clique,
    reference_max_matching,
    relabel,
    small_graphs,
    to_nx,
)


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


def _assert_matches_reference(g, within=None):
    r = max_clique(g, within)
    assert (r.omega, r.witness) == reference_max_clique(g, within)


@settings(max_examples=300, deadline=None)
@given(small_graphs(max_n=6), st.data())
def test_max_clique_matches_reference_on_twin_blowups(base, data):
    # each base vertex a clique of 1..4 true twins, the labels shuffled so that
    # twins interleave, searched whole and inside a drawn vertex mask
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=base.n, max_size=base.n))
    g = complete_expansion(ExpansionSpec(base, tuple(sizes)))
    g = relabel(g, data.draw(st.permutations(range(g.n))))
    _assert_matches_reference(g)
    _assert_matches_reference(g, data.draw(st.integers(0, g.full_mask)))


def test_max_clique_matches_reference_on_atlas(atlas):
    rng = random.Random(0)
    for g in atlas:
        for within in (None, *(rng.getrandbits(g.n) for _ in range(4))):
            _assert_matches_reference(g, within)


@pytest.mark.parametrize("strategy", ["expand", "prune"])
@pytest.mark.parametrize("n", [60, 250, 510])
def test_max_clique_matches_reference_on_large_members(strategy, n):
    g = random_class_member(n, 1, strategy)  # seed 0 expands K1 at n = 510: a clique
    rng = random.Random(n)
    _assert_matches_reference(g)
    _assert_matches_reference(g, rng.getrandbits(n))
    if n < 510:  # the reference takes a quarter second at n = 510
        _assert_matches_reference(relabel(g, rng.sample(range(n), n)))


def test_independence_numbers():
    assert max_clique(complement(build_graph(6, []))).omega == 6
    assert max_clique(complement(cycle_graph(5))).omega == 2
    g = complete_expansion(ExpansionSpec(cycle_graph(5), (2,) * 5))
    assert max_clique(complement(g)).omega == 2


def test_chromatic_witnesses():
    assert chromatic_number(groetzsch_graph()).chi == 4
    assert chromatic_number(complete_graph(5)).chi == 5
    g2 = complete_expansion(ExpansionSpec(cycle_graph(5), (2,) * 5))
    assert chromatic_number(g2).chi == 5
    # mu(Groetzsch): chi = 5 > 2 * omega = 4, so the theorem forbids membership
    mu = mycielskian(groetzsch_graph())
    assert max_clique(mu).omega == 2 and chromatic_number(mu).chi == 5
    assert is_class_member(mu)[0] is False


def test_chromatic_schlafli_is_6():
    assert chromatic_number(schlafli_complement()).chi == 6


def _assert_k_colorable_matches_reference(g):
    """The package DSATUR search and the reference return the same colouring,
    or both None, at every k from omega to chi, seeded with the max_clique
    witness. Returns chi."""
    clique = sorted(bits(max_clique(g).witness))
    k = len(clique)
    while True:
        colors = _k_colorable(g, k, clique)
        assert colors == reference_k_colorable(g, k, clique)
        if colors is not None:
            return k
        k += 1


def test_k_colorable_matches_reference_on_atlas(atlas):
    for g in atlas:
        _assert_k_colorable_matches_reference(g)


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=12))
def test_k_colorable_matches_reference(g):
    _assert_k_colorable_matches_reference(g)


@pytest.mark.parametrize("build,chi", [
    (groetzsch_graph, 4),
    (lambda: mycielskian(groetzsch_graph()), 5),
    (schlafli_complement, 6),
])
def test_k_colorable_matches_reference_on_named_graphs(build, chi):
    assert _assert_k_colorable_matches_reference(build()) == chi


def _search_calls(kernel, g, k):
    """(calls of `kernel`'s recursive `solve`, selected by its code object,
    and the kernel's result) for the k-colouring search seeded with the
    max_clique witness: a count of search nodes that needs no clock."""
    solve = next(c for c in kernel.__code__.co_consts
                 if isinstance(c, types.CodeType) and c.co_name == "solve")
    clique = sorted(bits(max_clique(g).witness))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is solve:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        colors = kernel(g, k, clique)
    finally:
        sys.setprofile(previous)
    return calls, colors


@pytest.mark.parametrize("build,k,nodes", [
    (schlafli_complement, 5, 6604),
    (lambda: mycielskian(groetzsch_graph()), 4, 574),
])
def test_k_colorable_search_tree_matches_reference(build, k, nodes):
    # the two longest DSATUR proofs of the exact workload, each that k < chi:
    # a changed pick order or tie-break changes the node count at once
    g = build()
    assert _search_calls(_k_colorable, g, k) == _search_calls(reference_k_colorable, g, k) == (nodes, None)


def test_chromatic_guardrail():
    big = build_graph(65, [])
    with pytest.raises(SizeGuardError):
        chromatic_number(big)
    assert chromatic_number(big, max_n=65).chi == 1


@settings(max_examples=150, deadline=None)
@given(st.one_of(alpha2_graphs(max_n=9), small_graphs(max_n=9)))
def test_size_guard_bounds_only_the_dsatur_route(g):
    # max_n = 0 lies below every n: an alpha <= 2 input still gets its chi by
    # the matching route, and only an alpha > 2 input is refused
    if max_clique(complement(g)).omega <= 2:
        assert chromatic_number(g, max_n=0).chi == chi_alpha2_shortcut(g)
    else:
        with pytest.raises(SizeGuardError, match=f"n={g.n} exceeds exact-chi guardrail 0"):
            chromatic_number(g, max_n=0)


@pytest.mark.parametrize("build,chi", [
    (lambda: complete_expansion(ExpansionSpec(cycle_graph(5), (102,) * 5)), 255),
    (lambda: prism(250), 250),
    (lambda: cocktail_party(250), 250),
], ids=["K[C5](102)", "prism-n500", "cocktail-party-n500"])
def test_alpha2_chi_at_the_vertex_limit(build, chi, monkeypatch):
    # alpha = 2 and n = 500..510, far above the default guard: the matching
    # route answers, and the DSATUR search is never entered. K[C5](102) is the
    # lower-bound family at omega = 204: chi = ceil(5 * 204 / 4)
    def refuse(*args):
        raise AssertionError("DSATUR search ran on an alpha <= 2 input")

    monkeypatch.setattr(exact, "_k_colorable", refuse)
    g = build()
    r = chromatic_number(g)
    assert g.n > EXACT_MAX_N and r.chi == chi == chi_alpha2_shortcut(g)
    assert all(r.witness.colors[u] != r.witness.colors[v] for u, v in g.edges())


def test_chromatic_number_of_the_empty_graph():
    # alpha <= 2 holds vacuously: the matching route answers chi = 0
    r = chromatic_number(build_graph(0, []))
    assert r.chi == 0 and r.witness.colors == () and r.witness.num_colors == 0
    assert _exhaustive_chi(build_graph(0, [])) == 0  # the suite's oracle agrees


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
    assert max_clique(g).omega <= chi <= max(g.n, 1) or g.n == 0


@settings(max_examples=25, deadline=None)
@given(small_graphs(min_n=2, max_n=7))
def test_chi_monotone_under_induced(g):
    chi = chromatic_number(g).chi
    assert chromatic_number(delete_vertex(g, 0)).chi <= chi


@settings(max_examples=25, deadline=None)
@given(small_graphs(min_n=1, max_n=7))
def test_shortcut_agrees_with_exact_when_applicable(g):
    if max_clique(complement(g)).omega <= 2:
        assert chi_alpha2_shortcut(g) == chromatic_number(g).chi == dsatur_chi(g)


@st.composite
def blossom_graphs(draw):
    """Up to 24 vertices: odd cycles on consecutive vertices, which make the
    matching search contract blossoms, under random edges of a drawn density."""
    n = draw(st.integers(min_value=0, max_value=24))
    p = draw(st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6, 0.9]))
    rng = draw(st.randoms(use_true_random=False))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    start = 0
    for length in draw(st.lists(st.sampled_from([3, 5, 7, 9]), max_size=6)):
        if start + length > n:
            break
        edges += [(start + i, start + (i + 1) % length) for i in range(length)]
        start += length
    return build_graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(blossom_graphs())
def test_max_matching_is_maximum(g):
    mate = _max_matching(g.n, list(g.adj))
    # the same mate list, bit for bit, as one search from every free vertex
    assert mate == reference_max_matching(g.n, list(g.adj))
    for v, u in enumerate(mate):
        assert u == -1 or (mate[u] == v and g.has_edge(u, v))
    size = (g.n - mate.count(-1)) // 2
    assert size == len(nx.max_weight_matching(to_nx(g), maxcardinality=True))


@settings(max_examples=200, deadline=None)
@given(alpha2_graphs(max_n=14))
def test_alpha2_route_matches_reference_matching(g):
    # on the complement rows the alpha <= 2 route matches, the same mate, and
    # the colouring is the reference mate's pairs numbered by first occurrence
    co = list(complement(g).adj)
    mate = reference_max_matching(g.n, co)
    assert _max_matching(g.n, co) == mate
    labels = [u + 1 if 0 <= u < v else v + 1 for v, u in enumerate(mate)]
    assert chromatic_number(g).witness.colors == first_occurrence_colors(labels)


@pytest.mark.parametrize("m,searches", [(1, 0), (3, 1), (5, 2), (51, 25), (102, 51)])
def test_matching_searches_on_the_lower_bound_family(m, searches, monkeypatch):
    # K[C5](m): one augmenting-path search per free root that still has a
    # free vertex to reach, and none once a single free vertex is left
    g = complete_expansion(ExpansionSpec(cycle_graph(5), (m,) * 5))
    calls = count_calls(monkeypatch, _augment_from)
    mate = _alpha2_matching(g)
    assert g.n - (g.n - mate.count(-1)) // 2 == math.ceil(5 * m / 2)
    assert len(calls) == searches
    if g.n % 2:
        # the one vertex free at the end was free at every search, and lies
        # above every root: no search started from the last free vertex
        last = mate.index(-1)
        assert mate.count(-1) == 1 and all(root < last for root, *_ in calls)


@settings(max_examples=150, deadline=None)
@given(alpha2_graphs())
def test_chi_alpha2_matches_dsatur_and_exhaustive(g):
    r = chromatic_number(g)
    assert r.chi == dsatur_chi(g) == _exhaustive_chi(g)
    assert all(r.witness.colors[u] != r.witness.colors[v] for u, v in g.edges())
    assert r.witness.colors == first_occurrence_colors(r.witness.colors)
    assert r.witness.distinct_colors == r.witness.num_colors == r.chi


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_graphs(min_n=0, max_n=9), alpha2_graphs(max_n=9)))
def test_alpha2_test_agrees_with_independence_number(g):
    mate = _alpha2_matching(g)
    assert (mate is not None) == (max_clique(complement(g)).omega <= 2)
    assert mate is None or all(u < 0 or (mate[u] == v and not g.has_edge(u, v))
                               for v, u in enumerate(mate))


@pytest.mark.parametrize("m", range(1, 13))
def test_c5_expansion_chi_is_five_omega_over_four(m):
    # K[C5](m): omega = 2m, chi = ceil(5 * omega / 4) = ceil(5m / 2)
    g = complete_expansion(ExpansionSpec(cycle_graph(5), (m,) * 5))
    r = chromatic_number(g)
    assert r.chi == chi_alpha2_shortcut(g) == math.ceil(5 * m / 2)
    assert all(r.witness.colors[u] != r.witness.colors[v] for u, v in g.edges())
