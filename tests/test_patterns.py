import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gemfree.patterns
from gemfree.generators import (
    ExpansionSpec,
    complete_expansion,
    groetzsch_graph,
    schlafli_complement,
)
from gemfree.exact import max_clique
from gemfree.graphs import (
    GraphError, _twin_classes, bits, build_graph, cograph_coloring, join,
)
from gemfree.patterns import (
    DEFAULT_CLASS,
    NAMED_PATTERNS,
    PatternError,
    PatternWitness,
    _components_if_cliques,
    complete_graph,
    cycle_graph,
    disjoint_union,
    find_induced,
    is_class_member,
    is_p3_free,
    is_p4_free,
    path_graph,
    pattern,
)
from gemfree.suite import _brute_force_contains, _labeled_codes, _pair_code

from conftest import (
    alternating_threshold,
    c5_independent_blowup,
    cocktail_party,
    count_calls,
    delete_vertex,
    prism,
    reference_find_induced,
    small_graphs,
    with_pendant,
)


def test_named_catalogue_sizes():
    assert NAMED_PATTERNS["gem"].n == 5 and NAMED_PATTERNS["gem"].num_edges == 7
    assert NAMED_PATTERNS["diamond"].num_edges == 5
    assert NAMED_PATTERNS["hvn"].num_edges == 8  # K4 plus a vertex seeing two of it
    assert NAMED_PATTERNS["k5-e"].num_edges == 9
    assert NAMED_PATTERNS["co-p3up2"].num_edges == 10 - 3


def test_pattern_lookup_case_insensitive():
    # the lower-case catalogue key names the witness, whatever the spelling
    assert pattern("GEM") == "gem"
    assert is_class_member(NAMED_PATTERNS["gem"], ("GEM",)) == (
        False, PatternWitness("gem", (0, 1, 2, 3, 4)))
    assert find_induced(path_graph(4), "P4").pattern_name == "p4"
    for unknown in (pattern, lambda name: find_induced(complete_graph(3), name)):
        with pytest.raises(PatternError, match="unknown pattern name 'k3'"):
            unknown("k3")


@pytest.mark.parametrize("host", [NAMED_PATTERNS["p3up2"], cycle_graph(5)], ids=["p3up2", "c5"])
def test_unknown_family_names_are_refused_before_any_search(host):
    # the P3 u P2 holds the family's first pattern; C5 holds neither
    with pytest.raises(PatternError, match="unknown pattern name 'nope'"):
        is_class_member(host, ("p3up2", "nope"))


def test_gem_contains_itself():
    w = find_induced(NAMED_PATTERNS["gem"], "gem")
    assert w is not None and sorted(w.embedding) == [0, 1, 2, 3, 4]


def test_groetzsch_is_diamond_free_and_member():
    g = groetzsch_graph()
    assert find_induced(g, "diamond") is None
    assert is_class_member(g)[0]


def test_schlafli_complement_is_member():
    assert is_class_member(schlafli_complement())[0]


@pytest.mark.parametrize("family", [("2k2",), ("c4", "gem"), ("p3up2", "p4")])
def test_other_patterns_are_searched_in_family_order(family, atlas):
    """A pattern other than the gem and P3 u P2 goes to `find_induced`: the
    verdict and witness are those of a search for each pattern in family order."""
    searched = 0
    for g in atlas:
        want = next(filter(None, (find_induced(g, name) for name in family)), None)
        assert is_class_member(g, family) == (want is None, want), g.edges()
        searched += want is not None and want.pattern_name not in ("gem", "p3up2")
    assert searched  # the search names a witness


def test_c5_has_no_p3up2():
    assert find_induced(cycle_graph(5), "p3up2") is None


def test_gem_is_not_member_with_full_witness():
    ok, w = is_class_member(NAMED_PATTERNS["gem"])
    assert not ok and w is not None and len(w.embedding) == 5


def _induces(host, pat, emb):
    """Is `emb` an induced copy of the pattern graph `pat`, vertex by vertex:
    distinct vertices of the host, adjacent exactly where the pattern's are?"""
    return (len(set(emb)) == len(emb) == pat.n and all(0 <= v < host.n for v in emb)
            and _pair_code(host, emb) == _pair_code(pat, tuple(range(pat.n))))


def test_witness_reverifies():
    g = disjoint_union(path_graph(3), complete_graph(3))
    w = find_induced(g, "p3up2")
    assert w is not None
    assert _induces(g, NAMED_PATTERNS["p3up2"], w.embedding)


def test_find_induced_deterministic_lex_least():
    g = disjoint_union(path_graph(4), path_graph(4))
    w = find_induced(g, "p4")
    assert w is not None and w.embedding == (0, 1, 2, 3)


def test_p3_free_fast_path():
    assert is_p3_free(disjoint_union(complete_graph(3), complete_graph(5)))
    assert not is_p3_free(path_graph(3))
    assert not is_p3_free(cycle_graph(4))
    assert is_p4_free(cycle_graph(4))
    assert not is_p4_free(path_graph(4))
    # inside a vertex mask
    assert is_p3_free(path_graph(3), 0b101)
    assert not is_p3_free(path_graph(4), 0b1110)
    assert not is_p4_free(path_graph(5), 0b11110)
    assert is_p4_free(path_graph(5), 0b10111)


@pytest.mark.parametrize("decide", [
    is_p3_free,
    is_p4_free,
    lambda g, within: find_induced(g, "p3", within),
    max_clique,
    lambda g, within: g.components(within),
    lambda g, within: g.is_clique(within),
], ids=["is_p3_free", "is_p4_free", "find_induced", "max_clique", "components", "is_clique"])
def test_masks_outside_the_vertex_set_are_refused(decide):
    g = path_graph(4)
    for within in (-1, 1 << 4, 0b10110 << 3):
        with pytest.raises(GraphError, match=f"vertex mask {within:#x} has bits outside"):
            decide(g, within)
    decide(g, 0)
    decide(g, g.full_mask)


@st.composite
def near_cluster_graphs(draw, max_n=12):
    """Disjoint unions of cliques, with up to two vertex pairs toggled."""
    n = draw(st.integers(0, max_n))
    label = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if label[u] == label[v]}
    if n >= 2:
        pair = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(lambda e: e[0] < e[1])
        edges ^= set(draw(st.lists(pair, max_size=2)))
    return build_graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_cluster_graphs(), small_graphs(max_n=12)), st.data())
def test_clique_walk_matches_components_and_is_clique(g, data):
    within = data.draw(st.one_of(st.just(g.full_mask), st.integers(0, g.full_mask)))
    comps = g.components(within)
    want = comps if all(g.is_clique(c) for c in comps) else None
    assert _components_if_cliques(g, within) == want
    assert is_p3_free(g, within) is (want is not None)


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_cluster_graphs(), small_graphs(max_n=12)), st.data())
def test_masked_p4_test_matches_pattern_search(g, data):
    # near-cluster graphs give both P3-free masks, which the P3 walk settles,
    # and masks with a P3, which go on to the cotree walk
    within = data.draw(st.one_of(st.just(g.full_mask), st.integers(0, g.full_mask)))
    assert is_p4_free(g, within) is (find_induced(g, "p4", within) is None)


@settings(max_examples=60, deadline=None)
@given(small_graphs(min_n=2, max_n=7), st.integers(min_value=0, max_value=127))
@example(build_graph(2, [(0, 1)]), 0)  # an empty mask
def test_find_induced_matches_bruteforce(g, mask):
    for name in ("p3", "p4", "2k2", "c4", "diamond"):
        pat = NAMED_PATTERNS[name]
        brute = _brute_force_contains(g, _labeled_codes(pat), pat.n)
        assert (find_induced(g, name) is not None) == brute
    # inside a vertex mask: the first embedding in lexicographic order
    mask &= g.full_mask
    for name in ("p3", "p4", "p3up2", "gem"):
        pat = NAMED_PATTERNS[name]
        first = next((emb for emb in itertools.permutations(bits(mask), pat.n)
                      if _induces(g, pat, emb)), None)
        w = find_induced(g, name, mask)
        assert (w.embedding if w else None) == first


@settings(max_examples=30, deadline=None)
@given(small_graphs(min_n=3, max_n=8))
def test_membership_is_hereditary(g):
    if not is_class_member(g)[0]:
        return
    for drop in range(g.n):
        assert is_class_member(delete_vertex(g, drop))[0]


def test_find_induced_matches_the_reference_search_on_atlas(atlas):
    """Forward checking prunes only branches without an embedding, so it names
    the plain backtracking's embedding, or none, for every catalogue pattern,
    over the whole graph and inside two seeded random masks of each graph."""
    rng = random.Random(31)
    found = 0
    for g in atlas:
        for within in (None, rng.getrandbits(g.n), rng.getrandbits(g.n)):
            for name in NAMED_PATTERNS:
                want = reference_find_induced(g, name, within)
                assert find_induced(g, name, within) == want, (g.edges(), name, within)
                found += want is not None
    assert found


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=11), st.data())
def test_find_induced_matches_the_reference_search(g, data):
    within = data.draw(st.one_of(st.none(), st.integers(0, g.full_mask)))
    for name in NAMED_PATTERNS:
        assert find_induced(g, name, within) == reference_find_induced(g, name, within)


def test_mixed_k1_c4_and_hvn_detection():
    host = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)])
    assert find_induced(host, "k1+c4") is not None
    assert find_induced(host, "hvn") is None


# ---- structural membership against the pattern search ------------------------

FAMILIES = {
    "default": DEFAULT_CLASS,
    "gem": ("gem",),
    "p3up2": ("p3up2",),
    "gem,p3up2": ("gem", "p3up2"),
}


def _searched_membership(host, forbidden):
    """`is_class_member` as a plain search: `find_induced` per pattern, in order."""
    for f in forbidden:
        w = find_induced(host, f)
        if w is not None:
            return False, w
    return True, None


@st.composite
def expansions(draw, bases, max_bag, max_flips, max_n=None):
    """Complete expansions of a drawn base graph (each vertex a clique of
    1..max_bag true twins) with up to `max_flips` pairs flipped, relabelled."""
    base = draw(bases)
    sizes = st.lists(st.integers(1, max_bag), min_size=base.n, max_size=base.n)
    if max_n is not None:
        sizes = sizes.filter(lambda s: sum(s) <= max_n)
    g = complete_expansion(ExpansionSpec(base, tuple(draw(sizes))))
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    flips = draw(st.lists(st.sampled_from(pairs), max_size=max_flips)) if pairs else []
    edges = set(g.edges()) ^ set(flips)
    perm = draw(st.permutations(range(g.n)))
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in edges])


# C5 or C4 expansions with up to three pairs flipped: mostly members, and
# non-members close to the class
near_expansions = expansions(st.sampled_from([cycle_graph(4), cycle_graph(5)]),
                             max_bag=3, max_flips=3, max_n=10)
# any graph on <= 5 vertices blown up into twin classes, at most one pair
# flipped: patterns that use twins, or that a flip splits off a twin class
twin_blowups = expansions(small_graphs(max_n=5), max_bag=3, max_flips=1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_graphs(max_n=10), near_expansions, twin_blowups))
def test_membership_matches_pattern_search(g):
    for forbidden in FAMILIES.values():
        assert is_class_member(g, forbidden) == _searched_membership(g, forbidden)


@pytest.mark.parametrize("g,family", [
    # the P2 lies inside the K3, one twin class of size 3
    (disjoint_union(path_graph(3), complete_graph(3)), "p3up2"),
    (join(complete_graph(2), path_graph(4)), "gem"),  # the apex blown up to a K2
], ids=["p3+k3", "gem-apex-k2"])
def test_membership_through_a_twin_class(g, family):
    assert not is_class_member(g, (family,))[0]
    for forbidden in FAMILIES.values():
        assert is_class_member(g, forbidden) == _searched_membership(g, forbidden)


@pytest.mark.parametrize("family", FAMILIES, ids=list(FAMILIES))
def test_membership_matches_pattern_search_on_atlas(atlas, family):
    forbidden = FAMILIES[family]
    assert len(atlas) == 1253
    for g in atlas:
        assert is_class_member(g, forbidden) == _searched_membership(g, forbidden), g.edges()


def _schlafli_subgraph(seed, planted):
    """A seeded induced subgraph of the Schläfli complement on 12..26 vertices,
    relabelled at random, with the adjacency among five of its vertices
    overwritten by the pattern `planted`, or with one vertex pair toggled
    ("flip"), or left as it is (None)."""
    rng = random.Random(seed)
    s = schlafli_complement()
    keep = rng.sample(range(s.n), rng.randint(12, 26))
    label = {v: i for i, v in enumerate(keep)}
    edges = {tuple(sorted((label[u], label[v]))) for u, v in s.edges() if u in label and v in label}
    if planted == "flip":
        edges ^= {tuple(sorted(rng.sample(range(len(keep)), 2)))}
    elif planted is not None:
        spots = rng.sample(range(len(keep)), 5)
        edges = {(u, v) for u, v in edges if not (u in spots and v in spots)}
        edges |= {tuple(sorted((spots[a], spots[b]))) for a, b in NAMED_PATTERNS[planted].edges()}
    return build_graph(len(keep), edges)


@pytest.mark.parametrize("planted", [None, "gem", "p3up2", "flip"])
@pytest.mark.parametrize("seed", range(10))
def test_membership_matches_pattern_search_on_schlafli_subgraphs(seed, planted):
    """Twin-free or nearly so, at the sizes where membership takes its time:
    every representative and most edges reach a P3 walk. A toggled pair
    leaves few copies of either pattern for the deciders to find."""
    g = _schlafli_subgraph(seed, planted)
    if planted != "flip":
        assert is_class_member(g)[0] is (planted is None)
    if planted in ("gem", "p3up2"):
        assert not is_class_member(g, (planted,))[0]
    for forbidden in FAMILIES.values():
        assert is_class_member(g, forbidden) == _searched_membership(g, forbidden)


def _closed_neighbourhood_quotient(host):
    """(reps, multi, seconds) from one pass over the rows: the least vertex of
    each class of equal closed neighbourhoods, those with a twin, and the
    second least vertex of each such class."""
    first = {}
    reps = multi = seconds = 0
    for v, row in enumerate(host.adj):
        r = first.setdefault(row | 1 << v, v)
        if r == v:
            reps |= 1 << v
        elif not multi >> r & 1:
            multi |= 1 << r
            seconds |= 1 << v
    return reps, multi, seconds


def test_membership_quotient_on_atlas_and_blowups(atlas):
    # membership reads graphs._twin_classes with the whole vertex set as mask
    graphs = [*atlas]
    graphs += [complete_expansion(ExpansionSpec(g, (3, 1, 2, 1, 3, 2, 1)[:g.n]))
               for g in graphs if g.n]
    for g in graphs:
        classes = _twin_classes(g, g.full_mask)
        reps = sum(1 << r for r in classes)
        multi = sum(1 << r for r, cls in classes.items() if cls != 1 << r)
        seconds = sum((cls & (cls - 1)) & -(cls & (cls - 1)) for cls in classes.values())
        assert list(classes) == sorted(classes)
        assert (reps, multi, seconds) == _closed_neighbourhood_quotient(g)


def _gem_only_c5_expansion():
    """K[C5](2,2,2,2,2) (bag i = {2i, 2i+1}) where 8 of bag 4 also sees 2 of
    bag 1 and 4 of bag 2: the apex of a gem over 0-2-4-6, and no P3 u P2."""
    g = complete_expansion(ExpansionSpec(cycle_graph(5), (2, 2, 2, 2, 2)))
    return build_graph(g.n, g.edges() + [(8, 2), (8, 4)])


@pytest.mark.parametrize("make,calls", [
    (groetzsch_graph, []),
    (schlafli_complement, []),
    (lambda: complete_expansion(ExpansionSpec(cycle_graph(5), (8,) * 5)), []),
    (_gem_only_c5_expansion, ["p4"]),
], ids=["groetzsch", "schlafli-complement", "K[C5](8)", "gem-only"])
def test_membership_searches_only_to_name_a_witness(make, calls, monkeypatch):
    g = make()
    expected = _searched_membership(g, DEFAULT_CLASS)
    assert expected[0] == (not calls)
    seen = []

    def counted(host, pat, within=None):
        seen.append(pat)
        return find_induced(host, pat, within)

    monkeypatch.setattr(gemfree.patterns, "find_induced", counted)
    assert is_class_member(g) == expected
    assert seen == calls


@pytest.mark.parametrize("make,family,member", [
    (groetzsch_graph, DEFAULT_CLASS, True),
    (schlafli_complement, DEFAULT_CLASS, True),
    (lambda: complete_expansion(ExpansionSpec(cycle_graph(5), (8,) * 5)), DEFAULT_CLASS, True),
    (lambda: prism(250), ("gem",), True),
    (_gem_only_c5_expansion, DEFAULT_CLASS, False),
], ids=["groetzsch", "schlafli-complement", "K[C5](8)", "prism-n500-gem", "gem-only"])
def test_gem_test_walks_cotrees_only_of_sets_with_a_p3(make, family, member, monkeypatch):
    """Every N(v) of the members is P3-free, so the P3 walk settles it; only
    the gem-only non-member has a neighbourhood with a P3 to walk."""
    g = make()
    seen = []

    def counted(host, mask, colors, base=0):
        seen.append(mask)
        return cograph_coloring(host, mask, colors, base)

    monkeypatch.setattr(gemfree.patterns, "cograph_coloring", counted)
    if member:
        assert is_class_member(g, family) == (True, None) and not seen
    else:
        assert is_class_member(g, family) == _searched_membership(g, family) and seen


def test_membership_runs_on_the_twin_quotient(monkeypatch):
    """The deciders make one P3 walk per representative and per edge between
    twinless representatives, and search for no pattern on a member."""
    cases = [
        # five twin classes: one walk of N(v) per representative for the gem,
        # and one of R - N[u] per representative for P3 u P2, each with a twin
        (complete_expansion(ExpansionSpec(cycle_graph(5), (102,) * 5)), 5 + 5),
        # twin-free SRG(27,10,1,5): 27 walks for the gem, then one per edge,
        # 27 * 10 / 2 = 135, for P3 u P2
        (schlafli_complement(), 27 + 135),
    ]
    for g, walks in cases:
        calls = [count_calls(monkeypatch, f) for f in (find_induced, _components_if_cliques)]
        assert is_class_member(g) == (True, None)
        assert [len(c) for c in calls] == [0, walks]
        monkeypatch.undo()


def test_witness_search_runs_on_the_twin_quotient(monkeypatch):
    """K[C5](102) less the edge 410-433 inside one bag: seven twin classes,
    and the lex-least P3 u P2 is searched among at most two vertices of each."""
    g = complete_expansion(ExpansionSpec(cycle_graph(5), (102,) * 5))
    g = build_graph(g.n, [e for e in g.edges() if e != (410, 433)])
    masks = []

    def counted(host, pat, within=None):
        masks.append(within)
        return find_induced(host, pat, within)

    monkeypatch.setattr(gemfree.patterns, "find_induced", counted)
    ok, w = is_class_member(g)
    assert not ok and _induces(g, NAMED_PATTERNS["p3up2"], w.embedding)
    assert len(masks) == 1 and masks[0].bit_count() <= 2 * 7


@st.composite
def both_twin_blowups(draw, max_bag=4):
    """A graph on at most five vertices, each vertex blown up into a bag of
    1..max_bag vertices that is a clique (true twins) or an independent set
    (false twins), plus up to two extra edges, relabelled."""
    base = draw(small_graphs(max_n=5))
    sizes = draw(st.lists(st.integers(1, max_bag), min_size=base.n, max_size=base.n))
    cliques = draw(st.lists(st.booleans(), min_size=base.n, max_size=base.n))
    starts = list(itertools.accumulate(sizes, initial=0))
    bags = [range(starts[i], starts[i + 1]) for i in range(base.n)]
    n = starts[-1]
    edges = {(u, v) for a, b in base.edges() for u in bags[a] for v in bags[b]}
    edges |= {(u, v) for bag, clique in zip(bags, cliques) if clique
              for u in bag for v in bag if u < v}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else [])
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=200, deadline=None)
@given(both_twin_blowups())
def test_p3up2_witness_inside_both_twin_masks(g):
    """The witness search runs inside the two least vertices of each true-
    and each false-twin class, and names the lex-least P3 u P2 of the host."""
    assert is_class_member(g, ("p3up2",))[1] == reference_find_induced(g, "p3up2")


def test_witness_search_at_scale_runs_on_both_kinds_of_twin(monkeypatch):
    """C5[I_100] plus a pendant at vertex 499 (n = 501): the true-twin mask is
    every vertex, the false-twin mask 12, and the search runs inside those 12.
    A search of all 501 vertices walks every partial P3 u P2 on bags 0 and 1
    for minutes before it reaches the witness."""
    g = with_pendant(c5_independent_blowup(100), 499)
    masks = []

    def bounded(host, pat, within=None):
        assert within is not None and within.bit_count() <= 12
        masks.append(within)
        return find_induced(host, pat, within)

    monkeypatch.setattr(gemfree.patterns, "find_induced", bounded)
    assert is_class_member(g) == (False, PatternWitness("p3up2", (100, 200, 101, 499, 500)))
    assert len(masks) == 1


@pytest.mark.parametrize("make,verdict,bounds", [
    (lambda: cocktail_party(50), (True, None), (5_000, 14_800, 0)),
    (lambda: prism(50), (True, None), (2_600, 0, 0)),
    (lambda: c5_independent_blowup(20), (True, None), (2_100, 0, 0)),
    (lambda: alternating_threshold(100), (True, None), (2_501, 6_075, 0)),
    (lambda: with_pendant(prism(50), 98),
     (False, PatternWitness("p3up2", (50, 98, 100, 1, 2))), (1, 0, 1)),
    (lambda: with_pendant(c5_independent_blowup(20), 99),
     (False, PatternWitness("p3up2", (20, 40, 21, 99, 100))), (2_001, 0, 1)),
    (lambda: with_pendant(alternating_threshold(99), 98),
     (False, PatternWitness("p3up2", (0, 3, 2, 98, 99))), (2_306, 0, 1)),
], ids=["cocktail-party", "prism", "c5-blowup", "threshold",
        "prism-pendant", "c5-blowup-pendant", "threshold-pendant"])
def test_membership_work_at_the_ladder_shapes(make, verdict, bounds, monkeypatch):
    """The members and pendant non-members on which membership is slowest at
    n ~ 500 (ROADMAP.md), at a fifth of the size: verdict, witness, and upper bounds on
    P3 walks, cotree nodes (recursion included) and pattern searches. Counts
    do not depend on the machine, so a change that makes membership do more
    work on these shapes fails here without a clock."""
    g = make()
    calls = [count_calls(monkeypatch, f) for f in (_components_if_cliques, cograph_coloring, find_induced)]
    assert is_class_member(g) == verdict
    counts = [len(c) for c in calls]
    assert all(c <= bound for c, bound in zip(counts, bounds)), counts


def test_deepest_cotree_at_the_vertex_limit():
    """The alternating threshold graph on 512 vertices has a cotree about 511
    levels deep, and the cotree walk takes one frame per level. Under CPython's
    default recursion limit of 1000, a walk that took two frames per level
    would overflow here."""
    g = alternating_threshold(512)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert is_p4_free(g)
        colors = [0] * g.n
        used = cograph_coloring(g, g.full_mask, colors)
    finally:
        sys.setrecursionlimit(limit)
    # the odd vertices and vertex 0 form a maximum clique: omega = 257
    assert used == 257 == max_clique(g).omega == max(colors)
    assert all(colors[u] != colors[v] for u, v in g.edges())
