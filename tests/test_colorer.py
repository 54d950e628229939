import json
import random
import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gemfree import coloring, partition
from gemfree.cli import main
from gemfree.coloring import (
    CertificationError,
    ClassViolationError,
    ColoringTrace,
    color_three_omega,
    color_two_omega,
    greedy_coloring,
    verify_proper,
)
from gemfree.exact import CliqueResult, chromatic_number, max_clique
from gemfree.generators import (
    ExpansionSpec,
    class_corpus,
    complete_expansion,
    groetzsch_graph,
    random_class_member,
    schlafli_complement,
)
from gemfree.graph_io import serialize
from gemfree.graphs import Coloring, GraphError, bits, build_graph, cograph_coloring, join
from gemfree.partition import WBCPartition, build_partition, run_all_checks
from gemfree.patterns import (
    NAMED_PATTERNS,
    complete_graph,
    cycle_graph,
    find_induced,
    is_class_member,
    is_p4_free,
    path_graph,
)

from conftest import (
    case21_graph,
    delete_vertex,
    relabel,
    sampled_members,
    small_graphs,
    template_members,
)


def test_verify_proper_conflict():
    ok, edge = verify_proper(complete_graph(2), Coloring((1, 1)))
    assert not ok and edge == (0, 1)


def test_verify_proper_c5():
    ok, edge = verify_proper(cycle_graph(5), Coloring((1, 2, 1, 2, 3)))
    assert ok and edge is None


def _first_conflict_by_edges(g, colors):
    """Reference for verify_proper: walk the higher neighbours of each vertex."""
    for v in range(g.n):
        for u in bits(g.adj[v] >> (v + 1) << (v + 1)):
            if colors[v] == colors[u]:
                return False, (v, u)
    return True, None


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=12), st.integers(min_value=1, max_value=4), st.data())
def test_verify_proper_matches_edge_walk(g, k, data):
    colors = tuple(data.draw(st.lists(st.integers(1, k), min_size=g.n, max_size=g.n)))
    assert verify_proper(g, Coloring(colors)) == _first_conflict_by_edges(g, colors)


def test_verify_requires_total():
    with pytest.raises(GraphError):
        verify_proper(cycle_graph(5), Coloring((1, 2)))


def test_greedy():
    assert greedy_coloring(complete_graph(3)).num_colors == 3
    assert greedy_coloring(cycle_graph(5)).num_colors == 3


@settings(max_examples=30, deadline=None)
@given(small_graphs(min_n=1, max_n=7))
def test_greedy_at_least_chi(g):
    col = greedy_coloring(g)
    assert verify_proper(g, col)[0]
    assert col.num_colors >= chromatic_number(g).chi


def _cograph_colors(g):
    """`cograph_coloring` over all of g: the colour list, or None at a P4."""
    colors = [0] * g.n
    return None if cograph_coloring(g, g.full_mask, colors) is None else Coloring(tuple(colors))


def test_cograph_coloring():
    assert _cograph_colors(cycle_graph(4)).num_colors == 2
    assert _cograph_colors(join(complete_graph(2), complete_graph(3))).num_colors == 5
    paw = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert _cograph_colors(paw).num_colors == 3


def test_cograph_rejects_p4():
    assert _cograph_colors(path_graph(4)) is None


@settings(max_examples=60, deadline=None)
@given(small_graphs(min_n=1, max_n=9))
def test_cotree_p4_test_matches_pattern_search(g):
    w = find_induced(g, "p4")
    assert is_p4_free(g) == (w is None)
    assert (_cograph_colors(g) is None) == (w is not None)


@settings(max_examples=40, deadline=None)
@given(small_graphs(min_n=1, max_n=8))
def test_cograph_optimal_when_p4_free(g):
    if not is_p4_free(g):
        return
    col = _cograph_colors(g)
    assert verify_proper(g, col)[0]
    assert col.num_colors == max_clique(g).omega


def test_two_omega_c5():
    col, trace = color_two_omega(cycle_graph(5))
    assert trace.verified and col.num_colors <= 4


def test_two_omega_groetzsch_exactly_4():
    col, trace = color_two_omega(groetzsch_graph())
    assert trace.case == "omega<=2"
    assert col.distinct_colors == 4


def test_two_omega_schlafli_exactly_6():
    col, trace = color_two_omega(schlafli_complement())
    assert col.distinct_colors == 6 and trace.verified


def test_two_omega_expansion_bound():
    g = complete_expansion(ExpansionSpec(cycle_graph(5), (2,) * 5))
    col, trace = color_two_omega(g)
    assert col.num_colors <= 8
    assert chromatic_number(g).chi == 5


def test_two_omega_at_the_vertex_limit():
    """K[C5](102), n=510, near the 512-vertex limit: certified within 2*omega."""
    g = complete_expansion(ExpansionSpec(cycle_graph(5), (102,) * 5))
    col, trace = color_two_omega(g)
    omega = 2 * 102  # two adjacent bags
    assert trace.verified and col.num_colors <= 2 * omega


def test_atlas_members_certify(atlas):
    """Every class member on at most 7 vertices: both colorings certify within
    their bounds, exact chi is at most both counts, and the lemma checks pass."""
    members = 0
    for g in atlas:
        if not g.n or not is_class_member(g)[0]:
            continue
        members += 1
        two, trace = color_two_omega(g)
        omega = len(trace.A)
        three = color_three_omega(g)
        assert trace.verified and verify_proper(g, two)[0] and verify_proper(g, three)[0]
        assert two.num_colors <= 2 * omega and three.num_colors <= 3 * omega - 2
        assert chromatic_number(g).chi <= min(two.num_colors, three.num_colors)
        reports = run_all_checks(g, build_partition(g))
        assert all(r.passed for r in reports.values() if r.applicable), list(h.edges())
    assert members == 623


def test_two_omega_rejects_non_member():
    with pytest.raises(ClassViolationError) as exc:
        color_two_omega(NAMED_PATTERNS["gem"])
    assert exc.value.witness.pattern_name == "gem"


def test_case21_fires_and_certifies():
    g = case21_graph()
    col, trace = color_two_omega(g)
    assert trace.case == "Case2.1"
    assert len(trace.shared_positions) >= 2
    assert trace.verified
    # the proof's arithmetic must hold whenever this case fires
    a = trace.A
    na_s = {k for k in range(1, len(a) + 1)
            if any(g.has_edge(a[k - 1], v) for v in trace.S)}
    na_t = {k for k in range(1, len(a) + 1)
            if any(g.has_edge(a[k - 1], v) for v in trace.T)}
    shared = set(trace.shared_positions)
    assert not (na_s & na_t)
    assert len(trace.S) <= len(na_t) + len(shared)
    assert len(trace.T) <= len(na_s) + len(shared)


def test_case22_trace_validity():
    g = schlafli_complement()
    col, trace = color_two_omega(g)
    assert trace.case == "Case2.2"
    omega = len(trace.A)
    for u in trace.u_vertices:
        assert col.colors[u] == omega + 1
    # a used w+1 never meets a C_{1,2} component of omega vertices, so the
    # JSON's z_vertices stays empty
    assert trace.to_json_dict()["z_vertices"] == []


def _case21_cells(p):
    """C'_(1,j) and C'_(2,l) if the partition `p` is in Case 2.1, else None."""
    if p.omega < 3 or any(i >= 3 for i, _ in p.C):
        return None
    rows = [[pair for pair, cp in p.Cprime.items() if pair[0] == row and pair[1] >= 3 and cp]
            for row in (1, 2)]
    if any(len(live) != 1 for live in rows):
        return None
    (one,), (two,) = rows
    if len(p.D[one] & p.D[two]) < 2:
        return None
    return p.Cprime[one], p.Cprime[two]


def _check_case_lemmas(g):
    """Assert the two facts the 2*omega colourer certifies on the member g.

    If some C'_(1,j), j >= 3, is nonempty, every C_{1,2} component has fewer
    than omega vertices; in Case 2.1 both C' cells are cliques. Returns
    (Case 2.1 applies, a C'_(1,j) is nonempty beside a C_{1,2} component of
    omega - 1 vertices), so callers can count the inputs that test each fact.
    """
    p = build_partition(g)
    c12 = g.components(p.C.get((1, 2), 0))
    tight = False
    if any(i == 1 and j >= 3 and cp for (i, j), cp in p.Cprime.items()):
        assert all(comp.bit_count() < p.omega for comp in c12), g.edges()
        tight = any(comp.bit_count() == p.omega - 1 for comp in c12)
    cells = _case21_cells(p)
    assert (cells is not None) == (color_two_omega(g)[1].case == "Case2.1")
    if cells is not None:
        assert all(g.is_clique(cell) for cell in cells), g.edges()
    return cells is not None, tight


def test_case_lemmas_on_relabelled_atlas_members(atlas):
    # Case 2.1 needs n >= 8, so on n <= 7 this checks the C_{1,2} bound (13 of
    # these members have a C'_(1,j) beside a nonempty C_{1,2}) and the case
    # detection under relabelling
    rng = random.Random(0)
    for g in atlas:
        if g.n and is_class_member(g)[0]:
            perm = list(range(g.n))
            rng.shuffle(perm)
            _check_case_lemmas(relabel(g, perm))


def test_case21_cells_are_cliques_on_template_draws():
    fired = [_check_case_lemmas(g)[0] for g in template_members(4, (0, 1), 12000, seed=0)]
    assert sum(fired) >= 20


def test_c12_components_stay_below_omega_on_template_draws():
    tight = [_check_case_lemmas(g)[1] for g in template_members(3, (1, 2), 2000, seed=0)]
    assert sum(tight) >= 20


def test_generated_corpus_fires_every_case_but_case21():
    """The seeded corpus reaches every proof case of the 2*omega colourer
    except Case 2.1, each at least half as often as its 24, 59, 113 and 4
    firings; `test_case21_cells_are_cliques_on_template_draws` covers Case 2.1.
    The two tests replace the case-coverage script that used to report this."""
    fired = Counter(color_two_omega(g)[1].case for g in class_corpus(count=200, seed=0))
    floors = {"omega<=2": 12, "Case1": 30, "Case2-simple": 55, "Case2.2": 2}
    assert all(fired[case] >= floor for case, floor in floors.items()), fired


def test_case21_certifies_single_clique_cells():
    # case21_graph plus an edge 8-9 seeing vertex 1 only: C'_(1,3) has two
    # components, which a P3 u P2 rules out on a member (here 6-0-2 beside 8-9)
    g = build_graph(10, case21_graph().edges() + [(8, 9), (8, 1), (9, 1)])
    assert find_induced(g, "p3up2") is not None
    with pytest.raises(CertificationError, match="not a clique in Case 2.1"):
        coloring._color_cases(g, build_partition(g), ColoringTrace())


def test_full_c12_component_beside_a_used_w_plus_1_is_certification_failure():
    # omega = 3, A = 0,1,2: x=3 and y=4 lie in C'_(1,3); T = {5,6,7} is a
    # C_{1,2} component of omega vertices, x missing 5 and y missing 6, so
    # 1-4-7-6 is a P4 inside N(3): the gem of the proof
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 1), (4, 1), (5, 6), (5, 7), (6, 7),
             (3, 6), (3, 7), (4, 5), (4, 7)]
    g = build_graph(8, edges)
    assert find_induced(g, "gem") is not None
    p = build_partition(g)
    assert p.A == (0, 1, 2) and p.C[(1, 2)] == 0b11100000 and p.Cprime[(1, 3)] == 0b11000
    colors = [1, 2, 3, 4, 0, 0, 0, 0]  # x took w+1 as a Case 2.2 u-vertex would
    with pytest.raises(CertificationError, match="component of omega vertices meets a used w"):
        coloring._color_c12(g, p, colors, ColoringTrace(A=p.A, u_vertices=(3,)))


def test_trace_pool_colors_respect_nonadjacency(corpus):
    # a vertex given a clique-position color must miss that clique vertex
    # and its I-set (the property the proof invokes)
    for g in corpus[:30]:
        col, trace = color_two_omega(g)
        p = build_partition(g)
        omega = p.omega
        assert trace.A == p.A
        clique_and_i = {k: (1 << p.A[k - 1]) | p.I[k - 1] for k in range(1, omega + 1)}
        in_cells = 0
        for m in p.C.values():
            in_cells |= m
        for v in bits(in_cells):
            c = col.colors[v]
            if c <= omega:
                assert not g.has_edge(v, p.A[c - 1])
                assert not g.adj[v] & p.I[c - 1]


def test_two_omega_bound_and_cert_on_corpus(corpus):
    for g in corpus:
        col, trace = color_two_omega(g)
        omega = max_clique(g).omega
        assert trace.verified
        assert col.num_colors <= 2 * omega
        assert chromatic_number(g).chi <= col.distinct_colors


def test_three_omega_examples():
    assert color_three_omega(groetzsch_graph()).num_colors <= 4
    g = complete_expansion(ExpansionSpec(cycle_graph(5), (2,) * 5))
    assert color_three_omega(g).num_colors <= 10
    assert color_three_omega(complete_graph(4)).num_colors == 4


def test_three_omega_rejects_non_member():
    with pytest.raises(ClassViolationError):
        color_three_omega(NAMED_PATTERNS["p3up2"])


def test_three_omega_bound_on_corpus(corpus):
    for g in corpus:
        omega = max_clique(g).omega
        col = color_three_omega(g)
        assert verify_proper(g, col)[0]
        assert col.num_colors <= max(3 * omega - 2, 1)


@pytest.mark.parametrize("strategy", ["expand", "prune"])
def test_larger_members_color_counts_against_exact_chi(strategy):
    # n = 20..60 lies past the corpus (n <= 14) and within exact chi's default max_n
    for n in range(20, 61):
        g = random_class_member(n, n, strategy)
        omega = max_clique(g).omega
        chi = chromatic_number(g).chi
        two = color_two_omega(g)[0].num_colors
        three = color_three_omega(g).num_colors
        assert omega <= chi <= two <= 2 * omega, (strategy, n)
        assert chi <= three <= max(3 * omega - 2, 1), (strategy, n)


@settings(max_examples=40, deadline=None)
@given(sampled_members(), st.data())
def test_relabelled_member_certifies_with_same_omega(member, data):
    g, _ = member
    h = relabel(g, data.draw(st.permutations(range(g.n))))
    two, trace = color_two_omega(h)
    three, omega = coloring._three_omega(h)
    assert len(trace.A) == omega == max_clique(g).omega
    assert trace.verified and verify_proper(h, two)[0] and verify_proper(h, three)[0]
    assert two.num_colors <= 2 * omega and three.num_colors <= 3 * omega - 2


@settings(max_examples=40, deadline=None)
@given(sampled_members(), st.data())
def test_member_minus_a_vertex_certifies_within_two_omega(member, data):
    g, _ = member
    assume(g.n >= 2)
    h = delete_vertex(g, data.draw(st.integers(0, g.n - 1)))
    assert is_class_member(h)[0]
    col, trace = color_two_omega(h)
    assert trace.verified and verify_proper(h, col)[0]
    assert col.num_colors <= 2 * max_clique(h).omega


def test_colorers_color_the_empty_graph():
    empty = build_graph(0, [])
    col, trace = color_two_omega(empty)
    assert col.colors == () and (trace.A, trace.case, trace.verified) == ((), "omega<=2", True)
    assert color_three_omega(empty).colors == ()


@pytest.mark.parametrize("algorithm,colorer,step,stub", [
    ("two-omega", color_two_omega, "_color_c12", lambda *args: None),
    ("three-omega", color_three_omega, "_clique_components", lambda *args: []),
], ids=["two-omega", "three-omega"])
def test_uncolored_vertex_is_certification_failure(algorithm, colorer, step, stub,
                                                   monkeypatch, tmp_path, capsys):
    # a construction step that leaves C_{1,2} at color 0 must end in exit 3
    monkeypatch.setattr(coloring, step, stub)
    g = schlafli_complement()
    with pytest.raises(CertificationError, match="coloring not total") as failure:
        colorer(g)
    # two-omega carries its trace as it stood at the failure, three-omega none
    trace = failure.value.trace
    if algorithm == "two-omega":
        assert (trace.case, trace.verified) == ("Case2.2", False)
    else:
        assert trace is None
    path = tmp_path / "schlafli.col"
    path.write_text(serialize(g, "dimacs"))
    assert main(["color", str(path), "--algorithm", algorithm]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["message"] == "coloring not total"
    assert report["trace"] == (trace.to_json_dict() if trace else None)


@pytest.mark.parametrize("algorithm,colorer", [
    ("two-omega", color_two_omega),
    ("three-omega", color_three_omega),
], ids=["two-omega", "three-omega"])
def test_a_clique_that_is_not_one_is_certification_failure(algorithm, colorer,
                                                          monkeypatch, tmp_path, capsys):
    # the colour bound counts A as omega: an edgeless graph handed A = {0, 1}
    # would pass 3 colours as <= 2*2, although omega is 1
    monkeypatch.setattr(partition, "max_clique", lambda g: CliqueResult(0b011))
    g = build_graph(3, [])
    with pytest.raises(CertificationError, match="A is not a clique") as failure:
        colorer(g)
    trace = failure.value.trace
    if algorithm == "two-omega":
        assert (trace.A, trace.verified) == ((0, 1), False)
    else:
        assert trace is None
    path = tmp_path / "empty3.col"
    path.write_text(serialize(g, "dimacs"))
    assert main(["color", str(path), "--algorithm", algorithm]) == 3
    report = json.loads(capsys.readouterr().out)
    assert (report["error"], report["message"]) == ("certification-failure", "A is not a clique")
    assert report["trace"] == (trace.to_json_dict() if trace else None)


def test_certify_refuses_a_proper_coloring_over_its_bound():
    g = cycle_graph(5)
    with pytest.raises(CertificationError, match=r"^bound 2\*omega exceeded$") as failure:
        coloring._certify(g, [1, 2, 1, 2, 3], (0, 1), 2, "2*omega")
    assert failure.value.conflict is None


def test_certify_refuses_an_improper_coloring_within_its_bound():
    # C4 clashes on 1-2 and on 0-3: the conflict is the lexicographically
    # first clashing edge, although 1-2 is listed first
    g = build_graph(4, [(1, 2), (0, 1), (2, 3), (0, 3)])
    colors = [1, 2, 2, 1]
    with pytest.raises(CertificationError, match="^improper coloring produced$") as failure:
        coloring._certify(g, colors, (0, 1), 4, "2*omega")
    clashes = sorted((u, v) for u, v in g.edges() if colors[u] == colors[v])
    assert failure.value.conflict == clashes[0] == (0, 3)


@pytest.mark.parametrize("colors,message,conflict", [
    ([1, 2, 3, 4, 5], "bound 2*omega exceeded", None),
    ([1, 2, 2, 1, 1], "improper coloring produced", [0, 4]),
], ids=["over-bound", "improper"])
def test_certify_refusals_end_in_exit_3(colors, message, conflict, monkeypatch, tmp_path, capsys):
    # C5 has omega = 2: five proper colours exceed 2*omega; the second
    # colouring clashes on 0-4, 1-2 and 3-4
    traces = []

    def construct(g, p, trace):
        traces.append(trace)
        return list(colors)

    monkeypatch.setattr(coloring, "_color_cases", construct)
    path = tmp_path / "c5.col"
    path.write_text(serialize(cycle_graph(5), "dimacs"))
    assert main(["color", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report == {"error": "certification-failure", "message": message,
                      "conflict": conflict, "trace": traces[0].to_json_dict()}
    assert (report["trace"]["A"], report["trace"]["verified"]) == ([0, 1], False)


def _k4_partition(cprime, d):
    """A hand-built partition with A = K4 on 0..3 and the given C' cells, each
    its own C cell, and their D sets: no member has these cells."""
    return WBCPartition((0, 1, 2, 3), (0,) * 4, dict(cprime), dict(cprime), d)


K4_PLUS_TWO_EDGES = build_graph(8, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                                + [(4, 5), (6, 7)])


@pytest.mark.parametrize("g,p,message", [
    # omega = 2, and C_{1,2} is the P3 2-3-4
    (build_graph(5, [(0, 1), (2, 3), (3, 4)]), None, "component of C_{1,2} is not a clique"),
    # omega <= 2 leaves C_{1,2} the pool 3, 4: a triangle overflows it
    (build_graph(5, [(0, 1), (2, 3), (2, 4), (3, 4)]),
     WBCPartition((0, 1), (0, 0), {(1, 2): 0b11100}, {(1, 2): 0b11100}, {(1, 2): frozenset()}),
     "color pool exhausted at C_{1,2}"),
    (K4_PLUS_TWO_EDGES,
     _k4_partition({(1, 3): 0b110000, (1, 4): 0b11000000},
                   {(1, 3): frozenset({2, 4}), (1, 4): frozenset({2, 3})}),
     "multiple live C' cells in row 1: [3, 4] (contradicts uniqueness)"),
    # Case 2.1 with D = {3, 4} on both sides: N_A(S) = N_A(T) = {1, 2}
    (K4_PLUS_TWO_EDGES,
     _k4_partition({(1, 3): 0b110000, (2, 4): 0b11000000},
                   {(1, 3): frozenset({3, 4}), (2, 4): frozenset({3, 4})}),
     "N_A(S) and N_A(T) intersect in Case 2.1"),
], ids=["cell-not-a-clique", "pool-exhausted", "two-live-cells", "neighbourhoods-meet"])
def test_construction_refusals(g, p, message):
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        coloring._color_cases(g, p or build_partition(g), ColoringTrace())


def test_a_piece_with_a_p4_is_certification_failure(monkeypatch):
    # A = (4, 5) and I_2 = the P4 0-1-2-3: piece1 = {5} u I_2 holds a P4
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    p = WBCPartition((4, 5), (0, 0b1111), {}, {}, {})
    monkeypatch.setattr(coloring, "_member_partition", lambda g: p)
    with pytest.raises(CertificationError, match="^piece1 is not P4-free"):
        color_three_omega(g)
