import json
import random

import pytest
from hypothesis import given, settings

import gemfree.graphs
import gemfree.partition
from gemfree.exact import max_clique
from gemfree.generators import (
    ExpansionSpec,
    complete_expansion,
    gnp,
    groetzsch_graph,
    schlafli_complement,
)
from gemfree.graphs import bits, build_graph, mask_of
from gemfree.partition import (
    WBCPartition,
    build_partition,
    check_claim1,
    check_fact1,
    check_lemma_class,
    check_lemma_gem,
    run_all_checks,
)
from gemfree.patterns import complete_graph, cycle_graph, find_induced, is_class_member

from conftest import relabel, sampled_members


def test_c5_partition_forced():
    p = build_partition(cycle_graph(5))
    assert p.A == (0, 1)
    assert p.I[0] == mask_of([2])  # misses only v_1
    assert p.I[1] == mask_of([4])
    assert p.C[(1, 2)] == mask_of([3])
    assert p.Cprime[(1, 2)] == 0
    assert p.D[(1, 2)] == frozenset({1, 2})


def test_p3up2_partition_forced():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    p = build_partition(g)
    assert p.A == (0, 1)
    assert p.I[0] == mask_of([2])
    assert p.C[(1, 2)] == mask_of([3, 4])
    assert p.Cprime[(1, 2)] == mask_of([3, 4])
    assert p.D[(1, 2)] == frozenset({1, 2})


def test_k4_partition_all_empty():
    p = build_partition(complete_graph(4))
    assert p.A == (0, 1, 2, 3)
    assert all(m == 0 for m in p.I)
    assert all(m == 0 for m in p.C.values())


def lex_pairs(omega):
    return [(i, j) for i in range(1, omega + 1) for j in range(i + 1, omega + 1)]


def _dense_partition(g, a):
    """Reference partition around the clique A, in any order: every vertex and
    every lex pair examined one by one."""
    amask = mask_of(a)
    omega = len(a)
    i_sets = [0] * omega
    c_sets = {pair: 0 for pair in lex_pairs(omega)}
    for v in range(g.n):
        if amask >> v & 1:
            continue
        missed = [k for k in range(1, omega + 1) if not g.has_edge(v, a[k - 1])]
        if len(missed) == 1:
            i_sets[missed[0] - 1] |= 1 << v
        else:
            c_sets[(missed[0], missed[1])] |= 1 << v
    cprime = {}
    d_sets = {}
    for pair, cell in c_sets.items():
        iso = 0
        for v in bits(cell):
            if not g.adj[v] & cell:
                iso |= 1 << v
        cp = cell & ~iso
        cprime[pair] = cp
        d_sets[pair] = frozenset(
            k for k in range(1, omega + 1) if not g.adj[a[k - 1]] & cp
        )
    return WBCPartition(a, tuple(i_sets), c_sets, cprime, d_sets)


def _every_pair(d):
    """Partition JSON with every lex pair: an absent pair has C = C' = [] and D = every position."""
    keys = [f"{i},{j}" for i, j in lex_pairs(len(d["A"]))]
    every = list(range(1, len(d["A"]) + 1))
    return {**d, "C": {key: d["C"].get(key, []) for key in keys},
            "Cprime": {key: d["Cprime"].get(key, []) for key in keys},
            "D": {key: d["D"].get(key, every) for key in keys}}


def _assert_matches_dense(g):
    """build_partition holds exactly the reference's non-empty cells around the
    lex-least maximum clique, in lex order, in its maps and its JSON; the JSON
    with the absent pairs filled in is the reference's, which lists every pair."""
    p = build_partition(g)
    assert p.A == tuple(bits(max_clique(g).witness))
    ref = _dense_partition(g, p.A)
    live = [pair for pair, cell in ref.C.items() if cell]
    assert list(p.C) == list(p.Cprime) == list(p.D) == live
    d = p.to_json_dict()
    assert list(d["C"]) == list(d["Cprime"]) == list(d["D"]) == [f"{i},{j}" for i, j in live]
    assert json.dumps(_every_pair(d)) == json.dumps(ref.to_json_dict())


def test_partition_matches_dense_on_atlas(atlas):
    members = 0
    for g in atlas:
        if g.n and is_class_member(g)[0]:
            members += 1
            _assert_matches_dense(g)
    assert members == 623


@settings(max_examples=60, deadline=None)
@given(sampled_members())
def test_partition_matches_dense_on_sampled_members(member):
    _assert_matches_dense(member[0])


def _verdict(report):
    d = report.to_json_dict()
    return d["applicable"], d["passed"], d["failures"]


def _cells(bindings):
    """The cells a fact1, lemma_gem or lemma_class clause is about."""
    named = [v for v in bindings.values() if isinstance(v, tuple)]
    return named or [(bindings["i"], bindings["j"])]


@pytest.fixture
def clause_calls(monkeypatch):
    """Every clause the checkers decide, as (clause, bindings, failure or None),
    in order: the calls of the one clause function, recorded."""
    calls = []

    def recorded(clause, bindings, witness, _f=gemfree.partition._failure):
        failure = _f(clause, bindings, witness)
        calls.append((clause, bindings, failure))
        return failure
    monkeypatch.setattr(gemfree.partition, "_failure", recorded)
    return calls


def _checked(calls, check, g, p):
    """The report of `check` on (g, p) and the clauses it decided."""
    calls.clear()
    return check(g, p), calls[:]


def test_checks_match_the_every_pair_partition(atlas, corpus, clause_calls):
    """fact1, lemma_gem and lemma_class give the same verdicts and failures, in
    order, on the sparse partition as on the reference that lists every pair: a
    clause about an absent cell can never fail. The sparse checkers decide
    exactly the reference's clauses whose cells all exist, in order, and count
    those. claim1 is left out, since its clauses presuppose a non-empty C_{r,s}."""
    rng = random.Random(0)
    graphs = [*atlas]
    graphs += [gnp(rng.randint(5, 14), rng.choice((0.3, 0.5, 0.7, 0.85)), rng) for _ in range(900)]
    failing = 0
    for g in graphs + corpus:
        p = build_partition(g)
        dense = _dense_partition(g, p.A)
        for check in (check_fact1, check_lemma_gem, check_lemma_class):
            report, sparse = _checked(clause_calls, check, g, p)
            full, every = _checked(clause_calls, check, g, dense)
            assert _verdict(report) == _verdict(full), (check.__name__, g.edges())
            assert sparse == [c for c in every if all(pair in p.C for pair in _cells(c[1]))]
            assert report.to_json_dict()["num_entries"] == len(sparse)
            failing += report.applicable and not report.passed
    assert failing >= 500  # the failure path is compared, not only passing reports


@pytest.mark.parametrize("make,counts", [
    (schlafli_complement, [27, 50, 8, 0]),
    (groetzsch_graph, [4, 0, 0, 0]),
    (lambda: complete_expansion(ExpansionSpec(cycle_graph(5), (3,) * 5)), [11, 14, 7, 1]),
], ids=["schlafli-complement", "groetzsch", "K[C5](3)"])
def test_num_entries_count_built_clauses(make, counts):
    g = make()
    reports = run_all_checks(g, build_partition(g))
    assert [r.to_json_dict()["num_entries"] for r in reports.values()] == counts


def test_checks_at_the_vertex_limit(monkeypatch):
    """K[C5](102), n=510: 2 of the 20,706 cells are non-empty, and only those
    are searched, listed and checked; no clause about an absent cell is built."""
    g = complete_expansion(ExpansionSpec(cycle_graph(5), (102,) * 5))
    p = build_partition(g)
    d = p.to_json_dict()
    assert len(p.C) == 2
    assert list(d["C"]) == list(d["Cprime"]) == list(d["D"]) == [f"{i},{j}" for i, j in p.C]
    assert len(json.dumps(d)) < 16 * 1024
    calls = {"find_induced": 0, "max_clique": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(gemfree.partition, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(gemfree.partition, name, counted)
    reports = run_all_checks(g, p)
    assert all(r.applicable and r.passed for r in reports.values())
    assert [r.to_json_dict()["num_entries"] for r in reports.values()] == [308, 10508, 205, 1]
    assert calls["find_induced"] <= 4 and calls["max_clique"] <= 4


def test_partition_covers_and_disjoint(corpus):
    for g in corpus:
        p = build_partition(g)
        total = mask_of(p.A)
        count = len(p.A)
        for m in list(p.I) + list(p.C.values()):
            assert total & m == 0
            total |= m
            count += m.bit_count()
        assert total == g.full_mask and count == g.n


def test_partition_fixed_point(corpus):
    # recomputing each vertex's cell from scratch reproduces the partition
    for g in corpus[:20]:
        p = build_partition(g)
        for v in range(g.n):
            if v in p.A:
                continue
            missed = [k for k in range(1, p.omega + 1) if not g.has_edge(v, p.A[k - 1])]
            if len(missed) == 1:
                assert p.I[missed[0] - 1] >> v & 1
            else:
                assert p.C[(missed[0], missed[1])] >> v & 1


def test_partition_respects_relabeling():
    """Mapped back to G, the partition of a relabelled copy H is the reference
    partition of G around the preimage of H's clique, in H's order: an order
    that is not ascending in G."""
    k_c5_3 = complete_expansion(ExpansionSpec(cycle_graph(5), (3,) * 5))
    for g, step in [(schlafli_complement(), 5), (k_c5_3, 7)]:
        perm = [(v * step + 3) % g.n for v in range(g.n)]  # step is coprime to n
        inverse = {u: v for v, u in enumerate(perm)}
        h = relabel(g, perm)
        q = build_partition(h)
        a = tuple(inverse[u] for u in q.A)
        assert list(a) != sorted(a)
        qj, ref = _every_pair(q.to_json_dict()), _dense_partition(g, a).to_json_dict()
        for part in ("I", "C", "Cprime"):
            back = {key: sorted(inverse[u] for u in vs) for key, vs in qj[part].items()}
            assert back == ref[part]
        assert qj["D"] == ref["D"]


def test_cprime_drops_exactly_isolated(corpus):
    for g in corpus[:20]:
        p = build_partition(g)
        for pair, cell in p.C.items():
            iso = mask_of(v for v in bits(cell) if not g.adj[v] & cell)
            assert p.Cprime[pair] == cell & ~iso


def test_checks_pass_on_members(corpus):
    for g in corpus:
        p = build_partition(g)
        for name, rep in run_all_checks(g, p).items():
            if rep.applicable:
                assert rep.passed, (name, g.n, rep.failures)


def test_lemma_class_refuses_small_omega():
    p = build_partition(cycle_graph(5))
    assert p.A == (0, 1)
    rep = check_lemma_class(cycle_graph(5), p)
    assert not rep.applicable and "omega >= 3" in rep.reason
    assert not check_claim1(cycle_graph(5), p).applicable


def test_fact1_vacuous_on_k4():
    p = build_partition(complete_graph(4))
    assert p.A == (0, 1, 2, 3)
    assert check_fact1(complete_graph(4), p).passed


def test_fact1_reports_violation_outside_class():
    # C6 contains an induced P3 u P2; with A an edge the checker may fail,
    # but the report must stay well formed
    g = cycle_graph(6)
    p = build_partition(g)
    rep = check_fact1(g, p)
    assert rep.applicable
    for failure in rep.failures:
        assert failure["witness"] is not None


G_ROW = [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)]
G_OMEGA = [(0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 5), (2, 6),
           (3, 4), (4, 6), (5, 6)]
G_LIVE = [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3),
          (4, 6), (5, 6)]


@pytest.mark.parametrize("edges,clause,bindings,witness", [
    ([(0, 6), (0, 8), (1, 3), (1, 5), (2, 5), (2, 6), (3, 4), (3, 7), (3, 8), (4, 7),
      (4, 8), (5, 7), (6, 7), (6, 8)], "fact1.i", {"i": 1, "j": 2}, (1, 3, 4)),
    ([(0, 1), (0, 2), (0, 3), (0, 4), (0, 7), (0, 8), (1, 6), (1, 8), (2, 4), (2, 5),
      (2, 7), (3, 5), (3, 6), (3, 7), (5, 8)], "lemma_gem.i", {"i": 2, "j": 3},
     (3, 7, 2, 4)),
    (G_ROW, "lemma_gem.ii", {"i": 2, "j": 3, "component_min": 0, "l": 4}, (5,)),
    (G_ROW, "lemma_class.i", {"i": 2, "j": 3, "l": 4}, (5,)),
    (G_ROW, "lemma_class.i-consequence", {"i": 2, "j": 3, "l": 4}, (0,)),
    ([(0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4)], "lemma_gem.iii",
     {"i": 1, "j": 3, "a": 1, "l": 3}, (4,)),
    (G_OMEGA, "lemma_gem.iv",
     {"i": 1, "j": 3, "component_min": 2, "omega_H": 3, "bound": 2}, None),
    (G_OMEGA, "lemma_class.ii", {"i": 1, "j": 3, "omega_Cprime": 3, "D_size": 2}, None),
    ([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 4), (3, 5)],
     "lemma_class.iii", {"cell": (2, 3), "other": (3, 4)}, (5, 3)),
    ([(0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
      (3, 4)], "lemma_class.iii-column", {"cell": (2, 4), "other": (3, 4)}, (0, 5)),
    (G_LIVE, "lemma_class.iv", {"cell": (1, 3), "must_be_empty": (3, 4)}, (5,)),
    (G_LIVE, "claim1", {"r": 3, "s": 4}, (4, 2)),
    ([(0, 2), (0, 3), (0, 4), (0, 5), (0, 8), (1, 2), (1, 4), (1, 6), (1, 8), (2, 3),
      (2, 5), (2, 6), (2, 7), (2, 8), (3, 6), (3, 7), (4, 7), (4, 8), (5, 7), (6, 7),
      (6, 8)], "lemma_class.iv", {"cell": (1, 4), "must_be_Cprime_empty": (1, 3)}, (0, 5)),
    ([(0, 1), (0, 2), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4),
      (2, 5), (2, 6), (3, 4)], "lemma_class.iv-column",
     {"cell": (1, 4), "must_be_empty": (2, 4)}, (6,)),
], ids=["fact1.i", "lemma_gem.i", "lemma_gem.ii", "lemma_class.i", "lemma_class.i-consequence",
        "lemma_gem.iii", "lemma_gem.iv", "lemma_class.ii", "lemma_class.iii",
        "lemma_class.iii-column", "lemma_class.iv-row", "claim1", "lemma_class.iv-Cprime",
        "lemma_class.iv-column"])
def test_cell_witness_is_host_labelled(edges, clause, bindings, witness):
    # one failed clause per clause kind, pinned to the vertices it reports
    g = build_graph(max(max(e) for e in edges) + 1, edges)
    report = run_all_checks(g, build_partition(g))[clause.split(".")[0]]
    [failure] = [f for f in report.failures if f["clause"] == clause and f["bindings"] == bindings]
    assert failure["witness"] == witness


def test_lemma_gem_runs_on_gem_itself():
    from gemfree.patterns import NAMED_PATTERNS

    gem = NAMED_PATTERNS["gem"]
    p = build_partition(gem)
    rep = check_lemma_gem(gem, p)
    assert rep.applicable  # clauses may fail outside the precondition


def test_lemma_gem_splits_each_cell_once(monkeypatch):
    """The P4 test and clauses (ii) and (iv) share one split of each cell into
    components: `_components` runs once on each cell mask."""
    g = schlafli_complement()
    p = build_partition(g)
    calls = {cell: 0 for (_, j), cell in p.C.items() if j >= 3}
    assert [len(g.components(cell)) for cell in calls] == [4, 4]

    def counted(adj, remaining, flip, _f=gemfree.graphs._components):
        if remaining in calls:
            calls[remaining] += 1
        return _f(adj, remaining, flip)
    monkeypatch.setattr(gemfree.graphs, "_components", counted)
    assert check_lemma_gem(g, p).passed
    assert list(calls.values()) == [1, 1]


def test_schlafli_passes_all_checks():
    g = schlafli_complement()
    assert is_class_member(g)[0]
    p = build_partition(g)
    reports = run_all_checks(g, p)
    assert all(r.passed for r in reports.values() if r.applicable)
    assert reports["lemma_class"].applicable


def test_partition_json_shape():
    p = build_partition(cycle_graph(5))
    assert p.A == (0, 1)
    d = p.to_json_dict()
    assert d["A"] == [0, 1]
    assert d["C"]["1,2"] == [3]
    assert d["I"]["1"] == [2]
    assert d["D"]["1,2"] == [1, 2]


def test_cell_pattern_clauses_match_a_pattern_search_on_atlas(atlas, clause_calls):
    """fact1.i and lemma_gem.i hold iff `find_induced` finds no P3 (P4) in the
    cell, whose lex-least copy is the witness: on members and non-members."""
    failures = 0
    for g in atlas[1:]:
        p = build_partition(g)
        for check, clause, name, jmin in [(check_fact1, "fact1.i", "p3", 2),
                                          (check_lemma_gem, "lemma_gem.i", "p4", 3)]:
            want = []
            for (i, j), cell in p.C.items():
                if j >= jmin:
                    w = find_induced(g, name, cell)
                    want.append((clause, {"i": i, "j": j}, w is None, w and w.embedding))
            report, calls = _checked(clause_calls, check, g, p)
            got = [(c, b, f is None, f and f["witness"]) for c, b, f in calls if c == clause]
            assert got == want, g.edges()
            assert [f for f in report.failures if f["clause"] == clause] == [
                f for c, _, f in calls if c == clause and f]
            failures += sum(1 for _, _, ok, _ in want if not ok)
    assert failures  # the witness path runs
