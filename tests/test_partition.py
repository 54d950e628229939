import pytest

from gemfree.generators import schlafli_complement
from gemfree.graphs import bits, build_graph, mask_of
from gemfree.partition import (
    PartitionError,
    build_partition,
    check_claim1,
    check_fact1,
    check_lemma_class,
    check_lemma_gem,
    lex_pairs,
    partition_for,
    run_all_checks,
)
from gemfree.patterns import complete_graph, cycle_graph, is_class_member


def test_c5_partition_forced():
    p = build_partition(cycle_graph(5), (0, 1))
    assert p.I[0] == mask_of([2])  # misses only v_1
    assert p.I[1] == mask_of([4])
    assert p.C[(1, 2)] == mask_of([3])
    assert p.Cprime[(1, 2)] == 0
    assert p.D[(1, 2)] == frozenset({1, 2})


def test_p3up2_partition_forced():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    p = build_partition(g, (0, 1))
    assert p.I[0] == mask_of([2])
    assert p.C[(1, 2)] == mask_of([3, 4])
    assert p.Cprime[(1, 2)] == mask_of([3, 4])
    assert p.D[(1, 2)] == frozenset({1, 2})


def test_k4_partition_all_empty():
    p = build_partition(complete_graph(4), (0, 1, 2, 3))
    assert all(m == 0 for m in p.I)
    assert all(m == 0 for m in p.C.values())


def test_partition_rejects_non_maximum_clique():
    with pytest.raises(PartitionError):
        build_partition(complete_graph(4), (0, 1))
    with pytest.raises(PartitionError):
        build_partition(cycle_graph(5), (0, 2))  # not a clique


def test_partition_covers_and_disjoint(corpus):
    for g in corpus:
        p = partition_for(g)
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
        p = partition_for(g)
        for v in range(g.n):
            if v in p.A:
                continue
            missed = [k for k in range(1, p.omega + 1) if not g.has_edge(v, p.A[k - 1])]
            if len(missed) == 1:
                assert p.I[missed[0] - 1] >> v & 1
            else:
                assert p.C[(missed[0], missed[1])] >> v & 1


def test_partition_respects_relabeling():
    g = schlafli_complement()
    p = partition_for(g)
    perm = [(v * 5 + 3) % g.n for v in range(g.n)]  # a bijection on 0..26
    assert len(set(perm)) == g.n
    h = g.relabel(perm)
    q = build_partition(h, [perm[v] for v in p.A])
    assert q.A == tuple(perm[v] for v in p.A)
    for pair in lex_pairs(p.omega):
        assert sorted(perm[v] for v in bits(p.C[pair])) == sorted(bits(q.C[pair]))
        assert q.D[pair] == p.D[pair]


def test_cprime_drops_exactly_isolated(corpus):
    for g in corpus[:20]:
        p = partition_for(g)
        for pair, cell in p.C.items():
            iso = mask_of(v for v in bits(cell) if not g.adj[v] & cell)
            assert p.Cprime[pair] == cell & ~iso


def test_checks_pass_on_members(corpus):
    for g in corpus:
        p = partition_for(g)
        for name, rep in run_all_checks(g, p).items():
            if rep.applicable:
                assert rep.passed, (name, g.n, rep.failures())


def test_lemma_class_refuses_small_omega():
    p = build_partition(cycle_graph(5), (0, 1))
    rep = check_lemma_class(cycle_graph(5), p)
    assert not rep.applicable and "omega >= 3" in rep.reason
    assert not check_claim1(cycle_graph(5), p).applicable


def test_fact1_vacuous_on_k4():
    p = build_partition(complete_graph(4), (0, 1, 2, 3))
    assert check_fact1(complete_graph(4), p).passed


def test_fact1_reports_violation_outside_class():
    # C6 contains an induced P3 u P2; with A an edge the checker may fail,
    # but the report must stay well formed
    g = cycle_graph(6)
    p = partition_for(g)
    rep = check_fact1(g, p)
    assert rep.applicable
    for entry in rep.failures():
        assert entry.witness is not None


@pytest.mark.parametrize("edges,check,clause,cell,witness", [
    ([(0, 6), (0, 8), (1, 3), (1, 5), (2, 5), (2, 6), (3, 4), (3, 7), (3, 8), (4, 7),
      (4, 8), (5, 7), (6, 7), (6, 8)], check_fact1, "fact1.i", (1, 2), (1, 3, 4)),
    ([(0, 1), (0, 2), (0, 3), (0, 4), (0, 7), (0, 8), (1, 6), (1, 8), (2, 4), (2, 5),
      (2, 7), (3, 5), (3, 6), (3, 7), (5, 8)], check_lemma_gem, "lemma_gem.i", (2, 3),
     (3, 7, 2, 4)),
])
def test_cell_witness_is_host_labelled(edges, check, clause, cell, witness):
    g = build_graph(9, edges)
    [entry] = [e for e in check(g, partition_for(g)).entries
               if e.clause == clause and (e.bindings["i"], e.bindings["j"]) == cell]
    assert not entry.ok and entry.witness == witness


def test_lemma_gem_runs_on_gem_itself():
    from gemfree.patterns import NAMED_PATTERNS

    gem = NAMED_PATTERNS["gem"]
    p = partition_for(gem)
    rep = check_lemma_gem(gem, p)
    assert rep.applicable  # clauses may fail outside the precondition


def test_schlafli_passes_all_checks():
    g = schlafli_complement()
    assert is_class_member(g)[0]
    p = partition_for(g)
    reports = run_all_checks(g, p)
    assert all(r.passed for r in reports.values() if r.applicable)
    assert reports["lemma_class"].applicable


def test_partition_json_shape():
    p = build_partition(cycle_graph(5), (0, 1))
    d = p.to_json_dict()
    assert d["A"] == [0, 1]
    assert d["C"]["1,2"] == [3]
    assert d["I"]["1"] == [2]
    assert d["D"]["1,2"] == [1, 2]
