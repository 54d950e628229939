"""Tests of the benchmark's own helpers: inputs, checker, tracer and runner.

Run from the repository root: python3 -m pytest gembench/tests
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

import gemfree.coloring
import gemfree.patterns
from gembench import checker, inputs, spec, speed
from gembench.run import end_to_end_metrics, per_layer_metrics, run_traced, run_untraced
from gembench.tracer import Tracer, span_totals
from gembench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
PATTERNS = {name: inputs.to_nx(5, edges) for name, edges in inputs.FORBIDDEN.items()}


def contains_induced(case, pattern_name):
    # GraphMatcher.subgraph_is_isomorphic tests for an induced subgraph
    return GraphMatcher(inputs.to_nx(case.n, case.edges), PATTERNS[pattern_name]).subgraph_is_isomorphic()


@pytest.mark.parametrize("family", inputs.HOSTS)
def test_small_members_are_free_of_both_patterns(family):
    rng = random.Random(family)
    for n in (6, 9, 11):
        case = inputs.member(family, n, rng)
        assert case.member
        assert not contains_induced(case, "gem") and not contains_induced(case, "p3up2")
        assert case.omega == inputs.omega_ref(case.n, case.edges)


@pytest.mark.parametrize("pattern", sorted(inputs.FORBIDDEN))
def test_planted_embedding_is_induced(pattern):
    rng = random.Random(pattern)
    for family in ("c5x", "c4x", "schlafli"):
        case = inputs.non_member(family, 12, pattern, rng)
        name, emb = case.planted
        assert name == pattern and not case.member
        assert checker.forbidden_witness(case, name, emb) is None
        sub = inputs.to_nx(case.n, case.edges).subgraph(emb)
        assert nx.is_isomorphic(sub, PATTERNS[pattern])
        assert contains_induced(case, pattern)


def test_gem_only_non_member_has_a_gem_and_no_p3up2():
    rng = random.Random(2)
    for n in (8, 13, 18):
        case = inputs.gem_without_p3up2(n, rng)
        assert checker.forbidden_witness(case, *case.planted) is None
        assert not case.member and not contains_induced(case, "p3up2")


def test_witness_graphs_match_published_values():
    n, edges = inputs.schlafli_complement()
    g = inputs.to_nx(n, edges)
    assert nx.is_strongly_regular(g) and nx.intersection_array(g) == ([10, 8], [1, 5])
    assert inputs.omega_ref(n, edges) == inputs.SCHLAFLI_COMPLEMENT_OMEGA
    n, edges = inputs.groetzsch()
    assert (n, len(edges), inputs.omega_ref(n, edges)) == (11, 20, 2)
    n, edges = inputs.mycielskian(n, edges)
    assert (n, inputs.omega_ref(n, edges)) == (23, 2)


def test_expansion_chi_and_omega_agree_with_closed_forms():
    rng = random.Random(3)
    for n in (7, 10, 13, 18):
        case = inputs.c5_expansion(n, rng)
        assert case.omega == inputs.omega_ref(case.n, case.edges)
        # alpha <= 2 for C5 expansions, so chi = max(omega, ceil(n / 2))
        assert case.chi == max(case.omega, math.ceil(n / 2))
        co = nx.complement(inputs.to_nx(n, case.edges))
        assert inputs.omega_ref(n, tuple(co.edges())) <= 2


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(workload):
    make = WORKLOADS[workload].cases
    assert [c.edges for c in make(5)] == [c.edges for c in make(5)]
    assert [c.edges for c in make(5)] != [c.edges for c in make(6)]


def _c5():
    return inputs.Case("c5", 5, inputs.C5_EDGES, None, True, omega=2, chi=3)


def test_checker_flags_an_improper_or_oversized_coloring():
    case = _c5()
    assert checker.coloring(case, [1, 2, 1, 2, 3], 4) is None
    assert "monochromatic" in checker.coloring(case, [1, 1, 2, 1, 2], 4)
    assert "exceed" in checker.coloring(case, [1, 2, 3, 4, 5], 4)
    assert checker.coloring(case, [1, 2, 3], 4) is not None
    assert checker.coloring(case, None, 4).startswith("unreadable output")


def test_checker_flags_a_wrong_chi():
    case = _c5()
    assert checker.chi(case, 3, [1, 2, 1, 2, 3]) is None
    assert "expected 3" in checker.chi(case, 2, [1, 2, 1, 2, 1])
    assert "monochromatic" in checker.chi(case, 3, [1, 2, 1, 2, 1])


def test_checker_flags_a_bogus_witness():
    rng = random.Random(0)
    case = inputs.non_member("c5x", 12, "gem", rng)
    name, emb = case.planted
    assert checker.membership(case, False, (name, emb)) is None
    assert checker.membership(case, False, ("p3up2", emb)) is not None
    assert checker.membership(case, False, (name, emb[1:] + emb[:1])) is not None
    assert checker.membership(case, False, (name, emb[:4])) is not None
    assert checker.membership(case, False, None) is not None
    assert checker.membership(case, True, None) is not None


def test_checker_reads_cli_reports():
    case = _c5()
    good = json.dumps({"chi": 3, "colors": {str(v): c for v, c in enumerate([1, 2, 1, 2, 3])}})
    assert checker.cli(case, "chi", 0, good) is None
    assert "exit code" in checker.cli(case, "chi", 2, good)
    assert checker.cli(case, "chi", 0, "Traceback ...").startswith("unreadable output")


def test_a_malformed_result_is_a_failed_op_not_a_crash():
    wl = WORKLOADS["certify"]
    ops = wl.ops(wl.cases(0)[:1], None)
    assert ops[0].kind == "two-omega" and ops[0].check(None).startswith("unreadable output")


def test_traced_and_untraced_runs_report_the_same_op_count():
    wl = WORKLOADS["exact"]
    ops = wl.ops(wl.cases(0), None)
    plain = run_untraced(ops, seconds=0, min_ops=len(ops))
    run = run_traced(ops, seconds=0)
    assert plain.attempted == run.traced.attempted == run.plain.attempted == len(ops)
    assert plain.failed == run.traced.failed == 0
    # the exact workload never asks for membership
    assert "patterns.is_class_member" not in run.totals
    assert run.totals["exact.chromatic_number"]["calls"] == sum(o.kind == "chromatic_number" for o in ops)
    # every metric BENCHMARK.json lists is reported, and nothing else
    assert list(end_to_end_metrics(plain, 0.5, 40000)) == [m[0] for m in spec.END_TO_END]
    assert sorted(per_layer_metrics(run, [0.3])) == sorted(m[0] for m in spec.PER_LAYER)


def test_untraced_run_ends_on_a_pass_boundary():
    wl = WORKLOADS["exact"]
    ops = wl.ops(wl.cases(0), None)
    tally = run_untraced(ops, seconds=0, min_ops=len(ops) + 1)
    assert tally.attempted == 2 * len(ops)
    assert tally.speed.ref_s and tally.speed.after_op[-1] == tally.attempted - 1


def test_rescale_divides_by_the_nearby_reference_time():
    log = speed.SpeedLog()
    log.after_op = list(range(20))
    log.ref_s = [speed.REF_NOMINAL_S] * 10 + [2 * speed.REF_NOMINAL_S] * 10
    scaled = log.rescale([1.0] * 25)
    assert scaled[:5] == [1.0] * 5
    assert scaled[15:] == [0.5] * 10  # ops after the last sample take its neighbourhood


def test_tracer_sees_calls_across_namespaces_and_restores_them():
    original = gemfree.coloring.is_class_member
    case = inputs.member("c5x", 8, random.Random(1))
    with Tracer() as tracer:
        tracer.op = 0
        gemfree.coloring.color_two_omega(case.graph)
    assert gemfree.coloring.is_class_member is original
    assert gemfree.patterns.is_class_member is original
    totals = span_totals(tracer.spans)
    assert totals["patterns.is_class_member"]["calls"] == 1
    assert totals["exact.max_clique"]["calls"] == 1
    assert totals["partition.build_partition"]["calls"] == 1
    parents = {s[1]: s[2] for s in tracer.spans}
    names = {s[1]: s[3] for s in tracer.spans}
    top = [sid for sid, p in parents.items() if p == -1]
    assert [names[sid] for sid in top] == ["coloring.color_two_omega"]


def test_self_time_subtracts_direct_children_only():
    spans = [(0, 0, -1, "a", 0.0, 10.0), (0, 1, 0, "b", 1.0, 4.0), (0, 2, 1, "c", 2.0, 3.0),
             (0, 3, 0, "a", 5.0, 6.0)]
    t = span_totals(spans)
    assert t["a"] == {"calls": 2, "s": 10.0, "self_s": 10.0 - 3.0 - 1.0 + 1.0}
    assert t["b"]["self_s"] == 2.0 and t["c"]["s"] == 1.0


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(ROOT / "gembench", tmp_path / "gembench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "gembench/run.py", "--workload", "exact", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
