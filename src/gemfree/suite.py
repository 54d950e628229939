"""Acceptance suite: every headline claim as a pass/fail criterion.

Shared between the `gemfree suite` CLI command and the pytest acceptance
module; each criterion returns a structured result with the measured values.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from .coloring import ClassViolationError, _three_omega, color_two_omega, verify_proper
from .exact import chromatic_number, max_clique
from .generators import (
    ExpansionSpec,
    check_srg,
    class_corpus,
    complete_expansion,
    gnp,
    groetzsch_graph,
    mycielskian,
    schlafli_complement,
)
from .graphs import Graph, bits
from .partition import build_partition, run_all_checks
from .patterns import NAMED_PATTERNS, cycle_graph, find_induced


@dataclass
class CriterionResult:
    cid: int
    description: str
    passed: bool
    details: dict[str, Any] = field(default_factory=dict)
    runtime_s: float = 0.0
    skipped: bool = False

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "id": self.cid,
            "description": self.description,
            "passed": self.passed,
            "skipped": self.skipped,
            "runtime_s": round(self.runtime_s, 3),
            "details": self.details,
        }


def _timed(fn: Callable[[], CriterionResult]) -> CriterionResult:
    t0 = time.perf_counter()
    res = fn()
    res.runtime_s = time.perf_counter() - t0
    return res


def _witness_facts(g: Graph) -> dict[str, Any]:
    """omega, chi, membership, the color count of the certified 2*omega coloring
    and its `verified` flag. omega is the size of its clique A; a refused non-member has neither."""
    chi = chromatic_number(g).chi
    try:
        col, trace = color_two_omega(g)
    except ClassViolationError:
        return dict(omega=None, chi=chi, member=False, two_omega_colors=None, verified=False)
    return dict(omega=len(trace.A), chi=chi, member=True,
                two_omega_colors=col.distinct_colors, verified=trace.verified)


def criterion_1_groetzsch() -> CriterionResult:
    g = groetzsch_graph()
    facts = _witness_facts(g)
    passed = g.n == 11 and facts == {"omega": 2, "chi": 4, "member": True,
                                     "two_omega_colors": 4, "verified": True}
    return CriterionResult(1, "Groetzsch witness: n=11, omega=2, chi=4, member, 4-color cert",
                           passed, {"n": g.n, **facts})


def criterion_2_schlafli() -> CriterionResult:
    g = schlafli_complement()
    params = check_srg(g)
    facts = _witness_facts(g)
    passed = params == (27, 10, 1, 5) and facts == {"omega": 3, "chi": 6, "member": True,
                                                    "two_omega_colors": 6, "verified": True}
    return CriterionResult(2, "Schlafli complement: SRG(27,10,1,5), omega=3, chi=6, 6-color cert",
                           passed, {"srg": params, **facts})


def criterion_3_expansions() -> CriterionResult:
    rows = []
    ok = True
    for m in (1, 2, 3):
        g = complete_expansion(ExpansionSpec(cycle_graph(5), (m,) * 5))
        omega = max_clique(g).omega
        expected_chi = math.ceil(5 * 2 * m / 4)
        chi_short = chromatic_number(g).chi  # alpha = 2: the matching route
        chi_exact = _exhaustive_chi(g) if m <= 2 else None
        row_ok = omega == 2 * m and chi_short == expected_chi
        if chi_exact is not None:
            row_ok = row_ok and chi_exact == expected_chi
        rows.append({"m": m, "omega": omega, "expected_chi": expected_chi,
                     "chi_shortcut": chi_short, "chi_exact": chi_exact, "ok": row_ok})
        ok = ok and row_ok
    return CriterionResult(3, "K[C5](m): omega=2m, chi=ceil(5*2m/4) for m=1..3",
                           ok, {"rows": rows})


def _corpus(seed: int, size_budget: int) -> list[Graph]:
    """The corpus of criteria 4-6, empty for a budget of 0 or less."""
    return _sampled_corpus(seed, max(200, size_budget)) if size_budget > 0 else []


@functools.cache
def _sampled_corpus(seed: int, count: int) -> list[Graph]:
    """Sampled once per seed and count: criteria 4-6 share it."""
    return class_corpus(count=count, seed=seed)


def criterion_4_theorem_bound(seed: int, size_budget: int) -> CriterionResult:
    corpus = _corpus(seed, size_budget)
    if not corpus:
        return CriterionResult(4, "theorem bound on sampled corpus", True,
                               {"note": f"skipped: size budget {size_budget}"}, skipped=True)
    failures = []
    for i, g in enumerate(corpus):
        col, trace = color_two_omega(g)
        omega = len(trace.A)
        chi = chromatic_number(g).chi
        if not (trace.verified and col.num_colors <= 2 * omega and chi <= col.distinct_colors):
            failures.append({"index": i, "n": g.n, "omega": omega, "chi": chi,
                             "colors": col.num_colors})
    return CriterionResult(
        4, "color_two_omega verified, <= 2*omega colors, chi <= colors on >=200 members",
        not failures, {"corpus_size": len(corpus), "failures": failures})


def criterion_5_proposition_bound(seed: int, size_budget: int) -> CriterionResult:
    corpus = _corpus(seed, size_budget)
    if not corpus:
        return CriterionResult(5, "proposition bound on sampled corpus", True,
                               {"note": f"skipped: size budget {size_budget}"}, skipped=True)
    failures = []
    for i, g in enumerate(corpus):
        col, omega = _three_omega(g)  # raises internally if a piece is not P4-free
        ok, _ = verify_proper(g, col)
        if not (ok and col.num_colors <= max(3 * omega - 2, 1)):
            failures.append({"index": i, "n": g.n, "omega": omega, "colors": col.num_colors})
    return CriterionResult(
        5, "color_three_omega verified, <= 3*omega-2 colors, P4-free side conditions hold",
        not failures, {"corpus_size": len(corpus), "failures": failures})


def criterion_6_lemma_suite(seed: int, size_budget: int) -> CriterionResult:
    corpus = _corpus(seed, size_budget)
    corpus = corpus + [groetzsch_graph(), schlafli_complement()]
    failures = []
    applicable = 0
    for i, g in enumerate(corpus):
        p = build_partition(g)
        reports = run_all_checks(g, p)
        for name, rep in reports.items():
            if not rep.applicable:
                continue
            applicable += 1
            if not rep.passed:
                failures.append({"index": i, "n": g.n, "check": name,
                                 "failures": [f["clause"] for f in rep.failures]})
    return CriterionResult(
        6, "fact1/lemma_gem/lemma_class/claim1 pass on every member meeting preconditions",
        not failures, {"graphs": len(corpus), "applicable_reports": applicable,
                       "failures": failures})


def _pair_code(g: Graph, verts: tuple[int, ...]) -> int:
    """Bitmask over the pairs (a, b), a < b, of positions in `verts`, in
    lexicographic order: the bit of a pair is set iff its vertices are adjacent."""
    code = 0
    for bit, (a, b) in enumerate(itertools.combinations(verts, 2)):
        if g.has_edge(a, b):
            code |= 1 << bit
    return code


def _brute_force_contains(host: Graph, pattern_masks: set[int], k: int) -> bool:
    """Subset-enumeration oracle: does any k-subset induce the pattern?

    `pattern_masks` is the set of `_pair_code` encodings of every labeled
    graph on k vertices isomorphic to the pattern.
    """
    return any(_pair_code(host, subset) in pattern_masks
               for subset in itertools.combinations(range(host.n), k))


def _labeled_codes(pattern: Graph) -> set[int]:
    return {_pair_code(pattern, perm) for perm in itertools.permutations(range(pattern.n))}


ORACLE_PATTERNS = ("p3", "p4", "2k2", "p3up2", "gem", "diamond", "c4")


def criterion_7_pattern_oracle(seed: int, size_budget: int) -> CriterionResult:
    if size_budget <= 0:
        return CriterionResult(7, "pattern oracle equivalence", True,
                               {"note": f"skipped: size budget {size_budget}"}, skipped=True)
    count = 500
    rng = random.Random(f"oracle-{seed}")
    codes = {name: _labeled_codes(NAMED_PATTERNS[name]) for name in ORACLE_PATTERNS}
    mismatches = []
    for i in range(count):
        n = rng.randint(3, 9)
        g = gnp(n, rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)), rng)
        for name in ORACLE_PATTERNS:
            pat = NAMED_PATTERNS[name]
            fast = find_induced(g, name) is not None
            brute = _brute_force_contains(g, codes[name], pat.n)
            if fast != brute:
                mismatches.append({"i": i, "pattern": name, "n": n,
                                   "edges": g.edges(), "fast": fast, "brute": brute})
    return CriterionResult(
        7, "find_induced agrees with subset-enumeration oracle on >=500 graphs, n<=9",
        not mismatches, {"graphs": count, "mismatches": mismatches})


def _exhaustive_chi(g: Graph) -> int:
    """Independent brute-force chromatic number: plain backtracking in vertex
    order with first-use symmetry breaking, no heuristics."""
    for k in range(1, g.n + 1):
        colors = [0] * g.n

        def feasible(v: int, maxc: int) -> bool:
            if v == g.n:
                return True
            used = {colors[u] for u in bits(g.adj[v]) if u < v}
            for c in range(1, min(k, maxc + 1) + 1):
                if c not in used:
                    colors[v] = c
                    if feasible(v + 1, max(maxc, c)):
                        return True
            colors[v] = 0
            return False

        if feasible(0, 0):
            return k
    return 0


def criterion_8_exact_oracle(seed: int, size_budget: int) -> CriterionResult:
    if size_budget <= 0:
        return CriterionResult(8, "exact oracle self-check", True,
                               {"note": f"skipped: size budget {size_budget}"}, skipped=True)
    count = 300
    rng = random.Random(f"chi-{seed}")
    mismatches = []
    for i in range(count):
        n = rng.randint(1, 7)
        g = gnp(n, rng.choice((0.2, 0.4, 0.6, 0.8)), rng)
        fast = chromatic_number(g).chi
        brute = _exhaustive_chi(g)
        if fast != brute:
            mismatches.append({"i": i, "n": n, "edges": g.edges(), "fast": fast, "brute": brute})
    myc_fail = []
    for i in range(20):
        n = rng.randint(2, 8)
        g = gnp(n, rng.choice((0.3, 0.5, 0.7)), rng)
        if chromatic_number(mycielskian(g)).chi != chromatic_number(g).chi + 1:
            myc_fail.append({"i": i, "n": n, "edges": g.edges()})
    return CriterionResult(
        8, "chromatic_number matches exhaustive enumeration (n<=7) and chi(mu(G))=chi(G)+1",
        not mismatches and not myc_fail,
        {"graphs": count, "mismatches": mismatches, "mycielski_failures": myc_fail})


def run_suite(seed: int, size_budget: int) -> list[CriterionResult]:
    return [
        _timed(criterion_1_groetzsch),
        _timed(criterion_2_schlafli),
        _timed(criterion_3_expansions),
        _timed(lambda: criterion_4_theorem_bound(seed, size_budget)),
        _timed(lambda: criterion_5_proposition_bound(seed, size_budget)),
        _timed(lambda: criterion_6_lemma_suite(seed, size_budget)),
        _timed(lambda: criterion_7_pattern_oracle(seed, size_budget)),
        _timed(lambda: criterion_8_exact_oracle(seed, size_budget)),
    ]
