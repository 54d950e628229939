"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Budgets are asserted as stated; all tolerances are exact (these are
combinatorial identities, not numerics).
"""

from gemfree.suite import (
    criterion_1_groetzsch,
    criterion_2_schlafli,
    criterion_3_expansions,
    criterion_4_theorem_bound,
    criterion_5_proposition_bound,
    criterion_6_lemma_suite,
    criterion_7_pattern_oracle,
    criterion_8_exact_oracle,
    _timed,
)

SEED = 0
BUDGET = 200


def _check(result, max_seconds):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.cid}: {result.description} "
          f"({result.runtime_s:.2f}s)")
    assert result.passed, result.details
    assert result.runtime_s < max_seconds, (
        f"criterion {result.cid} exceeded {max_seconds}s budget")


def test_criterion_1_groetzsch_witness():
    _check(_timed(criterion_1_groetzsch), 1.0)


def test_criterion_2_schlafli_witness():
    # 5 min budget for the exact chi search dominates
    _check(_timed(criterion_2_schlafli), 300.0)


def test_criterion_3_lower_bound_family():
    _check(_timed(criterion_3_expansions), 30.0)


def test_criterion_4_theorem_bound_sampled():
    res = _timed(lambda: criterion_4_theorem_bound(SEED, BUDGET))
    _check(res, 120.0)
    assert res.details["corpus_size"] >= 200


def test_criterion_5_proposition_bound_sampled():
    _check(_timed(lambda: criterion_5_proposition_bound(SEED, BUDGET)), 120.0)


def test_criterion_6_lemma_suite():
    res = _timed(lambda: criterion_6_lemma_suite(SEED, BUDGET))
    _check(res, 120.0)
    # a failure here would contradict a proved statement: release blocking
    assert not res.details["failures"]


def test_criterion_7_pattern_oracle_equivalence():
    res = _timed(lambda: criterion_7_pattern_oracle(SEED, BUDGET))
    _check(res, 120.0)
    assert res.details["graphs"] >= 500


def test_criterion_8_exact_oracle_self_check():
    res = _timed(lambda: criterion_8_exact_oracle(SEED, BUDGET))
    _check(res, 120.0)
    assert res.details["graphs"] >= 300
