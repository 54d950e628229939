#!/usr/bin/env python3
"""Report which proof cases the 2*omega construction hits across a corpus.

Useful when tuning the sampler: every branch (omega<=2, Case1, Case2-simple,
Case2.1, Case2.2) should fire somewhere, or the fuzzing has a blind spot.
"""

import argparse
from collections import Counter

from gemfree.coloring import color_two_omega
from gemfree.generators import class_corpus


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.count < 1:
        ap.error(f"--count {args.count} is below 1")

    counts: Counter[str] = Counter()
    for g in class_corpus(count=args.count, seed=args.seed):
        _, trace = color_two_omega(g)
        counts[trace.case] += 1
    for case, k in sorted(counts.items()):
        print(f"{case:14s} {k}")
    missing = {"omega<=2", "Case1", "Case2-simple", "Case2.1", "Case2.2"} - set(counts)
    if missing:
        print(f"never fired: {sorted(missing)} (see tests/test_colorer.py for "
              "hand-built instances)")


if __name__ == "__main__":
    main()
