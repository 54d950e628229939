#!/usr/bin/env python3
"""Search for tightness witnesses with omega >= 4.

Whether chi = 2*omega is attainable by a class member with omega >= 4 is an
open question; this script samples members, records the best chi/omega gap
seen, and prints any graph achieving chi > 2*omega - 2 (which would be news).
No result is promised; this is exploration, not an acceptance criterion.
"""

import argparse
import json

from gemfree.exact import chromatic_number, max_clique
from gemfree.generators import random_class_member, SamplingError
from gemfree.graph_io import to_json_graph


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--min-n", type=int, default=8)
    ap.add_argument("--max-n", type=int, default=16)
    args = ap.parse_args()
    if args.min_n > args.max_n:
        ap.error(f"empty size range: --min-n {args.min_n} > --max-n {args.max_n}")

    best = None
    seen = 0
    for i in range(args.count):
        n = args.min_n + i % (args.max_n - args.min_n + 1)
        try:
            g = random_class_member(n, args.seed + i, ("expand", "prune")[i % 2])
        except SamplingError:
            continue
        omega = max_clique(g).omega
        if omega < 4:
            continue
        seen += 1
        chi = chromatic_number(g).chi
        slack = 2 * omega - chi
        if best is None or slack < best[0]:
            best = (slack, omega, chi, g)
        if chi > 2 * omega - 2:
            print("candidate with chi close to 2*omega:")
            print(to_json_graph(g), end="")
    if best is None:
        print("no members with omega >= 4 sampled; increase --count or --max-n")
        return
    slack, omega, chi, g = best
    print(json.dumps({
        "sampled_omega_ge_4": seen,
        "best": {"n": g.n, "omega": omega, "chi": chi, "gap_to_2omega": slack},
    }))


if __name__ == "__main__":
    main()
