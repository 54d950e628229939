#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 gembench/prove.py --seeds 1-10 [--workloads certify cli] [--trace]
                              [--record LABEL]

Every run measures for spec.RUN_SECONDS, the length the bounds are set for.
`--workloads` limits a tuning round to the workloads whose figures spread most.

The spread of a metric is the distance between the first and third quartile
of its per-seed values (statistics.quantiles, n=4) as a share of their median.
An end-to-end metric is steady when its spread is below a third of its bound.
`--record LABEL` appends the medians as one trajectory point, with the
environment they were measured in, to gembench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from gembench import spec  # noqa: E402  (needs ROOT on sys.path)

BASELINE = ROOT / "gembench" / "baseline.json"
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, "gembench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec.RUN_SECONDS), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", nargs="+", default=list(spec.WORKLOADS))
    ap.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    ap.add_argument("--record", metavar="LABEL", help="append the medians to baseline.json")
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds)
    bounds = {n: b for n, _, _, b in spec.END_TO_END}
    summary: dict[str, dict] = {}
    unsteady = []
    for w in args.workloads:
        runs = [run_once(w, s, args.trace) for s in seeds]
        failed = [(s, r["failed"]) for s, r in zip(seeds, runs) if not r["correct"]]
        names = list(runs[0]["metrics"])
        summary[w] = {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names}
        summary[w]["_run_wall_s"] = summarize([r["wall_s"] for r in runs])
        summary[w]["_failed"] = failed
        print(f"== {w}: {len(runs)} runs, longest {max(r['wall_s'] for r in runs):.1f} s,"
              f" failed runs {failed or 'none'}")
        for n in names:
            s = summary[w][n]
            unit = runs[0]["metrics"][n]["unit"]
            flag = ""
            if n in bounds and s["spread"] >= bounds[n] / 3:
                flag = f"  UNSTEADY (bound {bounds[n]})"
                unsteady.append((w, n))
            print(f"  {n:34s} median {s['median']:12.6g} {unit:6s} spread {s['spread']:7.3f}{flag}")
            print("      " + " ".join(f"{v:.4g}" for v in s["values"]))
        sys.stdout.flush()

    if args.record:
        doc = json.loads(BASELINE.read_text()) if BASELINE.exists() else {
            "default_seed": spec.DEFAULT_SEED, "held_out_seed": spec.HELD_OUT_SEED, "trajectory": []}
        doc["trajectory"].append({
            "label": args.record,
            "revision": git_revision(),
            "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                            "machine": platform.machine(), "system": platform.system()},
            "seeds": seeds,
            "seconds": spec.RUN_SECONDS,
            "traced": args.trace,
            "workloads": summary,
        })
        BASELINE.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"recorded {args.record!r} in {BASELINE}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
