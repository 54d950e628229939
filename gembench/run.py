#!/usr/bin/env python3
"""Run one benchmark workload against the gemfree sources of this checkout.

    python3 gembench/run.py --workload certify --seed 0 --seconds 20 --trace 0

`--trace 0` times the ops untraced and prints the end-to-end metrics, op
times rescaled to a fixed reference CPU speed (see speed.py) and the plain
wall-time figures printed beside them;
`--trace 1` alternates untraced and traced passes over the same ops and prints
the per-layer metrics (the traced passes time every public function of the
layer modules, see tracer.py). Every op's output is checked against reference
answers built with the inputs. Metric lines come first; the last line of
stdout is one JSON object with keys correct, attempted, failed and metrics.
`--write-spec` rewrites BENCHMARK.json from spec.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from gembench import spec  # noqa: E402  (needs ROOT on sys.path)
from gembench.speed import SpeedLog, pin_to_one_cpu, timed  # noqa: E402
from gembench.tracer import Tracer, span_totals  # noqa: E402

MIN_OPS = 100  # so at least ten latency samples lie beyond the p90
SETUP_REPEATS = 7
NX_IMPORT_NOMINAL_S = 0.15  # about `import networkx` in a fresh interpreter on a 2-vCPU x86-64 VM
IMPORT_TIMEOUT_S = 60
OUT_DIR = ROOT / "gembench" / "out"


@dataclass
class Tally:
    """Outcome of a run of ops; latencies in seconds, one per attempted op."""

    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    colors_per_omega: list[float] = field(default_factory=list)
    proof_cases: Counter = field(default_factory=Counter)
    speed: SpeedLog | None = None  # reference samples, taken by run_untraced only


def run_op(op: Any, tally: Tally) -> None:
    t0 = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # a failed op is counted, the loop goes on
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    tally.latencies.append(time.perf_counter() - t0)
    tally.attempted += 1
    if error is None:
        error = op.check(result)
    if error is not None:
        tally.failed += 1
        if len(tally.errors) < 5:
            tally.errors.append(f"{op.kind} on {op.case.label} n={op.case.n}: {error}")
        return
    q = op.quality(result)
    if q is not None:
        tally.colors_per_omega.append(q.colors_per_omega)
        if q.proof_case is not None:
            tally.proof_cases[q.proof_case] += 1


def run_untraced(ops: list[Any], seconds: float, min_ops: int = MIN_OPS) -> Tally:
    """Closed loop over whole passes of `ops` until `min_ops` ran, ending at
    the pass boundary nearest to `seconds`.

    Whole passes only, so every run sends the same mix of inputs however fast
    the code under test is; only the number of passes changes. Reference
    samples for rescaling (speed.py) are taken between the ops.
    """
    tally = Tally(speed=SpeedLog())
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            run_op(op, tally)
            tally.speed.after(tally.attempted - 1, tally.latencies[-1])
        now = time.perf_counter()
        if tally.attempted >= min_ops and now + (now - pass_start) / 2 >= start + seconds:
            break
    tally.speed.sample(tally.attempted - 1)
    return tally


@dataclass
class TracedRun:
    plain: Tally  # untraced passes, the base of trace.overhead_ratio
    traced: Tally
    totals: dict[str, dict[str, float]]  # span name -> calls, s, self_s over all traced passes
    first_pass_spans: list[tuple]


def run_traced(ops: list[Any], seconds: float) -> TracedRun:
    """Alternate an untraced and a traced pass over all of `ops` while `seconds` allow.

    Whole passes only, so per-op counts repeat exactly for a given seed. One
    pair always runs; another starts only if it should end within `seconds`.
    """
    plain, traced = Tally(), Tally()
    totals: dict[str, dict[str, float]] = {}
    first: list[tuple] = []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for op in ops:
            run_op(op, plain)
        with tracer:
            for op in ops:
                tracer.op = traced.attempted
                run_op(op, traced)
        for name, t in span_totals(tracer.spans).items():
            acc = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += t[key]
        if not first:
            first = list(tracer.spans)
        tracer.spans.clear()
        now = time.perf_counter()
        if now + (now - pair_start) > start + seconds:
            break
    return TracedRun(plain, traced, totals, first)


def child_import_s(module: str) -> float:
    """Time a fresh interpreter takes to `import module`, timed inside it.

    Timed in the child, because a parent waiting with a timeout polls for its
    exit at up to 50 ms intervals and would round the time up to them.
    """
    code = f"import time; t0 = time.perf_counter(); import {module}; print(time.perf_counter() - t0)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S)
    return float(proc.stdout.strip().splitlines()[-1])


def setup_import_s(repeats: int) -> float:
    """`import gemfree` in a fresh interpreter, at a reference speed of fresh
    interpreters: the median ratio of its time to that of an `import networkx`
    (gemfree's one heavy dependency) in the next child, times NX_IMPORT_NOMINAL_S.

    The import does the same work every time, yet on shared machines a fresh
    process runs it up to 1.7x slower for minutes on end, and the in-process
    reference of speed.py does not slow down with it. Over ten batches of
    seven pairs of children, the coefficient of variation of the batch medians
    was 0.09 for the import time and 0.025 for this ratio.
    """
    ratios = [child_import_s("gemfree") / child_import_s("networkx") for _ in range(repeats)]
    return statistics.median(ratios) * NX_IMPORT_NOMINAL_S


def latency_metrics(tally: Tally, latencies: list[float]) -> dict[str, float]:
    # Throughput of the one closed-loop caller: verified ops per second spent
    # waiting on gemfree; the benchmark's own output checks are not counted.
    return {
        "ops_per_s": (tally.attempted - tally.failed) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
    }


def end_to_end_metrics(tally: Tally, setup_s: float, peak_rss_kb: int) -> dict[str, float]:
    """The end-to-end metrics, op times rescaled to the reference speed."""
    return {**latency_metrics(tally, tally.speed.rescale(tally.latencies)),
            "peak_rss_mb": peak_rss_kb / 1024, "setup_s": setup_s}


def per_layer_metrics(run: TracedRun, import_s: list[float]) -> dict[str, float]:
    ops = run.traced.attempted
    tot = run.totals

    def get(name: str, key: str) -> float:
        return tot.get(name, {}).get(key, 0) / ops

    m: dict[str, float] = {}
    for name in ("patterns.is_class_member", "patterns.find_induced", "exact.max_clique",
                 "partition.build_partition"):
        m[f"{name}.s"] = get(name, "s")
        m[f"{name}.calls"] = get(name, "calls")
    m["exact.clique_number.calls"] = get("exact.clique_number", "calls")
    for name in ("exact.chromatic_number", "exact.chi_alpha2_shortcut", "partition.run_all_checks",
                 "coloring.verify_proper", "coloring.color_cograph", "graph_io.read_graph"):
        m[f"{name}.s"] = get(name, "s")
    # the colorers' own code: their spans minus every span they called directly
    m["coloring.self_s"] = get("coloring.color_two_omega", "self_s") + get("coloring.color_three_omega", "self_s")
    # the cli module's own code: self time of all its spans (main, cmd_*, build_parser)
    m["cli.main.self_s"] = sum(t["self_s"] for name, t in tot.items() if name.startswith("cli.")) / ops
    for case, suffix in spec.PROOF_CASES.items():
        m[f"coloring.case.{suffix}"] = run.traced.proof_cases[case] / ops
    ratios = run.traced.colors_per_omega
    m["coloring.colors_per_omega"] = statistics.fmean(ratios) if ratios else 0.0
    m["cli.import_s"] = statistics.median(import_s)
    m["trace.op.s"] = statistics.fmean(run.traced.latencies)
    m["trace.overhead_ratio"] = m["trace.op.s"] / statistics.fmean(run.plain.latencies)
    return m


def report(metrics: dict[str, float], units: dict[str, str], tally: Tally,
           wall: dict[str, float] | None = None) -> None:
    """Metric lines (plus error_ratio, the wall-time figures and, for colouring
    ops, colors_per_omega), then the JSON line."""
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    for name, value in (wall or {}).items():
        print(f"{'wall ' + name:34s} {value:14.6g} {units[name]}  (not rescaled)")
    print(f"{'error_ratio':34s} {tally.failed / tally.attempted:14.6g} ratio"
          f"  ({tally.failed} of {tally.attempted} ops failed)")
    if tally.colors_per_omega:
        print(f"{'colors_per_omega':34s} {statistics.fmean(tally.colors_per_omega):14.6g} ratio")
    for err in tally.errors:
        print(f"  error: {err}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        print(f"wrote {spec.write_benchmark_json(ROOT)}")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    src = ROOT / "src"
    if not (src / "gemfree" / "__init__.py").is_file():
        print(f"error: no gemfree sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    pin_to_one_cpu()
    import gemfree

    if Path(gemfree.__file__).resolve().parent != (src / "gemfree").resolve():
        print(f"error: imported gemfree from {gemfree.__file__}, not {src}", file=sys.stderr)
        return 2
    from gembench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            ops = wl.ops(wl.cases(args.seed), workdir)
            run = run_traced(ops, args.seconds)
            imports = [child_import_s("gemfree") for _ in range(SETUP_REPEATS)]
            metrics = per_layer_metrics(run, imports)
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({
                "fields": ["op", "id", "parent", "name", "start", "end"],
                "spans": run.first_pass_spans}))
            units = {n: u for n, u, _ in spec.PER_LAYER}
            report(metrics, units, Tally(attempted=run.plain.attempted + run.traced.attempted,
                                         failed=run.plain.failed + run.traced.failed,
                                         errors=run.plain.errors + run.traced.errors))
            return 0

        built = []
        gen_s = timed(lambda: built.append(wl.ops(wl.cases(args.seed), workdir)), SETUP_REPEATS)
        tally = run_untraced(built[-1], args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_s = setup_import_s(SETUP_REPEATS) + statistics.median(gen_s)
        metrics = end_to_end_metrics(tally, setup_s, peak_kb)
        units = {n: u for n, u, _, _ in spec.END_TO_END}
        report(metrics, units, tally, latency_metrics(tally, tally.latencies))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
