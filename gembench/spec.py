"""What the benchmark measures; `python3 gembench/run.py --write-spec` renders BENCHMARK.json."""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "gembench/run.py"]
PATHS = ["gembench"]
RUN_SECONDS = 20
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919  # never used while tuning; a performance claim must also hold here

WORKLOADS = {
    "certify": "color_two_omega and color_three_omega on class members, n 9..27; "
               "membership dominates, exact/partition/coloring take measurable shares",
    "screen": "is_class_member on 60% members, 40% planted gem / P3uP2 non-members (some "
              "gem-only), n 18..26; exercises the witness path a kernel could slow",
    "exact": "chromatic_number, max_clique and chi_alpha2_shortcut on graphs of known chi; "
             "never calls membership, so a membership change must not move it",
    "cli": "gemfree check/color/chi/partition through cli.main, in process, on n <= 15 DIMACS, "
           "edge-list and JSON files; the only workload through cli and graph_io",
}

# name, unit, better, bound (share of the parent's median a change may lose).
# Times are rescaled to a reference machine speed (speed.py): the speed of the
# shared 2-vCPU machines this was tuned on moves by up to 2x within seconds.
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# name, unit, better. Times and counts are per op of the traced passes.
PER_LAYER = [
    ("patterns.is_class_member.s", "s/op", "lower"),
    ("patterns.is_class_member.calls", "1/op", "lower"),
    ("patterns.find_induced.s", "s/op", "lower"),
    ("patterns.find_induced.calls", "1/op", "lower"),
    ("exact.clique_number.calls", "1/op", "lower"),
    ("exact.max_clique.s", "s/op", "lower"),
    ("exact.max_clique.calls", "1/op", "lower"),
    ("exact.chromatic_number.s", "s/op", "lower"),
    ("exact.chi_alpha2_shortcut.s", "s/op", "lower"),
    ("partition.build_partition.s", "s/op", "lower"),
    ("partition.build_partition.calls", "1/op", "lower"),
    ("partition.run_all_checks.s", "s/op", "lower"),
    ("coloring.self_s", "s/op", "lower"),
    ("coloring.verify_proper.s", "s/op", "lower"),
    ("coloring.color_cograph.s", "s/op", "lower"),
    ("coloring.case.omega_le_2", "1/op", "higher"),
    ("coloring.case.Case1", "1/op", "higher"),
    ("coloring.case.Case2-simple", "1/op", "higher"),
    ("coloring.case.Case2.1", "1/op", "higher"),
    ("coloring.case.Case2.2", "1/op", "higher"),
    ("coloring.colors_per_omega", "ratio", "lower"),
    ("cli.import_s", "s", "lower"),
    ("graph_io.read_graph.s", "s/op", "lower"),
    ("cli.main.self_s", "s/op", "lower"),
    ("trace.op.s", "s/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# ColoringTrace.case value -> metric suffix (metric names allow no '<' or '=')
PROOF_CASES = {"omega<=2": "omega_le_2", "Case1": "Case1", "Case2-simple": "Case2-simple",
               "Case2.1": "Case2.1", "Case2.2": "Case2.2"}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
