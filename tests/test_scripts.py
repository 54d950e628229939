"""The scripts under scripts/ run against the current package API."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_case_coverage_counts_every_graph():
    lines = _run("case_coverage.py", "--count", "20")
    counts = [line for line in lines if not line.startswith("never fired: ")]
    assert len(lines) - len(counts) <= 1
    assert all(re.fullmatch(r"\S+ +\d+", line) for line in counts), lines
    assert sum(int(line.split()[1]) for line in counts) == 20


def test_tightness_search_reports_its_best_gap():
    last = json.loads(_run("tightness_search.py", "--count", "5")[-1])
    assert last["sampled_omega_ge_4"] >= 1
    best = last["best"]
    assert set(best) == {"n", "omega", "chi", "gap_to_2omega"}
    assert best["gap_to_2omega"] == 2 * best["omega"] - best["chi"] >= 0
