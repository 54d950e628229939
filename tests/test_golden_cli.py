"""Golden outputs of the reporting CLI commands, one input per proof case.

`golden_cli.json` holds, for each input below, the exit code, stdout and
stderr of `check`, `color` with each algorithm, `chi` and `partition` on the
input written as DIMACS. `runtime_s` and `input` (a temporary path) are
masked. Any change to a colouring, trace, witness or report field fails
here. After an intended output change, regenerate the file with
`PYTHONPATH=src python tests/test_golden_cli.py` and review its diff.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gemfree.cli import main
from gemfree.generators import (
    ExpansionSpec,
    class_corpus,
    complete_expansion,
    groetzsch_graph,
    schlafli_complement,
)
from gemfree.graph_io import serialize
from gemfree.graphs import build_graph
from gemfree.patterns import NAMED_PATTERNS, cycle_graph

from conftest import case21_graph

GOLDEN = Path(__file__).with_name("golden_cli.json")
# a non-member whose partition report fails both bound clauses (lemma_gem.iv,
# lemma_class.ii) and set clauses of lemma_gem, lemma_class and claim1
BOUND_FAILURES = ("0-1 0-3 0-4 0-5 0-8 0-9 1-2 1-3 1-4 1-8 1-9 2-3 2-5 2-7 2-8 3-5 3-7 3-8 3-9 "
                  "4-5 4-6 4-7 4-9 5-6 5-7 5-8 5-9 6-7 6-9 7-9")
COMMANDS = [
    ["check"],
    *(["color", "--algorithm", a] for a in ("two-omega", "three-omega", "greedy", "exact")),
    ["chi"],
    ["partition"],
]
INPUTS = {
    "groetzsch": groetzsch_graph,  # omega<=2
    "schlafli-complement": schlafli_complement,  # Case2.2
    "case21": case21_graph,  # Case2.1
    "K[C5](2)": lambda: complete_expansion(ExpansionSpec(cycle_graph(5), (2,) * 5)),  # alpha <= 2
    "corpus-5": lambda: class_corpus(count=6, seed=1)[5],  # Case1
    "corpus-7": lambda: class_corpus(count=8, seed=1)[7],  # Case2-simple
    "gem": lambda: NAMED_PATTERNS["gem"],  # non-member
    "bound-failures": lambda: build_graph(  # non-member
        10, [tuple(map(int, e.split("-"))) for e in BOUND_FAILURES.split()]),
}


def _runs(g, directory: Path) -> list[dict]:
    path = directory / "input.col"
    path.write_text(serialize(g, "dimacs"))
    runs = []
    for command in COMMANDS:
        argv = [command[0], str(path), *command[1:]]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        report = json.loads(out.getvalue())
        for key in ("runtime_s", "input"):
            if key in report:
                report[key] = None
        runs.append({"argv": command, "exit": code, "stdout": json.dumps(report),
                     "stderr": err.getvalue()})
    return runs


@pytest.mark.parametrize("name", INPUTS)
def test_cli_output_matches_golden(name, tmp_path):
    assert _runs(INPUTS[name](), tmp_path) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: _runs(make(), Path(tmp)) for name, make in INPUTS.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
