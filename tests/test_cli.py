import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gemfree
from gemfree import cli, coloring, exact, suite
from gemfree.cli import build_parser, main
from gemfree.coloring import color_three_omega, color_two_omega
from gemfree.exact import chromatic_number, max_clique
from gemfree.graph_io import FORMATS, read_graph, serialize
from gemfree.generators import (
    ExpansionSpec,
    complete_expansion,
    groetzsch_graph,
    random_class_member,
    schlafli_complement,
)
from gemfree.partition import build_partition
from gemfree.patterns import NAMED_PATTERNS, cycle_graph, is_class_member
from gemfree.suite import CriterionResult

from conftest import count_calls, small_graphs, token_texts


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, g in [
        ("groetzsch", groetzsch_graph()),
        ("gem", NAMED_PATTERNS["gem"]),
        ("c5", cycle_graph(5)),
    ]:
        p = tmp_path / f"{name}.col"
        p.write_text(serialize(g, "dimacs"))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_member(files, capsys):
    code, out = run(capsys, "check", files["groetzsch"], "--class", "p3up2,gem")
    rep = json.loads(out)
    assert code == 0 and rep["member"] is True
    assert "input_sha256" in rep and rep["version"]


def test_check_non_member_witness(files, capsys):
    code, out = run(capsys, "check", files["gem"])
    rep = json.loads(out)
    assert code == 1
    assert rep["witness"]["pattern"] == "gem"
    assert len(rep["witness"]["embedding"]) == 5


def test_check_searches_other_patterns(files, capsys):
    # a pattern other than the gem and P3 u P2 is searched in the host itself
    code, out = run(capsys, "check", files["groetzsch"], "--class", "2k2")
    assert code == 1
    assert json.loads(out)["witness"] == {"pattern": "2k2", "embedding": [0, 1, 8, 10]}


def test_check_class_names_are_case_insensitive(files, capsys):
    _, default = run(capsys, "check", files["gem"])
    code, out = run(capsys, "check", files["gem"], "--class", "GEM,P3UP2")
    assert code == 1 and json.loads(out)["witness"] == json.loads(default)["witness"]
    # the report names the class by catalogue key, whatever the spelling
    assert run(capsys, "check", files["gem"], "--class", "gem,p3up2") == (code, out)
    assert json.loads(out)["forbidden"] == ["gem", "p3up2"]


def test_check_refuses_an_empty_class(files, capsys):
    assert main(["check", files["c5"], "--class", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown pattern name ''\n"


def test_check_missing_file(capsys):
    code = main(["check", "/nonexistent/missing.col"])
    assert code == 2


def test_check_truncated_dimacs_edge_is_input_error(tmp_path, capsys):
    p = tmp_path / "truncated.col"
    p.write_text("p edge 3 1\ne 1\n")
    assert main(["check", str(p)]) == 2


def test_color_two_omega(files, capsys):
    code, out = run(capsys, "color", files["groetzsch"], "--algorithm", "two-omega")
    rep = json.loads(out)
    assert code == 0 and rep["verified"] is True
    assert rep["num_colors"] == 4 and rep["bound"] == 4
    assert rep["trace"]["case"] == "omega<=2"


@pytest.mark.parametrize("algorithm", ["two-omega", "three-omega", "greedy", "exact"])
def test_color_the_empty_graph(algorithm, tmp_path, capsys):
    # check calls it a member and chi colours it with 0 colours: so does color
    path = tmp_path / "empty.col"
    path.write_text("p edge 0 0\n")
    code, out = run(capsys, "color", str(path), "--algorithm", algorithm)
    rep = json.loads(out)
    assert code == 0 and rep["verified"] is True
    assert (rep["omega"], rep["num_colors"], rep["colors"]) == (0, 0, {})
    assert rep["bound"] == {"two-omega": 0, "three-omega": 1}.get(algorithm)
    if algorithm == "two-omega":
        assert (rep["trace"]["A"], rep["trace"]["case"]) == ([], "omega<=2")


def test_color_finds_omega_once(files, capsys, monkeypatch):
    calls = count_calls(monkeypatch, max_clique)
    code, out = run(capsys, "color", files["groetzsch"])
    assert code == 0 and json.loads(out)["omega"] == 2
    assert len(calls) == 1


@pytest.mark.parametrize("algorithm", ["two-omega", "three-omega"])
def test_color_algorithm_finds_omega_once(files, capsys, monkeypatch, algorithm):
    calls = count_calls(monkeypatch, max_clique)
    code, out = run(capsys, "color", files["groetzsch"], "--algorithm", algorithm)
    assert code == 0 and json.loads(out)["omega"] == 2
    assert len(calls) == 1


@pytest.mark.parametrize("colorer", [color_two_omega, color_three_omega],
                         ids=lambda f: f.__name__)
def test_each_colorer_call_builds_one_partition(colorer, corpus, monkeypatch):
    """The traced layers: one `build_partition` and one `max_clique` per call."""
    builds = count_calls(monkeypatch, build_partition)
    cliques = count_calls(monkeypatch, max_clique)
    for g in [groetzsch_graph(), schlafli_complement(), *corpus]:
        builds.clear()
        cliques.clear()
        colorer(g)
        assert (len(builds), len(cliques)) == (1, 1), g.name


@pytest.mark.parametrize("name", ["groetzsch", "c5"])
def test_each_partition_run_builds_one_partition(name, files, capsys, monkeypatch):
    builds = count_calls(monkeypatch, build_partition)
    code, _ = run(capsys, "partition", files[name])
    assert code == 0 and len(builds) == 1


def test_color_exact_c5(files, capsys):
    code, out = run(capsys, "color", files["c5"], "--algorithm", "exact")
    rep = json.loads(out)
    assert code == 0 and rep["num_colors"] == 3


def test_color_rejects_non_member(files, capsys):
    code, out = run(capsys, "color", files["gem"], "--algorithm", "two-omega")
    rep = json.loads(out)
    assert code == 1 and rep["error"] == "class-violation"


def test_alpha2_input_skips_dsatur(files, tmp_path, capsys, monkeypatch):
    # an induced subgraph of K[C5](5): n = 23, omega = 10, alpha = 2, chi = ceil(23 / 2)
    g = complete_expansion(ExpansionSpec(cycle_graph(5), (5, 5, 5, 4, 4)))
    path = tmp_path / "c5x.col"
    path.write_text(serialize(g, "dimacs"))

    def refuse(*args):
        raise AssertionError("DSATUR search ran on an alpha <= 2 input")

    monkeypatch.setattr(exact, "_k_colorable", refuse)
    assert max_clique(g).omega == 10 and chromatic_number(g).chi == 12
    # above --max-n too, the input takes the matching route and never reaches DSATUR
    for guard in ((), ("--max-n", "10")):
        code, out = run(capsys, "chi", str(path), *guard)
        assert code == 0 and json.loads(out)["chi"] == 12
        code, out = run(capsys, "color", str(path), "--algorithm", "exact", *guard)
        rep = json.loads(out)
        assert code == 0 and rep["num_colors"] == 12 and rep["verified"] is True
    # the guard still refuses an alpha > 2 input above it, before any search
    code, out = run(capsys, "chi", files["groetzsch"], "--max-n", "10")
    assert code == 2


def test_chi_guardrail_flag(files, capsys):
    # Groetzsch has alpha = 5 > 2 and n = 11: refused above --max-n 10, solved without it
    assert main(["chi", files["groetzsch"], "--max-n", "10"]) == 2
    assert capsys.readouterr().err == "error: n=11 exceeds exact-chi guardrail 10\n"
    code, out = run(capsys, "chi", files["groetzsch"])
    assert code == 0 and json.loads(out)["chi"] == 4
    # C5 has alpha = 2: above --max-n 3 it keeps the chi it has without the flag
    for guard in ((), ("--max-n", "3")):
        code, out = run(capsys, "chi", files["c5"], *guard)
        assert code == 0 and json.loads(out)["chi"] == 3


def test_partition_command(files, capsys):
    code, out = run(capsys, "partition", files["groetzsch"])
    rep = json.loads(out)
    assert code == 0
    assert rep["omega"] == 2
    assert rep["checks"]["fact1"]["passed"] is True


def test_gen_named_to_file(tmp_path, capsys):
    out_path = tmp_path / "g.col"
    code = main(["gen", "schlafli-complement", "--format", "dimacs", "--out", str(out_path)])
    assert code == 0
    assert "p edge 27 135" in out_path.read_text()


def test_gen_expansion_with_bag_map(tmp_path, capsys):
    out_path = tmp_path / "exp.json"
    code = main(["gen", "expansion", "--base", "c5", "--sizes", "2,2,2,2,2",
                 "--out", str(out_path)])
    assert code == 0
    meta = json.loads((tmp_path / "exp.json.meta.json").read_text())
    assert meta["bags"][0] == [0, 1]
    g = json.loads(out_path.read_text())
    assert g["n"] == 10


def test_gen_random_deterministic(tmp_path, capsys):
    code1, out1 = run(capsys, "gen", "random", "--n", "8", "--seed", "5")
    code2, out2 = run(capsys, "gen", "random", "--n", "8", "--seed", "5")
    assert code1 == code2 == 0 and out1 == out2
    assert json.loads(out1)["n"] == 8  # the graph alone: one JSON object
    out_path = tmp_path / "r.json"
    code, summary = run(capsys, "gen", "random", "--n", "8", "--seed", "5", "--out", str(out_path))
    assert code == 0 and out_path.read_text() == out1
    assert json.loads(summary)["seed"] == 5


GEN_CASES = {  # gen argv: the graph it must print
    "named": (["groetzsch"], groetzsch_graph),
    "expansion": (["expansion", "--base", "c4", "--sizes", "2,1,3,1"],
                  lambda: complete_expansion(ExpansionSpec(cycle_graph(4), (2, 1, 3, 1)))),
    "random": (["random", "--n", "9", "--seed", "2", "--strategy", "expand"],
               lambda: random_class_member(9, 2, "expand")),
}


@pytest.mark.parametrize("fmt,suffix", [("dimacs", ".col"), ("edgelist", ".txt"),
                                        ("json", ".json")])
@pytest.mark.parametrize("case", GEN_CASES)
def test_gen_stdout_reads_back(case, fmt, suffix, tmp_path, capsys):
    argv, make = GEN_CASES[case]
    code, out = run(capsys, "gen", *argv, "--format", fmt)
    assert code == 0
    path = tmp_path / f"g{suffix}"
    path.write_text(out)
    g, want = read_graph(path)[0], make()
    assert (g.n, g.adj) == (want.n, want.adj)


@pytest.mark.parametrize("name,option,value", [
    ("c5", "n", "30"),
    ("groetzsch", "strategy", "prune"),
    ("random", "sizes", "2,2"),
    ("expansion", "seed", "3"),
])
def test_gen_refuses_foreign_options(name, option, value, capsys):
    assert main(["gen", name, f"--{option}", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: gen {name} does not take --{option}\n"


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    """Every `gemfree` line of README's CLI block, in order, in one directory."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines() if line.startswith("gemfree ")]
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_gen_cycle_needs_three_vertices(n, capsys):
    code = main(["gen", f"c{n}"])
    captured = capsys.readouterr()
    if n < 3:
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: cycle C{n} needs at least 3 vertices\n"
    else:
        assert code == 0 and json.loads(captured.out)["edges"] == [[0, 1], [0, 2], [1, 2]]


@pytest.mark.parametrize("sizes", ["1,,1,1,1", "1,x,1,1,1"])
def test_gen_expansion_bad_sizes_names_the_option(sizes, capsys):
    assert main(["gen", "expansion", "--sizes", sizes]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --sizes must be comma-separated integers: {sizes!r}\n"


@pytest.mark.parametrize("strategy", ["reject", "expand", "prune"])
def test_gen_random_rejects_empty_graph(strategy, capsys):
    assert main(["gen", "random", "--n", "0", "--strategy", strategy]) == 2


@pytest.mark.parametrize("name,code", [("groetzsch", 0), ("gem", 1)])
def test_check_human_prints_one_line_per_key(files, capsys, name, code):
    code_json, out = run(capsys, "check", files[name])
    assert code_json == code
    human_code, human = run(capsys, "check", files[name], "--human")
    assert human_code == code
    assert human.splitlines() == [f"{k}: {v}" for k, v in json.loads(out).items()]


def test_suite_human_size_budget_zero(capsys):
    code, out = run(capsys, "suite", "--human", "--size-budget", "0")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "all passed"
    statuses = [re.match(r"\[(\w+)\] criterion (\d+): ", line).groups() for line in lines[:-1]]
    assert statuses == [("SKIP" if cid in "4578" else "PASS", cid) for cid in "12345678"]


def test_suite_size_budget_zero(capsys):
    code, out = run(capsys, "suite", "--size-budget", "0")
    rep = json.loads(out)
    assert code == 0
    skipped = {c["id"] for c in rep["criteria"] if c["skipped"]}
    assert skipped == {4, 5, 7, 8}
    fixed = {c["id"] for c in rep["criteria"] if not c["skipped"]}
    assert {1, 2, 3, 6} <= fixed


def test_suite_skip_note_names_the_budget_given(capsys):
    code, out = run(capsys, "suite", "--size-budget", "-1")
    rep = json.loads(out)
    assert code == 0
    notes = {c["id"]: c["details"]["note"] for c in rep["criteria"] if c["skipped"]}
    assert notes == dict.fromkeys((4, 5, 7, 8), "skipped: size budget -1")


@pytest.mark.parametrize("criterion", [suite.criterion_1_groetzsch, suite.criterion_2_schlafli],
                         ids=["groetzsch", "schlafli"])
def test_witness_criteria_test_membership_once(monkeypatch, criterion):
    # the 2*omega colourer tests membership; the criterion does not ask again
    calls = count_calls(monkeypatch, is_class_member)
    assert criterion().passed
    assert len(calls) == 1


def test_witness_facts_of_a_non_member(monkeypatch):
    gem = NAMED_PATTERNS["gem"]
    assert suite._witness_facts(gem) == {"omega": None, "chi": 3, "member": False,
                                         "two_omega_colors": None, "verified": False}
    # the criterion fails with its facts instead of raising out of the suite
    monkeypatch.setattr(suite, "groetzsch_graph", lambda: gem)
    res = suite.criterion_1_groetzsch()
    assert not res.passed and res.details["member"] is False


def test_proposition_criterion_finds_omega_once_per_graph(monkeypatch):
    calls = count_calls(monkeypatch, max_clique)
    res = suite.criterion_5_proposition_bound(0, 200)
    assert res.passed and res.details["corpus_size"] >= 200
    assert len(calls) == res.details["corpus_size"]


@st.composite
def graph_texts(draw):
    """A small graph in any format, sometimes cut short."""
    text = serialize(draw(small_graphs(max_n=7)), draw(st.sampled_from(FORMATS)))
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=80, deadline=None)
@given(text=st.one_of(st.text(max_size=40), token_texts(), graph_texts()),
       suffix=st.sampled_from([".col", ".txt", ".json"]))
def test_cli_on_any_file_exits_with_a_code(text, suffix, tmp_path_factory):
    # arbitrary input ends with one of the documented exit codes, never a traceback
    path = tmp_path_factory.mktemp("any") / f"input{suffix}"
    path.write_text(text, encoding="utf-8")
    for command in ("check", "color", "partition", "chi"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(path)])
        assert code in (0, 1, 2, 3), (command, text)


RUNTIME = re.compile(r'"runtime_s": [0-9.e-]+')


def _call(run, argv):
    """Exit code, stdout and stderr of `run(argv)`, with report run times masked.

    A `SystemExit` (argparse usage error, `--help`, `--version`) gives the code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, RUNTIME.sub('"runtime_s": 0', out.getvalue()), err.getvalue()


REUSE_CASES = [  # argv ({name} is a file of the `files` fixture), exit code
    (["check", "{c5}"], 0),
    (["check", "{gem}"], 1),
    *((["color", "{groetzsch}", "--algorithm", a], 0)
      for a in ("two-omega", "three-omega", "greedy", "exact")),
    (["chi", "{c5}"], 0),
    (["partition", "{groetzsch}"], 0),
    (["gen", "random", "--n", "8", "--seed", "3"], 0),
    (["color", "{c5}", "--algorithm", "bogus"], 2),
    (["--version"], 0),
]


@pytest.mark.parametrize("argv,want", REUSE_CASES,
                         ids=["-".join(a.strip("{}-") for a in argv) for argv, _ in REUSE_CASES])
def test_cached_parser_repeats_the_first_call(argv, want, files, monkeypatch):
    argv = [a.format(**files) for a in argv]
    cli._parser.cache_clear()
    first = _call(main, argv)
    assert cli._parser.cache_info().currsize == 1 and first[0] == want
    assert _call(main, argv) == first
    assert _call(main, argv) == first


def test_cached_parser_lays_out_help_for_each_width(monkeypatch):
    _call(main, ["--version"])  # the parser is built before the width changes
    helps = {}
    for columns in ("40", "120", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        cached = _call(main, ["check", "--help"])
        assert cached == _call(build_parser().parse_args, ["check", "--help"])
        assert helps.setdefault(columns, cached) == cached and cached[0] == 0
    assert helps["40"] != helps["120"]


def test_patched_command_runs_after_parser_is_cached(files, monkeypatch):
    assert _call(main, ["check", files["c5"]])[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.path) or 7)
    assert main(["check", files["c5"]]) == 7 and seen == [files["c5"]]


def test_each_call_rereads_its_input(tmp_path):
    path = tmp_path / "g.col"
    reports = []
    for g, want in ((cycle_graph(5), 0), (NAMED_PATTERNS["gem"], 1)):
        path.write_text(serialize(g, "dimacs"))
        code, out, _ = _call(main, ["check", str(path)])
        assert code == want
        reports.append(json.loads(out))
    assert reports[1]["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert reports[0]["input_sha256"] != reports[1]["input_sha256"]


def test_import_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import gemfree.cli\n"
        "print(len(built), gemfree.cli._parser.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gemfree.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


@pytest.fixture
def exit_table(files, tmp_path):
    """(argv, stub or None, exit code): each command with one input per outcome."""
    truncated = tmp_path / "truncated.col"
    truncated.write_text("p edge 3 1\ne 1\n")
    dot = tmp_path / "c5.dot"
    dot.write_text(serialize(cycle_graph(5), "dot"))
    schlafli = tmp_path / "schlafli.col"
    schlafli.write_text(serialize(schlafli_complement(), "dimacs"))
    c5, gem, groetzsch = files["c5"], files["gem"], files["groetzsch"]
    bad, missing = str(truncated), str(tmp_path / "missing.col")
    failing_suite = (cli, "run_suite", lambda **kw: [CriterionResult(1, "stub", passed=False)])
    return [
        (["check", c5], None, 0),
        (["check", gem], None, 1),
        (["check", bad], None, 2),
        (["check", c5, "--class", "nosuch"], None, 2),
        (["check", str(dot)], None, 2),
        (["color", groetzsch], None, 0),
        (["color", gem], None, 1),
        (["color", bad], None, 2),
        (["color", groetzsch, "--algorithm", "exact", "--max-n", "10"], None, 2),
        (["color", c5, "--algorithm", "exact", "--max-n", "3"], None, 0),
        (["color", c5, "--algorithm", "exact"], None, 0),
        (["color", c5, "--algorithm", "two-omega", "--max-n", "3"], None, 2),
        (["color", str(schlafli)], (coloring, "_color_c12", lambda *args: None), 3),
        (["chi", c5], None, 0),
        (["chi", groetzsch, "--max-n", "10"], None, 2),
        (["chi", c5, "--max-n", "3"], None, 0),
        (["chi", missing], None, 2),
        (["partition", groetzsch], None, 0),
        (["partition", gem], None, 1),
        (["partition", bad], None, 2),
        (["partition", c5, "--format", "nope"], None, 2),
        (["gen", "groetzsch", "--format", "dimacs"], None, 0),
        (["gen", "nosuch"], None, 2),
        (["gen", "random", "--n", "0"], None, 2),
        (["suite", "--size-budget", "0"], None, 0),
        (["suite", "--size-budget", "0"], failing_suite, 1),
        (["suite", "--size-budget", "x"], None, 2),
    ]


def test_exit_codes_in_any_order(exit_table, monkeypatch):
    # two orders in one process: no state leaks from one call to the next
    outputs = []
    for seed in (1, 2):
        order = list(enumerate(exit_table))
        random.Random(seed).shuffle(order)
        seen = {}
        for i, (argv, stub, want) in order:
            with monkeypatch.context() as m:
                if stub is not None:
                    m.setattr(*stub)
                seen[i] = _call(main, argv)
            assert seen[i][0] == want, (seed, argv, seen[i])
        outputs.append(seen)
    assert outputs[0] == outputs[1]
