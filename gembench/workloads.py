"""The four workloads: their inputs, the ops they send, and how each op is checked.

An op calls gemfree through module attributes looked up at call time, so the
wrappers a `Tracer` installs are seen. Each workload is a closed loop with one
caller: the next op is sent only after the previous one returned.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import gemfree.cli
import gemfree.coloring
import gemfree.exact
import gemfree.patterns

from . import checker, inputs
from .inputs import Case

@dataclass(frozen=True)
class Quality:
    """What a colouring op tells about the construction's output."""

    colors_per_omega: float
    proof_case: str | None = None  # ColoringTrace.case, where the op reports one


@dataclass(frozen=True)
class Op:
    kind: str
    case: Case
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # error text or None; made never to raise
    # read only from a result that passed `check`
    quality: Callable[[Any], Quality | None] = lambda result: None

    def __post_init__(self) -> None:
        object.__setattr__(self, "check", checker.never_raises(self.check))


# ---- certify ---------------------------------------------------------------

def _two_omega(case: Case) -> Op:
    def check(res: Any) -> str | None:
        col, trace = res
        if trace.verified is not True:
            return "trace not verified"
        return checker.coloring(case, col.colors, checker.two_omega_bound(case))

    return Op("two-omega", case, lambda: gemfree.coloring.color_two_omega(case.graph), check,
              lambda res: Quality(res[0].num_colors / case.omega, res[1].case))


def _three_omega(case: Case) -> Op:
    return Op("three-omega", case, lambda: gemfree.coloring.color_three_omega(case.graph),
              lambda col: checker.coloring(case, col.colors, checker.three_omega_bound(case)),
              lambda col: Quality(col.num_colors / case.omega))


def certify_ops(cases: list[Case], workdir: Path) -> list[Op]:
    return [make(c) for c in cases for make in (_two_omega, _three_omega)]


# ---- screen ----------------------------------------------------------------

def _screen(case: Case) -> Op:
    def check(res: Any) -> str | None:
        member, w = res
        return checker.membership(case, member, None if w is None else (w.pattern_name, w.embedding))

    return Op("is_class_member", case, lambda: gemfree.patterns.is_class_member(case.graph), check)


def screen_ops(cases: list[Case], workdir: Path) -> list[Op]:
    return [_screen(c) for c in cases]


# ---- exact -----------------------------------------------------------------

def _chromatic(case: Case) -> Op:
    return Op("chromatic_number", case, lambda: gemfree.exact.chromatic_number(case.graph),
              lambda res: checker.chi(case, res.chi, res.witness.colors))


def _max_clique(case: Case) -> Op:
    return Op("max_clique", case, lambda: gemfree.exact.max_clique(case.graph),
              lambda res: checker.clique(case, res.omega,
                                         [v for v in range(case.n) if res.witness >> v & 1]))


def _alpha2(case: Case) -> Op:
    return Op("chi_alpha2_shortcut", case, lambda: gemfree.exact.chi_alpha2_shortcut(case.graph),
              lambda res: checker.chi(case, res, None))


def exact_ops(cases: list[Case], workdir: Path) -> list[Op]:
    ops = []
    for c in cases:
        ops += [_max_clique(c), _chromatic(c)]
        if c.label == "c5x":  # alpha <= 2 by construction
            ops.append(_alpha2(c))
    return ops


# ---- cli -------------------------------------------------------------------

FILE_FORMATS = (  # suffix, writer; gemfree infers the format from the suffix
    (".col", lambda c: "\n".join([f"c {c.label}", f"p edge {c.n} {len(c.edges)}"]
                                 + [f"e {u + 1} {v + 1}" for u, v in c.edges]) + "\n"),
    (".txt", lambda c: "\n".join([f"{c.n} {len(c.edges)}"] + [f"{u} {v}" for u, v in c.edges]) + "\n"),
    (".json", lambda c: json.dumps({"n": c.n, "edges": [list(e) for e in c.edges]})),
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`gemfree argv` in this process: exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = gemfree.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def cli_commands(case: Case) -> list[str]:
    if not case.member:
        return ["check"]
    return ["check", "color", "partition"] + (["chi"] if case.chi is not None else [])


def write_cli_files(cases: list[Case], workdir: Path) -> list[Path]:
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, c in enumerate(cases):
        suffix, write = FILE_FORMATS[i % len(FILE_FORMATS)]
        path = workdir / f"g{i}{suffix}"
        path.write_text(write(c))
        paths.append(path)
    return paths


def cli_ops(cases: list[Case], workdir: Path) -> list[Op]:
    """In-process `cli.main` calls.

    No child interpreters: on shared machines their times swing by up to 2x
    from run to run, with nothing in this process to rescale them by (see
    speed.py). The cost of `import gemfree` shows in setup_s and cli.import_s.
    """
    ops = []
    for case, path in zip(cases, write_cli_files(cases, workdir)):
        for cmd in cli_commands(case):
            argv = [cmd, str(path)]

            def check(res: Any, case: Case = case, cmd: str = cmd) -> str | None:
                return checker.cli(case, cmd, *res)

            def quality(res: Any, case: Case = case, cmd: str = cmd) -> Quality | None:
                if cmd != "color":
                    return None
                report = json.loads(res[1].strip().splitlines()[-1])
                return Quality(report["num_colors"] / case.omega, report["trace"]["case"])

            ops.append(Op(f"cli:{cmd}", case, lambda argv=argv: run_cli(argv), check, quality))
    return ops


@dataclass(frozen=True)
class Workload:
    cases: Callable[[int], list[Case]]
    ops: Callable[[list[Case], Path], list[Op]]  # (inputs, work dir) -> ops


WORKLOADS: dict[str, Workload] = {
    "certify": Workload(inputs.certify_cases, certify_ops),
    "screen": Workload(inputs.screen_cases, screen_ops),
    "exact": Workload(inputs.exact_cases, exact_ops),
    "cli": Workload(inputs.cli_cases, cli_ops),
}
