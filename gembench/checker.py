"""Output checks that use only the benchmark's own reference answers.

Each check returns None when the output is right and a one-line reason when it
is wrong. A check never raises: a malformed output is a wrong output.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Sequence

from .inputs import FORBIDDEN, Case


def never_raises(check: Callable[..., str | None]) -> Callable[..., str | None]:
    def guarded(*args: Any) -> str | None:
        try:
            return check(*args)
        except Exception as exc:  # a malformed output is a wrong output, not a crash
            return f"unreadable output: {type(exc).__name__}: {exc}"

    guarded.__name__ = check.__name__
    guarded.__doc__ = check.__doc__
    return guarded


@never_raises
def coloring(case: Case, colors: Sequence[int], bound: int) -> str | None:
    """Total, proper, positive colours, at most `bound` of them."""
    if len(colors) != case.n:
        return f"coloring has {len(colors)} entries for {case.n} vertices"
    if any(not isinstance(c, int) or c < 1 for c in colors):
        return "colours must be positive integers"
    for u, v in case.edges:
        if colors[u] == colors[v]:
            return f"edge ({u},{v}) is monochromatic"
    used = len(set(colors))
    if used > bound or max(colors, default=0) > bound:
        return f"{used} colours (max label {max(colors)}) exceed the bound {bound}"
    return None


def two_omega_bound(case: Case) -> int:
    return 2 * case.omega


def three_omega_bound(case: Case) -> int:
    return max(3 * case.omega - 2, 1)


@never_raises
def forbidden_witness(case: Case, pattern: str, embedding: Sequence[int]) -> str | None:
    """Labelled all-pairs adjacency check of a claimed induced gem or P3 u P2."""
    if pattern not in FORBIDDEN:
        return f"witness names unknown pattern {pattern!r}"
    emb = list(embedding)
    if len(emb) != 5 or len(set(emb)) != 5 or not all(0 <= v < case.n for v in emb):
        return f"witness embedding {emb} is not five distinct vertices"
    edges = set(case.edges)
    want = set(FORBIDDEN[pattern])
    for a in range(5):
        for b in range(a + 1, 5):
            u, v = sorted((emb[a], emb[b]))
            if ((u, v) in edges) != ((a, b) in want):
                return f"witness {pattern} {emb} is wrong at pattern pair ({a},{b})"
    return None


@never_raises
def membership(case: Case, member: bool, witness: tuple[str, Sequence[int]] | None) -> str | None:
    if member != case.member:
        return f"membership {member}, expected {case.member}"
    if member:
        return None if witness is None else "member reported with a witness"
    if witness is None:
        return "non-member reported without a witness"
    return forbidden_witness(case, *witness)


@never_raises
def chi(case: Case, value: int, colors: Sequence[int] | None) -> str | None:
    """Exact chi equals the reference; a witness colouring must use chi colours."""
    if value != case.chi:
        return f"chi {value}, expected {case.chi}"
    return None if colors is None else coloring(case, colors, case.chi)


@never_raises
def clique(case: Case, omega: int, members: Sequence[int]) -> str | None:
    if omega != case.omega:
        return f"omega {omega}, expected {case.omega}"
    verts = sorted(set(members))
    if len(verts) != omega:
        return f"clique witness has {len(verts)} vertices, omega {omega}"
    edges = set(case.edges)
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if (u, v) not in edges:
                return f"clique witness misses edge ({u},{v})"
    return None


def _colors(report: dict, n: int) -> list[int]:
    return [report["colors"][str(v)] for v in range(n)]


@never_raises
def cli(case: Case, command: str, returncode: int, stdout: str) -> str | None:
    """Exit code and JSON report of one `gemfree <command>` call on the case."""
    want_rc = 1 if command == "check" and not case.member else 0
    if returncode != want_rc:
        return f"{command}: exit code {returncode}, expected {want_rc}"
    report = json.loads(stdout.strip().splitlines()[-1])
    if command == "check":
        w = report.get("witness")
        return membership(case, report["member"],
                          (w["pattern"], w["embedding"]) if w is not None else None)
    if command == "color":
        if report["omega"] != case.omega:
            return f"color: omega {report['omega']}, expected {case.omega}"
        if report["verified"] is not True:
            return "color: report not verified"
        return coloring(case, _colors(report, case.n), two_omega_bound(case))
    if command == "chi":
        return chi(case, report["chi"], _colors(report, case.n))
    if command == "partition":
        if report["omega"] != case.omega:
            return f"partition: omega {report['omega']}, expected {case.omega}"
        failed = [name for name, r in report["checks"].items() if r["applicable"] and not r["passed"]]
        return f"partition: checks failed: {failed}" if failed else None
    return f"unknown command {command!r}"
