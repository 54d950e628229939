"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 semantic negative (non-member,
bound violation, failing criterion), 2 input error, 3 certification failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .coloring import (
    CertificationError,
    ClassViolationError,
    _three_omega,
    color_two_omega,
    greedy_coloring,
    verify_proper,
)
from .exact import EXACT_MAX_N, chromatic_number, max_clique
from .generators import (
    STRATEGIES,
    ExpansionSpec,
    SamplingError,
    complete_expansion,
    expansion_bags,
    named_graph,
    random_class_member,
)
from .graph_io import FORMATS, WRITERS, read_graph, serialize
from .graphs import Graph, GraphError
from .partition import build_partition, run_all_checks
from .patterns import DEFAULT_CLASS, is_class_member, pattern
from .suite import run_suite

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CERTIFICATION = 3


def _emit(report: dict, human: bool) -> None:
    if human:
        for k, v in report.items():
            print(f"{k}: {v}")
    else:
        print(json.dumps(report, default=str))


def _base_report(args: argparse.Namespace, input_sha256: str | None = None, **extra) -> dict:
    rep = {"command": args.command, "version": __version__}
    if input_sha256 is not None:
        rep["input"] = args.path
        rep["input_sha256"] = input_sha256
    if getattr(args, "seed", None) is not None:
        rep["seed"] = args.seed
    rep.update(extra)
    return rep


def _load(args: argparse.Namespace) -> tuple[Graph, str]:
    """The input graph and the hash of the very bytes it was parsed from."""
    g, data = read_graph(args.path, args.format)
    return g, hashlib.sha256(data).hexdigest()[:16]


def cmd_check(args: argparse.Namespace) -> int:
    g, sha = _load(args)
    forbidden = (DEFAULT_CLASS if args.cls is None
                 else tuple(pattern(s.strip()) for s in args.cls.split(",")))
    member, witness = is_class_member(g, forbidden)
    rep = _base_report(args, sha, n=g.n, m=g.num_edges, forbidden=list(forbidden), member=member)
    if witness is not None:
        rep["witness"] = {"pattern": witness.pattern_name, "embedding": list(witness.embedding)}
    _emit(rep, args.human)
    return EXIT_OK if member else EXIT_NEGATIVE


def cmd_color(args: argparse.Namespace) -> int:
    if hasattr(args, "max_n") and args.algorithm != "exact":
        raise GraphError(f"color --algorithm {args.algorithm} does not take --max-n")
    g, sha = _load(args)
    t0 = time.perf_counter()
    trace_dict = None
    if args.algorithm == "two-omega":
        coloring, trace = color_two_omega(g)
        trace_dict = trace.to_json_dict()
        verified = trace.verified
        omega = len(trace.A)
        bound = 2 * omega
    elif args.algorithm == "three-omega":
        coloring, omega = _three_omega(g)
        verified = True
        bound = max(3 * omega - 2, 1)
    else:
        if args.algorithm == "greedy":
            coloring = greedy_coloring(g)
        else:
            coloring = chromatic_number(g, max_n=getattr(args, "max_n", EXACT_MAX_N)).witness
        verified = verify_proper(g, coloring)[0]
        omega = max_clique(g).omega
        bound = None
    rep = _base_report(
        args, sha,
        algorithm=args.algorithm,
        omega=omega,
        bound=bound,
        num_colors=coloring.num_colors,
        colors={str(v): coloring.colors[v] for v in range(g.n)},
        verified=verified,
        runtime_s=round(time.perf_counter() - t0, 3),
    )
    if trace_dict is not None:
        rep["trace"] = trace_dict
    _emit(rep, args.human)
    return EXIT_OK


def cmd_chi(args: argparse.Namespace) -> int:
    g, sha = _load(args)
    t0 = time.perf_counter()
    res = chromatic_number(g, max_n=args.max_n)
    rep = _base_report(
        args, sha, chi=res.chi,
        colors={str(v): res.witness.colors[v] for v in range(g.n)},
        runtime_s=round(time.perf_counter() - t0, 3),
    )
    _emit(rep, args.human)
    return EXIT_OK


def cmd_partition(args: argparse.Namespace) -> int:
    g, sha = _load(args)
    p = build_partition(g)
    reports = run_all_checks(g, p)
    rep = _base_report(
        args, sha,
        omega=p.omega,
        partition=p.to_json_dict(),
        checks={name: r.to_json_dict() for name, r in reports.items()},
    )
    _emit(rep, args.human)
    all_ok = all(r.passed for r in reports.values() if r.applicable)
    return EXIT_OK if all_ok else EXIT_NEGATIVE


# the `gen` options and the one generator that reads each
GEN_OPTION_OWNERS = {"base": "expansion", "sizes": "expansion",
                     "n": "random", "strategy": "random", "seed": "random"}


def cmd_gen(args: argparse.Namespace) -> int:
    for option, owner in GEN_OPTION_OWNERS.items():
        if hasattr(args, option) and args.name != owner:
            raise GraphError(f"gen {args.name} does not take --{option}")
    if args.name == "expansion":
        base, sizes = getattr(args, "base", "c5"), getattr(args, "sizes", "1,1,1,1,1")
        base_graph = named_graph(base)
        try:
            bag_sizes = tuple(int(s) for s in sizes.split(","))
        except ValueError:
            raise GraphError(f"--sizes must be comma-separated integers: {sizes!r}") from None
        spec = ExpansionSpec(base_graph, bag_sizes)
        g = complete_expansion(spec)
        meta = {"bags": expansion_bags(spec), "base": base}
    elif args.name == "random":
        meta = {"strategy": getattr(args, "strategy", "reject"), "seed": getattr(args, "seed", 0)}
        g = random_class_member(getattr(args, "n", 8), meta["seed"], meta["strategy"])
    else:
        meta = {}
        g = named_graph(args.name)
    text = serialize(g, args.format)
    if args.out:
        Path(args.out).write_text(text)
        if meta:
            Path(str(args.out) + ".meta.json").write_text(json.dumps(meta))
        print(json.dumps({"written": args.out, "n": g.n, "m": g.num_edges, **meta}))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_suite(args: argparse.Namespace) -> int:
    results = run_suite(seed=args.seed, size_budget=args.size_budget)
    rep = _base_report(
        args,
        size_budget=args.size_budget,
        criteria=[r.to_json_dict() for r in results],
        all_passed=all(r.passed for r in results),
    )
    if args.human:
        for r in results:
            status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
            print(f"[{status}] criterion {r.cid}: {r.description} ({r.runtime_s:.2f}s)")
        print("all passed" if rep["all_passed"] else "FAILURES present")
    else:
        print(json.dumps(rep, default=str))
    if not rep["all_passed"]:
        failing = [r.cid for r in results if not r.passed]
        print(f"failing criteria: {failing}", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gemfree")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("path")
        p.add_argument("--format", choices=FORMATS, default=None,
                       help="override extension-based format detection")
        p.add_argument("--human", action="store_true")

    p = sub.add_parser("check", help="forbidden-subgraph class membership")
    add_input(p)
    p.add_argument("--class", dest="cls", default=None,
                   help="comma-separated pattern names (default p3up2,gem)")

    p = sub.add_parser("color", help="color a graph")
    add_input(p)
    p.add_argument("--algorithm", choices=("two-omega", "three-omega", "greedy", "exact"),
                   default="two-omega")
    p.add_argument("--max-n", type=int, default=argparse.SUPPRESS,
                   help=f"exact only: refuse alpha > 2 inputs above this n (default {EXACT_MAX_N})")

    p = sub.add_parser("chi", help="exact chromatic number")
    add_input(p)
    p.add_argument("--max-n", type=int, default=EXACT_MAX_N,
                   help="refuse alpha > 2 inputs above this n; alpha <= 2 ones are never refused")

    p = sub.add_parser("partition", help="clique-relative partition + lemma reports")
    add_input(p)

    p = sub.add_parser("gen", help="emit a generated graph")
    p.add_argument("name", help="named graph, 'expansion', or 'random'")
    # unset, these stay off `args`: cmd_gen refuses those its generator does not read
    p.add_argument("--base", default=argparse.SUPPRESS, help="expansion only (default c5)")
    p.add_argument("--sizes", default=argparse.SUPPRESS,
                   help="expansion only (default 1,1,1,1,1)")
    p.add_argument("--n", type=int, default=argparse.SUPPRESS, help="random only (default 8)")
    p.add_argument("--strategy", choices=STRATEGIES, default=argparse.SUPPRESS,
                   help="random only (default reject)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="random only (default 0)")
    p.add_argument("--format", choices=tuple(WRITERS), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("suite", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size-budget", type=int, default=200)
    p.add_argument("--human", action="store_true")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main() call shares, built by the first."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one `gemfree` command on `argv` and return its exit code.

    May be called repeatedly in one process. The parser is built on the first
    call and reused: parsing leaves it unchanged, and help and usage text are
    laid out anew for the terminal width of each call. Nothing else is kept:
    each call reads, parses and checks its own input file. The `cmd_*`
    function is looked up by name at call time, so a patched one runs.
    """
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ClassViolationError as exc:
        print(json.dumps({
            "error": "class-violation",
            "witness": {"pattern": exc.witness.pattern_name,
                        "embedding": list(exc.witness.embedding)},
        }))
        return EXIT_NEGATIVE
    except CertificationError as exc:
        print(json.dumps({
            "error": "certification-failure",
            "message": str(exc),
            "conflict": exc.conflict,
            "trace": exc.trace.to_json_dict() if exc.trace else None,
        }))
        return EXIT_CERTIFICATION
    except (ValueError, OSError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
