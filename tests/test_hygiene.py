"""Static hygiene of the package source.

No module or test file imports a name it never uses; `__init__.py` is exempt
because its imports are the package's re-exports, and each of those has a
caller in the package. No module copies an induced subgraph:
searches run inside vertex masks of the host instead. No module imports
networkx, a test dependency only. Every CLI option is read by its command, and
every defaulted parameter of an exported function is set by a package call.
These checks use only `ast`, apart from the CLI check, which takes the
options from `build_parser()`, and the two networkx-loading checks, which
import the package in a child interpreter.
"""

import argparse
import ast
import subprocess
import sys
from pathlib import Path

import pytest

from gemfree.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gemfree"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import (outside `from __future__`) -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _call_lines(path: Path, name: str) -> list[int]:
    """Lines of the calls to a function or method called `name`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == name
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_induced_subgraph_copies(path):
    calls = _call_lines(path, "induced_subgraph")
    assert not calls, f"{path.name} calls induced_subgraph on lines {calls}"


def test_every_export_has_a_caller():
    exported = _imported_names(ast.parse((SRC / "__init__.py").read_text()))
    used = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    orphans = sorted(set(exported) - used)
    assert not orphans, f"exported with no caller in the package: {orphans}"


def _defaulted_parameters(fn: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter with a default; position None if keyword-only."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    found = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    return found + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                    if d is not None]


def test_every_defaulted_parameter_is_set_by_the_package():
    """Each defaulted parameter of an exported function is passed, by position or
    by keyword, by some call in the package: an option only tests set is dead."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.asname or alias.name: node.module for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    calls = []
    for path in MODULES:
        calls += [node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                  if isinstance(node, ast.Call)]
    unset = []
    for name, module in sorted(exported.items()):
        defs = [node for node in ast.parse((SRC / f"{module}.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == name]
        for fn in defs:
            mine = [c for c in calls
                    if (getattr(c.func, "id", None) or getattr(c.func, "attr", None)) == name]
            for param, position in _defaulted_parameters(fn):
                if not any(any(k.arg == param for k in c.keywords)
                           or position is not None and len(c.args) > position for c in mine):
                    unset.append(f"{name}({param})")
    assert not unset, f"defaulted parameters no package call sets: {unset}"


def _networkx_loaded(statements: str) -> str:
    """'True' or 'False': is networkx loaded in a child after `import gemfree; statements`?"""
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import gemfree; "
            f"{statements}; print('networkx' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_does_not_load_networkx():
    # loading networkx costs more than the package
    assert _networkx_loaded("pass") == "False"


def test_exact_chi_does_not_load_networkx():
    # networkx is a test dependency only: the alpha <= 2 matching is native
    assert _networkx_loaded(
        "from gemfree.patterns import cycle_graph; "
        "g = gemfree.complete_expansion(gemfree.ExpansionSpec(cycle_graph(5), (2, 2, 2, 2, 2))); "
        "assert gemfree.chromatic_number(g).chi == 5 == gemfree.exact.chi_alpha2_shortcut(g)"
    ) == "False"


def test_no_module_imports_networkx():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "networkx" for name in names):
                found.setdefault(path.name, []).append(node.lineno)
    assert not found, f"networkx imported at {found}"


def _args_reads(functions: dict[str, ast.FunctionDef], name: str, seen: set[str]) -> set[str]:
    """Attributes of `args` read in function `name`, as `args.x` or `getattr(args, "x", ...)`,
    and in the functions of the module it passes `args` to."""
    seen.add(name)
    reads = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            passed = [a for a in node.args if isinstance(a, ast.Name) and a.id == "args"]
            if node.func.id == "getattr" and passed and isinstance(node.args[1], ast.Constant):
                reads.add(node.args[1].value)
            elif passed and node.func.id in functions and node.func.id not in seen:
                reads |= _args_reads(functions, node.func.id, seen)
    return reads


def test_every_cli_option_is_read_by_its_command():
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    unread = {}
    for command, parser in sub.choices.items():
        dests = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        missing = dests - _args_reads(functions, f"cmd_{command}", set())
        if missing:
            unread[command] = sorted(missing)
    assert not unread, f"options parsed but never read: {unread}"
