"""Graph file formats: DIMACS .col, plain edge list, JSON, DOT (write-only)."""

from __future__ import annotations

import io
import json
from pathlib import Path

from .graphs import Graph, GraphError, _check_vertex_count, _trusted_graph


def _int(token: str, lineno: int, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphError(f"non-integer {token!r} on line {lineno}: {line!r}") from None


def _bad_edge(u: int, v: int, n: int, base: int) -> str | None:
    """What is wrong with the edge u v of a file numbering vertices base..base+n-1,
    in the file's own numbers, or None. The readers check n at the header, first."""
    end = base + n
    if base <= u < end and base <= v < end:
        return f"self-loop at vertex {u}" if u == v else None
    return f"endpoint {v if base <= u < end else u} outside {base}..{end - 1}"


def parse_dimacs(text: str, name: str = "") -> Graph:
    """DIMACS .col: `p edge n m` header, then m `e u v` lines with 1-based endpoints."""
    n = m = None
    adj: list[int] = []
    found = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphError(f"repeated DIMACS header on line {lineno}: {line!r}")
            if len(parts) != 4 or parts[1] not in ("edge", "edges", "col"):
                raise GraphError(f"bad DIMACS header on line {lineno}: {line!r}")
            n, m = _int(parts[2], lineno, line), _int(parts[3], lineno, line)
            _check_vertex_count(n)
            adj = [0] * n
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"DIMACS edge line {lineno} before header: {line!r}")
            if len(parts) != 3:
                raise GraphError(f"DIMACS edge line {lineno} needs two endpoints: {line!r}")
            u, v = _int(parts[1], lineno, line), _int(parts[2], lineno, line)
            if problem := _bad_edge(u, v, n, 1):
                raise GraphError(f"{problem} on line {lineno}: {line!r}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
            found += 1
        else:
            raise GraphError(f"unrecognized DIMACS line {lineno}: {line!r}")
    if n is None:
        raise GraphError("missing DIMACS header")
    if found != m:
        raise GraphError(f"expected {m} edge lines, found {found}")
    return _trusted_graph(tuple(adj), name)


def to_dimacs(g: Graph) -> str:
    # one comment line per line of the name: the reader splits lines the same way
    lines = [f"c {part}" for part in g.name.splitlines()] or ["c"]
    lines.append(f"p edge {g.n} {g.num_edges}")
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str, name: str = "") -> Graph:
    """First line `n m`, then m lines `u v`, 0-based."""
    lines = [(lineno, ln) for lineno, raw in enumerate(text.splitlines(), 1)
             if (ln := raw.strip()) and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty edge-list input")
    hline, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphError(f"edge-list header line {hline} must be 'n m': {header!r}")
    n, m = _int(parts[0], hline, header), _int(parts[1], hline, header)
    _check_vertex_count(n)
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    adj = [0] * n
    for lineno, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"edge-list line {lineno} needs two endpoints: {ln!r}")
        u, v = _int(parts[0], lineno, ln), _int(parts[1], lineno, ln)
        if problem := _bad_edge(u, v, n, 0):
            raise GraphError(f"{problem} on line {lineno}: {ln!r}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _trusted_graph(tuple(adj), name)


def to_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def _json_int(value: object, field: str) -> int:
    if type(value) is not int:  # rejects bool, a subclass of int, and floats
        raise GraphError(f"bad JSON graph object: {field} must be an integer, got {value!r}")
    return value


def parse_json_graph(text: str, name: str = "") -> Graph:
    """JSON object `{"n": int, "edges": [[u, v], ...], "name": str}`, 0-based; name optional."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise GraphError(f"bad JSON graph object: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphError("bad JSON graph object: expected an object with keys 'n' and 'edges'")
    n = _json_int(data["n"], "n")
    _check_vertex_count(n)
    if not isinstance(data["edges"], list):
        raise GraphError("bad JSON graph object: edges must be a list")
    adj = [0] * n
    for i, e in enumerate(data["edges"]):
        if not isinstance(e, list) or len(e) != 2:
            raise GraphError(f"bad JSON graph object: edges[{i}] must be a pair [u, v], got {e!r}")
        u, v = _json_int(e[0], f"edges[{i}][0]"), _json_int(e[1], f"edges[{i}][1]")
        if problem := _bad_edge(u, v, n, 0):
            raise GraphError(f"bad JSON graph object: {problem} in edges[{i}]")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    name = data.get("name", name)
    if not isinstance(name, str):
        raise GraphError(f"bad JSON graph object: name must be a string, got {name!r}")
    return _trusted_graph(tuple(adj), name)


def to_json_graph(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()], "name": g.name}) + "\n"


def to_dot(g: Graph) -> str:
    lines = [f'graph "{g.name or "G"}" {{']
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


_READERS = {"dimacs": parse_dimacs, "edgelist": parse_edgelist, "json": parse_json_graph}
WRITERS = {"dimacs": to_dimacs, "edgelist": to_edgelist, "json": to_json_graph, "dot": to_dot}
_SUFFIXES = {".col": "dimacs", ".json": "json", ".dot": "dot"}
FORMATS = tuple(_READERS)


def serialize(g: Graph, fmt: str) -> str:
    if fmt not in WRITERS:
        raise GraphError(f"unknown format {fmt!r}")
    return WRITERS[fmt](g)


def parse(text: str, fmt: str, name: str = "") -> Graph:
    if fmt not in _READERS:
        raise GraphError(f"format {fmt!r} is write-only" if fmt in WRITERS
                         else f"unknown format {fmt!r}")
    return _READERS[fmt](text, name)


def format_for_path(path: str | Path) -> str:
    return _SUFFIXES.get(Path(path).suffix.lower(), "edgelist")


def read_graph(path: str | Path, fmt: str | None = None) -> tuple[Graph, bytes]:
    """The graph in the file at `path` and the bytes it was parsed from, read once.

    The bytes are decoded exactly as `Path.read_text()` decodes them: the
    encoding `io.text_encoding(None)` names (UTF-8 in UTF-8 mode, else the
    locale's), strict errors, universal newlines.
    """
    path = Path(path)
    data = path.read_bytes()
    text = io.TextIOWrapper(io.BytesIO(data), encoding=io.text_encoding(None)).read()
    return parse(text, fmt or format_for_path(path), name=path.stem), data
