"""Induced-pattern detection and forbidden-subgraph class membership.

Patterns are small (<= 8 vertices); detection is exact backtracking with
bitmask candidate pruning, deterministic by ascending host-vertex order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .graphs import Graph, bits, build_graph, cograph_coloring, disjoint_union, join

MAX_PATTERN = 8


class PatternError(ValueError):
    """Unsupported pattern (too large / unknown name)."""


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], f"P{n}")


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], f"C{n}")


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)], f"K{n}")


def _named_patterns() -> dict[str, Graph]:
    from .graphs import complement  # local to keep module top tidy

    p3up2 = disjoint_union(path_graph(3), path_graph(2))
    k5_minus_e = build_graph(
        5, [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)], "K5-e"
    )
    pats = {
        "p2": path_graph(2),
        "p3": path_graph(3),
        "p4": path_graph(4),
        "p5": path_graph(5),
        "2k2": disjoint_union(path_graph(2), path_graph(2)),
        "p3up2": p3up2,
        "c4": cycle_graph(4),
        "c5": cycle_graph(5),
        "gem": join(complete_graph(1), path_graph(4)),
        "diamond": join(complete_graph(1), path_graph(3)),
        "hvn": join(complete_graph(2), disjoint_union(complete_graph(2), complete_graph(1))),
        "k1+c4": join(complete_graph(1), cycle_graph(4)),
        "co-p3up2": complement(p3up2),
        "k5-e": k5_minus_e,
        "k5": complete_graph(5),
    }
    return pats


NAMED_PATTERNS = _named_patterns()

# the class this whole package is about
DEFAULT_CLASS = ("p3up2", "gem")


@dataclass(frozen=True)
class Pattern:
    name: str
    graph: Graph

    def __post_init__(self) -> None:
        if self.graph.n > MAX_PATTERN:
            raise PatternError(f"pattern {self.name!r} has more than {MAX_PATTERN} vertices")


def pattern(name_or_graph: str | Graph) -> Pattern:
    """Resolve a pattern by catalogue name (case-insensitive) or explicit graph."""
    if isinstance(name_or_graph, Graph):
        return Pattern(name_or_graph.name or "custom", name_or_graph)
    key = name_or_graph.lower()
    if key not in NAMED_PATTERNS:
        raise PatternError(f"unknown pattern name {name_or_graph!r}")
    return Pattern(key, NAMED_PATTERNS[key])


@dataclass(frozen=True)
class PatternWitness:
    pattern_name: str
    embedding: tuple[int, ...]

    def verify(self, host: Graph, pat: Pattern) -> bool:
        """True iff the embedding is an induced copy of the pattern, vertex by vertex."""
        emb = self.embedding
        distinct_inside = {v for v in emb if 0 <= v < host.n}
        if len(distinct_inside) != len(emb) or len(emb) != pat.graph.n:
            return False
        return all(
            pat.graph.has_edge(a, b) == host.has_edge(emb[a], emb[b])
            for a in range(pat.graph.n)
            for b in range(a + 1, pat.graph.n)
        )


def find_induced(
    host: Graph, pat: Pattern | str | Graph, within: int | None = None
) -> PatternWitness | None:
    """Lexicographically least induced embedding of the pattern inside `within`, or None.

    `within` is a vertex mask of the host (default: all vertices). The
    embedding tuple maps pattern vertex i to its host image. The candidates
    for pattern vertex i are one mask: the free vertices of `within`, ANDed
    with adj(a_j) or its complement for every placed a_j, as the pattern has
    or lacks the edge ij. Candidates are tried ascending, so the first hit is
    the lex-least embedding tuple.
    """
    pat = pat if isinstance(pat, Pattern) else pattern(pat)
    p = pat.graph
    free = host.full_mask if within is None else within
    assignment = [0] * p.n

    def place(i: int, used: int) -> bool:
        cand = free & ~used
        for j in range(i):
            row = host.adj[assignment[j]]
            cand &= row if p.adj[i] >> j & 1 else ~row
        for v in bits(cand):
            assignment[i] = v
            if i + 1 == p.n or place(i + 1, used | (1 << v)):
                return True
        return False

    if place(0, 0):
        return PatternWitness(pat.name, tuple(assignment))
    return None


def is_class_member(
    host: Graph, forbidden: tuple[str | Pattern | Graph, ...] = DEFAULT_CLASS
) -> tuple[bool, PatternWitness | None]:
    """F-freeness for a family of forbidden patterns; first witness on failure."""
    for f in forbidden:
        w = find_induced(host, f)
        if w is not None:
            return False, w
    return True, None


def is_p3_free(g: Graph) -> bool:
    """P3-free iff every connected component is a clique."""
    return all(g.is_clique(comp) for comp in g.components())


def is_p4_free(g: Graph) -> bool:
    """P4-free iff the cotree walk finds no prime node (see `cograph_coloring`)."""
    return cograph_coloring(g, g.full_mask) is not None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force isomorphism for small graphs (degree-sequence pruned)."""
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    if g.n > 10:
        raise PatternError("brute-force isomorphism limited to 10 vertices")
    hdeg = [h.degree(v) for v in range(h.n)]
    gdeg = [g.degree(v) for v in range(g.n)]
    for perm in permutations(range(h.n)):
        if any(gdeg[v] != hdeg[perm[v]] for v in range(g.n)):
            continue
        if all(
            g.has_edge(a, b) == h.has_edge(perm[a], perm[b])
            for a in range(g.n)
            for b in range(a + 1, g.n)
        ):
            return True
    return False
