"""Induced-pattern detection and forbidden-subgraph class membership.

Patterns are small (<= 8 vertices); detection is exact backtracking with
bitmask candidate pruning, deterministic by ascending host-vertex order.
Class membership decides the gem and P3 u P2 from cotrees and components
instead, and backtracks only to name the witness of a non-member.
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
    """F-freeness for a family of forbidden patterns; first witness on failure.

    Patterns are tried in family order. The catalogue gem and P3 u P2 are
    decided structurally, and `find_induced` runs only to name their witness:

    - the gem is K1 joined to P4, with the apex as pattern vertex 0, so the
      host has a gem iff some N(v) has a P4, and the lex-least gem is the
      least such v followed by the lex-least P4 inside N(v);
    - the host has a P3 u P2 iff some edge uv leaves a P3 in V - (N[u] u N[v]).
    """
    for f in forbidden:
        pat = f if isinstance(f, Pattern) else pattern(f)
        if pat.graph.adj == NAMED_PATTERNS["gem"].adj:
            w = _gem_witness(host, pat.name)
        elif pat.graph.adj == NAMED_PATTERNS["p3up2"].adj and not _has_p3up2(host):
            w = None
        else:
            w = find_induced(host, pat)
        if w is not None:
            return False, w
    return True, None


def _gem_witness(host: Graph, name: str) -> PatternWitness | None:
    for v, row in enumerate(host.adj):
        if not is_p4_free(host, row):
            return PatternWitness(name, (v,) + find_induced(host, "p4", row).embedding)
    return None


def _has_p3up2(host: Graph) -> bool:
    full = host.full_mask
    for u, row in enumerate(host.adj):
        outside_u = full & ~(row | 1 << u)
        for v in bits(row >> (u + 1) << (u + 1)):
            if not is_p3_free(host, outside_u & ~(host.adj[v] | 1 << v)):
                return True
    return False


def is_p3_free(g: Graph, within: int | None = None) -> bool:
    """True iff <within> (default: all of g) has no induced P3.

    That holds iff every component is a clique, i.e. the closed neighbourhood
    of each vertex inside `within` is its whole component and is shared by
    every vertex of it.
    """
    mask = g.full_mask if within is None else within
    rest = mask
    while rest:
        low = rest & -rest
        comp = (g.adj[low.bit_length() - 1] & mask) | low
        if any((g.adj[x] & mask) | 1 << x != comp for x in bits(comp)):
            return False
        rest &= ~comp
    return True


def is_p4_free(g: Graph, within: int | None = None) -> bool:
    """True iff <within> (default: all of g) has no induced P4: its cotree walk
    finds no prime node (see `cograph_coloring`)."""
    return cograph_coloring(g, g.full_mask if within is None else within) is not None


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
