"""Induced-pattern detection and forbidden-subgraph class membership.

A pattern is a name from the catalogue `NAMED_PATTERNS`; detection is exact
backtracking with forward checking on bitmask candidate sets, deterministic
by ascending host-vertex order.
Class membership decides the gem and P3 u P2 from cotrees and components
of the true-twin quotient instead, and backtracks only to name the witness
of a non-member.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Graph, GraphError, _twin_classes, _vertex_mask, build_graph, cograph_coloring,
    complement, disjoint_union, join, mask_of,
)


class PatternError(ValueError):
    """Unknown pattern name."""


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], f"P{n}")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle C{n} needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], f"C{n}")


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)], f"K{n}")


# the catalogue: every pattern is one of these names
NAMED_PATTERNS = {
    "p2": path_graph(2),
    "p3": path_graph(3),
    "p4": path_graph(4),
    "p5": path_graph(5),
    "2k2": disjoint_union(path_graph(2), path_graph(2)),
    "p3up2": disjoint_union(path_graph(3), path_graph(2)),
    "c4": cycle_graph(4),
    "c5": cycle_graph(5),
    "gem": join(complete_graph(1), path_graph(4)),
    "diamond": join(complete_graph(1), path_graph(3)),
    "hvn": join(complete_graph(2), disjoint_union(complete_graph(2), complete_graph(1))),
    "k1+c4": join(complete_graph(1), cycle_graph(4)),
    "co-p3up2": complement(disjoint_union(path_graph(3), path_graph(2))),
    "k5-e": build_graph(
        5, [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)], "K5-e"
    ),
    "k5": complete_graph(5),
}

# the class this whole package is about
DEFAULT_CLASS = ("p3up2", "gem")


def pattern(name: str) -> str:
    """The catalogue key of a pattern name (case-insensitive), which names its witness."""
    key = name.lower()
    if key not in NAMED_PATTERNS:
        raise PatternError(f"unknown pattern name {name!r}")
    return key


@dataclass(frozen=True)
class PatternWitness:
    pattern_name: str
    embedding: tuple[int, ...]


# for each catalogue pattern and each pattern vertex i: whether i has an edge
# to each later pattern vertex j > i, in order of j
_LATER_EDGES = {
    key: tuple(tuple(bool(p.adj[i] >> j & 1) for j in range(i + 1, p.n)) for i in range(p.n))
    for key, p in NAMED_PATTERNS.items()
}


def find_induced(host: Graph, name: str, within: int | None = None) -> PatternWitness | None:
    """Lexicographically least induced embedding of the pattern inside `within`, or None.

    `within` is a vertex mask of the host (default: all vertices). The
    embedding tuple maps pattern vertex i to its host image. The search keeps
    one candidate mask per pattern vertex not yet placed, all of `within` at
    the start. Placing host vertex v as pattern vertex i narrows the mask of
    each later j to adj(v), or to the vertices other than v outside it, as
    the pattern has or lacks the edge ij (forward checking), and a placement
    that empties a later mask is skipped: no embedding extends it. Candidates
    are tried ascending, and pruning drops only branches without an
    embedding, so the first hit is the lex-least embedding tuple; the last
    pattern vertex takes its least candidate.
    """
    key = pattern(name)
    later = _LATER_EDGES[key]
    last = len(later) - 1
    adj = host.adj
    assignment = [0] * len(later)

    def place(i: int, cand: int, rest: list[int]) -> bool:
        """Place pattern vertex i from `cand`; `rest` holds the masks of i+1.."""
        if i == last - 1:  # each placement leaves one mask, whose least vertex ends the search
            final = rest[0]
            edge = later[i][0]
            while cand:
                low = cand & -cand
                cand ^= low
                row = adj[low.bit_length() - 1]
                left = final & row if edge else final & ~(row | low)
                if left:
                    assignment[i] = low.bit_length() - 1
                    assignment[last] = (left & -left).bit_length() - 1
                    return True
            return False
        edges = later[i]
        while cand:
            low = cand & -cand
            cand ^= low
            row = adj[low.bit_length() - 1]
            non = ~(row | low)
            narrowed = []
            for mask, e in zip(rest, edges):
                mask &= row if e else non
                if not mask:
                    break
                narrowed.append(mask)
            else:  # no later mask emptied
                assignment[i] = low.bit_length() - 1
                if place(i + 1, narrowed[0], narrowed[1:]):
                    return True
        return False

    free = _vertex_mask(host, within)
    if place(0, free, [free] * last):
        return PatternWitness(key, tuple(assignment))
    return None


def is_class_member(
    host: Graph, forbidden: tuple[str, ...] = DEFAULT_CLASS
) -> tuple[bool, PatternWitness | None]:
    """F-freeness for a family of forbidden patterns; first witness on failure.

    Every name is resolved before the first search, so an unknown one is a
    `PatternError` whatever the host. Patterns are tried in family order. The
    gem and P3 u P2 each go to their witness function, which decides the
    pattern on the true-twin quotient (one representative, the least vertex,
    per class of vertices with equal closed neighbourhoods) and runs
    `find_induced` only to name the lex-least witness. Any other pattern is
    searched with `find_induced`.
    """
    classes = None
    for key in tuple(map(pattern, forbidden)):
        witness = _STRUCTURAL.get(key)
        if witness is None:
            w = find_induced(host, key)
        else:
            if classes is None:
                classes = _twin_classes(host, host.full_mask)
                reps = mask_of(classes)
            w = witness(host, classes, reps)
        if w is not None:
            return False, w
    return True, None


def _gem_witness(host: Graph, classes: dict[int, int], reps: int) -> PatternWitness | None:
    """The lex-least gem (K1 joined to P4, the apex as pattern vertex 0): the
    least v with a P4 in N(v), then the lex-least such P4. Both lie among the
    representatives `reps`: a P4 in N(v) has no twin of v (it would see the
    other three) nor two twins of each other, twins have isomorphic N(v), and
    trading a vertex for its representative keeps a P4 and lowers the tuple.
    The representatives are walked as the keys of `classes`, ascending,
    which is cheaper than walking the bits of `reps`. A P4 holds a P3, so the
    P3 walk `_components_if_cliques` settles a P3-free N(v), such as an
    independent set or a matching, and only an N(v) with a P3 goes on to the
    cotree walk `cograph_coloring`; a triangle-free host never reaches it."""
    for v in classes:
        row = host.adj[v] & reps
        if (_components_if_cliques(host, row) is None
                and cograph_coloring(host, row, [0] * host.n) is None):
            return PatternWitness("gem", (v,) + find_induced(host, "p4", row).embedding)
    return None


def _p3up2_witness(host: Graph, classes: dict[int, int], reps: int) -> PatternWitness | None:
    """The lex-least P3 u P2. Only its P2 can be a pair of true twins, so the
    host has one iff some edge uv inside `reps` leaves a P3 in
    reps - (N[u] u N[v]), or some u with a twin (which makes uu' a P2) leaves
    one in reps - N[u]. That last set contains what every edge at u leaves,
    and P3-freeness is hereditary, so only edges between twinless
    representatives are tried, each from its larger end. Each set goes
    straight to the P3 walk `_components_if_cliques`.
    The witness is searched inside a mask built from both kinds of twin:
    the two least vertices of each true-twin class (equal closed
    neighbourhoods), intersected with the two least of each false-twin class
    (equal open neighbourhoods). Trading a witness vertex for a smaller twin
    outside the witness keeps a P3 u P2 and lowers the tuple. No class meets
    the witness in three vertices, as its only true twins are the P2's two
    ends and its only false twins the P3's two ends, so a witness vertex
    with two smaller twins could be traded, and the lex-least witness lies
    inside the mask. The false-twin classes are built only when two open
    rows are equal; otherwise each is a single vertex. On C5[I_100] plus a
    pendant, which has no true twins, the mask has 12 vertices instead of
    all 501."""
    adj = host.adj
    single = 0  # the twinless representatives below u
    for u, cls in classes.items():
        outside_u = reps & ~(adj[u] | 1 << u)
        if cls != 1 << u:
            if _components_if_cliques(host, outside_u) is None:
                break
            continue
        ends = adj[u] & single
        while ends:
            low = ends & -ends
            if _components_if_cliques(host, outside_u & ~adj[low.bit_length() - 1]) is None:
                break
            ends ^= low
        if ends:  # the walk stopped at a P3
            break
        single |= cls
    else:
        return None
    within = _two_least(classes)
    if len(set(adj)) < host.n:  # two open rows are equal: false twins
        within &= _two_least(_twin_classes(host, host.full_mask, closed=False))
    return find_induced(host, "p3up2", within)


def _two_least(classes: dict[int, int]) -> int:
    """The mask of the two least vertices of each class (one, if it has one)."""
    mask = 0
    for cls in classes.values():
        rest = cls & (cls - 1)
        mask |= cls & -cls | rest & -rest
    return mask


# the witness function of each structural pattern
_STRUCTURAL = {"gem": _gem_witness, "p3up2": _p3up2_witness}


def is_p3_free(g: Graph, within: int | None = None) -> bool:
    """True iff <within> (default: all of g) has no induced P3."""
    return _components_if_cliques(g, _vertex_mask(g, within)) is not None


def _components_if_cliques(g: Graph, mask: int) -> list[int] | None:
    """The components of <mask>, ascending by least vertex, if all are cliques,
    else None (<mask> has an induced P3). In a P3-free set the component of v
    is its closed neighbourhood inside <mask>, the same for each vertex of it."""
    adj = g.adj
    comps = []
    rest = mask
    while rest:
        low = rest & -rest
        comp = (adj[low.bit_length() - 1] & mask) | low
        others = comp ^ low  # the least vertex's row is comp itself
        while others:
            x = others & -others
            if (adj[x.bit_length() - 1] & mask) | x != comp:
                return None
            others ^= x
        comps.append(comp)
        rest &= ~comp
    return comps


def is_p4_free(g: Graph, within: int | None = None) -> bool:
    """True iff <within> (default: all of g) has no induced P4. A P4 holds an
    induced P3, so a P3-free set (every component a clique) is settled by the
    P3 walk; only a set with a P3 goes on to the cotree walk, which finds no
    prime node iff the set is P4-free (see `cograph_coloring`)."""
    mask = _vertex_mask(g, within)
    return (_components_if_cliques(g, mask) is not None
            or cograph_coloring(g, mask, [0] * g.n) is not None)
