"""Immutable simple graphs over dense 0-based vertices with bitmask adjacency.

Vertex sets are plain Python ints used as bit vectors (bit v set means vertex
v is in the set), so set algebra is int arithmetic on at most 512 bits, the
largest n this package supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 512


class GraphError(ValueError):
    """Malformed graph input (bad endpoint, self-loop, out-of-range set bit)."""


def mask_of(vertices: Iterable[int]) -> int:
    """Bit-vector of a vertex collection."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_vertex_count(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")


def _components(adj: tuple[int, ...], remaining: int, flip: int) -> list[int]:
    """Components of <remaining> in the graph (flip=0) or its complement (flip=-1)."""
    comps = []
    while remaining:
        start = remaining & -remaining
        comp = start
        frontier = start
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v] ^ flip
            grow &= remaining & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        remaining &= ~comp
    return comps


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: rows (adj[v] is v's neighbor bitmask), a name, n = len(adj)."""

    adj: tuple[int, ...]
    name: str = ""
    n: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", len(self.adj))
        _check_vertex_count(self.n)
        full = self.full_mask
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise GraphError(f"adjacency row {v} has bits >= n")
            if row >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            for u in bits(self.adj[v] >> (v + 1) << (v + 1)):
                out.append((v, u))
        return out

    def components(self, within: int | None = None) -> list[int]:
        """Connected-component masks, restricted to `within` if given.

        Returned in ascending order of least vertex.
        """
        return _components(self.adj, _vertex_mask(self, within), 0)

    def is_clique(self, mask: int) -> bool:
        mask = _vertex_mask(self, mask)
        for v in bits(mask):
            if (self.adj[v] & mask) != mask & ~(1 << v):
                return False
        return True


def _vertex_mask(g: Graph, within: int | None) -> int:
    """`within` as a vertex mask of g, all vertices if None; GraphError if it
    has a bit outside 0..n-1 (a negative int has infinitely many)."""
    if within is None:
        return g.full_mask
    if within >> g.n:
        raise GraphError(f"vertex mask {within:#x} has bits outside the {g.n} vertices")
    return within


def _trusted_graph(adj: tuple[int, ...], name: str = "") -> Graph:
    """`Graph(adj, name)` for rows that are in range, loop-free and
    symmetric by construction: only the vertex count len(adj) is checked, as
    a join or a disjoint union can exceed it."""
    _check_vertex_count(len(adj))
    g = object.__new__(Graph)
    g.__dict__.update(adj=adj, name=name, n=len(adj))
    return g


def build_graph(n: int, edges: Iterable[tuple[int, int]], name: str = "") -> Graph:
    """Graph from an edge list; duplicates collapse, endpoints validated."""
    _check_vertex_count(n)
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _trusted_graph(tuple(adj), name)


def complement(g: Graph) -> Graph:
    full = g.full_mask
    adj = tuple((full & ~g.adj[v]) & ~(1 << v) for v in range(g.n))
    return _trusted_graph(adj, f"co-{g.name}" if g.name else "")


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    adj = list(g1.adj) + [row << g1.n for row in g2.adj]
    return _trusted_graph(tuple(adj))


def join(g1: Graph, g2: Graph) -> Graph:
    left_full = (1 << g1.n) - 1
    right_full = ((1 << g2.n) - 1) << g1.n
    adj = [row | right_full for row in g1.adj]
    adj += [(row << g1.n) | left_full for row in g2.adj]
    return _trusted_graph(tuple(adj))


def _twin_classes(g: Graph, mask: int, closed: bool = True) -> dict[int, int]:
    """The twin classes of <mask>: {least vertex: class mask}, ascending.

    Two vertices of <mask> are true twins when their closed neighbourhoods
    inside <mask> are equal, and false twins (closed=False) when their open
    ones are. Classes of G can merge inside a mask: vertices told apart only
    by vertices outside it share a class of <mask>.
    """
    first: dict[int, int] = {}  # neighbourhood inside <mask> -> least vertex
    classes: dict[int, int] = {}
    adj = g.adj
    # walking a range is cheaper than walking the bits of a full mask
    for v in range(g.n) if mask == g.full_mask else bits(mask):
        r = first.setdefault(adj[v] & mask | closed << v, v)  # True << v is 1 << v
        classes[r] = classes.get(r, 0) | 1 << v
    return classes


def cograph_coloring(g: Graph, mask: int, colors: list[int], base: int = 0) -> int | None:
    """Optimal coloring of <mask> by its cotree, written into the caller's `colors`.

    The vertices of <mask> take colors base+1..base+k; the return value is k
    (0 for an empty mask), or None if <mask> has an induced P4. A P4-free
    graph on two or more vertices is disconnected or co-disconnected
    (Seinsche 1974), so the walk meets a connected, co-connected node exactly
    when <mask> has a P4. Components reuse colors; the co-components of a
    join take disjoint color ranges.
    """
    if not mask & (mask - 1):
        if not mask:
            return 0
        colors[mask.bit_length() - 1] = base + 1
        return 1
    comps = _components(g.adj, mask, 0)
    is_join = len(comps) == 1
    if is_join:
        comps = _components(g.adj, mask, -1)
        if len(comps) == 1:
            return None
    used = 0
    for comp in comps:
        k = cograph_coloring(g, comp, colors, base + used if is_join else base)
        if k is None:
            return None
        used = used + k if is_join else max(used, k)
    return used


def first_occurrence_colors(colors: Sequence[int]) -> tuple[int, ...]:
    """`colors` renumbered 1..k in order of first occurrence; 0 (uncoloured) stays 0."""
    label = {0: 0}
    for c in colors:
        if c not in label:
            label[c] = len(label)
    return tuple([label[c] for c in colors])


@dataclass(frozen=True)
class Coloring:
    """Total vertex coloring; colors are positive ints, num_colors = max used."""

    colors: tuple[int, ...]
    num_colors: int = field(init=False)

    def __post_init__(self) -> None:
        if min(self.colors, default=1) < 1:
            raise GraphError("colors must be positive integers")
        object.__setattr__(self, "num_colors", max(self.colors, default=0))

    @property
    def distinct_colors(self) -> int:
        return len(set(self.colors))
