"""Witness-graph constructions and random class-member sampling.

The fixed witnesses are the tightness examples: the Groetzsch graph (omega=2,
chi=4), the Schlafli-graph complement (omega=3, chi=6), and the complete
expansions of C5 realizing chi = ceil(5*omega/4).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .graphs import (
    MAX_VERTICES, Graph, GraphError, _check_vertex_count, _trusted_graph, bits, build_graph,
)
from .patterns import (
    NAMED_PATTERNS,
    complete_graph,
    cycle_graph,
    is_class_member,
    path_graph,
)


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


@dataclass(frozen=True)
class ExpansionSpec:
    base: Graph
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != self.base.n:
            raise GraphError("one bag size per base vertex required")
        if any(m < 1 for m in self.sizes):
            raise GraphError("bag sizes must be positive")
        _check_vertex_count(sum(self.sizes))


def expansion_bags(spec: ExpansionSpec) -> list[list[int]]:
    """Contiguous vertex ranges occupied by each bag."""
    bags = []
    start = 0
    for m in spec.sizes:
        bags.append(list(range(start, start + m)))
        start += m
    return bags


def complete_expansion(spec: ExpansionSpec) -> Graph:
    """Replace base vertex i by a clique K_{m_i}; join bags across base edges."""
    bags = expansion_bags(spec)
    edges = []
    for bag in bags:
        edges.extend(itertools.combinations(bag, 2))
    for u, v in spec.base.edges():
        edges.extend((x, y) for x in bags[u] for y in bags[v])
    name = f"K[{spec.base.name or 'G'}]({','.join(map(str, spec.sizes))})"
    return build_graph(sum(spec.sizes), edges, name)


def mycielskian(g: Graph) -> Graph:
    """2n+1 vertices: originals, shadow y_i adjacent to N(x_i), apex over shadows."""
    n = g.n
    edges = list(g.edges())
    for i in range(n):
        for jv in bits(g.adj[i]):
            edges.append((n + i, jv))
    apex = 2 * n
    edges.extend((apex, n + i) for i in range(n))
    return build_graph(2 * n + 1, edges, f"mu({g.name})" if g.name else "mycielskian")


def groetzsch_graph() -> Graph:
    g = mycielskian(cycle_graph(5))
    return _trusted_graph(g.n, g.adj, "groetzsch")


@functools.cache
def schlafli_complement() -> Graph:
    """Intersection graph of the 27 lines on a cubic surface.

    Vertices: a_1..a_6, b_1..b_6, c_{ij} (i<j). Adjacency: a_i ~ b_j iff
    i != j; a_i, b_i ~ c_{jk} iff i in {j,k}; c_{ij} ~ c_{kl} iff the index
    pairs are disjoint. Verified strongly regular (27, 10, 1, 5) on the one
    build per process; the graph is immutable, so every call returns it.
    """
    labels: list[tuple[str, object]] = [("a", i) for i in range(1, 7)]
    labels += [("b", i) for i in range(1, 7)]
    labels += [("c", frozenset(p)) for p in itertools.combinations(range(1, 7), 2)]
    index = {lab: i for i, lab in enumerate(labels)}
    edges = []
    for x, y in itertools.combinations(labels, 2):
        tx, vx = x
        ty, vy = y
        if {tx, ty} == {"a", "b"}:
            adj = vx != vy
        elif tx in "ab" and ty == "c":
            adj = vx in vy  # type: ignore[operator]
        elif tx == "c" and ty == "c":
            adj = not (vx & vy)  # type: ignore[operator]
        else:  # a-a or b-b: skew lines
            adj = False
        if adj:
            edges.append((index[x], index[y]))
    g = build_graph(27, edges, "schlafli-complement")
    params = check_srg(g)
    if params != (27, 10, 1, 5):
        raise GraphError(f"27-lines construction failed SRG check: {params}")
    return g


def check_srg(g: Graph) -> tuple[int, int, int, int] | None:
    """(n, k, lambda, mu) if G is strongly regular, else None; brute force over vertex pairs.

    One degree, one lambda and one mu are required: complete and edgeless graphs are not.
    """
    lams: set[int] = set()
    mus: set[int] = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            (lams if g.has_edge(u, v) else mus).add((g.adj[u] & g.adj[v]).bit_count())
    degrees = {g.degree(v) for v in range(g.n)}
    if len(degrees) != 1 or len(lams) != 1 or len(mus) != 1:
        return None
    return g.n, degrees.pop(), lams.pop(), mus.pop()


def named_graph(name: str) -> Graph:
    """Canonical construction of a named graph (case-insensitive)."""
    key = name.lower()
    if key in NAMED_PATTERNS:
        return NAMED_PATTERNS[key]
    if key == "groetzsch":
        return groetzsch_graph()
    if key == "schlafli-complement":
        return schlafli_complement()
    families = {"k": complete_graph, "p": path_graph, "c": cycle_graph}
    if key[:1] in families and key[1:].isdigit():
        n = int(key[1:])
        _check_vertex_count(n)
        return families[key[0]](n)
    raise GraphError(f"unknown graph name {name!r}")


REJECTION_P_GRID = (0.2, 0.35, 0.5, 0.65, 0.8)
REJECTION_ATTEMPTS_PER_P = 200
STRATEGIES = ("reject", "expand", "prune")


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p): each pair u < v, in ascending order, is an edge with probability p."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def random_class_member(n: int, seed: int, strategy: str = "reject") -> Graph:
    """Deterministic sampler of {P3 u P2, gem}-free graphs on n >= 1 vertices."""
    if n < 1:
        raise GraphError(f"sampling requires at least one vertex, got n={n}")
    _check_vertex_count(n)
    rng = random.Random((strategy, n, seed).__repr__())
    if strategy == "reject":
        if n > 16:
            raise GraphError("rejection strategy limited to n <= 16")
        draws = (gnp(n, p, rng) for p in REJECTION_P_GRID for _ in range(REJECTION_ATTEMPTS_PER_P))
        failure = "no member found"
    elif strategy == "expand":
        draws = (_expand_draw(n, rng) for _ in range(200))
        failure = "no expansion member"
    elif strategy == "prune":
        draws = (_prune_draw(n, rng) for _ in range(200))
        failure = "no pruned member"
    else:
        raise GraphError(f"unknown strategy {strategy!r}")
    for g in draws:
        if g is not None and is_class_member(g)[0]:
            return g
    raise SamplingError(f"{failure} for n={n}, seed={seed}")


def _expand_draw(n: int, rng: random.Random) -> Graph:
    """A complete expansion on n vertices of a random small base."""
    bases = [cycle_graph(5), cycle_graph(4), complete_graph(3),
             complete_graph(2), complete_graph(1)]
    base = rng.choice([b for b in bases if b.n <= n])
    sizes = _random_composition(n, base.n, rng)
    return complete_expansion(ExpansionSpec(base, tuple(sizes)))


def _prune_draw(n: int, rng: random.Random) -> Graph | None:
    """n random vertices of the Schlafli complement or of an expansion of C5 or C4, or None."""
    if rng.random() < 0.5 and n <= 27:
        big = schlafli_complement()
    else:
        base = rng.choice([cycle_graph(5), cycle_graph(4)])
        # capped after the draw: members with n + 5 <= MAX_VERTICES
        # are the ones the uncapped sampler drew
        total = min(n + rng.randint(1, 5), MAX_VERTICES)
        if total < base.n:
            return None
        sizes = _random_composition(total, base.n, rng)
        big = complete_expansion(ExpansionSpec(base, tuple(sizes)))
    keep = sorted(rng.sample(range(big.n), n))
    idx = {v: i for i, v in enumerate(keep)}
    edges = [(idx[u], idx[v]) for u, v in big.edges() if u in idx and v in idx]
    return build_graph(n, edges)


def _random_composition(total: int, parts: int, rng: random.Random) -> list[int]:
    """Composition of `total` into `parts` positive parts, uniform over cut sets."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    prev = 0
    out = []
    for c in cuts + [total]:
        out.append(c - prev)
        prev = c
    return out


def class_corpus(count: int = 200, n_range: tuple[int, int] = (5, 14),
                 seed: int = 0) -> list[Graph]:
    """Deterministic corpus of class members for property and acceptance tests.

    Small sizes come from rejection sampling, larger ones from expansions and
    pruning, so the corpus mixes sparse members with omega >= 3 structure.
    """
    lo, hi = n_range
    if lo > hi:
        raise GraphError(f"empty size range n_range={n_range}: min {lo} > max {hi}")
    sizes = list(range(lo, hi + 1))
    corpus: list[Graph] = []
    i = 0
    while len(corpus) < count:
        n = sizes[i % len(sizes)]
        if n <= 8:
            strategy = ("reject", "expand", "prune")[i % 3]
        else:
            strategy = ("expand", "prune")[i % 2]
        try:
            corpus.append(random_class_member(n, seed + i, strategy))
        except SamplingError:
            pass
        i += 1
    return corpus
