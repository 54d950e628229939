"""Seeded benchmark inputs whose answers are known by construction.

Every graph is built from an edge list through ``gemfree.graphs.build_graph``;
no other gemfree code is involved, so the answers below do not come from the
code under test:

- membership: the class of {P3 u P2, gem}-free graphs is hereditary, so induced
  subgraphs of complete expansions of C5 and C4, of the Schlaefli-graph
  complement and of the Groetzsch graph are members; a non-member has a gem or
  a P3 u P2 written onto five of its vertices, or is a C5 expansion with two
  added edges that close a gem (see `gem_without_p3up2`);
- omega: from networkx ``find_cliques`` or, for full expansions, the bag sizes;
- chi: published values for the Groetzsch graph (4), its Mycielskian (5) and
  the Schlaefli complement (6); for graphs with independence number at most 2
  (every induced subgraph of a C5 or C4 expansion), n minus a maximum matching
  of the complement, computed with networkx.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable

import networkx as nx

from gemfree.graphs import Graph, build_graph

Edges = tuple[tuple[int, int], ...]

# Labelled forbidden patterns, pattern vertex i -> position i of an embedding.
GEM_EDGES: Edges = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4))  # apex 0 over path 1-2-3-4
P3UP2_EDGES: Edges = ((0, 1), (1, 2), (3, 4))  # path 0-1-2 plus edge 3-4
FORBIDDEN: dict[str, Edges] = {"gem": GEM_EDGES, "p3up2": P3UP2_EDGES}

C5_EDGES: Edges = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
C4_EDGES: Edges = ((0, 1), (1, 2), (2, 3), (0, 3))

GROETZSCH_CHI = 4
MU_GROETZSCH_CHI = 5
SCHLAFLI_COMPLEMENT_CHI = 6
SCHLAFLI_COMPLEMENT_OMEGA = 3


@dataclass(frozen=True)
class Case:
    """One benchmark input with its reference answers (None where unknown)."""

    label: str
    n: int
    edges: Edges
    graph: Graph
    member: bool | None  # None: not known by construction
    omega: int | None = None
    chi: int | None = None
    planted: tuple[str, tuple[int, ...]] | None = None  # pattern name, embedding


def _norm(edges) -> Edges:
    return tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))


def expansion(base_n: int, base_edges: Edges, sizes: list[int]) -> tuple[int, Edges]:
    """Complete expansion: base vertex i becomes a clique of sizes[i] vertices."""
    starts = list(itertools.accumulate([0] + sizes))
    bags = [range(starts[i], starts[i + 1]) for i in range(base_n)]
    edges = [e for bag in bags for e in itertools.combinations(bag, 2)]
    edges += [(x, y) for u, v in base_edges for x in bags[u] for y in bags[v]]
    return starts[-1], _norm(edges)


def mycielskian(n: int, edges: Edges) -> tuple[int, Edges]:
    """Vertices 0..n-1, shadows n..2n-1 (shadow of i sees N(i)), apex 2n."""
    out = list(edges)
    out += [(n + u, v) for u, v in edges] + [(n + v, u) for u, v in edges]
    out += [(n + i, 2 * n) for i in range(n)]
    return 2 * n + 1, _norm(out)


def groetzsch() -> tuple[int, Edges]:
    return mycielskian(5, C5_EDGES)


def schlafli_complement() -> tuple[int, Edges]:
    """Intersection graph of the 27 lines on a cubic surface.

    Lines a_i, b_i (i = 1..6) and c_ij: a_i meets b_j iff i != j, a_i and b_i
    meet c_jk iff i is in {j, k}, c_ij meets c_kl iff {i,j} and {k,l} are
    disjoint; a_i, a_j (and b_i, b_j) are skew.
    """
    lines = [("a", {i}) for i in range(6)] + [("b", {i}) for i in range(6)]
    lines += [("c", set(p)) for p in itertools.combinations(range(6), 2)]
    edges = []
    for (x, (kx, sx)), (y, (ky, sy)) in itertools.combinations(enumerate(lines), 2):
        if {kx, ky} == {"a", "b"}:
            meet = sx != sy
        elif kx == "c" and ky == "c":
            meet = not sx & sy
        elif "c" in (kx, ky):
            meet = bool(sx & sy)
        else:
            meet = False
        if meet:
            edges.append((x, y))
    return 27, _norm(edges)


def induced(edges: Edges, keep: list[int]) -> Edges:
    index = {v: i for i, v in enumerate(keep)}
    return _norm((index[u], index[v]) for u, v in edges if u in index and v in index)


def relabel(n: int, edges: Edges, rng: random.Random) -> tuple[Edges, list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return _norm((perm[u], perm[v]) for u, v in edges), perm


def plant(edges: Edges, pattern_edges: Edges, verts: tuple[int, ...]) -> Edges:
    """Overwrite the adjacency among `verts` with the pattern (i -> verts[i])."""
    inside = set(verts)
    kept = [(u, v) for u, v in edges if not (u in inside and v in inside)]
    return _norm(kept + [(verts[a], verts[b]) for a, b in pattern_edges])


def to_nx(n: int, edges: Edges) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h


def omega_ref(n: int, edges: Edges) -> int:
    return max((len(c) for c in nx.find_cliques(to_nx(n, edges))), default=0)


def chi_alpha2_ref(n: int, edges: Edges) -> int:
    """chi when alpha <= 2: colour classes are matched pairs of non-neighbours."""
    return n - len(nx.max_weight_matching(nx.complement(to_nx(n, edges)), maxcardinality=True))


def _near_balanced(total: int, parts: int, rng: random.Random, moves: int = 3) -> list[int]:
    """Composition of `total` into `parts` sizes within about `moves` of each other.

    Op cost grows steeply with the largest bags, so near-balanced bags keep the
    cost of an input of a given size from swinging between seeds.
    """
    sizes = [total // parts + (i < total % parts) for i in range(parts)]
    for _ in range(moves):
        src, dst = rng.sample(range(parts), 2)
        if sizes[src] > 1:
            sizes[src] -= 1
            sizes[dst] += 1
    rng.shuffle(sizes)
    return sizes


def _case(label: str, n: int, edges: Edges, rng: random.Random, *, member: bool | None = True,
          chi: int | None = None, omega: int | None = None,
          planted: tuple[str, tuple[int, ...]] | None = None) -> Case:
    """Relabel at random, then attach the reference answers."""
    edges, perm = relabel(n, edges, rng)
    if planted is not None:
        planted = (planted[0], tuple(perm[v] for v in planted[1]))
    if omega is None:
        omega = omega_ref(n, edges)
    return Case(label, n, edges, build_graph(n, edges, label), member, omega, chi, planted)


HOSTS = ("c5x", "c4x", "schlafli", "groetzsch")


def host(family: str, at_least: int, rng: random.Random) -> tuple[int, Edges]:
    """A class member with at least `at_least` vertices (Groetzsch: 11 at most)."""
    if family == "c5x":
        return expansion(5, C5_EDGES, _near_balanced(at_least + rng.randint(1, 3), 5, rng))
    if family == "c4x":
        return expansion(4, C4_EDGES, _near_balanced(at_least + rng.randint(1, 3), 4, rng))
    if family == "schlafli":
        return schlafli_complement()
    if family == "groetzsch":
        return groetzsch()
    raise ValueError(f"unknown host family {family!r}")


def member(family: str, n: int, rng: random.Random) -> Case:
    """Induced n-vertex subgraph of a random host of the family, relabelled."""
    big_n, big_edges = host(family, n, rng)
    keep = sorted(rng.sample(range(big_n), n))
    edges = induced(big_edges, keep)
    # induced subgraphs of C5/C4 expansions keep alpha <= 2
    chi = chi_alpha2_ref(n, edges) if family in ("c5x", "c4x") else None
    return _case(f"{family}-sub", n, edges, rng, chi=chi)


def non_member(family: str, n: int, pattern: str, rng: random.Random) -> Case:
    """A member with `pattern` written onto five random vertices, relabelled."""
    big_n, big_edges = host(family, n, rng)
    keep = sorted(rng.sample(range(big_n), n))
    verts = tuple(rng.sample(range(n), 5))
    edges = plant(induced(big_edges, keep), FORBIDDEN[pattern], verts)
    return _case(f"{family}+{pattern}", n, edges, rng, member=False, planted=(pattern, verts))


def gem_without_p3up2(n: int, rng: random.Random) -> Case:
    """A C5 expansion in which one vertex x of bag 4 also sees one vertex b of
    bag 1 and one vertex c of bag 2, relabelled.

    With a vertex a of bag 0 and d of bag 3, x is the apex of a gem over the
    path a-b-c-d. The graph has no induced P3 u P2 (checked in the tests), so a
    membership test finds the gem only after a complete P3 u P2 search.
    """
    sizes = _near_balanced(n, 5, rng)
    _, edges = expansion(5, C5_EDGES, sizes)
    starts = list(itertools.accumulate([0] + sizes))
    x, a, b, c, d = (rng.randrange(starts[i], starts[i + 1]) for i in (4, 0, 1, 2, 3))
    return _case("c5x+gem-only", n, _norm(edges + ((x, b), (x, c))), rng, member=False,
                 planted=("gem", (x, a, b, c, d)))


def witness(name: str, rng: random.Random) -> Case:
    """A fixed witness graph, relabelled."""
    if name == "groetzsch":
        n, edges = groetzsch()
        return _case(name, n, edges, rng, chi=GROETZSCH_CHI, omega=2)
    if name == "mu-groetzsch":
        n, edges = mycielskian(*groetzsch())
        return _case(name, n, edges, rng, member=None, chi=MU_GROETZSCH_CHI, omega=2)
    if name == "schlafli":
        n, edges = schlafli_complement()
        return _case(name, n, edges, rng, chi=SCHLAFLI_COMPLEMENT_CHI,
                     omega=SCHLAFLI_COMPLEMENT_OMEGA)
    raise ValueError(f"unknown witness {name!r}")


def c5_expansion(n: int, rng: random.Random) -> Case:
    """Full C5 expansion on n vertices: omega from the bag sizes, chi by matching."""
    sizes = _near_balanced(n, 5, rng)
    _, edges = expansion(5, C5_EDGES, sizes)
    omega = max(sizes[i] + sizes[(i + 1) % 5] for i in range(5))
    return _case("c5x", n, edges, rng, chi=chi_alpha2_ref(n, edges), omega=omega)


# ---- workload input sets ---------------------------------------------------
# Each set is a stratified ladder: every size appears in every family, so the
# mix of input sizes, which dominates op cost, is the same for every seed.
# The ladder is laid out in rounds that each cover all sizes in a seeded
# order. The more inputs a set holds, the less its cost depends on the seed.

CERTIFY_SIZES = tuple(range(18, 27))
SCREEN_SIZES = tuple(range(18, 27))
EXACT_EXPANSION_SIZES = tuple(range(10, 17))
CLI_SIZES = tuple(range(9, 16)) * 2


def _rounds(kinds: Iterable, sizes: tuple[int, ...], rng: random.Random, make) -> list[Case]:
    cases = []
    for kind in kinds:
        order = list(sizes)
        rng.shuffle(order)
        cases += [make(kind, n) for n in order]
    return cases


def certify_cases(seed: int) -> list[Case]:
    """The three fixed witnesses, then four blocks of one member per size with
    the families rotating over the sizes from block to block.

    The witnesses appear once: the Schlaefli complement is the costliest input,
    and more copies would put the p90 at the edge of its cluster of latencies.
    """
    rng = random.Random(f"certify:{seed}")
    families = ("c5x", "c4x", "schlafli", "c5x")
    cases = [witness("groetzsch", rng), witness("schlafli", rng), member("groetzsch", 9, rng)]
    for b in range(len(families)):
        block = [member(families[(i + b) % len(families)], n, rng) for i, n in enumerate(CERTIFY_SIZES)]
        rng.shuffle(block)
        cases += block
    return cases


def screen_cases(seed: int) -> list[Case]:
    """Six members to four non-members per size.

    Members and the gem-only non-member cost a full P3 u P2 search; the other
    non-members usually hold a P3 u P2 near their planted five vertices and
    stop early. With 70% of the ops in the slow group the median lies inside
    it instead of in the gap between the groups, where it would jump from
    seed to seed.
    """
    rng = random.Random(f"screen:{seed}")
    kinds = [lambda n: member("c5x", n, rng), lambda n: gem_without_p3up2(n, rng),
             lambda n: member("c4x", n, rng), lambda n: non_member("schlafli", n, "gem", rng),
             lambda n: member("schlafli", n, rng), lambda n: non_member("c4x", n, "p3up2", rng),
             lambda n: member("c5x", n, rng), lambda n: non_member("c5x", n, "p3up2", rng),
             lambda n: member("c4x", n, rng), lambda n: member("schlafli", n, rng)]
    return _rounds(kinds, SCREEN_SIZES, rng, lambda make, n: make(n))


def exact_cases(seed: int) -> list[Case]:
    rng = random.Random(f"exact:{seed}")
    cases = [witness(name, rng) for name in ("groetzsch", "schlafli", "mu-groetzsch")]
    return cases + _rounds(range(72), EXACT_EXPANSION_SIZES, rng, lambda _, n: c5_expansion(n, rng))


def cli_cases(seed: int) -> list[Case]:
    rng = random.Random(f"cli:{seed}")
    cases = [witness("groetzsch", rng)]
    for n in CLI_SIZES:
        cases += [member("c5x", n, rng), member("c4x", n, rng), member("schlafli", n, rng)]
        cases += [non_member("c5x", n, "gem", rng), non_member("schlafli", n, "p3up2", rng)]
    return cases
