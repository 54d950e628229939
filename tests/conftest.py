import random
import sys

import networkx as nx
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from gemfree.exact import _k_colorable, max_clique
from gemfree.generators import STRATEGIES, SamplingError, random_class_member
from gemfree.graphs import Graph, _vertex_mask, bits, build_graph, complement
from gemfree.patterns import NAMED_PATTERNS, PatternWitness, is_class_member, pattern


@st.composite
def small_graphs(draw, min_n=1, max_n=9):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)) if pairs
                 else st.just([]))
    return build_graph(n, picks)


@st.composite
def sampled_members(draw):
    """A seeded class member from any sampling strategy, with its seed."""
    strategy = draw(st.sampled_from(STRATEGIES))
    n = draw(st.integers(1, 16 if strategy == "reject" else 40))
    seed = draw(st.integers(0, 10**6))
    try:
        return random_class_member(n, seed, strategy), seed
    except SamplingError:
        assume(False)


@st.composite
def alpha2_graphs(draw, max_n=8):
    """Complements of triangle-free graphs, so alpha <= 2: each pair, in a
    drawn order, becomes a complement edge unless it would close a triangle."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = draw(st.permutations([(u, v) for u in range(n) for v in range(u + 1, n)]))
    adj = [0] * n
    for u, v in pairs[:draw(st.integers(min_value=0, max_value=len(pairs)))]:
        if not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return complement(Graph(n, tuple(adj)))


def dsatur_chi(g):
    """chi by the DSATUR search alone: the route `chromatic_number` takes on
    every input with alpha > 2, kept as a reference for the alpha <= 2 one."""
    if g.n == 0:
        return 0
    clique = sorted(bits(max_clique(g).witness))
    k = len(clique)
    while _k_colorable(g, k, clique) is None:
        k += 1
    return k


def reference_k_colorable(g: Graph, k: int, clique: list[int]) -> list[int] | None:
    """DSATUR-ordered backtracking k-colorability decision, as `exact._k_colorable`
    ran before it kept its vertex scores incrementally: `pick` rescores every
    uncoloured vertex at each step. Kept as the oracle for the package kernel's
    search tree and returned colouring.

    `clique` vertices are precolored 1..|clique| to break color symmetry;
    callers start k at |clique|.
    Each step colours the uncoloured vertex with the most forbidden colours,
    ties broken by most uncoloured neighbours, then by lowest index. It tries
    its allowed colours ascending, up to one above the highest used so far,
    and backtracks as soon as some neighbour has all k colours forbidden.
    Returns a proper coloring (1-based list) or None.
    """
    n = g.n
    colors = [0] * n
    # forbidden[v] = bitmask of colors (bit c-1) already on neighbors of v
    forbidden = [0] * n
    every = (1 << k) - 1
    uncolored = g.full_mask
    for i, v in enumerate(clique):
        colors[v] = i + 1
        uncolored &= ~(1 << v)
        for u in bits(g.adj[v]):
            forbidden[u] |= 1 << i

    def pick() -> int:
        best_v = -1
        best_key = (-1, -1)
        for v in bits(uncolored):
            key = (forbidden[v].bit_count(), (g.adj[v] & uncolored).bit_count())
            if key > best_key:
                best_key = key
                best_v = v
        return best_v

    def solve(max_used: int) -> bool:
        nonlocal uncolored
        if not uncolored:
            return True
        v = pick()
        limit = min(k, max_used + 1)
        avail = ~forbidden[v] & ((1 << limit) - 1)
        uncolored &= ~(1 << v)
        for c in bits(avail):
            colors[v] = c + 1
            touched = []
            ok = True
            for u in bits(g.adj[v] & uncolored):
                if not forbidden[u] >> c & 1:
                    forbidden[u] |= 1 << c
                    touched.append(u)
                    if forbidden[u] == every:
                        ok = False
            if ok and solve(max(max_used, c + 1)):
                return True
            for u in touched:
                forbidden[u] &= ~(1 << c)
        colors[v] = 0
        uncolored |= 1 << v
        return False

    if solve(len(clique)):
        return colors
    return None


def reference_max_matching(n: int, adj: list[int]) -> list[int]:
    """Maximum-cardinality matching of the graph with neighbour masks `adj`, as
    `exact._max_matching` ran before it skipped searches that cannot succeed:
    one search from each vertex still free, over `bits()` loops. Kept as the
    oracle for the package kernel's `mate`.

    Edmonds' blossom algorithm: a greedy matching, then one BFS from each
    vertex still free. The BFS grows an alternating tree from the root; an
    edge between two outer vertices closes an odd cycle (a blossom), which is
    contracted by pointing the `base` of its vertices at the cycle's base, and
    the first free vertex reached ends an augmenting path that is flipped. A
    root with no augmenting path never gets one later, so one search per root
    suffices: O(n^3) in all. Returns `mate`, with mate[v] = -1 if v is free.
    """
    mate = [-1] * n
    free = (1 << n) - 1
    for v in range(n):
        cand = adj[v] & free
        if free >> v & 1 and cand:
            u = (cand & -cand).bit_length() - 1
            mate[u], mate[v] = v, u
            free &= ~(1 << u | 1 << v)
    for root in range(n):
        if mate[root] < 0:
            reference_augment_from(root, n, adj, mate)
    return mate


def reference_augment_from(root: int, n: int, adj: list[int], mate: list[int]) -> None:
    """Flip one augmenting path from the free vertex `root`, if there is one."""
    base = list(range(n))
    members = [1 << v for v in range(n)]  # members[b]: vertices whose base is b
    parent = [-1] * n  # previous vertex on an alternating path: inner vertices, blossom members
    outer = 1 << root  # vertices queued as even ends of alternating paths
    inner = 0  # odd tree vertices outside any blossom: an edge to one changes nothing
    queue = [root]

    def lca(a: int, b: int) -> int:
        """Base of the blossom an edge between outer vertices a and b closes."""
        path = 0
        while True:
            a = base[a]
            path |= 1 << a
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if path >> b & 1:
                return b
            b = parent[mate[b]]

    def mark(v: int, b: int, child: int, blossom: int) -> int:
        """Add the bases from v down to b to `blossom`, threading parents through child."""
        while base[v] != b:
            blossom |= 1 << base[v] | 1 << base[mate[v]]
            parent[v] = child
            child = mate[v]
            v = parent[child]
        return blossom

    for v in queue:
        for to in bits(adj[v] & ~inner & ~members[base[v]]):
            if base[v] == base[to] or mate[v] == to:  # a contraction in this scan can merge them
                continue
            if outer >> to & 1:
                b = lca(v, to)
                blossom = mark(to, b, v, mark(v, b, to, 0))
                grown = 0
                for x in bits(blossom & ~(1 << b)):
                    grown |= members[x]
                members[b] |= grown
                for i in bits(grown):
                    base[i] = b
                    if not outer >> i & 1:
                        outer |= 1 << i
                        inner &= ~(1 << i)
                        queue.append(i)
            elif parent[to] < 0:
                parent[to] = v
                inner |= 1 << to
                if mate[to] < 0:  # the path root .. v, to augments: flip it
                    while to >= 0:
                        p = parent[to]
                        nxt = mate[p]
                        mate[to], mate[p] = p, to
                        to = nxt
                    return
                outer |= 1 << mate[to]
                queue.append(mate[to])


def reference_max_clique(g, within=None):
    """(omega, witness) by the plain branch and bound over the vertices of
    `within`, kept as the oracle for `max_clique`'s search on the twin
    quotient: cliques met in lexicographic order, the greedy colour-class
    count as the bound, and only a strictly larger clique kept."""
    best = witness = 0

    def color_bound(cand):
        classes = 0
        while cand:
            classes += 1
            avail = cand
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~g.adj[v] & ~(1 << v)
                cand &= ~(1 << v)
        return classes

    def expand(size, clique, cand):
        nonlocal best, witness
        while cand:
            if size + color_bound(cand) <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= ~(1 << v)
            new = cand & g.adj[v]
            if size + 1 + new.bit_count() > best:
                if new:
                    expand(size + 1, clique | 1 << v, new)
                else:
                    best, witness = size + 1, clique | 1 << v

    expand(0, 0, g.full_mask if within is None else within)
    return best, witness


def reference_find_induced(host, name, within=None):
    """The plain backtracking `find_induced` ran before forward checking, kept
    as its oracle: each pattern vertex's candidates are computed only when it
    is reached, from the free vertices of `within` and the rows of the
    vertices placed before it, and tried ascending."""
    key = pattern(name)
    p = NAMED_PATTERNS[key]
    free = _vertex_mask(host, within)
    assignment = [0] * p.n

    def place(i: int, used: int) -> bool:
        if i == p.n:
            return True
        cand = free & ~used
        for j in range(i):
            row = host.adj[assignment[j]]
            cand &= row if p.adj[i] >> j & 1 else ~row
        for v in bits(cand):
            assignment[i] = v
            if place(i + 1, used | (1 << v)):
                return True
        return False

    if place(0, 0):
        return PatternWitness(key, tuple(assignment))
    return None


def case21_graph():
    """omega=4 member engineered to hit the shared-pool case (|D1 n D2| >= 2)."""
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(4, 5), (6, 7), (4, 1), (5, 1), (6, 0), (7, 0)]
    edges += [(x, y) for x in (4, 5) for y in (6, 7)]
    return build_graph(8, edges, "case21")


def prism(m):
    """K_m □ K_2: two K_m, vertex i of one matched to vertex m + i of the
    other. Twin-free, and every neighbourhood is K_(m-1) plus one vertex."""
    clique = [(u, v) for u in range(m) for v in range(u + 1, m)]
    edges = clique + [(u + m, v + m) for u, v in clique] + [(i, m + i) for i in range(m)]
    return build_graph(2 * m, edges, f"prism{m}")


def cocktail_party(m):
    """K_(m x 2): the complement of the perfect matching {2i, 2i + 1}. Twin-free."""
    return complement(build_graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)]))


def alternating_threshold(n):
    """Odd v adjacent to every u < v: a cograph whose cotree is about n levels deep."""
    return build_graph(n, [(u, v) for v in range(1, n, 2) for u in range(v)])


def template_members(clique, sides, draws, seed):
    """The class members among `draws` seeded graphs: K_clique on 0..clique-1
    plus 4-6 extra vertices, each adjacent to exactly one vertex of `sides`
    and to no other clique vertex, the pairs of extra vertices edges with
    p = 1/2. With clique 4 and sides (0, 1) the extra vertices fill C_{2,3}
    and C_{1,3}, so both C' cells nonempty means Case 2.1; with clique 3 and
    sides (1, 2) they fill C_{1,3} and C_{1,2}."""
    rng = random.Random(seed)
    members = []
    for _ in range(draws):
        n = clique + rng.randint(4, 6)
        edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
        edges += [(v, rng.choice(sides)) for v in range(clique, n)]
        edges += [(u, v) for u in range(clique, n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = build_graph(n, edges)
        if is_class_member(g)[0]:
            members.append(g)
    return members


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def relabel(g, perm):
    """Image of g under the vertex map v -> perm[v]."""
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in bits(g.adj[v]):
            row |= 1 << perm[u]
        adj[perm[v]] = row
    return Graph(g.n, tuple(adj), g.name)


def delete_vertex(g, v):
    """G - v, the vertices above v moving down by one."""
    return build_graph(g.n - 1, [(a - (a > v), b - (b > v)) for a, b in g.edges() if v not in (a, b)])


def count_calls(monkeypatch, func):
    """Calls of `func`, as their positional arguments, through every loaded
    gemfree module that binds its name: a recursive call counts too."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "gemfree" and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counted)
    return calls


TOKENS = ["p", "e", "edge", "c", "x", "-1", *map(str, range(10)), "600",
          "{", "}", "[", "]", '"', ",", ":", '"n"', '"edges"']


def token_texts():
    """Up to six lines of up to six input-format tokens each."""
    lines = st.lists(st.lists(st.sampled_from(TOKENS), max_size=6), max_size=6)
    return lines.map(lambda ls: "\n".join(" ".join(line) for line in ls))


@pytest.fixture(scope="session")
def atlas():
    """networkx's graph atlas, the 1,253 graphs on at most 7 vertices, as
    gemfree graphs in atlas order."""
    return tuple(build_graph(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g())


@pytest.fixture(scope="session")
def corpus():
    """Deterministic class-member corpus shared across the slower tests."""
    from gemfree.generators import class_corpus

    return class_corpus(count=60, n_range=(5, 14), seed=1)
