"""Exact combinatorial oracles: maximum clique and chromatic number.

All solvers are exact and deterministic in their returned values; they are
sized for the desk-scale instances this package cares about (n <= 64 for the
chromatic search, n <= a few hundred for cliques). Cliques are found on the
true-twin quotient, each class weighted by its size, so a twin-rich input
such as K[C5](102) (n = 510, five classes) is searched as a handful of
vertices; a twin-free input has every weight 1 and keeps the plain search.

When alpha(G) <= 2, chi(G) = n - nu(co-G), where nu is the size of a maximum
matching: colour classes have at most two vertices, and the two-vertex classes
are the matched non-edges. `chromatic_number` and `chi_alpha2_shortcut` decide
alpha <= 2 as "co-G is triangle-free" in O(n^2) mask operations and then run
Edmonds' blossom algorithm on the complement masks in O(n^3); only inputs
with alpha > 2 reach the DSATUR search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Coloring, Graph, _twin_classes, bits, first_occurrence_colors


EXACT_MAX_N = 64  # default guardrail of `chromatic_number`: larger inputs are refused


class SizeGuardError(ValueError):
    """Instance exceeds the exactness guardrail."""


@dataclass(frozen=True)
class CliqueResult:
    omega: int
    witness: int  # vertex bitmask, lexicographically least maximum clique


@dataclass(frozen=True)
class ChiResult:
    chi: int
    witness: Coloring


def max_clique(g: Graph, within: int | None = None) -> CliqueResult:
    """Clique number plus the lexicographically least maximum clique of <within>.

    `within` is a vertex mask of G (default: all vertices). The search runs
    on the true-twin quotient of G[within] (`graphs._twin_classes`), whose
    vertices are the class representatives, each weighted by its class size:

    - A true twin of a clique vertex sees the rest of the clique, so every
      maximum clique of G[within] is a union of whole classes, and omega is
      the largest weight of a clique of representatives.
    - One branch and bound over bitmask candidate sets. A candidate set is a
      union of whole classes, so its least vertex is a representative, and
      its weight is its bit count. A clique of classes is cut once its
      weight plus the bound on its candidates cannot beat the best so far.
      The bound colours the candidate representatives greedily, ascending,
      and sums the largest weight in each colour class. A twin-free input
      has every weight 1, so its search is the plain one.
    - The depth-first search adds representatives in ascending order, so it
      meets cliques of classes in lexicographic order of their ascending
      representative lists. Two of equal weight never nest, so this is also
      the order of the ascending vertex lists of their unions: the least
      element of the symmetric difference of the unions is the least
      vertex of a class in one clique and not in the other, a
      representative. Pruning never cuts a branch that could beat the
      incumbent, and only a strictly heavier clique replaces it. So the
      first maximum clique met, which is the one kept, is the least.
    """
    within = g.full_mask if within is None else within
    classes = _twin_classes(g, within)
    adj = g.adj
    reps = 0
    weight = [0] * g.n
    for r, cls in classes.items():
        reps |= 1 << r
        weight[r] = cls.bit_count()
    best = 0
    witness = 0

    def bound(cand: int) -> int:
        """Sum over greedy colour classes of the candidate representatives
        of the heaviest weight in each."""
        total = 0
        remaining = cand & reps
        while remaining:
            heaviest = 0
            avail = remaining
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= ~(adj[v] | low)
                remaining ^= low
                if weight[v] > heaviest:
                    heaviest = weight[v]
            total += heaviest
        return total

    def expand(size: int, clique: int, cand: int) -> None:
        nonlocal best, witness
        while cand:
            if size + bound(cand) <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cls = classes[v]
            cand &= ~cls
            new = cand & adj[v]
            grown = size + weight[v]
            if grown + new.bit_count() > best:
                if new:
                    expand(grown, clique | cls, new)
                else:
                    best = grown
                    witness = clique | cls

    expand(0, 0, within)
    return CliqueResult(best, witness)


def _k_colorable(g: Graph, k: int, clique: list[int]) -> list[int] | None:
    """DSATUR-ordered backtracking k-colorability decision.

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


def _alpha2_complement(g: Graph) -> list[int] | None:
    """Neighbour masks of the complement if alpha(G) <= 2, else None.

    alpha(G) <= 2 iff co-G is triangle-free, that is iff no complement edge
    uv, u < v, has ends with a common complement neighbour: O(n^2) mask ANDs.
    """
    full = g.full_mask
    co = [full & ~row & ~(1 << v) for v, row in enumerate(g.adj)]
    for u, row in enumerate(co):
        for v in bits(row >> (u + 1) << (u + 1)):
            if row & co[v]:
                return None
    return co


def _max_matching(n: int, adj: list[int]) -> list[int]:
    """Maximum-cardinality matching of the graph with neighbour masks `adj`.

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
            _augment_from(root, n, adj, mate)
    return mate


def _augment_from(root: int, n: int, adj: list[int], mate: list[int]) -> None:
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


def chromatic_number(g: Graph, max_n: int = EXACT_MAX_N) -> ChiResult:
    """Exact chromatic number with an optimal coloring witness.

    Refuses instances larger than `max_n`, whatever their structure. When
    alpha(G) <= 2 (an O(n^2) test), a maximum matching of the complement
    (O(n^3)) gives the witness: matched pairs share a colour, and chi is the
    number of colours. Otherwise: iterative deepening on k from the clique
    lower bound, DSATUR backtracking with max-clique symmetry breaking. Either
    witness is numbered 1..chi in order of first occurrence.
    """
    if g.n > max_n:
        raise SizeGuardError(f"n={g.n} exceeds exact-chi guardrail {max_n}")
    co = _alpha2_complement(g)
    if co is not None:
        mate = _max_matching(g.n, co)
        # a matched pair takes the label of its lower end, a free vertex its own
        labels = [u + 1 if 0 <= u < v else v + 1 for v, u in enumerate(mate)]
        witness = Coloring(first_occurrence_colors(labels))
        return ChiResult(witness.num_colors, witness)
    clique = sorted(bits(max_clique(g).witness))
    k = len(clique)
    while True:
        colors = _k_colorable(g, k, clique)
        if colors is not None:
            return ChiResult(k, Coloring(first_occurrence_colors(colors)))
        k += 1


def chi_alpha2_shortcut(g: Graph) -> int:
    """Chromatic number when alpha(G) <= 2; ValueError otherwise.

    Color classes have size <= 2, so an optimal coloring is n minus a maximum
    matching of the complement (matched pairs share a color). The same O(n^2)
    test and O(n^3) blossom matching as `chromatic_number`, without its size
    guard.
    """
    co = _alpha2_complement(g)
    if co is None:
        raise ValueError("shortcut requires independence number <= 2")
    mate = _max_matching(g.n, co)
    return g.n - (g.n - mate.count(-1)) // 2
