"""Exact combinatorial oracles: maximum clique and chromatic number.

All solvers are exact and deterministic in their returned values. Cliques are
found on the true-twin quotient, each class weighted by its size, so a
twin-rich input such as K[C5](102) (n = 510, five classes) is searched as a
handful of vertices; a twin-free input has every weight 1 and keeps the plain
search.

When alpha(G) <= 2, chi(G) = n - nu(co-G), where nu is the size of a maximum
matching: colour classes have at most two vertices, and the two-vertex classes
are the matched non-edges. `chromatic_number` decides alpha <= 2 as "co-G is
triangle-free" in O(n^2) mask operations and then runs Edmonds' blossom
algorithm on the complement masks in O(n^3), at any n. It searches for an
augmenting path only from a root that still has a free vertex to reach, and
the colouring is read off the matching in one pass. Only alpha > 2 inputs
meet its size guard (n <= 64 by default) and reach the DSATUR search, which
keeps its vertex scores incrementally, so a node picks its vertex with one
`max` over a list.
Results hold only their witness: omega counts the clique, chi the colours used.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Coloring, Graph, _twin_classes, _vertex_mask, bits, first_occurrence_colors


EXACT_MAX_N = 64  # default guardrail of `chromatic_number`: larger alpha > 2 inputs are refused


class SizeGuardError(ValueError):
    """Instance exceeds the exactness guardrail."""


@dataclass(frozen=True)
class CliqueResult:
    witness: int  # vertex bitmask, lexicographically least maximum clique

    @property
    def omega(self) -> int:
        return self.witness.bit_count()


@dataclass(frozen=True)
class ChiResult:
    witness: Coloring  # an optimal colouring

    @property
    def chi(self) -> int:
        return self.witness.num_colors


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
    within = _vertex_mask(g, within)
    classes = _twin_classes(g, within)
    adj = g.adj
    reps = 0
    weight = [0] * g.n
    for r, cls in classes.items():
        reps |= 1 << r
        weight[r] = cls.bit_count()
    best = 0  # the weight of `witness`, which is its bit count
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
    return CliqueResult(witness)


def _k_colorable(g: Graph, k: int, clique: list[int]) -> list[int] | None:
    """DSATUR-ordered backtracking k-colorability decision.

    `clique` vertices are precolored 1..|clique| to break color symmetry;
    callers start k at |clique|.
    Each step colours the uncoloured vertex with the most forbidden colours,
    ties broken by most uncoloured neighbours, then by lowest index. It tries
    its allowed colours ascending, up to one above the highest used so far,
    and backtracks as soon as some neighbour has all k colours forbidden.
    Returns a proper coloring (1-based list) or None.

    The order is kept incrementally, one int per vertex: an uncoloured vertex
    scores saturation * (n + 1) + its uncoloured-neighbour count, and a
    coloured one that minus `done`, which exceeds every score (at most k
    colours are forbidden and the degree term is below n + 1). So scores
    order (saturation, degree) pairs as the tie-break does, and `list.index`
    of the maximum is the lowest of the tied vertices. A step changes the
    scores only where it changes the search state, and undoes them on
    backtrack: colouring v lowers each uncoloured neighbour's degree term by
    1, and each colour newly forbidden on u raises u's score by n + 1. The
    marks of a colour stop at the first dead end; they are undone before the
    next colour anyway, so every branch, and the colouring returned, is the
    one the full marking pass would give.
    """
    n = g.n
    colors = [0] * n
    # forbidden[v] = bitmask of colors (bit c-1) already on neighbors of v
    forbidden = [0] * n
    every = (1 << k) - 1
    nbrs = [list(bits(row)) for row in g.adj]
    step = n + 1
    done = (k + 1) * step
    for i, v in enumerate(clique):
        colors[v] = i + 1
        for u in nbrs[v]:
            forbidden[u] |= 1 << i
    score = [forbidden[v].bit_count() * step + sum(not colors[u] for u in row) for v, row in enumerate(nbrs)]
    for v in clique:
        score[v] -= done

    def solve(max_used: int) -> bool:
        top = max(score, default=-1)
        if top < 0:
            return True
        v = score.index(top)
        score[v] -= done
        free = [u for u in nbrs[v] if not colors[u]]
        for u in free:
            score[u] -= 1
        avail = ~forbidden[v] & ((1 << min(k, max_used + 1)) - 1)
        while avail:
            bit = avail & -avail
            avail ^= bit
            colors[v] = c = bit.bit_length()
            touched = []
            for u in free:
                if not forbidden[u] & bit:
                    forbidden[u] |= bit
                    score[u] += step
                    touched.append(u)
                    if forbidden[u] == every:
                        break  # a dead end: undo, and try the next colour
            else:
                if solve(max(max_used, c)):
                    return True
            for u in touched:
                forbidden[u] ^= bit
                score[u] -= step
        colors[v] = 0
        for u in free:
            score[u] += 1
        score[v] += done
        return False

    if solve(len(clique)):
        return colors
    return None


def _alpha2_matching(g: Graph) -> list[int] | None:
    """A maximum matching of co-G, as `_max_matching`'s `mate`, if alpha(G) <= 2,
    else None.

    alpha(G) <= 2 iff co-G is triangle-free, that is iff no complement edge
    uv, u < v, has ends with a common complement neighbour: O(n^2) mask ANDs.
    """
    full = g.full_mask
    co = [full & ~row & ~(1 << v) for v, row in enumerate(g.adj)]
    for u, row in enumerate(co):
        above = row >> (u + 1) << (u + 1)
        while above:
            low = above & -above
            if row & co[low.bit_length() - 1]:
                return None
            above ^= low
    return _max_matching(g.n, co)


def _max_matching(n: int, adj: list[int]) -> list[int]:
    """Maximum-cardinality matching of the graph with neighbour masks `adj`.

    Edmonds' blossom algorithm: a greedy matching, then a BFS for an
    augmenting path from each free vertex in ascending order. The BFS grows an
    alternating tree from the root; an edge between two outer vertices closes
    an odd cycle (a blossom), which is contracted by pointing the `base` of
    its vertices at the cycle's base, and the first free vertex reached ends
    an augmenting path that is flipped.

    A root with no augmenting path never gets one later (Edmonds), and no
    later search ends at it either, as that path read backwards would augment
    from it. So `free` holds the free vertices not yet tried as roots: a
    search from its least vertex r can end only at another of them, above r.
    r leaves `free` whatever the search finds, and so does the end it
    matched, if any. Once `free` holds one vertex, its search cannot succeed,
    and the loop stops. The paths flipped are those that a search from every
    free vertex in turn would flip, so `mate` is the same. O(n^3) in all.
    Returns `mate`, with mate[v] = -1 if v is free.
    """
    mate = [-1] * n
    free = (1 << n) - 1
    for v in range(n):
        if free >> v & 1:
            cand = adj[v] & free
            if cand:
                low = cand & -cand
                u = low.bit_length() - 1
                mate[u], mate[v] = v, u
                free ^= low | 1 << v
    while free & (free - 1):  # two or more
        root = free & -free
        end = _augment_from(root.bit_length() - 1, n, adj, mate)
        free ^= root
        if end >= 0:
            free ^= 1 << end
    return mate


def _augment_from(root: int, n: int, adj: list[int], mate: list[int]) -> int:
    """Flip one augmenting path from the free vertex `root`, if there is one.

    Returns the path's other end, the free vertex it matched, or -1 if no
    augmenting path starts at `root`.
    """
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
        nbrs = adj[v] & ~inner & ~members[base[v]]
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            to = low.bit_length() - 1
            if base[v] == base[to] or mate[v] == to:  # a contraction in this scan can merge them
                continue
            if outer & low:
                b = lca(v, to)
                rest = mark(to, b, v, mark(v, b, to, 0)) & ~(1 << b)
                grown = 0
                while rest:
                    x = rest & -rest
                    grown |= members[x.bit_length() - 1]
                    rest ^= x
                members[b] |= grown
                while grown:
                    x = grown & -grown
                    grown ^= x
                    i = x.bit_length() - 1
                    base[i] = b
                    if not outer & x:
                        outer |= x
                        inner &= ~x
                        queue.append(i)
            elif parent[to] < 0:
                parent[to] = v
                inner |= low
                if mate[to] < 0:  # the path root .. v, to augments: flip it
                    end = to
                    while to >= 0:
                        p = parent[to]
                        nxt = mate[p]
                        mate[to], mate[p] = p, to
                        to = nxt
                    return end
                outer |= 1 << mate[to]
                queue.append(mate[to])
    return -1


def chromatic_number(g: Graph, max_n: int = EXACT_MAX_N) -> ChiResult:
    """Exact chromatic number with an optimal coloring witness.

    When alpha(G) <= 2 (an O(n^2) test), a maximum matching of the complement
    (O(n^3)) gives the witness, at any n: matched pairs share a colour, and
    chi is the number of colours. Otherwise an instance larger than `max_n`
    is refused, and a smaller one is solved by iterative deepening on k from
    the clique lower bound, DSATUR backtracking with max-clique symmetry
    breaking. Either witness is numbered 1..chi in order of first occurrence.
    """
    mate = _alpha2_matching(g)
    if mate is not None:
        # a matched pair takes the colour of its lower end, and every other
        # vertex the next colour: first-occurrence order by construction
        colors = [0] * g.n
        used = 0
        for v, u in enumerate(mate):
            if 0 <= u < v:
                colors[v] = colors[u]
            else:
                used += 1
                colors[v] = used
        return ChiResult(Coloring(tuple(colors)))
    if g.n > max_n:
        raise SizeGuardError(f"n={g.n} exceeds exact-chi guardrail {max_n}")
    clique = list(bits(max_clique(g).witness))
    k = len(clique)
    while True:
        colors = _k_colorable(g, k, clique)
        if colors is not None:
            return ChiResult(Coloring(first_occurrence_colors(colors)))
        k += 1


def chi_alpha2_shortcut(g: Graph) -> int:
    """Chromatic number when alpha(G) <= 2; ValueError otherwise.

    Color classes have size <= 2, so an optimal coloring is n minus a maximum
    matching of the complement (matched pairs share a color). The same O(n^2)
    test and O(n^3) blossom matching as `chromatic_number`, whose alpha <= 2
    route gives the same chi. Kept for gembench's `exact` op, not re-exported.
    """
    mate = _alpha2_matching(g)
    if mate is None:
        raise ValueError("shortcut requires independence number <= 2")
    return g.n - (g.n - mate.count(-1)) // 2
