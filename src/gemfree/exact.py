"""Exact combinatorial oracles: maximum clique, independence number, chromatic number.

All solvers are exact and deterministic in their returned values; they are
sized for the desk-scale instances this package cares about (n <= 64 for the
chromatic search, n <= a few hundred for cliques).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Coloring, Graph, bits, complement


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


def _greedy_color_bound(g: Graph, cand: int) -> int:
    """Number of color classes a greedy partition of `cand` needs (clique upper bound)."""
    classes = 0
    remaining = cand
    while remaining:
        classes += 1
        avail = remaining
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~g.adj[v] & ~(1 << v)
            remaining &= ~(1 << v)
    return classes


def clique_number(g: Graph) -> int:
    """Exact clique number."""
    return max_clique(g).omega


def max_clique(g: Graph, within: int | None = None) -> CliqueResult:
    """Clique number plus the lexicographically least maximum clique of <within>.

    `within` is a vertex mask of G (default: all vertices). One branch and
    bound over bitmask candidate sets. The depth-first search adds
    candidates in ascending order, so it meets cliques in lexicographic order
    of their ascending vertex lists; pruning never cuts a branch that could
    beat the incumbent, and only a strictly larger clique replaces it. So the
    first maximum clique met, which is the one kept, is the least.
    """
    best = 0
    witness = 0

    def expand(size: int, clique: int, cand: int) -> None:
        nonlocal best, witness
        while cand:
            if size + _greedy_color_bound(g, cand) <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= ~(1 << v)
            new = cand & g.adj[v]
            if size + 1 + new.bit_count() > best:
                if new:
                    expand(size + 1, clique | 1 << v, new)
                elif size + 1 > best:
                    best = size + 1
                    witness = clique | 1 << v

    expand(0, 0, g.full_mask if within is None else within)
    return CliqueResult(best, witness)


def independence_number(g: Graph) -> int:
    return clique_number(complement(g))


def _k_colorable(g: Graph, k: int, clique: list[int]) -> list[int] | None:
    """DSATUR-ordered backtracking k-colorability decision.

    `clique` vertices are precolored 1..|clique| to break color symmetry.
    Returns a proper coloring (1-based list) or None.
    """
    if len(clique) > k:
        return None
    n = g.n
    colors = [0] * n
    # forbidden[v] = bitmask of colors (bit c-1) already on neighbors of v
    forbidden = [0] * n
    uncolored = g.full_mask
    max_used = 0
    for i, v in enumerate(clique):
        colors[v] = i + 1
        uncolored &= ~(1 << v)
        for u in bits(g.adj[v]):
            forbidden[u] |= 1 << i
        max_used = max(max_used, i + 1)

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
        if not avail:
            return False
        uncolored &= ~(1 << v)
        for c in bits(avail):
            colors[v] = c + 1
            touched = []
            ok = True
            for u in bits(g.adj[v] & uncolored):
                if not forbidden[u] >> c & 1:
                    forbidden[u] |= 1 << c
                    touched.append(u)
                    if forbidden[u].bit_count() >= k:
                        # u would have no color left only if all k are forbidden
                        if forbidden[u] == (1 << k) - 1:
                            ok = False
            if ok and solve(max(max_used, c + 1)):
                return True
            for u in touched:
                forbidden[u] &= ~(1 << c)
        colors[v] = 0
        uncolored |= 1 << v
        return False

    if solve(max_used):
        return colors
    return None


def chromatic_number(g: Graph, max_n: int = 64) -> ChiResult:
    """Exact chromatic number with an optimal coloring witness.

    Iterative deepening on k from the clique lower bound, DSATUR backtracking
    with max-clique symmetry breaking. Refuses instances larger than `max_n`.
    """
    if g.n > max_n:
        raise SizeGuardError(f"n={g.n} exceeds exact-chi guardrail {max_n}")
    if g.n == 0:
        return ChiResult(0, Coloring(()))
    clique = sorted(bits(max_clique(g).witness))
    k = len(clique)
    while True:
        colors = _k_colorable(g, k, clique)
        if colors is not None:
            return ChiResult(k, Coloring(tuple(colors)).normalize())
        k += 1


def chi_alpha2_shortcut(g: Graph) -> int:
    """Chromatic number when alpha(G) <= 2.

    Color classes have size <= 2, so an optimal coloring is n minus a maximum
    matching of the complement (matched pairs share a color).
    """
    if independence_number(g) > 2:
        raise ValueError("shortcut requires independence number <= 2")
    import networkx as nx  # lazy: the import costs more than the rest of `import gemfree`

    co = complement(g)
    h = nx.Graph()
    h.add_nodes_from(range(co.n))
    h.add_edges_from(co.edges())
    matching = nx.max_weight_matching(h, maxcardinality=True)
    return g.n - len(matching)
