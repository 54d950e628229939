"""Clique-relative vertex partition and its structural invariant checkers.

Given an ordered maximum clique A = (v_1..v_w), every outside vertex lands in
I_k (misses exactly v_k) or in C_{i,j} for the lex-least pair (i,j) of missed
clique positions. C'_{i,j} drops the vertices isolated inside their cell;
D_{i,j} collects the clique positions with no neighbor in C'_{i,j}.

Class members fill few of the C(w,2) cells, so only the non-empty cells are
computed and held: each outside vertex is classified once from the mask of
clique vertices it misses, and C' and D are built per non-empty cell. The
`C`/`Cprime`/`D` maps hold exactly the non-empty cells, in lex order, and so
does `to_json_dict`. An absent pair is an empty cell: C = C' = 0 and D = every
position.

The checkers turn the structural statements that hold for (P3 u P2)-free /
gem-free / class-member graphs into executable predicates with machine-readable
reports; on class members every clause must pass. They walk the non-empty
cells only: a clause about an absent cell holds vacuously and is neither built
nor counted, so a report's `num_entries` counts the clauses checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable

from .exact import max_clique
from .graphs import Graph, bits, mask_of
from .patterns import _components_if_cliques, find_induced, is_p4_free

LexPair = tuple[int, int]  # 1-based clique positions, i < j


class PartitionError(ValueError):
    """A is not an ordered maximum clique of G."""


@dataclass(frozen=True)
class WBCPartition:
    A: tuple[int, ...]  # v_1..v_omega by position
    I: tuple[int, ...]  # I_1..I_omega as masks (index k-1)
    C: dict[LexPair, int]  # the non-empty cell masks, in lex order
    Cprime: dict[LexPair, int]  # same keys as C
    D: dict[LexPair, frozenset[int]]  # same keys as C; clique positions 1..omega

    @property
    def omega(self) -> int:
        return len(self.A)

    def to_json_dict(self) -> dict[str, Any]:
        keys = {pair: f"{pair[0]},{pair[1]}" for pair in self.C}
        return {
            "A": list(self.A),
            "I": {str(k + 1): list(bits(self.I[k])) for k in range(self.omega)},
            "C": {key: list(bits(self.C[pair])) for pair, key in keys.items()},
            "Cprime": {key: list(bits(self.Cprime[pair])) for pair, key in keys.items()},
            "D": {key: sorted(self.D[pair]) for pair, key in keys.items()},
        }


def build_partition(g: Graph, a: list[int] | tuple[int, ...]) -> WBCPartition:
    """The unique partition determined by G and the ordered maximum clique A."""
    a = tuple(a)
    for v in a:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < g.n:
            raise PartitionError(f"A entry {v!r} is not a vertex of G (0..{g.n - 1})")
    if len(set(a)) != len(a) or not g.is_clique(mask_of(a)):
        raise PartitionError("A is not a clique")
    if len(a) != max_clique(g).omega:
        raise PartitionError("A is not a maximum clique")
    return _partition(g, a)


def partition_for(g: Graph) -> WBCPartition:
    """Partition relative to the canonical (lex-least, ascending) maximum clique."""
    return _partition(g, tuple(bits(max_clique(g).witness)))


def _partition(g: Graph, a: tuple[int, ...]) -> WBCPartition:
    """Partition relative to A, which the caller guarantees is a maximum clique."""
    amask = mask_of(a)
    omega = len(a)
    position = {v: k for k, v in enumerate(a, 1)}
    i_sets = [0] * omega
    cells: dict[LexPair, int] = {}
    for v in bits(g.full_mask & ~amask):
        missed = amask & ~g.adj[v]  # nonempty, as A is a maximum clique
        if not missed & (missed - 1):
            i_sets[position[missed.bit_length() - 1] - 1] |= 1 << v
        else:
            # A may come in any order: the least positions need not be the lowest bits
            i, j = islice((k for k, u in enumerate(a, 1) if missed >> u & 1), 2)
            cells[(i, j)] = cells.get((i, j), 0) | 1 << v
    c_sets = dict(sorted(cells.items()))
    cprime = {pair: cell & ~mask_of(v for v in bits(cell) if not g.adj[v] & cell)
              for pair, cell in c_sets.items()}
    d_sets = {pair: frozenset(k for k in range(1, omega + 1) if not g.adj[a[k - 1]] & cp)
              for pair, cp in cprime.items()}
    return WBCPartition(a, tuple(i_sets), c_sets, cprime, d_sets)


@dataclass(frozen=True)
class CheckEntry:
    clause: str
    bindings: dict[str, Any]
    ok: bool
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class CheckReport:
    name: str
    applicable: bool
    entries: tuple[CheckEntry, ...] = ()
    reason: str = ""

    @property
    def passed(self) -> bool:
        return self.applicable and all(e.ok for e in self.entries)

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.ok]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "passed": self.passed,
            "reason": self.reason,
            "failures": [
                {"clause": e.clause, "bindings": e.bindings, "witness": e.witness}
                for e in self.failures()
            ],
            "num_entries": len(self.entries),
        }


def _entry(clause: str, bindings: dict[str, Any], witness: Iterable[int]) -> CheckEntry:
    """A clause holds iff its witness (offending vertices or first pair) is empty."""
    w = tuple(witness)
    return CheckEntry(clause, bindings, not w, w or None)


def _first_pair(g: Graph, s: int, t: int, flip: int) -> tuple[int, ...]:
    """First (v in S, u in T) with v ~ u (flip=0) or v !~ u (flip=-1), or ()."""
    for v in bits(s):
        hit = (g.adj[v] ^ flip) & t
        if hit:
            return (v, (hit & -hit).bit_length() - 1)
    return ()


def check_fact1(g: Graph, p: WBCPartition) -> CheckReport:
    """Cell structure forced by (P3 u P2)-freeness.

    (i) each <C_{i,j}> is P3-free (disjoint union of cliques);
    (ii) a in C_{i,j} is adjacent to v_1..v_j except v_i, v_j.
    """
    entries = []
    for (i, j), cell in p.C.items():
        w = None if _components_if_cliques(g, cell) is not None else find_induced(g, "p3", cell)
        entries.append(_entry("fact1.i", {"i": i, "j": j}, w.embedding if w else ()))
        for a in bits(cell):
            bad = [k for k in range(1, j + 1) if k not in (i, j) and not g.has_edge(a, p.A[k - 1])]
            entries.append(_entry("fact1.ii", {"i": i, "j": j, "a": a}, bad))
    return CheckReport("fact1", True, tuple(entries))


def check_lemma_gem(g: Graph, p: WBCPartition) -> CheckReport:
    """Cell structure forced by gem-freeness, for cells with j >= 3.

    (i) <C_{i,j}> is P4-free; (ii) a component touching v_l is complete to v_l;
    (iii) a missing v_l has no neighbor in I_l; (iv) component clique number is
    at most the number of clique vertices with no neighbor in the component.
    """
    entries = []
    omega = p.omega
    for (i, j), cell in p.C.items():
        if j < 3:
            continue
        comps = g.components(cell)  # a P4 is connected: split the cell once for every clause
        w = None if all(is_p4_free(g, c) for c in comps) else find_induced(g, "p4", cell)
        entries.append(_entry("lemma_gem.i", {"i": i, "j": j}, w.embedding if w else ()))
        for comp in comps:
            cmin = (comp & -comp).bit_length() - 1
            for ell in range(1, omega + 1):
                row = g.adj[p.A[ell - 1]]
                if row & comp:
                    entries.append(_entry("lemma_gem.ii", {"i": i, "j": j, "component_min": cmin,
                                                           "l": ell}, bits(comp & ~row)))
            wc = max_clique(g, comp).omega
            bound = sum(1 for k in range(1, omega + 1) if not g.adj[p.A[k - 1]] & comp)
            entries.append(CheckEntry(
                "lemma_gem.iv",
                {"i": i, "j": j, "component_min": cmin, "omega_H": wc, "bound": bound},
                wc <= bound,
            ))
        for a in bits(cell):
            for ell in range(1, omega + 1):
                if not g.has_edge(a, p.A[ell - 1]):
                    entries.append(_entry("lemma_gem.iii", {"i": i, "j": j, "a": a, "l": ell},
                                          bits(g.adj[a] & p.I[ell - 1])))
    return CheckReport("lemma_gem", True, tuple(entries))


def check_lemma_class(g: Graph, p: WBCPartition) -> CheckReport:
    """Structure of class members with omega >= 3, for cells with j >= 3.

    (i) a neighbor v_l of any a in C_{i,j} is complete to C'_{i,j} (and a
    non-neighbor of C'_{i,j} sees none of C_{i,j}); (ii) omega(<C'_{i,j}>) <=
    |D_{i,j}|; (iii) no edges between sibling cells; (iv) a live C'_{i,j}
    empties later cells in its rows, earlier C' cells, and (for j >= 4) the
    whole column.
    """
    if p.omega < 3:
        return CheckReport("lemma_class", False, reason="requires omega >= 3")
    entries = []
    omega = p.omega
    for (i, j), cell in p.C.items():
        if j < 3:
            continue
        cp = p.Cprime[(i, j)]
        # (i) both directions
        for ell in range(1, omega + 1):
            row = g.adj[p.A[ell - 1]]
            if row & cell:
                entries.append(_entry("lemma_class.i", {"i": i, "j": j, "l": ell},
                                      bits(cp & ~row)))
            if cp & ~row:
                entries.append(_entry("lemma_class.i-consequence", {"i": i, "j": j, "l": ell},
                                      bits(row & cell)))
        # (ii)
        wc = max_clique(g, cp).omega
        entries.append(CheckEntry(
            "lemma_class.ii",
            {"i": i, "j": j, "omega_Cprime": wc, "D_size": len(p.D[(i, j)])},
            wc <= len(p.D[(i, j)]),
        ))
        # (iii) and (iv) share the later cells of both rows and, for j >= 4, the column;
        # a clause about an absent cell holds vacuously, so only cells in p.C are checked
        later = [other for ell in range(j + 1, omega + 1) for other in ((i, ell), (j, ell))
                 if other in p.C]
        column = [(k, j) for k in range(1, j) if k != i and (k, j) in p.C] if j >= 4 else []
        for other in later:
            entries.append(_entry("lemma_class.iii", {"cell": (i, j), "other": other},
                                  _first_pair(g, cell, p.C[other], 0)))
        for other in column:
            entries.append(_entry("lemma_class.iii-column", {"cell": (i, j), "other": other},
                                  _first_pair(g, cell, p.C[other], 0)))
        if cp:
            for other in later:
                entries.append(_entry("lemma_class.iv", {"cell": (i, j), "must_be_empty": other},
                                      bits(p.C[other])))
            for ell in range(max(3, i + 1), j):
                if (i, ell) in p.C:
                    entries.append(_entry("lemma_class.iv",
                                          {"cell": (i, j), "must_be_Cprime_empty": (i, ell)},
                                          bits(p.Cprime[(i, ell)])))
            for other in column:
                entries.append(_entry("lemma_class.iv-column",
                                      {"cell": (i, j), "must_be_empty": other},
                                      bits(p.C[other])))
    return CheckReport("lemma_class", True, tuple(entries))


def check_claim1(g: Graph, p: WBCPartition) -> CheckReport:
    """For j,l,r >= 3 with C_{r,s} nonempty: C'_{1,j} u C'_{2,l} is complete
    to {v_r, v_s} u C_{r,s}."""
    if p.omega < 3:
        return CheckReport("claim1", False, reason="requires omega >= 3")
    left = 0
    for (i, j), cp in p.Cprime.items():
        if i <= 2 and j >= 3:
            left |= cp
    entries = []
    for (r, s), cell in p.C.items():
        if r < 3:
            continue
        target = cell | (1 << p.A[r - 1]) | (1 << p.A[s - 1])
        entries.append(_entry("claim1", {"r": r, "s": s},
                              _first_pair(g, left & ~target, target & ~left, -1)))
    return CheckReport("claim1", True, tuple(entries))


def run_all_checks(g: Graph, p: WBCPartition) -> dict[str, CheckReport]:
    return {
        "fact1": check_fact1(g, p),
        "lemma_gem": check_lemma_gem(g, p),
        "lemma_class": check_lemma_class(g, p),
        "claim1": check_claim1(g, p),
    }
