"""Clique-relative vertex partition and its structural invariant checkers.

A = (v_1..v_w) is the lex-least maximum clique of G, ascending. Every outside
vertex lands in I_k (misses exactly v_k) or in C_{i,j} for the lex-least pair
(i,j) of missed clique positions. C'_{i,j} drops the vertices isolated inside
their cell; D_{i,j} collects the clique positions with no neighbor in C'_{i,j}.

Class members fill few of the C(w,2) cells, so only the non-empty cells are
computed and held: each outside vertex is classified once from the mask of
clique vertices it misses, and C' and D are built per non-empty cell. The
`C`/`Cprime`/`D` maps hold exactly the non-empty cells, in lex order, and so
does `to_json_dict`. An absent pair is an empty cell: C = C' = 0 and D = every
position.

The checkers turn the structural statements that hold for (P3 u P2)-free /
gem-free / class-member graphs into executable predicates; a report holds the
failed clauses, as JSON objects, and a count. On class members every clause
must pass. The checkers walk the non-empty cells only: a clause about an absent
cell holds vacuously and is neither checked nor counted, so a report's
`num_entries` counts the clauses checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from .exact import max_clique
from .graphs import Graph, bits, mask_of
from .patterns import find_induced, is_p3_free, is_p4_free

LexPair = tuple[int, int]  # 1-based clique positions, i < j


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


def build_partition(g: Graph) -> WBCPartition:
    """The unique partition determined by G and its lex-least maximum clique A,
    in ascending order. Positions follow bit order, so a vertex's lex-least
    missed pair is the positions of the two lowest bits of its missed mask."""
    amask = max_clique(g).witness
    a = tuple(bits(amask))
    omega = len(a)
    position = {v: k for k, v in enumerate(a, 1)}
    i_sets = [0] * omega
    cells: dict[LexPair, int] = {}
    for v in bits(g.full_mask & ~amask):
        missed = amask & ~g.adj[v]  # nonempty, as A is a maximum clique
        low = missed & -missed
        i = position[low.bit_length() - 1]
        rest = missed ^ low
        if not rest:
            i_sets[i - 1] |= 1 << v
        else:
            pair = (i, position[(rest & -rest).bit_length() - 1])
            cells[pair] = cells.get(pair, 0) | 1 << v
    c_sets = dict(sorted(cells.items()))
    cprime = {pair: cell & ~mask_of(v for v in bits(cell) if not g.adj[v] & cell)
              for pair, cell in c_sets.items()}
    d_sets = {pair: frozenset(k for k in range(1, omega + 1) if not g.adj[a[k - 1]] & cp)
              for pair, cp in cprime.items()}
    return WBCPartition(a, tuple(i_sets), c_sets, cprime, d_sets)


@dataclass(frozen=True)
class CheckReport:
    name: str
    failures: tuple[dict[str, Any], ...] = ()  # each failed clause's JSON object, in clause order
    num_entries: int = 0  # the clauses checked
    reason: str = ""  # why the check does not apply; empty when it does

    @property
    def applicable(self) -> bool:
        return not self.reason

    @property
    def passed(self) -> bool:
        return self.applicable and not self.failures

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "passed": self.passed,
            "reason": self.reason,
            "failures": list(self.failures),
            "num_entries": self.num_entries,
        }


def _failure(clause: str, bindings: dict[str, Any],
             witness: Iterable[int] | bool) -> dict[str, Any] | None:
    """The clause's failure, or None if it holds. A set clause holds iff its
    witness (offending vertices or first pair) is empty; a bound clause passes
    its truth value and fails with witness None."""
    w = None if isinstance(witness, bool) else tuple(witness)
    if witness is True or w == ():
        return None
    return {"clause": clause, "bindings": bindings, "witness": w}


def _report(name: str, results: list[dict[str, Any] | None]) -> CheckReport:
    return CheckReport(name, tuple(r for r in results if r), len(results))


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
    out = []
    for (i, j), cell in p.C.items():
        w = None if is_p3_free(g, cell) else find_induced(g, "p3", cell)
        out.append(_failure("fact1.i", {"i": i, "j": j}, w.embedding if w else ()))
        for a in bits(cell):
            bad = [k for k in range(1, j + 1) if k not in (i, j) and not g.has_edge(a, p.A[k - 1])]
            out.append(_failure("fact1.ii", {"i": i, "j": j, "a": a}, bad))
    return _report("fact1", out)


def check_lemma_gem(g: Graph, p: WBCPartition) -> CheckReport:
    """Cell structure forced by gem-freeness, for cells with j >= 3.

    (i) <C_{i,j}> is P4-free; (ii) a component touching v_l is complete to v_l;
    (iii) a missing v_l has no neighbor in I_l; (iv) component clique number is
    at most the number of clique vertices with no neighbor in the component.
    """
    out = []
    omega = p.omega
    for (i, j), cell in p.C.items():
        if j < 3:
            continue
        comps = g.components(cell)  # a P4 is connected: split the cell once for every clause
        w = None if all(is_p4_free(g, c) for c in comps) else find_induced(g, "p4", cell)
        out.append(_failure("lemma_gem.i", {"i": i, "j": j}, w.embedding if w else ()))
        for comp in comps:
            cmin = (comp & -comp).bit_length() - 1
            for ell in range(1, omega + 1):
                row = g.adj[p.A[ell - 1]]
                if row & comp:
                    out.append(_failure("lemma_gem.ii", {"i": i, "j": j, "component_min": cmin,
                                                         "l": ell}, bits(comp & ~row)))
            wc = max_clique(g, comp).omega
            bound = sum(1 for k in range(1, omega + 1) if not g.adj[p.A[k - 1]] & comp)
            out.append(_failure("lemma_gem.iv", {"i": i, "j": j, "component_min": cmin,
                                                 "omega_H": wc, "bound": bound}, wc <= bound))
        for a in bits(cell):
            for ell in range(1, omega + 1):
                if not g.has_edge(a, p.A[ell - 1]):
                    out.append(_failure("lemma_gem.iii", {"i": i, "j": j, "a": a, "l": ell},
                                        bits(g.adj[a] & p.I[ell - 1])))
    return _report("lemma_gem", out)


def check_lemma_class(g: Graph, p: WBCPartition) -> CheckReport:
    """Structure of class members with omega >= 3, for cells with j >= 3.

    (i) a neighbor v_l of any a in C_{i,j} is complete to C'_{i,j} (and a
    non-neighbor of C'_{i,j} sees none of C_{i,j}); (ii) omega(<C'_{i,j}>) <=
    |D_{i,j}|; (iii) no edges between sibling cells; (iv) a live C'_{i,j}
    empties later cells in its rows, earlier C' cells, and (for j >= 4) the
    whole column.
    """
    if p.omega < 3:
        return CheckReport("lemma_class", reason="requires omega >= 3")
    out = []
    omega = p.omega
    for (i, j), cell in p.C.items():
        if j < 3:
            continue
        cp = p.Cprime[(i, j)]
        # (i) both directions
        for ell in range(1, omega + 1):
            row = g.adj[p.A[ell - 1]]
            if row & cell:
                out.append(_failure("lemma_class.i", {"i": i, "j": j, "l": ell}, bits(cp & ~row)))
            if cp & ~row:
                out.append(_failure("lemma_class.i-consequence", {"i": i, "j": j, "l": ell},
                                    bits(row & cell)))
        # (ii)
        wc, d_size = max_clique(g, cp).omega, len(p.D[(i, j)])
        out.append(_failure("lemma_class.ii", {"i": i, "j": j, "omega_Cprime": wc,
                                               "D_size": d_size}, wc <= d_size))
        # (iii) and (iv) share the later cells of both rows and, for j >= 4, the column;
        # a clause about an absent cell holds vacuously, so only cells in p.C are checked
        later = [other for ell in range(j + 1, omega + 1) for other in ((i, ell), (j, ell))
                 if other in p.C]
        column = [(k, j) for k in range(1, j) if k != i and (k, j) in p.C] if j >= 4 else []
        for other in later:
            out.append(_failure("lemma_class.iii", {"cell": (i, j), "other": other},
                                _first_pair(g, cell, p.C[other], 0)))
        for other in column:
            out.append(_failure("lemma_class.iii-column", {"cell": (i, j), "other": other},
                                _first_pair(g, cell, p.C[other], 0)))
        if cp:
            for other in later:
                out.append(_failure("lemma_class.iv", {"cell": (i, j), "must_be_empty": other},
                                    bits(p.C[other])))
            for ell in range(max(3, i + 1), j):
                if (i, ell) in p.C:
                    out.append(_failure("lemma_class.iv",
                                        {"cell": (i, j), "must_be_Cprime_empty": (i, ell)},
                                        bits(p.Cprime[(i, ell)])))
            for other in column:
                out.append(_failure("lemma_class.iv-column",
                                    {"cell": (i, j), "must_be_empty": other},
                                    bits(p.C[other])))
    return _report("lemma_class", out)


def check_claim1(g: Graph, p: WBCPartition) -> CheckReport:
    """For j,l,r >= 3 with C_{r,s} nonempty: C'_{1,j} u C'_{2,l} is complete
    to {v_r, v_s} u C_{r,s}."""
    if p.omega < 3:
        return CheckReport("claim1", reason="requires omega >= 3")
    left = 0
    for (i, j), cp in p.Cprime.items():
        if i <= 2 and j >= 3:
            left |= cp
    out = []
    for (r, s), cell in p.C.items():
        if r < 3:
            continue
        target = cell | (1 << p.A[r - 1]) | (1 << p.A[s - 1])
        out.append(_failure("claim1", {"r": r, "s": s},
                            _first_pair(g, left & ~target, target & ~left, -1)))
    return _report("claim1", out)


def run_all_checks(g: Graph, p: WBCPartition) -> dict[str, CheckReport]:
    return {
        "fact1": check_fact1(g, p),
        "lemma_gem": check_lemma_gem(g, p),
        "lemma_class": check_lemma_class(g, p),
        "claim1": check_claim1(g, p),
    }
