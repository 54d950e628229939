"""Constructive certified colorings for {P3 u P2, gem}-free graphs.

`color_two_omega` follows the case analysis of the 2w upper-bound proof step
by step, recording every choice point in a trace, and re-verifies the result
before returning (certify-always). `color_three_omega` is the simpler 3w-2
construction via two cograph pieces. Both refuse non-members with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from .graphs import (
    Coloring, Graph, GraphError, bits, cograph_coloring, first_occurrence_colors, mask_of,
)
from .partition import WBCPartition, build_partition
from .patterns import PatternWitness, _components_if_cliques, is_class_member


class ClassViolationError(ValueError):
    """Input is outside {P3 u P2, gem}-free; carries the forbidden embedding."""

    def __init__(self, witness: PatternWitness):
        super().__init__(f"input contains an induced {witness.pattern_name}: {witness.embedding}")
        self.witness = witness


class CertificationError(RuntimeError):
    """The constructed coloring failed re-verification (bug or proof-gap candidate).

    `color_two_omega` attaches its trace as it stood at the failure.
    """

    def __init__(self, message: str, conflict: tuple[int, int] | None = None):
        super().__init__(message)
        self.conflict = conflict
        self.trace: ColoringTrace | None = None


@dataclass
class ColoringTrace:
    """Record of which proof case fired and every choice the construction made."""

    A: tuple[int, ...] = ()
    case: str = ""  # omega<=2 | Case1 | Case2-simple | Case2.1 | Case2.2
    j: int | None = None
    l: int | None = None
    S: tuple[int, ...] = ()
    T: tuple[int, ...] = ()
    shared_positions: tuple[int, ...] = ()
    pool_assignments: list[dict[str, Any]] = field(default_factory=list)
    u_vertices: tuple[int, ...] = ()
    verified: bool = False

    def record_pool(self, label: str, vertices: list[int], colors: list[int]) -> None:
        self.pool_assignments.append(
            {"where": label, "vertices": list(vertices), "colors": list(colors)}
        )

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "A": list(self.A),
            "case": self.case,
            "j": self.j,
            "l": self.l,
            "S": list(self.S),
            "T": list(self.T),
            "shared_positions": list(self.shared_positions),
            "pool_assignments": self.pool_assignments,
            "u_vertices": list(self.u_vertices),
            "z_vertices": [],  # kept in the JSON; always empty, see _color_c12
            "verified": self.verified,
        }


def verify_proper(g: Graph, coloring: Coloring) -> tuple[bool, tuple[int, int] | None]:
    """Properness check; returns the lexicographically first conflicting edge."""
    colors = coloring.colors
    if len(colors) != g.n:
        raise GraphError("coloring is not total on V(G)")
    class_of: dict[int, int] = {}
    for v, c in enumerate(colors):
        class_of[c] = class_of.get(c, 0) | 1 << v
    # a clash with a lower vertex u would have been returned at u
    for v, c in enumerate(colors):
        clash = g.adj[v] & class_of[c]
        if clash:
            return False, (v, (clash & -clash).bit_length() - 1)
    return True, None


def greedy_coloring(g: Graph) -> Coloring:
    """First-fit in vertex order."""
    colors = [0] * g.n
    for v in range(g.n):
        used = {colors[u] for u in bits(g.adj[v]) if colors[u]}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return Coloring(tuple(colors))


def _member_partition(g: Graph) -> WBCPartition:
    """Shared colorer front end: the partition of a class member."""
    member, witness = is_class_member(g)
    if not member:
        assert witness is not None
        raise ClassViolationError(witness)
    return build_partition(g)


def _certify(g: Graph, colors: Sequence[int], a: tuple[int, ...], bound: int,
             bound_name: str) -> Coloring:
    """Shared colorer tail: the clique `a` whose size the bound counts,
    totality, the color bound, then properness."""
    if not g.is_clique(mask_of(a)):
        raise CertificationError("A is not a clique")
    if 0 in colors:
        raise CertificationError("coloring not total")
    coloring = Coloring(tuple(colors))
    if coloring.num_colors > bound:
        raise CertificationError(f"bound {bound_name} exceeded")
    ok, conflict = verify_proper(g, coloring)
    if not ok:
        raise CertificationError("improper coloring produced", conflict=conflict)
    return coloring


def _clique_components(g: Graph, cell: int, what: str) -> list[int]:
    """Components of a cell, certified to be cliques (P3-freeness consequence)."""
    comps = _components_if_cliques(g, cell)
    if comps is None:
        raise CertificationError(f"{what} is not a clique")
    return comps


def _assign_pool(colors: list[int], comp: int, pool: list[int], where: str,
                 trace: ColoringTrace) -> list[int]:
    """Injective pool assignment: ascending vertices take ascending pool colors."""
    verts = list(bits(comp))
    if len(verts) > len(pool):
        raise CertificationError(f"color pool exhausted at {where}")
    used = pool[: len(verts)]
    for v, c in zip(verts, used):
        colors[v] = c
    trace.record_pool(where, verts, used)
    return used


def _color_cell(g: Graph, colors: list[int], cell: int, pool: list[int], name: str,
                where: str, trace: ColoringTrace) -> None:
    """Each clique component of the cell `name` takes colors from `pool`."""
    for comp in _clique_components(g, cell, f"component of {name}"):
        _assign_pool(colors, comp, pool, where, trace)


def _color_all(colors: list[int], mask: int, color: int, where: str,
               trace: ColoringTrace) -> None:
    """Every vertex of `mask` takes one `color`; a nonempty mask is recorded."""
    verts = list(bits(mask))
    for v in verts:
        colors[v] = color
    if verts:
        trace.record_pool(where, verts, [color] * len(verts))


def color_two_omega(g: Graph) -> tuple[Coloring, ColoringTrace]:
    """Proper coloring of a class member with at most 2*omega(G) colors."""
    p = _member_partition(g)
    trace = ColoringTrace(A=p.A)
    try:
        coloring = _certify(g, _color_cases(g, p, trace), p.A, 2 * p.omega, "2*omega")
    except CertificationError as exc:
        exc.trace = trace
        raise
    trace.verified = True
    return coloring, trace


def _color_cases(g: Graph, p: WBCPartition, trace: ColoringTrace) -> list[int]:
    """The 2*omega construction: base colors, then the proof case that applies."""
    a, omega = p.A, p.omega
    colors = [0] * g.n

    # base colors: position k covers v_k and I_k
    for k in range(1, omega + 1):
        colors[a[k - 1]] = k
        for v in bits(p.I[k - 1]):
            colors[v] = k

    if omega <= 2:
        trace.case = "omega<=2"
        _color_cell(g, colors, p.C.get((1, 2), 0), list(range(omega + 1, 2 * omega + 1)),
                    "C_{1,2}", "C_{1,2}", trace)
    else:
        if any(i >= 3 for i, _ in p.C):
            trace.case = "Case1"
            for pair, cell in p.C.items():
                if pair == (1, 2):
                    continue
                cp = p.Cprime[pair]
                _color_cell(g, colors, cp, sorted(p.D[pair]), f"C'_{pair}",
                            f"C'_{pair} from D{pair}", trace)
                _color_all(colors, cell & ~cp, pair[0], f"C_{pair} leftovers", trace)
        else:
            _color_case2(g, p, colors, trace)
        _color_c12(g, p, colors, trace)
    return colors


def _unique_live_row_cell(p: WBCPartition, row: int) -> int | None:
    """The unique column j >= 3 with C'_{row,j} nonempty, or None."""
    live = [j for (i, j), cp in p.Cprime.items() if i == row and j >= 3 and cp]
    if len(live) > 1:
        raise CertificationError(
            f"multiple live C' cells in row {row}: {live} (contradicts uniqueness)"
        )
    return live[0] if live else None


def _color_case2(g: Graph, p: WBCPartition, colors: list[int], trace: ColoringTrace) -> None:
    omega = p.omega
    j = _unique_live_row_cell(p, 1)
    ell = _unique_live_row_cell(p, 2)
    trace.j, trace.l = j, ell
    cp1 = p.Cprime[(1, j)] if j else 0
    cp2 = p.Cprime[(2, ell)] if ell else 0
    d1 = p.D[(1, j)] if j else frozenset()
    d2 = p.D[(2, ell)] if ell else frozenset()
    shared = d1 & d2  # empty if either C' cell is: its j or l is then None, its D empty
    trace.shared_positions = tuple(sorted(shared))

    u_vertices: list[int] = []

    if not shared:
        trace.case = "Case2-simple"
        _color_cell(g, colors, cp1, sorted(d1), f"C'_(1,{j})", f"C'_(1,{j}) from D(1,{j})", trace)
        _color_cell(g, colors, cp2, sorted(d2), f"C'_(2,{ell})", f"C'_(2,{ell}) from D(2,{ell})",
                    trace)
    elif len(shared) >= 2:
        trace.case = "Case2.1"
        # S = C'_(1,j) and T = C'_(2,l), as each cell is one clique. Let s, t
        # be shared positions: v_s and v_t see neither cell. A vertex y of
        # C'_(2,l) sees v_1, so y-v_1-v_s is a P3, and y sees an end of every
        # edge of C'_(1,j), else a P3 u P2. Two components of C'_(1,j), each
        # with an edge, would then give a P3 a-y-a' beside the edge v_s v_t.
        # C'_(2,l) likewise, as C'_(1,j) sees v_2; cell components are cliques.
        if not (g.is_clique(cp1) and g.is_clique(cp2)):
            raise CertificationError(f"C'_(1,{j}) or C'_(2,{ell}) is not a clique in Case 2.1")
        trace.S = tuple(bits(cp1))
        trace.T = tuple(bits(cp2))
        every = frozenset(range(1, omega + 1))
        na_s, na_t = every - d1, every - d2  # N_A(S), N_A(T): D is their complement
        if na_s & na_t:
            raise CertificationError("N_A(S) and N_A(T) intersect in Case 2.1")
        pool_s = sorted(na_t) + sorted(shared)
        used_s = _assign_pool(colors, cp1, pool_s, "S from N_A(T)+shared", trace)
        pool_t = sorted(na_s) + sorted(shared - set(used_s))
        _assign_pool(colors, cp2, pool_t, "T from N_A(S)+shared", trace)
    else:
        trace.case = "Case2.2"
        _color_cell(g, colors, cp2, sorted(d2), f"C'_(2,{ell})",
                    f"C'_(2,{ell}) from D(2,{ell})", trace)
        pool1 = sorted(d1 - shared) + [omega + 1]
        for comp in _clique_components(g, cp1, f"component of C'_(1,{j})"):
            used = _assign_pool(colors, comp, pool1, f"C'_(1,{j}) from D minus shared + w+1", trace)
            if omega + 1 in used:
                u_vertices.append(list(bits(comp))[used.index(omega + 1)])
    trace.u_vertices = tuple(u_vertices)

    # leftovers of rows 1 and 2 take the row color
    left = {1: 0, 2: 0}
    for (i, q), cell in p.C.items():
        if i <= 2 and q >= 3:
            left[i] |= cell
    _color_all(colors, left[1] & ~cp1, 1, "row-1 leftovers", trace)
    _color_all(colors, left[2] & ~cp2, 2, "row-2 leftovers", trace)


def _color_c12(g: Graph, p: WBCPartition, colors: list[int], trace: ColoringTrace) -> None:
    omega = p.omega
    c12 = p.C.get((1, 2), 0)
    if not c12:
        return
    comps = _clique_components(g, c12, "component of C_{1,2}")
    if max(comp.bit_count() for comp in comps) <= omega - 1:
        pool, where = list(range(omega + 2, 2 * omega + 1)), "C_{1,2} (small)"
    elif (omega + 1) in colors:
        # No component has w vertices once w+1 is used. Only a vertex x of
        # C'_(1,j), j >= 3, takes w+1; x has a neighbour y there, and both see
        # v_2 and miss v_1. Let T be a component of w vertices; it misses v_1
        # and v_2. x misses at most one vertex of T, else x-v_2-v_1 and an edge
        # of T form a P3 u P2, and T + x is no clique, so x misses exactly one,
        # t_x. So does y, and t_y != t_x, as (T - t_x) + x + y is no clique.
        # For t in T - t_x - t_y, v_2-y-t-t_y is a P4 inside N(x): a gem.
        raise CertificationError("a C_{1,2} component of omega vertices meets a used w+1")
    else:
        pool, where = list(range(omega + 1, 2 * omega + 1)), "C_{1,2} (w+1 free)"
    for comp in comps:
        _assign_pool(colors, comp, pool, where, trace)


def color_three_omega(g: Graph) -> Coloring:
    """Proper coloring of a class member with at most 3*omega - 2 colors.

    Splits V(G) minus C_{1,2} into two P4-free pieces, colors each optimally
    via the cotree, then gives C_{1,2} fresh colors.
    """
    return _three_omega(g)[0]


def _three_omega(g: Graph) -> tuple[Coloring, int]:
    """`color_three_omega` and the omega its partition found."""
    p = _member_partition(g)
    a, omega = p.A, p.omega

    piece1 = 0  # (v_k u I_k for k >= 2) plus all cells with i >= 2
    for k in range(2, omega + 1):
        piece1 |= (1 << a[k - 1]) | p.I[k - 1]
    piece2 = (1 << a[0]) | p.I[0] if a else 0  # v_1 u I_1 plus cells C_{1,j}, j >= 3
    for (i, j), cell in p.C.items():
        if i >= 2:
            piece1 |= cell
        elif j >= 3:
            piece2 |= cell
    c12 = p.C.get((1, 2), 0)

    colors = [0] * g.n
    offset = 0
    for label, piece in (("piece1", piece1), ("piece2", piece2)):
        used = cograph_coloring(g, piece, colors, offset)
        if used is None:
            raise CertificationError(f"{label} is not P4-free (contradicts the construction)")
        offset += used
    for comp in _clique_components(g, c12, "C_{1,2} component"):
        for i, v in enumerate(bits(comp)):
            colors[v] = offset + 1 + i

    # colors are contiguous (each piece uses 1..k, C_{1,2} takes the next
    # ones), so the bound reads the same before and after renumbering
    return _certify(g, first_occurrence_colors(colors), a, max(3 * omega - 2, 1),
                   "3*omega-2"), omega
