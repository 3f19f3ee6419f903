"""Betti tables, the Tor-strand and Hochster oracles, and diagram rendering."""
from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .monomials import Monomial, MonomialIdeal, monomial_str
from .morse import ChainComplex
from .taylor import TaylorComplex, indices_of


@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti counts (i, alpha) -> count, with the graded marginal."""

    variables: tuple[str, ...]
    multigraded: dict[tuple[int, tuple[int, ...]], int] = field(default_factory=dict)

    def graded(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (i, alpha), c in self.multigraded.items():
            key = (i, sum(alpha))
            out[key] = out.get(key, 0) + c
        return out

    def totals(self) -> tuple[int, ...]:
        cols: dict[int, int] = {}
        for (i, _), c in self.multigraded.items():
            cols[i] = cols.get(i, 0) + c
        if not cols:
            return ()
        return tuple(cols.get(i, 0) for i in range(max(cols) + 1))

    def entry(self, i: int, alpha: tuple[int, ...]) -> int:
        return self.multigraded.get((i, alpha), 0)

    def leq(self, other: "BettiTable") -> bool:
        keys = set(self.multigraded) | set(other.multigraded)
        return all(
            self.multigraded.get(k, 0) <= other.multigraded.get(k, 0) for k in keys
        )

    def same_entries(self, other: "BettiTable") -> bool:
        keys = set(self.multigraded) | set(other.multigraded)
        return all(
            self.multigraded.get(k, 0) == other.multigraded.get(k, 0) for k in keys
        )

    def to_json_dict(self) -> dict:
        graded = sorted((i, j, c) for (i, j), c in self.graded().items() if c)
        multi = sorted(
            (i, monomial_str(Monomial(alpha), self.variables), c)
            for (i, alpha), c in self.multigraded.items()
            if c
        )
        return {
            "graded": [[i, j, c] for i, j, c in graded],
            "multigraded": [[i, m, c] for i, m, c in multi],
        }


def betti_of_complex(C: ChainComplex) -> BettiTable:
    """Count basis cells per homological degree and multidegree."""
    multi: dict[tuple[int, tuple[int, ...]], int] = {}
    for i, level in enumerate(C.degrees):
        for alpha in level:
            key = (i, alpha)
            multi[key] = multi.get(key, 0) + 1
    return BettiTable(C.variables, multi)


def tor_betti(I: MonomialIdeal, char: int = 0) -> BettiTable:
    """True multigraded Betti numbers over a field of the given characteristic.

    Tensoring the Taylor resolution with the residue field kills every entry
    that shifts degree, so the degree-alpha piece is the complex spanned by
    the faces with multidegree exactly alpha and the equal-degree incidences.
    The homology of that small complex, class by class, is the Betti table.
    Uses the Taylor complex of the given generators, so it is independent of
    the pruning code it serves as an oracle for.

    The faces of degree alpha are closed upward inside their union T: a
    face between one of them and T has an lcm between alpha and alpha.  A
    class of one face, T alone, has no incidences, so it is not ranked: it
    gives beta = 1 in homological degree |T|.  In a larger class some
    generator j of T is not needed (T - j has degree alpha too; take the
    lowest such j).  The faces F of the class that hold j, with F - j outside
    the class, span a subcomplex K: a facet F - u in the class holds j, and
    F - u - j lies in F - j, so it is outside the class too.  The quotient
    by K has a basis of the faces F of the class without j and their
    F + j, and it is the mapping cone of the identity on the span of the
    former, so it is acyclic over every field, and K has the homology of
    the class over every field.  Only K is ranked: on cycle:15 it holds
    8,690 of the 31,404 faces in classes of two or more.

    K is ranked by `_homology_ranks`: over F_2 at chars 0 and 2, ranked
    again over Q at char 0 only when the Euler characteristic cannot
    certify the F_2 ranks for Q, and over F_p at an odd prime p.
    """
    linalg.check_characteristic(char)
    tc = TaylorComplex(I)
    deg = tc.face_degrees()
    classes: dict[int, list[int]] = {}
    for mask, d in enumerate(deg):
        classes.setdefault(d, []).append(mask)

    multi: dict[tuple[int, tuple[int, ...]], int] = {}
    for alpha_deg, masks in classes.items():
        if len(masks) == 1:
            multi[(masks[0].bit_count(), tc.decode(alpha_deg))] = 1
            continue
        top = masks[-1]
        j = next(
            1 << b for b in indices_of(top) if deg[top ^ 1 << b] == alpha_deg
        )
        by_h: dict[int, list[int]] = {}
        for m in masks:
            if m & j and deg[m ^ j] != alpha_deg:
                by_h.setdefault(m.bit_count(), []).append(m)
        if not by_h:
            continue
        for h, beta in _homology_ranks(by_h, 0, char).items():
            if beta:
                multi[(h, tc.decode(alpha_deg))] = beta
    return BettiTable(I.variables, multi)


def _homology_ranks(
    levels: dict[int, list[int]], first: int, char: int
) -> dict[int, int]:
    """Homology ranks of the complex spanned by `levels` (faces keyed by
    degree, from `first` up; the simplicial boundary lowers the degree by
    one and keeps only faces present in the level below), per degree.

    Sorts each level in place and builds the boundary rows of each level
    once, as `{row: sign}` dicts over the level below, with the sign
    (-1)^t of the `taylor` convention for removing the (t+1)-th member of
    a face.
    Each level is ranked through `linalg.rank`, skipping empty ones: at an
    odd prime p over F_p, at chars 0 and 2 over F_2.  At char 2 that is the
    answer.  At char 0 it is the answer too when the F_2 homology is
    nonzero in at most one degree:

    - The complex is a complex of free Z-modules, so its Q and F_2 ranks
      are those of one integer matrix per degree.  A nonzero minor mod 2 is
      a nonzero integer minor, so the F_2 rank of each boundary matrix is at
      most its Q rank, and the F_2 homology n_h - rank d_h - rank d_(h+1)
      is at least the Q homology in every degree h.
    - Both have the Euler characteristic sum (-1)^h n_h, which the ranks do
      not enter.
    - So if the F_2 homology is zero outside degree h0, the Q homology is
      zero there too, and its degree-h0 value is (-1)^h0 times the Euler
      characteristic, which is the F_2 value.  With no F_2 homology at all,
      there is no Q homology either.

    Otherwise, as for the 2-torsion of the real projective plane, the same
    row lists are ranked again, level by level, by `linalg.rank(rows, 0)`.
    The rows of d_h hold columns of level h - 1 only, so no two levels
    share a column, and one elimination of all the rows would find these
    per-level pivots.  F_2 ranks bound the Q ranks, not the F_p ones
    (p-torsion shows only mod p), so odd p has no F_2 pass.
    """
    for level in levels.values():
        level.sort()
    degrees = range(first, max(levels) + 1)
    matrices: dict[int, list[dict[int, int]]] = {}
    for h in degrees[1:]:
        cols, below = levels.get(h), levels.get(h - 1)
        if not cols or not below:
            continue
        get = {m: k for k, m in enumerate(below)}.get
        rows = []
        for m in cols:
            row, rest, sign = {}, m, 1
            while rest:
                low = rest & -rest
                k = get(m ^ low)
                if k is not None:
                    row[k] = sign
                rest ^= low
                sign = -sign
            rows.append(row)
        matrices[h] = rows

    def homology(field: int) -> dict[int, int]:
        ranks = {h: linalg.rank(rows, field) for h, rows in matrices.items()}
        return {
            h: len(levels.get(h, ())) - ranks.get(h, 0) - ranks.get(h + 1, 0)
            for h in degrees
        }

    betti = homology(char or 2)
    if char or sum(1 for b in betti.values() if b) <= 1:
        return betti
    return homology(0)


class SquarefreeRequiredError(ValueError):
    """Hochster's formula needs a squarefree ideal; polarize first."""


def hochster_betti(I: MonomialIdeal, char: int = 0) -> BettiTable:
    """Betti numbers from reduced homology of induced Stanley-Reisner complexes.

    For each squarefree lattice degree alpha, restrict the complex of
    non-ideal squarefree monomials to the support of alpha and read
    beta_{i,alpha} from reduced homology in dimension |alpha|-i-1
    (Hochster's formula; Miller-Sturmfels, Combinatorial Commutative
    Algebra, ch. 1).

    The induced complex D on the support S is not ranked whole.  Take the
    vertex v of S held by the fewest generators inside S.  Its star, the
    faces F of D with F + v in D, is a subcomplex and a cone with apex v,
    so its augmented chain complex is acyclic over every field, and D's
    augmented chain complex has the same homology as the quotient by it.
    The quotient has a basis of the faces of D outside the star: the faces
    F without v such that F + v is not a face (all of D when v itself is
    not a face).  Its boundary is the simplicial one with the faces of the
    star dropped, which is what `_homology_ranks` computes on those faces,
    with the empty face in dimension -1.  On cycle:14 this keeps 76,645 of
    the 302,992 faces of all the induced complexes.

    The faces without v are enumerated one size at a time: a face of size
    k + 1 is a face of size k with a vertex of S above its largest one,
    kept when no generator lies in it.  Only a generator holding the new
    vertex can newly lie in it, so that is all the test reads: each face
    carries the vertices above its largest one that no two-vertex
    generator forbids, and a wider generator is tested one by one.

    The quotient is ranked by `_homology_ranks`, as the pieces of
    `tor_betti` are.
    """
    linalg.check_characteristic(char)
    if any(not g.is_squarefree for g in I.generators):
        raise SquarefreeRequiredError(
            "hochster_betti needs a squarefree ideal; apply polarize() first"
        )
    gen_masks = [sum(1 << i for i in g.support()) for g in I.generators]
    if 0 in gen_masks:
        # the unit ideal: not even the empty set is a face
        return BettiTable(I.variables, {})
    # For vertex v: partners[v], the other vertex of each two-vertex
    # generator holding v; wider[v], the rest of every other one holding v.
    partners = [0] * I.nvars
    wider: list[list[int]] = [[] for _ in range(I.nvars)]
    for gm in gen_masks:
        for v in indices_of(gm):
            rest = gm ^ 1 << v
            if rest.bit_count() == 1:
                partners[v] |= rest
            else:
                wider[v].append(rest)

    tc = TaylorComplex(I)
    lattice = sorted(map(tc.decode, tc.lattice()))

    multi: dict[tuple[int, tuple[int, ...]], int] = {}
    for alpha in lattice:
        support = sum(1 << i for i, e in enumerate(alpha) if e)
        if not support:
            # the complex {empty face}: reduced homology 1 in dimension -1
            multi[(0, alpha)] = 1
            continue
        inside = [gm for gm in gen_masks if gm & ~support == 0]
        v = min(indices_of(support), key=lambda u: sum(gm >> u & 1 for gm in inside))
        # faces of D without v, each with the vertices that may extend it;
        # kept: those outside the star of v
        faces_by_dim: dict[int, list[int]] = {}
        level, d = [(0, support & ~(1 << v))], -1
        while level:
            kept = [
                face
                for face, _ in level
                if face & partners[v]
                or wider[v] and not all(r & ~face for r in wider[v])
            ]
            if kept:
                faces_by_dim[d] = kept
            nxt = []
            for face, cand in level:
                while cand:
                    low = cand & -cand
                    cand ^= low
                    u = low.bit_length() - 1
                    if not wider[u] or all(r & ~face for r in wider[u]):
                        nxt.append((face | low, cand & ~partners[u]))
            level, d = nxt, d + 1
        if not faces_by_dim:
            continue
        size = support.bit_count()
        for d, h in _homology_ranks(faces_by_dim, -1, char).items():
            if h:
                i = size - d - 1
                multi[(i, alpha)] = multi.get((i, alpha), 0) + h
    return BettiTable(I.variables, multi)


def render_betti(T: BettiTable) -> str:
    """Macaulay2-style diagram: header, total row, rows of beta_{i,i+j}.

    Only rows holding an entry are built: a single empty row between them
    prints as dots, a run of two or more as one `...` line, so the size of
    the diagram follows its entries, not the largest j - i.
    """
    graded = {k: v for k, v in T.graded().items() if v}
    ncols = max((i for i, _ in graded), default=0) + 1
    totals = [0] * ncols
    grid: dict[int, list[str]] = {}
    for (i, j), c in graded.items():
        grid.setdefault(j - i, ["."] * ncols)[i] = str(c)
        totals[i] += c

    header = [""] + [str(i) for i in range(ncols)]
    rows = [header, ["total:"] + [str(t) for t in totals]]
    nxt = min(0, min(grid, default=0))
    for rix in sorted(grid) or [0]:
        if rix - nxt == 1:
            rows.append([f"{nxt}:"] + ["."] * ncols)
        elif rix - nxt > 1:
            rows.append(["..."] + [""] * ncols)
        rows.append([f"{rix}:"] + grid.get(rix, ["."] * ncols))
        nxt = rix + 1
    widths = [max(len(row[c]) for row in rows) for c in range(ncols + 1)]
    lines = []
    for row in rows:
        lines.append(" ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)))
    return "\n".join(line.rstrip() for line in lines)
