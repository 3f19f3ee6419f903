"""Betti tables, the Tor-strand and Hochster oracles, and diagram rendering."""
from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .monomials import Monomial, MonomialIdeal, monomial_str
from .morse import ChainComplex
from .taylor import TaylorComplex, facets

DEFAULT_PRIMES = (2, 3, 5)


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
    """
    linalg.check_characteristic(char)
    tc = TaylorComplex(I)
    deg = tc.degree
    classes: dict[int, list[int]] = {}
    for mask in tc.faces():
        classes.setdefault(deg(mask), []).append(mask)

    multi: dict[tuple[int, tuple[int, ...]], int] = {}
    for alpha_deg, masks in classes.items():
        alpha = tc.decode(alpha_deg)
        by_h: dict[int, list[int]] = {}
        for m in masks:
            by_h.setdefault(m.bit_count(), []).append(m)
        for h, beta in _homology_ranks(by_h, 0, char).items():
            if beta:
                multi[(h, alpha)] = beta
    return BettiTable(I.variables, multi)


def _homology_ranks(
    levels: dict[int, list[int]], first: int, char: int
) -> dict[int, int]:
    """Homology ranks of the complex spanned by `levels` (faces keyed by
    degree, from `first` up; the simplicial boundary lowers the degree by
    one and keeps only faces present in the level below), per degree.

    Sorts each level in place, then ranks the boundary matrices in order of
    increasing degree through `linalg.rank`, skipping empty ones.
    """
    for level in levels.values():
        level.sort()
    top = max(levels)
    ranks: dict[int, int] = {}
    for h in range(first + 1, top + 1):
        cols = levels.get(h, [])
        row_index = {m: k for k, m in enumerate(levels.get(h - 1, []))}
        if not cols or not row_index:
            continue
        rows: dict[int, dict[int, int]] = {}
        for ci, mask in enumerate(cols):
            for facet, sign in facets(mask):
                if facet in row_index:
                    rows.setdefault(ci, {})[row_index[facet]] = sign
        ranks[h] = linalg.rank(list(rows.values()), char)
    return {
        h: len(levels.get(h, [])) - ranks.get(h, 0) - ranks.get(h + 1, 0)
        for h in range(first, top + 1)
    }


class SquarefreeRequiredError(ValueError):
    """Hochster's formula needs a squarefree ideal; polarize first."""


def hochster_betti(I: MonomialIdeal, char: int = 0) -> BettiTable:
    """Betti numbers from reduced homology of induced Stanley-Reisner complexes.

    For each squarefree lattice degree alpha, restrict the complex of
    non-ideal squarefree monomials to the support of alpha and read
    beta_{i,alpha} from reduced homology in dimension |alpha|-i-1.
    """
    linalg.check_characteristic(char)
    if any(not g.is_squarefree for g in I.generators):
        raise SquarefreeRequiredError(
            "hochster_betti needs a squarefree ideal; apply polarize() first"
        )
    n = I.nvars
    gen_masks = [
        sum(1 << i for i in g.support()) for g in I.generators
    ]

    tc = TaylorComplex(I)
    lattice = sorted(map(tc.decode, tc.lattice()))

    def is_face(vmask: int) -> bool:
        return not any(gm & ~vmask == 0 for gm in gen_masks)

    multi: dict[tuple[int, tuple[int, ...]], int] = {}
    for alpha in lattice:
        support = sum(1 << i for i, e in enumerate(alpha) if e)
        size = bin(support).count("1")
        faces_by_dim: dict[int, list[int]] = {}
        sub = support
        while True:
            if is_face(sub):
                faces_by_dim.setdefault(bin(sub).count("1") - 1, []).append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & support
        if not faces_by_dim:
            continue
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
