"""Exact monomial arithmetic, ideal normalization, and polarization."""
from __future__ import annotations

from dataclasses import dataclass

MAX_EXPONENT = 2**31 - 1


class AmbientError(ValueError):
    """Two monomials do not live in the same ambient ring."""


@dataclass(frozen=True)
class Monomial:
    """A monomial x^a encoded as its exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e < 0 for e in self.exponents):
            raise ValueError(f"negative exponent in {self.exponents}")

    @property
    def total_degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.exponents) if e)


def _check_ambient(a: Monomial, b: Monomial) -> None:
    if len(a.exponents) != len(b.exponents):
        raise AmbientError(
            f"ambient dimension mismatch: {len(a.exponents)} vs {len(b.exponents)}"
        )


def lcm(a: Monomial, b: Monomial) -> Monomial:
    """Componentwise maximum of the exponent vectors."""
    _check_ambient(a, b)
    return Monomial(tuple(max(x, y) for x, y in zip(a.exponents, b.exponents)))


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff a divides b, i.e. every exponent of a is <= that of b."""
    _check_ambient(a, b)
    return all(x <= y for x, y in zip(a.exponents, b.exponents))


def monomial_str(m: Monomial, variables: tuple[str, ...]) -> str:
    """Render like ``x1^2*x3``; the unit monomial renders as ``1``."""
    parts = []
    for name, e in zip(variables, m.exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class MonomialIdeal:
    """An ordered list of monomial generators; the order is semantically significant."""

    variables: tuple[str, ...]
    generators: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        n = len(self.variables)
        if len(set(self.variables)) != n:
            raise AmbientError(f"repeated variable name in {self.variables}")
        for g in self.generators:
            if len(g.exponents) != n:
                raise AmbientError(
                    f"generator {g.exponents} does not match {n} variables"
                )

    @property
    def r(self) -> int:
        return len(self.generators)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def generator_strs(self) -> list[str]:
        return [monomial_str(g, self.variables) for g in self.generators]


def ideal(variables, exponent_rows) -> MonomialIdeal:
    """Convenience constructor from raw exponent rows."""
    return MonomialIdeal(
        tuple(variables), tuple(Monomial(tuple(row)) for row in exponent_rows)
    )


def minimal_generators(I: MonomialIdeal) -> MonomialIdeal:
    """Drop generators divisible by another one; duplicates collapse to their
    first occurrence.  Relative order is preserved."""
    kept: list[Monomial] = []
    gens = I.generators
    for i, g in enumerate(gens):
        redundant = False
        for k, h in enumerate(gens):
            if k == i:
                continue
            if h == g:
                if k < i:
                    redundant = True
                    break
            elif divides(h, g):
                redundant = True
                break
        if not redundant:
            kept.append(g)
    return MonomialIdeal(I.variables, tuple(kept))


def polarize(I: MonomialIdeal) -> tuple[MonomialIdeal, dict[int, int]]:
    """Squarefree ideal with the same Betti numbers, plus the map sending each
    new variable index to the original variable it descends from.

    x_i^a inside a generator expands to the product of the first a copies
    of x_i.  A variable with one copy keeps its name; the copies of any
    other are named x_i_1, x_i_2, ..., skipping every name of the ring and
    every name given before.  Already-squarefree ideals are returned
    unchanged with the identity mapping.
    """
    if all(g.is_squarefree for g in I.generators):
        return I, {i: i for i in range(I.nvars)}

    copies = [
        max((g.exponents[i] for g in I.generators), default=0) or 1
        for i in range(I.nvars)
    ]
    new_names: list[str] = []
    mapping: dict[int, int] = {}
    slot: list[int] = []  # first new index for each original variable
    taken = set(I.variables)
    for i, name in enumerate(I.variables):
        slot.append(len(new_names))
        if copies[i] == 1:
            mapping[len(new_names)] = i
            new_names.append(name)
            continue
        suffix = 0
        for _ in range(copies[i]):
            suffix += 1
            while f"{name}_{suffix}" in taken:
                suffix += 1
            taken.add(f"{name}_{suffix}")
            mapping[len(new_names)] = i
            new_names.append(f"{name}_{suffix}")

    new_gens = []
    for g in I.generators:
        exps = [0] * len(new_names)
        for i, e in enumerate(g.exponents):
            for k in range(e):
                exps[slot[i] + k] = 1
        new_gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(tuple(new_names), tuple(new_gens)), mapping
