"""Ideal sources: the text grammar, builtin families, and seeded random corpora.

Grammar::

    ring x1 x2 x3
    gens x1*x2, x2*x3

Statements are separated by newlines or ``;``: exactly one ``ring`` line and
then one ``gens`` line, each keyword a whole word.  Monomial tokens look like
``x1^2*x3``; the caret exponent is optional and ``*`` separates factors.
Unit generators, negative or oversized exponents, and any statement after
the ``gens`` line are rejected at parse time with their line and column.
"""
from __future__ import annotations

import random
import re

from .monomials import MAX_EXPONENT, Monomial, MonomialIdeal

DEFAULT_SEED = 20250808


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_FACTOR = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?$")


def _statements(text: str) -> list[tuple[int, int, str]]:
    """The nonblank statements, separated by newlines or ';', as (line, col,
    text): the 1-based position of each statement's first character."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        start = 0
        for part in raw.split(";"):
            body = part.strip()
            if body:
                out.append((ln, start + len(part) - len(part.lstrip()) + 1, body))
            start += len(part) + 1
    return out


def _keyword(stmt: tuple[int, int, str], word: str) -> tuple[str, int] | None:
    """The rest of the statement and its column if the statement starts with
    the keyword as a whole word; None otherwise."""
    _, col, body = stmt
    head = body.split(None, 1)[0]
    if head != word:
        return None
    rest = body[len(word):]
    return rest, col + len(word)


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the two-statement grammar; every statement must be consumed."""
    stmts = _statements(text)
    ring = _keyword(stmts[0], "ring") if stmts else None
    if ring is None:
        ln, col = stmts[0][:2] if stmts else (1, 1)
        raise ParseError("expected a 'ring <var> ...' line", ln, col)
    ring_ln, ring_col = stmts[0][:2]
    variables = tuple(ring[0].split())
    if not variables:
        raise ParseError("ring line declares no variables", ring_ln, ring[1])
    if len(set(variables)) != len(variables):
        raise ParseError("duplicate variable name", ring_ln, ring_col)
    var_index = {v: i for i, v in enumerate(variables)}

    gens = _keyword(stmts[1], "gens") if len(stmts) > 1 else None
    if gens is None:
        ln, col = stmts[1][:2] if len(stmts) > 1 else (ring_ln + 1, 1)
        raise ParseError("expected a 'gens <mono>, ...' line", ln, col)
    if len(stmts) > 2:
        ln, col, body = stmts[2]
        if _keyword(stmts[2], "gens"):
            raise ParseError(f"second gens line {body!r}", ln, col)
        raise ParseError(f"trailing text after the gens line: {body!r}", ln, col)
    gens_ln = stmts[1][0]
    body, start = gens
    generators = []
    for token in body.split(","):
        tok = token.strip()
        col = start + len(token) - len(token.lstrip())
        if not tok:
            raise ParseError("empty generator", gens_ln, col)
        exps = [0] * len(variables)
        for factor in tok.split("*"):
            f = factor.strip()
            m = _FACTOR.match(f)
            if not m:
                raise ParseError(f"malformed factor {f!r}", gens_ln, col)
            name, exp_s = m.group(1), m.group(2)
            if name not in var_index:
                raise ParseError(f"unknown variable {name!r}", gens_ln, col)
            exp = 1 if exp_s is None else int(exp_s)
            if exp < 0:
                raise ParseError(f"negative exponent in {f!r}", gens_ln, col)
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent too large in {f!r}", gens_ln, col)
            exps[var_index[name]] += exp
        mono = Monomial(tuple(exps))
        if mono.is_unit:
            raise ParseError(f"unit generator {tok!r}", gens_ln, col)
        generators.append(mono)
        start += len(token) + 1
    return MonomialIdeal(variables, tuple(generators))


def path_ideal(n: int) -> MonomialIdeal:
    """Edge ideal of the path on n vertices: x1x2, ..., x_{n-1}x_n."""
    return edge_ideal(n, [(i, i + 1) for i in range(1, n)])


def cycle_ideal(n: int) -> MonomialIdeal:
    """Edge ideal of the n-cycle, closing edge x_n*x_1 last."""
    return edge_ideal(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def edge_ideal(n: int, edges: list[tuple[int, int]]) -> MonomialIdeal:
    """Edge ideal from 1-based vertex pairs, generators in input order."""
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    gens = []
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        exps = [0] * n
        exps[u - 1] = exps[v - 1] = 1
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(variables, tuple(gens))


def rp2_ideal() -> MonomialIdeal:
    """Stanley-Reisner ideal of the minimal projective-plane triangulation."""
    text = (
        "ring x1 x2 x3 x4 x5 x6\n"
        "gens x1*x2*x3, x1*x2*x4, x1*x3*x5, x2*x4*x5, x3*x4*x5,"
        " x2*x3*x6, x1*x4*x6, x3*x4*x6, x1*x5*x6, x2*x5*x6"
    )
    return parse_ideal(text)


def example_4_1_ideal() -> MonomialIdeal:
    """The eleven-generator benchmark ideal in seven variables."""
    text = (
        "ring x1 x2 x3 x4 x5 x6 x7\n"
        "gens x1^4, x2^4, x2^2*x3^2, x3^4, x4^4, x1*x4^2*x5,"
        " x5^4, x2^2*x6^2, x6^4, x4^2*x7^2, x7^4"
    )
    return parse_ideal(text)


_BUILTIN_RE = re.compile(r"^(path|cycle):(\d+)$")
_EDGE_LINE = re.compile(r"(-?\d+)\s+(-?\d+)")


def builtin_ideal(spec: str) -> MonomialIdeal | None:
    """Resolve a builtin spec string; None when it is not a builtin.

    `edges:FILE` reads one edge `u v` per nonblank line, vertices numbered
    from 1; a bad line, or a file without edges, raises ParseError.  Its
    ring has one variable x<v> for each vertex v that occurs."""
    m = _BUILTIN_RE.match(spec)
    if m:
        kind, n = m.group(1), int(m.group(2))
        if n < 2:
            raise ValueError(f"{kind}:{n} needs at least 2 vertices")
        if kind == "cycle" and n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return path_ideal(n) if kind == "path" else cycle_ideal(n)
    if spec == "rp2":
        return rp2_ideal()
    if spec == "example-4-1":
        return example_4_1_ideal()
    if spec.startswith("edges:"):
        with open(spec[len("edges:"):], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        pairs = []
        for ln, raw in enumerate(lines, start=1):
            body = raw.strip()
            if not body:
                continue
            m = _EDGE_LINE.fullmatch(body)
            u, v = (int(m[1]), int(m[2])) if m else (0, 0)
            if u == v or min(u, v) < 1:
                why = "two distinct vertices from 1 up" if m else "two vertex numbers"
                col = len(raw) - len(raw.lstrip()) + 1
                raise ParseError(f"expected {why}, got {body!r}", ln, col)
            pairs.append((u, v))
        if not pairs:
            raise ParseError("no edges in the file", len(lines) + 1, 1)
        # one variable x<v> per vertex v that occurs, not per number up to
        # the largest
        vertices = sorted({v for pair in pairs for v in pair})
        number = {v: k for k, v in enumerate(vertices, 1)}
        dense = edge_ideal(len(vertices), [(number[u], number[v]) for u, v in pairs])
        return MonomialIdeal(tuple(f"x{v}" for v in vertices), dense.generators)
    return None


def random_ideal(
    rng: random.Random,
    max_vars: int = 6,
    max_gens: int = 7,
    max_exp: int = 3,
    squarefree: bool = False,
) -> MonomialIdeal:
    """One random ideal for the property corpora; generators are never units."""
    n = rng.randint(1, max_vars)
    r = rng.randint(1, max_gens)
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    gens = []
    for _ in range(r):
        while True:
            if squarefree:
                exps = tuple(rng.randint(0, 1) for _ in range(n))
            else:
                # biased toward sparse support so prunable edges actually occur
                exps = tuple(
                    rng.randint(1, max_exp) if rng.random() < 0.5 else 0
                    for _ in range(n)
                )
            if any(exps):
                gens.append(Monomial(exps))
                break
    return MonomialIdeal(variables, tuple(gens))


def random_corpus(
    count: int,
    seed: int = DEFAULT_SEED,
    max_vars: int = 6,
    max_gens: int = 7,
    max_exp: int = 3,
    squarefree: bool = False,
) -> list[MonomialIdeal]:
    rng = random.Random(seed)
    return [
        random_ideal(rng, max_vars, max_gens, max_exp, squarefree)
        for _ in range(count)
    ]


def pad_with_redundant(
    I: MonomialIdeal, rng: random.Random, extra: int
) -> MonomialIdeal:
    """Insert 1..extra redundant generators (multiples of existing ones) at
    random positions, preserving the relative order of the originals."""
    gens = list(I.generators)
    n = I.nvars
    for _ in range(extra):
        base = rng.choice(I.generators)
        bump = [0] * n
        bump[rng.randrange(n)] = rng.randint(0, 2)
        new = Monomial(tuple(a + b for a, b in zip(base.exponents, bump)))
        gens.insert(rng.randint(0, len(gens)), new)
    return MonomialIdeal(I.variables, tuple(gens))
