"""Exact sparse rank computations over Q and over prime fields.

Matrices arrive as lists of sparse rows ({column: value}) with non-negative
integer columns.  Three kernels reduce one row at a time against a dict of
pivot rows keyed by leading column, largest column first, so each row costs
only its own eliminations:

- `rank_rational` over Q stays in integers: rows are combined as
  pivot*row - entry*pivot_row and re-normalized by their gcd, so no floating
  point or fractions appear;
- `rank_mod` over F_p keeps dict rows with entries reduced mod p;
- `rank_f2_packed` over F_2 takes rows already packed into ints, bit c set
  when the entry at column c is odd, so an elimination step is one XOR and
  the leading column is the bit length.  `rank_f2` packs dict rows and calls
  it, so the library has one F_2 elimination loop.

`rank(rows, char)` picks the kernel for a characteristic.  A caller that
ranks many matrices sharing rows, as `morse.check_exactness` does with the
columns of one differential across strands, packs each row once and calls
`rank_f2_packed` directly.
"""
from __future__ import annotations

from math import gcd


def rank_rational(rows: list[dict[int, int]]) -> int:
    """Rank over Q of an integer matrix, by integer-preserving elimination.

    Each row is reduced against the echelon form built so far.  While its
    leading (largest) column c, with entry e, has a pivot row p*x_c + rest,
    the row becomes (p/g)*row - (e/g)*(p*x_c + rest) with g = gcd(p, e), and
    is divided by the gcd of its entries.  A row whose leading column has no
    pivot becomes that column's pivot row, stored with p > 0, so a unit
    pivot never rescales the incoming row.  Pivot rows hold no column right
    of their own, so the leading column only falls.  Leading with the
    largest column rather than the smallest keeps the boundary matrices of
    face-ordered cells sparse: on the strands of the eleven-generator example
    it ran 2.3 times faster.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for src in rows:
        row = {c: v for c, v in src.items() if v}
        while row:
            lead = max(row)
            e = row.pop(lead)
            hit = pivots.get(lead)
            if hit is None:
                if e < 0:
                    e, row = -e, {c: -v for c, v in row.items()}
                pivots[lead] = (e, row)
                break
            pval, rest = hit
            g = gcd(pval, e)
            a, b = pval // g, e // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in rest.items():
                nv = row.get(c, 0) - b * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
            content = 0
            for v in row.values():
                content = gcd(content, v)
                if content == 1:
                    break
            if content > 1:
                row = {c: v // content for c, v in row.items()}
    return len(pivots)


def rank_mod(rows: list[dict[int, int]], p: int) -> int:
    """Rank over the prime field F_p, by the same echelon reduction with
    pivot rows scaled to a leading 1."""
    pivots: dict[int, dict[int, int]] = {}
    for src in rows:
        row = {c: v % p for c, v in src.items() if v % p}
        while row:
            lead = max(row)
            e = row.pop(lead)
            rest = pivots.get(lead)
            if rest is None:
                inv = pow(e, -1, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            for c, v in rest.items():
                nv = (row.get(c, 0) - e * v) % p
                if nv:
                    row[c] = nv
                else:
                    del row[c]
    return len(pivots)


def rank_f2_packed(rows: list[int]) -> int:
    """Rank over F_2 of rows packed into ints, bit c for column c.

    A row's leading column is its bit length, which keys the pivot dict;
    XOR with that pivot clears the leading bit and leaves only lower ones,
    so the leading column only falls, as in the dict kernels.  Zero rows
    count for nothing.
    """
    pivots: dict[int, int] = {}
    get = pivots.get
    for x in rows:
        while x:
            lead = x.bit_length()
            p = get(lead)
            if p is None:
                pivots[lead] = x
                break
            x ^= p
    return len(pivots)


def rank_f2(rows: list[dict[int, int]]) -> int:
    """Rank over F_2: each row packed into an int, then `rank_f2_packed`."""
    packed = []
    for src in rows:
        x = 0
        for c, v in src.items():
            x |= (v & 1) << c
        packed.append(x)
    return rank_f2_packed(packed)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def check_characteristic(char: int) -> int:
    if char == 0:
        return 0
    if not is_prime(char):
        raise ValueError(f"characteristic must be 0 or a prime, got {char}")
    return char


def rank(rows: list[dict[int, int]], char: int) -> int:
    """Rank of the rows over Q (char 0) or F_char: `rank_rational` at char 0,
    `rank_f2` at char 2 and `rank_mod` at any other prime."""
    if char == 0:
        return rank_rational(rows)
    if char == 2:
        return rank_f2(rows)
    return rank_mod(rows, char)
