"""Exact sparse rank computations over Q and over prime fields.

Matrices arrive as lists of sparse rows ({column: value}) with non-negative
integer columns.  Four kernels reduce one row at a time against a dict of
pivot rows keyed by leading column, largest column first, so each row costs
only its own eliminations, and return that dict:

- `pivots_rational` over Q stays in integers: rows are combined as
  pivot*row - entry*pivot_row and re-normalized by their gcd, so no floating
  point or fractions appear;
- `pivots_mod` over F_p keeps dict rows with entries reduced mod p;
- `pivots_unit` over Z takes a pivot only on a leading entry +-1, so its
  pivots are independent over every field at once: it bounds the rank
  from below at every characteristic;
- `pivots_f2_packed` over F_2 takes rows already packed into ints, bit c set
  when the entry at column c is odd, so an elimination step is one XOR and
  the leading column is the bit length, which keys its dict.

A row only ever meets pivots keyed by its own leading column, so when the
columns of a matrix fall into ranges that no row crosses, one call ranks
each range at once: the rank of a range is the number of keys in it.
`morse.check_exactness` eliminates all the levels of a strand in one call
of a dict kernel that way.  Over F_2 it calls no kernel: its lane pass
eliminates every strand at once on ints whose bits are strands.

Each kernel also takes the dict of an earlier call and extends it in place:
an echelon form of rows A, extended by rows B, is an echelon form of A + B
with the same keys as one call on A + B.  The kernels keep two promises
that callers build on:
- lazy: the rows are read one at a time, each reduced and, when it keeps
  a lead, added before the next is read, so a generator of rows may read
  the dict and see the keys that earlier rows of the same call added;
- add-only: a key, once in the dict, is never replaced or removed, so the
  keys are in the order they were added, and `popitem()` back to the size
  the dict had before a call undoes that call.
`morse.check_exactness` keeps one dict per unit, Q or F_p pass on those two
promises: its row generator drops every column whose own cell is already a
key, and it backs up out of a strand by `popitem()`.

The rank is the size of the dict, so the library has one elimination loop
per field; the size of a `pivots_unit` dict is a lower bound.
`rank(rows, char)` picks the kernel for a characteristic and returns the
rank of the rows over that field; it packs each row into an int at char 2.
"""
from __future__ import annotations

from math import gcd
from typing import Iterable


def pivots_rational(
    rows: Iterable[dict[int, int]],
    pivots: dict[int, tuple[int, dict[int, int]]] | None = None,
) -> dict[int, tuple[int, dict[int, int]]]:
    """Echelon form over Q of an integer matrix, by integer-preserving
    elimination: leading column -> (pivot entry, rest of the pivot row).

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

    Given `pivots`, an echelon form of earlier rows, the rows extend it in
    place, and it is returned.
    """
    if pivots is None:
        pivots = {}
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
    return pivots


def pivots_mod(
    rows: Iterable[dict[int, int]],
    p: int,
    pivots: dict[int, dict[int, int]] | None = None,
) -> dict[int, dict[int, int]]:
    """Echelon form over the prime field F_p, by the same reduction with
    pivot rows scaled to a leading 1: leading column -> rest of the row.
    Given `pivots`, the rows extend it in place, as in `pivots_rational`."""
    if pivots is None:
        pivots = {}
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
    return pivots


def pivots_unit(
    rows: Iterable[dict[int, int]],
    pivots: dict[int, dict[int, int]] | None = None,
) -> dict[int, dict[int, int]]:
    """Echelon form over Z that takes only unit pivots: leading column ->
    rest of a pivot row whose leading entry is 1.

    Each row is reduced as in `pivots_mod`, against pivot rows with lead 1,
    so it stays an integer row and needs no gcd.  A row whose leading column
    has no pivot becomes that column's pivot row when its entry there is
    +-1, stored with lead +1, and is dropped otherwise.  Every pivot row is
    an integer combination of the rows, and the pivots have distinct leads
    with entry 1, so they stay independent mod every p: there are at most
    as many keys as the rank of the rows over every field, and in each
    range of columns that no row crosses, at most its rank.  Given
    `pivots`, the rows extend it in place, as in `pivots_rational`; one
    call on A + B makes the same steps.
    """
    if pivots is None:
        pivots = {}
    for src in rows:
        row = {c: v for c, v in src.items() if v}
        while row:
            lead = max(row)
            e = row.pop(lead)
            rest = pivots.get(lead)
            if rest is None:
                if e == 1:
                    pivots[lead] = row
                elif e == -1:
                    pivots[lead] = {c: -v for c, v in row.items()}
                break
            for c, v in rest.items():
                nv = row.get(c, 0) - e * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
    return pivots


def pivots_f2_packed(
    rows: Iterable[int],
    pivots: dict[int, int] | None = None,
) -> dict[int, int]:
    """Echelon form over F_2 of rows packed into ints, bit c for column c:
    bit length -> pivot row, so the key of leading column c is c + 1.
    Given `pivots`, the rows extend it in place, as in `pivots_rational`.

    XOR with the pivot of a row's key clears its leading bit and leaves only
    lower ones, so the leading column only falls, as in the dict kernels.
    Zero rows count for nothing.
    """
    if pivots is None:
        pivots = {}
    get = pivots.get
    for x in rows:
        while x:
            lead = x.bit_length()
            p = get(lead)
            if p is None:
                pivots[lead] = x
                break
            x ^= p
    return pivots


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
    """Rank of the rows over Q (char 0) or F_char: `pivots_rational` at char
    0, `pivots_f2_packed` on the rows packed into ints at char 2, and
    `pivots_mod` at any other prime."""
    if char == 0:
        return len(pivots_rational(rows))
    if char == 2:
        packed = (sum((v & 1) << c for c, v in row.items()) for row in rows)
        return len(pivots_f2_packed(packed))
    return len(pivots_mod(rows, char))
