"""The Taylor complex on r generators: bitmask faces, multidegrees, incidences.

A face is a subset of {0..r-1} stored as an int bitmask; bit k corresponds to
generator k, so the canonical face order (characteristic vector read with the
first generator least significant) is plain integer order.  The boundary of
a face removes one member at a time, with the incidence sign (-1)^t for the
(t+1)-th smallest member.  Any consistent convention works; this one is
pinned by the d*d = 0 tests, and `morse`, `betti` and the gradient-flow
weights of `pruning` all use it.

Multidegrees are int bitmasks too, in a rank-compressed polarization.  For
each variable, take the distinct nonzero exponents v_1 < ... < v_m it has
among the generators; the variable owns m bits, and the t-th is set when
the exponent is at least v_t.  Every lcm degree is the lcm of some
generators, so its exponents are among those values, and the encoding is
exact on the lcm lattice: lcm is `|`, "a divides b" is `a & ~b == 0`, and
equal degree is `==`.  It needs at most r bits per variable, however large
the exponents.  Plain polarization would spend one bit per unit of
exponent, 2**31 bits for `x^(2**31 - 1)`.  The exponent vectors appear only
at the output boundary, decoded through a memo sized by the lattice.

No table over the 2^r faces is kept: a face's degree is read from two
tables over the halves of the generators (`TaylorComplex`), and the lcm
lattice is closed from the generator degrees alone (`lattice`).

The set bits of each variable's segment are a prefix: the lowest c bits,
where c is how many of its values the exponent reaches.  So when a divides
b, within each segment a's prefix is no longer than b's, and `a ^ b` there
is the run of bits from a's prefix length up to b's.  Its lowest and highest
set bits give both lengths, and with them both exponents (no bit: equal
exponents).  The exponent vector of b / a therefore depends only on `a ^ b`,
and `morse.morse_differential` memoizes its entry monomials by that XOR.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from weakref import WeakKeyDictionary

from .monomials import MonomialIdeal

# ideal -> its table.  A table depends only on the generators, and holds no
# reference to its ideal, so it dies with the ideal it was built for.
_TABLES: WeakKeyDictionary[MonomialIdeal, TaylorComplex] = WeakKeyDictionary()
# ints at least this wide are walked in their binary string (`indices_of`)
WIDE_MASK_BITS = 1024
# the binary digits "0" and "1" as the bytes 0 and 1 (`indices_of`)
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
# the most generators whose 2^r faces are built unless the caller forces it:
# the command line refuses a larger ideal, and
# `splitting.check_pruned_splitting` a larger intersection grid
GENERATOR_CAP = 24


def indices_of(mask: int) -> list[int]:
    """The members of a face: positions of the set bits, in increasing order.

    Each step of the walk by lowest set bit costs the width of the int, so
    k set bits of a W-bit int cost about k * W.  An int of at least
    WIDE_MASK_BITS bits, as a strand of a complex with thousands of cells,
    is read from `bin` instead: one pass over its digits and one `find` per
    set bit.  When more than a sixth of its digits are ones, as the 24,576
    of 32,766 critical faces of the Lyubeznik sweep of cycle:15, the
    digits, lowest first, are made bytes 0 and 1 and select the positions
    by `compress`, all in C: 0.7 ms there, against 3.1 ms for a `find` per
    set bit.  At a sixth the two cost about the same."""
    if mask.bit_length() >= WIDE_MASK_BITS:
        digits = bin(mask)
        if 6 * mask.bit_count() > len(digits) - 2:
            flags = digits[:1:-1].encode().translate(_BIT_BYTES)  # byte k is bit k
            return list(compress(range(len(flags)), flags))
        top = len(digits) - 1
        out = []
        i = digits.find("1", 2)
        while i >= 0:
            out.append(top - i)
            i = digits.find("1", i + 1)
        out.reverse()
        return out
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _or_table(degrees: list[int]) -> list[int]:
    """table[mask]: the OR of degrees[k] over the members k of mask.  The
    masks on the first k + 1 degrees are those on the first k, each with
    and without member k, so the table doubles once per degree."""
    table = [0]
    for g in degrees:
        table += [d | g for d in table]
    return table


class TaylorComplex:
    """The lcm degrees of the faces of the full simplex of one ideal,
    without a table over its 2^r faces.

    One per ideal: the first `TaylorComplex(I)` builds it, every later call
    on I or an equal ideal returns it, and it is freed with I (`_TABLES`).
    `gen_degrees[j]` is the degree of generator j as an int bitmask, in the
    rank-compressed encoding of the module docstring.  `degree(mask)` is a
    face's lcm degree: the OR of two lookups, in the OR table of the
    generators [0, h) at the mask's low h bits and in that of [h, r) at the
    rest, h = r // 2, so the two tables hold 2^h + 2^(r - h) entries.  It
    is a closure stored on the instance rather than a method, so reading it
    binds nothing and `tc.degree is tc.degree`.  A caller that walks every
    face takes the whole table from `face_degrees()`, its own list, freed
    when the caller drops it.  `decode(deg)` and `exponents(mask)` give
    exponent vectors.  Read-only once built, apart from the memos, the
    pruning step masks among them (`pruning._step_masks`).
    """

    def __new__(cls, I: MonomialIdeal) -> TaylorComplex:
        tc = _TABLES.get(I)
        if tc is not None:
            return tc
        tc = _TABLES[I] = super().__new__(cls)
        tc.r = I.r
        # values[k]: the distinct nonzero k-th exponents of the generators,
        # ascending; variable k owns one bit per value, from offsets[k] up.
        values = [
            sorted({g.exponents[k] for g in I.generators} - {0})
            for k in range(I.nvars)
        ]
        offsets = [0]
        for vals in values:
            offsets.append(offsets[-1] + len(vals))
        tc._segments = [
            (off, (1 << len(vals)) - 1, (0, *vals))
            for off, vals in zip(offsets, values)
        ]
        tc.gen_degrees = [
            sum(
                ((1 << bisect_right(vals, e)) - 1) << off
                for e, vals, off in zip(g.exponents, values, offsets)
            )
            for g in I.generators
        ]
        h = I.r // 2
        low = (1 << h) - 1
        lo, hi = _or_table(tc.gen_degrees[:h]), _or_table(tc.gen_degrees[h:])
        tc.degree = lambda mask: lo[mask & low] | hi[mask >> h]
        tc._decoded = {}
        return tc

    def face_degrees(self) -> list[int]:
        """The degree of every face, indexed by its mask: a new list of 2^r
        ints on each call, for a caller that walks every face."""
        return _or_table(self.gen_degrees)

    def decode(self, deg: int) -> tuple[int, ...]:
        """The exponent vector of a degree bitmask."""
        hit = self._decoded.get(deg)
        if hit is None:
            hit = tuple(
                vals[((deg >> off) & seg).bit_count()]
                for off, seg, vals in self._segments
            )
            self._decoded[deg] = hit
        return hit

    def exponents(self, mask: int) -> tuple[int, ...]:
        return self.decode(self.degree(mask))

    def faces(self) -> range:
        return range(1 << self.r)

    def lattice(self) -> set[int]:
        """The degrees of all faces, the empty face's 0 among them: the lcm
        lattice, found without walking the 2^r faces.  The faces on the
        first k + 1 generators are those on the first k, each with and
        without generator k, and lcm is `|`, so closing {0} under
        S <- S + {s | g : s in S}, one generator degree g at a time, costs
        the lattice size per generator."""
        points = {0}
        for g in self.gen_degrees:
            points |= {s | g for s in points}
        return points

