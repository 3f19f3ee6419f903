"""The Taylor complex on r generators: bitmask faces, multidegrees, incidences.

A face is a subset of {0..r-1} stored as an int bitmask; bit k corresponds to
generator k, so the canonical face order (characteristic vector read with the
first generator least significant) is plain integer order.

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
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Callable

from .monomials import MonomialIdeal

PRECOMPUTE_CAP = 20
# ints at least this wide are walked in their binary string (`indices_of`)
WIDE_MASK_BITS = 1024


def indices_of(mask: int) -> list[int]:
    """The members of a face: positions of the set bits, in increasing order.

    Each step of the walk by lowest set bit costs the width of the int, so
    k set bits of a W-bit int cost about k * W.  An int of at least
    WIDE_MASK_BITS bits, as a strand of a complex with thousands of cells,
    is read from `bin` instead: one pass over its digits and one `find` per
    set bit."""
    if mask.bit_length() >= WIDE_MASK_BITS:
        digits = bin(mask)
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


def facets(mask: int) -> list[tuple[int, int]]:
    """(facet, sign) pairs for the simplicial boundary of a face, removing
    its members in increasing order.

    The sign [mask : facet] is (-1)^k when the removed member is the
    (k+1)-th smallest of the face.  Any consistent convention works; this
    one is pinned by the d*d = 0 tests, and the gradient-flow weights read
    it from here.
    """
    out = []
    sign = 1
    rest = mask
    while rest:
        low = rest & -rest
        out.append((mask ^ low, sign))
        rest ^= low
        sign = -sign
    return out


class TaylorComplex:
    """The degree table over all 2^r faces of the full simplex.

    `degree(mask)` is a face's lcm degree as an int bitmask, in the
    rank-compressed encoding of the module docstring, and `gen_degrees[j]`
    is the degree of generator j.  `decode(deg)` and `exponents(mask)` give
    exponent vectors.  Degrees are fully precomputed for r <= precompute_cap
    and memoized lazily above that.  Read-only after construction, apart
    from the memos.
    """

    def __init__(self, I: MonomialIdeal, precompute_cap: int = PRECOMPUTE_CAP):
        self.ideal = I
        self.r = I.r
        # values[k]: the distinct nonzero k-th exponents of the generators,
        # ascending; variable k owns one bit per value, from offsets[k] up.
        values = [
            sorted({g.exponents[k] for g in I.generators} - {0})
            for k in range(I.nvars)
        ]
        offsets = [0]
        for vals in values:
            offsets.append(offsets[-1] + len(vals))
        self._segments = [
            (off, (1 << len(vals)) - 1, (0, *vals))
            for off, vals in zip(offsets, values)
        ]
        self.gen_degrees = [
            sum(
                ((1 << bisect_right(vals, e)) - 1) << off
                for e, vals, off in zip(g.exponents, values, offsets)
            )
            for g in I.generators
        ]
        self._decoded: dict[int, tuple[int, ...]] = {}
        if I.r <= precompute_cap:
            table = [0]
            for g in self.gen_degrees:
                table += [d | g for d in table]
            self.degree: Callable[[int], int] = table.__getitem__
        else:
            self._cache = {0: 0}
            self.degree = self._lazy_degree

    def _lazy_degree(self, mask: int) -> int:
        hit = self._cache.get(mask)
        if hit is None:
            low = mask & (mask - 1)
            i = (mask & -mask).bit_length() - 1
            hit = self._lazy_degree(low) | self.gen_degrees[i]
            self._cache[mask] = hit
        return hit

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
