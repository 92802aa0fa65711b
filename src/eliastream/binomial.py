"""Exact binomial coefficients, the lattice record and bin layouts.

``binom`` is the package's one source of exact lattice sizes: ``math.comb``,
integer-exact, with no size cap and nothing kept between calls; ``PASCAL``
is the ``Lattice`` record on it, as ``young.YOUNG`` is on dimensions.  No
module of the package reads the Pascal table below: 64 fixed rows that
never grow, kept only because the benchmark replay reads
``shared_table().max_n``, and built on that first call, so no other process
pays for it.  ``build_table`` builds rows by addition alone, so the tests
use it as an oracle for ``math.comb`` independent of it.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple


class BinomialTable:
    """Rows 0..max_n of Pascal's triangle.

    Out-of-range queries (t < 0 or t > n) return 0, so callers can probe
    lattice boundaries without special-casing.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self.rows = rows

    @property
    def max_n(self) -> int:
        return len(self.rows) - 1

    def value(self, n: int, t: int) -> int:
        """C(n, t); zero by convention when t is out of range."""
        if t < 0 or t > n:
            return 0
        return self.rows[n][t]


def build_table(max_n: int) -> BinomialTable:
    """Build rows 0..max_n by the addition recursion, exactly."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    rows = [(1,)]
    for _ in range(max_n):
        prev = rows[-1]
        rows.append((1, *(a + b for a, b in zip(prev, prev[1:])), 1))
    return BinomialTable(tuple(rows))


@functools.cache
def shared_table() -> BinomialTable:
    """The module's fixed 64-row table, built on the first call."""
    return build_table(64)


def binom(n: int, t: int) -> int:
    """C(n, t) by ``math.comb``; zero when t is out of range."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(n, t) if 0 <= t <= n else 0


class Lattice(namedtuple("Lattice", "name size valid")):
    """A lattice the walk runs on: its `name`, its node sizes `size(n, t)`,
    with size(n+1, t) = size(n, t) + size(n, t-1) at its nodes, and
    `valid(n, t)`, whether (n, t) is one of them."""

    __slots__ = ()


PASCAL = Lattice("pascal", binom, lambda n, t: 0 <= t <= n)


def bin_layout(n: int, t: int, lattice: Lattice = PASCAL) -> tuple[int, ...]:
    """Decompose the size of node (n, t) on `lattice`, C(n, t) on Pascal's,
    into bins of size 2^L: the exponents L, largest first, its set-bit
    positions.  A node off the lattice raises ValueError."""
    if not lattice.valid(n, t):
        raise ValueError(f"t={t} out of range for n={n}")
    value = lattice.size(n, t)
    top = value.bit_length() - 1
    return tuple(top - i for i, digit in enumerate(bin(value)[2:]) if digit == "1")
