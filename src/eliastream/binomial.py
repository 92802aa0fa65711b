"""Exact binomial coefficients and their bin layouts.

``binom`` is the package's one source of exact lattice sizes: ``math.comb``,
integer-exact, with no size cap and nothing kept between calls.  No module
of the package reads the Pascal table below: 64 fixed rows that never
grow, kept only because the benchmark replay reads ``shared_table().max_n``,
and built on that first call, so no other process pays for it.
``build_table`` builds rows by addition alone, so the tests use it as an
oracle for ``math.comb`` independent of it.
"""

from __future__ import annotations

import functools
import math


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


def bin_layout(n: int, t: int) -> tuple[int, ...]:
    """Decompose C(n, t) into bins of size 2^L: the exponents L, largest first.

    The exponents are exactly the set-bit positions of C(n, t).
    """
    if not 0 <= t <= n:
        raise ValueError(f"t={t} out of range for n={n}")
    value = binom(n, t)
    top = value.bit_length() - 1
    return tuple(top - i for i, digit in enumerate(bin(value)[2:]) if digit == "1")
