"""Exact binomial coefficients: single-bit queries and bin layouts.

``binom`` is the package's one source of exact lattice sizes: ``math.comb``,
integer-exact, with no size cap and nothing kept between calls.  No module
of the package reads the Pascal table below; it stays only because the
benchmark replay reads ``shared_table().max_n``.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

# Hard ceiling on table growth (rows).  A table is O(max_n^2) integers, so
# callers that genuinely need more must raise this explicitly.
TABLE_CAP = 5000


class TableCapError(Exception):
    """A table beyond TABLE_CAP was requested; raise the cap to proceed."""


class BinLayout(NamedTuple):
    """Binary expansion of C(n, t) as bins of size 2^L, exponents descending."""

    n: int
    t: int
    bins: tuple[int, ...]


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

    def grown(self, max_n: int) -> "BinomialTable":
        """A table covering rows 0..max_n.  Shares existing rows."""
        if max_n <= self.max_n:
            return self
        if max_n > TABLE_CAP:
            raise TableCapError(
                f"requested max_n={max_n} exceeds TABLE_CAP={TABLE_CAP}"
            )
        rows = list(self.rows)
        prev = rows[-1]
        for _ in range(self.max_n, max_n):
            prev = (1, *(prev[i - 1] + prev[i] for i in range(1, len(prev))), 1)
            rows.append(prev)
        return BinomialTable(tuple(rows))


def build_table(max_n: int) -> BinomialTable:
    """Build rows 0..max_n by the Pascal recursion, exactly."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    return BinomialTable(((1,),)).grown(max_n)


# Module-shared table, grown on demand.  Growth swaps in a new immutable
# table value, so concurrent readers always see a consistent snapshot.
_shared = build_table(64)
_grow_lock = threading.Lock()


def shared_table(min_n: int = 0) -> BinomialTable:
    """The shared table, grown to cover at least row min_n."""
    global _shared
    table = _shared
    if min_n > table.max_n:
        with _grow_lock:
            table = _shared
            if min_n > table.max_n:
                table = table.grown(min_n)
                _shared = table
    return table


def binom(n: int, t: int) -> int:
    """C(n, t) by ``math.comb``; zero when t is out of range."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(n, t) if 0 <= t <= n else 0


def binom_bit(n: int, t: int, l: int) -> int:
    """Bit l of C(n, t); zero whenever t < 0 or t > n."""
    if n < 0 or l < 0:
        raise ValueError("n and l must be >= 0")
    return (binom(n, t) >> l) & 1


def bin_layout(n: int, t: int) -> BinLayout:
    """Decompose C(n, t) into bins of size 2^L, largest first.

    The exponents are exactly the set-bit positions of C(n, t).
    """
    if not 0 <= t <= n:
        raise ValueError(f"t={t} out of range for n={n}")
    value = binom(n, t)
    top = value.bit_length() - 1
    bins = tuple(top - i for i, digit in enumerate(bin(value)[2:]) if digit == "1")
    return BinLayout(n, t, bins)
