"""Block entropy extraction oracle: types, ranks, bins, and exact yields.

This is the reference (whole-block) side of the extractor.  It maps an n-bit
string to a codeword (T, L, alpha): T is the Hamming weight, the type class
of size C(n, T) is split into bins of size 2^L per the binary expansion of
C(n, T), and alpha is the L-bit index inside the bin.  Conditioned on (T, L),
alpha is uniform, so its bits are perfectly random.

The string -> codeword map here uses a fixed canonical binning (combinadic
rank, descending bin order).  The streaming machine induces a different
per-string map; the two agree at the level of per-(T, L) counts, which is
what the equivalence harness checks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .binomial import bin_layout, binom

Bits = Iterable[int]


@dataclass(frozen=True)
class SourceModel:
    """I.i.d. binary source; p0 is the probability of a 0 bit."""

    p0: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p0", Fraction(self.p0))
        if not 0 <= self.p0 <= 1:
            raise ValueError("p0 must lie in [0, 1]")

    @property
    def p1(self) -> Fraction:
        return 1 - self.p0

    def type_prob(self, n: int, t: int) -> Fraction:
        """Probability that an n-bit draw has Hamming weight t."""
        return binom(n, t) * self.string_prob(n, t)

    def string_prob(self, n: int, t: int) -> Fraction:
        """Probability of any single n-bit string of weight t."""
        return self.p0 ** (n - t) * self.p1**t


class BlockCodeword(NamedTuple):
    t: int
    l: int
    alpha: int


def as_bit(b) -> int:
    """A bit as a plain int: 0/1, True/False or another integer type's 0/1.
    Anything else, floats and strings included, raises ValueError.  So do
    numpy bools, which have no ``__index__``: a bool array goes in through
    its ``.tolist()``."""
    try:
        b = operator.index(b)
    except TypeError:
        raise ValueError("input bit must be 0 or 1") from None
    if b not in (0, 1):
        raise ValueError("input bit must be 0 or 1")
    return b


def as_count(value, name: str = "n", lo: int = 0, cap: int | None = None,
             error: type[Exception] = ValueError) -> int:
    """A size (count, depth, index) as a plain int: any integer type goes
    through ``operator.index``; anything else, floats and strings included,
    raises ValueError, as does a value below `lo`.  A value above `cap`
    raises `error`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    if cap is not None and value > cap:
        raise error(f"{name}={value} exceeds cap={cap}")
    return value


_TEXT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def is_text(bits) -> bool:
    """Whether a bit source is text, '0'/'1' characters: a str or a bytes-like
    object (bytes, bytearray, memoryview).  Any other iterable holds bits."""
    return isinstance(bits, (str, bytes, bytearray, memoryview))


def parse_bits(bits: "Bits | str") -> tuple[int, ...]:
    """Normalize a bit source (text such as '0110', see ``is_text``, or an
    iterable of bits, each checked by ``as_bit``) to a tuple of plain ints."""
    if not is_text(bits):
        return tuple(map(as_bit, bits))
    # UnicodeEncodeError is a ValueError
    text = bits.encode("ascii") if isinstance(bits, str) else bytes(bits)
    if bad := text.translate(None, b"01"):
        raise ValueError(f"invalid bit characters {bad[:8]!r}")
    return tuple(text.translate(_TEXT_BITS))


def type_of(bits: "Bits | str") -> int:
    """Hamming weight of the string."""
    return sum(parse_bits(bits))


def rank_in_type(bits: "Bits | str") -> int:
    """Combinadic (colexicographic) rank among same-length, same-weight strings.

    Reading the string as a binary numeral (first character most significant),
    the ones sit at bit positions p_1 < p_2 < ... < p_t, and the rank is
    sum_i C(p_i, i).  This is a bijection onto [0, C(n, t)).
    """
    s = parse_bits(bits)
    n = len(s)
    rank = 0
    i = 0
    for pos in range(n - 1, -1, -1):  # LSB first
        if s[pos]:
            i += 1
            rank += binom(n - 1 - pos, i)
    return rank


def bin_of_rank(n: int, t: int, rank: int) -> BlockCodeword:
    """Assign a within-type rank to its bin, largest bins first."""
    if not 0 <= t <= n:
        raise ValueError(f"t={t} out of range for n={n}")
    if not 0 <= rank < binom(n, t):
        raise ValueError(f"rank={rank} out of range for C({n},{t})={binom(n, t)}")
    offset = rank
    for l in bin_layout(n, t).bins:
        size = 1 << l
        if offset < size:
            return BlockCodeword(t, l, offset)
        offset -= size
    raise AssertionError("unreachable: layout covers [0, C(n, t))")


def block_codeword(bits: "Bits | str") -> BlockCodeword:
    """Full block map: string -> (T, L, alpha)."""
    s = parse_bits(bits)
    return bin_of_rank(len(s), type_of(s), rank_in_type(s))


def expected_yield(n: int, model: SourceModel, cap: int = 24) -> Fraction:
    """Exact expected number of output bits from an n-bit block.

    sum_T Pr(T) sum_L L 2^L / C(n, T) over the bins of C(n, T).  Pr(T) has
    the factor C(n, T), so with p0 = a/b the sum is one integer,
    sum_T a^(n-T) (b-a)^T sum_L L 2^L, over b^n.  The default cap guards
    against accidental huge-n calls and can be raised freely.
    """
    n = as_count(n, cap=cap)
    a, b = model.p0.numerator, model.p0.denominator
    total = 0
    for t in range(n + 1):
        weight = sum(l << l for l in bin_layout(n, t).bins)
        total += a ** (n - t) * (b - a) ** t * weight
    return Fraction(total, b**n)


def conditional_bin_entropy(n: int, t: int) -> float:
    """H(L | T=t) in bits: entropy of the bin-size distribution 2^L / C(n, t).

    Majorized by the geometric distribution 2^-l, so always below 2 bits.
    """
    if not 0 <= t <= n:
        raise ValueError(f"t={t} out of range for n={n}")
    c = binom(n, t)
    h = 0.0
    for l in bin_layout(n, t).bins:
        pr = (1 << l) / c
        h -= pr * math.log2(pr)
    return h
