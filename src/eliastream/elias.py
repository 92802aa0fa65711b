"""Exact expected yield of whole-block entropy extraction.

The block map sends an n-bit string to a codeword (T, L, alpha): T is the
Hamming weight, the type class of size C(n, T) is split into bins of size
2^L per the binary expansion of C(n, T), and alpha is the L-bit index inside
the bin.  Conditioned on (T, L), alpha is uniform, so its bits are perfectly
random, and a block yields L bits.  The streaming machine reaches the same
per-(T, L) counts, so its expected yield is this one, which ``verify``
compares with the entropy bound.  The per-string block map itself is the
naive test oracle this yield is certified against.  The input checks come
from ``extractor``; of the package only ``verify`` imports this module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .binomial import bin_layout
from .extractor import as_count


class SourceModel(namedtuple("SourceModel", "p0")):
    """I.i.d. binary source; p0 is the probability of a 0 bit, a Fraction."""

    __slots__ = ()

    def __new__(cls, p0) -> "SourceModel":
        p0 = Fraction(p0)
        if not 0 <= p0 <= 1:
            raise ValueError("p0 must lie in [0, 1]")
        return super().__new__(cls, p0)


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
        weight = sum(l << l for l in bin_layout(n, t))
        total += a ** (n - t) * (b - a) ** t * weight
    return Fraction(total, b**n)
