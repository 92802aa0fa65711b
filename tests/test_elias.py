import math
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest

from eliastream.binomial import bin_layout, binom
from eliastream.elias import (
    BlockCodeword,
    SourceModel,
    bin_of_rank,
    block_codeword,
    conditional_bin_entropy,
    expected_yield,
    rank_in_type,
    type_of,
)


def strings_of_weight(n, t):
    """All n-bit strings of weight t, as ones-position sets."""
    for ones in combinations(range(n), t):
        bits = ["0"] * n
        for pos in ones:
            bits[pos] = "1"
        yield "".join(bits)


def colex_rank_oracle(s):
    """Rank by sorting the whole weight class in colexicographic order."""
    n, t = len(s), s.count("1")
    def key(string):
        ones = [n - 1 - i for i, c in enumerate(string) if c == "1"]
        return tuple(sorted(ones, reverse=True))
    ordered = sorted(strings_of_weight(n, t), key=key)
    return ordered.index(s)


@pytest.mark.parametrize("s,weight", [("", 0), ("0110", 2), ("111", 3)])
def test_type_of(s, weight):
    assert type_of(s) == weight


def test_rank_two_bit_strings():
    assert rank_in_type("01") == 0
    assert rank_in_type("10") == 1


def test_rank_matches_colex_sort_oracle():
    for n in range(1, 9):
        for t in range(n + 1):
            for s in strings_of_weight(n, t):
                assert rank_in_type(s) == colex_rank_oracle(s)


def test_rank_is_bijection_exhaustively():
    for n in range(13):
        for t in range(n + 1):
            ranks = sorted(rank_in_type(s) for s in strings_of_weight(n, t))
            assert ranks == list(range(binom(n, t)))


@pytest.mark.parametrize(
    "n,t,rank,expected",
    [
        (2, 1, 0, BlockCodeword(1, 1, 0)),
        (5, 2, 9, BlockCodeword(2, 1, 1)),
        (4, 2, 5, BlockCodeword(2, 1, 1)),
        (4, 2, 0, BlockCodeword(2, 2, 0)),
    ],
)
def test_bin_of_rank_examples(n, t, rank, expected):
    assert bin_of_rank(n, t, rank) == expected


def test_bin_of_rank_rejects_bad_rank():
    with pytest.raises(ValueError):
        bin_of_rank(4, 2, 6)
    with pytest.raises(ValueError):
        bin_of_rank(4, 2, -1)


def test_bin_assignment_is_bijection():
    for n in range(1, 17):
        for t in range(n + 1):
            seen = set()
            for rank in range(binom(n, t)):
                cw = bin_of_rank(n, t, rank)
                assert 0 <= cw.alpha < (1 << cw.l)
                assert cw.l in bin_layout(n, t).bins
                seen.add((cw.l, cw.alpha))
            assert len(seen) == binom(n, t)


def test_expected_yield_small_cases():
    assert expected_yield(2, SourceModel(Fraction(1, 2))) == Fraction(1, 2)
    for p in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
        assert expected_yield(1, SourceModel(p)) == 0


def exhaustive_yield(n, model):
    """Oracle: mean output length via the full per-string block map."""
    total = Fraction(0)
    for s in range(1 << n):
        bits = format(s, f"0{n}b") if n else ""
        cw = block_codeword(bits)
        total += model.string_prob(n, cw.t) * cw.l
    return total


@pytest.mark.parametrize("p", [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)])
def test_expected_yield_matches_per_string_enumeration(p):
    model = SourceModel(p)
    for n in range(11):
        assert expected_yield(n, model) == exhaustive_yield(n, model)


def test_expected_yield_beats_entropy_bound_at_16():
    exact = expected_yield(16, SourceModel(Fraction(7, 10)))
    h = float(-(0.3 * math.log2(0.3) + 0.7 * math.log2(0.7)))
    bound = 16 * h - math.log2(17) - 2
    assert bound == pytest.approx(8.013, abs=5e-3)
    assert float(exact) >= bound


def test_expected_yield_symmetric_under_bit_flip():
    for p in (Fraction(1, 10), Fraction(3, 10), Fraction(2, 5)):
        for n in range(1, 13):
            assert expected_yield(n, SourceModel(p)) == expected_yield(
                n, SourceModel(1 - p)
            )


def test_expected_yield_cap():
    with pytest.raises(ValueError):
        expected_yield(25, SourceModel(Fraction(1, 2)))
    expected_yield(25, SourceModel(Fraction(1, 2)), cap=25)


def test_expected_yield_rejects_negative_length():
    with pytest.raises(ValueError, match="n must be >= 0"):
        expected_yield(-1, SourceModel(Fraction(1, 2)))


def per_type_yield(n, model):
    """Reference: sum_T Pr(T) * sum_L (2^L / C(n, T)) * L, a Fraction per term."""
    total = Fraction(0)
    for t in range(n + 1):
        c = binom(n, t)
        mean_l = sum(Fraction(1 << l, c) * l for l in bin_layout(n, t).bins)
        total += model.type_prob(n, t) * mean_l
    return total


@pytest.mark.parametrize(
    "p0", [Fraction(0), Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(1)]
)
def test_expected_yield_integer_sum_equals_per_type_fractions(p0):
    model = SourceModel(p0)
    for n in range(25):
        assert expected_yield(n, model) == per_type_yield(n, model)


def test_conditional_bin_entropy_examples():
    assert conditional_bin_entropy(2, 1) == 0.0  # C(2,1)=2, one bin
    expected = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2))
    assert conditional_bin_entropy(5, 2) == pytest.approx(expected, abs=1e-12)
    assert conditional_bin_entropy(5, 2) == pytest.approx(0.721928, abs=1e-6)


def test_conditional_bin_entropy_below_two_bits():
    for n in range(65):
        for t in range(n + 1):
            assert conditional_bin_entropy(n, t) < 2 - 1e-12


def test_source_model_validation():
    with pytest.raises(ValueError):
        SourceModel(Fraction(3, 2))
    model = SourceModel(Fraction(3, 10))
    assert model.p1 == Fraction(7, 10)
    assert model.type_prob(2, 1) == 2 * Fraction(3, 10) * Fraction(7, 10)
    assert sum(model.type_prob(9, t) for t in range(10)) == 1


def test_theorem_bound_reference_value():
    # independent high-precision check of the n=16, p=0.3 corner
    with mpmath.workdps(30):
        p = mpmath.mpf(3) / 10
        h = -(p * mpmath.log(p, 2) + (1 - p) * mpmath.log(1 - p, 2))
        bound = 16 * h - mpmath.log(17, 2) - 2
    exact = expected_yield(16, SourceModel(Fraction(3, 10)))
    assert mpmath.mpf(exact.numerator) / exact.denominator > bound
