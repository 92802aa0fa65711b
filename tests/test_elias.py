import math
import re
from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple

import mpmath
import numpy as np
import pytest
from oracles import (
    BlockCodeword,
    bin_of_rank,
    block_codeword,
    conditional_bin_entropy,
    hook_dim_oracle,
    p1,
    path_count,
    rank_in_type,
    string_prob,
    type_prob,
)

from eliastream.binomial import bin_layout, binom
from eliastream.elias import SourceModel, expected_yield
from eliastream import schursim, verify
from eliastream.extractor import (
    ExtractorState,
    StreamExtractor,
    initial_state,
    parse_bits,
    pause_mode_run,
    run,
    step,
    von_neumann,
    walk_tree,
)
from eliastream.schursim import SimulatorCapError, cg_step
from eliastream.young import YOUNG, ballot_paths, dim


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
    assert block_codeword(s).t == weight


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
                assert cw.l in bin_layout(n, t)
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
        total += string_prob(model, n, cw.t) * cw.l
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
        mean_l = sum(Fraction(1 << l, c) * l for l in bin_layout(n, t))
        total += type_prob(model, n, t) * mean_l
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
    assert p1(model) == Fraction(7, 10)
    assert type_prob(model, 2, 1) == 2 * Fraction(3, 10) * Fraction(7, 10)
    assert sum(type_prob(model, 9, t) for t in range(10)) == 1


def test_source_model_holds_a_fraction_and_is_frozen():
    model = SourceModel("3/10")
    assert type(model.p0) is Fraction and model == SourceModel(Fraction(3, 10))
    assert SourceModel(0.5).p0 == Fraction(1, 2) and repr(model) == "SourceModel(p0=Fraction(3, 10))"
    assert hash(model) == hash(SourceModel(Fraction(3, 10)))
    with pytest.raises(AttributeError):
        model.p0 = Fraction(1, 2)
    for bad in (-0.1, Fraction(11, 10), float("nan")):
        with pytest.raises(ValueError):
            SourceModel(bad)


def test_theorem_bound_reference_value():
    # independent high-precision check of the n=16, p=0.3 corner
    with mpmath.workdps(30):
        p = mpmath.mpf(3) / 10
        h = -(p * mpmath.log(p, 2) + (1 - p) * mpmath.log(1 - p, 2))
        bound = 16 * h - mpmath.log(17, 2) - 2
    exact = expected_yield(16, SourceModel(Fraction(3, 10)))
    assert mpmath.mpf(exact.numerator) / exact.denominator > bound


def test_parse_bits_reads_text_bytes_and_integer_bits():
    assert parse_bits("0110") == parse_bits(b"0110") == parse_bits([0, 1, 1, 0]) == (0, 1, 1, 0)
    assert parse_bits("") == parse_bits(b"") == parse_bits([]) == ()
    assert parse_bits([True, False]) == (1, 0)
    assert parse_bits(np.array([1, 0, 1], dtype=np.uint8)) == (1, 0, 1)
    assert parse_bits(iter([np.int64(0), np.uint8(1)])) == (0, 1)
    for bits in ("01", b"01", [True, False], np.array([1, 0])):
        assert all(type(b) is int for b in parse_bits(bits))


@pytest.mark.parametrize("text", ["0120", "01 ", "\u0661", "\uff11", b"\x00", b"\x01", b"0x"])
def test_parse_bits_rejects_characters_other_than_ascii_0_and_1(text):
    # "\u0661" (Arabic-Indic one) and "\uff11" (fullwidth one) are digits int() reads as 1
    with pytest.raises(ValueError):
        parse_bits(text)


TEXT = "0110100111010001"
TEXT_BITS = tuple(map(int, TEXT))


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_bytes_like_sources_are_text_for_every_parser(kind):
    def source(text):
        return kind(text.encode("ascii"))

    assert parse_bits(source(TEXT)) == TEXT_BITS
    assert run(source(TEXT)) == run(TEXT_BITS)
    assert StreamExtractor().feed(source(TEXT)) == run(TEXT_BITS).output
    assert pause_mode_run(source(TEXT), 3) == pause_mode_run(TEXT_BITS, 3)
    # "\x00\x01" is text too: bytearray([0, 1]) no longer passes as integer bits
    for bad in ("0120", "\x00\x01"):
        for parse in (parse_bits, run, StreamExtractor().feed):
            with pytest.raises(ValueError, match="invalid bit characters"):
                parse(source(bad))


def test_numpy_bool_arrays_go_in_through_tolist():
    flags = np.array(TEXT_BITS, dtype=bool)
    with pytest.raises(ValueError, match="0 or 1"):
        StreamExtractor().feed(flags)
    assert StreamExtractor().feed(flags.tolist()) == StreamExtractor().feed(list(TEXT_BITS))
    assert run(flags.tolist()) == run(list(TEXT_BITS))


BAD_BITS = [0.5, 1.0, "1", None, 2]


@pytest.mark.parametrize("bad", BAD_BITS)
def test_parse_bits_rejects_non_bit_elements(bad):
    with pytest.raises(ValueError, match="0 or 1"):
        parse_bits([0, bad])


# Every public entry point that takes bits, fed one bad bit after good ones.
BIT_ENTRY_POINTS = {
    "run": lambda bad: run([0, 1, bad]),
    "feed": lambda bad: StreamExtractor().feed([0, 1, bad]),
    "push": lambda bad: StreamExtractor().push(bad),
    "step": lambda bad: step(initial_state(), bad),
    # step on the Young lattice; (2, 1) is valid either way
    "qstep": lambda bad: step(ExtractorState(1, 0, 0), bad, YOUNG),
    "pause_mode_run": lambda bad: pause_mode_run([0, 1, bad], 5),
    "pause_mode_run_pending": lambda bad: pause_mode_run([], 3, ExtractorState(2, 1, 1), (bad,)),
    "rank_in_type": lambda bad: rank_in_type([0, bad]),
    "block_codeword": lambda bad: block_codeword([0, 1, bad]),
    "von_neumann": lambda bad: von_neumann([0, bad]),
    "cg_step": lambda bad: cg_step(2, 0, 0, bad),
}


@pytest.mark.parametrize("bad", BAD_BITS)
@pytest.mark.parametrize("entry", BIT_ENTRY_POINTS)
def test_every_bit_entry_point_rejects_non_bits(entry, bad):
    with pytest.raises(ValueError, match="0 or 1"):
        BIT_ENTRY_POINTS[entry](bad)


class SizeSite(NamedTuple):
    call: Callable
    name: str
    lo: int = 0
    cap: int | None = None
    cap_error: type = ValueError


# Every public entry point that takes a size (count, depth, demand, sample
# count, seed or pair index), fed one value; every other argument is valid.
SIZE_ENTRY_POINTS = {
    "expected_yield": SizeSite(lambda v: expected_yield(v, SourceModel(Fraction(3, 10))),
                               "n", cap=24),
    "walk_tree": SizeSite(lambda v: list(walk_tree(v)), "n"),
    "pause_mode_run": SizeSite(lambda v: pause_mode_run([0, 1] * 8, v), "demand"),
    # (1, 1, 0), (4, 1, 2) and (4, 2, 1) are lattice nodes
    "StreamExtractor_n": SizeSite(lambda v: StreamExtractor(ExtractorState(v, 1, 0)).state, "n"),
    "StreamExtractor_t": SizeSite(lambda v: StreamExtractor(ExtractorState(4, v, 2)).state, "t"),
    "StreamExtractor_l": SizeSite(lambda v: StreamExtractor(ExtractorState(4, 2, v)).state, "l"),
    "ballot_paths": SizeSite(lambda v: list(ballot_paths(v)), "n"),
    "schur_transform": SizeSite(schursim.schur_transform, "n", cap=schursim.SCHUR_CAP,
                                cap_error=SimulatorCapError),
    "simulate_known_basis": SizeSite(lambda v: schursim.simulate_known_basis(0.3, v), "n",
                                     cap=schursim.KNOWN_BASIS_CAP, cap_error=SimulatorCapError),
    "simulate_universal": SizeSite(lambda v: schursim.simulate_universal(v, p=0.3), "n", lo=1,
                                   cap=schursim.UNIVERSAL_CAP, cap_error=SimulatorCapError),
    "simulate_von_neumann": SizeSite(lambda v: schursim.simulate_von_neumann(0.3, v), "pairs",
                                     cap=schursim.VON_NEUMANN_CAP, cap_error=SimulatorCapError),
    "emission_probability": SizeSite(
        lambda v: schursim.emission_probability(schursim.simulate_known_basis(0.3, 4), v),
        "pair index", lo=1),
    "pair_fidelity": SizeSite(
        lambda v: schursim.pair_fidelity(schursim.simulate_known_basis(0.3, 4), v),
        "pair index", lo=1),
    "exhaustive_equivalence": SizeSite(verify.exhaustive_equivalence, "n",
                                       cap=verify.EXHAUSTIVE_CAP),
    "balanced_paths": SizeSite(verify.balanced_paths, "n", cap=verify.BALANCED_CAP),
    "yield_bound_sweep": SizeSite(verify.yield_bound_sweep, "max_n", lo=1),
    "statistical_battery": SizeSite(lambda v: verify.statistical_battery(0.3, v, 7), "samples",
                                    lo=10_000),
    "statistical_battery_seed": SizeSite(
        lambda v: verify.statistical_battery(0.3, 10_000, v), "seed"),
}
SIZE_CASES = ["2.5", "'3'", "None", "lo - 1", "cap + 1", "np.int64", "True"]


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry, site in SIZE_ENTRY_POINTS.items() for case in SIZE_CASES
    if case != "cap + 1" or site.cap is not None])
def test_every_size_entry_point_checks_its_size_alike(entry, case):
    site = SIZE_ENTRY_POINTS[entry]
    name, valid = re.escape(site.name), max(site.lo, 1)
    if case in ("2.5", "'3'", "None"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            site.call({"2.5": 2.5, "'3'": "3", "None": None}[case])
    elif case == "lo - 1" or (case == "True" and site.lo > 1):
        with pytest.raises(ValueError, match=f"^{name} must be >= {site.lo}$"):
            site.call(site.lo - 1 if case == "lo - 1" else True)
    elif case == "cap + 1":
        with pytest.raises(site.cap_error, match=f"^{name}={site.cap + 1} exceeds cap={site.cap}$") as caught:
            site.call(site.cap + 1)
        assert type(caught.value) is site.cap_error
    else:
        # repr shows an np.int64 or a bool that leaked into the result
        value = np.int64(valid) if case == "np.int64" else True
        assert repr(site.call(value)) == repr(site.call(valid))


# Public functions that take a lattice coordinate rather than a size, each fed
# one non-integer value (schur_transform: an unhashable one).
COORDINATE_CALLS = {
    "dim_n": (lambda: dim(2.5, 1), "n"),
    "dim_t": (lambda: dim(3, 0.5), "t"),
    "hook_dim_oracle": (lambda: hook_dim_oracle(2.5, 0), "n"),
    "path_count": (lambda: path_count(2.5, 0), "n"),
    "qstep": (lambda: step(ExtractorState(2.5, 0, 0), 0, YOUNG), "n"),  # step on Young
    "bin_of_rank_n": (lambda: bin_of_rank(2.5, 1, 0), "n"),
    "bin_of_rank_t": (lambda: bin_of_rank(4, 1.0, 0), "t"),
    "bin_of_rank_rank": (lambda: bin_of_rank(4, 2, 2.5), "rank"),
    "conditional_bin_entropy": (lambda: conditional_bin_entropy(2.5, 1), "n"),
    "schur_transform": (lambda: schursim.schur_transform([3]), "n"),
}


@pytest.mark.parametrize("entry", sorted(COORDINATE_CALLS))
def test_non_integer_coordinates_are_value_errors(entry):
    call, name = COORDINATE_CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        call()
