import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eliastream
from eliastream.binomial import bin_layout, binom, build_table

SRC = Path(eliastream.__file__).resolve().parents[1]


def addition_row(n):
    """Independent oracle: row n of the triangle by repeated addition only."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def test_base_case_table():
    table = build_table(0)
    assert table.max_n == 0
    assert table.value(0, 0) == 1


def test_row_four():
    assert build_table(4).rows[4] == (1, 4, 6, 4, 1)


def test_large_entry_against_independent_oracles():
    table = build_table(64)
    expected = 1832624140942590534
    assert table.value(64, 32) == expected
    assert addition_row(64)[32] == expected
    assert math.comb(64, 32) == expected


def test_pascal_recursion_holds_everywhere():
    table = build_table(80)
    for n in range(1, 81):
        for t in range(1, n):
            assert table.value(n, t) == table.value(n - 1, t) + table.value(n - 1, t - 1)
        assert table.value(n, 0) == table.value(n, n) == 1


def test_out_of_range_convention():
    assert binom(0, -1) == 0
    assert binom(5, 6) == 0


def test_binom_refuses_a_negative_n():
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        binom(-1, 0)


@pytest.mark.parametrize(
    "n,t,l,expected",
    [(2, 1, 0, 0), (2, 1, 1, 1), (4, 2, 1, 1), (0, -1, 0, 0)],
)
def test_binom_bit_examples(n, t, l, expected):
    # bit l of C(n, t), zero whenever t < 0 or t > n
    assert binom(n, t) >> l & 1 == expected


@given(
    n=st.integers(min_value=0, max_value=200),
    t=st.integers(min_value=-2, max_value=202),
    l=st.integers(min_value=0, max_value=220),
)
@settings(max_examples=500)
def test_binom_bit_matches_stdlib_bit_extraction(n, t, l):
    # the set bits of C(n, t) are exactly the exponents of its bin layout
    reference = math.comb(n, t) if 0 <= t <= n else 0
    assert binom(n, t) >> l & 1 == (reference >> l) & 1
    if 0 <= t <= n:
        assert (l in bin_layout(n, t)) == (reference >> l) & 1


def test_binom_bit_ten_thousand_random_triples():
    import random

    rnd = random.Random(20240817)
    for _ in range(10_000):
        n = rnd.randint(0, 200)
        t = rnd.randint(-2, n + 2)
        l = rnd.randint(0, 210)
        reference = math.comb(n, t) if 0 <= t <= n else 0
        assert binom(n, t) >> l & 1 == (reference >> l) & 1
        if 0 <= t <= n:
            assert (l in bin_layout(n, t)) == (reference >> l) & 1


def test_binom_bit_pure():
    # nothing is kept between calls: a repeated query gives the same layout
    nodes = [(17, 5), (200, 100), (1, 0)]
    first = [bin_layout(*node) for node in nodes]
    assert [bin_layout(*node) for node in nodes] == first


@pytest.mark.parametrize(
    "n,t,bins",
    [(5, 2, (3, 1)), (4, 2, (2, 1)), (6, 3, (4, 2)), (2, 1, (1,)), (3, 0, (0,))],
)
def test_bin_layout_examples(n, t, bins):
    assert bin_layout(n, t) == bins


def test_bin_layout_rejects_out_of_range():
    with pytest.raises(ValueError):
        bin_layout(4, 5)
    with pytest.raises(ValueError):
        bin_layout(4, -1)


def test_layout_sums_to_coefficient_everywhere():
    for n in range(65):
        for t in range(n + 1):
            layout = bin_layout(n, t)
            assert sum(1 << l for l in layout) == binom(n, t)
            assert list(layout) == sorted(layout, reverse=True)
            assert len(set(layout)) == len(layout)


def test_negative_max_n_rejected():
    with pytest.raises(ValueError):
        build_table(-1)


# Drives every reader of exact sizes well past row 64, the shared table's
# size, then prints the rows the table holds.
NO_TABLE_PROBE = """
import random
from fractions import Fraction
from eliastream import binomial, elias, extractor, young
rng = random.Random(7)
extractor.run([int(rng.random() < 0.3) for _ in range(1000)])
for _ in extractor.walk_tree(12):
    pass
young.q_run([0, 1] * 100)
elias.expected_yield(200, elias.SourceModel(Fraction(7, 10)), cap=200)
print(binomial.shared_table().max_n)
"""


def python_fresh(code):
    """Run `code` in a fresh interpreter that imports eliastream from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_no_walk_or_oracle_grows_the_shared_table():
    # a fresh interpreter, as the benchmark replay reads the table
    assert python_fresh(NO_TABLE_PROBE) == ["64"]


def test_importing_the_cli_builds_no_table():
    probe = ("import eliastream.cli\n"
             "from eliastream import binomial\n"
             "print(binomial.shared_table.cache_info().currsize)")
    assert python_fresh(probe) == ["0"]
