"""Brute-force and statistical harnesses binding the machine to its contracts.

The exhaustive and symbolic checks are hard assertions computed by full
enumeration (they prove the property at the tested size); the statistical
battery is advisory and only guards the plumbing around seeded sampling.
Both exhaustive suites read ``tally``: one ``walk_tree`` pass as per-node
string counts, 2^l-bit output maps and ones per position, in O(2^n) bits.
The equivalence suite runs on the walk's lattice, Pascal's by default; the
CLI's ``young`` suite runs it on ``young.YOUNG``, over every ballot path.
Every suite runs on the stdlib alone: the battery draws from
``random.Random`` and sums in plain Python, and ``theorem_bound`` is
computed in ``decimal``.  Each report is a named tuple, built once its
suite is done.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Iterable

from .binomial import PASCAL, Lattice, bin_layout
from .elias import SourceModel, expected_yield
from .extractor import ExtractorState, StreamExtractor, as_count, walk_tree

EXHAUSTIVE_CAP = 23
BALANCED_CAP = 14
MIN_SAMPLES = 10_000  # the statistical battery's floor
# The probabilities p0 of a 0 bit that the yield-bound sweep runs at every n.
YIELD_P_VALUES = tuple(Fraction(k, 10) for k in (1, 3, 5, 7, 9))
# Yield-to-bound gaps, in bits, that floats decide; float error at these sizes
# is ~1e-14 and the smallest gap over n <= 23 is 1.25 bits.  Closer pairs go
# to theorem_bound, at YIELD_DPS decimal digits.
YIELD_FLOAT_MARGIN = 1e-9
YIELD_DPS = 40


class _Checked:  # a suite's report passes when it records no violation
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


NodeRecord = namedtuple("NodeRecord", "t l string_count output_set_complete")


class EquivalenceReport(_Checked, namedtuple("EquivalenceReport", "n nodes violations",
                                             defaults=((), ()))):
    __slots__ = ()


class BalancedReport(_Checked, namedtuple(
        "BalancedReport", "n nodes_checked positions_checked violations", defaults=(0, 0, ()))):
    __slots__ = ()


class YieldBoundReport(_Checked, namedtuple("YieldBoundReport", "max_n p_values rows violations")):
    """rows: (n, p, exact yield, float bound) per pair."""

    __slots__ = ()


class StatReport(namedtuple("StatReport", "p seed sample_size output_len rate monobit_z "
                                          "serial_z max_position_bias")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return abs(self.monobit_z) < 4 and abs(self.serial_z) < 4


class NodeTally:
    """The strings ending at one node (n, t, l): their count, a 2^l-bit map of
    their outputs and, if tallied, the ones at output bit i (position l-1-i)."""

    __slots__ = ("count", "seen", "ones")

    def __init__(self, l: int, with_ones: bool):
        self.count, self.seen = 0, bytearray(((1 << l) + 7) >> 3)
        self.ones = [0] * l if with_ones else None


def tally(walk: Iterable[tuple[ExtractorState, int]], ones_to: int = -1) -> dict:
    """Fold (node, output code) pairs, as ``walk_tree`` yields them (codes
    below 2^l), into a NodeTally per node, with ones at depths <= ones_to:
    O(2^n) bits for a walk to depth n, where its outputs take O(n 2^n)."""
    tallies: dict[ExtractorState, NodeTally] = {}
    for node, code in walk:
        acc = tallies.get(node)
        if acc is None:
            acc = tallies[node] = NodeTally(node.l, node.n <= ones_to)
        acc.count += 1
        acc.seen[code >> 3] |= 1 << (code & 7)
        if acc.ones is not None:
            for i in range(node.l):
                acc.ones[i] += code >> i & 1
    return tallies


def _level(n: int, tallies: dict | None, ones_to: int,
           lattice: Lattice = PASCAL) -> dict[tuple, NodeTally]:
    """The depth-n tallies by (t, l), in order; by default from a walk of their own."""
    level = (tally(walk_tree(n, lattice), ones_to) if tallies is None else tallies).items()
    return dict(sorted(((node.t, node.l), acc) for node, acc in level if node.n == n))


def exhaustive_equivalence(n: int, tallies: dict | None = None,
                           lattice: Lattice = PASCAL) -> EquivalenceReport:
    """Check that n-step streaming reproduces the whole-block extraction.

    Every reachable final node (n, t, l) must collect exactly 2^l strings
    whose outputs enumerate {0,1}^l, the node sizes of a type must add up to
    its size on `lattice`, C(n, t) on Pascal's, and the set of l values must
    equal the type's bin layout.  `tallies` is the ``tally`` of a walk on
    `lattice` to depth n or beyond, which every such n can share; by
    default the suite walks and tallies its own.
    """
    n = as_count(n, cap=EXHAUSTIVE_CAP)
    level = _level(n, tallies, -1, lattice)
    nodes, violations = [], []
    for (t, l), acc in level.items():
        distinct = int.from_bytes(acc.seen, "little").bit_count()
        complete = acc.count == distinct == 1 << l
        nodes.append(NodeRecord(t, l, acc.count, complete))
        if not complete:
            violations.append(f"node ({n},{t},{l}): {acc.count} strings, "
                                     f"{distinct} distinct outputs, want {1 << l}")
    for t in (t for t in range(n + 1) if lattice.valid(n, t)):
        sizes = {l: acc.count for (tt, l), acc in level.items() if tt == t}
        if sum(sizes.values()) != lattice.size(n, t):
            violations.append(f"type {t}: node sizes sum to {sum(sizes.values())}, "
                                     f"want {lattice.name}({n},{t})={lattice.size(n, t)}")
        if set(sizes) != set(layout := bin_layout(n, t, lattice)):
            violations.append(f"type {t}: l values {sorted(sizes)} != layout {sorted(layout)}")
    return EquivalenceReport(n, nodes, violations)


def balanced_paths(n: int, tallies: dict | None = None) -> BalancedReport:
    """Exact symbolic balance of every output position at every final node.

    All strings reaching a node share the monomial p^(n-t) (1-p)^t, so the
    per-value weights are that monomial times an integer count; equal counts
    of 0s and 1s at a position are equality of polynomials in p.  `tallies`
    is as in exhaustive_equivalence, with ones tallied at depth n.
    """
    n = as_count(n, cap=BALANCED_CAP)
    level = _level(n, tallies, n)
    strings = nodes = positions = 0
    violations = []
    for (t, l), acc in level.items():
        if acc.ones is None:
            raise ValueError(f"node ({n},{t},{l}) has no ones tallied")
        strings += acc.count
        nodes += l > 0
        positions += l
        for pos, one in enumerate(reversed(acc.ones)):
            if acc.count - one != one:
                violations.append(f"node ({n},{t},{l}) position {pos}: "
                                  f"{acc.count - one} zeros != {one} ones")
    if strings != 1 << n:
        violations.append(f"walk holds {strings} strings, want 2^{n}")
    return BalancedReport(n, nodes, positions, violations)


def theorem_bound(n: int, p: Fraction) -> Decimal:
    """n H(p) - log2(n+1) - 2 in a ``YIELD_DPS``-digit decimal context,
    within ``bound_error(n)`` of its exact value.

    Each step is one correctly rounded operation (``ln`` included), a
    relative error of at most u = 5 10^-YIELD_DPS; p and 1 - p are each one
    division of integers, so no step cancels.  |p ln p| <= 1/e, so each term
    of H in nats is off by at most (1 + 3/e) u, H by 5u; n H - ln(n+1) by
    (6.4 n + 2 ln(n+1)) u, and the result, after the division by ln 2 and
    the subtraction, by (12.3 n + 5 log2(n+1) + 2) u <= 18 (n + 1) u, below
    (n + 1) 10^(2 - YIELD_DPS) (to first order in u; the rest is u^2).
    """
    a, b = SourceModel(p).p0.as_integer_ratio()  # p checked to lie in [0, 1]
    with localcontext(Context(prec=YIELD_DPS)):
        h = -sum(q * q.ln() for q in (Decimal(a) / b, Decimal(b - a) / b)) if 0 < a < b else 0
        return (n * h - Decimal(n + 1).ln()) / Decimal(2).ln() - 2


def bound_error(n: int) -> Fraction:
    """The error bound of ``theorem_bound(n, p)``: (n + 1) 10^(2 - YIELD_DPS)."""
    return Fraction(n + 1, 10 ** (YIELD_DPS - 2))


def _float_bound(n: int, p: Fraction) -> float:
    """theorem_bound in floats, from ``math.log2``."""
    q = float(p)
    h = -(q * math.log2(q) + (1 - q) * math.log2(1 - q)) if 0 < q < 1 else 0.0
    return n * h - math.log2(n + 1) - 2


def yield_bound_sweep(max_n: int) -> YieldBoundReport:
    """Exact expected yield against the entropy bound for every n >= 1 and
    every p in ``YIELD_P_VALUES``.  A pair further apart than
    ``YIELD_FLOAT_MARGIN`` is compared in floats, any other exactly against
    ``theorem_bound``; one within its ``bound_error`` raises ValueError, as
    ``YIELD_DPS`` digits cannot decide it.  The report holds the float bound."""
    max_n = as_count(max_n, "max_n", lo=1)
    rows, violations = [], []
    for n in range(1, max_n + 1):
        for p in YIELD_P_VALUES:
            exact = expected_yield(n, SourceModel(p), cap=max(24, max_n))
            value, bound = float(exact), _float_bound(n, p)
            rows.append((n, p, exact, bound))
            if abs(value - bound) > YIELD_FLOAT_MARGIN:
                below = value < bound
            else:
                close = theorem_bound(n, p)
                if abs(exact - Fraction(close)) <= bound_error(n):
                    raise ValueError(f"n={n} p={p}: yield within {float(bound_error(n)):.1e} "
                                     f"of the bound; raise YIELD_DPS")
                below = exact < close
            if below:
                violations.append(f"n={n} p={p}: yield {value:.6f} < bound {bound:.6f}")
    return YieldBoundReport(max_n, YIELD_P_VALUES, rows, violations)


def statistical_battery(p: float, samples: int, seed: int) -> StatReport:
    """Empirical sanity of a seeded Bernoulli(p) run; p is the weight of 1s.

    Deterministic given (p, samples, seed): bit i is 1 where the i-th draw
    of ``random.Random(seed)`` falls below p; a negative seed is refused, as
    ``Random`` would draw the stream of its absolute value.  Reports monobit
    and lag-1 serial z-scores of the output stream plus the largest
    within-byte positional bias, all from integer counts.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    samples = as_count(samples, "samples", lo=MIN_SAMPLES)
    seed = as_count(seed, "seed")
    draw = random.Random(seed).random
    out = StreamExtractor().feed([1 if draw() < p else 0 for _ in range(samples)])
    length = len(out)
    if length < 2:
        return StatReport(p, seed, samples, length, length / samples, 0.0, 0.0, 0.0)
    monobit_z = (2 * sum(out) - length) / math.sqrt(length)  # signs +-1 summed
    serial_z = (length - 1 - 2 * sum(map(int.__ne__, out, out[1:]))) / math.sqrt(length - 1)
    bias = max(abs(sum(out[r::8]) / len(out[r::8]) - 0.5) for r in range(min(8, length)))
    return StatReport(p, seed, samples, length, length / samples, monobit_z, serial_z, bias)
