"""Brute-force and statistical harnesses binding the machine to its contracts.

The exhaustive and symbolic checks are hard assertions computed by full
enumeration (they prove the property at the tested size); the statistical
battery is advisory and only guards the plumbing around seeded sampling.
Both exhaustive suites read ``tally``: one ``walk_tree`` pass as per-node
string counts, 2^l-bit output maps and ones per position, in O(2^n) bits.
numpy is imported by the battery alone; mpmath only by a yield-bound check
too close to call in floats, which no n <= 23 needs, so the default suites
load neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .binomial import bin_layout, binom
from .elias import SourceModel, expected_yield
from .extractor import ExtractorState, StreamExtractor, as_count, walk_tree

if TYPE_CHECKING:
    import mpmath

EXHAUSTIVE_CAP = 23
BALANCED_CAP = 14
# The probabilities p0 of a 0 bit that the yield-bound sweep runs at every n.
YIELD_P_VALUES = tuple(Fraction(k, 10) for k in (1, 3, 5, 7, 9))
# Yield-to-bound gaps, in bits, that floats decide; float error at these sizes
# is ~1e-14 and the smallest gap over n <= 23 is 1.25 bits.  Closer pairs go
# to theorem_bound, at YIELD_DPS decimal digits.
YIELD_FLOAT_MARGIN = 1e-9
YIELD_DPS = 40


class _Checked:  # a suite's report passes when it records no violation
    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class NodeRecord:
    t: int
    l: int
    string_count: int
    output_set_complete: bool


@dataclass
class EquivalenceReport(_Checked):
    n: int
    nodes: list[NodeRecord] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)


@dataclass
class BalancedReport(_Checked):
    n: int
    nodes_checked: int = 0
    positions_checked: int = 0
    violations: list[str] = field(default_factory=list)


@dataclass
class YieldBoundReport(_Checked):
    max_n: int
    p_values: tuple
    rows: list[tuple] = field(default_factory=list)  # (n, p, yield, bound)
    violations: list[str] = field(default_factory=list)


@dataclass
class StatReport:
    p: float
    seed: int
    sample_size: int
    output_len: int
    rate: float
    monobit_z: float
    serial_z: float
    max_position_bias: float

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


def _level(n: int, tallies: dict | None, ones_to: int) -> dict[tuple, NodeTally]:
    """The depth-n tallies by (t, l), in order; by default from a walk of their own."""
    level = (tally(walk_tree(n), ones_to) if tallies is None else tallies).items()
    return dict(sorted(((node.t, node.l), acc) for node, acc in level if node.n == n))


def exhaustive_equivalence(n: int, tallies: dict | None = None) -> EquivalenceReport:
    """Check that n-step streaming reproduces the whole-block extraction.

    Every reachable final node (n, t, l) must collect exactly 2^l strings
    whose outputs enumerate {0,1}^l, the node sizes of a type must add up to
    C(n, t), and the set of l values must equal the type's bin layout.
    `tallies` is the ``tally`` of a walk to depth n or beyond, which every
    such n can share; by default the suite walks and tallies its own.
    """
    n = as_count(n, cap=EXHAUSTIVE_CAP)
    level = _level(n, tallies, -1)
    report = EquivalenceReport(n)
    for (t, l), acc in level.items():
        distinct = int.from_bytes(acc.seen, "little").bit_count()
        complete = acc.count == distinct == 1 << l
        report.nodes.append(NodeRecord(t, l, acc.count, complete))
        if not complete:
            report.violations.append(f"node ({n},{t},{l}): {acc.count} strings, "
                                     f"{distinct} distinct outputs, want {1 << l}")
    for t in range(n + 1):
        sizes = {l: acc.count for (tt, l), acc in level.items() if tt == t}
        if sum(sizes.values()) != binom(n, t):
            report.violations.append(f"type {t}: node sizes sum to {sum(sizes.values())}, "
                                     f"want C({n},{t})={binom(n, t)}")
        if set(sizes) != set(bin_layout(n, t)):
            report.violations.append(f"type {t}: l values {sorted(sizes)} != layout "
                                     f"{sorted(bin_layout(n, t))}")
    return report


def balanced_paths(n: int, tallies: dict | None = None) -> BalancedReport:
    """Exact symbolic balance of every output position at every final node.

    All strings reaching a node share the monomial p^(n-t) (1-p)^t, so the
    per-value weights are that monomial times an integer count; equal counts
    of 0s and 1s at a position are equality of polynomials in p.  `tallies`
    is as in exhaustive_equivalence, with ones tallied at depth n.
    """
    n = as_count(n, cap=BALANCED_CAP)
    level = _level(n, tallies, n)
    report = BalancedReport(n)
    strings = 0
    for (t, l), acc in level.items():
        if acc.ones is None:
            raise ValueError(f"node ({n},{t},{l}) has no ones tallied")
        strings += acc.count
        report.nodes_checked += l > 0
        report.positions_checked += l
        for pos, one in enumerate(reversed(acc.ones)):
            if acc.count - one != one:
                report.violations.append(f"node ({n},{t},{l}) position {pos}: "
                                         f"{acc.count - one} zeros != {one} ones")
    if strings != 1 << n:
        report.violations.append(f"walk holds {strings} strings, want 2^{n}")
    return report


def theorem_bound(n: int, p: Fraction) -> mpmath.mpf:
    """n H(p) - log2(n+1) - 2 at ``YIELD_DPS`` decimal digits."""
    import mpmath

    with mpmath.workdps(YIELD_DPS):
        if p in (0, 1):
            h = mpmath.mpf(0)
        else:
            pp = mpmath.mpf(p.numerator) / p.denominator
            h = -(pp * mpmath.log(pp, 2) + (1 - pp) * mpmath.log(1 - pp, 2))
        return n * h - mpmath.log(n + 1, 2) - 2


def _float_bound(n: int, p: Fraction) -> float:
    """theorem_bound in floats, from ``math.log2``."""
    q = float(p)
    h = -(q * math.log2(q) + (1 - q) * math.log2(1 - q)) if 0 < q < 1 else 0.0
    return n * h - math.log2(n + 1) - 2


def yield_bound_sweep(max_n: int) -> YieldBoundReport:
    """Exact expected yield against the entropy bound for every n >= 1 and
    every p in ``YIELD_P_VALUES``.  A pair further apart than
    ``YIELD_FLOAT_MARGIN`` is compared in floats, any other against the
    ``YIELD_DPS``-digit ``theorem_bound``; the report holds the float bound."""
    max_n = as_count(max_n, "max_n", lo=1)
    report = YieldBoundReport(max_n, YIELD_P_VALUES)
    for n in range(1, max_n + 1):
        for p in YIELD_P_VALUES:
            exact = expected_yield(n, SourceModel(p), cap=max(24, max_n))
            value, bound = float(exact), _float_bound(n, p)
            report.rows.append((n, p, exact, bound))
            if abs(value - bound) > YIELD_FLOAT_MARGIN:
                below = value < bound
            else:
                import mpmath

                with mpmath.workdps(YIELD_DPS):
                    below = mpmath.mpf(exact.numerator) / exact.denominator < theorem_bound(n, p)
            if below:
                report.violations.append(f"n={n} p={p}: yield {value:.6f} < bound {bound:.6f}")
    return report


def statistical_battery(p: float, samples: int, seed: int) -> StatReport:
    """Empirical sanity of a seeded Bernoulli(p) run; p is the weight of 1s.

    Deterministic given (p, samples, seed): bits come from a PCG64 generator.
    Reports monobit and lag-1 serial z-scores of the output stream plus the
    largest within-byte positional bias.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    samples = as_count(samples, "samples", lo=10_000)
    import numpy as np

    rng = np.random.default_rng(seed)
    bits = (rng.random(samples) < p).astype(np.uint8)
    arr = np.asarray(StreamExtractor().feed(bits.tolist()), dtype=np.int8)
    length = len(arr)
    if length < 2:
        return StatReport(p, seed, samples, length, length / samples, 0.0, 0.0, 0.0)
    signs = 2 * arr.astype(np.float64) - 1
    monobit_z = float(signs.sum() / math.sqrt(length))
    serial_z = float((signs[:-1] * signs[1:]).sum() / math.sqrt(length - 1))
    bias = max(abs(float(arr[r::8].mean()) - 0.5) for r in range(8) if len(arr[r::8]))
    return StatReport(p, seed, samples, length, length / samples, monobit_z, serial_z, bias)
