"""Brute-force and statistical harnesses binding the machine to its contracts.

The exhaustive and symbolic checks are hard assertions computed by full
enumeration (they prove the property at the tested size); the statistical
battery is advisory and only guards the plumbing around seeded sampling.
mpmath and numpy are imported by the suites that use them (yield bound and
battery), so the exhaustive suites load neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .binomial import bin_layout, binom
from .elias import SourceModel, expected_yield
from .extractor import ExtractorState, StreamExtractor, walk_all

if TYPE_CHECKING:
    import mpmath

# What walk_all(n) yields: (final state, output) per n-bit string.
Walk = Iterable[tuple[ExtractorState, tuple[int, ...]]]

EXHAUSTIVE_CAP = 20
BALANCED_CAP = 14
# The probabilities p0 of a 0 bit that the yield-bound sweep runs at every n.
YIELD_P_VALUES = tuple(Fraction(k, 10) for k in (1, 3, 5, 7, 9))


@dataclass
class NodeRecord:
    t: int
    l: int
    string_count: int
    output_set_complete: bool


@dataclass
class EquivalenceReport:
    n: int
    nodes: list[NodeRecord] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class BalancedReport:
    n: int
    nodes_checked: int = 0
    positions_checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class YieldBoundReport:
    max_n: int
    p_values: tuple
    rows: list[tuple] = field(default_factory=list)  # (n, p, yield, bound)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


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


def exhaustive_equivalence(n: int, walk: Walk | None = None) -> EquivalenceReport:
    """Check that n-step streaming reproduces the whole-block extraction.

    Every reachable final node (n, t, l) must collect exactly 2^l strings
    whose outputs enumerate {0,1}^l, the node sizes of a type must add up to
    C(n, t), and the set of l values must equal the type's bin layout.
    `walk` is an already enumerated walk_all(n), read once; by default the
    suite enumerates its own.
    """
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"n={n} exceeds enumeration cap {EXHAUSTIVE_CAP}")
    report = EquivalenceReport(n)
    by_node: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for state, output in walk_all(n) if walk is None else walk:
        if state.n != n:
            report.violations.append(f"final state {state} has wrong n")
        by_node.setdefault((state.t, state.l), []).append(output)
    for (t, l), outputs in sorted(by_node.items()):
        distinct = set(outputs)
        complete = (
            len(outputs) == 1 << l
            and len(distinct) == 1 << l
            and all(len(o) == l for o in outputs)
        )
        report.nodes.append(NodeRecord(t, l, len(outputs), complete))
        if not complete:
            report.violations.append(
                f"node ({n},{t},{l}): {len(outputs)} strings, "
                f"{len(distinct)} distinct outputs, want {1 << l}"
            )
    for t in range(n + 1):
        sizes = {l: len(v) for (tt, l), v in by_node.items() if tt == t}
        if sum(sizes.values()) != binom(n, t):
            report.violations.append(
                f"type {t}: node sizes sum to {sum(sizes.values())}, "
                f"want C({n},{t})={binom(n, t)}"
            )
        if set(sizes) != set(bin_layout(n, t).bins):
            report.violations.append(
                f"type {t}: l values {sorted(sizes)} != layout "
                f"{sorted(bin_layout(n, t).bins)}"
            )
    return report


def balanced_paths(n: int, walk: Walk | None = None) -> BalancedReport:
    """Exact symbolic balance of every output position at every final node.

    All strings reaching a node share the monomial p^(n-t) (1-p)^t, so the
    per-value weights are that monomial times an integer count; the check
    compares the coefficient maps {(n-t, t): count} for bit 0 vs bit 1,
    which is equality of polynomials in p.  `walk` is as in
    exhaustive_equivalence.
    """
    if n > BALANCED_CAP:
        raise ValueError(f"n={n} exceeds enumeration cap {BALANCED_CAP}")
    report = BalancedReport(n)
    weights: dict[tuple, dict[tuple[int, int], int]] = {}
    strings = 0
    for state, output in walk_all(n) if walk is None else walk:
        strings += 1
        if state.n != n:
            report.violations.append(f"final state {state} has wrong n")
        mono = (n - state.t, state.t)
        for pos, bit in enumerate(output):
            key = (state.t, state.l, pos, bit)
            coeffs = weights.setdefault(key, {})
            coeffs[mono] = coeffs.get(mono, 0) + 1
    nodes = {(t, l) for (t, l, _, _) in weights}
    report.nodes_checked = len(nodes)
    for t, l in sorted(nodes):
        for pos in range(l):
            report.positions_checked += 1
            zero = weights.get((t, l, pos, 0), {})
            one = weights.get((t, l, pos, 1), {})
            if zero != one:
                report.violations.append(
                    f"node ({n},{t},{l}) position {pos}: "
                    f"weight(0)={zero} != weight(1)={one}"
                )
    if strings != 1 << n:
        report.violations.append(f"walk holds {strings} strings, want 2^{n}")
    return report


def theorem_bound(n: int, p: Fraction, dps: int = 40) -> mpmath.mpf:
    """n H(p) - log2(n+1) - 2 at high precision."""
    import mpmath

    with mpmath.workdps(dps):
        if p in (0, 1):
            h = mpmath.mpf(0)
        else:
            pp = mpmath.mpf(p.numerator) / p.denominator
            h = -(pp * mpmath.log(pp, 2) + (1 - pp) * mpmath.log(1 - pp, 2))
        return n * h - mpmath.log(n + 1, 2) - 2


def yield_bound_sweep(max_n: int) -> YieldBoundReport:
    """Exact expected yield against the entropy bound for every n >= 1 and
    every p in ``YIELD_P_VALUES``."""
    import mpmath

    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    report = YieldBoundReport(max_n, YIELD_P_VALUES)
    for n in range(1, max_n + 1):
        for p in YIELD_P_VALUES:
            exact = expected_yield(n, SourceModel(p), cap=max(24, max_n))
            bound = theorem_bound(n, p)
            report.rows.append((n, p, exact, float(bound)))
            with mpmath.workdps(40):
                value = mpmath.mpf(exact.numerator) / exact.denominator
                if value < bound:
                    report.violations.append(
                        f"n={n} p={p}: yield {float(value):.6f} "
                        f"< bound {float(bound):.6f}"
                    )
    return report


def statistical_battery(p: float, samples: int, seed: int) -> StatReport:
    """Empirical sanity of a seeded Bernoulli(p) run; p is the weight of 1s.

    Deterministic given (p, samples, seed): bits come from a PCG64 generator.
    Reports monobit and lag-1 serial z-scores of the output stream plus the
    largest within-byte positional bias.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if samples < 10_000:
        raise ValueError("samples must be >= 10^4")
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
    bias = max(
        abs(float(arr[r::8].mean()) - 0.5) for r in range(8) if len(arr[r::8])
    )
    return StatReport(
        p=p,
        seed=seed,
        sample_size=samples,
        output_len=length,
        rate=length / samples,
        monobit_z=monobit_z,
        serial_z=serial_z,
        max_position_bias=bias,
    )
