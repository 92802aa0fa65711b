"""Sparse state simulation of coherent streaming concentration.

Both parties hold identical halves of a stream of two-qubit entangled pairs
and each run the same local isometry.  Everything here is expressed over
labeled registers per party:

    t       second-row box count of the current diagram (irrep label)
    u       ladder index inside the rotation irrep, u = j - m in {0..n-2t}
    l       number of emitted qubits
    tape    emitted bit values as one integer code, MSB first (l bits)
    purity  count of banked clean |0> qubits

Joint states are sparse maps {(alice_label, bob_label): amplitude}, frozen
at construction.  The pair statistics (emission probability and fidelity)
and the register distributions read one ``ColumnTable`` per state, in plain
Python; the module imports no numeric library.
The array statistics that certify a pair's decoupling from the lattice
registers (reduced pair, marginals, memory gap) are test oracles, built on
a naive per-label gather in ``tests/oracles.py``.

Two simulators are provided.  The known-basis one replays the classical
walk coherently over the depth-n leaves of ``extractor.walk_tree``, tapes as
the walk carries them (support 2^n, not 4^n).  The universal one streams
the pairs one at a time, interleaving a Clebsch-Gordan step with the lattice
move, ``extractor.step`` on ``young.YOUNG``, so it needs no knowledge of the
input basis; the dense 2^n x 2^n coupling transform, plain-Python rows, is
only its naive oracle.

Coupling convention: a diagram with d = n - 2t + 1 states carries spin
j = (d - 1)/2; u = 0 is the highest-weight state (aligned with |0>).  The
coupling coefficients are the standard real ones with the minus sign on the
(shrink, qubit |0>) branch.  Any fixed real convention shared by the two
parties gives identical fidelities.
"""

from __future__ import annotations

import gc
import math
from collections import defaultdict
from collections.abc import Mapping
from contextlib import contextmanager
from functools import cache, cached_property, partial
from itertools import product
from types import MappingProxyType
from typing import NamedTuple

from .extractor import ExtractorState, as_bit, as_count, coded_move, pack_code, von_neumann, walk_tree
from .young import YOUNG

KNOWN_BASIS_CAP = 16
UNIVERSAL_CAP = 15
VON_NEUMANN_CAP = 8  # pairs: 4^8 strings
SCHUR_CAP = 10

NORM_TOL = 1e-12


class UndefinedPairError(ValueError):
    """The requested output pair has zero probability of existing."""


class SimulatorCapError(ValueError):
    """Requested size exceeds the simulator's dimension cap."""


class Tape(int):
    """The integer whose l bits, MSB first, are the emitted qubits; len() is l,
    leading zeros included.  Label statistics read the l field instead."""

    def __new__(cls, code: int, l: int) -> "Tape":
        tape = super().__new__(cls, code)
        tape.l = l
        return tape

    def __len__(self) -> int:
        return self.l


class PartyLabel(NamedTuple):
    t: int
    u: int | None
    l: int
    tape: int
    purity: int


class VNLabel(NamedTuple):
    """Pairwise-unbiasing register content: tape plus retained residue bits."""

    l: int
    tape: int
    kept: str
    purity: int


# A tape may hold at most this many qubits, so its code fits a signed 64-bit
# integer; every simulator's cap keeps its tapes far shorter.
TAPE_BITS_MAX = 62


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for a state build, which makes
    container objects per entry and frees few; leave it as it was found."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


class PartyColumns(NamedTuple):
    """One party's labels as columns, one row per amplitude-map entry."""

    length: tuple  # tape lengths, the l field
    code: tuple  # tapes, the tape field
    fields: dict  # every field but the tape: name -> its column

    @classmethod
    def build(cls, labels: tuple) -> "PartyColumns":
        kind, *others = set(map(type, labels))
        if others or not {"l", "tape"} <= set(getattr(kind, "_fields", ())):
            raise ValueError("a party's labels must share one label type with l and tape fields")
        columns = dict(zip(kind._fields, zip(*labels)))
        length, code = columns["l"], columns.pop("tape")
        if not all(isinstance(l, int) and 0 <= l <= TAPE_BITS_MAX and isinstance(tape, int)
                   and 0 <= tape < 1 << l for l, tape in dict.fromkeys(zip(length, code))):
            raise ValueError(f"a tape must be an int in [0, 2^l), l <= {TAPE_BITS_MAX}")
        return cls(length, code, columns)

    def field(self, name: str) -> tuple:
        if name not in self.fields:
            raise ValueError(f"labels have no register field {name!r}")
        return self.fields[name]


class ColumnTable:
    """A joint state's amplitude map as columns, rows in map order.

    Per row: the amplitude and its weight |a|^2, so sums over rows in map
    order reproduce the map's own sums digit for digit; per party, the tape
    length, the tape code and the column of every other label field.  The
    pair statistics are memoised per k (see ``_pair_statistics``).
    """

    def __init__(self, amps) -> None:
        if not amps:
            raise ValueError("joint state has no amplitudes")
        with _collector_paused():
            self.amps = list(amps.values())
            self.weights = [abs(a) ** 2 for a in self.amps]
            alice, bob = zip(*amps)
            self.alice = PartyColumns.build(alice)
            self.bob = self.alice if bob == alice else PartyColumns.build(bob)
        self.pairs: dict = {}  # k -> (emission probability, fidelity numerator or None)

    @cached_property
    def env_ids(self) -> list[int]:
        """Per row, the id of both labels' fields but the tapes, numbered 0,
        1, ... in order of first appearance."""
        ids: dict = {}
        envs = zip(*self.alice.fields.values(), *self.bob.fields.values())
        return [ids.setdefault(env, len(ids)) for env in envs]


class JointState:
    """Sparse amplitude map over (Alice label, Bob label) pairs.

    The map is frozen into a read-only view of the state's own copy at
    construction, and the fields cannot be reassigned, so the column table
    built from it on first use can never go stale.  States compare equal by
    (n, amps, meta).
    """

    def __init__(self, n: int, amps: Mapping, meta: dict | None = None) -> None:
        fields = self.__dict__
        fields["n"], fields["amps"] = n, MappingProxyType(dict(amps))
        fields["meta"] = {} if meta is None else meta

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.amps, self.meta) == (other.n, other.amps, other.meta)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n={self.n!r}, amps={self.amps!r}, meta={self.meta!r})"

    @cached_property
    def table(self) -> ColumnTable:
        return ColumnTable(self.amps)

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amps.values()))

    def validate(self) -> "JointState":
        nrm = self.norm_sq()
        if not abs(nrm - 1.0) <= NORM_TOL:  # a NaN norm fails too
            raise AssertionError(f"joint state norm^2 = {nrm!r}, not 1")
        return self


def cg_step(n: int, t: int, u: int, qubit: int) -> list[tuple[int, int, int, float]]:
    """Couple one qubit into the (n, t) diagram's rotation register.

    Returns [(t', u', pbit, amplitude)] with zero-amplitude branches removed.
    pbit 0 grows row one (spin up the ladder), pbit 1 grows row two.  The
    branch amplitudes square-sum to 1 and distinct inputs map to orthogonal
    outputs, so the induced register map is an isometry.
    """
    qubit = as_bit(qubit)
    d = n - 2 * t + 1
    if not 0 <= 2 * t <= n or not 0 <= u < d:
        raise ValueError(f"invalid register pair (t={t}, u={u}) at n={n}")
    out = []
    if qubit == 0:
        out.append((t, u, 0, math.sqrt((d - u) / d)))
        if u > 0:
            out.append((t + 1, u - 1, 1, -math.sqrt(u / d)))
    else:
        out.append((t, u + 1, 0, math.sqrt((u + 1) / d)))
        if d - 1 - u > 0:
            out.append((t + 1, u, 1, math.sqrt((d - 1 - u) / d)))
    return out


class PartyIsometry(NamedTuple):
    """Basis-state map |s> -> sum_j V[s][j] |labels[j]>, V real orthogonal,
    its rows a tuple of float tuples (``numpy.asarray`` reads it whole)."""

    n: int
    labels: tuple
    matrix: tuple


def schur_transform(n: int, cap: int = SCHUR_CAP) -> PartyIsometry:
    """The full n-qubit change of basis into (t, u, path) labels, each basis
    string coupled in qubit by qubit: the universal simulator's dense oracle."""
    n = as_count(n, cap=cap, error=SimulatorCapError)
    columns: dict[tuple, list] = {}  # (t, u, path) -> column
    for s in range(1 << n):
        branches = [(0, 0, (), 1.0)]
        for k in range(n):
            bit = (s >> (n - 1 - k)) & 1
            branches = [(t2, u2, path + (pbit,), amp * a) for t, u, path, amp in branches
                        for t2, u2, pbit, a in cg_step(k, t, u, bit)]
        for t, u, path, amp in branches:
            columns.setdefault((t, u, path), [0.0] * (1 << n))[s] += amp
    return PartyIsometry(n, tuple(columns), tuple(zip(*columns.values())))


def simulate_known_basis(p: float, n: int) -> JointState:
    """Coherent run of the classical machine on sqrt(p)|00> + sqrt(1-p)|11>.

    Both parties' transcripts are identical branch by branch, so the joint
    state has one diagonal term per classical string, a depth-n leaf of
    walk_tree(); its check of l <= n at every node keeps the purity tape
    (n - l clean bits) from popping a bit it never banked.
    """
    n = as_count(n, cap=KNOWN_BASIS_CAP, error=SimulatorCapError)
    leaves = ((PartyLabel(node.t, None, node.l, Tape(code, node.l), n - node.l), node.t)
              for node, code in walk_tree(n) if node.n == n)
    return _diagonal_state(n, p, leaves, "known")


def _diagonal_state(n: int, p: float, branches, mode: str) -> JointState:
    """Both parties hold the same label per classical n-bit string: one term
    sqrt(p^(n-t) (1-p)^t) per (label, t) branch, computed once per t, zero
    terms dropped.  Two branches with one label would make the map
    irreversible, so they raise."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    by_ones = [math.sqrt(p ** (n - t) * (1 - p) ** t) for t in range(n + 1)]
    amps: dict = {}
    with _collector_paused():
        for label, t in branches:
            if (label, label) in amps:
                raise AssertionError(f"{mode} register labels collide")
            amps[(label, label)] = by_ones[t]
    amps = {key: amp for key, amp in amps.items() if amp}
    return JointState(n, amps, meta={"mode": mode, "p": p, "seeded": 0}).validate()


def _source_rows(p: float, theta: float) -> list[list[float]]:
    """Coefficients psi[a][b] of sqrt(p)|e0 e0> + sqrt(1-p)|e1 e1>.

    e0, e1 is the computational basis rotated by theta, so theta = 0 gives a
    computational-basis diagonal state and theta = pi/4 the |++>/|--> pair.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    e0, e1 = (math.cos(theta), math.sin(theta)), (-math.sin(theta), math.cos(theta))
    return [[math.sqrt(p) * (e0[a] * e0[b]) + math.sqrt(1 - p) * (e1[a] * e1[b]) for b in (0, 1)]
            for a in (0, 1)]


def simulate_universal(n: int, p: float | None = None, theta: float = 0.0,
                       psi=None) -> JointState:
    """Fully universal concentration of n copies of a two-qubit pure state.

    psi (2x2 coefficients, read as psi[a][b]) overrides the (p, theta) parametrization.
    One sparse pass per input pair: each entry expands by psi's nonzero
    coefficients, both parties take their qubit (``_party_moves``), equal
    keys add up and amplitudes of at most 1e-14 drop.  The result equals
    V^T (psi tensor-power) V for the dense V of ``schur_transform``.
    """
    n = as_count(n, lo=1, cap=UNIVERSAL_CAP, error=SimulatorCapError)
    if psi is None:
        if p is None:
            raise ValueError("pass either p (with theta) or psi")
        psi = _source_rows(p, theta)
    try:
        psi = [[complex(c) for c in row] for row in psi]
    except TypeError:  # not a matrix of numbers
        psi = []
    if len(psi) != 2 or any(len(row) != 2 for row in psi):
        raise ValueError("psi must be a 2x2 coefficient matrix")
    nrm = sum(abs(c) ** 2 for row in psi for c in row)
    if not abs(nrm - 1.0) <= 1e-9:  # a NaN norm fails too
        raise ValueError("psi is not normalized")
    terms = [(a, b, psi[a][b]) for a in (0, 1) for b in (0, 1) if psi[a][b]]
    registers = [PartyLabel(0, 0, 0, Tape(0, 0), 0)]  # by id
    amps: dict = {0: 1.0}  # alice id * len(registers) + bob id -> amplitude
    with _collector_paused():
        for k in range(n):
            size, (registers, moves) = len(registers), _party_moves(k, registers)
            merged: defaultdict = defaultdict(complex)
            for key, amp in amps.items():
                alice, bob = divmod(key, size)
                for a, b, c in terms:
                    for alice2, ca in moves[alice][a]:
                        amp_a, base = amp * c * ca, alice2 * len(registers)
                        for bob2, cb in moves[bob][b]:
                            merged[base + bob2] += amp_a * cb
            amps = {key: amp for key, amp in merged.items() if abs(amp) > 1e-14}
        size = len(registers)
        amps = {(registers[key // size], registers[key % size]): amp for key, amp in amps.items()}
    meta = {"mode": "universal", "p": p, "theta": theta, "seeded": 0}
    return JointState(n, amps, meta=meta).validate()


def _party_moves(k: int, registers: list) -> tuple[list, list]:
    """Qubit k + 1 into each party register: the registers after, and per
    register and qubit its [(id after, coefficient)].  ``coded_move`` checks
    l <= n; the walk must end where ``cg_step`` does, and distinct (t, l,
    tape, box bit) must land on distinct (t', l', tape'), or no isometry."""
    walk = cache(partial(coded_move, lattice=YOUNG))  # per call, as in walk_tree
    landed: dict = {}  # (t', l', tape') -> its (t, l, tape, box bit)
    ids: dict = {}
    moves = []
    for t, u, l, tape, _ in registers:
        moves.append(by_qubit := ([], []))
        for qubit, out in enumerate(by_qubit):
            for t2, u2, pbit, c in cg_step(k, t, u, qubit):
                after, width, code = walk(ExtractorState(k, t, l), pbit)
                if after.t != t2:
                    raise AssertionError("walk endpoint disagrees with coupling label")
                tape2 = tape << width | code
                if landed.setdefault((t2, after.l, tape2), (t, l, tape, pbit)) != (t, l, tape, pbit):
                    raise AssertionError("universal register labels collide")
                label = PartyLabel(t2, u2, after.l, Tape(tape2, after.l), k + 1 - after.l)
                out.append((ids.setdefault(label, len(ids)), c))
    return list(ids), moves


def emission_probability(state: JointState, k: int) -> float:
    """Probability that both output tapes hold at least k qubits."""
    return _pair_statistics(state, k)[0]


def _pair_statistics(state: JointState, k: int) -> tuple[float, float | None]:
    """Pair k's emission probability and fidelity numerator, the sum over
    environments of |psi_00 + psi_11|^2 (None where no row holds pair k).

    One pass over the rows per k, memoised per table: each row holding the
    pair adds its weight to the probability, and where both of its bits at
    slot k agree, its amplitude to the overlap of its environment (both
    labels but slot k).  Rows are read in map order and environments kept in
    order of first appearance, so the sums add as the cells of the naive
    per-label gather in ``tests/oracles.py`` do.
    """
    table, k = state.table, as_count(k, "pair index", lo=1)
    if k in table.pairs:
        return table.pairs[k]
    alice, bob = table.alice, table.bob
    prob, overlaps = 0.0, {}
    for a_len, a_code, b_len, b_code, others, weight, amp in zip(
            alice.length, alice.code, bob.length, bob.code, table.env_ids, table.weights, table.amps):
        if a_len < k or b_len < k:
            continue
        prob += weight
        a_bit, b_bit = a_code >> (a_len - k) & 1, b_code >> (b_len - k) & 1
        # beside its length (in others), a tape with slot k cleared stands for the rest
        env = (a_code ^ a_bit << (a_len - k), b_code ^ b_bit << (b_len - k), others)
        if a_bit == b_bit:
            overlaps[env] = overlaps.get(env, 0.0) + amp
        else:  # adds nothing, but keeps the environments in first-appearance order
            overlaps.setdefault(env, 0.0)
    table.pairs[k] = prob, sum(abs(c) ** 2 for c in overlaps.values()) if overlaps else None
    return table.pairs[k]


def pair_fidelity(state: JointState, k: int) -> float:
    """Fidelity of the k-th output pair with the maximally entangled target:
    the sum over environments of |psi_00 + psi_11|^2 / (2 prob)."""
    prob, overlap = _pair_statistics(state, k)
    if overlap is None:
        raise UndefinedPairError(f"pair {as_count(k, 'pair index')} never exists in this state")
    return overlap / (2 * prob)


def _weights_by(table: ColumnTable, column) -> dict:
    """Summed weight of the rows holding each value of a column, each
    value's rows added one by one in map order."""
    totals: dict = {}
    for value, weight in zip(column, table.weights):
        totals[value] = totals.get(value, 0.0) + weight
    return totals


def tape_length_distribution(state: JointState) -> dict[int, float]:
    """Probability of each output-tape length (Alice side), by length."""
    table = state.table
    return dict(sorted(_weights_by(table, table.alice.length).items()))


def register_distribution(state: JointState, name: str) -> dict:
    """Probability of each value of a named Alice label field other than the
    tape (t, u, l or purity; kept for von Neumann labels)."""
    table = state.table
    dist = _weights_by(table, table.alice.field(name))
    return dict(sorted(dist.items(), key=lambda kv: (kv[0] is None, kv[0])))


def distribution_entropy(dist: dict) -> float:
    # clamped, as a point mass may sum to 1 + 2^-52 and print -0.000000
    return max(0.0, -sum(p * math.log2(p) for p in dist.values() if p > 0))


# A tape length of at most this probability counts as never taken.
CERTAIN_TOL = 1e-12


def certain_pairs(state: JointState) -> int:
    """Number of leading tape slots occupied with probability 1.

    Slots past this point exist only in superposition of tape lengths
    (the incubation region) and should not yet be consumed.
    """
    lengths = tape_length_distribution(state)
    return min(l for l, pr in lengths.items() if pr > CERTAIN_TOL)


# -- fixed small scenarios -------------------------------------------------


_HUFFMAN_AMPS = (1 / math.sqrt(2), 0.5, 1 / math.sqrt(8), 1 / math.sqrt(8))
_HUFFMAN_CODES = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))  # prefix code, zero-padded


def huffman_output_state() -> JointState:
    """Both parties Huffman-encode one draw of the four-symbol source.

    The source has dyadic weights (1/2, 1/4, 1/8, 1/8); each symbol's
    codeword is written to a 3-qubit zero-padded register per party.
    """
    amps = {}
    for amp, code in zip(_HUFFMAN_AMPS, _HUFFMAN_CODES):
        label = PartyLabel(0, None, 3, Tape(pack_code(code), 3), 0)
        amps[(label, label)] = amp
    return JointState(1, amps, meta={"mode": "huffman", "seeded": 0}).validate()


def huffman_counterexample() -> float:
    """First-pair fidelity after Huffman coding: below 1, and stuck there.

    Codeword length is correlated with symbol identity, so tracing the tail
    of the register decoheres the leading pair.  A sequential encoder never
    revisits emitted qubits, so no later action can repair it.
    """
    return pair_fidelity(huffman_output_state(), 1)


def simulate_von_neumann(p: float, pairs: int) -> JointState:
    """Coherent pairwise unbiasing on `pairs` two-qubit draws per party.

    Per pair: a controlled-not from the second qubit stores the parity in
    the first, and on odd parity the second qubit is swapped out onto the
    output tape, as ``extractor.von_neumann`` emits it.  The residue stays in
    place, so the map is reversible: an even pair leaves its value over a
    clean parity cell (kept symbol '0' or '1'), an odd pair leaves a
    vacated cell over the raised parity (kept symbol '-').  Each pair also
    strands one deterministically clean cell, counted as purity.
    """
    pairs = as_count(pairs, "pairs", cap=VON_NEUMANN_CAP, error=SimulatorCapError)
    # Per pair value, in ascending order: (bits emitted, their code, kept symbol, ones).
    moves = [(len(out), pack_code(out), "-" if b1 != b2 else b1, int(b1) + int(b2))
             for b1, b2 in product("01", repeat=2) for out in [von_neumann(b1 + b2)]]
    # (l, tape, kept, ones) per string, in ascending order, generated lazily
    # so that _diagonal_state checks p before the first branch is built
    branches = [(0, 0, "", 0)]
    for _ in range(pairs):
        branches = ((l + w, tape << w | v, kept + k, t + ones)
                    for l, tape, kept, t in branches for w, v, k, ones in moves)
    labels = ((VNLabel(l, Tape(tape, l), kept, pairs), t) for l, tape, kept, t in branches)
    return _diagonal_state(2 * pairs, p, labels, "vonneumann")


def nonhalting_amplitude(state: JointState) -> float:
    """Amplitude of the branch family that has emitted nothing."""
    return math.sqrt(tape_length_distribution(state).get(0, 0.0))
