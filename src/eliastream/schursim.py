"""Dense state-vector simulation of coherent streaming concentration.

Both parties hold identical halves of a stream of two-qubit entangled pairs
and each run the same local isometry.  Everything here is expressed over
labeled registers per party:

    t       second-row box count of the current diagram (irrep label)
    u       ladder index inside the rotation irrep, u = j - m in {0..n-2t}
    l       number of emitted qubits
    tape    emitted bit values as one integer code, MSB first (l bits)
    purity  count of banked clean |0> qubits

Joint states are sparse maps {(alice_label, bob_label): amplitude}, frozen
at construction.  Every pair statistic (emission probability, reduced pair,
fidelity, marginals, memory gap) and every register distribution reads one
column table per state, built on first use: the amplitudes and, per party,
the l and tape columns as read and dense ids of the other fields.  The
branches holding pair k are gathered from it with numpy, once per
(k, registers).

Two simulators are provided.  The known-basis one replays the classical
walk coherently over the depth-n leaves of ``extractor.walk_tree``, tapes as
the walk carries them (support 2^n, not 4^n).  The universal one interleaves
a Clebsch-Gordan step with the lattice-walk step of young.q_run, so it needs
no knowledge of the input basis; it is built as an explicit 2^n x 2^n
orthogonal matrix and applied to both parties.

Coupling convention: a diagram with d = n - 2t + 1 states carries spin
j = (d - 1)/2; u = 0 is the highest-weight state (aligned with |0>).  The
coupling coefficients are the standard real ones with the minus sign on the
(shrink, qubit |0>) branch.  Any fixed real convention shared by the two
parties gives identical fidelities.
"""

from __future__ import annotations

import gc
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import product
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .extractor import as_bit, as_count, pack_code, von_neumann, walk_tree
from .young import q_run

KNOWN_BASIS_CAP = 16
UNIVERSAL_CAP = 6
VON_NEUMANN_CAP = 8  # pairs: 4^8 strings
SCHUR_CAP = 10
# Per-size cache bound: one entry per n.
CACHE_SIZE = 32

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


# Tapes are gathered as int64 codes, so a tape may hold at most this many
# qubits; every simulator's cap keeps its tapes far shorter.
TAPE_BITS_MAX = 62


def _dense_ids(keys) -> tuple[np.ndarray, list]:
    """Number hashable keys 0, 1, ... in order of first appearance: the ids
    as an array, and the distinct keys by id."""
    ids: dict = {}
    column = np.fromiter((ids.setdefault(key, len(ids)) for key in keys), dtype=np.int64)
    return column, list(ids)


def _renumber(column: np.ndarray) -> tuple[np.ndarray, int]:
    """The column's values replaced by their ranks, and the number of ranks."""
    _, ranks = np.unique(column, return_inverse=True)
    return ranks, int(ranks.max()) + 1


def _first_appearance_ids(columns, rows: int) -> np.ndarray:
    """Number the distinct rows of nonnegative int64 columns 0, 1, ... in
    order of first appearance (all zeros when there are no columns)."""
    key, size = np.zeros(rows, dtype=np.int64), 1
    for column in columns:
        span = int(column.max()) + 1
        if size * span > 1 << 62:  # renumber densely before the key overflows
            key, size = _renumber(key)
            column, span = _renumber(column)
        key, size = key * span + column, size * span
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


class PartyColumns(NamedTuple):
    """One party's labels as columns, one row per amplitude-map entry."""

    length: np.ndarray  # tape lengths, the l field
    code: np.ndarray  # tapes, the tape field
    fields: dict  # every field but the tape: name -> (dense ids, values by id)

    @classmethod
    def build(cls, labels: tuple) -> "PartyColumns":
        kind, *others = set(map(type, labels))
        if others or not {"l", "tape"} <= set(getattr(kind, "_fields", ())):
            raise ValueError("a party's labels must share one label type with l and tape fields")
        columns = dict(zip(kind._fields, zip(*labels)))
        tape_ids, tapes = _dense_ids(zip(columns["l"], columns.pop("tape")))
        if not all(isinstance(l, int) and 0 <= l <= TAPE_BITS_MAX and isinstance(tape, int)
                   and 0 <= tape < 1 << l for l, tape in tapes):
            raise ValueError(f"a tape must be an int in [0, 2^l), l <= {TAPE_BITS_MAX}")
        length, code = np.array(tapes, dtype=np.int64).T[:, tape_ids]
        return cls(length, code, {name: _dense_ids(col) for name, col in columns.items()})

    def field(self, name: str) -> tuple[np.ndarray, list]:
        if name not in self.fields:
            raise ValueError(f"labels have no register field {name!r}")
        return self.fields[name]


class ColumnTable:
    """A joint state's amplitude map as columns, rows in map order.

    Per row: the amplitude and its weight |a|^2 (computed by Python, so sums
    over rows in map order reproduce the map's own sums digit for digit); per
    party, the tape length, the tape code and the dense ids of the other
    label fields.  Pair gathers are memoised per (k, registers), so a pair's
    fidelity, marginals and memory gap share them (see ``_pair_amplitudes``).
    """

    def __init__(self, amps) -> None:
        if not amps:
            raise ValueError("joint state has no amplitudes")
        # The build makes container objects per row and frees few, which sets
        # off full collections that rescan the state's labels (known n = 16:
        # 0.21-0.27 s with them, 0.14-0.18 s without).  So the collector is
        # paused for the build and left as it was found.
        collecting = gc.isenabled()
        gc.disable()
        try:
            values = list(amps.values())
            self.amps = np.array(values)
            self.weights = np.array([abs(a) ** 2 for a in values])
            alice, bob = zip(*amps)
            self.alice = PartyColumns.build(alice)
            self.bob = self.alice if bob == alice else PartyColumns.build(bob)
        finally:
            if collecting:
                gc.enable()
        self.gathers: dict = {}  # (k, registers) -> read-only pair gather

    def held(self, k) -> np.ndarray:
        """Mask of the rows where both tapes hold pair k."""
        k = as_count(k, "pair index", lo=1)
        return (self.alice.length >= k) & (self.bob.length >= k)

    def weight_sum(self, rows) -> float:
        """Summed weight of the selected rows, added in map order."""
        return float(sum(self.weights[rows].tolist()))


@dataclass(frozen=True)
class JointState:
    """Sparse amplitude map over (Alice label, Bob label) pairs.

    The map is frozen into a read-only view at construction, so the column
    table built from it on first use can never go stale.
    """

    n: int
    amps: Mapping
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "amps", MappingProxyType(dict(self.amps)))

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


class SchurLabel(NamedTuple):
    t: int
    u: int
    path: tuple[int, ...]


class PartyIsometry(NamedTuple):
    """Basis-state map |s> -> sum_j V[s, j] |labels[j]>, V real orthogonal."""

    n: int
    labels: tuple
    matrix: np.ndarray


def _cg_branches(n: int, s: int) -> list[tuple[int, int, tuple[int, ...], float]]:
    """All coupling branches for basis string s: (t, u, path, amplitude)."""
    branches = [(0, 0, (), 1.0)]
    for k in range(n):
        bit = (s >> (n - 1 - k)) & 1
        nxt = []
        for t, u, path, amp in branches:
            for t2, u2, pbit, a in cg_step(k, t, u, bit):
                nxt.append((t2, u2, path + (pbit,), amp * a))
        branches = nxt
    return branches


def schur_transform(n: int, cap: int = SCHUR_CAP) -> PartyIsometry:
    """The full n-qubit change of basis into (t, u, path) labels, built once
    per n; n is checked before it keys the cache."""
    return _schur_transform(as_count(n, cap=cap, error=SimulatorCapError))


@lru_cache(maxsize=CACHE_SIZE)
def _schur_transform(n: int) -> PartyIsometry:
    index: dict[SchurLabel, int] = {}
    entries = []
    for s in range(1 << n):
        for t, u, path, amp in _cg_branches(n, s):
            col = index.setdefault(SchurLabel(t, u, path), len(index))
            entries.append((s, col, amp))
    matrix = np.zeros((1 << n, len(index)), dtype=float)
    for s, col, amp in entries:
        matrix[s, col] += amp
    matrix.flags.writeable = False  # cached: shared by every later call
    return PartyIsometry(n, tuple(index), matrix)


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
    sqrt(p^(n-t) (1-p)^t) per (label, t) branch, zero terms dropped.  Two
    branches with one label would make the map irreversible, so they raise."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    amps: dict = {}
    for label, t in branches:
        if (label, label) in amps:
            raise AssertionError(f"{mode} register labels collide")
        amps[(label, label)] = math.sqrt(p ** (n - t) * (1 - p) ** t)
    amps = {key: amp for key, amp in amps.items() if amp}
    return JointState(n, amps, meta={"mode": mode, "p": p, "seeded": 0}).validate()


def two_qubit_source(p: float, theta: float = 0.0) -> np.ndarray:
    """Coefficient matrix of sqrt(p)|e0 e0> + sqrt(1-p)|e1 e1>.

    e0, e1 is the computational basis rotated by theta, so theta = 0 gives a
    computational-basis diagonal state and theta = pi/4 the |++>/|--> pair.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    e0 = np.array([math.cos(theta), math.sin(theta)])
    e1 = np.array([-math.sin(theta), math.cos(theta)])
    return math.sqrt(p) * np.outer(e0, e0) + math.sqrt(1 - p) * np.outer(e1, e1)


def collective_rotation(psi: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """Apply the same single-qubit unitary to both halves of a pair state."""
    unitary = np.asarray(unitary)
    return unitary @ psi @ unitary.T


@lru_cache(maxsize=CACHE_SIZE)
def _universal_isometry(n: int) -> tuple[tuple[PartyLabel, ...], np.ndarray]:
    """Per-party matrix of the interleaved coupling + lattice-walk transform.

    As for the classical walk, the purity tape holds n - l clean qubits and
    q_run() checks l <= n at every step.
    """
    schur = schur_transform(n, cap=max(SCHUR_CAP, n))
    labels = []
    for t, u, path in schur.labels:
        tape, final = q_run(path)
        if final.t != t:
            raise AssertionError("walk endpoint disagrees with coupling label")
        labels.append(PartyLabel(t, u, final.l, Tape(pack_code(tape), final.l), n - final.l))
    if len(set(labels)) != len(labels):
        raise AssertionError("universal register labels collide")
    return tuple(labels), schur.matrix


def simulate_universal(
    n: int,
    p: float | None = None,
    theta: float = 0.0,
    psi: np.ndarray | None = None,
) -> JointState:
    """Fully universal concentration of n copies of a two-qubit pure state.

    psi (a 2x2 coefficient matrix) overrides the (p, theta) parametrization.
    The same real isometry V is applied to each party; the joint amplitude
    table is V^T (psi tensor-power) V, tracked exactly up to float error.
    """
    n = as_count(n, lo=1, cap=UNIVERSAL_CAP, error=SimulatorCapError)
    if psi is None:
        if p is None:
            raise ValueError("pass either p (with theta) or psi")
        psi = two_qubit_source(p, theta)
    psi = np.asarray(psi)
    if psi.shape != (2, 2):
        raise ValueError("psi must be a 2x2 coefficient matrix")
    nrm = float(np.sum(np.abs(psi) ** 2))
    if not abs(nrm - 1.0) <= 1e-9:  # a NaN norm fails too
        raise ValueError("psi is not normalized")
    labels, matrix = _universal_isometry(n)
    coeff = reduce(np.kron, [psi] * n)
    joint = matrix.T @ coeff @ matrix
    amps: dict = {}
    for ia, ib in zip(*np.nonzero(np.abs(joint) > 1e-14)):
        amps[(labels[ia], labels[ib])] = complex(joint[ia, ib])
    meta = {"mode": "universal", "p": p, "theta": theta, "seeded": 0}
    return JointState(n, amps, meta=meta).validate()


def emission_probability(state: JointState, k: int) -> float:
    """Probability that both output tapes hold at least k qubits."""
    table = state.table
    return table.weight_sum(table.held(k))


def _pair_amplitudes(state: JointState, k: int, registers: tuple[str, ...] = ()) -> np.ndarray:
    """Amplitudes of the branches holding pair k as one dense, read-only
    array of shape (pair bits |a b> = 2a + b at tape slot k, register,
    environment).  The register axis runs over the joint values of the named
    label fields, the environment axis over the rest of both labels, the tape
    minus slot k; both number their values in order of first appearance in
    the map.  Gathered from the state's column table once per (k, registers).
    """
    table = state.table
    key = (as_count(k, "pair index", lo=1), tuple(registers))
    if key in table.gathers:
        return table.gathers[key]
    k, registers = key
    rows = np.flatnonzero(table.held(k))
    if not rows.size:
        raise UndefinedPairError(f"pair {k} never exists in this state")
    pair = np.zeros(rows.size, dtype=np.int64)
    reg_columns, env_columns = [], []
    for weight, party in ((2, table.alice), (1, table.bob)):
        length, code = party.length[rows], party.code[rows]
        after = length - k  # tape bits after slot k
        pair += weight * ((code >> after) & 1)
        rest = (code >> (after + 1) << after) | (code & ((1 << after) - 1))
        reg_columns += [party.field(name)[0][rows] for name in registers]
        env_columns += [length, rest]
        env_columns += [ids[rows] for name, (ids, _) in party.fields.items() if name not in registers]
    reg = _first_appearance_ids(reg_columns, rows.size)
    env = _first_appearance_ids(env_columns, rows.size)
    psi = np.zeros((4, reg.max() + 1, env.max() + 1), dtype=complex)
    # (pair bits, register, environment) rebuilds both labels: one cell per row
    psi[pair, reg, env] = table.amps[rows]
    psi.flags.writeable = False
    table.gathers[key] = psi
    return psi


def reduced_pair(state: JointState, k: int) -> tuple[np.ndarray, float]:
    """Reduced 4x4 state of the k-th (1-based) output pair, and its weight.

    Conditions on both tapes holding at least k qubits by projecting and
    renormalizing; branches without the pair never mix in.  Basis order is
    |a b> for Alice bit a, Bob bit b.
    """
    psi = _pair_amplitudes(state, k).reshape(4, -1)
    prob = float(np.sum(np.abs(psi) ** 2))
    return psi @ psi.conj().T / prob, prob


_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)


def pair_fidelity(state: JointState, k: int) -> float:
    """Fidelity of the k-th output pair with the maximally entangled target."""
    rho, _ = reduced_pair(state, k)
    return float(np.real(_PHI_PLUS @ rho @ _PHI_PLUS))


def pair_marginal(state: JointState, k: int, party: int = 0) -> np.ndarray:
    """Single-party 2x2 reduced state of the k-th output qubit; 0 is Alice."""
    if party not in (0, 1):
        raise ValueError("party must be 0 (Alice) or 1 (Bob)")
    rho, _ = reduced_pair(state, k)
    rho = rho.reshape(2, 2, 2, 2)
    return np.trace(rho, axis1=1 - party, axis2=3 - party)


def pair_memory_product_gap(state: JointState, k: int) -> float:
    """Trace distance between (pair k + t,l registers) and its product form.

    Zero means the emitted pair is exactly uncorrelated with both parties'
    lattice position, which is what makes streaming emission safe.
    """
    psi = _pair_amplitudes(state, k, registers=("t", "l"))
    nreg = psi.shape[1]
    psi = psi.reshape(4 * nreg, -1)
    rho = psi @ psi.conj().T
    rho /= np.trace(rho).real
    full = rho.reshape(4, nreg, 4, nreg)
    rho_pair = np.trace(full, axis1=1, axis2=3)
    rho_regs = np.trace(full, axis1=0, axis2=2)
    gap = rho - np.kron(rho_pair, rho_regs)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(gap))))


def _weights_by(table: ColumnTable, column: np.ndarray) -> dict[int, float]:
    """Summed weight of the rows holding each value of a nonnegative int
    column; bincount adds each value's rows in map order, one by one."""
    totals = np.bincount(column, weights=table.weights).tolist()
    return {value: totals[value] for value in np.flatnonzero(np.bincount(column)).tolist()}


def tape_length_distribution(state: JointState) -> dict[int, float]:
    """Probability of each output-tape length (Alice side)."""
    table = state.table
    return _weights_by(table, table.alice.length)


def register_distribution(state: JointState, name: str) -> dict:
    """Probability of each value of a named Alice label field other than the
    tape (t, u, l or purity; kept for von Neumann labels)."""
    table = state.table
    ids, values = table.alice.field(name)
    dist = {values[i]: weight for i, weight in _weights_by(table, ids).items()}
    return dict(sorted(dist.items(), key=lambda kv: (kv[0] is None, kv[0])))


def distribution_entropy(dist: dict) -> float:
    return 0.0 - sum(p * math.log2(p) for p in dist.values() if p > 0)  # no -0.0


def certain_pairs(state: JointState, tol: float = 1e-12) -> int:
    """Number of leading tape slots occupied with probability 1.

    Slots past this point exist only in superposition of tape lengths
    (the incubation region) and should not yet be consumed.
    """
    lengths = tape_length_distribution(state)
    return min(l for l, pr in lengths.items() if pr > tol)


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
