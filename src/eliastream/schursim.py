"""Dense state-vector simulation of coherent streaming concentration.

Both parties hold identical halves of a stream of two-qubit entangled pairs
and each run the same local isometry.  Everything here is expressed over
labeled registers per party:

    t       second-row box count of the current diagram (irrep label)
    u       ladder index inside the rotation irrep, u = j - m in {0..n-2t}
    l       number of emitted qubits
    tape    emitted bit values (computational basis labels)
    purity  count of banked clean |0> qubits

Joint states are sparse maps {(alice_label, bob_label): amplitude}.

Two simulators are provided.  The known-basis one replays the classical
streaming-extractor transcript coherently (support 2^n, not 4^n).  The
universal one interleaves a Clebsch-Gordan step with the lattice-walk step
of young.q_run, so it needs no knowledge of the input basis; it is built as
an explicit 2^n x 2^n orthogonal matrix and applied to both parties.

Coupling convention: a diagram with d = n - 2t + 1 states carries spin
j = (d - 1)/2; u = 0 is the highest-weight state (aligned with |0>).  The
coupling coefficients are the standard real ones with the minus sign on the
(shrink, qubit |0>) branch.  Any fixed real convention shared by the two
parties gives identical fidelities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import product
from typing import NamedTuple

import numpy as np

from .elias import as_bit
from .extractor import von_neumann, walk_all
from .young import q_run

KNOWN_BASIS_CAP = 16
UNIVERSAL_CAP = 6
SCHUR_CAP = 10
# Bound of the per-size caches below: one entry per n (two for
# schur_transform, whose key also records how cap was passed), so 32
# entries hold every size up to the largest cap, 16.
CACHE_SIZE = 32

NORM_TOL = 1e-12


class UndefinedPairError(ValueError):
    """The requested output pair has zero probability of existing."""


class SimulatorCapError(ValueError):
    """Requested size exceeds the simulator's dimension cap."""


class PartyLabel(NamedTuple):
    t: int
    u: int | None
    l: int
    tape: str
    purity: int


class VNLabel(NamedTuple):
    """Pairwise-unbiasing register content: tape plus retained residue bits."""

    tape: str
    kept: str
    purity: int


@dataclass
class JointState:
    """Sparse amplitude map over (Alice label, Bob label) pairs."""

    n: int
    amps: dict
    meta: dict = field(default_factory=dict)

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amps.values()))

    def validate(self) -> "JointState":
        nrm = self.norm_sq()
        if abs(nrm - 1.0) > NORM_TOL:
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


@lru_cache(maxsize=CACHE_SIZE)
def schur_transform(n: int, cap: int = SCHUR_CAP) -> PartyIsometry:
    """The full n-qubit change of basis into (t, u, path) labels."""
    if n > cap:
        raise SimulatorCapError(f"n={n} exceeds cap={cap}")
    if n < 0:
        raise ValueError("n must be >= 0")
    index: dict[SchurLabel, int] = {}
    entries = []
    for s in range(1 << n):
        for t, u, path, amp in _cg_branches(n, s):
            label = SchurLabel(t, u, path)
            col = index.setdefault(label, len(index))
            entries.append((s, col, amp))
    matrix = np.zeros((1 << n, len(index)), dtype=float)
    for s, col, amp in entries:
        matrix[s, col] += amp
    return PartyIsometry(n, tuple(index), matrix)


@lru_cache(maxsize=CACHE_SIZE)
def _classical_transcripts(n: int) -> tuple[PartyLabel, ...]:
    """Register labels of the reference walk on every n-bit string, in
    ascending string order; label.t is the string's Hamming weight.

    The purity tape holds n - l clean bits by conservation; walk_all() checks
    l <= n at every node, so the tape never pops a bit it never banked.
    """
    return tuple(
        PartyLabel(final.t, None, final.l, "".join(map(str, output)), n - final.l)
        for final, output in walk_all(n)
    )


def simulate_known_basis(p: float, n: int) -> JointState:
    """Coherent run of the classical machine on sqrt(p)|00> + sqrt(1-p)|11>.

    Both parties' transcripts are identical branch by branch, so the joint
    state has one diagonal term per classical string.
    """
    if n > KNOWN_BASIS_CAP:
        raise SimulatorCapError(f"n={n} exceeds cap={KNOWN_BASIS_CAP}")
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    amps: dict = {}
    for label in _classical_transcripts(n):
        amp = math.sqrt(p ** (n - label.t) * (1 - p) ** label.t)
        if amp:
            amps[(label, label)] = amps.get((label, label), 0.0) + amp
    state = JointState(n, amps, meta={"mode": "known", "p": p, "seeded": 0})
    return state.validate()


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
        labels.append(PartyLabel(t, u, final.l, "".join(map(str, tape)), n - final.l))
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
    if n > UNIVERSAL_CAP:
        raise SimulatorCapError(f"n={n} exceeds cap={UNIVERSAL_CAP}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if psi is None:
        if p is None:
            raise ValueError("pass either p (with theta) or psi")
        psi = two_qubit_source(p, theta)
    psi = np.asarray(psi)
    if psi.shape != (2, 2):
        raise ValueError("psi must be a 2x2 coefficient matrix")
    nrm = float(np.sum(np.abs(psi) ** 2))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("psi is not normalized")
    labels, matrix = _universal_isometry(n)
    coeff = reduce(np.kron, [psi] * n)
    joint = matrix.T @ coeff @ matrix
    amps: dict = {}
    for ia, ib in zip(*np.nonzero(np.abs(joint) > 1e-14)):
        amps[(labels[ia], labels[ib])] = complex(joint[ia, ib])
    state = JointState(
        n, amps, meta={"mode": "universal", "p": p, "theta": theta, "seeded": 0}
    )
    return state.validate()


def emission_probability(state: JointState, k: int) -> float:
    """Probability that both output tapes hold at least k qubits."""
    if k < 1:
        raise ValueError("pair index is 1-based")
    return float(
        sum(
            abs(a) ** 2
            for (la, lb), a in state.amps.items()
            if len(la.tape) >= k and len(lb.tape) >= k
        )
    )


def _dense_ids(keys) -> np.ndarray:
    """Number hashable keys 0, 1, ... in order of first appearance."""
    ids: dict = {}
    return np.array([ids.setdefault(key, len(ids)) for key in keys], dtype=int)


def _pair_amplitudes(state: JointState, k: int, registers: tuple[str, ...] = ()) -> np.ndarray:
    """Amplitudes of the branches holding pair k as one dense array of shape
    (pair bits |a b> = 2a + b at tape slot k, register, environment).  The
    register axis runs over the joint values of the named label fields, the
    environment axis over the rest of both labels, the tape minus slot k.
    """
    if k < 1:
        raise ValueError("pair index is 1-based")
    held = [
        (la, lb, amp)
        for (la, lb), amp in state.amps.items()
        if len(la.tape) >= k and len(lb.tape) >= k
    ]
    if not held:
        raise UndefinedPairError(f"pair {k} never exists in this state")
    alice, bob, amps = zip(*held)
    pair = np.zeros(len(amps), dtype=int)
    reg_columns, env_columns = [], []  # one column per label field, Alice's then Bob's
    for weight, labels in ((2, alice), (1, bob)):
        columns = dict(zip(labels[0]._fields, zip(*labels, strict=True)))
        tapes = columns.pop("tape")
        pair += weight * np.array([tape[k - 1] == "1" for tape in tapes])
        reg_columns += [columns.pop(name) for name in registers]
        env_columns += [[tape[: k - 1] + tape[k:] for tape in tapes], *columns.values()]
    reg = _dense_ids(zip(*reg_columns)) if registers else np.zeros_like(pair)
    env = _dense_ids(zip(*env_columns))
    psi = np.zeros((4, reg.max() + 1, env.max() + 1), dtype=complex)
    # (pair bits, register, environment) rebuilds both labels: one cell per row
    psi[pair, reg, env] = amps
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


def tape_length_distribution(state: JointState) -> dict[int, float]:
    """Probability of each output-tape length (Alice side)."""
    dist: dict[int, float] = {}
    for (la, _), amp in state.amps.items():
        dist[len(la.tape)] = dist.get(len(la.tape), 0.0) + abs(amp) ** 2
    return dict(sorted(dist.items()))


def register_distribution(state: JointState, name: str) -> dict:
    """Probability of each value of a named Alice register (t, u, or l)."""
    dist: dict = {}
    for (la, _), amp in state.amps.items():
        key = getattr(la, name)
        dist[key] = dist.get(key, 0.0) + abs(amp) ** 2
    return dict(sorted(dist.items(), key=lambda kv: (kv[0] is None, kv[0])))


def distribution_entropy(dist: dict) -> float:
    return -sum(p * math.log2(p) for p in dist.values() if p > 0)


def certain_pairs(state: JointState, tol: float = 1e-12) -> int:
    """Number of leading tape slots occupied with probability 1.

    Slots past this point exist only in superposition of tape lengths
    (the incubation region) and should not yet be consumed.
    """
    lengths = tape_length_distribution(state)
    return min(l for l, pr in lengths.items() if pr > tol)


# -- fixed small scenarios -------------------------------------------------


_HUFFMAN_AMPS = (1 / math.sqrt(2), 0.5, 1 / math.sqrt(8), 1 / math.sqrt(8))
_HUFFMAN_CODES = ("000", "100", "110", "111")  # prefix code, zero-padded


def huffman_output_state() -> JointState:
    """Both parties Huffman-encode one draw of the four-symbol source.

    The source has dyadic weights (1/2, 1/4, 1/8, 1/8); each symbol's
    codeword is written to a 3-qubit zero-padded register per party.
    """
    amps = {}
    for amp, code in zip(_HUFFMAN_AMPS, _HUFFMAN_CODES):
        label = PartyLabel(0, None, 3, code, 0)
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
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if pairs < 0:
        raise ValueError("pairs must be >= 0")
    amps: dict = {}
    n = 2 * pairs
    for bits in map("".join, product("01", repeat=n)):
        t = bits.count("1")
        amp = math.sqrt(p ** (n - t) * (1 - p) ** t)
        if not amp:
            continue
        tape = "".join(map(str, von_neumann(bits)))
        kept = "".join("-" if b1 != b2 else b1 for b1, b2 in zip(bits[::2], bits[1::2]))
        label = VNLabel(tape, kept, pairs)
        key = (label, label)
        amps[key] = amps.get(key, 0.0) + amp
    return JointState(n, amps, meta={"mode": "vonneumann", "p": p, "seeded": 0}).validate()


def nonhalting_amplitude(state: JointState) -> float:
    """Amplitude of the branch family that has emitted nothing."""
    return math.sqrt(tape_length_distribution(state).get(0, 0.0))
