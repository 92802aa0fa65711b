import cmath
import functools
import gc
import math
from itertools import product
from typing import NamedTuple

import numpy as np
import pytest
from oracles import (
    collective_rotation,
    naive_pair_amplitudes,
    pair_marginal,
    pair_memory_product_gap,
    read_labels,
    reduced_pair,
    tape_text,
    two_qubit_source,
)

from eliastream import schursim
from eliastream.extractor import as_count, pack_code, run, walk_tree
from eliastream.schursim import (
    JointState,
    TAPE_BITS_MAX,
    UNIVERSAL_CAP,
    VON_NEUMANN_CAP,
    PartyLabel,
    SimulatorCapError,
    Tape,
    UndefinedPairError,
    certain_pairs,
    cg_step,
    distribution_entropy,
    emission_probability,
    huffman_counterexample,
    huffman_output_state,
    nonhalting_amplitude,
    pair_fidelity,
    register_distribution,
    schur_transform,
    simulate_known_basis,
    simulate_universal,
    simulate_von_neumann,
    tape_length_distribution,
)
from eliastream.young import dim, q_run

PHI_PLUS = np.array([1, 0, 0, 1]) / math.sqrt(2)


def text_label(tape, t=0, purity=0):
    """A hand-made label whose tape is given as 0/1 text."""
    return PartyLabel(t, None, len(tape), int(tape, 2) if tape else 0, purity)


def rotation(phi, axis):
    if axis == "y":
        c, s = math.cos(phi / 2), math.sin(phi / 2)
        return np.array([[c, -s], [s, c]])
    phase = cmath.exp(-1j * phi / 2)
    return np.array([[phase, 0], [0, phase.conjugate()]])


def schur_weight(n, t, p):
    """Independent oracle for the diagram-label distribution of a product
    input: irrep dimension times the two-variable complete homogeneous sum."""
    q = 1 - p
    h = sum(p**i * q ** (n - 2 * t - i) for i in range(n - 2 * t + 1))
    return dim(n, t) * (p * q) ** t * h


# -- coupling step ----------------------------------------------------------


def test_cg_step_first_qubit_is_trivial():
    assert cg_step(0, 0, 0, 0) == [(0, 0, 0, 1.0)]
    assert cg_step(0, 0, 0, 1) == [(0, 1, 0, 1.0)]


def test_cg_step_two_qubit_branching():
    # second qubit onto |0>: |01> splits evenly into grow/shrink branches
    branches = cg_step(1, 0, 0, 1)
    assert [(t, u, pbit) for t, u, pbit, _ in branches] == [(0, 1, 0), (1, 0, 1)]
    amps = [a for *_, a in branches]
    assert amps == pytest.approx([1 / math.sqrt(2), 1 / math.sqrt(2)])
    # |10>: same branches, opposite sign on the shrink branch
    branches = cg_step(1, 0, 1, 0)
    amps = {(t, u, pbit): a for t, u, pbit, a in branches}
    assert amps[(0, 1, 0)] == pytest.approx(1 / math.sqrt(2))
    assert amps[(1, 0, 1)] == pytest.approx(-1 / math.sqrt(2))


def test_cg_step_unit_norm_for_every_input():
    for n in range(9):
        for t in range(n // 2 + 1):
            d = n - 2 * t + 1
            for u in range(d):
                for qubit in (0, 1):
                    branches = cg_step(n, t, u, qubit)
                    assert sum(a * a for *_, a in branches) == pytest.approx(1.0, abs=1e-12)


def test_cg_step_rejects_bad_registers():
    with pytest.raises(ValueError):
        cg_step(2, 0, 3, 0)
    with pytest.raises(ValueError):
        cg_step(2, 2, 0, 0)


# -- full transform ---------------------------------------------------------


def test_schur_transform_single_qubit_is_relabeling():
    iso = schur_transform(1)
    assert iso.matrix == ((1.0, 0.0), (0.0, 1.0))  # plain-float rows
    assert [u for _, u, _ in iso.labels] == [0, 1]


def test_schur_transform_two_qubits_singlet_triplet():
    iso = schur_transform(2)
    index = {label: i for i, label in enumerate(iso.labels)}
    triplet_mid = index[(0, 1, (0, 0))]
    singlet = index[(1, 0, (0, 1))]
    v01, v10 = iso.matrix[0b01], iso.matrix[0b10]
    root_half = 1 / math.sqrt(2)
    assert v01[triplet_mid] == pytest.approx(root_half)
    assert v01[singlet] == pytest.approx(root_half)
    assert v10[triplet_mid] == pytest.approx(root_half)
    assert v10[singlet] == pytest.approx(-root_half)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_schur_transform_is_orthogonal(n):
    matrix = np.asarray(schur_transform(n).matrix)
    gram = matrix @ matrix.T
    assert np.max(np.abs(gram - np.eye(1 << n))) < 1e-12
    assert np.max(np.abs(matrix.T @ matrix - np.eye(1 << n))) < 1e-12


def test_schur_transform_cap():
    with pytest.raises(SimulatorCapError):
        schur_transform(11)


def test_schur_transform_rejects_negative_n():
    with pytest.raises(ValueError, match="n must be >= 0"):
        schur_transform(-1)


@pytest.mark.parametrize("n,p", [(3, 0.3), (4, 0.5), (5, 0.2)])
def test_path_register_maximally_mixed_within_each_diagram(n, p):
    # product-state inputs spread uniformly over paths of a fixed diagram
    iso = schur_transform(n)
    probs = np.array([p, 1 - p])
    by_t: dict = {}
    for s in range(1 << n):
        weight = bin(s).count("1")
        pr = probs[1] ** weight * probs[0] ** (n - weight)
        for col, amp in enumerate(iso.matrix[s]):
            if abs(amp) < 1e-15:
                continue
            t, _, path = iso.labels[col]
            by_t.setdefault(t, {})
            by_t[t][path] = by_t[t].get(path, 0.0) + pr * amp * amp
    for t, path_weights in by_t.items():
        assert len(path_weights) == dim(n, t)
        values = list(path_weights.values())
        assert max(values) - min(values) < 1e-12


# -- known-basis simulation ---------------------------------------------------


def test_known_basis_two_qubit_structure():
    state = simulate_known_basis(0.5, 2)
    by_len = tape_length_distribution(state)
    assert by_len == pytest.approx({0: 0.5, 1: 0.5})
    rho, prob = reduced_pair(state, 1)
    assert prob == pytest.approx(0.5)
    assert np.allclose(rho, np.outer(PHI_PLUS, PHI_PLUS), atol=1e-12)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_known_basis_first_pair_is_perfect_for_all_biases(p):
    state = simulate_known_basis(p, 2)
    assert pair_fidelity(state, 1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("n", [4, 7, 10])
def test_known_basis_pairs_perfect_and_uncorrelated(n, p):
    state = simulate_known_basis(p, n)
    max_len = max(la.l for (la, _) in state.amps)
    assert max_len >= 1
    for k in range(1, max_len + 1):
        if emission_probability(state, k) == 0:
            continue
        assert abs(pair_fidelity(state, k) - 1) < 1e-10
        marginal = pair_marginal(state, k, party=0)
        assert np.max(np.abs(marginal - np.eye(2) / 2)) < 1e-10
        marginal = pair_marginal(state, k, party=1)
        assert np.max(np.abs(marginal - np.eye(2) / 2)) < 1e-10
        assert pair_memory_product_gap(state, k) < 1e-10


def test_known_basis_norm_and_seed_ledger():
    state = simulate_known_basis(0.35, 12)
    assert abs(state.norm_sq() - 1) < 1e-12
    assert state.meta["seeded"] == 0
    for (la, lb) in state.amps:
        assert la == lb
        assert la.l + la.purity == 12


def test_known_basis_cap():
    with pytest.raises(SimulatorCapError):
        simulate_known_basis(0.5, 17)


@pytest.mark.parametrize("k", [0, -3])
def test_emission_probability_rejects_a_pair_index_below_one(k):
    state = simulate_known_basis(0.3, 4)
    with pytest.raises(ValueError, match="pair index must be >= 1"):
        emission_probability(state, k)


# -- universal simulation -----------------------------------------------------


def test_two_qubit_source_parametrization():
    psi = two_qubit_source(0.3, 0.0)
    assert np.allclose(psi, np.diag([math.sqrt(0.3), math.sqrt(0.7)]))
    plus_minus = two_qubit_source(0.3, math.pi / 4)
    e0 = np.array([1, 1]) / math.sqrt(2)
    e1 = np.array([-1, 1]) / math.sqrt(2)
    expected = math.sqrt(0.3) * np.outer(e0, e0) + math.sqrt(0.7) * np.outer(e1, e1)
    assert np.allclose(plus_minus, expected)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [0.3, 0.6])
def test_universal_diagram_marginal_matches_schur_weights(n, p):
    state = simulate_universal(n, p=p, theta=0.0)
    marginal = register_distribution(state, "t")
    for t in range(n // 2 + 1):
        assert marginal.get(t, 0.0) == pytest.approx(schur_weight(n, t, p), abs=1e-12)


def test_universal_registers_agree_between_parties():
    state = simulate_universal(5, p=0.4, theta=0.9)
    for (la, lb), amp in state.amps.items():
        if abs(amp) > 1e-12:
            assert la.t == lb.t
            assert la.l == lb.l
            assert la.purity == lb.purity


@pytest.mark.parametrize("theta", [0.3, 0.7, 1.1])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_universal_pairs_perfect_for_rotated_bases(n, theta):
    state = simulate_universal(n, p=0.3, theta=theta)
    max_len = max(la.l for (la, _) in state.amps)
    emitted_any = False
    for k in range(1, max_len + 1):
        if emission_probability(state, k) == 0:
            continue
        emitted_any = True
        assert abs(pair_fidelity(state, k) - 1) < 1e-9
    assert emitted_any


def test_universal_single_pair_emits_nothing():
    state = simulate_universal(1, p=0.5, theta=1.1)
    assert tape_length_distribution(state) == {0: pytest.approx(1.0)}
    with pytest.raises(UndefinedPairError):
        pair_fidelity(state, 1)


def test_universal_collective_rotation_leaves_fidelities_unchanged():
    psi = two_qubit_source(0.3, 0.7)
    base = simulate_universal(4, psi=psi)
    rotations = [
        rotation(0.4, "y"),
        rotation(1.3, "z"),
        rotation(0.8, "z") @ rotation(0.5, "y"),
    ]
    for unitary in rotations:
        rotated = simulate_universal(4, psi=collective_rotation(psi, unitary))
        for k in (1, 2):
            if emission_probability(base, k) == 0:
                continue
            assert abs(pair_fidelity(base, k) - pair_fidelity(rotated, k)) < 1e-9
        base_t = register_distribution(base, "t")
        rot_t = register_distribution(rotated, "t")
        for t in base_t:
            assert base_t[t] == pytest.approx(rot_t.get(t, 0.0), abs=1e-9)


def test_universal_computational_basis_registers_track_lattice_walk():
    # theta = 0 keeps the joint support on equal diagram labels with the
    # tape determined by the walk; tape lengths here are 0 or the node's l
    state = simulate_universal(4, p=0.3, theta=0.0)
    for (la, lb), amp in state.amps.items():
        if abs(amp) > 1e-12:
            assert la.t == lb.t and la.l == lb.l
            assert len(la.tape) == la.l and 0 <= la.tape < 1 << la.l
            assert la.purity == 4 - la.l


def test_universal_input_validation():
    with pytest.raises(SimulatorCapError):
        simulate_universal(UNIVERSAL_CAP + 1, p=0.5)
    with pytest.raises(ValueError):
        simulate_universal(3)
    with pytest.raises(ValueError):
        simulate_universal(3, psi=np.eye(2))  # unnormalized
    with pytest.raises(ValueError, match="not normalized"):
        simulate_universal(3, psi=np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="not normalized"):
        simulate_universal(3, p=0.3, theta=math.nan)


def dense_universal_amps(n, psi):
    """V^T (psi tensor-power) V over the walk's labels, V the dense coupling
    transform: the naive oracle of the streaming simulator."""
    iso = schur_transform(n)
    labels = []
    for t, u, path in iso.labels:
        tape, final = q_run(path)
        assert final.t == t
        labels.append(PartyLabel(t, u, final.l, Tape(pack_code(tape), final.l), n - final.l))
    assert len(set(labels)) == len(labels)
    matrix = np.asarray(iso.matrix)
    joint = matrix.T @ functools.reduce(np.kron, [psi] * n) @ matrix
    return {(labels[a], labels[b]): joint[a, b] for a, b in zip(*np.nonzero(np.abs(joint) > 1e-14))}


PHASES = np.diag([cmath.exp(-0.55j), cmath.exp(0.55j)])  # c08's complex collective rotation


@pytest.mark.parametrize("n,grid", [(n, list(product((0, 1e-3, 0.3, 1), (0.0, 0.7, 2.9))))
                                    for n in range(1, 7)] + [(8, [(0.3, 1.1)])])
def test_universal_simulator_equals_the_dense_oracle(n, grid):
    for p, theta in grid:
        source = two_qubit_source(p, theta)
        for psi in (source, collective_rotation(source, PHASES)):
            dense = dense_universal_amps(n, psi)
            amps = simulate_universal(n, psi=psi).amps
            assert amps.keys() == dense.keys(), (p, theta)
            assert max(abs(amps[key] - dense[key]) for key in dense) <= 1e-12, (p, theta)


def test_merged_tapes_fail_the_collision_check(monkeypatch):
    coded_move = schursim.coded_move
    # the memoised lattice move, with the values of the emitted bits lost
    monkeypatch.setattr(schursim, "coded_move",
                        lambda node, b, lattice: (*coded_move(node, b, lattice)[:2], 0))
    with pytest.raises(AssertionError, match="universal register labels collide"):
        simulate_universal(3, p=0.3, theta=0.7)


def test_a_walk_that_leaves_the_coupling_label_fails(monkeypatch):
    coded_move = schursim.coded_move

    def off_by_one(node, b, lattice):
        after, width, code = coded_move(node, b, lattice)
        return after._replace(t=after.t + 1), width, code

    monkeypatch.setattr(schursim, "coded_move", off_by_one)
    with pytest.raises(AssertionError, match="walk endpoint disagrees with coupling label"):
        simulate_universal(2, p=0.3, theta=0.7)


def test_validate_rejects_a_nan_amplitude():
    label = text_label("0")
    with pytest.raises(AssertionError, match="nan"):
        JointState(1, {(label, label): math.nan}).validate()


# -- reduced-pair machinery ---------------------------------------------------


def test_pair_fidelity_of_perfect_pair_branch():
    label0 = text_label("0")
    label1 = text_label("1")
    amps = {
        (label0, label0): 1 / math.sqrt(2),
        (label1, label1): 1 / math.sqrt(2),
    }
    state = JointState(1, amps)
    assert pair_fidelity(state, 1) == pytest.approx(1.0)


def test_pair_fidelity_of_product_branch():
    label = text_label("0")
    state = JointState(1, {(label, label): 1.0})
    assert pair_fidelity(state, 1) == pytest.approx(0.5)


def test_reduced_pair_requires_support():
    label = text_label("", purity=1)
    state = JointState(1, {(label, label): 1.0})
    with pytest.raises(UndefinedPairError):
        reduced_pair(state, 1)
    with pytest.raises(ValueError):
        reduced_pair(state, 0)


def test_known_basis_transcripts_equal_per_string_runs():
    for n in range(11):
        expected = []
        for s in range(1 << n):
            result = run([(s >> (n - 1 - k)) & 1 for k in range(n)])
            final = result.final
            tape = "".join(map(str, result.output))
            expected.append((final.t, None, final.l, tape, n - final.l))
        amps = simulate_known_basis(0.5, n).amps
        assert all(la is lb for la, lb in amps)
        assert [(*la[:3], tape_text(la), la.purity) for la, _ in amps] == expected


def test_simulator_tapes_know_their_length():
    states = [simulate_known_basis(0.3, 6), simulate_universal(4, p=0.3, theta=0.5),
              simulate_von_neumann(0.3, 3), huffman_output_state()]
    for state in states:
        for la, lb in state.amps:
            for label in (la, lb):
                assert isinstance(label.tape, Tape) and len(label.tape) == label.l
    assert Tape(0b011, 3) == 3 and len(Tape(0b011, 3)) == 3 and len(Tape(0, 0)) == 0


def test_known_basis_rejects_negative_n():
    with pytest.raises(ValueError, match="n must be >= 0"):
        simulate_known_basis(0.3, -1)


@pytest.mark.parametrize("party", [2, -1])
def test_pair_marginal_rejects_unknown_party(party):
    state = simulate_known_basis(0.3, 4)
    with pytest.raises(ValueError):
        pair_marginal(state, 1, party)


def brute_force_reduced_pair(state, k):
    """Partial trace by definition: two branches add coherently into the
    pair's density matrix exactly when everything but slot k agrees."""

    def rest(label):
        tape = tape_text(label)
        return tuple(
            tape[: k - 1] + tape[k:] if name == "tape" else value
            for name, value in zip(label._fields, label)
        )

    held = [
        (2 * int(tape_text(la)[k - 1]) + int(tape_text(lb)[k - 1]), (rest(la), rest(lb)), amp)
        for (la, lb), amp in state.amps.items()
        if la.l >= k and lb.l >= k
    ]
    rho = np.zeros((4, 4), dtype=complex)
    for i, env_i, amp_i in held:
        for j, env_j, amp_j in held:
            if env_i == env_j:
                rho[i, j] += amp_i * np.conj(amp_j)
    prob = sum(abs(amp) ** 2 for _, _, amp in held)
    return rho / prob, prob


@pytest.mark.parametrize("n,p,theta", [(4, 0.3, 0.7), (5, 0.9, 2.5)])
def test_reduced_pair_equals_brute_force_partial_trace_on_universal_states(n, p, theta):
    state = simulate_universal(n, p=p, theta=theta)
    assert any(la != lb for la, lb in state.amps)
    max_len = max(la.l for (la, _) in state.amps)
    for k in range(1, max_len + 1):
        expected, expected_prob = brute_force_reduced_pair(state, k)
        rho, prob = reduced_pair(state, k)
        assert prob == pytest.approx(expected_prob, abs=1e-12)
        assert np.max(np.abs(rho - expected)) < 1e-12


def test_reduced_pair_puts_alice_first():
    alice = text_label("0")
    bob = text_label("1", t=1)
    state = JointState(1, {(alice, bob): 1.0})
    rho, prob = reduced_pair(state, 1)
    assert prob == 1.0
    assert np.array_equal(rho, np.diag([0, 1, 0, 0]))  # |a b> = |0 1>
    assert np.array_equal(pair_marginal(state, 1, party=0), np.diag([1, 0]))
    assert np.array_equal(pair_marginal(state, 1, party=1), np.diag([0, 1]))


def test_memory_gap_detects_a_pair_entangled_with_its_register():
    # pair bit 0 sits at t = 0 and pair bit 1 at t = 1, on both sides:
    # (|00>|t=0,0> + |11>|t=1,1>)/sqrt2, so the pair is tied to the lattice
    # position; a tracing-out environment that tells the branches apart
    # (purity) leaves the classical mixture instead
    amp = 1 / math.sqrt(2)
    zero = text_label("0")
    one = text_label("1", t=1)
    coherent = JointState(1, {(zero, zero): amp, (one, one): amp}).validate()
    # within span{|00,r0>, |11,r1>} rho - rho_pair x rho_reg has eigenvalues
    # 3/4 and -1/4; the two other product states carry -1/4 each
    assert pair_memory_product_gap(coherent, 1) == pytest.approx(0.75, abs=1e-12)
    marked = one._replace(purity=1)
    mixed = JointState(1, {(zero, zero): amp, (marked, marked): amp}).validate()
    assert pair_memory_product_gap(mixed, 1) == pytest.approx(0.5, abs=1e-12)
    # same pair, one register value: a product, so no gap
    flat = one._replace(t=0)
    product = JointState(1, {(zero, zero): amp, (flat, flat): amp}).validate()
    assert pair_memory_product_gap(product, 1) < 1e-12


def hand_built_states():
    """The small hand-made states of this file: perfect pair (also the
    gap-free product case), product pair, Alice-first, and the coherent and
    marked register-gap cases."""
    amp = 1 / math.sqrt(2)
    zero, one = text_label("0"), text_label("1", t=1)
    flat, marked = one._replace(t=0), one._replace(purity=1)
    return [
        JointState(1, {(zero, zero): amp, (flat, flat): amp}),
        JointState(1, {(zero, zero): 1.0}),
        JointState(1, {(zero, one): 1.0}),
        JointState(1, {(zero, zero): amp, (one, one): amp}),
        JointState(1, {(zero, zero): amp, (marked, marked): amp}),
    ]


def long_tape_state(rows=48, seed=5):
    """Off-diagonal state with complex amplitudes, 40-60 qubit tapes and
    registers drawn independently of them; its environment keys pass
    through the table's renumbering."""
    rng = np.random.default_rng(seed)

    def label():
        tape = "".join(map(str, rng.integers(0, 2, int(rng.integers(40, 61)))))
        t = int(rng.integers(0, 3))
        return text_label(tape, t=t, purity=t)

    amps = {(label(), label()): complex(*rng.normal(size=2)) for _ in range(rows)}
    return JointState(1, amps)


def key_edge_states():
    """Hand-made states on the edges of the table's key arithmetic: two tape
    rests with one code at two lengths, and 61-qubit tapes whose environment
    key overflows int64 unless the table renumbers it."""
    amp = 1 / math.sqrt(2)
    short, longer = text_label("01"), text_label("101")
    # Alice's rests differ by 2^59 only; times Bob's spans (62, then 2^60)
    # that difference wraps to 0 in int64
    low, high = text_label("0" * 61), text_label("01" + "0" * 59)
    bob = text_label("1" * 61)
    return [
        JointState(1, {(short, short): amp, (longer, longer): amp}),
        JointState(1, {(low, bob): amp, (high, bob): amp}),
    ]


def naive_distribution(state, key):
    """Weight of each key(Alice label), added one row at a time in map
    order: the dict-loop oracle for the distributions."""
    dist = {}
    for (la, _), a in state.amps.items():
        dist[key(la)] = dist.get(key(la), 0.0) + abs(a) ** 2
    return dist


def naive_emission_probability(state, k):
    """Weight of the rows whose tapes both hold slot k, summed per k in map
    order: the oracle of the one-pass emission probability."""
    return float(sum(abs(a) ** 2 for (la, lb), a in state.amps.items() if la.l >= k and lb.l >= k))


def gather_fidelity(state, labels, k):
    """The fidelity read from the naive gather of `labels`, the state's
    ``read_labels``, environments in id order: the oracle of the one-pass
    fidelity, adding in the same order.  An environment holds at most one
    row per pair-bit value, so each overlap is a sum of two terms, the same
    in either order."""
    psi = naive_pair_amplitudes(labels, k)[:, 0]
    overlaps = (complex(a) + complex(b) for a, b in zip(psi[0], psi[3]))
    return sum(abs(c) ** 2 for c in overlaps) / (2 * naive_emission_probability(state, k))


def lopsided_states():
    """Hand-made states whose parties hold tapes of different lengths, so a
    slot is held by one party only (probability zero) or no pair is held at
    all (last), and two whose environments are shared by rows with equal and
    with unequal pair bits, met in either order, with complex amplitudes.
    Their seeds make the fidelity's sum over environments differ in its last
    digit when the environments are taken in any other order than first
    appearance."""
    amp = 1 / math.sqrt(2)

    def mixed(seed):
        rng = np.random.default_rng(seed)

        def label():
            tape = "".join(map(str, rng.integers(0, 2, int(rng.integers(1, 4)))))
            return text_label(tape, t=int(rng.integers(0, 3)))

        return JointState(1, {(label(), label()): complex(*rng.normal(size=2)) for _ in range(60)})

    return [
        JointState(1, {(text_label("01"), text_label("1")): amp,
                       (text_label("1"), text_label("10", t=1)): amp}),
        mixed(8),
        mixed(9),
        JointState(1, {(text_label("011"), text_label("")): 1.0}),
    ]


def assert_gathers_equal_naive(state):
    """Every pair up to one past the longest tape: the emission probability
    and fidelity equal their oracles exactly, and a pair no row holds has no
    fidelity; every distribution of an Alice label field but the tape equals
    its per-row sum.  Returns whether some row holds a pair."""
    held_any, labels = False, read_labels(state)
    for k in range(1, max(max(la.l, lb.l) for la, lb in state.amps) + 2):
        assert emission_probability(state, k) == naive_emission_probability(state, k), k
        if not any(la.l >= k and lb.l >= k for la, lb in state.amps):
            with pytest.raises(UndefinedPairError, match=f"^pair {k} never exists in this state$"):
                pair_fidelity(state, k)
            continue
        held_any = True
        assert pair_fidelity(state, k) == gather_fidelity(state, labels, k), k
    assert tape_length_distribution(state) == naive_distribution(state, lambda la: la.l)
    # t, u, l and purity of a PartyLabel; l, kept and purity of a VNLabel
    for name in next(iter(state.amps))[0]._fields:
        if name != "tape":
            expected = naive_distribution(state, lambda la: getattr(la, name))
            dist = register_distribution(state, name)
            assert dist == expected and list(dist) == sorted(expected, key=lambda v: (v is None, v)), name
    return held_any


@pytest.mark.parametrize("n", range(1, 13))
def test_table_gather_equals_naive_gather_on_known_states(n):
    for p in [k / 10 for k in range(1, 10)]:  # the acceptance suite's P_GRID
        assert_gathers_equal_naive(simulate_known_basis(p, n))


@pytest.mark.parametrize("p,theta", [(0.3, 1.1), (0.7, 0.3), (0.5, 0.7)])
@pytest.mark.parametrize("n", range(1, 7))
def test_table_gather_equals_naive_gather_on_universal_states(n, p, theta):
    state = simulate_universal(n, p=p, theta=theta)
    assert_gathers_equal_naive(state)


def test_table_gather_equals_naive_gather_on_fixed_and_hand_built_states():
    for pairs in range(7):
        assert assert_gathers_equal_naive(simulate_von_neumann(0.3, pairs)) == (pairs > 0)
    assert assert_gathers_equal_naive(huffman_output_state())
    *lopsided, nothing_held = lopsided_states()
    for state in [*hand_built_states(), long_tape_state(), *key_edge_states(), *lopsided]:
        assert assert_gathers_equal_naive(state)
    assert not assert_gathers_equal_naive(nothing_held)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_table_gather_equals_naive_gather_on_a_complex_source(n):
    # the acceptance suite's covariance source: both collective rotations, complex psi
    psi = collective_rotation(two_qubit_source(0.3, 1.1), rotation(1.1, "z") @ rotation(0.9, "y"))
    state = simulate_universal(n, psi=psi)
    assert any(isinstance(a, complex) and a.imag for a in state.amps.values())
    assert_gathers_equal_naive(state)


def assert_fidelity_equals_dense_oracle(state):
    """The pure-Python fidelity of every emitted pair against <Phi+|rho|Phi+>
    of the brute-force partial trace.  The emission probabilities and the
    tape-length distribution of these states are checked against per-row sums
    in map order by ``assert_gathers_equal_naive``."""
    for k in range(1, max(la.l for (la, _) in state.amps) + 1):
        if emission_probability(state, k) > 0:
            rho, _ = brute_force_reduced_pair(state, k)
            assert abs(pair_fidelity(state, k) - (PHI_PLUS @ rho @ PHI_PLUS).real) <= 1e-12, k


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_fidelity_equals_the_dense_oracle_on_known_states(n):
    for p in [k / 10 for k in range(1, 10)]:
        assert_fidelity_equals_dense_oracle(simulate_known_basis(p, n))


@pytest.mark.parametrize("p,theta", [(0.3, 1.1), (0.7, 0.3), (0.5, 0.7)])
@pytest.mark.parametrize("n", range(1, 7))
def test_pair_fidelity_equals_the_dense_oracle_on_universal_states(n, p, theta):
    assert_fidelity_equals_dense_oracle(simulate_universal(n, p=p, theta=theta))


def test_pair_fidelity_equals_the_dense_oracle_on_fixed_and_hand_built_states():
    for pairs in range(1, 5):
        assert_fidelity_equals_dense_oracle(simulate_von_neumann(0.3, pairs))
    for state in [huffman_output_state(), *hand_built_states()]:
        assert_fidelity_equals_dense_oracle(state)


@pytest.mark.parametrize("k", [0, -1, 1.0, 1.5, "1", None])
def test_report_statistics_reject_the_pair_indices_the_gather_rejects(k):
    state = simulate_universal(4, p=0.3, theta=0.7)
    with pytest.raises(ValueError) as expected:
        as_count(k, "pair index", lo=1)
    for statistic in (emission_probability, pair_fidelity):
        with pytest.raises(ValueError) as caught:
            statistic(state, k)
        assert str(caught.value) == str(expected.value)
    assert not state.table.pairs


def test_report_statistics_gather_nothing():
    # both statistics of pair k share one pass, memoised per k: no cells kept
    state = simulate_universal(5, p=0.3, theta=0.7)
    longest = max(la.l for la, _ in state.amps)
    for k in range(1, longest + 1):
        if emission_probability(state, k) > 0:
            pair_fidelity(state, k)
    assert list(state.table.pairs) == list(range(1, longest + 1))
    assert all(len(stats) == 2 for stats in state.table.pairs.values())


def test_joint_state_amplitudes_are_read_only():
    label = text_label("0")
    amps = {(label, label): 1.0}
    state = JointState(1, amps)
    with pytest.raises(TypeError):
        state.amps[(label, label)] = 0.5
    with pytest.raises(AttributeError):
        state.amps = {}
    amps[(label, label)] = 0.5  # the state keeps its own copy
    assert state.amps == {(label, label): 1.0}
    assert pair_fidelity(state, 1) == pytest.approx(0.5)


def test_joint_states_compare_by_their_fields_and_stay_frozen():
    label = text_label("0")
    state = JointState(1, {(label, label): 1.0})
    assert state.meta == {} and state.meta is not JointState(1, state.amps).meta
    assert state == JointState(1, dict(state.amps), {})
    assert state != JointState(2, state.amps) and state != JointState(1, state.amps, {"p": 0.5})
    assert repr(state) == f"JointState(n=1, amps={state.amps!r}, meta={{}})"
    assert state.table is state.table
    with pytest.raises(AttributeError):
        state.meta = {}
    with pytest.raises(AttributeError):
        del state.n
    with pytest.raises(TypeError):
        hash(state)


@pytest.mark.parametrize("k", [1.5, "1", None])
@pytest.mark.parametrize(
    "statistic", [emission_probability, reduced_pair, pair_fidelity, pair_memory_product_gap]
)
def test_pair_statistics_reject_a_pair_index_that_is_not_an_integer(statistic, k):
    state = simulate_known_basis(0.3, 4)
    with pytest.raises(ValueError, match="pair index must be an integer"):
        statistic(state, k)


def test_memory_gap_rejects_labels_without_lattice_registers():
    state = simulate_von_neumann(0.3, 2)
    with pytest.raises(ValueError, match="no register field 't'"):
        pair_memory_product_gap(state, 1)


@pytest.mark.parametrize("name", ["nonsense", "tape", "kept"])
def test_register_distribution_rejects_an_unknown_field(name):
    state = simulate_known_basis(0.3, 4)
    with pytest.raises(ValueError, match="no register field"):
        register_distribution(state, name)


@pytest.mark.parametrize(
    "tape,l",
    [("01", 2), (1.0, 1), (4, 2), (-1, 2), (1, -1), (0, TAPE_BITS_MAX + 1), (0, 1.0)],
)
def test_pair_statistics_reject_tapes_the_table_cannot_code(tape, l):
    label = PartyLabel(0, None, l, tape, 0)
    state = JointState(1, {(label, label): 1.0})
    with pytest.raises(ValueError, match=rf"an int in \[0, 2\^l\), l <= {TAPE_BITS_MAX}"):
        emission_probability(state, 1)


def test_pair_statistics_take_the_longest_tape_the_table_can_code():
    label = text_label("1" * TAPE_BITS_MAX)
    state = JointState(1, {(label, label): 1.0})
    assert emission_probability(state, TAPE_BITS_MAX) == 1.0
    assert pair_fidelity(state, TAPE_BITS_MAX) == pytest.approx(0.5)


def test_pair_statistics_need_l_and_tape_fields():
    class TapeOnly(NamedTuple):
        tape: int

    state = JointState(1, {(TapeOnly(0), TapeOnly(0)): 1.0})
    with pytest.raises(ValueError, match="l and tape fields"):
        emission_probability(state, 1)


def test_pair_statistics_reject_an_empty_state():
    with pytest.raises(ValueError, match="no amplitudes"):
        tape_length_distribution(JointState(1, {}))


@pytest.mark.parametrize("enabled", [True, False])
def test_the_table_build_pauses_the_collector_and_restores_it(enabled, monkeypatch):
    seen = []  # the collector's state inside each party's column build
    build = schursim.PartyColumns.build
    monkeypatch.setattr(schursim.PartyColumns, "build",
                        lambda labels: seen.append(gc.isenabled()) or build(labels))
    bad = PartyLabel(0, None, 2, 4, 0)  # tape 4 needs 3 bits
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        simulate_known_basis(0.3, 4).table
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match=r"an int in \[0, 2\^l\)"):
            JointState(1, {(bad, bad): 1.0}).table
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


@pytest.mark.parametrize("enabled", [True, False])
def test_state_builds_pause_the_collector_and_restore_it(enabled, monkeypatch):
    seen = []  # the collector's state at each coupling step and known-basis leaf
    cg, tree = schursim.cg_step, schursim.walk_tree
    monkeypatch.setattr(schursim, "cg_step", lambda *args: seen.append(gc.isenabled()) or cg(*args))
    monkeypatch.setattr(schursim, "walk_tree",
                        lambda n: (seen.append(gc.isenabled()) or leaf for leaf in tree(n)))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        simulate_universal(3, p=0.3, theta=0.7)
        assert gc.isenabled() is enabled
        simulate_known_basis(0.3, 3)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(schursim, "cg_step", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            simulate_universal(3, p=0.3, theta=0.7)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)


def test_certain_pairs_reports_incubation_boundary():
    state = simulate_known_basis(0.5, 6)
    lengths = tape_length_distribution(state)
    assert certain_pairs(state) == min(lengths)
    assert certain_pairs(huffman_output_state()) == 3


# -- fixed scenarios ----------------------------------------------------------


def test_huffman_counterexample_value():
    target = (1 + math.sqrt(2)) / (2 * math.sqrt(2))
    assert huffman_counterexample() == pytest.approx(target, abs=1e-12)


def test_huffman_reduced_state_matches_expected_matrix():
    rho, prob = reduced_pair(huffman_output_state(), 1)
    corner = 1 / (2 * math.sqrt(2))
    expected = np.array(
        [
            [0.5, 0, 0, corner],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [corner, 0, 0, 0.5],
        ]
    )
    assert prob == pytest.approx(1.0)
    assert np.max(np.abs(rho - expected)) < 1e-12


def test_streaming_positive_control_against_huffman():
    # the same dyadic source reduces to unbiased bits; concentrating those
    # with the streaming machine leaves no defect in any emitted pair
    state = simulate_known_basis(0.5, 8)
    max_len = max(la.l for (la, _) in state.amps)
    for k in range(1, max_len + 1):
        if emission_probability(state, k) > 0:
            assert abs(pair_fidelity(state, k) - 1) < 1e-10


@pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
@pytest.mark.parametrize("pairs", [1, 2, 3, 4])
def test_von_neumann_nonhalting_amplitude_decay(pairs, p):
    state = simulate_von_neumann(p, pairs)
    expected = (1 - 2 * p * (1 - p)) ** (pairs / 2)
    assert nonhalting_amplitude(state) == pytest.approx(expected, abs=1e-12)


def test_von_neumann_lift_first_pair_is_perfect():
    for p in (0.2, 0.5, 0.8):
        state = simulate_von_neumann(p, 3)
        assert pair_fidelity(state, 1) == pytest.approx(1.0, abs=1e-12)


def test_von_neumann_cap():
    assert len(simulate_von_neumann(0.3, VON_NEUMANN_CAP).amps) > 0
    with pytest.raises(SimulatorCapError, match="exceeds cap"):
        simulate_von_neumann(0.3, VON_NEUMANN_CAP + 1)


def doubled_leaves(n):
    """walk_tree with every depth-n leaf yielded twice."""
    for node, code in walk_tree(n):
        yield from [(node, code)] * (1 + (node.n == n))


@pytest.mark.parametrize("build, mode, patch", [
    (lambda p: simulate_known_basis(p, 3), "known", ("walk_tree", doubled_leaves)),
    # with nothing emitted, '01' and '10' leave one label: tape empty, kept '-', one 1
    (lambda p: simulate_von_neumann(p, 1), "vonneumann", ("von_neumann", lambda bits: ())),
])
@pytest.mark.parametrize("p", [0.3, 0.0])  # at p = 0 the colliding terms have amplitude 0
def test_simulators_refuse_colliding_labels(monkeypatch, build, mode, patch, p):
    build(p).validate()
    monkeypatch.setattr(schursim, *patch)
    with pytest.raises(AssertionError, match=f"^{mode} register labels collide$"):
        build(p)


def test_von_neumann_single_pair_amplitudes():
    state = simulate_von_neumann(0.3, 1)
    amps = {
        (tape_text(la), la.kept): amp for (la, _), amp in state.amps.items()
    }
    assert amps[("", "0")] == pytest.approx(0.3)
    assert amps[("", "1")] == pytest.approx(0.7)
    assert amps[("0", "-")] == pytest.approx(math.sqrt(0.21))
    assert amps[("1", "-")] == pytest.approx(math.sqrt(0.21))


def test_distribution_entropy_helper():
    assert distribution_entropy({0: 0.5, 1: 0.5}) == pytest.approx(1.0)
    assert distribution_entropy({0: 1.0}) == 0.0
