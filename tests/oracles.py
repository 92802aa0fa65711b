"""Naive oracles of the coherent simulators, shared by the test modules.

pytest collects no tests from this file.  ``naive_pair_amplitudes`` gathers
the branches that hold output pair k by reading each label object field by
field, with no column table.  On it rest the array statistics that certify
an emitted pair: its reduced state, its single-party marginals and its
memory gap to the lattice registers.  The source helpers build the
two-qubit inputs of the universal simulator as numpy matrices.
"""

import functools

import numpy as np

from eliastream.extractor import as_count
from eliastream.schursim import UndefinedPairError, _source_rows


@functools.lru_cache(maxsize=1 << 16)  # the gather oracle reads each label again per k
def tape_text(label):
    """A label's tape as 0/1 text, MSB first: the naive view of its code."""
    return format(label.tape, f"0{label.l}b") if label.l else ""


def naive_pair_amplitudes(state, k, registers=()):
    """The branches holding pair k as a dense array of shape (pair bits
    |a b> = 2a + b at slot k, register, environment).

    Label fields are read from the label objects row by row.  Register ids
    number the joint values of the named fields, environment ids the rest
    of both labels, the tapes without slot k; both by dict in order of first
    appearance, so every cell has its own place.
    """
    k = as_count(k, "pair index", lo=1)

    def dense_ids(keys):
        ids = {}
        return np.array([ids.setdefault(key, len(ids)) for key in keys], dtype=int)

    held = [
        (la, lb, amp)
        for (la, lb), amp in state.amps.items()
        if la.l >= k and lb.l >= k
    ]
    if not held:
        raise UndefinedPairError(f"pair {k} never exists in this state")
    alice, bob, amps = zip(*held)
    pair = np.zeros(len(amps), dtype=int)
    reg_columns, env_columns = [], []
    for weight, labels in ((2, alice), (1, bob)):
        columns = dict(zip(labels[0]._fields, zip(*labels, strict=True)))
        del columns["tape"]
        for name in registers:
            if name not in columns:
                raise ValueError(f"labels have no register field {name!r}")
        tapes = [tape_text(label) for label in labels]
        pair += weight * np.array([tape[k - 1] == "1" for tape in tapes])
        reg_columns += [columns.pop(name) for name in registers]
        env_columns += [[tape[: k - 1] + tape[k:] for tape in tapes], *columns.values()]
    reg = dense_ids(zip(*reg_columns)) if registers else np.zeros_like(pair)
    env = dense_ids(zip(*env_columns))
    psi = np.zeros((4, reg.max() + 1, env.max() + 1), dtype=complex)
    psi[pair, reg, env] = amps
    return psi


def reduced_pair(state, k):
    """Reduced 4x4 state of the k-th (1-based) output pair, and its weight.

    Conditions on both tapes holding at least k qubits by projecting and
    renormalizing; branches without the pair never mix in.  Basis order is
    |a b> for Alice bit a, Bob bit b.
    """
    psi = naive_pair_amplitudes(state, k).reshape(4, -1)
    prob = float((abs(psi) ** 2).sum())
    return psi @ psi.conj().T / prob, prob


def party_marginal(rho, party=0):
    """Single-party 2x2 state of a 4x4 pair state; party 0 is Alice."""
    if party not in (0, 1):
        raise ValueError("party must be 0 (Alice) or 1 (Bob)")
    return rho.reshape(2, 2, 2, 2).trace(axis1=1 - party, axis2=3 - party)


def pair_marginal(state, k, party=0):
    """Single-party 2x2 reduced state of the k-th output qubit; 0 is Alice."""
    return party_marginal(reduced_pair(state, k)[0], party)


def pair_and_memory_gap(psi):
    """From one gather with registers: the pair's 4x4 state, the registers
    traced out, and the trace distance between (pair + registers) and its
    product form.  A zero gap means the pair is exactly uncorrelated with
    the registers, which is what makes streaming emission safe."""
    nreg = psi.shape[1]
    psi = psi.reshape(4 * nreg, -1)
    rho = psi @ psi.conj().T
    rho /= np.trace(rho).real
    full = rho.reshape(4, nreg, 4, nreg)
    rho_pair = np.trace(full, axis1=1, axis2=3)
    rho_regs = np.trace(full, axis1=0, axis2=2)
    gap = (full - rho_pair[:, None, :, None] * rho_regs[None, :, None, :]).reshape(rho.shape)
    return rho_pair, float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(gap))))


def pair_memory_product_gap(state, k):
    """Memory gap of pair k against both parties' lattice position (t, l)."""
    return pair_and_memory_gap(naive_pair_amplitudes(state, k, ("t", "l")))[1]


def two_qubit_source(p, theta=0.0):
    """sqrt(p)|e0 e0> + sqrt(1-p)|e1 e1> as a 2x2 coefficient matrix, e0, e1
    the computational basis rotated by theta."""
    return np.array(_source_rows(p, theta))


def collective_rotation(psi, unitary):
    """Apply the same single-qubit unitary to both halves of a pair state."""
    unitary = np.asarray(unitary)
    return unitary @ psi @ unitary.T
