"""Naive oracles shared by the test modules; pytest collects no tests here.

Block extraction: the whole-block map string -> codeword (T, L, alpha), by
combinadic rank and a fixed canonical binning (descending bin order), and
the source model's string and type probabilities.  The streaming machine
induces a different per-string map; the two agree at the level of per-(T, L)
counts, which is what the equivalence harness checks, and
``elias.expected_yield`` is certified against the per-string sum.

Exact walk: ``exact_walk`` carries the exact C(n, t) from any node, reads
each move's neighbour from an exact ratio and makes the move with
``walk_step``, the reference rule.  It is the exact engine the streaming
window is certified against on long streams, where ``run``'s three
``math.comb`` reads per move would be too slow.

Young lattice: the irrep dimension of a two-row diagram from literal hook
lengths and by counting box-add paths, the two references for the closed
form ``young.dim``.

Coherent simulators: ``read_labels`` reads each label object of a state
field by field, once, with no column table, and ``naive_pair_amplitudes``
gathers from those rows the branches that hold output pair k.  On it rest
the array statistics that certify an emitted pair: its reduced state, its
single-party marginals and its memory gap to the lattice registers.  The
source helpers build the two-qubit inputs of the universal simulator as
numpy matrices.
"""

import functools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from eliastream.binomial import bin_layout, binom
from eliastream.extractor import (
    ExtractorState,
    RunResult,
    as_count,
    as_node,
    initial_state,
    parse_bits,
    walk_step,
)
from eliastream.schursim import UndefinedPairError, _source_rows
from eliastream.young import is_valid

Bits = Iterable[int]


def p1(model) -> Fraction:
    """The probability of a 1 bit under a ``SourceModel``."""
    return 1 - model.p0


def type_prob(model, n: int, t: int) -> Fraction:
    """Probability that an n-bit draw has Hamming weight t."""
    return binom(n, t) * string_prob(model, n, t)


def string_prob(model, n: int, t: int) -> Fraction:
    """Probability of any single n-bit string of weight t."""
    return model.p0 ** (n - t) * p1(model)**t


class BlockCodeword(NamedTuple):
    t: int
    l: int
    alpha: int


def rank_in_type(bits: "Bits | str") -> int:
    """Combinadic (colexicographic) rank among same-length, same-weight strings.

    Reading the string as a binary numeral (first character most significant),
    the ones sit at bit positions p_1 < p_2 < ... < p_t, and the rank is
    sum_i C(p_i, i).  This is a bijection onto [0, C(n, t)).
    """
    s = parse_bits(bits)
    n = len(s)
    rank = 0
    i = 0
    for pos in range(n - 1, -1, -1):  # LSB first
        if s[pos]:
            i += 1
            rank += binom(n - 1 - pos, i)
    return rank


def bin_of_rank(n: int, t: int, rank: int) -> BlockCodeword:
    """Assign a within-type rank to its bin, largest bins first."""
    (n, t), rank = as_node(n, t), as_count(rank, "rank", lo=None)
    if not 0 <= t <= n:
        raise ValueError(f"t={t} out of range for n={n}")
    if not 0 <= rank < binom(n, t):
        raise ValueError(f"rank={rank} out of range for C({n},{t})={binom(n, t)}")
    offset = rank
    for l in bin_layout(n, t):
        size = 1 << l
        if offset < size:
            return BlockCodeword(t, l, offset)
        offset -= size
    raise AssertionError("unreachable: layout covers [0, C(n, t))")


def block_codeword(bits: "Bits | str") -> BlockCodeword:
    """Full block map: string -> (T, L, alpha)."""
    s = parse_bits(bits)
    return bin_of_rank(len(s), sum(s), rank_in_type(s))


def conditional_bin_entropy(n: int, t: int) -> float:
    """H(L | T=t) in bits: entropy of the bin-size distribution 2^L / C(n, t).

    Majorized by the geometric distribution 2^-l, so always below 2 bits.
    """
    n, t = as_node(n, t)
    if not 0 <= t <= n:
        raise ValueError(f"t={t} out of range for n={n}")
    c = binom(n, t)
    h = 0.0
    for l in bin_layout(n, t):
        pr = (1 << l) / c
        h -= pr * math.log2(pr)
    return h


def exact_walk(bits: Bits, state: ExtractorState = initial_state()) -> RunResult:
    """Walk `bits` from the lattice node `state` on the exact coefficient:
    C(n, t) is carried whole, each move's other size comes from the exact
    ratio C(n, t+1) = C(n, t)(n-t)/(t+1) or C(n, t-1) = C(n, t)t/(n-t+1),
    and ``walk_step`` makes the move.  Returns the output and the node
    reached."""
    n, t, l = state
    c = binom(n, t)
    if not (c >> l) & 1:
        raise ValueError(f"{(n, t, l)} is not a lattice node")
    out: list[int] = []
    for b in bits:
        if b:  # C(n, t+1) and C(n, t)
            hi, lo, t = c * (n - t) // (t + 1), c, t + 1
        else:  # C(n, t) and C(n, t-1)
            hi, lo = c, c * t // (n - t + 1)
        n, c = n + 1, hi + lo
        l = walk_step(c, hi, lo, b, l, out)
    return RunResult(tuple(out), ExtractorState(n, t, l))


def hook_dim_oracle(n: int, t: int) -> int:
    """Dimension computed literally from per-box hook lengths.

    hook(x) = boxes to the right + boxes below + 1; dim = n! / prod(hooks).
    """
    n, t = as_node(n, t)
    if not is_valid(n, t):
        raise ValueError(f"({n}, {t}) is not a valid two-row diagram")
    if n == 0:
        return 1
    r1, r2 = n - t, t
    hooks = 1
    for c in range(r1):
        hooks *= (r1 - 1 - c) + (1 if c < r2 else 0) + 1
    for c in range(r2):
        hooks *= (r2 - 1 - c) + 1
    quotient, rem = divmod(math.factorial(n), hooks)
    if rem:
        raise AssertionError("hook product does not divide n!")
    return quotient


def path_count(n: int, t: int) -> int:
    """Number of box-add paths from the empty diagram that stay valid.

    Forward count over the lattice, one level at a time; no closed form
    is consulted.
    """
    n, t = as_node(n, t)
    if not is_valid(n, t):
        raise ValueError(f"({n}, {t}) is not a valid two-row diagram")
    level = {0: 1}
    for m in range(n):
        nxt: dict[int, int] = {}
        for tt, ways in level.items():
            if is_valid(m + 1, tt):
                nxt[tt] = nxt.get(tt, 0) + ways
            if is_valid(m + 1, tt + 1):
                nxt[tt + 1] = nxt.get(tt + 1, 0) + ways
        level = nxt
    return level.get(t, 0)


@functools.lru_cache(maxsize=1 << 16)  # the gather oracle reads each label again per k
def tape_text(label):
    """A label's tape as 0/1 text, MSB first: the naive view of its code."""
    return format(label.tape, f"0{label.l}b") if label.l else ""


def read_labels(state, registers=()):
    """Each branch of a joint state with its two label objects read once,
    field by field, for ``naive_pair_amplitudes`` to gather every pair k
    from: per row the amplitude, both tape lengths, both tapes as 0/1 text,
    the joint value of the named register fields and the joint value of
    every other field but the tapes, rows in map order."""
    pairs, amps = zip(*state.amps.items())
    lengths, tapes, regs, rests = [], [], [], []
    for labels in zip(*pairs):
        columns = dict(zip(labels[0]._fields, zip(*labels, strict=True)))
        del columns["tape"]
        for name in registers:
            if name not in columns:
                raise ValueError(f"labels have no register field {name!r}")
        lengths.append(columns["l"])
        tapes.append([tape_text(label) for label in labels])
        regs += [columns.pop(name) for name in registers]
        rests += columns.values()
    regs = list(zip(*regs)) if registers else [()] * len(amps)
    return list(zip(amps, *lengths, *tapes, regs, zip(*rests)))


def naive_pair_amplitudes(rows, k):
    """The branches holding pair k as a dense array of shape (pair bits
    |a b> = 2a + b at slot k, register, environment), from the label rows
    ``read_labels`` read.

    Register ids number the joint register values, environment ids the rest
    of both labels, the tapes without slot k; both by dict in order of first
    appearance, so every cell has its own place.
    """
    k = as_count(k, "pair index", lo=1)
    held = [row for row in rows if row[1] >= k and row[2] >= k]
    if not held:
        raise UndefinedPairError(f"pair {k} never exists in this state")
    amps, _, _, tapes_a, tapes_b, regs, rests = zip(*held)
    pair = [2 * (a[k - 1] == "1") + (b[k - 1] == "1") for a, b in zip(tapes_a, tapes_b)]
    envs = [(a[: k - 1] + a[k:], b[: k - 1] + b[k:], rest)
            for a, b, rest in zip(tapes_a, tapes_b, rests)]
    reg, env = dense_ids(regs), dense_ids(envs)
    psi = np.zeros((4, max(reg) + 1, max(env) + 1), dtype=complex)
    psi[pair, reg, env] = amps
    return psi


def dense_ids(keys):
    """Each key's number, 0, 1, ... in order of first appearance, by dict."""
    number = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    return list(map(number.__getitem__, keys))


def reduced_pair(state, k):
    """Reduced 4x4 state of the k-th (1-based) output pair, and its weight.

    Conditions on both tapes holding at least k qubits by projecting and
    renormalizing; branches without the pair never mix in.  Basis order is
    |a b> for Alice bit a, Bob bit b.
    """
    psi = naive_pair_amplitudes(read_labels(state), k).reshape(4, -1)
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
    return pair_and_memory_gap(naive_pair_amplitudes(read_labels(state, ("t", "l")), k))[1]


def two_qubit_source(p, theta=0.0):
    """sqrt(p)|e0 e0> + sqrt(1-p)|e1 e1> as a 2x2 coefficient matrix, e0, e1
    the computational basis rotated by theta."""
    return np.array(_source_rows(p, theta))


def collective_rotation(psi, unitary):
    """Apply the same single-qubit unitary to both halves of a pair state."""
    unitary = np.asarray(unitary)
    return unitary @ psi @ unitary.T
