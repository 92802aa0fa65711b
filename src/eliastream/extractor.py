"""Streaming entropy extractor: a reversible three-register state machine.

The machine keeps three integers (n, t, l): bits read, Hamming weight so
far, and random bits emitted so far.  On each input bit it walks one edge of
the augmented Pascal lattice, whose node (n, t, l) exists exactly when bit l
of C(n, t) is 1.  Two paths of equal probability fuse at a node by emitting
the bit that distinguishes them; bin merges cascade like binary-addition
carries, each carry emitting one more bit.

Per input bit b (after n -> n+1, t -> t+b):

    if bit_l(C(n, t)) == 0 or bit_l(C(n-1, t-1+b)) == 1:
        emit b; l += 1
        while bit_l(C(n-1, t)) != bit_l(C(n-1, t-1)):
            emit bit_l(C(n-1, t)); l += 1

Out-of-range coefficients are 0, which makes the test total at the t = 0
and t = n boundaries.  Matching a whole-block extraction at every prefix
length, the machine emits exactly as much randomness as the block protocol,
while storing only the three counters.

Bit conservation: every input bit lands on exactly one of two tapes.  An
emitting step sends b to the output tape and rewrites previously-banked
zero bits (one per carry) as further outputs; a silent step banks b, erased
to 0, on the purity tape.  So out_len + purity_len == n after every step.

The move itself lives in one place, ``walk_step``, which sees only three
node sizes and so runs on any lattice with Pascal's additive recursion
(binomial coefficients here, Young-diagram dimensions in ``young``).  On
Pascal's triangle two things drive it:

* ``step``/``run``: the reference walk, reading sizes from the shared
  binomial table (bounded by the table cap).  Tests compare the streaming
  engine against it; ``walk_all`` runs it on every n-bit string for the
  exhaustive oracles in ``verify`` and ``schursim``.
* ``StreamExtractor``: the one streaming engine.  It carries two adjacent
  coefficients C(n, t) and C(n, t-1) along the path, updating them with one
  small multiply/divide per bit, so input length is unbounded.  Exact while
  they are short, it then keeps only a fixed-width window on them: integer
  bounds a few dozen bits below position l, from which the rule's inputs
  (the sizes shifted down by l) are read whenever the bounds agree on them.
  A move the window cannot decide is redone exactly from ``math.comb``
  (counted in ``fallbacks``), so the output is exact and each bit costs the
  same however long the stream.  ``push``, ``feed`` and the on-demand
  ``pause_mode_run`` all run on it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, NamedTuple

from .binomial import shared_table
from .elias import parse_bits


class ExtractorState(NamedTuple):
    """Machine memory: three integers, each bounded by the bits read."""

    n: int
    t: int
    l: int


class TapeLedger(NamedTuple):
    """Tape lengths; conservation gives purity_len = n - l."""

    out_len: int
    purity_len: int


class StepResult(NamedTuple):
    state: ExtractorState
    emitted: tuple[int, ...]


class RunResult(NamedTuple):
    output: tuple[int, ...]
    final: ExtractorState
    ledger: TapeLedger


def initial_state() -> ExtractorState:
    """The lattice apex (0, 0, 0)."""
    return ExtractorState(0, 0, 0)


def walk_step(here: int, hi: int, lo: int, b: int, l: int) -> tuple[tuple[int, ...], int]:
    """The transition rule: emit test and carry cascade of one move.

    With t' = t + b after the move, the arguments are the node sizes
    here = X(n, t'), hi = X(n-1, t') and lo = X(n-1, t'-1) of a lattice
    whose sizes X obey here = hi + lo (binomial coefficients, or Young
    dimensions at valid nodes).  Returns the emitted bits and the new l.
    """
    if b not in (0, 1):
        raise ValueError("input bit must be 0 or 1")
    if (here >> l) & 1 == 0 or ((hi if b else lo) >> l) & 1:
        emitted = [b]
        l += 1
        while (hi >> l) & 1 != (lo >> l) & 1:
            emitted.append((hi >> l) & 1)
            l += 1
        return tuple(emitted), l
    return (), l


def step(state: ExtractorState, b: int) -> StepResult:
    """Advance one input bit; emit any random bits produced by the move."""
    # t' from the truth of b, so any non-bit reaches walk_step's check
    n, t = state.n + 1, state.t + (1 if b else 0)
    c = shared_table(n).value
    emitted, l = walk_step(c(n, t), c(n - 1, t), c(n - 1, t - 1), b, state.l)
    return StepResult(ExtractorState(n, t, l), emitted)


def fold_steps(
    move: Callable[[ExtractorState, int], StepResult], bits: Iterable[int]
) -> tuple[tuple[int, ...], ExtractorState]:
    """Fold a step function over bits from the apex: (output, final state).

    Checks the tape ledger after every move: the output holds exactly l bits
    and l <= n, i.e. the purity tape never has to pop a bit it never banked.
    """
    state = initial_state()
    output: list[int] = []
    for b in bits:
        state, emitted = move(state, b)
        output.extend(emitted)
        if state.l != len(output) or state.l > state.n:
            raise AssertionError(f"tape ledger violated at {state}")
    return tuple(output), state


def walk_all(n: int) -> Iterator[tuple[ExtractorState, tuple[int, ...]]]:
    """(final state, output) of step() on every n-bit string, in ascending
    string order (MSB first).  Depth-first, so each prefix is stepped once;
    the tape ledger is checked at every node, as in fold_steps.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _walk_tree(n)


def _walk_tree(n: int) -> Iterator[tuple[ExtractorState, tuple[int, ...]]]:
    output: list[int] = []
    todo = [(initial_state(), (), 0)]  # (node, bits its move emitted, output length before)
    while todo:
        state, emitted, keep = todo.pop()
        output[keep:] = emitted
        if state.l != len(output) or state.l > state.n:
            raise AssertionError(f"tape ledger violated at {state}")
        if state.n < n:
            todo += (*step(state, 1), len(output)), (*step(state, 0), len(output))  # pops 0 first
        else:
            yield state, tuple(output)


def _bit_source(bits: "Iterable[int] | str") -> Iterable[int]:
    """Parse bit strings; pass integer iterables through to the walk, which
    checks every bit as it takes it."""
    return parse_bits(bits) if isinstance(bits, (str, bytes)) else bits


def run(bits: "Iterable[int] | str") -> RunResult:
    """Fold step() over an input string from the apex."""
    output, final = fold_steps(step, _bit_source(bits))
    return RunResult(output, final, TapeLedger(final.l, final.n - final.l))


class PauseResult(NamedTuple):
    output: tuple[int, ...]
    consumed: int
    state: ExtractorState
    pending: tuple[int, ...]
    satisfied: bool


def pause_mode_run(
    bits: "Iterable[int] | str",
    demand: int,
    state: ExtractorState | None = None,
    pending: tuple[int, ...] = (),
) -> PauseResult:
    """On-demand mode: consume input only until `demand` bits are delivered.

    A single move can emit several bits (carry cascade); bits produced past
    the demand are returned in `pending` so a resumed call is exact, as if
    the machine paused after each individual output.  `satisfied` is False
    when the input ran dry first.  Input length is unbounded: the walk runs
    on a StreamExtractor resumed from `state`.
    """
    if demand < 0:
        raise ValueError("demand must be >= 0")
    machine = StreamExtractor(initial_state() if state is None else state)
    push = machine.push
    produced = list(pending)
    consumed = 0
    if len(produced) < demand:
        for b in _bit_source(bits):
            produced.extend(push(b))
            consumed += 1
            if len(produced) >= demand:
                break
    # Only the last move can overshoot the demand.
    return PauseResult(
        tuple(produced[:demand]),
        consumed,
        machine.state,
        tuple(produced[demand:]),
        len(produced) >= demand,
    )


def von_neumann(bits: "Iterable[int] | str") -> tuple[int, ...]:
    """Classic pairwise unbiasing baseline.

    Consecutive disjoint pairs: odd parity emits one bit, even parity emits
    nothing.  Convention: emit the second bit of the pair ("01" -> 1,
    "10" -> 0), which is exactly what the streaming machine does at n = 2.
    The textbook statement reports the first bit instead; the two differ by
    a fixed 0/1 relabeling with no distributional consequence.
    """
    s = parse_bits(bits)
    return tuple(b2 for b1, b2 in zip(s[::2], s[1::2]) if b1 != b2)


# Measured on a 2-core Xeon: the exact update costs as much per bit as the
# window's ~2 us near l = 1,000-4,500, and grows linearly beyond; below this
# l the window saves nothing, so short streams stay exact.
_CROSSOVER = 4096
# Window bits kept below the emission position l.  The window never decides
# a move wrongly; it fails to decide one with odds growing like (bits since
# the last resync) / 2^_GUARD.  64 gave no fallback on a 10^7-bit stream.
_GUARD = 64


class StreamExtractor:
    """Unbounded-length engine: three counters plus a window on two coefficients.

    State is just (n, t, l); the sizes the rule reads come from C(n, t) and
    C(n, t-1), carried along the path and updated by one small
    multiply/divide per bit, so no table is ever needed.  A machine can
    start from any lattice node, e.g. to resume a paused walk; the apex is
    the default.

    While l < ``_CROSSOVER`` the two coefficients are exact integers.  From
    there on the engine keeps only integer bounds [lo, hi] on C/2^s, with
    floor/ceil rounding, and s trailing l by ``_GUARD`` to ``2 * _GUARD``
    bits, so each bit costs the same however long the stream.  The rule reads
    only bits >= l, i.e. the quotients C >> l: where lower and upper bounds
    give the same quotients, ``walk_step`` runs on them and the move is exact.
    Otherwise the move is redone from ``math.comb`` and the window restarts
    from the exact values; ``fallbacks`` counts these resyncs.
    """

    __slots__ = ("n", "t", "l", "_s", "_here", "_here_up", "_left", "_left_up", "_fallbacks")

    def __init__(self, state: ExtractorState = ExtractorState(0, 0, 0)):
        n, t, l = state
        c_here = math.comb(n, t) if 0 <= t <= n else 0
        if l < 0 or not (c_here >> l) & 1:
            raise ValueError(f"{tuple(state)} is not a lattice node")
        self._fallbacks = 0
        self._load(n, t, l, c_here, math.comb(n, t - 1) if t else 0)

    def _load(self, n: int, t: int, l: int, here: int, left: int) -> None:
        """Set the node (n, t, l) from the exact C(n, t) and C(n, t-1)."""
        self.n, self.t, self.l = n, t, l
        if l < _CROSSOVER:
            self._s = None
            self._here, self._left = here, left
        else:
            s = max(0, l - _GUARD)
            self._s = s
            self._here, self._here_up = here >> s, -(-here >> s)
            self._left, self._left_up = left >> s, -(-left >> s)

    @property
    def state(self) -> ExtractorState:
        return ExtractorState(self.n, self.t, self.l)

    @property
    def ledger(self) -> TapeLedger:
        return TapeLedger(self.l, self.n - self.l)

    @property
    def fallbacks(self) -> int:
        """Moves the window could not decide, redone from ``math.comb``."""
        return self._fallbacks

    @property
    def window_bits(self) -> int:
        """Bit length of the widest integer carried: an exact coefficient
        below the crossover, a window bound after it."""
        if self._s is None:
            return max(self._here.bit_length(), self._left.bit_length())
        return max(self._here_up.bit_length(), self._left_up.bit_length())

    def push(self, b: int) -> tuple[int, ...]:
        """Feed one bit; return the bits emitted by this move.

        A value other than 0 or 1 raises ValueError and leaves the state
        unchanged.
        """
        n, t, s = self.n, self.t, self._s
        if s is None:
            c_here, c_left = self._here, self._left
            if b:
                hi = c_here * (n - t) // (t + 1)  # C(n, t+1)
                lo = c_here
                next_left = c_here + c_left  # C(n+1, t)
                t += 1
            else:
                hi, lo = c_here, c_left
                # C(n, t-2); at t = 0, C(n, t-1) is 0 and so is this
                c_far = c_left * (t - 1) // (n - t + 2)
                next_left = c_left + c_far  # C(n+1, t-1)
            here = hi + lo  # C(n+1, t')
            emitted, l = walk_step(here, hi, lo, b, self.l)
            if l < _CROSSOVER:
                self.n, self.t, self.l = n + 1, t, l
                self._here, self._left = here, next_left
            else:
                self._load(n + 1, t, l, here, next_left)
            return emitted
        # The same update on bounds of C/2^s: floor for lower, ceil for upper.
        c0, c1, d0, d1 = self._here, self._here_up, self._left, self._left_up
        if b:
            hi0, hi1 = c0 * (n - t) // (t + 1), -(-c1 * (n - t) // (t + 1))
            lo0, lo1 = c0, c1
            next0, next1 = c0 + d0, c1 + d1
            t += 1
        else:
            hi0, hi1, lo0, lo1 = c0, c1, d0, d1
            next0 = d0 + d0 * (t - 1) // (n - t + 2)
            next1 = d1 - (-d1 * (t - 1) // (n - t + 2))
        here0, here1 = hi0 + lo0, hi1 + lo1
        l = self.l
        k = l - s
        q_here, q_hi, q_lo = here0 >> k, hi0 >> k, lo0 >> k
        if q_here != here1 >> k or q_hi != hi1 >> k or q_lo != lo1 >> k:
            return self._resync(b)
        emitted, moved = walk_step(q_here, q_hi, q_lo, b, 0)
        l += moved
        if l - s >= 2 * _GUARD:  # renormalise: s back to l - _GUARD
            shift = l - _GUARD - s
            s += shift
            here0, here1 = here0 >> shift, -(-here1 >> shift)
            next0, next1 = next0 >> shift, -(-next1 >> shift)
            self._s = s
        self.n, self.t, self.l = n + 1, t, l
        self._here, self._here_up, self._left, self._left_up = here0, here1, next0, next1
        return emitted

    def _resync(self, b: int) -> tuple[int, ...]:
        """Make one move on exact coefficients from ``math.comb`` and restart
        the window from them."""
        n, t = self.n + 1, self.t + (1 if b else 0)
        hi, lo = math.comb(n - 1, t), math.comb(n - 1, t - 1) if t else 0
        emitted, l = walk_step(hi + lo, hi, lo, b, self.l)
        self._fallbacks += 1
        self._load(n, t, l, hi + lo, math.comb(n, t - 1) if t else 0)
        return emitted

    def feed(self, bits: "Iterable[int] | str") -> tuple[int, ...]:
        """Feed many bits; return the concatenated output.

        A bad bit raises ValueError; the bits before it stay fed.
        """
        out: list[int] = []
        push = self.push
        for b in _bit_source(bits):
            out.extend(push(b))
        return tuple(out)
