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
  engine against it.
* ``StreamExtractor``: the one streaming engine.  It carries two adjacent
  coefficients C(n, t) and C(n, t-1) along the path, updating them with one
  small multiply/divide per bit, so input length is unbounded.  ``push``,
  ``feed`` and the on-demand ``pause_mode_run`` all run on it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

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


class StreamExtractor:
    """Unbounded-length engine carrying its own coefficient pair.

    State is still just (n, t, l); the two big integers C(n, t) and
    C(n, t-1) are derived values maintained incrementally so that no
    quadratic table is ever needed.  A machine can start from any lattice
    node, e.g. to resume a paused walk; the apex is the default.
    """

    __slots__ = ("n", "t", "l", "_c_here", "_c_left")

    def __init__(self, state: ExtractorState = ExtractorState(0, 0, 0)):
        n, t, l = state
        c_here = math.comb(n, t) if 0 <= t <= n else 0
        if l < 0 or not (c_here >> l) & 1:
            raise ValueError(f"{tuple(state)} is not a lattice node")
        self.n = n
        self.t = t
        self.l = l
        self._c_here = c_here  # C(n, t)
        self._c_left = math.comb(n, t - 1) if t else 0  # C(n, t-1)

    @property
    def state(self) -> ExtractorState:
        return ExtractorState(self.n, self.t, self.l)

    @property
    def ledger(self) -> TapeLedger:
        return TapeLedger(self.l, self.n - self.l)

    def push(self, b: int) -> tuple[int, ...]:
        """Feed one bit; return the bits emitted by this move.

        A value other than 0 or 1 raises ValueError and leaves the state
        unchanged.
        """
        n, t = self.n, self.t
        c_here, c_left = self._c_here, self._c_left
        if b:
            hi = c_here * (n - t) // (t + 1)  # C(n, t+1)
            lo = c_here
            next_left = c_here + c_left  # C(n+1, t)
            t += 1
        else:
            hi, lo = c_here, c_left
            c_far = c_left * (t - 1) // (n - t + 2) if t >= 1 else 0  # C(n, t-2)
            next_left = c_left + c_far  # C(n+1, t-1)
        here = hi + lo  # C(n+1, t')
        emitted, self.l = walk_step(here, hi, lo, b, self.l)
        self.n = n + 1
        self.t = t
        self._c_here = here
        self._c_left = next_left
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
