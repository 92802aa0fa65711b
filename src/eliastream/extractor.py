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
to 0, on the purity tape.  So the output tape holds l bits and the purity
tape the other n - l; ``fold_steps`` and ``walk_tree`` check after every
move the two conditions that can fail, len(output) == l and l <= n.

The reference rule is ``walk_step``, which sees only three node sizes and
so runs on any lattice with Pascal's additive recursion (binomial
coefficients here, Young-diagram dimensions in ``young``).  It appends what
it emits to the caller's list and returns the new l, so a move allocates
nothing.  On Pascal's triangle two things use it:

* ``step``/``run``: the reference walk, checking the node it leaves and
  reading exact sizes from ``binom`` (``math.comb``, no size cap).  Tests
  compare the streaming engine against it; ``walk_tree`` steps each lattice
  move of it once on the way to every prefix, for ``verify`` and
  ``schursim``, and carries each output as the integer ``pack_code`` makes
  of its bits.
* ``StreamExtractor``: the one streaming engine.  It carries one
  coefficient, C(n, t), and reads its neighbours from exact ratios, one
  small multiply/divide per bit; past a crossover it keeps only a
  fixed-width window on it, with one exact read and ``walk_step`` as the
  fallback.  ``push``, ``feed``, the on-demand ``pause_mode_run`` and the
  CLI's block-by-block ``extract`` run one loop, whose moves append
  straight to the output it returns.  Its two per-bit phases carry the
  rule inline, so no input bit pays for a function call; the
  engine-vs-``step`` tests pin both copies to ``walk_step``.  In the
  window the carried coefficient's floor bound always gives its exact
  quotient, so a move compares bounds only for the two sizes it computes.

The package's input checks live here, beside the walk that first needs
them: ``as_bit`` per bit, ``as_count`` per size, ``as_node`` per lattice
coordinate and ``parse_bits`` for '0'/'1' text.  The oracles import them
from here, so the engine loads no oracle.  The engine's loop tests no bit:
each call's input is checked once (``_checked_bits``), text up front and
any other iterable lazily as the walk takes it, so a bad bit raises
ValueError only if the walk reaches it, with the bits before it fed.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterable, Iterator, NamedTuple

from .binomial import binom


def as_bit(b) -> int:
    """A bit as a plain int: 0/1, True/False or another integer type's 0/1.
    Anything else, floats and strings included, raises ValueError.  So do
    numpy bools, which have no ``__index__``: a bool array goes in through
    its ``.tolist()``."""
    try:
        b = operator.index(b)
    except TypeError:
        raise ValueError("input bit must be 0 or 1") from None
    if b not in (0, 1):
        raise ValueError("input bit must be 0 or 1")
    return b


def as_count(value, name: str = "n", lo: int | None = 0, cap: int | None = None,
             error: type[Exception] = ValueError) -> int:
    """A size (count, depth, index) as a plain int: any integer type goes
    through ``operator.index``; anything else, floats and strings included,
    raises ValueError, as does a value below `lo` (None: no floor).  A value
    above `cap` raises `error`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    if cap is not None and value > cap:
        raise error(f"{name}={value} exceeds cap={cap}")
    return value


def as_node(n, t) -> tuple[int, int]:
    """A lattice coordinate (n, t) as plain ints: n a size (see ``as_count``),
    t any integer, out of range or not, for the caller's convention."""
    return as_count(n), as_count(t, "t", lo=None)


_TEXT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def is_text(bits) -> bool:
    """Whether a bit source is text, '0'/'1' characters: a str or a bytes-like
    object (bytes, bytearray, memoryview).  Any other iterable holds bits."""
    return isinstance(bits, (str, bytes, bytearray, memoryview))


def parse_bits(bits: "Iterable[int] | str") -> tuple[int, ...]:
    """Normalize a bit source (text such as '0110', see ``is_text``, or an
    iterable of bits, each checked by ``as_bit``) to a tuple of plain ints."""
    if not is_text(bits):
        return tuple(map(as_bit, bits))
    # UnicodeEncodeError is a ValueError
    text = bits.encode("ascii") if isinstance(bits, str) else bytes(bits)
    if bad := text.translate(None, b"01"):
        raise ValueError(f"invalid bit characters {bad[:8]!r}")
    return tuple(text.translate(_TEXT_BITS))


def _checked_bits(bits: "Iterable[int] | str") -> Iterable[int]:
    """A bit source as plain 0/1 ints, checked once per call.  Text is
    parsed by ``parse_bits`` and raises before any bit is taken.  Any other
    iterable is checked lazily, one cheap test per bit and ``as_bit`` only
    on a miss, so a walk that takes bits one by one raises only on reaching
    a bad one."""
    if is_text(bits):
        return parse_bits(bits)
    return (b if b.__class__ is int and not b >> 1 else as_bit(b) for b in bits)


class ExtractorState(NamedTuple):
    """Machine memory: three integers, each bounded by the bits read."""

    n: int
    t: int
    l: int


class StepResult(NamedTuple):
    state: ExtractorState
    emitted: tuple[int, ...]


class RunResult(NamedTuple):
    output: tuple[int, ...]
    final: ExtractorState


def initial_state() -> ExtractorState:
    """The lattice apex (0, 0, 0)."""
    return ExtractorState(0, 0, 0)


def walk_step(here: int, hi: int, lo: int, b: int, l: int, out: list[int]) -> int:
    """The transition rule: emit test and carry cascade of one move.

    With t' = t + b after the move, the arguments are the node sizes
    here = X(n, t'), hi = X(n-1, t') and lo = X(n-1, t'-1) of a lattice
    whose sizes X obey here = hi + lo (binomial coefficients, or Young
    dimensions at valid nodes).  Appends the emitted bits, plain ints, to
    the caller's `out` and returns the new l, so a move allocates nothing.
    Checks b first (see ``as_bit``): a bad bit leaves `out` as it was.
    """
    if b.__class__ is not int or b >> 1:  # one cheap test passes a plain 0/1
        b = as_bit(b)
    if (here >> l) & 1 == 0 or ((hi if b else lo) >> l) & 1:
        out.append(b)
        l += 1
        while (hi >> l) & 1 != (lo >> l) & 1:
            out.append((hi >> l) & 1)
            l += 1
    return l


def step(state: ExtractorState, b: int, size: Callable[[int, int], int] = binom) -> StepResult:
    """Advance one input bit; emit any random bits produced by the move.

    The reference move, three exact reads of the lattice's node sizes
    `size(n, t)` (``binom``, or ``young.dim``).  Checks the state first:
    (n, t) by ``as_node``, l by ``as_count``, and bit l of the node's size,
    which is hi after b = 0 and lo after b = 1."""
    (n, t), l = as_node(state.n, state.t), as_count(state.l, "l")
    # t' from the truth of b, so any non-bit reaches walk_step's check
    n1, t1 = n + 1, t + (1 if b else 0)
    hi, lo = size(n, t1), size(n, t1 - 1)
    if not ((lo if b else hi) >> l) & 1:
        raise ValueError(f"{(n, t, l)} is not a lattice node")
    emitted: list[int] = []
    l = walk_step(size(n1, t1), hi, lo, b, l, emitted)
    return StepResult(ExtractorState(n1, t1, l), tuple(emitted))


def _check_tapes(state: ExtractorState, out_len: int) -> None:
    """Conservation after a move: the output holds exactly l bits and l <= n,
    i.e. the purity tape never has to pop a bit it never banked."""
    if state.l != out_len or state.l > state.n:
        raise AssertionError(f"bit conservation violated at {state}")


def fold_steps(move: Callable[[ExtractorState, int], StepResult], bits: Iterable[int]) -> RunResult:
    """Fold a step function over bits from the apex, checking conservation
    after every move."""
    state = initial_state()
    output: list[int] = []
    for b in bits:
        state, emitted = move(state, b)
        output.extend(emitted)
        _check_tapes(state, len(output))
    return RunResult(tuple(output), state)


def walk_tree(max_n: int) -> Iterator[tuple[ExtractorState, int]]:
    """(node, output) of every input prefix of length <= max_n, depth first,
    0 before 1; the output is an integer whose node.l bits, MSB first, are
    the bits emitted so far.  Each (node, b) is stepped, and its conservation
    checked, once per call: under 1,000 lattice nodes up to n = 20, not
    2^21 prefixes.  The memo lives as long as the call."""
    max_n = as_count(max_n)
    moves: dict[ExtractorState, tuple] = {}
    todo = [(initial_state(), 0)]
    while todo:
        state, code = todo.pop()
        yield state, code
        if state.n < max_n:
            pair = moves.get(state)
            if pair is None:
                pair = moves[state] = coded_move(state, 1, step) + coded_move(state, 0, step)
            node1, k1, v1, node0, k0, v0 = pair
            todo += (node1, code << k1 | v1), (node0, code << k0 | v0)  # pops 0 first


def coded_move(state: ExtractorState, b: int, move: Callable) -> tuple[ExtractorState, int, int]:
    """``move(state, b)`` (``step``, or ``young.qstep``) as (node, number of
    bits emitted, those bits as an integer), its conservation checked."""
    node, emitted = move(state, b)
    _check_tapes(node, state.l + len(emitted))
    return node, len(emitted), pack_code(emitted)


def pack_code(bits: Iterable[int]) -> int:
    """The integer whose binary digits, MSB first, are `bits` (0 for none)."""
    code = 0
    for b in bits:
        code = code << 1 | b
    return code


def run(bits: "Iterable[int] | str") -> RunResult:
    """Fold step() over an input string from the apex.  Text is parsed up
    front; other bits go to ``step``, which checks each one itself."""
    return fold_steps(step, parse_bits(bits) if is_text(bits) else bits)


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
    on a StreamExtractor resumed from `state`.  Every argument is checked
    before any input is read.
    """
    demand = as_count(demand, "demand")
    machine = StreamExtractor(initial_state() if state is None else state)
    produced = [as_bit(b) for b in pending]
    if len(produced) > machine.l:
        raise ValueError("more pending bits than the walk has emitted")
    n = machine.n
    if len(produced) < demand:
        machine._walk(_checked_bits(bits), demand - len(produced), produced)
    # Only the last move can overshoot the demand.
    return PauseResult(tuple(produced[:demand]), machine.n - n, machine.state,
                       tuple(produced[demand:]), len(produced) >= demand)


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


# Measured on a 2-core Xeon, one pinned core, p = 0.3.  The exact update costs
# 0.93 / 1.05 / 1.34 / 1.88 us per bit at l = 500 / 1,000 / 2,000 / 4,000 and
# grows linearly with l; the window costs 0.70-0.74 us at any l.  Yet a window
# from the apex loses on short streams (1.45-1.77x slower per 512-bit demand
# from 4,096-bit inputs at p = 0.05 / 0.3 / 0.5): while C(n, t) is short, one
# exact update costs less than the window's two bounds and their quotient
# checks.  Handing over at l = 512 / 1,024 / 2,048, in 6 alternating rounds of
# 15 s benchmark runs (medians): extract_short made 363 / 378 / 376 ops/s and
# extract_long 878k / 889k / 906k input bits/s, 2,048 winning 4 of 6 rounds
# there and 2 of 6 on extract_short.  So the window takes over at l = 1,024,
# and a 512-bit demand stays exact.
_CROSSOVER = 1024
# Window bits kept below the emission position l.  The window never decides
# a move wrongly; it fails to decide one with odds growing like (bits since
# the last resync) / 2^_GUARD.  64 gave no fallback on a 10^7-bit stream.
# A fallback, like a machine resumed from a deep node, pays one exact read:
# math.comb(131072, 39321), a 115,504-bit value, takes 0.15-0.16 s on that
# host, and a coefficient at n = 2^20 takes 5-6.5 s.
_GUARD = 64


def _window(c: int, l: int) -> tuple[int, int, int]:
    """(s, floor, ceil) of C/2^s for the exact C at emission position l."""
    s = max(0, l - _GUARD)
    return s, c >> s, -(-c >> s)


class StreamExtractor:
    """Unbounded-length engine: three counters plus a window on one coefficient.

    Beyond (n, t, l) it carries only C(n, t); the other size each move reads
    comes from an exact ratio, C(n, t+1) = C(n, t)(n-t)/(t+1) or
    C(n, t-1) = C(n, t)t/(n-t+1), so no table is ever needed.  A machine can
    start from any lattice node, e.g. to resume a paused walk.

    While l < ``_CROSSOVER`` the coefficient is exact.  From there on the
    engine keeps integer bounds on C/2^s, floor for the lower and ceil for
    the upper bound of every size, with s trailing l by ``_GUARD`` to
    ``2 * _GUARD`` bits, so each bit costs the same however long the stream.
    The rule reads only the quotients C >> l.  The carried coefficient's
    floor bound always gives its exact quotient (see ``_walk``); where both
    bounds of the two sizes a move computes give the same quotients, the
    rule runs on them and the move is exact.  Otherwise one exact read of
    C(n, t) gives the move's sizes by the same ratios, ``walk_step`` makes
    the move, and the window restarts from the exact C(n+1, t');
    ``fallbacks`` counts these resyncs.  The exact read is the one costly
    step: about 0.15 s at n = 2^17 and 5 s or more at n = 2^20 (see
    ``_GUARD``), paid by each fallback and by a machine built at a deep
    node.  ``push``, ``feed``, ``pause_mode_run`` and ``cli extract``, which
    walks its input block by block, all run one loop, ``_walk``.  Its two
    phases carry ``walk_step``'s emit test and carry cascade inline, on the
    exact sizes at bit l and on the quotients at bit 0; the tests against
    ``step`` keep them equal.  ``push`` checks its one bit, ``feed`` and
    ``pause_mode_run`` their input once per call (``_checked_bits``); the
    loop itself tests no bit.
    """

    __slots__ = ("n", "t", "l", "_s", "_c", "_c_up", "_fallbacks")

    def __init__(self, state: ExtractorState = ExtractorState(0, 0, 0)):
        n, t, l = (as_count(v, name) for v, name in zip(state, "ntl", strict=True))
        c = binom(n, t)
        if not (c >> l) & 1:
            raise ValueError(f"{(n, t, l)} is not a lattice node")
        self.n, self.t, self.l = n, t, l
        self._fallbacks = 0
        self._s, self._c, self._c_up = _window(c, l) if l >= _CROSSOVER else (None, c, None)

    @property
    def state(self) -> ExtractorState:
        return ExtractorState(self.n, self.t, self.l)

    @property
    def fallbacks(self) -> int:
        """Moves the window could not decide, redone from the exact C(n, t)."""
        return self._fallbacks

    @property
    def window_bits(self) -> int:
        """Bit length of the widest integer carried: the exact coefficient
        below the crossover, the upper window bound after it."""
        return (self._c if self._s is None else self._c_up).bit_length()

    def push(self, b: int) -> tuple[int, ...]:
        """Feed one bit; return the bits emitted by this move.  A value
        other than 0 or 1 raises ValueError and leaves the state unchanged."""
        if b.__class__ is not int or b >> 1:  # one cheap test passes a plain 0/1
            b = as_bit(b)
        return tuple(self._walk((b,)))

    def feed(self, bits: "Iterable[int] | str") -> tuple[int, ...]:
        """Feed many bits; return the concatenated output.  A bad bit
        raises ValueError; the bits before it stay fed."""
        return tuple(self._walk(_checked_bits(bits)))

    def _walk(self, bits: Iterable[int], demand: float = math.inf,
              out: list[int] | None = None) -> list[int]:
        """The one loop: fold bits through the exact phase, then the window
        (handing over mid-call), append what they emit to `out` (a new list
        by default) and return it, stopping after the move that brings this
        call's output to `demand` bits.

        `bits` are plain 0/1 ints, checked once per call by the caller (see
        ``_checked_bits``), so the loops test no bit; a lazily checked source
        raises ValueError on reaching a bad bit.  The state lives in locals,
        written back however the loop ends, so the bits before it stay fed.

        The window rests on one invariant: at the start of every window move
        the floor bound's quotient is exact, C(n, t) >> l == c0 >> k.
        ``_window`` sets c0 from an exact coefficient; a decided move checks
        the quotients of `here` before `here` becomes the carried
        coefficient; an emission only raises k; a renormalisation by j bits
        lowers k by exactly j.  So of a move's three sizes only `here` and
        the neighbour the ratio gives need their two bounds compared.
        """
        if out is None:
            out = []
        n, t, l, s, c0, c1 = self.n, self.t, self.l, self._s, self._c, self._c_up
        stop = l + demand
        bits = iter(bits)
        try:
            if s is None:
                crossover = _CROSSOVER
                for b in bits:
                    if b:  # C(n, t+1) and C(n, t)
                        hi, lo, t1 = c0 * (n - t) // (t + 1), c0, t + 1
                    else:  # C(n, t) and C(n, t-1)
                        hi, lo, t1 = c0, c0 * t // (n - t + 1), t
                    here = hi + lo
                    n, t, c0 = n + 1, t1, here
                    # walk_step, inline: emit test at bit l, then the cascade
                    if (here >> l) & 1 == 0 or ((hi if b else lo) >> l) & 1:
                        out.append(b)
                        l += 1
                        while (hi >> l) & 1 != (lo >> l) & 1:
                            out.append((hi >> l) & 1)
                            l += 1
                        if l >= crossover:
                            s, c0, c1 = _window(c0, l)
                            break
                        if l >= stop:
                            return out
                else:
                    return out
            guard, top, k = _GUARD, 2 * _GUARD, l - s
            if l < stop:
                for b in bits:
                    # The neighbour x the ratio gives and here = x + c on bounds
                    # of C/2^s, floor lower and ceil upper; c, the carried
                    # coefficient, keeps its exact quotient c0 >> k.
                    if b:  # x = C(n, t+1) = hi; c = C(n, t) = lo
                        u, t1 = n - t, t + 1
                        x0, x1 = c0 * u // t1, (c1 * u + t) // t1
                    else:  # x = C(n, t-1) = lo; c = C(n, t) = hi
                        u, t1 = n - t + 1, t
                        x0, x1 = c0 * t // u, (c1 * t + u - 1) // u
                    h0, h1 = x0 + c0, x1 + c1
                    q_here, q_x = h0 >> k, x0 >> k
                    if q_here == h1 >> k and q_x == x1 >> k:
                        n, t = n + 1, t1
                        c, c0, c1 = c0, h0, h1
                        # walk_step, inline, at bit 0 of the quotients C >> l
                        if q_here & 1 and not q_x & 1:
                            continue
                        out.append(b)
                        l += 1
                        q_x >>= 1
                        q_c = c >> k + 1
                        while (q_x ^ q_c) & 1:
                            out.append((q_x if b else q_c) & 1)  # hi's bit
                            l += 1
                            q_x >>= 1
                            q_c >>= 1
                        k = l - s
                        if k >= top:  # renormalise: s back to l - guard
                            s, c0, c1, k = l - guard, c0 >> k - guard, -(-c1 >> k - guard), guard
                    else:  # undecided: one exact read, walk_step makes the move
                        c = binom(n, t)
                        if b:
                            hi, lo, t1 = c * (n - t) // (t + 1), c, t + 1
                        else:
                            hi, lo, t1 = c, c * t // (n - t + 1), t
                        here = hi + lo
                        l = walk_step(here, hi, lo, b, l, out)
                        n, t = n + 1, t1
                        self._fallbacks += 1
                        s, c0, c1 = _window(here, l)
                        k = l - s
                    if l >= stop:
                        break
            return out
        finally:
            self.n, self.t, self.l, self._s, self._c, self._c_up = n, t, l, s, c0, c1
