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
tape the other n - l; ``run`` and ``walk_tree`` check after every move the
two conditions that can fail, len(output) == l and l <= n.

The reference rule is ``walk_step``, which sees only three node sizes and
so runs on any lattice with Pascal's additive recursion, named by a
``binomial.Lattice`` record: ``PASCAL``, or ``young.YOUNG`` for Young
diagrams.  It appends what it emits to the caller's list and returns the
new l, so a move allocates nothing.  Two things use it:

* ``step``/``run``: the reference walk on a lattice, Pascal's by default,
  checking the node it leaves and the one it reaches and reading exact
  sizes (``binom`` is ``math.comb``, no size cap).  ``walk_tree`` steps
  each move once on the way to every prefix, for ``verify`` and
  ``schursim``, and carries each output as the integer ``pack_code`` makes.
* ``StreamExtractor``: the one streaming engine, on Pascal's triangle: a
  window on C(n, t) decided by compares, with one exact read and
  ``walk_step`` as its fallback.  Its one loop carries the rule inline, so
  no input bit pays for a function call; the engine-vs-``step`` tests pin
  it to ``walk_step``.

The package's input checks live here, beside the walk that first needs
them: ``as_bit`` per bit, ``as_count`` per size, ``as_node`` per lattice
coordinate, ``as_probability`` per p and ``_checked_bits`` per bit source,
text or not, once per call, so the engine's loop tests no bit.  The oracles
import them from here, so the engine loads no oracle.
"""

from __future__ import annotations

import operator
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .binomial import PASCAL, Lattice, as_integer, binom


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
    through ``binomial.as_integer``; anything else, floats and strings included,
    raises ValueError, as does a value below `lo` (None: no floor).  A value
    above `cap` raises `error`."""
    value = as_integer(value, name)
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}")
    if cap is not None and value > cap:
        raise error(f"{name}={value} exceeds cap={cap}")
    return value


def as_node(n, t) -> tuple[int, int]:
    """A lattice coordinate (n, t) as plain ints: n a size (see ``as_count``),
    t any integer, out of range or not, for the caller's convention."""
    return as_count(n), as_count(t, "t", lo=None)


def as_probability(p):
    """A probability p, unchanged: a number in [0, 1].  Anything else, a
    string, None or NaN included, raises ValueError."""
    try:
        if 0 <= p <= 1:
            return p
    except TypeError:  # not a number
        pass
    raise ValueError("p must lie in [0, 1]")


# '0' and '1' to the bytes 0 and 1, any other byte to 2
_TEXT_BITS = bytes({48: 0, 49: 1}.get(c, 2) for c in range(256))


def _checked_bits(bits: "Iterable[int] | str") -> Iterable[int]:
    """A bit source as plain 0/1 ints: the package's one converter.  Text,
    '0'/'1' in a str or a bytes-like object, becomes bytes of 0/1 in one
    ``translate`` pass and raises before any bit is taken.  Any other
    iterable is checked lazily, one cheap test per bit and ``as_bit`` only
    on a miss, so a walk that takes bits one by one raises only on reaching
    a bad one."""
    if isinstance(bits, (str, bytes, bytearray, memoryview)):
        # UnicodeEncodeError is a ValueError
        text = bits.encode("ascii") if isinstance(bits, str) else bytes(bits)
        if 2 in (checked := text.translate(_TEXT_BITS)):
            raise ValueError(f"invalid bit characters {text.translate(None, b'01')[:8]!r}")
        return checked
    return (b if b.__class__ is int and not b >> 1 else as_bit(b) for b in bits)


def parse_bits(bits: "Iterable[int] | str") -> tuple[int, ...]:
    """A bit source, text such as '0110' or bits, as ``_checked_bits``'s tuple."""
    return tuple(_checked_bits(bits))


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


class InvalidNodeError(ValueError):
    """A move would leave its lattice (see ``binomial.Lattice``)."""


def walk_step(here: int, hi: int, lo: int, b: int, l: int, out: list[int]) -> int:
    """The transition rule: emit test and carry cascade of one move.

    With t' = t + b after the move, the arguments are the node sizes
    here = X(n, t'), hi = X(n-1, t') and lo = X(n-1, t'-1) of a lattice,
    so here = hi + lo.  Appends the emitted bits, plain ints, to the caller's
    `out` and returns the new l, so a move allocates nothing.  Checks b
    first (see ``as_bit``): a bad bit leaves `out` as it was.
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


def step(state: ExtractorState, b: int, lattice: Lattice = PASCAL) -> StepResult:
    """Advance one input bit; emit any random bits produced by the move.

    The reference move, three exact reads of `lattice`'s node sizes.  Checks
    first (n, t) by ``as_node``, l by ``as_count``, the node reached by the
    lattice's `valid` (InvalidNodeError), and bit l of the node's size,
    which is hi after b = 0 and lo after b = 1."""
    (n, t), l = as_node(state.n, state.t), as_count(state.l, "l")
    # t' from the truth of b, so any non-bit reaches walk_step's check
    n1, t1 = n + 1, t + (1 if b else 0)
    if not lattice.valid(n1, t1):
        raise InvalidNodeError(f"move to ({n1}, {t1}) leaves the {lattice.name} lattice")
    hi, lo = lattice.size(n, t1), lattice.size(n, t1 - 1)
    if not ((lo if b else hi) >> l) & 1:
        raise ValueError(f"{(n, t, l)} is not a lattice node")
    emitted: list[int] = []
    l = walk_step(lattice.size(n1, t1), hi, lo, b, l, emitted)
    return StepResult(ExtractorState(n1, t1, l), tuple(emitted))


def _check_tapes(state: ExtractorState, out_len: int) -> None:
    """Conservation after a move: the output holds exactly l bits and l <= n,
    i.e. the purity tape never has to pop a bit it never banked."""
    if state.l != out_len or state.l > state.n:
        raise AssertionError(f"bit conservation violated at {state}")


def walk_tree(max_n: int, lattice: Lattice = PASCAL) -> Iterator[tuple[ExtractorState, int]]:
    """(node, output) of every input prefix of length <= max_n on `lattice`
    (every string on Pascal's, every ballot path on ``young.YOUNG``), depth
    first, 0 before 1; the output is an integer whose node.l bits, MSB
    first, are the bits emitted so far.  Each (node, b) is stepped, and its
    conservation checked, once per call: under 1,000 Pascal nodes up to
    n = 20, not 2^21 prefixes.  The memo lives as long as the call."""
    max_n = as_count(max_n)
    moves: dict[ExtractorState, tuple] = {}
    todo = [(initial_state(), 0)]
    while todo:
        state, code = todo.pop()
        yield state, code
        if state.n < max_n:
            pair = moves.get(state)
            if pair is None:  # the moves that stay on the lattice, 1 first
                pair = moves[state] = coded_move(state, 1, lattice) + coded_move(state, 0, lattice)
            try:  # both, as at every node of Pascal's triangle
                node1, k1, v1, node0, k0, v0 = pair
                todo += (node1, code << k1 | v1), (node0, code << k0 | v0)  # pops 0 first
            except ValueError:  # the 0 alone: a 1 would break the Young row condition
                node0, k0, v0 = pair
                todo.append((node0, code << k0 | v0))


def coded_move(state: ExtractorState, b: int, lattice: Lattice) -> tuple:
    """``step(state, b, lattice)`` as (node, number of bits emitted, those
    bits as an integer), its conservation checked; () off the lattice."""
    if not lattice.valid(state.n + 1, state.t + b):
        return ()
    node, emitted = step(state, b, lattice)
    _check_tapes(node, state.l + len(emitted))
    return node, len(emitted), pack_code(emitted)


def pack_code(bits: Iterable[int]) -> int:
    """The integer whose binary digits, MSB first, are `bits` (0 for none)."""
    code = 0
    for b in bits:
        code = code << 1 | b
    return code


def run(bits: "Iterable[int] | str", lattice: Lattice = PASCAL) -> RunResult:
    """Fold ``step`` on `lattice` over an input string from the apex,
    checking conservation after every move.  The bits come through
    ``_checked_bits``: text is checked up front, other bits one by one."""
    state, output = initial_state(), []
    for b in _checked_bits(bits):
        state, emitted = step(state, b, lattice)
        output.extend(emitted)
        _check_tapes(state, len(output))
    return RunResult(tuple(output), state)


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


# G in the window's g = G + q - k bits below l (see ``_window``).  A move
# fails to decide with odds of about 2^(2 - 3G/8), 2^-46 at 128: no fallback
# on 10^7-bit streams at p = 0.05, 0.3, 0.5 and 0.95.  A fallback, like a
# machine resumed from a deep node, pays one exact read: math.comb(131072,
# 39321), a 115,504-bit value, takes 0.15-0.16 s on a 2-core Xeon, and one
# at n = 2^20 takes 5-6.5 s.
_GUARD = 128


def _window(c: int, n: int, l: int, end: int | None = None) -> tuple[int, tuple[int, ...]]:
    """The window on C = c at node (n, ., l), C exact or a window's floor
    bound with l at its g: c0 = C/2^(l-g), floored, and (g, mcap, bit, lim,
    cap, end, low) for ``_walk``.  With q the width of C >> l and G = _GUARD
    as it is now: floor 2^k, k = max(q - 1 - G/4, 0), g = G + q - k, cap 2^w,
    w = q + G/4, lim = 2^g - 2B 2^(w-k); B = 2^(3G/8) moves by default.

    Slot 1, mcap, masks a computed size h0 to its low g + 1 bits and to the
    F = end.bit_length() bits from cap's up (w >= 1 keeps the two apart):
    c0 < cap before every move, and a move to node n <= end multiplies c0 by
    n/v <= n <= end < 2^F, so h0 < cap 2^F.  So h0 >> (g + w) < 2^F fits the
    field, and h0 & mcap >= cap iff h0 >= cap."""
    q = (c >> l).bit_length()  # >= 1 at a lattice node
    k = max(q - 1 - _GUARD // 4, 0)
    g, w, b = _GUARD + q - k, q + _GUARD // 4, 3 * _GUARD // 8
    lim = (1 << g) - (2 << b + w - k)
    end = n + (1 << b) if end is None else end
    cap = 1 << g + w
    mcap = (2 << g) - 1 | ((1 << end.bit_length()) - 1) * cap
    return (c << g) >> l, (g, mcap, 1 << g, lim, cap, end, 1 << g + k)


class StreamExtractor:
    """Unbounded-length engine: three counters plus a window on one coefficient.

    Beyond (n, t, l) it carries only a floor bound on C(n, t)/2^(l-g), g bits
    below l, so each bit costs the same however long the stream.  A move
    reads the next size from an exact ratio, C(n+1, t+1) = C(n, t)(n+1)/(t+1)
    after a 1 or C(n+1, t) = C(n, t)(n+1)/(n-t+1) after a 0, and is decided
    from the low g + 1 bits of that size and of the bound, its quotient cap
    read in the same mask and its move budget as the length of a slice of
    the input (see ``_walk``); only a carry forms the neighbour, their
    difference.  A move whose quotients C >> l the bound cannot prove exact
    takes one exact read of C(n, t) and ``walk_step``, and the window
    restarts from the exact C(n+1, t'); ``fallbacks`` counts these resyncs.
    The exact read is the one costly step (see ``_GUARD``), paid by each
    fallback and by a machine built at a deep node: it can start from any
    lattice node, e.g. to resume a paused walk.  ``push``, ``feed``,
    ``pause_mode_run`` and ``cli extract``, block by block, all run one
    loop, ``_walk``, which also decides when a walk stops.
    """

    __slots__ = ("n", "t", "l", "_c", "_win", "_fallbacks")

    def __init__(self, state: ExtractorState = ExtractorState(0, 0, 0)):
        n, t, l = (as_count(v, name) for v, name in zip(state, "ntl", strict=True))
        c = binom(n, t)
        if not (c >> l) & 1:
            raise ValueError(f"{(n, t, l)} is not a lattice node")
        self.n, self.t, self.l = n, t, l
        self._fallbacks = 0
        self._c, self._win = _window(c, n, l)

    @property
    def state(self) -> ExtractorState:
        return ExtractorState(self.n, self.t, self.l)

    @property
    def fallbacks(self) -> int:
        """Moves the window could not decide, redone from the exact C(n, t)."""
        return self._fallbacks

    @property
    def window_bits(self) -> int:
        """Bit length of the one integer carried, the floor bound on
        C(n, t)/2^(l-g): g plus the width of the quotient C >> l."""
        return self._c.bit_length()

    def push(self, b: int) -> tuple[int, ...]:
        """Feed one bit; return the bits emitted by this move.  A value
        other than 0 or 1 raises ValueError and leaves the state unchanged."""
        return self.feed((b,))

    def feed(self, bits: "Iterable[int] | str") -> tuple[int, ...]:
        """Feed many bits; return the concatenated output.  A bad bit raises
        ValueError; the bits before it stay fed (see ``_checked_bits``)."""
        return tuple(self._walk(_checked_bits(bits)))

    def _exact_move(self, n: int, t: int, b: int, l: int, out: list[int]) -> tuple:
        """The exact move from node (n, t, l) on bit b, counted in
        ``fallbacks``: one exact read of C(n, t), ``walk_step`` appending to
        `out`, and a new window on the exact C(n+1, t'): (n + 1, t', l after
        the move, c0, window)."""
        c = binom(n, t)
        h = c * (n + 1) // (t + 1 if b else n - t + 1)
        x = h - c
        l = walk_step(h, x if b else c, c if b else x, b, l, out)
        self._fallbacks += 1
        return (n + 1, t + b, l, *_window(h, n + 1, l))

    def _walk(self, bits: Iterable[int], demand: int | None = None,
              out: list[int] | bytearray | None = None) -> list[int] | bytearray:
        """The one loop: fold bits through the window, append what they emit
        to `out`, plain 0/1 ints, and return it after the last bit, or after
        the move that brings this call's output to `demand` bits if given (at
        least 1).  `out` is a new list by default; ``cli extract`` passes a
        bytearray, which holds each bit as one byte for ``pack_bits``.

        `bits` are plain 0/1 ints, checked once per call by the caller (see
        ``_checked_bits``), so the loop tests no bit; a lazily checked source
        raises ValueError on reaching a bad bit.  The state lives in locals,
        written back however the loop ends, so the bits before it stay fed.

        Why a decided move is exact.  The window carries c0 <= Ĉ =
        C(n, t)/2^s, s = l - g, with relative error ε = (Ĉ - c0)/Ĉ, and c0's
        quotient is exact: c0 >> g == C(n, t) >> l >= 2^k.  A move computes
        one size, h0 = floor(c0 (n+1)/v) for H = Ĉ(n+1)/v = C(n+1, t')/2^s,
        with v = t+1 after a 1 and n-t+1 after a 0.  The neighbour is X =
        H - Ĉ = Ĉu/v, u = n+1 - v, and as c0 is an integer its floor is
        x0 = h0 - c0 = floor(c0 u/v).  Each floor loses under one unit, so
        X - x0 < εX + 1 and H - h0 < εH + 1.  The bound carried on is h0, or
        floor(h0/2^j) once j bits are emitted and s rises by j; its relative
        error is below ε + 2^j/H <= ε + e, e = 2^-(g+k), if the node reached
        keeps a quotient of 2^k or more.  A silent move never lowers it.  An
        emission that does narrows the window (``_window`` on c0, budget
        end - 1): e at least doubles, the error before the move stays under
        m/2 new e, and the move and the shift add under one each.  An exact
        read, ``__init__``'s or a fallback's, leaves ε < e, so after m moves
        (a narrowing counts as one) ε < (m+1)e.  A move is decided only if
        m < B (n < end), so ε < Be <= 1/2, and only if h0 < cap = 2^(g+w), so
        H < 2 cap: both errors are below 2B 2^(w-k) + 1 = margin + 1.  Then
        low g bits of h0 and of x0 below lim = 2^g - margin mean no error
        reaches bit g: both quotients are exact, the move is the exact move,
        and the invariant holds after it.  As g + k = G + q, g is at most
        G + G/4 + 1 at any depth.

        Why a silent move needs no neighbour.  A decided move is silent iff
        bit g of h0 is 1 and bit g of x0 is 0 (``walk_step`` with here = H).
        Bit g of c0 is 1, as C >> l is odd at a lattice node, so with the
        low g + 1 bits cb of c0 and hm of h0, cb <= hm says that bit g of
        h0 is set and its low g bits are at least c0's.  Then x0 = h0 - c0
        has low g + 1 bits hm - cb < 2^g: bit g of x0 is 0 and its low g
        bits are at most h0's.  Conversely, at a silent move the low g bits
        of x0 and c0 sum to under 2^g, or bit g of h0 would be 0, so
        cb <= hm.  A move is thus silent and decided iff cb <= hm < 2^g + lim,
        h0 < cap and n < end, and after it cb is hm.

        Why the cap is read from the mask.  hm is h0 & mcap, and if c0 <
        cap before a move within the budget, hm >= cap iff h0 >= cap (see
        ``_window``).  By induction c0 < cap before every move: ``_window``
        leaves c0 < 2^(g+q) <= cap, and a decided move carries on h0, or h0
        shifted right, with h0 < cap: as cap >= 2^(g+1) > top = 2^g + lim,
        the silent test cb <= hm < top holds h0 < cap, and so does hm < cb.

        Why an emission borrows.  If cb <= hm and the move is not silent,
        then hm >= top: h0 >= cap, or bit g of h0 is set and its low g bits
        are at least lim.  Either leaves the move undecided, so a decided
        move that emits has hm < cb, and h0 - c0 borrows at bit g + 1.  With
        d = hm - cb, -2^(g+1) < d < 0, x0's low g + 1 bits are d + 2^(g+1),
        so its low g bits are below lim iff d < lim - 2^(g+1) or -2^g <= d <
        lim - 2^g; h0's are below lim iff hm < lim or 2^g <= hm < top.  The
        cascade compares the quotients at bit g + 1 of x0 and c0, Q_h - Q_c
        - 1 (the borrow) and Q_c, with Q_h that of h0: their low bits differ
        iff their sum Q_h - 1 is odd, iff bit g + 1 of h0 is 0.  So when that
        bit is 1 the move emits b alone, c0 becomes h0 >> 1 and cb its low
        g + 1 bits (hm >> 1 with bit g set); only a carry forms x0 and runs
        the cascade.

        Why the budget is the slice length.  Each inner loop takes at most
        end - n bits, so every move it makes is within the budget, n < end,
        and none tests it.  A window that changes (a narrowing, whose end
        is one less, or an exact move) ends the slice, and the outer loop
        slices again from the new window.  A slice that runs out at n = end
        leaves the next bit, if there is one, to the exact move, the move
        the budget test would fail.

        Why no demand walks the whole input.  The walk stops once l >= stop
        = end + 2 of the window last unpacked; l < n after any move, as 2^l
        <= C(n, t) <= 2^(n-1), two entries of row n - 1; and a window starts
        at n <= end + 1 (``_window`` puts end above n; a narrowing at n <= end
        lowers it by one), so no move under it ends past n = end + 2.
        """
        if out is None:
            out = []
        emit = out.append
        n, t, l, c0, win = self.n, self.t, self.l, self._c, self._win
        until = None if demand is None else l + demand  # the l a demand stops at
        bits = iter(bits)
        try:
            while True:
                g, mcap, bit, lim, _, end, low = win
                stop = end + 2 if until is None else until
                g1, two = g + 1, 2 * bit
                m2, top = two - 1, bit + lim  # a move is silent iff cb <= hm < top
                # a borrowing x0's low g bits are below lim iff d = hm - cb is
                # below x_lo, or from x_mid up to below x_hi
                x_lo, x_mid, x_hi = lim - two, -bit, lim - bit
                cb = c0 & m2
                # n and t step first: each move here has n <= end after it
                for n, b in enumerate(islice(bits, max(end - n, 0)), n + 1):
                    if b:
                        t += 1
                        h0 = c0 * n // t
                    else:
                        h0 = c0 * n // (n - t)
                    hm = h0 & mcap
                    if cb <= hm:
                        if hm < top:  # silent
                            c0, cb = h0, hm
                            continue
                    elif ((d := hm - cb) < x_lo or x_mid <= d < x_hi) and (
                            hm < lim or bit <= hm < top):
                        # decided, emits: walk_step's emission and cascade,
                        # inline, on the quotients C >> l at bit g
                        emit(b)
                        if h0 & two:  # no carry
                            l += 1
                            c0 = h0 >> 1
                            cb = c0 & m2
                        else:
                            j = 1
                            q_x, q_c = h0 - c0 >> g1, c0 >> g1
                            while (q_x ^ q_c) & 1:
                                emit((q_x if b else q_c) & 1)  # hi's bit
                                j += 1
                                q_x, q_c = q_x >> 1, q_c >> 1
                            l += j
                            c0 = h0 >> j  # s = l - g rises with l
                            cb = c0 & m2
                        if c0 < low:  # the quotient fell below its floor
                            c0, win = _window(c0, n, g, end - 1)
                            break
                        if l >= stop:
                            return out
                        continue
                    # undecided: the node left, until the exact move makes it
                    n, t = n - 1, t - b
                    n, t, l, c0, win = self._exact_move(n, t, b, l, out)
                    break
                else:  # the slice ran out: the input, or the budget at n = end
                    b = next(bits, None)
                    if b is None:
                        return out
                    n, t, l, c0, win = self._exact_move(n, t, b, l, out)
                if l >= stop:
                    return out
        finally:
            self.n, self.t, self.l, self._c, self._win = n, t, l, c0, win
