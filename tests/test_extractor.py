import functools
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eliastream import extractor
from eliastream.binomial import binom
from eliastream.extractor import (
    ExtractorState,
    StepResult,
    StreamExtractor,
    initial_state,
    pause_mode_run,
    run,
    step,
    pack_code,
    von_neumann,
    walk_step,
    walk_tree,
)
from eliastream.young import YOUNG
from oracles import exact_walk

bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=64)


def test_initial_state_is_apex():
    state = initial_state()
    assert state == ExtractorState(0, 0, 0)
    assert binom(state.n, state.t) >> state.l & 1 == 1


@pytest.mark.parametrize(
    "state,b,new_state,emitted",
    [
        (ExtractorState(1, 0, 0), 1, ExtractorState(2, 1, 1), (1,)),
        (ExtractorState(1, 0, 0), 0, ExtractorState(2, 0, 0), ()),
        (ExtractorState(3, 2, 1), 0, ExtractorState(4, 2, 2), (0,)),
        (ExtractorState(0, 0, 0), 0, ExtractorState(1, 0, 0), ()),
        (ExtractorState(0, 0, 0), 1, ExtractorState(1, 1, 0), ()),
    ],
)
def test_step_hand_traces(state, b, new_state, emitted):
    result = step(state, b)
    assert result.state == new_state
    assert result.emitted == emitted
    assert len(result.emitted) == result.state.l - state.l


def test_step_rejects_non_bits():
    for bad in (2, -1, 0.5, None):
        with pytest.raises(ValueError):
            step(initial_state(), bad)


@pytest.mark.parametrize(
    "bits,output,final",
    [
        ("", (), ExtractorState(0, 0, 0)),
        ("01", (1,), ExtractorState(2, 1, 1)),
        ("00", (), ExtractorState(2, 0, 0)),
        ("0110", (1, 0), ExtractorState(4, 2, 2)),
        ("0001", (1, 1), ExtractorState(4, 1, 2)),
        ("01100000", (1, 0, 0, 0), ExtractorState(8, 2, 4)),
    ],
)
def test_run_traces(bits, output, final):
    result = run(bits)
    assert result.output == output
    assert result.final == final
    assert len(result.output) == final.l


@given(bit_lists)
@settings(max_examples=300)
def test_node_residency_and_conservation(bits):
    state = initial_state()
    emitted_total = 0
    for b in bits:
        state, emitted = step(state, b)
        emitted_total += len(emitted)
        assert binom(state.n, state.t) >> state.l & 1 == 1
        assert 0 <= state.t <= state.n
        assert state.l == emitted_total
        assert state.n - state.l >= 0


@given(bit_lists)
@settings(max_examples=300)
def test_output_length_bounded_by_node_capacity(bits):
    # l is a set-bit position of C(n, t), so 2^l <= C(n, t)
    n, t, l = run(bits).final
    assert (1 << l) <= binom(n, t)


def test_von_neumann_examples():
    assert von_neumann("01") == (1,)
    assert von_neumann("10") == (0,)
    assert von_neumann("00") == ()
    assert von_neumann("11") == ()
    assert von_neumann("0101") == (1, 1)
    assert von_neumann("011") == (1,)  # trailing odd bit ignored


def test_streaming_equals_von_neumann_at_two_bits():
    for bits in ("00", "01", "10", "11"):
        assert run(bits).output == von_neumann(bits)


def test_von_neumann_exact_rate():
    # expected emitted bits per input symbol is exactly p0*p1
    for p0 in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)):
        p1 = 1 - p0
        for pairs in (1, 2, 3):
            n = 2 * pairs
            mean = Fraction(0)
            for s in range(1 << n):
                bits = [(s >> (n - 1 - k)) & 1 for k in range(n)]
                weight = sum(bits)
                prob = p0 ** (n - weight) * p1**weight
                mean += prob * len(von_neumann(bits))
            assert mean / n == p0 * p1


def test_pause_mode_zero_demand():
    result = pause_mode_run("111000", 0)
    assert result == ((), 0, ExtractorState(0, 0, 0), (), True)


def test_pause_mode_single_demand():
    result = pause_mode_run("0110", 1)
    assert result.output == (1,)
    assert result.consumed == 2
    assert result.state == ExtractorState(2, 1, 1)
    assert result.satisfied


def test_pause_mode_full_trace():
    result = pause_mode_run("0110", 2)
    assert result.output == (1, 0)
    assert result.consumed == 4
    assert result.satisfied


def test_pause_mode_exhaustion_reported():
    result = pause_mode_run("00", 1)
    assert not result.satisfied
    assert result.output == ()
    assert result.consumed == 2


def test_pause_mode_resume_is_exact():
    # drive the same stream in two demand chunks and compare to one run
    whole = run("00010110").output
    assert len(whole) == 5
    first = pause_mode_run("0001", 1)
    second = pause_mode_run("0110", 4, state=first.state, pending=first.pending)
    assert first.output + second.output == whole
    assert second.satisfied


def test_pause_mode_buffers_multi_bit_moves():
    # "0001" emits two bits in one move; demand=1 must hold one back
    result = pause_mode_run("0001", 1)
    assert result.output == (1,)
    assert result.pending == (1,)
    assert result.consumed == 4
    resumed = pause_mode_run("", 1, state=result.state, pending=result.pending)
    assert resumed.output == (1,)
    assert resumed.consumed == 0
    assert resumed.satisfied


def test_stream_engine_matches_reference_exhaustively():
    for n in range(9):
        for s in range(1 << n):
            bits = [(s >> (n - 1 - k)) & 1 for k in range(n)]
            reference = run(bits)
            engine = StreamExtractor()
            output = engine.feed(bits)
            assert output == reference.output
            assert engine.state == reference.final


def leaves(n):
    """walk_tree's depth-n prefixes as (node, output bits), the code read
    back one bit at a time, MSB first."""
    for node, code in walk_tree(n):
        if node.n == n:
            yield node, tuple(code >> (node.l - 1 - i) & 1 for i in range(node.l))


def test_walk_tree_leaves_equal_run_on_every_string_in_ascending_order():
    for n in range(11):
        expected = []
        for s in range(1 << n):
            result = run([(s >> (n - 1 - k)) & 1 for k in range(n)])
            expected.append((result.final, result.output))
        assert list(leaves(n)) == expected


def test_walk_tree_rejects_negative_depth():
    with pytest.raises(ValueError):
        next(walk_tree(-1))


def naive_walk_all(n):
    """The per-n walk walk_tree replaced: depth first from the apex, stepping
    every prefix anew, with the output carried as a list of bits."""
    output = []
    todo = [(initial_state(), (), 0)]  # (node, bits its move emitted, output length before)
    while todo:
        state, emitted, keep = todo.pop()
        output[keep:] = emitted
        extractor._check_tapes(state, len(output))
        if state.n < n:
            todo += (*step(state, 1), len(output)), (*step(state, 0), len(output))  # pops 0 first
        else:
            yield state, tuple(output)


def test_walk_tree_leaves_equal_the_naive_per_n_walk_in_order():
    for n in range(15):
        assert list(leaves(n)) == list(naive_walk_all(n))


@pytest.mark.parametrize("bits", [(), (0,), (1,), (0, 0, 1), (1, 0, 1, 1), (1,) * 70])
def test_pack_code_reads_bits_msb_first(bits):
    assert pack_code(bits) == sum(b << (len(bits) - 1 - i) for i, b in enumerate(bits))


def test_walk_tree_passes_every_prefix_before_its_extensions():
    def preorder(bits, depth):
        result = run(bits)
        code = int("".join(map(str, result.output)) or "0", 2)
        yield result.final, code
        if len(bits) < depth:
            for b in (0, 1):
                yield from preorder(bits + [b], depth)

    for depth in range(9):
        assert list(walk_tree(depth)) == list(preorder([], depth))


def counting_steps(monkeypatch):
    calls = []

    def counted(state, b, lattice):
        calls.append((state, b))
        return step(state, b, lattice)

    monkeypatch.setattr(extractor, "step", counted)
    return calls


def test_walk_tree_steps_each_move_once_per_call(monkeypatch):
    calls = counting_steps(monkeypatch)
    nodes = {node for node, _ in walk_tree(16) if node.n < 16}
    assert sorted(calls) == sorted((node, b) for node in nodes for b in (0, 1))
    assert len(calls) < 2000  # against 2^17 - 2 moves of the per-prefix walk
    list(walk_tree(16))  # a second call remembers nothing of the first
    assert len(calls) == 4 * len(nodes)


def test_walk_tree_rejects_a_move_that_outruns_the_purity_tape(monkeypatch):
    def greedy(state, b, lattice):
        return StepResult(state._replace(n=state.n + 1, l=state.l + 2), (b, b))

    monkeypatch.setattr(extractor, "step", greedy)
    with pytest.raises(AssertionError, match="conservation"):
        list(walk_tree(1))


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=600))
@settings(max_examples=60, deadline=None)
def test_stream_engine_matches_reference_on_long_inputs(bits):
    reference = run(bits)
    engine = StreamExtractor()
    assert engine.feed(bits) == reference.output
    assert engine.state == reference.final


def test_state_is_three_bounded_integers():
    result = run("0111010001101")
    state = result.final
    assert state._fields == ("n", "t", "l")
    assert all(isinstance(v, int) for v in state)
    assert 0 <= state.t <= state.n
    assert 0 <= state.l <= state.n


@pytest.mark.parametrize("bad", [2, -1, None, "1"])
def test_push_rejects_non_bits_and_keeps_state(bad):
    engine = StreamExtractor()
    head = engine.feed([0, 1, 1])
    before = engine.state
    with pytest.raises(ValueError):
        engine.push(bad)
    assert engine.state == before
    # the coefficients are untouched too: the walk goes on as if never interrupted
    assert head + engine.feed([0, 0, 1]) == run([0, 1, 1, 0, 0, 1]).output


def test_walk_step_checks_the_bit_first():
    out = [1, 0]
    with pytest.raises(ValueError):
        walk_step(1, 1, 0, 2, 0, out)
    assert out == [1, 0]


@pytest.mark.parametrize("b", [0, 1])
def test_walk_step_appends_what_step_emits_at_every_node(b):
    nodes = [ExtractorState(n, t, l) for n in range(13) for t in range(n + 1)
             for l in range(math.comb(n, t).bit_length()) if math.comb(n, t) >> l & 1]
    for node in nodes:
        n, t = node.n + 1, node.t + b
        sizes = math.comb(n, t), math.comb(n - 1, t), math.comb(n - 1, t - 1) if t else 0
        out = [0, 1]
        l = walk_step(*sizes, b, node.l, out)
        moved, emitted = step(node, b)
        assert l == moved.l  # a silent move returns l and appends nothing
        assert out == [0, 1, *emitted] and len(emitted) == l - node.l
        for bad in (2, 0.5, "1"):
            with pytest.raises(ValueError):
                walk_step(*sizes, bad, node.l, out)
            assert out == [0, 1, *emitted]


def test_fold_rejects_a_move_that_outruns_the_purity_tape(monkeypatch):
    # two bits out of one bit read would pop a purity bit never banked
    def greedy(state, b, lattice):
        return StepResult(state._replace(n=state.n + 1, l=state.l + 2), (b, b))

    monkeypatch.setattr(extractor, "step", greedy)
    with pytest.raises(AssertionError):
        run([1])


def test_engine_resumes_only_at_lattice_nodes():
    assert StreamExtractor(ExtractorState(4, 2, 1)).state == (4, 2, 1)  # C(4,2)=6=0b110
    for state in [(4, 2, 0), (4, 5, 0), (3, -1, 0), (2, 1, -1)]:
        with pytest.raises(ValueError):
            StreamExtractor(ExtractorState(*state))


# (state, b, message): refused on Pascal's triangle and on the Young lattice
# alike, before any move; the first would give l = 10 > n = 4.
NOT_NODES = [
    ((3, 0, 9), 0, r"^\(3, 0, 9\) is not a lattice node$"),
    ((4, 2, 0), 0, r"^\(4, 2, 0\) is not a lattice node$"),  # C(4,2) = 6, dim(4,2) = 2
    ((4, 1, 5), 1, r"^\(4, 1, 5\) is not a lattice node$"),  # C(4,1) = 4, dim(4,1) = 3
    ((1, 0, 0.5), 0, "^l must be an integer$"),
    ((2.5, 0, 0), 0, "^n must be an integer$"),
    ((2, 0.5, 0), 1, "^t must be an integer$"),
    (("2", 0, 0), 1, "^n must be an integer$"),
    ((2, 0, -1), 0, "^l must be >= 0$"),
    ((-1, 0, 0), 1, "^n must be >= 0$"),
]


# qstep: step on the Young lattice
@pytest.mark.parametrize("move", [step, functools.partial(step, lattice=YOUNG)], ids=["step", "qstep"])
@pytest.mark.parametrize("state,b,message", NOT_NODES, ids=[repr(c[0]) for c in NOT_NODES])
def test_reference_steps_check_their_node(move, state, b, message):
    with pytest.raises(ValueError, match=message):
        move(ExtractorState(*state), b)


def test_step_beyond_five_thousand_bits_matches_the_engine():
    # n = 6,000 is far past any Pascal table: every size comes from math.comb
    n, t = 6000, 1800
    c = math.comb(n, t)
    for floor in (512, 1424):  # two depths far below the top of C(n, t)
        l = next(l for l in range(floor, c.bit_length()) if (c >> l) & 1)
        state = ExtractorState(n, t, l)
        for b in (0, 1):
            engine = StreamExtractor(state)
            emitted = engine.push(b)
            assert step(state, b) == (engine.state, emitted)


def test_pause_mode_long_stream_matches_streaming_engine():
    rng = random.Random(6000)
    bits = [int(rng.random() < 0.3) for _ in range(6000)]
    full = StreamExtractor().feed(bits)
    demand = len(full) - 5
    whole = pause_mode_run(bits, demand)
    assert whole.satisfied
    assert whole.output == full[:demand]
    replay = StreamExtractor()
    assert replay.feed(bits[: whole.consumed]) == whole.output + whole.pending
    assert whole.state == replay.state
    # a resume split in two matches the single run
    first = pause_mode_run(bits, demand // 3)
    second = pause_mode_run(
        bits[first.consumed :], demand - demand // 3, state=first.state, pending=first.pending
    )
    assert first.output + second.output == whole.output
    assert first.consumed + second.consumed == whole.consumed
    assert (second.state, second.pending) == (whole.state, whole.pending)


# The window from the apex with narrow guards, so that both window-decided
# moves and exact fallbacks occur on short streams.
GUARDS = (1, 2, 4, 8, 16)


@contextmanager
def window_from_apex(guard):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extractor, "_GUARD", guard)
        yield


@pytest.fixture(params=GUARDS)
def windowed(request):
    with window_from_apex(request.param):
        yield request.param


@functools.cache
def reference_walks(n):
    """Every n-bit string with step()'s (emitted, state) after each move."""
    walks = []
    for s in range(1 << n):
        bits = [(s >> (n - 1 - k)) & 1 for k in range(n)]
        state, moves = initial_state(), []
        for b in bits:
            state, emitted = step(state, b)
            moves.append((emitted, state))
        walks.append((bits, moves))
    return walks


def test_window_matches_reference_exhaustively(windowed):
    # every string of length <= 12 is a prefix of one of length 12
    for bits, moves in reference_walks(12):
        engine = StreamExtractor()
        assert [(engine.push(b), engine.state) for b in bits] == moves


@given(
    st.sampled_from(GUARDS),
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=600),
)
@settings(max_examples=60, deadline=None)
def test_window_matches_reference_on_long_inputs(guard, bits):
    reference = run(bits)
    with window_from_apex(guard):
        engine = StreamExtractor()
        assert engine.feed(bits) == reference.output
    assert engine.state == reference.final


def test_window_falls_back_to_exact_moves():
    rng = random.Random(1)
    bits = [int(rng.random() < 0.3) for _ in range(600)]
    reference = run(bits)
    comb, reads = math.comb, []

    def counted(n, t):
        reads.append((n, t))
        return comb(n, t)

    with window_from_apex(1), pytest.MonkeyPatch.context() as mp:
        narrow = StreamExtractor()
        mp.setattr(math, "comb", counted)
        assert narrow.feed(bits) == reference.output
    assert narrow.state == reference.final
    assert narrow.fallbacks > 0
    assert len(reads) == narrow.fallbacks  # one exact coefficient per fallback
    wide = StreamExtractor()  # the default guard decides every move here
    wide.feed(bits)
    assert wide.fallbacks == 0
    assert narrow.window_bits < wide.window_bits


@pytest.mark.parametrize("guard", GUARDS[1:])
def test_the_move_budget_runs_out_within_what_the_margin_covers(guard):
    # Zeros keep C(n, 0) = 1 and l = 0: every window move is decidable, so
    # only the move budget ends a run of them, once every budget + 1 moves.
    with window_from_apex(guard):
        engine, resyncs = StreamExtractor(), []
        for n in range(1, 300):
            assert engine.push(0) == ()
            if engine.fallbacks > len(resyncs):
                resyncs.append(n)
        g, _, _, lim, cap, _, low = engine._win
    budget = resyncs[0] - 1
    assert budget >= 1 and len(resyncs) >= 3
    assert all(b - a == budget + 1 for a, b in zip(resyncs, resyncs[1:]))
    assert engine.state == run([0] * 299).final
    # the proof's obligation: after `budget` moves each computed size is off
    # by under 2 * budget * (quotient cap / quotient floor) + 1 units, and
    # the margin covers it
    assert 2 * budget * (cap // low) <= (1 << g) - lim


@pytest.mark.parametrize("guard", GUARDS[1:])
def test_a_feed_of_exactly_the_budget_makes_no_exact_read(guard, monkeypatch):
    # The loop walks each window's move budget as the length of one slice of
    # the input.  A feed of exactly that many zeros (every move decidable, as
    # above) ends on the budget's last move with no exact read; the next bit,
    # in a later call, takes the one exact move.
    reads = []
    monkeypatch.setattr(extractor, "binom", lambda n, t: reads.append((n, t)) or binom(n, t))
    with window_from_apex(guard):
        engine = StreamExtractor()
        del reads[:]  # the apex's own read
        budget = engine._win[5] - engine.n
        assert engine.feed([0] * budget) == ()
        assert (engine.fallbacks, reads) == (0, [])
        assert engine.push(0) == ()
        assert (engine.fallbacks, reads) == (1, [(budget, 0)])
    assert engine.state == run([0] * (budget + 1)).final


def test_a_quotient_over_the_cap_falls_back():
    # Ones keep C(n, n) = 1; the zero after 40 of them makes C(41, 40) = 41,
    # a quotient over the cap 2^(1 + 16 // 4) = 32 of a 16-bit guard.  Its
    # two sizes are exact multiples of 2^g, so only the cap can stop it.
    bits = [1] * 40 + [0] + [1] * 20
    with window_from_apex(16):
        engine = StreamExtractor()
        assert engine.feed(bits[:40]) == () and engine.fallbacks == 0
        assert engine.feed(bits[40:]) == run(bits).output
    assert engine.state == run(bits).final
    assert engine.fallbacks == 1


def test_the_cap_field_holds_a_size_at_a_huge_depth():
    # The mask's field above the cap is as wide as the budget's end, 161 bits
    # here: a 1 at n = 2^160 + 3 multiplies C(n, 1) by about 2^159, which
    # the field must see to send the move to an exact read.
    state = ExtractorState(2**160 + 3, 1, 160)
    engine = StreamExtractor(state)
    emitted = engine.push(1)
    assert StepResult(engine.state, emitted) == step(state, 1)
    assert engine.fallbacks == 1


@pytest.mark.parametrize("guard", [8, 16])
def test_narrow_guards_decide_some_moves_and_fall_back_on_others(guard):
    rng = random.Random(guard)
    bits = [int(rng.random() < 0.3) for _ in range(2_000)]
    with window_from_apex(guard):
        engine = StreamExtractor()
        assert engine.feed(bits) == run(bits).output
    assert engine.state == run(bits).final
    assert 0 < engine.fallbacks < len(bits)  # every move here is a window move


def deep_node(n=6000, t=1800):
    """A lattice node far below the top of C(n, t): C >> l is 3,855 bits wide."""
    c = math.comb(n, t)
    return ExtractorState(n, t, next(l for l in range(1424, c.bit_length()) if (c >> l) & 1))


def test_the_exact_walk_oracle_matches_step_from_every_node_it_reaches():
    # every string of length <= 12 is a prefix of one of length 12
    for bits, moves in reference_walks(12):
        state = initial_state()
        for b, (emitted, after) in zip(bits, moves):
            assert exact_walk([b], state) == (emitted, after)
            state = after
    # and 200 moves from a node deep below the top of C(n, t)
    rng = random.Random(200)
    state = deep_node()
    for b in (int(rng.random() < 0.3) for _ in range(200)):
        after, emitted = step(state, b)
        assert exact_walk([b], state) == (emitted, after)
        state = after


def test_a_deep_resume_at_high_bias_crosses_the_cap_and_reads_rarely():
    # The cap widens with the quotient at a deep node.  A p = 0.999 stream
    # grows C faster than the walk emits, so the quotient outgrows the cap,
    # 32 bits wider than the quotient at the last exact read, every
    # hundred-odd moves: one exact read each, not one per move.
    rng = random.Random(999)
    bits = [int(rng.random() < 0.999) for _ in range(600)]
    engine = StreamExtractor(deep_node())
    state, output = engine.state, []
    for b in bits:
        state, emitted = step(state, b)
        output += emitted
    assert engine.feed(bits) == tuple(output)
    assert engine.state == state
    assert 0 < engine.fallbacks <= len(bits) // 50


@pytest.mark.parametrize("guard", [extractor._GUARD, *GUARDS])
def test_the_carried_bound_keeps_an_exact_odd_quotient(guard):
    # A silent move is decided from the low g + 1 bits of the next size
    # alone, which rests on bit g of the carried bound being 1: its quotient
    # is C(n, t) >> l, odd at a lattice node.  Checked after every block,
    # across window moves, narrowings and exact reads.
    rng, fallbacks = random.Random(guard), 0
    with window_from_apex(guard):
        for p in (0.05, 0.3, 0.5, 0.95):
            bits = [int(rng.random() < p) for _ in range(2_000)]
            engine = StreamExtractor()
            for at in range(0, len(bits), 97):
                engine.feed(bits[at:at + 97])
                g = engine._win[0]
                assert engine._c >> g == math.comb(engine.n, engine.t) >> engine.l
                assert engine._c >> g & 1
            fallbacks += engine.fallbacks
    assert (fallbacks > 0) == (guard in GUARDS)


def test_a_deep_resume_narrows_its_window_as_the_quotient_falls():
    # At p = 0.3 the walk emits faster than C grows, so from a deep node the
    # quotient falls back to the top of C within 10,000 moves.  The window
    # narrows as it falls, with no exact read: it stays within G/4 + 1 bits
    # plus the guard of the quotient it bounds, never the 3,855 bits it
    # started from.
    rng = random.Random(3)
    bits = [int(rng.random() < 0.3) for _ in range(10_000)]
    start = deep_node()
    windowed, output = StreamExtractor(start), []
    for at in range(0, len(bits), 500):
        output += windowed.feed(bits[at:at + 500])
        q = (math.comb(windowed.n, windowed.t) >> windowed.l).bit_length()
        assert windowed.window_bits <= q + extractor._GUARD + extractor._GUARD // 4 + 1
    assert windowed.fallbacks == 0
    assert windowed.window_bits < 160
    end = windowed._win[5]  # each narrowing spends one move of the budget
    assert end < start.n + (1 << 3 * extractor._GUARD // 8)
    assert exact_walk(bits, start) == (tuple(output), windowed.state)


def test_memory_is_bounded_from_the_first_move():
    # At p = 0.9999 the walk emits 317 bits in 200,000 moves.  From the apex
    # on, the window stays within G/4 + 1 bits plus the guard of the
    # quotient it bounds, never the width of C(n, t).
    rng = random.Random(9999)
    bits = [int(rng.random() < 0.9999) for _ in range(200_000)]
    engine, output = StreamExtractor(), []
    for at in range(0, len(bits), 1_000):
        output += engine.feed(bits[at:at + 1_000])
        q = (math.comb(engine.n, engine.t) >> engine.l).bit_length()
        assert engine.window_bits <= q + extractor._GUARD + extractor._GUARD // 4 + 1
    assert engine.window_bits < 160
    assert engine.fallbacks == 0
    assert exact_walk(bits) == (tuple(output), engine.state)


def test_window_resumes_from_its_own_nodes(windowed):
    rng = random.Random(windowed)
    bits = [int(rng.random() < 0.4) for _ in range(500)]
    first = StreamExtractor()
    head = first.feed(bits[:300])
    resumed = StreamExtractor(first.state)
    tail = resumed.feed(bits[300:])
    assert head + tail == run(bits).output
    assert resumed.state == run(bits).final
    # a demand the input cannot meet makes the on-demand run read it all
    paused = pause_mode_run(bits[300:], len(tail) + 1, state=first.state)
    assert paused.output == tail and paused.state == resumed.state


@pytest.mark.parametrize("bad", [2, -1, None, "1"])
def test_window_push_rejects_non_bits_and_keeps_state(windowed, bad):
    rng = random.Random(3)
    bits = [int(rng.random() < 0.3) for _ in range(80)]
    engine = StreamExtractor()
    head = engine.feed(bits[:40])
    before = (engine.state, engine.fallbacks, engine.window_bits)
    with pytest.raises(ValueError):
        engine.push(bad)
    assert (engine.state, engine.fallbacks, engine.window_bits) == before
    assert head + engine.feed(bits[40:]) == run(bits).output


def test_window_matches_exact_engine_on_a_long_stream():
    rng = random.Random(50_000)
    bits = [int(rng.random() < 0.3) for _ in range(50_000)]
    windowed = StreamExtractor()
    output = windowed.feed(bits)
    # far past l = 1,024 the carried bound stays under 160 bits, while the
    # coefficient it bounds is wider than l
    assert windowed.l > 1_024 and windowed.window_bits < 160
    assert math.comb(windowed.n, windowed.t).bit_length() > windowed.l
    assert exact_walk(bits) == (output, windowed.state)


@pytest.mark.parametrize("form", ["list", "tuple", "text", "generator"])
def test_a_feed_that_emits_more_bits_than_it_reads_walks_them_all(form):
    # A sized feed stops its walk on the int demand n - l + len(bits) + 1.
    # After 1,000 zeros l = 0 at n = 1,000, and the next 1,000 random bits
    # take l past 1,000: a demand without n - l would end that walk early.
    rng = random.Random(1000)
    zeros, rest = [0] * 1_000, [rng.getrandbits(1) for _ in range(1_000)]
    fed = {"list": rest, "tuple": tuple(rest), "text": "".join(map(str, rest)),
           "generator": (b for b in rest)}[form]
    engine = StreamExtractor()
    head = engine.feed(zeros)
    tail = engine.feed(fed)
    assert head == () and len(tail) > len(rest)
    assert (head + tail, engine.state) == run(zeros + rest)


# The two cases keep the names of the phases an earlier engine split the
# walk into: "exact" feeds and breaks it near the apex, "window" carries it on
# past l = 1,024 first.
@pytest.mark.parametrize("phase", ["exact", "window"])
def test_bits_come_out_as_plain_ints_and_floats_are_rejected(phase):
    rng = random.Random(6)
    early = [False, True, True, False, False, True]
    late = [rng.random() < 0.4 for _ in range(3_000)] if phase == "window" else []
    bits = early + late
    engine = StreamExtractor()
    fed = engine.feed(early), engine.feed(late)
    output = fed[0] + fed[1]
    assert (output, engine.state) == exact_walk(map(int, bits))
    pusher = StreamExtractor()
    pushed = [pusher.push(b) for b in bits]
    assert tuple(b for got in pushed for b in got) == output
    paused = pause_mode_run(bits, len(output) - 1)
    produced = paused.output + paused.pending
    assert paused.output == output[:-1] and produced == output[:len(produced)]
    # whatever the walk appends to, each driver returns tuples of plain ints
    for got in (*fed, *pushed, paused.output, paused.pending):
        assert type(got) is tuple and all(type(b) is int for b in got)
    assert (engine.l > 1_024) == (phase == "window")
    head = bits if phase == "window" else [0, 1]
    for bad in (0.0, 1.0):
        engine = StreamExtractor()
        with pytest.raises(ValueError):
            engine.push(bad)
        with pytest.raises(ValueError):
            engine.feed([*head, bad])
        assert engine.state == exact_walk(map(int, head)).final
        with pytest.raises(ValueError):
            pause_mode_run([0, 1, bad], 5)
        with pytest.raises(ValueError):
            step(initial_state(), bad)
        with pytest.raises(ValueError):
            run([0, 1, bad])
    reference = run([True, False])
    assert reference.output == (0,) and type(reference.output[0]) is int


def _unread():
    """An input that fails the test if anything reads it."""
    pytest.fail("input was read")
    yield  # pragma: no cover


@pytest.mark.parametrize(
    "kwargs",
    [
        {"demand": 1.5},
        {"demand": "3"},
        {"demand": 3, "pending": (2,), "state": ExtractorState(2, 1, 1)},
        {"demand": 3, "pending": (1.0,), "state": ExtractorState(2, 1, 1)},
        {"demand": 3, "pending": (1,)},  # l = 0 at the apex: nothing can be pending
        {"demand": 3, "pending": (0, 1), "state": ExtractorState(2, 1, 1)},
        {"demand": 3, "state": ExtractorState(2, 1, 0.5)},
    ],
)
def test_pause_mode_checks_arguments_before_reading_input(kwargs):
    with pytest.raises(ValueError):
        pause_mode_run(_unread(), **kwargs)


def test_engine_rejects_non_int_state_fields():
    for state in [(2, 1, 0.5), (2.0, 1, 0), (2, "1", 0), (2, None, 0)]:
        with pytest.raises(ValueError):
            StreamExtractor(ExtractorState(*state))


def test_one_feed_across_the_handoff_equals_every_other_driver(windowed):
    # narrow guards hand moves from the window to exact reads and back
    rng = random.Random(windowed)
    bits = [int(rng.random() < 0.4) for _ in range(600)]
    fed = StreamExtractor()
    output = fed.feed(bits)
    assert fed.fallbacks > 0
    pushed = StreamExtractor()
    assert tuple(b for bit in bits for b in pushed.push(bit)) == output
    assert (pushed.state, pushed.fallbacks, pushed.window_bits) == (
        fed.state,
        fed.fallbacks,
        fed.window_bits,
    )
    reference = run(bits)
    assert (output, fed.state) == (reference.output, reference.final)
    unmet = pause_mode_run(bits, len(output) + 1)
    assert unmet == (output, len(bits), fed.state, (), False)


# "exact" puts the bad bit early in the walk, "window" puts it late.
@pytest.mark.parametrize("phase", ["exact", "window"])
def test_bad_bit_mid_feed_keeps_the_state_of_the_bits_before_it(windowed, phase):
    rng = random.Random(7)
    bits = [int(rng.random() < 0.4) for _ in range(300)]
    head = 10 if phase == "exact" else 200
    engine, before = StreamExtractor(), StreamExtractor()
    engine.feed(bits[:head])
    before.feed(bits[: head + 20])
    assert (before.l < 40) == (phase == "exact")
    with pytest.raises(ValueError):
        engine.feed(bits[head : head + 20] + [2] + bits[head + 20 :])
    assert (engine.state, engine.fallbacks, engine.window_bits) == (
        before.state,
        before.fallbacks,
        before.window_bits,
    )
    assert engine.feed(bits[head + 20 :]) == before.feed(bits[head + 20 :])
    assert engine.state == run(bits).final


def test_pause_mode_stops_exactly_at_the_demand_in_the_window(windowed):
    rng = random.Random(windowed + 100)
    bits = [int(rng.random() < 0.3) for _ in range(600)]
    full = StreamExtractor().feed(bits)
    for demand in range(1, len(full) + 1, 7):
        paused = pause_mode_run(bits, demand)
        assert paused.satisfied and paused.output == full[:demand]
        # the last bit read is the first that brings the output to the demand
        assert len(StreamExtractor().feed(bits[: paused.consumed - 1])) < demand
        assert StreamExtractor().feed(bits[: paused.consumed]) == paused.output + paused.pending


def test_window_matches_exact_engine_at_benchmark_scale():
    # one extract_long-sized stream at the lowest bias the benchmark uses
    rng = random.Random(131_072)
    bits = [int(rng.random() < 0.05) for _ in range(131_072)]
    windowed = StreamExtractor()
    output = windowed.feed(bits)
    assert windowed.l > 1_024 and windowed.window_bits < 160
    assert windowed.fallbacks == 0
    assert exact_walk(bits) == (output, windowed.state)


@pytest.mark.parametrize("p", [0.01, 0.99])
def test_extreme_biases_stream_through_both_phases(p):
    # the longest silent runs, the moves the window skips without emitting,
    # from the apex to past l = 1,024
    rng = random.Random(40_000)
    bits = [int(rng.random() < p) for _ in range(40_000)]
    windowed = StreamExtractor()
    output = windowed.feed(bits)
    assert windowed.l > 1_024 and windowed.window_bits < 160
    assert windowed.fallbacks == 0
    assert exact_walk(bits) == (output, windowed.state)


# Each call checks its input once: text up front, any other iterable lazily,
# so a bad bit raises only when the walk reaches it.
def test_an_integer_array_feeds_as_its_list():
    bits = np.arange(64) % 2
    assert StreamExtractor().feed(bits) == StreamExtractor().feed(bits.tolist())


def test_an_array_of_numpy_bools_is_rejected():
    engine = StreamExtractor()
    with pytest.raises(ValueError):
        engine.feed(np.array([True, False, True]))
    assert engine.state == initial_state()


@pytest.mark.parametrize("at", [300, 30_000])
def test_a_bad_bit_deep_in_a_list_raises_after_the_bits_before_it(at):
    rng = random.Random(at)
    bits = [int(rng.random() < 0.3) for _ in range(40_000)]
    before = StreamExtractor()
    head = before.feed(bits[:at])
    assert (before.l < 1_024) == (at == 300)  # early, then deep in the list
    engine, out = StreamExtractor(), []
    with pytest.raises(ValueError):
        engine._walk(extractor._checked_bits(bits[:at] + [2] + bits[at:]), out=out)
    assert tuple(out) == head
    assert (engine.state, engine.fallbacks, engine.window_bits) == (
        before.state,
        before.fallbacks,
        before.window_bits,
    )


@pytest.mark.parametrize("bad", [2, -1, None, 0.5])
def test_a_bad_bit_after_a_met_demand_raises_nothing(bad):
    rng = random.Random(11)
    bits = [int(rng.random() < 0.3) for _ in range(6_000)]
    whole = pause_mode_run(bits, 1_500)
    assert whole.satisfied and whole.consumed < len(bits)
    assert pause_mode_run(bits + [bad], 1_500) == whole
    assert pause_mode_run(bits[: whole.consumed] + [bad] + bits, 1_500) == whole


def test_pause_mode_leaves_the_rest_of_a_generator_unread():
    rng = random.Random(12)
    bits = [int(rng.random() < 0.3) for _ in range(6_000)]
    source = iter(bits)
    paused = pause_mode_run((b for b in source), 1_500)
    assert paused.satisfied and paused.consumed < len(bits)
    assert list(source) == bits[paused.consumed :]
