import functools
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eliastream import extractor
from eliastream.binomial import binom_bit
from eliastream.extractor import (
    ExtractorState,
    StepResult,
    StreamExtractor,
    TapeLedger,
    fold_steps,
    initial_state,
    pause_mode_run,
    run,
    step,
    von_neumann,
    walk_all,
    walk_step,
)

bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=64)


def test_initial_state_is_apex():
    state = initial_state()
    assert state == ExtractorState(0, 0, 0)
    assert binom_bit(state.n, state.t, state.l) == 1


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
    assert result.ledger.out_len + result.ledger.purity_len == final.n


@given(bit_lists)
@settings(max_examples=300)
def test_node_residency_and_conservation(bits):
    state = initial_state()
    emitted_total = 0
    for b in bits:
        state, emitted = step(state, b)
        emitted_total += len(emitted)
        assert binom_bit(state.n, state.t, state.l) == 1
        assert 0 <= state.t <= state.n
        assert state.l == emitted_total
        assert state.l + (state.n - state.l) == state.n  # both tape counts >= 0
        assert state.n - state.l >= 0


@given(bit_lists)
@settings(max_examples=300)
def test_output_length_bounded_by_node_capacity(bits):
    # l is a set-bit position of C(n, t), so 2^l <= C(n, t)
    from eliastream.binomial import binom

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
            assert engine.ledger == reference.ledger


def test_walk_all_equals_run_on_every_string_in_ascending_order():
    for n in range(11):
        expected = []
        for s in range(1 << n):
            result = run([(s >> (n - 1 - k)) & 1 for k in range(n)])
            expected.append((result.final, result.output))
        assert list(walk_all(n)) == expected


def test_walk_all_rejects_negative_length():
    with pytest.raises(ValueError):
        walk_all(-1)


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
    with pytest.raises(ValueError):
        walk_step(1, 1, 0, 2, 0)


def test_fold_rejects_a_move_that_outruns_the_purity_tape():
    # two bits out of one bit read would pop a purity bit never banked
    def greedy(state, b):
        return StepResult(state._replace(n=state.n + 1, l=state.l + 2), (b, b))

    with pytest.raises(AssertionError):
        fold_steps(greedy, [1])


def test_engine_resumes_only_at_lattice_nodes():
    assert StreamExtractor(ExtractorState(4, 2, 1)).state == (4, 2, 1)  # C(4,2)=6=0b110
    for state in [(4, 2, 0), (4, 5, 0), (3, -1, 0), (2, 1, -1)]:
        with pytest.raises(ValueError):
            StreamExtractor(ExtractorState(*state))


def test_step_beyond_five_thousand_bits_matches_the_engine():
    # n = 6,000 is past TABLE_CAP, the Pascal table's 5,000 rows
    n, t = 6000, 1800
    c = math.comb(n, t)
    for floor in (3000, extractor._CROSSOVER + 400):  # exact engine, then windowed
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


# The window phase, forced from the apex with narrow guards so that both
# window-decided moves and exact fallbacks occur on short streams.
GUARDS = (1, 2, 4, 8, 16)


@contextmanager
def window_from_apex(guard):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extractor, "_CROSSOVER", 0)
        mp.setattr(extractor, "_GUARD", guard)
        yield


@pytest.fixture(params=GUARDS)
def windowed(request):
    with window_from_apex(request.param):
        yield request.param


@functools.cache
def reference_walks(n):
    """Every n-bit string with step()'s (emitted, state, ledger) after each move."""
    walks = []
    for s in range(1 << n):
        bits = [(s >> (n - 1 - k)) & 1 for k in range(n)]
        state, moves = initial_state(), []
        for b in bits:
            state, emitted = step(state, b)
            moves.append((emitted, state, TapeLedger(state.l, state.n - state.l)))
        walks.append((bits, moves))
    return walks


def test_window_matches_reference_exhaustively(windowed):
    # every string of length <= 12 is a prefix of one of length 12
    for bits, moves in reference_walks(12):
        engine = StreamExtractor()
        assert [(engine.push(b), engine.state, engine.ledger) for b in bits] == moves


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
    assert engine.ledger == reference.ledger


def test_window_falls_back_to_exact_moves():
    rng = random.Random(1)
    bits = [int(rng.random() < 0.3) for _ in range(600)]
    with window_from_apex(1):
        narrow = StreamExtractor()
        assert narrow.feed(bits) == run(bits).output
    assert narrow.fallbacks > 0
    exact = StreamExtractor()  # 600 bits stay below the crossover
    exact.feed(bits)
    assert exact.fallbacks == 0
    assert narrow.window_bits < exact.window_bits


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


def test_window_matches_exact_engine_on_a_long_stream(monkeypatch):
    rng = random.Random(50_000)
    bits = [int(rng.random() < 0.3) for _ in range(50_000)]
    windowed = StreamExtractor()
    output = windowed.feed(bits)
    assert windowed.l >= extractor._CROSSOVER  # the window phase was reached
    assert windowed.window_bits < 3 * extractor._GUARD
    monkeypatch.setattr(extractor, "_CROSSOVER", float("inf"))
    exact = StreamExtractor()
    assert exact.feed(bits) == output
    assert exact.state == windowed.state
    assert exact.window_bits > windowed.l
