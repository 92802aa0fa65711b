from fractions import Fraction

import pytest
from oracles import string_prob

from eliastream import extractor, verify
from eliastream.extractor import walk_tree
from eliastream.young import YOUNG, ballot_paths, dim
from eliastream.verify import (
    balanced_paths,
    exhaustive_equivalence,
    statistical_battery,
    tally,
    theorem_bound,
    yield_bound_sweep,
)


def test_equivalence_two_bits_node_populations():
    report = exhaustive_equivalence(2)
    assert report.ok
    records = {(r.t, r.l): r.string_count for r in report.nodes}
    assert records == {(0, 0): 1, (1, 1): 2, (2, 0): 1}


def test_equivalence_four_bits_type_two_counts():
    report = exhaustive_equivalence(4)
    assert report.ok
    records = {(r.t, r.l): r.string_count for r in report.nodes if r.t == 2}
    assert records == {(2, 2): 4, (2, 1): 2}


@pytest.mark.parametrize("n", range(13))
def test_equivalence_holds_exhaustively(n):
    report = exhaustive_equivalence(n)
    assert report.ok, report.violations


def test_equivalence_cap():
    with pytest.raises(ValueError):
        exhaustive_equivalence(verify.EXHAUSTIVE_CAP + 1)


def test_node_populations_consistent_across_sizes():
    # nodes at n+1 derive from nodes at n by the carry recursion; in
    # particular reachable (t, l) sets match the layouts at both sizes
    small = {(r.t, r.l): r.string_count for r in exhaustive_equivalence(7).nodes}
    large = {(r.t, r.l): r.string_count for r in exhaustive_equivalence(8).nodes}
    assert sum(small.values()) * 2 == sum(large.values())
    for (t, l), count in large.items():
        assert count == 1 << l


@pytest.mark.parametrize("suite", [exhaustive_equivalence, balanced_paths])
def test_exhaustive_suites_reject_negative_length(suite):
    with pytest.raises(ValueError):
        suite(-1)


def test_balanced_two_bits():
    report = balanced_paths(2)
    assert report.ok
    assert report.nodes_checked == 1  # only node (1,1) has any output
    assert report.positions_checked == 1


@pytest.mark.parametrize("n", range(11))
def test_balanced_holds_exhaustively(n):
    report = balanced_paths(n)
    assert report.ok, report.violations


def test_balanced_cap():
    with pytest.raises(ValueError):
        balanced_paths(15)


@pytest.fixture(scope="module")
def shared():
    return tally(walk_tree(12), ones_to=12)  # one walk, tallied once for every n <= 12


@pytest.mark.parametrize("n", range(13))
def test_suites_on_a_shared_walk_equal_their_own_enumeration(n, shared):
    assert exhaustive_equivalence(n, shared) == exhaustive_equivalence(n)
    assert balanced_paths(n, shared) == balanced_paths(n)


@pytest.mark.parametrize("suite", [exhaustive_equivalence, balanced_paths])
def test_suites_flag_a_walk_of_another_length(suite):
    report = suite(5, tally(walk_tree(4), ones_to=4))  # no node of depth 5
    assert not report.ok
    assert any("sum to 0" in v or "holds 0 strings" in v for v in report.violations)


def leaves(walk, n):
    return [i for i, (node, _) in enumerate(walk) if node.n == n]


@pytest.mark.parametrize("suite", [exhaustive_equivalence, balanced_paths])
def test_suites_flag_a_walk_missing_one_string(suite):
    walk = list(walk_tree(6))
    del walk[leaves(walk, 6)[5]]
    assert suite(5, tally(walk, ones_to=6)).ok
    assert not suite(6, tally(walk, ones_to=6)).ok


@pytest.mark.parametrize("suite", [exhaustive_equivalence, balanced_paths])
def test_suites_flag_a_walk_with_a_duplicated_output(suite):
    # two strings at one node: the second gets the first one's output
    walk = list(walk_tree(6))
    by_node = {}
    for i in leaves(walk, 6):
        by_node.setdefault(walk[i][0], []).append(i)
    first, second = next(ids for node, ids in by_node.items() if node.l >= 1)[:2]
    walk[second] = walk[first]
    assert not suite(6, tally(walk, ones_to=6)).ok


@pytest.mark.parametrize("suite", [exhaustive_equivalence, balanced_paths])
def test_suites_read_a_one_shot_walk_once(suite):
    walk = walk_tree(6)
    assert suite(6, tally(walk, ones_to=6)) == suite(6)
    assert not suite(6, tally(walk, ones_to=6)).ok  # nothing left to read


def test_balanced_needs_ones_tallied_at_its_depth():
    tallies = tally(walk_tree(6), ones_to=5)
    assert balanced_paths(5, tallies).ok
    with pytest.raises(ValueError, match="no ones tallied"):
        balanced_paths(6, tallies)


@pytest.mark.parametrize("suite, cap", [(exhaustive_equivalence, verify.EXHAUSTIVE_CAP),
                                        (balanced_paths, verify.BALANCED_CAP)])
def test_suites_keep_their_cap_on_a_shared_walk(suite, cap):
    with pytest.raises(ValueError, match=f"n={cap + 1} exceeds cap={cap}"):
        suite(cap + 1, {})
    with pytest.raises(ValueError, match="n must be >= 0"):
        suite(-1, {})


def test_tallies_take_bits_per_output_not_tuples():
    tallies = tally(walk_tree(16))
    level = [acc for node, acc in tallies.items() if node.n == 16]
    assert sum(acc.count for acc in level) == 1 << 16
    assert sum(len(acc.seen) for acc in level) <= (1 << 16) // 8 + len(level)
    assert all(acc.ones is None for acc in level)


def test_streamed_yield_equals_block_yield_exactly():
    # group the exhaustive walk by final node and weight each node's output
    # length by its exact type probability: the mean must be the very same
    # rational the block-side calculator produces
    from eliastream.elias import SourceModel, expected_yield

    for n in (1, 4, 9, 13, 16):
        node_counts = {}
        for state, _ in walk_tree(n):
            if state.n == n:
                key = (state.t, state.l)
                node_counts[key] = node_counts.get(key, 0) + 1
        for p in (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)):
            model = SourceModel(p)
            mean = sum(
                count * l * string_prob(model, n, t)
                for (t, l), count in node_counts.items()
            )
            assert mean == expected_yield(n, model)


def test_yield_bound_trivial_at_one_bit():
    assert theorem_bound(1, Fraction(1, 2)) < 0


def test_yield_bound_sweep_small():
    report = yield_bound_sweep(12)
    assert report.ok, report.violations
    assert len(report.rows) == 12 * 5


@pytest.mark.parametrize("zero_yield", [False, True])
def test_yield_bound_fallback_gives_the_float_report(monkeypatch, zero_yield):
    if zero_yield:  # every n > 2 then violates the bound
        monkeypatch.setattr(verify, "expected_yield", lambda n, model, cap: Fraction(0))
    fast = yield_bound_sweep(12)
    assert fast.ok != zero_yield
    calls = []
    monkeypatch.setattr(verify, "YIELD_FLOAT_MARGIN", float("inf"))
    monkeypatch.setattr(verify, "theorem_bound", lambda n, p: calls.append(n) or theorem_bound(n, p))
    assert yield_bound_sweep(12) == fast
    assert len(calls) == len(fast.rows) == 12 * 5


@pytest.mark.parametrize("max_n", [0, -3])
def test_yield_bound_sweep_rejects_an_empty_sweep(max_n):
    with pytest.raises(ValueError):
        yield_bound_sweep(max_n)


def test_battery_is_deterministic():
    a = statistical_battery(0.4, 20_000, seed=7)
    b = statistical_battery(0.4, 20_000, seed=7)
    assert a == b
    c = statistical_battery(0.4, 20_000, seed=8)
    assert c.output_len != a.output_len or c.monobit_z != a.monobit_z


def test_battery_smoke():
    report = statistical_battery(0.5, 50_000, seed=3)
    assert report.ok
    assert abs(report.rate - 1.0) < 0.05
    assert report.max_position_bias < 0.05


def test_battery_rejects_tiny_samples():
    with pytest.raises(ValueError):
        statistical_battery(0.5, 5_000, seed=1)


@pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
def test_battery_rejects_p_outside_unit_interval(p):
    with pytest.raises(ValueError):
        statistical_battery(p, 20_000, seed=1)


@pytest.fixture(scope="module")
def young_walk():
    return tally(walk_tree(14, YOUNG))  # every ballot path to depth 14, tallied once


@pytest.mark.parametrize("n", range(15))
def test_young_equivalence_holds_on_every_ballot_path(n, young_walk):
    report = exhaustive_equivalence(n, young_walk, YOUNG)
    assert report.ok, report.violations
    assert sum(r.string_count for r in report.nodes) == sum(1 for _ in ballot_paths(n))
    assert {r.t for r in report.nodes} == set(range(n // 2 + 1))
    assert report == exhaustive_equivalence(n, lattice=YOUNG)  # from a walk of its own


@pytest.mark.parametrize("node", [(2, 1), (6, 2), (9, 4), (12, 6)])
def test_a_dimension_wrong_at_one_node_fails_the_young_suite(node):
    n, t = node
    wrong = YOUNG._replace(size=lambda m, u: dim(m, u) + ((m, u) == node))
    assert all(exhaustive_equivalence(m, lattice=wrong).ok for m in range(n))
    report = exhaustive_equivalence(n, lattice=wrong)
    want = f"type {t}: node sizes sum to {dim(n, t)}, want young({n},{t})={dim(n, t) + 1}"
    assert want in report.violations


def one_carry_walk_step(here, hi, lo, b, l, out):
    """walk_step with its carry cascade cut to at most one carry."""
    if (here >> l) & 1 == 0 or ((hi if b else lo) >> l) & 1:
        out.append(b)
        l += 1
        if (hi >> l) & 1 != (lo >> l) & 1:
            out.append((hi >> l) & 1)
            l += 1
    return l


def test_a_walk_step_with_at_most_one_carry_fails_the_young_suite(monkeypatch):
    monkeypatch.setattr(extractor, "walk_step", one_carry_walk_step)
    tallies = tally(walk_tree(9, YOUNG))
    assert all(exhaustive_equivalence(n, tallies, YOUNG).ok for n in range(9))
    assert not exhaustive_equivalence(9, tallies, YOUNG).ok
