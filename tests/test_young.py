import pytest
from oracles import hook_dim_oracle, path_count

from eliastream.binomial import bin_layout, binom
from eliastream.extractor import (
    ExtractorState,
    InvalidNodeError,
    coded_move,
    initial_state,
    pack_code,
    step,
    walk_step,
    walk_tree,
)
from eliastream.young import (
    YOUNG,
    ballot_paths,
    dim,
    is_valid,
    q_run,
)


@pytest.mark.parametrize(
    "n,t,expected",
    [(0, 0, 1), (1, 0, 1), (2, 0, 1), (2, 1, 1), (3, 1, 2), (4, 2, 2), (6, 2, 9)],
)
def test_dim_known_values(n, t, expected):
    assert dim(n, t) == expected
    assert hook_dim_oracle(n, t) == expected
    assert path_count(n, t) == expected


def test_symmetric_group_on_three_objects_has_dims_one_and_two():
    assert sorted(dim(3, t) for t in range(2)) == [1, 2]


def test_dim_invalid_nodes_are_zero():
    assert dim(1, 1) == 0
    assert dim(2, 2) == 0
    assert dim(4, 3) == 0
    assert dim(3, -1) == 0


def test_three_routes_agree_up_to_twenty():
    for n in range(21):
        for t in range(n // 2 + 1):
            d = dim(n, t)
            assert d == hook_dim_oracle(n, t) == path_count(n, t)
            assert d >= 1


def test_closed_form_is_exact_integer():
    for n in range(21):
        for t in range(n // 2 + 1):
            assert binom(n, t) * (n - 2 * t + 1) % (n - t + 1) == 0


def test_dim_satisfies_additive_recursion():
    for n in range(1, 21):
        for t in range(n // 2 + 1):
            assert dim(n, t) == dim(n - 1, t) + dim(n - 1, t - 1)


def test_path_count_matches_literal_enumeration():
    for n in range(13):
        counts = {}
        for path in ballot_paths(n):
            t = sum(path)
            counts[t] = counts.get(t, 0) + 1
        for t in range(n // 2 + 1):
            assert path_count(n, t) == counts.get(t, 0)


def test_ballot_paths_reject_negative_length():
    # raised at the call, before any path is asked for
    with pytest.raises(ValueError, match="n must be >= 0"):
        ballot_paths(-1)


def test_ballot_paths_of_length_zero_is_the_empty_path():
    assert list(ballot_paths(0)) == [()]


def test_oracles_reject_invalid_nodes():
    with pytest.raises(ValueError):
        hook_dim_oracle(2, 2)
    with pytest.raises(ValueError):
        path_count(3, 2)


def test_qstep_apex_moves():
    state, emitted = step(initial_state(), 0, YOUNG)
    assert state == ExtractorState(1, 0, 0)
    assert emitted == ()
    # one box in each row: the single-path node (2, 1) emits nothing
    state, emitted = step(ExtractorState(1, 0, 0), 1, YOUNG)
    assert state == ExtractorState(2, 1, 0)
    assert emitted == ()


def test_qstep_first_emission_at_three_boxes():
    # the two paths into (3, 1) fuse and emit their distinguishing bit
    out, final = q_run((0, 1, 0))
    assert out == (0,)
    assert final == ExtractorState(3, 1, 1)
    out, final = q_run((0, 0, 1))
    assert out == (1,)
    assert final == ExtractorState(3, 1, 1)


def test_qstep_rejects_invalid_move():
    with pytest.raises(InvalidNodeError):
        step(initial_state(), 1, YOUNG)
    with pytest.raises(InvalidNodeError):
        step(ExtractorState(2, 1, 0), 1, YOUNG)
    assert coded_move(ExtractorState(2, 1, 0), 1, YOUNG) == ()  # walk_tree skips it


def test_qstep_node_residency():
    for n in range(1, 11):
        for path in ballot_paths(n):
            _, final = q_run(path)
            assert (dim(final.n, final.t) >> final.l) & 1 == 1


def test_qstep_cardinality_and_completeness():
    for n in range(13):
        by_node = {}
        for path in ballot_paths(n):
            out, final = q_run(path)
            by_node.setdefault((final.t, final.l), []).append(out)
        for (t, l), outputs in by_node.items():
            assert len(outputs) == 1 << l
            assert len(set(outputs)) == 1 << l
            assert all(len(o) == l for o in outputs)
        for t in range(n // 2 + 1):
            total = sum(1 << l for (tt, l) in by_node if tt == t)
            assert total == dim(n, t)


def test_young_steps_check_the_row_before_reading_any_size():
    reads = []
    counted = YOUNG._replace(size=lambda n, t: reads.append((n, t)) or dim(n, t))
    for state in [(0, 0, 0), (2, 1, 0), (4, 2, 1)]:
        with pytest.raises(InvalidNodeError, match=r"leaves the young lattice"):
            step(ExtractorState(*state), 1, counted)
    assert reads == []
    with pytest.raises(ValueError, match="is not a lattice node") as caught:
        step(ExtractorState(4, 2, 0), 0, counted)  # dim(4, 2) = 2 has no bit 0
    assert type(caught.value) is ValueError


def test_walk_tree_on_young_walks_every_ballot_prefix_in_order():
    for n in range(11):
        walk = [(node, code) for node, code in walk_tree(n, YOUNG) if node.n == n]
        runs = [q_run(path) for path in ballot_paths(n)]
        assert [node for node, _ in walk] == [run.final for run in runs]
        assert [code for _, code in walk] == [pack_code(run.output) for run in runs]


def test_bin_layout_on_young_reads_dimensions():
    for n in range(16):
        for t in range(n // 2 + 1):
            size = dim(n, t)
            assert bin_layout(n, t, YOUNG) == tuple(
                l for l in reversed(range(size.bit_length())) if size >> l & 1)
        for t in (-1, n // 2 + 1, n + 1):
            with pytest.raises(ValueError, match="out of range"):
                bin_layout(n, t, YOUNG)


def test_validity_predicate():
    assert is_valid(4, 2)
    assert not is_valid(3, 2)
    assert not is_valid(2, -1)


# Far past any Pascal table: every dimension comes from math.comb.
BEYOND_TABLE = 6000


@pytest.mark.parametrize("t", [0, 1, 1500, 2999, 3000])
def test_dim_beyond_five_thousand_boxes_matches_hook_lengths(t):
    assert dim(BEYOND_TABLE, t) == hook_dim_oracle(BEYOND_TABLE, t)


def test_qstep_beyond_five_thousand_boxes_matches_hook_lengths():
    n, t = BEYOND_TABLE, 2500
    size = hook_dim_oracle(n, t)
    nodes = [l for l in range(size.bit_length() // 2, size.bit_length()) if (size >> l) & 1]
    for b in (0, 1):
        hook = (hook_dim_oracle(n + 1, t + b), hook_dim_oracle(n, t + b), hook_dim_oracle(n, t + b - 1))
        for l in nodes[:8]:
            emitted = []
            l_next = walk_step(*hook, b, l, emitted)
            assert step(ExtractorState(n, t, l), b, YOUNG) == (
                ExtractorState(n + 1, t + b, l_next), tuple(emitted))
