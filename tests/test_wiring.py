from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nsboxes.boxes import (
    BoxTable,
    bit_tuples,
    make_correlated,
    make_even_parity,
    make_npr,
    mix,
    is_non_signaling,
    xor_boxes,
)
from nsboxes.distill import (
    derivative_at_fixed_points,
    iterate,
    steps_to_reach,
    t_map,
)
from nsboxes.wiring import (
    Wiring,
    bs_wiring,
    evaluate_wiring,
    identity_wiring,
    make_wiring,
    named_wiring,
    wiring_to_text,
    xor_wiring,
)


def test_identity_wiring_returns_the_box():
    for n in (2, 3):
        box = make_correlated(n, F(1, 3))
        assert evaluate_wiring([box], identity_wiring(n)) == box


@pytest.mark.parametrize("n", [2, 3, 4])
def test_triangle_relations(n):
    pr = make_npr(n)
    even = make_even_parity(n)
    weight = F(1, 2 ** (n - 1))
    bs = bs_wiring(n)
    assert evaluate_wiring([pr, pr], bs) == pr
    assert evaluate_wiring([pr, even], bs) == pr
    assert evaluate_wiring([even, pr], bs) == make_correlated(n, weight)
    assert evaluate_wiring([even, even], bs) == even


def test_boosting_two_weak_copies_matches_scalar_map():
    for n, eps in [(2, F(1, 3)), (3, F(1, 3)), (3, F(1, 2))]:
        box = make_correlated(n, eps)
        boosted = evaluate_wiring([box, box], bs_wiring(n))
        assert boosted == make_correlated(n, t_map(n, eps))


def test_bs_wiring_minimum_parties():
    # the wiring and the scalar boosting map share one floor and one message
    half = F(1, 2)
    calls = (
        lambda: bs_wiring(1),
        lambda: t_map(1, half),
        lambda: iterate(1, half, 0),
        lambda: steps_to_reach(1, half, half),
        lambda: derivative_at_fixed_points(1),
    )
    messages = set()
    for call in calls:
        with pytest.raises(ValueError, match="at least two parties") as info:
            call()
        messages.add(str(info.value))
    assert len(messages) == 1


def test_xor_wiring_degenerates_to_xor_boxes():
    p = make_correlated(2, F(1, 4))
    q = make_npr(2)
    assert evaluate_wiring([p, q], xor_wiring(2)) == xor_boxes(p, q)


def test_named_wirings():
    assert named_wiring("bs", 3) == bs_wiring(3)
    assert named_wiring("identity", 2) == identity_wiring(2)
    assert named_wiring("xor", 2) == xor_wiring(2)
    with pytest.raises(ValueError):
        named_wiring("nope", 2)


def test_evaluate_wiring_validation():
    with pytest.raises(ValueError):
        evaluate_wiring([make_npr(2)], bs_wiring(2))
    with pytest.raises(ValueError):
        evaluate_wiring([make_npr(2), make_npr(3)], bs_wiring(2))


def test_wiring_tables_reject_bad_shapes():
    good = bs_wiring(2)
    with pytest.raises(ValueError):
        Wiring(n=2, m=2, randomness=(F(1, 2),), parties=good.parties)
    with pytest.raises(ValueError):
        Wiring(n=3, m=2, randomness=(F(1),), parties=good.parties)


def test_linearity_in_one_input_box():
    n = 2
    w = bs_wiring(n)
    a1, a2 = make_npr(n), make_even_parity(n)
    b = make_correlated(n, F(1, 3))
    lam = F(2, 7)
    mixed_first = evaluate_wiring([mix([a1, a2], [lam, 1 - lam]), b], w)
    expected = mix(
        [evaluate_wiring([a1, b], w), evaluate_wiring([a2, b], w)],
        [lam, 1 - lam],
    )
    assert mixed_first == expected


def test_shared_randomness_averages_branches():
    # r = 0 forwards the first box, r = 1 flips every output
    def input_rule(i, j, x_i, r, history):
        return x_i

    def output_rule(i, x_i, r, outs):
        return outs[0] ^ r

    w = make_wiring(2, 1, input_rule, output_rule, randomness=(F(1, 2), F(1, 2)))
    box = make_npr(2)
    flipped = evaluate_wiring([box], w)
    assert flipped == box  # PR is symmetric under flipping all outputs


def test_adaptive_second_box_input_depends_on_first_output():
    # party feeds its first output into the second box; the even-parity box
    # emits a shared random bit s, so the second box sees input (s, s) and
    # answers with parity s: the composition is input-independent white noise
    n = 2
    even = make_even_parity(n)
    pr = make_npr(n)

    def input_rule(i, j, x_i, r, history):
        return x_i if j == 0 else history[0]

    def output_rule(i, x_i, r, outs):
        return outs[1]

    w = make_wiring(n, 2, input_rule, output_rule)
    result = evaluate_wiring([even, pr], w)
    assert all(p == F(1, 4) for p in result.entries.values())


@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), min_size=28, max_size=28),
    eps=st.fractions(min_value=0, max_value=1),
)
@settings(max_examples=20, deadline=None)
def test_random_two_box_wirings_yield_valid_non_signaling_boxes(bits, eps):
    """Local wirings on non-signaling boxes give normalized non-signaling boxes."""
    n = 2
    it = iter(bits)

    def input_rule(i, j, x_i, r, history):
        if j == 0:
            return next(it) if x_i else next(it)
        return next(it) ^ (x_i & history[0])

    def output_rule(i, x_i, r, outs):
        return next(it) ^ outs[0] ^ outs[1]

    w = make_wiring(n, 2, input_rule, output_rule)
    boxes = [make_correlated(n, eps), make_even_parity(n)]
    result = evaluate_wiring(boxes, w)  # construction validates normalization
    assert is_non_signaling(result)


def test_wiring_text_is_deterministic_and_complete():
    text1 = wiring_to_text(bs_wiring(2), name="bs")
    text2 = wiring_to_text(bs_wiring(2), name="bs")
    assert text1 == text2
    party = (
        "  box 1 input: x=0 r=0 seen=- -> 0; x=1 r=0 seen=- -> 1\n"
        "  box 2 input: x=0 r=0 seen=0 -> 0; x=0 r=0 seen=1 -> 0; "
        "x=1 r=0 seen=0 -> 1; x=1 r=0 seen=1 -> 0\n"
        "  output: x=0 r=0 outs=00 -> 0; x=0 r=0 outs=10 -> 1; "
        "x=0 r=0 outs=01 -> 1; x=0 r=0 outs=11 -> 0; "
        "x=1 r=0 outs=00 -> 0; x=1 r=0 outs=10 -> 1; "
        "x=1 r=0 outs=01 -> 1; x=1 r=0 outs=11 -> 0\n"
    )
    expected = (
        "wiring bs n=2 boxes=2 randomness=1\n"
        "r=0 weight=1\n"
        "party 1:\n" + party + "party 2:\n" + party
    )
    assert text1 == expected
    assert wiring_to_text(bs_wiring(2)) == expected.replace("wiring bs ", "wiring ")


def test_three_box_wiring_reads_the_second_output():
    # box 1 (even parity) outputs a shared random bit s to both parties,
    # box 2 copies each party's input, and box 3 (PR) is fed box 2's output
    # while the final bit is box 3's output.  Box 3 therefore sees the real
    # inputs and the result is the PR table.  Reading box 1's output
    # instead (a swapped slot order) would feed (s, s) and give white noise.
    n = 2
    copy = BoxTable(n, {(x, x): F(1) for x in bit_tuples(n)})

    def input_rule(i, j, x_i, r, history):
        return x_i if j < 2 else history[1]

    def output_rule(i, x_i, r, outs):
        return outs[2]

    w = make_wiring(n, 3, input_rule, output_rule)
    for rules in w.parties:
        for x_i in (0, 1):
            # slot h holds box t + 1's output at bit t
            assert rules.steps[2][x_i][0] == tuple((h >> 1) & 1 for h in range(4))
            assert rules.output[x_i][0] == tuple((h >> 2) & 1 for h in range(8))
    result = evaluate_wiring([make_even_parity(n), copy, make_npr(n)], w)
    for x in bit_tuples(n):
        for c in bit_tuples(n):
            expected = F(1, 2) if c[0] ^ c[1] == x[0] & x[1] else F(0)
            assert result.prob(x, c) == expected
