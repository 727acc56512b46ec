import itertools
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nsboxes.boolfn import AnfFunction, parse_expr
from nsboxes.boxes import (
    BoxTable,
    bit_tuples,
    check_int,
    check_positive_weight,
    is_non_signaling,
    make_correlated,
    make_even_parity,
    make_full_correlation,
    make_npr,
    mix,
    xor_boxes,
    xor_star,
)
from nsboxes.commcost import verify_plan_end_to_end
from nsboxes.distill import iterate, steps_to_reach, t_map
from nsboxes.locality import NORM, NonlocalityCertificate
from nsboxes.lp import solve_equality_feasibility
from nsboxes.wiring import Wiring, bs_wiring, make_wiring


WEIGHTS = [F(0), F(1, 3), F(1, 2), F(1)]


def full_correlation_table(n, f):
    """Reference table built entry by entry: 1/2^(n-1) iff parity(a) == f(x)."""
    return BoxTable(n, {
        (x, a): F(1, 2 ** (n - 1))
        for x in bit_tuples(n)
        for a in bit_tuples(n)
        if sum(a) % 2 == f(x)
    })


def random_anf(rng, n):
    monomials = [
        {i + 1 for i in range(n) if mask >> i & 1}
        for mask in range(2 ** n)
        if rng.random() < 0.3
    ]
    return AnfFunction(n, monomials)


def test_npr_two_party_values():
    box = make_npr(2)
    # on input (1,1) only the odd-parity outputs carry weight 1/2
    assert box.prob((1, 1), (0, 1)) == F(1, 2)
    assert box.prob((1, 1), (1, 0)) == F(1, 2)
    assert box.prob((1, 1), (0, 0)) == 0
    assert box.prob((1, 1), (1, 1)) == 0


def test_npr_three_party_product_zero_input():
    box = make_npr(3)
    for a in bit_tuples(3):
        expected = F(1, 4) if sum(a) % 2 == 0 else F(0)
        assert box.prob((0, 0, 0), a) == expected


def test_npr_normalized_and_non_signaling_n4():
    box = make_npr(4)
    for x in bit_tuples(4):
        assert sum(box.prob(x, a) for a in bit_tuples(4)) == 1
    assert is_non_signaling(box)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_constructors_non_signaling(n):
    f = AnfFunction(n, [frozenset(range(1, n + 1)), frozenset([1])])
    g = AnfFunction(n, [frozenset([n])])
    for box in [
        make_npr(n),
        make_even_parity(n),
        make_correlated(n, F(1, 3)),
        make_full_correlation(f),
        xor_star([f, g], F(2, 5)),
    ]:
        check = is_non_signaling(box)
        assert check.ok and check.witness is None


def test_npr_party_count_range():
    with pytest.raises(ValueError):
        make_npr(0)
    with pytest.raises(ValueError):
        make_npr(9)


def test_even_parity_input_independent():
    box = make_even_parity(2)
    reference = [box.prob((0, 0), a) for a in bit_tuples(2)]
    for x in bit_tuples(2):
        assert [box.prob(x, a) for a in bit_tuples(2)] == reference


def test_even_parity_is_correlated_at_zero():
    assert make_even_parity(2) == make_correlated(2, F(0))


def test_correlated_endpoints():
    assert make_correlated(3, F(1)) == make_npr(3)
    assert make_correlated(3, F(0)) == make_even_parity(3)


def test_correlated_mixture_entry():
    # 1/2 * 1/2 + 1/2 * 0 at the odd-parity output of input (1,1)
    box = make_correlated(2, F(1, 2))
    assert box.prob((1, 1), (0, 1)) == F(1, 4)
    # every entry is eps * PR + (1 - eps) * even of the reference tables
    for n in range(1, 6):
        npr = full_correlation_table(n, all)
        even = full_correlation_table(n, lambda x: 0)
        for eps in WEIGHTS:
            box = make_correlated(n, eps)
            for key, p in box.entries.items():
                assert p == eps * npr.entries[key] + (1 - eps) * even.entries[key]


def test_correlated_eps_range():
    with pytest.raises(ValueError):
        make_correlated(2, F(3, 2))
    with pytest.raises(ValueError):
        make_correlated(2, F(-1, 2))


def test_full_correlation_special_cases():
    assert make_full_correlation(AnfFunction(2, [{1, 2}])) == make_npr(2)
    assert make_full_correlation(AnfFunction(3, [])) == make_even_parity(3)


def test_full_correlation_four_party_example_non_signaling():
    f = parse_expr("x1*x2*x3 + x3*x4 + x1", 4)
    assert is_non_signaling(make_full_correlation(f))


def test_mix_identity_and_restatement():
    for n in range(1, 6):
        npr = make_npr(n)
        even = make_even_parity(n)
        assert npr == full_correlation_table(n, all)
        assert even == full_correlation_table(n, lambda x: 0)
        assert mix([npr], [F(1)]) == npr
        for eps in WEIGHTS:
            assert mix([npr, even], [eps, 1 - eps]) == make_correlated(n, eps)


def test_mix_validation():
    with pytest.raises(ValueError):
        mix([make_npr(2), make_npr(3)], [F(1, 2), F(1, 2)])
    with pytest.raises(ValueError):
        mix([make_npr(2), make_npr(2)], [F(1, 2), F(1, 4)])
    with pytest.raises(ValueError):
        mix([make_npr(2)], [F(2)])


@given(
    w=st.fractions(min_value=0, max_value=1),
    n=st.integers(min_value=2, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_mix_of_non_signaling_is_non_signaling(w, n):
    mixed = mix([make_npr(n), make_even_parity(n)], [w, 1 - w])
    assert is_non_signaling(mixed)


def test_xor_with_even_parity_preserves_full_correlation_boxes():
    for text, n in [("x1*x2", 2), ("x1*x2 + x3", 3)]:
        box = make_full_correlation(parse_expr(text, n))
        assert xor_boxes(box, make_even_parity(n)) == box


def test_xor_of_full_correlation_boxes_adds_functions():
    f1 = parse_expr("x1*x2", 3)
    f2 = parse_expr("x2*x3 + x1", 3)
    lhs = xor_boxes(make_full_correlation(f1), make_full_correlation(f2))
    assert lhs == make_full_correlation(f1 ^ f2)


def test_xor_box_with_itself_gives_even_parity():
    box = make_full_correlation(parse_expr("x1*x2 + x3", 3))
    assert xor_boxes(box, box) == make_even_parity(3)


def test_xor_boxes_dimension_mismatch():
    with pytest.raises(ValueError):
        xor_boxes(make_npr(2), make_npr(3))


def reference_xor_boxes(p, q):
    """The pair loop: every pair of nonzero outputs of one input, XORed bitwise."""
    n = p.n
    entries = {(x, c): F(0) for x in bit_tuples(n) for c in bit_tuples(n)}
    for x in bit_tuples(n):
        for a, pa in p.support(x):
            for b, qb in q.support(x):
                entries[(x, tuple(ai ^ bi for ai, bi in zip(a, b)))] += pa * qb
    return BoxTable(n, entries)


def reference_mix(boxes, weights):
    """The Fraction sum, entry by entry."""
    return BoxTable(boxes[0].n, {
        key: sum((w * b.entries[key] for b, w in zip(boxes, weights)), F(0))
        for key in boxes[0].entries
    })


def random_general_box(rng, n):
    """A seeded box whose rows hold one, two or all outputs, each row over its own denominator.

    Most such boxes signal: the table algebra takes any box.
    """
    outputs = list(bit_tuples(n))
    entries = {}
    for x in bit_tuples(n):
        chosen = rng.sample(outputs, rng.choice([1, 2, len(outputs)]))
        weights = [rng.randint(1, 9) for _ in chosen]
        for a, w in zip(chosen, weights):
            entries[(x, a)] = F(w, sum(weights))
    return BoxTable(n, entries)


def assert_same_box(got, want):
    assert got.entries == want.entries
    assert hash(got) == hash(want)


@pytest.mark.parametrize("n, cases", [(1, 6), (2, 6), (3, 6), (4, 6), (5, 4), (6, 1)])
def test_xor_boxes_matches_the_pair_loop(n, cases):
    rng = random.Random(n)
    pairs = [(random_general_box(rng, n), random_general_box(rng, n)) for _ in range(cases)]
    pairs.append((random_general_box(rng, n), make_correlated(n, F(1, 3))))
    if n > 1:
        assert any(not is_non_signaling(p) for p, _ in pairs)
    for p, q in pairs:
        assert_same_box(xor_boxes(p, q), reference_xor_boxes(p, q))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mix_matches_the_fraction_sum(n):
    rng = random.Random(10 + n)
    boxes = [random_general_box(rng, n), make_correlated(n, F(2, 7)), random_general_box(rng, n)]
    for weights in ([F(1, 3), F(1, 6), F(1, 2)], [F(0), F(4, 9), F(5, 9)], [F(0), F(0), F(1)]):
        assert_same_box(mix(boxes, weights), reference_mix(boxes, weights))
    assert_same_box(mix(boxes[:1], [F(1)]), boxes[0])


def test_check_int_names_a_huge_value_by_its_size():
    with pytest.raises(ValueError, match=re.escape("steps must be in 0..8, got an int of 16610 bits")):
        check_int(10 ** 5000, "steps", 0, 8)
    with pytest.raises(ValueError, match=re.escape(f"got {-2 ** 255}")):
        check_int(-2 ** 255, "steps", 0)


def test_xor_star_single_function():
    f = AnfFunction(2, [{1, 2}])
    assert xor_star([f], F(1, 3)) == make_correlated(2, F(1, 3))


def test_xor_star_combines_functions_before_mixing():
    f1 = parse_expr("x1*x2", 3)
    f2 = parse_expr("x2*x3", 3)
    eps = F(2, 5)
    expected = mix(
        [make_full_correlation(f1 ^ f2), make_even_parity(3)], [eps, 1 - eps]
    )
    assert xor_star([f1, f2], eps) == expected
    # the general algebra agrees: XOR the perfect boxes, then mix once
    rng = random.Random(3)
    for n in range(1, 6):
        for count in (2, 3):
            functions = [random_anf(rng, n) for _ in range(count)]
            tables = [full_correlation_table(n, f.evaluate) for f in functions]
            assert [make_full_correlation(f) for f in functions] == tables
            combined = tables[0]
            for table in tables[1:]:
                combined = xor_boxes(combined, table)
            for eps in WEIGHTS:
                expected = mix([combined, make_even_parity(n)], [eps, 1 - eps])
                assert xor_star(functions, eps) == expected


def test_xor_star_is_not_xor_of_independent_mixtures():
    # correlated errors: eps * (P xor P) + (1-eps) * even = even-parity;
    # independent errors instead leave weight 2 eps (1-eps) on the PR part
    f = AnfFunction(2, [{1, 2}])
    eps = F(1, 2)
    correlated_err = xor_star([f, f], eps)
    independent = xor_boxes(make_correlated(2, eps), make_correlated(2, eps))
    assert correlated_err == make_even_parity(2)
    assert independent == make_correlated(2, 2 * eps * (1 - eps))
    assert correlated_err != independent


def marginal(p, parties):
    """Output marginal over a party subset, for each full input x.

    `parties` holds 1-based party indices.  Returns a map from (x, a_sub) to
    probability, where a_sub lists the subset's outputs in increasing party
    order.  The subset-marginal oracle for `is_non_signaling` below.
    """
    subset = sorted(set(parties))
    if not subset:
        raise ValueError("marginal requires a nonempty party subset")
    if subset[0] < 1 or subset[-1] > p.n:
        raise ValueError(f"party indices must lie in 1..{p.n}")
    idx = [i - 1 for i in subset]
    out = {}
    for (x, a), v in p.entries.items():
        key = (x, tuple(a[i] for i in idx))
        out[key] = out.get(key, F(0)) + v
    return out


def test_marginal_full_subset_is_identity():
    box = make_npr(2)
    assert marginal(box, [1, 2]) == box.entries


def test_marginal_single_party_of_npr_uniform():
    for n in (2, 3):
        box = make_npr(n)
        for k in range(1, n + 1):
            values = marginal(box, [k])
            assert set(values.values()) == {F(1, 2)}


def test_marginal_proper_subsets_of_full_correlation_uniform():
    box = make_full_correlation(parse_expr("x1*x2*x3 + x2", 3))
    for subset in [[1], [2], [3], [1, 2], [1, 3], [2, 3]]:
        values = marginal(box, subset)
        assert set(values.values()) == {F(1, 2 ** len(subset))}


def test_marginal_even_parity_input_independent():
    box = make_even_parity(3)
    values = marginal(box, [1, 3])
    for a_sub in bit_tuples(2):
        per_input = {values[(x, a_sub)] for x in bit_tuples(3)}
        assert len(per_input) == 1


def test_marginal_empty_subset_rejected():
    with pytest.raises(ValueError):
        marginal(make_npr(2), [])


def brute_force_non_signaling(box):
    """Oracle from the subset-marginal definition: every party subset's
    output marginal must not change when inputs outside the subset move."""
    n = box.n
    parties = list(range(1, n + 1))
    for size in range(1, n):
        for subset in itertools.combinations(parties, size):
            seen = {}
            values = marginal(box, subset)
            idx = [i - 1 for i in subset]
            for (x, a_sub), p in values.items():
                key = (tuple(x[i] for i in idx), a_sub)
                if key in seen and seen[key] != p:
                    return False
                seen[key] = p
    return True


def test_flip_condition_agrees_with_marginal_definition():
    cases = [
        make_npr(2),
        make_npr(3),
        make_even_parity(3),
        make_correlated(3, F(1, 3)),
        make_full_correlation(parse_expr("x1*x2 + x3", 3)),
    ]
    for box in cases:
        assert bool(is_non_signaling(box)) == brute_force_non_signaling(box)
    entries = {}
    for x in bit_tuples(2):
        for a in bit_tuples(2):
            entries[(x, a)] = F(1, 2) if a[1] == x[0] else F(0)
    signaling = BoxTable(n=2, entries=entries)
    assert not brute_force_non_signaling(signaling)
    assert not is_non_signaling(signaling)


def test_signaling_box_detected_with_witness():
    # party 1's input copied to party 2's output
    entries = {}
    for x in bit_tuples(2):
        for a in bit_tuples(2):
            entries[(x, a)] = F(1, 2) if a[1] == x[0] else F(0)
    box = BoxTable(n=2, entries=entries)
    check = is_non_signaling(box)
    assert not check
    k, x, x_flip, _ = check.witness
    assert k == 1
    assert x[0] != x_flip[0]


def reference_signaling_witness(p):
    """The first single-party flip violation, found by the tuple walk."""
    n = p.n
    for k in range(n):
        for x in bit_tuples(n):
            if x[k] == 1:
                continue
            x_flip = x[:k] + (1,) + x[k + 1:]
            for a_rest in bit_tuples(n - 1):
                totals = [F(0), F(0)]
                for ak in (0, 1):
                    a = a_rest[:k] + (ak,) + a_rest[k:]
                    totals[0] += p.entries[(x, a)]
                    totals[1] += p.entries[(x_flip, a)]
                if totals[0] != totals[1]:
                    return (k + 1, x, x_flip, a_rest)
    return None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_signaling_witness_matches_the_tuple_walk(n):
    rng = random.Random(n)
    base_boxes = [make_correlated(n, F(1, 3)), make_npr(n), make_even_parity(n)]
    for trial in range(12):
        base = base_boxes[trial % len(base_boxes)]
        entries = dict(base.entries)
        # Move mass between two outputs of one input row, in one or two rows,
        # so that some boxes signal at more than one pair of inputs.
        for _ in range(1 + trial % 2):
            x = tuple(rng.randrange(2) for _ in range(n))
            donor = rng.choice([a for a in bit_tuples(n) if entries[(x, a)] > 0])
            taker = rng.choice([a for a in bit_tuples(n) if a != donor])
            moved = entries[(x, donor)] * F(rng.randrange(1, 5), 4)
            entries[(x, donor)] -= moved
            entries[(x, taker)] += moved
        box = BoxTable(n, entries)
        check = is_non_signaling(box)
        assert not check
        assert check.witness == reference_signaling_witness(box)


def test_box_equal():
    assert make_npr(2) == make_npr(2)
    assert make_correlated(3, F(1)) == make_npr(3)
    assert make_correlated(3, F(1, 2)) != make_correlated(3, F(1, 3))


def test_box_table_is_immutable_and_hashable():
    box = make_npr(2)
    key = ((0, 0), (0, 0))
    with pytest.raises(TypeError):
        box.entries[key] = 7
    assert box.prob(*key) == F(1, 2)
    assert hash(box) == hash(make_correlated(2, F(1)))
    assert {box, make_correlated(2, F(1)), make_even_parity(2)} == {
        make_npr(2),
        make_even_parity(2),
    }


def _zero_rule(*_):
    return 0


def test_box_table_rejects_float_probabilities():
    entries = {
        (x, a): 0.5
        for x in bit_tuples(2)
        for a in bit_tuples(2)
        if a[0] == a[1]
    }
    with pytest.raises(TypeError, match="float probability"):
        BoxTable(2, entries)
    f = parse_expr("x1*x2", 2)
    for call in (
        lambda: make_correlated(2, 0.1),
        lambda: mix([make_npr(2), make_even_parity(2)], [0.5, 0.5]),
        lambda: xor_star([f], 0.5),
        lambda: t_map(2, 0.5),
        lambda: iterate(2, 0.5, 1),
        lambda: steps_to_reach(2, 0.1, 0.5),
        lambda: steps_to_reach(2, F(1, 10), 0.5),
        lambda: verify_plan_end_to_end(f, 0.5, 1),
        lambda: make_wiring(1, 1, _zero_rule, _zero_rule, (0.5, 0.5)),
        lambda: make_wiring(1, 1, _zero_rule, _zero_rule, (0.1, 0.9)),
        lambda: Wiring(2, 2, (0.5, 0.5), bs_wiring(2).parties),
    ):
        with pytest.raises(TypeError, match="float weight"):
            call()
    with pytest.raises(TypeError, match="float LP coefficient"):
        solve_equality_feasibility([[0]], [0.1])
    with pytest.raises(TypeError, match="float certificate dual"):
        NonlocalityCertificate({NORM: 0.5}).verify(make_npr(2))


def test_check_positive_weight_checks_range_then_type():
    assert check_positive_weight(1) == F(1)
    assert check_positive_weight(F(1, 3)) == F(1, 3)
    for eps, shown in ((0, "0"), (F(3, 2), "3/2"), (1.5, "1.5")):
        with pytest.raises(ValueError, match=re.escape(f"eps must be in (0, 1], got {shown}")):
            check_positive_weight(eps)
    with pytest.raises(TypeError, match="float weight"):
        check_positive_weight(0.5)


def test_box_table_rejects_bad_distributions():
    entries = {((0,), (0,)): F(1, 2), ((0,), (1,)): F(1, 4),
               ((1,), (0,)): F(1, 2), ((1,), (1,)): F(1, 2)}
    with pytest.raises(ValueError, match="sums to"):
        BoxTable(n=1, entries=entries)
    entries = {((0,), (0,)): F(3, 2), ((0,), (1,)): F(-1, 2),
               ((1,), (0,)): F(1, 2), ((1,), (1,)): F(1, 2)}
    with pytest.raises(ValueError, match="negative"):
        BoxTable(n=1, entries=entries)
