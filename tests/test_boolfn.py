import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nsboxes.boolfn import (
    AnfFunction,
    ExprSyntaxError,
    anf,
    anf_from_truth_table,
    local_part,
    monomial_function,
    nonlocal_support,
    parse_expr,
)
from nsboxes.boxes import bit_tuples


def monomials_of(f):
    return sorted(sorted(m) for m in f.monomials)


class TestParser:
    def test_four_party_example(self):
        f = parse_expr("x1*x2*x3 + x3*x4 + x1", 4)
        assert monomials_of(f) == [[1], [1, 2, 3], [3, 4]]

    def test_six_party_example(self):
        f = parse_expr("x1*x2 + x2*x3 + x4*x5*x6 + x5", 6)
        assert monomials_of(f) == [[1, 2], [2, 3], [4, 5, 6], [5]]

    def test_gf2_cancellation(self):
        assert parse_expr("x1 + x1", 1).monomials == frozenset()

    def test_whitespace_and_constants(self):
        assert parse_expr("x1 x2 + 1", 2).monomials == frozenset(
            {frozenset({1, 2}), frozenset()}
        )
        assert parse_expr("0", 3).monomials == frozenset()
        assert parse_expr("x2 * x1 * x2", 2).monomials == frozenset({frozenset({1, 2})})

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("x1 + ! x2", 2)
        assert err.value.position == 5

    def test_variable_out_of_range(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x1*x5", 4)
        with pytest.raises(ExprSyntaxError):
            parse_expr("x0", 2)

    def test_variable_index_past_the_int_digit_limit(self):
        # the index is range-checked before any conversion to int
        with pytest.raises(ExprSyntaxError, match=r"outside x1\.\.x2 \(at position 3\)"):
            parse_expr("x1*x" + "9" * 5000, 2)
        with pytest.raises(ExprSyntaxError, match=r"outside x1\.\.x3 \(at position 0\)"):
            parse_expr("x" + "1" * 5000, 3)
        with pytest.raises(ExprSyntaxError, match="outside x1..x3"):
            parse_expr("x00", 3)
        assert parse_expr("x" + "0" * 5000 + "2", 3) == parse_expr("x2", 3)

    def test_rejects_non_ascii_xor(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x1 ⊕ x2", 2)

    @pytest.mark.parametrize("text, char, position", [
        ("x\u0661*x\u0662", "\u0661", 1),  # Arabic-Indic digits one and two
        ("x1\u2003x2", "\u2003", 2),  # em space
        ("x1\xa0x2", "\xa0", 2),  # no-break space
    ])
    def test_rejects_non_ascii_digits_and_spaces(self, text, char, position):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, 2)
        assert str(err.value) == f"unexpected character {char!r} (at position {position})"

    @pytest.mark.parametrize("text", ["x", "x1*x", "x1 x", "x + x1"])
    def test_rejects_a_bare_x(self, text):
        with pytest.raises(ExprSyntaxError, match="variable x outside x1..x2"):
            parse_expr(text, 2)

    def test_rejects_empty_terms(self):
        for bad in ["", "x1 +", "+ x1", "x1 + + x2", "x1 * + x2", "x1 *"]:
            with pytest.raises(ExprSyntaxError):
                parse_expr(bad, 2)

    def test_roundtrip_with_renderer(self):
        f = parse_expr("x1*x2*x3 + x3*x4 + x1 + 1", 4)
        assert parse_expr(f.to_text(), 4) == f


class TestEvaluation:
    def test_four_party_example_point(self):
        f = parse_expr("x1*x2*x3 + x3*x4 + x1", 4)
        assert f.evaluate((1, 1, 1, 0)) == 0

    def test_constant_one(self):
        one = anf(3, [()])
        assert all(one.evaluate(x) == 1 for x in bit_tuples(3))

    def test_empty_function_is_zero(self):
        zero = anf(3, [])
        assert all(zero.evaluate(x) == 0 for x in bit_tuples(3))


class TestTruthTable:
    def test_and_truth_table(self):
        assert anf_from_truth_table("0001").monomials == frozenset({frozenset({1, 2})})

    def test_xor_truth_table(self):
        assert anf_from_truth_table("0110").monomials == frozenset(
            {frozenset({1}), frozenset({2})}
        )

    def test_roundtrip_exhaustive_n_le_3(self):
        for n in (1, 2, 3):
            for bits in itertools.product("01", repeat=2 ** n):
                tt = "".join(bits)
                f = anf_from_truth_table(tt)
                assert f.truth_table() == tt

    def test_roundtrip_exhaustive_n4(self):
        # independent oracle: each monomial's indicator over all 16 points,
        # XORed together, must reproduce the table the ANF came from
        n = 4
        points = list(itertools.product((0, 1), repeat=n))
        indicator = {}
        for k in range(n + 1):
            for mono in itertools.combinations(range(1, n + 1), k):
                bits = 0
                for pos, x in enumerate(points):
                    if all(x[i - 1] for i in mono):
                        bits |= 1 << pos
                indicator[frozenset(mono)] = bits
        for value in range(2 ** 16):
            tt = format(value, "016b")
            f = anf_from_truth_table(tt)
            acc = 0
            for mono in f.monomials:
                acc ^= indicator[mono]
            recovered = "".join(
                "1" if acc >> pos & 1 else "0" for pos in range(16)
            )
            assert recovered == tt

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random_n5(self, value):
        tt = format(value, "032b")
        f = anf_from_truth_table(tt)
        assert f.truth_table() == tt

    def test_roundtrip_random_n6(self):
        rng = random.Random(1234)
        for _ in range(5):
            tt = "".join(rng.choice("01") for _ in range(64))
            assert anf_from_truth_table(tt).truth_table() == tt

    def test_bad_length(self):
        with pytest.raises(ValueError):
            anf_from_truth_table("011")


def brute_force_max_partition(j_set):
    """Largest count of groups whose variable unions are pairwise disjoint."""
    monos = sorted(j_set, key=sorted)

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
            yield [[first]] + sub

    best = 0
    for grouping in partitions(monos):
        unions = [frozenset().union(*grp) for grp in grouping]
        if all(
            not (unions[i] & unions[j])
            for i in range(len(unions))
            for j in range(i + 1, len(unions))
        ):
            best = max(best, len(grouping))
    return best


class TestNonlocalSupport:
    def test_four_party_example(self):
        sup = nonlocal_support(parse_expr("x1*x2*x3 + x3*x4 + x1", 4))
        assert sup.j_set == frozenset({frozenset({1, 2, 3}), frozenset({3, 4})})
        assert sup.n_j == 1
        assert sup.m_values[frozenset({1, 2, 3})] == 2
        assert sup.m_values[frozenset({3, 4})] == 1

    def test_six_party_example(self):
        sup = nonlocal_support(parse_expr("x1*x2 + x2*x3 + x4*x5*x6 + x5", 6))
        assert sup.n_j == 2
        assert set(sup.blocks) == {
            frozenset({frozenset({1, 2}), frozenset({2, 3})}),
            frozenset({frozenset({4, 5, 6})}),
        }

    def test_purely_local_function(self):
        sup = nonlocal_support(parse_expr("x1", 3))
        assert sup.j_set == frozenset()
        assert sup.n_j == 0

    def test_blocks_have_disjoint_unions_and_connected_graphs(self):
        f = parse_expr("x1*x2 + x2*x3 + x4*x5 + x6*x7 + x7*x8", 8)
        sup = nonlocal_support(f)
        unions = [frozenset().union(*blk) for blk in sup.blocks]
        for i in range(len(unions)):
            for j in range(i + 1, len(unions)):
                assert not (unions[i] & unions[j])
        assert sum(len(u) for u in unions) == len(sup.union)

    @pytest.mark.parametrize(
        "text, n",
        [
            ("x1*x2 + x2*x3 + x3*x4", 4),
            ("x1*x2 + x3*x4 + x5*x6", 6),
            ("x1*x2*x3 + x3*x4 + x4*x5 + x6*x7", 7),
            ("x1*x2 + x1*x3 + x2*x3 + x4*x5", 5),
        ],
    )
    def test_block_count_matches_brute_force(self, text, n):
        sup = nonlocal_support(parse_expr(text, n))
        assert sup.n_j == brute_force_max_partition(sup.j_set)


class TestImmutability:
    def test_function_freezes_the_monomials_given(self):
        monomials = {frozenset({1, 2})}
        f = AnfFunction(2, monomials)
        monomials.add(frozenset({1}))
        assert f.monomials == frozenset({frozenset({1, 2})})
        assert isinstance(f.monomials, frozenset)
        assert AnfFunction(2, [(1, 2)]) == f and hash(AnfFunction(2, [(1, 2)])) == hash(f)

    def test_support_is_read_only_and_hashable(self):
        sup = nonlocal_support(parse_expr("x1*x2*x3 + x3*x4 + x1", 4))
        with pytest.raises(TypeError):
            sup.m_values[frozenset({3, 4})] = 7
        again = nonlocal_support(parse_expr("x3*x4 + x1*x2*x3", 4))
        assert sup == again and hash(sup) == hash(again)
        assert hash(nonlocal_support(parse_expr("x1*x2", 2))) is not None

    def test_block_count_is_derived(self):
        sup = nonlocal_support(parse_expr("x1*x2 + x3*x4", 4))
        assert sup.n_j == len(sup.blocks) == 2
        with pytest.raises(TypeError):
            type(sup)(j_set=sup.j_set, blocks=sup.blocks, m_values=sup.m_values, n_j=2)


class TestLocalPart:
    def test_examples(self):
        f4 = parse_expr("x1*x2*x3 + x3*x4 + x1", 4)
        assert local_part(f4).monomials == frozenset({frozenset({1})})
        f6 = parse_expr("x1*x2 + x2*x3 + x4*x5*x6 + x5", 6)
        assert local_part(f6).monomials == frozenset({frozenset({5})})
        assert local_part(parse_expr("x1*x2", 2)).monomials == frozenset()

    def test_constant_term_is_local(self):
        f = parse_expr("1 + x1*x2", 2)
        assert local_part(f).monomials == frozenset({frozenset()})

    def test_function_splits_into_local_and_nonlocal_parts(self):
        f = parse_expr("x1*x2*x3 + x3*x4 + x1 + 1", 4)
        sup = nonlocal_support(f)
        recombined = local_part(f) ^ AnfFunction(f.n, sup.j_set)
        for x in bit_tuples(4):
            assert recombined.evaluate(x) == f.evaluate(x)


def test_monomial_function():
    f = monomial_function(4, {2, 3})
    assert f.evaluate((0, 1, 1, 0)) == 1
    assert f.evaluate((1, 1, 0, 1)) == 0


def test_xor_operator_requires_same_arity():
    with pytest.raises(ValueError):
        anf(2, [{1}]) ^ anf(3, [{1}])
