import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nsboxes.boxes import MAX_EXHAUSTIVE_PARTIES
from nsboxes.distill import (
    Trajectory,
    UnreachableTargetError,
    derivative_at_fixed_points,
    iterate,
    steps_to_reach,
    t_map,
    trajectory_csv,
    tv_distance_to_limit,
    validate_against_wiring,
)

interior_eps = st.fractions(min_value=0, max_value=1).filter(lambda e: 0 < e < 1)


class TestMap:
    def test_two_party_closed_form(self):
        # t_map(2, e) = e / 2 * (3 - e)
        assert t_map(2, F(1, 2)) == F(5, 8)
        for e in [F(1, 7), F(2, 5), F(9, 10)]:
            assert t_map(2, e) == e / 2 * (3 - e)

    def test_three_party_value(self):
        assert t_map(3, F(1, 2)) == F(9, 16)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_fixed_points(self, n):
        assert t_map(n, F(0)) == 0
        assert t_map(n, F(1)) == 1

    @given(eps=interior_eps, n=st.integers(min_value=2, max_value=6))
    @settings(max_examples=80, deadline=None)
    def test_strictly_increasing_inside_the_interval(self, eps, n):
        gain = t_map(n, eps) - eps
        assert gain == eps * (1 - eps) / 2 ** (n - 1)
        assert gain > 0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            t_map(2, F(3, 2))
        for bad_n in (1, 0, -4):
            with pytest.raises(ValueError, match="at least two parties"):
                t_map(bad_n, F(1, 2))
            with pytest.raises(ValueError, match="at least two parties"):
                derivative_at_fixed_points(bad_n)
            with pytest.raises(ValueError, match="at least two parties"):
                iterate(bad_n, F(1, 2), 0)


class TestIntegerRecurrence:
    """t_map's lowest-terms integer recurrence against Fraction arithmetic."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_textbook_map(self, n):
        rng = random.Random(n)
        eps_values = [F(0), F(1), F(1, 2), F(2, 3), F(3, 4), F(4, 7), F(6, 13)]
        for _ in range(40):
            den = rng.randint(1, 2 ** rng.randint(1, 80))
            eps_values.append(F(rng.randint(0, den), den))
        for eps in eps_values:
            expected = eps * F(1, 2 ** (n - 1)) * (2 ** (n - 1) + 1 - eps)
            got = t_map(n, eps)
            assert type(got) is F
            assert (got.numerator, got.denominator) == (
                expected.numerator, expected.denominator,
            )

    @pytest.mark.parametrize("n", range(2, 6))
    def test_iterates_are_lowest_terms_fractions(self, n):
        for eps0 in (F(1, 2), F(2, 3), F(6, 13)):
            for x in iterate(n, eps0, 12).eps_sequence:
                num, den = x.numerator, x.denominator
                assert type(x) is F
                assert math.gcd(num, den) == 1
                assert x == F(num, den) and hash(x) == hash(F(num, den))


class TestDerivatives:
    def test_two_party_values(self):
        assert derivative_at_fixed_points(2) == (F(3, 2), F(1, 2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_formula_and_stability(self, n):
        at_zero, at_one = derivative_at_fixed_points(n)
        assert at_zero == 1 + F(1, 2 ** (n - 1))
        assert at_one == 1 + F(1, 2 ** (n - 1)) - F(1, 2 ** (n - 2))
        assert at_zero > 1  # the mixed end repels
        assert at_one < 1   # the perfect end attracts

    def test_finite_difference_oracle(self):
        # slopes from symmetric differences converge on the closed form
        h = F(1, 10 ** 6)
        for n in (2, 3, 4):
            at_zero, at_one = derivative_at_fixed_points(n)
            near_zero = (t_map(n, h) - t_map(n, 0)) / h
            near_one = (t_map(n, 1) - t_map(n, 1 - h)) / h
            assert abs(near_zero - at_zero) < F(1, 10 ** 5)
            assert abs(near_one - at_one) < F(1, 10 ** 5)


class TestTrajectory:
    def test_frozen_two_party_run(self):
        tr = iterate(2, F(1, 2), 3)
        assert tr.eps_sequence == (F(1, 2), F(5, 8), F(95, 128), F(27455, 32768))
        assert tr.copies_used == 8
        assert tr.steps == 3

    def test_copies_used_follows_the_steps(self):
        assert Trajectory(n=2, eps_sequence=(F(1, 2),)).copies_used == 1
        with pytest.raises(TypeError):
            Trajectory(n=2, eps_sequence=(F(1, 2),), copies_used=99)

    def test_fixed_point_trajectory_constant(self):
        tr = iterate(2, F(1), 4)
        assert set(tr.eps_sequence) == {F(1)}

    @given(eps=interior_eps, n=st.integers(min_value=2, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_monotone_increasing_and_bounded(self, eps, n):
        tr = iterate(n, eps, 4)
        seq = tr.eps_sequence
        assert all(a < b for a, b in zip(seq, seq[1:]))
        assert all(e <= 1 for e in seq)
        gaps = [1 - e for e in seq]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_each_step_satisfies_closed_form(self):
        tr = iterate(3, F(2, 7), 4)
        for before, after in zip(tr.eps_sequence, tr.eps_sequence[1:]):
            assert after == t_map(3, before)


class TestStepsToReach:
    def test_target_already_met(self):
        assert steps_to_reach(2, F(1, 2), F(1, 2)) == 0

    def test_frozen_oracle_value(self):
        assert steps_to_reach(2, F(1, 2), F(9, 10)) == 4

    def test_more_parties_need_at_least_as_many_steps(self):
        counts = [steps_to_reach(n, F(1, 2), F(3, 4)) for n in range(2, 6)]
        assert counts == sorted(counts)
        assert counts[0] == 3 and counts[-1] == 18

    def test_exact_target_one_unreachable(self):
        with pytest.raises(UnreachableTargetError):
            steps_to_reach(2, F(1, 2), F(1))

    def test_brackets_agree_with_exact_iteration(self):
        def exact_steps(n, eps, target):
            m = 0
            while eps < target:
                eps, m = t_map(n, eps), m + 1
            return m

        rng = random.Random(2009)
        for _ in range(60):
            n = rng.randint(2, 6)
            eps0 = F(rng.randint(1, 40), rng.randint(41, 97))
            m = rng.randint(1, 9)
            seq = iterate(n, eps0, m).eps_sequence
            targets = {
                "eps_m": (seq[m], m),
                "above eps_(m-1)": (
                    seq[m - 1] + (seq[m] - seq[m - 1]) / 10 ** rng.randint(1, 30), m
                ),
                "eps0": (eps0, 0),
            }
            for name, (target, expected) in targets.items():
                got = steps_to_reach(n, eps0, target)
                assert got == expected == exact_steps(n, eps0, target), name

    @pytest.mark.parametrize(
        "n, eps0, target, expected",
        [(2, F(1, 100), 1 - F(1, 10 ** 6), 32), (4, F(1, 5), F(95, 100), 35)],
    )
    def test_long_searches_finish(self, n, eps0, target, expected):
        start = time.perf_counter()
        assert steps_to_reach(n, eps0, target) == expected
        assert time.perf_counter() - start < 0.5

    def test_preconditions(self):
        with pytest.raises(ValueError):
            steps_to_reach(2, F(0), F(1, 2))
        with pytest.raises(ValueError):
            steps_to_reach(2, F(1, 2), F(1, 4))
        for bad_n in (1, 0, -4):
            with pytest.raises(ValueError, match="at least two parties"):
                steps_to_reach(bad_n, F(1, 2), F(1, 2))


class TestWiringCrossValidation:
    @pytest.mark.parametrize("eps", [F(0), F(1), F(1, 3)])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scalar_map_matches_wiring_engine(self, n, eps):
        assert validate_against_wiring(n, eps)

    def test_size_limit(self):
        limit = MAX_EXHAUSTIVE_PARTIES
        with pytest.raises(ValueError, match=f"up to {limit} parties"):
            validate_against_wiring(limit + 1, F(1, 2))


def test_tv_distance_is_one_minus_eps():
    assert tv_distance_to_limit(F(3, 4)) == F(1, 4)


def test_csv_format():
    tr = iterate(2, F(1, 2), 2)
    text = trajectory_csv(tr)
    lines = text.strip().split("\n")
    assert lines[0] == "step,eps_num,eps_den,eps_decimal,copies"
    assert lines[1] == "0,1,2,0.5,1"
    assert lines[2] == "1,5,8,0.625,2"
    assert lines[3].startswith("2,95,128,0.7421875,4")
    # identical runs produce identical bytes
    assert trajectory_csv(iterate(2, F(1, 2), 2)) == text
