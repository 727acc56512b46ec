"""Acceptance suite: every check is exact (zero tolerance) unless noted.

Each test prints one PASS/FAIL line; run with ``pytest -s
tests/test_acceptance.py`` to see them.
"""

import itertools
import random
import time
from fractions import Fraction as F

from nsboxes.boolfn import AnfFunction, nonlocal_support, parse_expr
from nsboxes.boxes import (
    bit_tuples,
    make_correlated,
    make_even_parity,
    make_full_correlation,
    make_npr,
    mix,
    xor_boxes,
)
from nsboxes.commcost import (
    amplifiable,
    n_scratch,
    plan,
    verify_plan_end_to_end,
)
from nsboxes.distill import (
    derivative_at_fixed_points,
    iterate,
    steps_to_reach,
    t_map,
)
from nsboxes.locality import (
    LocalModel,
    decide_locality,
    realism_distribution,
    realism_marginal,
)
from nsboxes.wiring import bs_wiring, evaluate_wiring


def _run(num, description, body):
    try:
        body()
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {description}")
        raise
    print(f"criterion {num:2d}: PASS - {description}")


def test_criterion_01_boost_map_oracle_equivalence():
    def body():
        start = time.monotonic()
        for n in (2, 3, 4):
            for eps in (F(1, 4), F(1, 3), F(1, 2), F(2, 3)):
                box = make_correlated(n, eps)
                boosted = evaluate_wiring([box, box], bs_wiring(n))
                assert boosted == make_correlated(n, t_map(n, eps))
        assert time.monotonic() - start < 10

    _run(1, "wiring engine matches the scalar boost map exactly", body)


def test_criterion_02_composition_relations():
    def body():
        for n in range(2, 6):
            pr = make_npr(n)
            even = make_even_parity(n)
            weight = F(1, 2 ** (n - 1))
            bs = bs_wiring(n)
            assert evaluate_wiring([pr, pr], bs) == pr
            assert evaluate_wiring([pr, even], bs) == pr
            assert evaluate_wiring([even, pr], bs) == make_correlated(n, weight)
            assert evaluate_wiring([even, even], bs) == even

    _run(2, "the four composition identities hold exactly for n = 2..5", body)


def test_criterion_03_fixed_point_derivatives():
    def body():
        for n in range(2, 7):
            at_zero, at_one = derivative_at_fixed_points(n)
            assert at_zero == 1 + F(1, 2 ** (n - 1))
            assert at_one == 1 + F(1, 2 ** (n - 1)) - F(1, 2 ** (n - 2))
            assert at_zero > 1
            assert at_one < 1

    _run(3, "fixed-point slopes: repelling at 0, attracting at 1, n = 2..6", body)


def test_criterion_04_two_party_formula_regression():
    def body():
        samples = [F(k, 20) for k in range(21)] + [F(1, 7), F(3, 11), F(22, 23)]
        for eps in samples:
            assert t_map(2, eps) == eps / 2 * (3 - eps)

    _run(4, "two-party boost map equals e/2*(3-e) on sampled rationals", body)


def test_criterion_05_four_party_example():
    def body():
        start = time.monotonic()
        f = parse_expr("x1*x2*x3 + x3*x4 + x1", 4)
        support = nonlocal_support(f)
        assert support.j_set == frozenset(
            {frozenset({1, 2, 3}), frozenset({3, 4})}
        )
        assert support.n_j == 1
        assert support.m_values[frozenset({1, 2, 3})] == 2
        assert support.m_values[frozenset({3, 4})] == 1
        assert n_scratch(f) == 3
        p = plan(f)
        assert p.bound == 1
        assert p.n_distill == 1
        assert p.distill_graph.edges == frozenset({(4, 3)})
        assert p.distill_graph.edges < p.graph.edges
        for steps in (0, 1, 2):
            assert verify_plan_end_to_end(f, F(1, 2), steps)
        assert time.monotonic() - start < 60

    _run(5, "four-party worked example reproduced end to end", body)


def test_criterion_06_six_party_example():
    def body():
        f = parse_expr("x1*x2 + x2*x3 + x4*x5*x6 + x5", 6)
        support = nonlocal_support(f)
        assert support.n_j == 2
        assert n_scratch(f) == 4
        verdict = amplifiable(f)
        assert not verdict
        assert any("n_J = 2" in reason for reason in verdict.reasons)

    _run(6, "six-party worked example: two blocks, not amplifiable", body)


def test_criterion_07_locality_suite():
    def body():
        for n in (2, 3, 4):
            box = make_even_parity(n)
            model = decide_locality(box).model
            assert model is not None
            assert model.to_box() == box
        for n in (2, 3, 4):
            box = make_npr(n)
            result = decide_locality(box)
            assert not result.local
            assert result.certificate is not None
            assert result.certificate.verify(box)
        for eps in (F(1, 4), F(1, 2), F(3, 4)):
            box = make_correlated(2, eps)
            result = decide_locality(box)
            assert not result.local
            assert result.certificate.verify(box)

    _run(7, "even-parity local with exact models; PR and weak copies not", body)


def test_criterion_08_xor_of_full_correlation_boxes():
    def body():
        rng = random.Random(2024)
        all_monomials = [
            frozenset(s)
            for k in range(4)
            for s in itertools.combinations((1, 2, 3), k)
        ]
        for _ in range(200):
            m1 = frozenset(m for m in all_monomials if rng.random() < 0.5)
            m2 = frozenset(m for m in all_monomials if rng.random() < 0.5)
            f1, f2 = AnfFunction(3, m1), AnfFunction(3, m2)
            lhs = xor_boxes(make_full_correlation(f1), make_full_correlation(f2))
            assert lhs == make_full_correlation(f1 ^ f2)

    _run(8, "XOR of full-correlation boxes carries the XOR of functions", body)


def test_criterion_09_realism_certificates():
    def body():
        suite = [make_even_parity(n) for n in (2, 3, 4)]
        suite.append(LocalModel({((0, 1), (1, 0)): F(1)}).to_box())
        suite.append(
            mix(
                [
                    LocalModel({((0, 0), (1, 1)): F(1)}).to_box(),
                    LocalModel({((1, 1), (0, 0)): F(1)}).to_box(),
                ],
                [F(1, 3), F(2, 3)],
            )
        )
        for box in suite:
            model = decide_locality(box).model
            assert model is not None
            dist = realism_distribution(model)
            assert sum(dist.values()) == 1
            for x in bit_tuples(box.n):
                got = realism_marginal(dist, box.n, x)
                for a in bit_tuples(box.n):
                    assert got.get(a, F(0)) == box.prob(x, a)

    _run(9, "local boxes admit joint output distributions with exact marginals", body)


def test_criterion_10_three_party_sweep_and_reachability():
    def body():
        all_monomials = [
            frozenset(s)
            for k in range(4)
            for s in itertools.combinations((1, 2, 3), k)
        ]
        rows = []
        swept = 0
        for mask in range(2 ** len(all_monomials)):
            monos = [m for bit, m in enumerate(all_monomials) if mask >> bit & 1]
            f = AnfFunction(3, monos)
            support = nonlocal_support(f)
            if not support.j_set:
                continue
            swept += 1
            verdict = amplifiable(f)
            assert verdict, f.to_text()
            p = plan(f)
            rows.append(
                f"  {f.to_text():<40} scratch={p.n_scratch} boost={p.n_distill}"
            )
        assert swept == 240
        print(f"three-party sweep: all {swept} functions amplifiable")
        for row in rows:
            print(row)
        # threshold reaching for targets below one
        assert steps_to_reach(2, F(1, 2), F(9, 10)) == 4
        assert steps_to_reach(3, F(1, 2), F(9, 10)) == 9
        counts = [steps_to_reach(n, F(1, 2), F(3, 4)) for n in range(2, 6)]
        assert counts == [3, 5, 9, 18]
        assert counts == sorted(counts)

    _run(10, "all 240 three-party nonlocal functions amplifiable; thresholds reached", body)
