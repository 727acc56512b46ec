import random
from fractions import Fraction as F

import pytest

from nsboxes.boolfn import anf, nonlocal_support, parse_expr
from nsboxes.boxes import MAX_EXHAUSTIVE_PARTIES, bit_tuples
from nsboxes.commcost import (
    CommGraph,
    NotAmplifiableError,
    SupportConditionError,
    amplifiable,
    decompose,
    n_distill_bound,
    n_scratch,
    plan,
    report_text,
    scratch_graph,
    verify_path_condition,
    verify_plan_end_to_end,
)


@pytest.fixture
def four_party():
    return parse_expr("x1*x2*x3 + x3*x4 + x1", 4)


@pytest.fixture
def six_party():
    return parse_expr("x1*x2 + x2*x3 + x4*x5*x6 + x5", 6)


class TestGraph:
    def test_rejects_self_loops_and_stray_vertices(self):
        with pytest.raises(ValueError):
            CommGraph(n=3, edges=frozenset({(2, 2)}))
        with pytest.raises(ValueError):
            CommGraph(n=3, edges=frozenset({(1, 4)}))

    def test_reachability(self):
        g = CommGraph(n=4, edges=frozenset({(4, 3), (3, 2), (2, 1)}))
        assert g.has_path(4, 1)
        assert not g.has_path(1, 4)


class TestScratchCount:
    def test_four_party_example(self, four_party):
        assert n_scratch(four_party) == 3

    def test_six_party_example(self, six_party):
        assert n_scratch(six_party) == 4

    def test_single_pair_monomial(self):
        assert n_scratch(parse_expr("x1*x2", 2)) == 1

    def test_local_function(self):
        assert n_scratch(parse_expr("x1 + 1", 3)) == 0

    @pytest.mark.parametrize(
        "text, n",
        [
            ("x1*x2 + x2*x3 + x4*x5*x6 + x5", 6),
            ("x1*x2 + x3*x4 + x5*x6*x7", 7),
            ("x1*x2*x3 + x3*x4 + x1", 4),
        ],
    )
    def test_additivity_over_blocks(self, text, n):
        f = parse_expr(text, n)
        support = nonlocal_support(f)
        per_block = sum(
            len(frozenset().union(*blk)) - 1 for blk in support.blocks
        )
        assert n_scratch(f) == per_block


class TestScratchGraph:
    def test_four_party_example_witness(self, four_party):
        g = scratch_graph(four_party)
        assert g.edges == frozenset({(4, 3), (3, 2), (2, 1)})

    def test_six_party_example_edge_count_and_paths(self, six_party):
        g = scratch_graph(six_party)
        assert len(g.edges) == 4
        assert verify_path_condition(g, nonlocal_support(six_party))

    def test_local_function_empty_graph(self):
        g = scratch_graph(parse_expr("x1", 3))
        assert g.edges == frozenset()
        assert verify_path_condition(g, nonlocal_support(parse_expr("x1", 3)))

    def test_edge_count_always_matches_n_scratch(self):
        for text, n in [
            ("x1*x2", 2),
            ("x1*x2 + x2*x3", 3),
            ("x1*x2 + x1*x3 + x2*x3", 3),
            ("x1*x2 + x3*x4*x5", 5),
        ]:
            f = parse_expr(text, n)
            assert len(scratch_graph(f).edges) == n_scratch(f)
            assert verify_path_condition(scratch_graph(f), nonlocal_support(f))


class TestPathCondition:
    def test_missing_edge_breaks_the_chain(self, four_party):
        g = CommGraph(n=4, edges=frozenset({(4, 3), (3, 2)}))
        assert not verify_path_condition(g, nonlocal_support(four_party))

    def test_alternative_witness_accepted(self, six_party):
        # the ascending chains are as good as the descending ones
        g = CommGraph(
            n=6, edges=frozenset({(1, 2), (2, 3), (4, 5), (5, 6)})
        )
        assert verify_path_condition(g, nonlocal_support(six_party))


class TestDecompose:
    def test_four_party_example(self, four_party):
        dec = decompose(four_party)
        assert [sorted(p.variables) for p in dec.parts] == [[1, 2, 3], [3, 4]]
        assert all(p.constant_parties == frozenset() for p in dec.parts)
        assert dec.residual.monomials == frozenset({frozenset({1})})

    def test_single_monomial_two_parties(self):
        dec = decompose(parse_expr("x1*x2", 2))
        assert len(dec.parts) == 1
        assert dec.parts[0].constant_parties == frozenset()
        assert dec.residual.monomials == frozenset()

    def test_chain_shares_middle_variable(self):
        f = parse_expr("x1*x2 + x2*x3", 3)
        dec = decompose(f)
        assert {frozenset(p.variables) for p in dec.parts} == {
            frozenset({1, 2}),
            frozenset({2, 3}),
        }
        combined = dec.xor_of_parts() ^ dec.residual
        for x in bit_tuples(3):
            assert combined.evaluate(x) == f.evaluate(x)

    def test_party_outside_every_monomial_feeds_constants(self):
        dec = decompose(parse_expr("x1*x2", 3))
        assert dec.parts[0].constant_parties == frozenset({3})

    def test_at_most_one_part_with_constants(self):
        for text, n in [
            ("x1*x2*x3 + x3*x4 + x1", 4),
            ("x1*x2 + x2*x3", 5),
            ("x1*x2*x3 + x1*x2", 3),
        ]:
            dec = decompose(parse_expr(text, n))
            with_constants = [p for p in dec.parts if p.constant_parties]
            assert len(with_constants) <= 1

    def test_xor_identity_exhaustive(self):
        rng = random.Random(7)
        pool = [frozenset(s) for s in [
            {1, 2}, {2, 3}, {3, 4}, {1, 4}, {1, 2, 3}, {2, 3, 4},
            {4, 5}, {1, 5}, {1}, {2}, set(),
        ]]
        built = 0
        while built < 12:
            chosen = rng.sample(pool, rng.randint(1, 4))
            f = anf(6, chosen)
            if nonlocal_support(f).n_j != 1:
                continue
            built += 1
            dec = decompose(f)
            combined = dec.xor_of_parts() ^ dec.residual
            for x in bit_tuples(6):
                assert combined.evaluate(x) == f.evaluate(x)

    def test_requires_single_block(self, six_party):
        with pytest.raises(SupportConditionError):
            decompose(six_party)
        with pytest.raises(SupportConditionError):
            decompose(parse_expr("x1", 2))


class TestDistillBound:
    def test_four_party_example(self, four_party):
        assert n_distill_bound(four_party) == 1

    def test_full_cover_monomial(self):
        assert n_distill_bound(parse_expr("x1*x2*x3", 3)) == 0

    def test_three_party_chain(self):
        assert n_distill_bound(parse_expr("x1*x2 + x2*x3", 3)) == 1

    def test_requires_single_block(self, six_party):
        with pytest.raises(SupportConditionError):
            n_distill_bound(six_party)


class TestAmplifiable:
    def test_four_party_example(self, four_party):
        assert amplifiable(four_party)

    def test_six_party_example_reason(self, six_party):
        verdict = amplifiable(six_party)
        assert not verdict
        assert any("n_J = 2" in reason for reason in verdict.reasons)

    def test_local_function(self):
        verdict = amplifiable(parse_expr("x1 + 1", 2))
        assert not verdict

    def test_every_three_party_function_with_nonlocal_support(self):
        count = 0
        for mask in range(256):
            monos = [m for bit, m in enumerate(
                [frozenset(), frozenset({1}), frozenset({2}), frozenset({3}),
                 frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}),
                 frozenset({1, 2, 3})]
            ) if mask >> bit & 1]
            f = anf(3, monos)
            if not nonlocal_support(f).j_set:
                continue
            count += 1
            assert amplifiable(f), f.to_text()
        assert count == 240

    def test_triangle_needs_the_isolation_route(self):
        # all m_I vanish, yet cutting out one pair monomial saves a channel
        tri = parse_expr("x1*x2 + x1*x3 + x2*x3", 3)
        support = nonlocal_support(tri)
        assert max(support.m_values.values()) == 0
        assert amplifiable(tri)
        p = plan(tri)
        assert p.n_distill == 1 < p.n_scratch == 2


class TestPlan:
    def test_four_party_example(self, four_party):
        p = plan(four_party)
        assert p.isolated == frozenset({1, 2, 3})
        assert p.distill_graph.edges == frozenset({(4, 3)})
        assert p.distill_graph.edges < p.graph.edges
        assert p.n_distill == 1
        assert p.n_scratch == 3
        assert p.bound == 1

    def test_full_cover_monomial_needs_no_channels(self):
        p = plan(parse_expr("x1*x2*x3", 3))
        assert p.distill_graph.edges == frozenset()
        assert p.n_distill == 0
        assert len(p.graph.edges) == 2

    def test_three_party_chain_strict_subset(self):
        p = plan(parse_expr("x1*x2 + x2*x3", 3))
        assert p.distill_graph.edges < p.graph.edges
        assert p.n_distill == 1 < len(p.graph.edges)

    def test_nested_monomial_falls_back_to_isolable_one(self):
        # the m-maximizer {1,2,3} contains {1,2}, so the smaller one is cut
        f = parse_expr("x1*x2*x3 + x1*x2", 3)
        p = plan(f)
        assert p.isolated == frozenset({1, 2})
        assert p.n_distill == 1 < p.n_scratch == 2

    def test_dangling_party_exceeds_formula_bound_by_one(self):
        # a lone pair monomial among three parties: the outside party's
        # share still has to be forwarded, one more channel than the formula
        f = parse_expr("x1*x2", 3)
        p = plan(f)
        assert p.n_distill == 1
        assert p.bound == 0
        assert p.n_distill == p.bound + 1
        assert p.n_distill == p.n_scratch  # no saving for this function

    def test_structural_invariants_across_examples(self):
        for text, n in [
            ("x1*x2*x3 + x3*x4 + x1", 4),
            ("x1*x2 + x2*x3", 3),
            ("x1*x2 + x1*x3 + x2*x3", 3),
            ("x1*x2*x3", 3),
            ("x1*x2 + x2*x3*x4 + 1", 4),
        ]:
            f = parse_expr(text, n)
            p = plan(f)
            assert p.distill_graph.edges < p.graph.edges
            assert verify_path_condition(p.graph, nonlocal_support(f))
            assert p.n_distill == len(p.distill_graph.edges)
            assert p.n_distill == f.n - len(p.isolated)
            for party in range(1, f.n + 1):
                if party not in p.isolated:
                    assert p.distill_graph.has_path(party, p.receiver)

    def test_not_amplifiable_raises(self, six_party):
        with pytest.raises(NotAmplifiableError):
            plan(six_party)


class TestEndToEnd:
    @pytest.mark.parametrize("steps", [0, 1, 2])
    def test_four_party_example(self, four_party, steps):
        assert verify_plan_end_to_end(four_party, F(1, 2), steps)

    def test_perfect_input_is_a_fixed_point(self, four_party):
        assert verify_plan_end_to_end(four_party, F(1), 2)

    def test_other_weights(self, four_party):
        assert verify_plan_end_to_end(four_party, F(1, 3), 1)
        assert verify_plan_end_to_end(four_party, F(3, 4), 1)

    def test_three_party_chain(self):
        assert verify_plan_end_to_end(parse_expr("x1*x2 + x2*x3", 3), F(1, 2), 2)

    def test_triangle(self):
        assert verify_plan_end_to_end(
            parse_expr("x1*x2 + x1*x3 + x2*x3", 3), F(2, 5), 1
        )

    def test_nested_monomial(self):
        assert verify_plan_end_to_end(parse_expr("x1*x2*x3 + x1*x2", 3), F(1, 2), 1)

    def test_full_cover_monomial_no_channels(self):
        assert verify_plan_end_to_end(parse_expr("x1*x2*x3", 3), F(1, 2), 2)

    def test_rejects_non_amplifiable(self, six_party):
        with pytest.raises(NotAmplifiableError):
            verify_plan_end_to_end(six_party, F(1, 2), 1)

    def test_size_limit(self):
        n = MAX_EXHAUSTIVE_PARTIES + 1
        f = parse_expr("*".join(f"x{i}" for i in range(1, n + 1)), n)
        assert amplifiable(f)
        with pytest.raises(ValueError, match=f"up to {n - 1} parties"):
            verify_plan_end_to_end(f, F(1, 2), 1)


class TestReport:
    def test_four_party_report_numbers(self, four_party):
        text = report_text(four_party, verify_eps=F(1, 2), verify_steps=1)
        assert "n_J: 1" in text
        assert "m{1,2,3} = 2" in text
        assert "m{3,4} = 1" in text
        assert "n_scratch: 3" in text
        assert "n_distill: 1" in text
        assert "forwarding edges: (4->3)" in text
        assert "end-to-end check (eps=1/2, steps=1): ok" in text

    def test_six_party_report(self, six_party):
        text = report_text(six_party)
        assert "n_J: 2" in text
        assert "n_scratch: 4" in text
        assert "amplifiable: no (n_J = 2 != 1)" in text

    def test_local_function_report(self):
        text = report_text(parse_expr("x1", 3))
        assert "local function; nothing to simulate" in text

    @pytest.mark.parametrize("text, n", [
        ("x1*x2 + x2*x3 + x4*x5*x6 + x5", 6),
        ("x1", 3),
    ])
    def test_verification_needs_an_amplifiable_function(self, text, n):
        f = parse_expr(text, n)
        with pytest.raises(
            NotAmplifiableError,
            match="end-to-end verification needs an amplifiable function: ",
        ):
            report_text(f, F(1, 2), 1)

    def test_reports_are_deterministic(self, four_party):
        assert report_text(four_party) == report_text(four_party)
