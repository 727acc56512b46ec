import itertools
import random
import re
from fractions import Fraction as F

import pytest

from nsboxes.boolfn import AnfFunction, local_part, nonlocal_support, parse_expr
from nsboxes.boxes import (
    MAX_EXHAUSTIVE_PARTIES,
    ZERO,
    BoxTable,
    bit_tuples,
    make_correlated,
    make_full_correlation,
    mix,
)
from nsboxes.commcost import (
    CommGraph,
    NotAmplifiableError,
    _collapse_on_monomial,
    amplifiable,
    n_scratch,
    plan,
    report_text,
    scratch_graph,
    verify_path_condition,
    verify_plan_end_to_end,
)
from nsboxes.locality import LocalModel


@pytest.fixture
def four_party():
    return parse_expr("x1*x2*x3 + x3*x4 + x1", 4)


@pytest.fixture
def six_party():
    return parse_expr("x1*x2 + x2*x3 + x4*x5*x6 + x5", 6)


def has_path(g, u, v):
    """Forward search from u, the reference for CommGraph.ancestors."""
    seen = {u}
    frontier = [u]
    while frontier:
        w = frontier.pop()
        for a, b in g.edges:
            if a == w and b not in seen:
                seen.add(b)
                frontier.append(b)
    return v in seen


class TestGraph:
    def test_rejects_self_loops_and_stray_vertices(self):
        with pytest.raises(ValueError):
            CommGraph(n=3, edges=frozenset({(2, 2)}))
        with pytest.raises(ValueError):
            CommGraph(n=3, edges=frozenset({(1, 4)}))

    def test_edges_are_frozen_at_construction(self):
        edges = {(1, 2)}
        g = CommGraph(3, edges)
        edges.add((2, 2))
        assert g.edges == frozenset({(1, 2)})
        with pytest.raises(AttributeError):
            g.edges.add((2, 2))
        assert hash(g) == hash(CommGraph(3, [(1, 2)]))

    def test_reachability(self):
        g = CommGraph(n=4, edges=frozenset({(4, 3), (3, 2), (2, 1)}))
        assert g.ancestors(1) == {1, 2, 3, 4}
        assert g.ancestors(4) == {4}

    @pytest.mark.parametrize("edge", [(1, 2.0), (True, 2)])
    def test_rejects_vertices_that_are_not_ints(self, edge):
        with pytest.raises(TypeError, match=re.escape(f"edge {edge!r}")):
            CommGraph(3, [edge])

    def test_ancestors_match_the_path_search(self):
        rng = random.Random(16)
        for _ in range(60):
            n = rng.randint(1, 6)
            pairs = list(itertools.permutations(range(1, n + 1), 2))
            g = CommGraph(n, [e for e in pairs if rng.random() < 0.3])
            for v in range(1, n + 1):
                expected = {v} | {u for u in range(1, n + 1) if has_path(g, u, v)}
                assert g.ancestors(v) == expected, (g.edges, v)


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


def block_rule(g, support):
    """The stricter rule the exact one replaced: every block owns a vertex
    reachable from all of the block's vertices."""
    for block in support.blocks:
        vertices = sorted(frozenset().union(*block))
        if not any(all(w == v or has_path(g, w, v) for w in vertices) for v in vertices):
            return False
    return True


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

    def test_chain_needs_no_common_sink(self):
        # party 1 outputs x1*x2 + r1, party 2 r1 + r2, party 3 x2*x3 + r2
        support = nonlocal_support(parse_expr("x1*x2 + x2*x3", 3))
        g = CommGraph(n=3, edges=frozenset({(2, 1), (2, 3)}))
        assert verify_path_condition(g, support)
        assert not block_rule(g, support)

    def test_fewest_passing_edges_equal_n_scratch_at_three_parties(self):
        # every set of degree->=2 monomials on 3 variables, every digraph
        monomials = [frozenset(m) for m in ({1, 2}, {1, 3}, {2, 3}, {1, 2, 3})]
        pairs = list(itertools.permutations(range(1, 4), 2))
        graphs = [
            CommGraph(3, [e for bit, e in enumerate(pairs) if mask >> bit & 1])
            for mask in range(2 ** len(pairs))
        ]
        supports = widened = 0
        for mask in range(1, 2 ** len(monomials)):
            f = AnfFunction(3, [m for bit, m in enumerate(monomials) if mask >> bit & 1])
            support = nonlocal_support(f)
            passing = [g for g in graphs if verify_path_condition(g, support)]
            assert min(len(g.edges) for g in passing) == n_scratch(f), f.to_text()
            assert all(g in passing for g in graphs if block_rule(g, support))
            widened += sum(not block_rule(g, support) for g in passing)
            supports += 1
        assert supports == 15
        assert widened == 6

    def test_fewest_covering_edges_equal_n_scratch_at_four_parties(self):
        # each digraph covers the monomials inside some anc(v); keep the
        # fewest edges per covered set, then take the best superset per support
        monomials = [
            frozenset(m) for k in (2, 3, 4) for m in itertools.combinations(range(1, 5), k)
        ]
        pairs = list(itertools.permutations(range(1, 5), 2))
        fewest: dict[int, int] = {}
        for mask in range(2 ** len(pairs)):
            g = CommGraph(4, [e for bit, e in enumerate(pairs) if mask >> bit & 1])
            ancestors = [g.ancestors(v) for v in range(1, 5)]
            covered = sum(
                1 << i for i, m in enumerate(monomials) if any(m <= anc for anc in ancestors)
            )
            fewest[covered] = min(fewest.get(covered, len(pairs)), len(g.edges))
        assert len(fewest) == 49
        for chosen in range(1, 2 ** len(monomials)):
            f = AnfFunction(4, [m for i, m in enumerate(monomials) if chosen >> i & 1])
            least = min(k for covered, k in fewest.items() if chosen & covered == chosen)
            assert least == n_scratch(f), f.to_text()


class TestDecompose:
    """f is the XOR of its degree->=2 monomial functions and its local part:
    the stages `verify_plan_end_to_end` assembles."""

    @staticmethod
    def split(f):
        return [AnfFunction(f.n, [m]) for m in f.monomials if len(m) >= 2], local_part(f)

    @staticmethod
    def assert_xor_identity(f, parts, residual):
        combined = residual
        for part in parts:
            combined = combined ^ part
        for x in bit_tuples(f.n):
            assert combined.evaluate(x) == f.evaluate(x)

    def test_four_party_example(self, four_party):
        parts, residual = self.split(four_party)
        assert sorted(sorted(m) for p in parts for m in p.monomials) == [[1, 2, 3], [3, 4]]
        assert residual.monomials == frozenset({frozenset({1})})
        self.assert_xor_identity(four_party, parts, residual)

    def test_single_monomial_two_parties(self):
        parts, residual = self.split(parse_expr("x1*x2", 2))
        assert len(parts) == 1
        assert residual.monomials == frozenset()

    def test_chain_shares_middle_variable(self):
        f = parse_expr("x1*x2 + x2*x3", 3)
        parts, residual = self.split(f)
        assert {m for p in parts for m in p.monomials} == {
            frozenset({1, 2}),
            frozenset({2, 3}),
        }
        self.assert_xor_identity(f, parts, residual)

    def test_xor_identity_exhaustive(self):
        rng = random.Random(7)
        pool = [frozenset(s) for s in [
            {1, 2}, {2, 3}, {3, 4}, {1, 4}, {1, 2, 3}, {2, 3, 4},
            {4, 5}, {1, 5}, {1}, {2}, set(),
        ]]
        built = 0
        while built < 12:
            chosen = rng.sample(pool, rng.randint(1, 4))
            f = AnfFunction(6, chosen)
            if nonlocal_support(f).n_j != 1:
                continue
            built += 1
            self.assert_xor_identity(f, *self.split(f))


class TestDistillBound:
    """The formula bound n - 1 - max m_I that a plan records."""

    def test_four_party_example(self, four_party):
        assert plan(four_party).bound == 1

    def test_full_cover_monomial(self):
        assert plan(parse_expr("x1*x2*x3", 3)).bound == 0

    def test_three_party_chain(self):
        assert plan(parse_expr("x1*x2 + x2*x3", 3)).bound == 1

    def test_requires_single_block(self, six_party):
        with pytest.raises(NotAmplifiableError, match="n_J = 2 != 1"):
            plan(six_party)


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
        # all 256 functions: amplifiable and plan must give one verdict
        count = 0
        for mask in range(256):
            monos = [m for bit, m in enumerate(
                [frozenset(), frozenset({1}), frozenset({2}), frozenset({3}),
                 frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}),
                 frozenset({1, 2, 3})]
            ) if mask >> bit & 1]
            f = AnfFunction(3, monos)
            verdict = amplifiable(f)
            if not verdict:
                with pytest.raises(NotAmplifiableError) as err:
                    plan(f)
                assert str(err.value) == "; ".join(verdict.reasons)
                assert not nonlocal_support(f).j_set, f.to_text()
                continue
            p = plan(f)
            assert p.n_distill == len(p.distill_graph.edges)
            assert p.n_scratch == n_scratch(f)
            assert p.bound == max(0, 2 - max(nonlocal_support(f).m_values.values()))
            count += 1
        assert count == 240

    def test_triangle_needs_the_isolation_route(self):
        # all m_I vanish, yet cutting out one pair monomial saves a channel
        tri = parse_expr("x1*x2 + x1*x3 + x2*x3", 3)
        support = nonlocal_support(tri)
        assert max(support.m_values.values()) == 0
        assert amplifiable(tri)
        p = plan(tri)
        assert p.n_distill == 1 < p.n_scratch == 2


    def test_isolation_must_save_a_channel(self):
        # with a fourth, idle party the cut forwards 2 shares, as many
        # channels as the from-scratch count, so nothing is saved
        verdict = amplifiable(parse_expr("x1*x2 + x1*x3 + x2*x3", 4))
        assert verdict.reasons == (
            "max m_I = 0 <= n - |union| = 1",
            "no isolable monomial saves channels",
        )


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
                    assert party in p.distill_graph.ancestors(p.receiver)

    def test_not_amplifiable_raises(self, six_party):
        with pytest.raises(NotAmplifiableError):
            plan(six_party)

    def test_forwarding_count_is_derived(self, four_party):
        p = plan(four_party)
        assert p.n_distill == len(p.distill_graph.edges) == 1
        assert hash(p) == hash(plan(four_party))
        with pytest.raises(TypeError):
            type(p)(p.isolated, p.receiver, p.graph, p.distill_graph, p.n_scratch, p.n_distill, p.bound)


def collapse_reference(box, isolated, receiver):
    """The monomial cut that XORs each outside party's bit into the receiver's."""
    n = box.n
    inside = sorted(isolated)
    outside = [i for i in range(1, n + 1) if i not in isolated]
    recv_pos = inside.index(receiver)
    entries = {}
    for x_sub in bit_tuples(len(inside)):
        x_full = [0] * n
        for pos, party in enumerate(inside):
            x_full[party - 1] = x_sub[pos]
        for a in bit_tuples(n):
            p = box.entries[(tuple(x_full), a)]
            if p == 0:
                continue
            absorbed = 0
            for party in outside:
                absorbed ^= a[party - 1]
            d = [a[party - 1] for party in inside]
            d[recv_pos] ^= absorbed
            key = (x_sub, tuple(d))
            entries[key] = entries.get(key, ZERO) + p
    return BoxTable(len(inside), entries)


class TestCollapse:
    def test_matches_the_reference_cut(self):
        # local mixtures are not parity-symmetric; full-correlation and
        # correlated boxes are the ones the boosting pipeline cuts
        rng = random.Random(27)
        for n in (3, 4, 5):
            for _ in range(6):
                strategies = {
                    tuple((rng.randint(0, 1), rng.randint(0, 1)) for _ in range(n)):
                    F(rng.randint(1, 4))
                    for _ in range(rng.randint(1, 3))
                }
                total = sum(strategies.values())
                parts = [LocalModel({s: w / total for s, w in strategies.items()}).to_box()]
                if rng.random() < 0.5:
                    monos = [m for m in itertools.combinations(range(1, n + 1), 2)
                             if rng.random() < 0.5]
                    parts.append(make_full_correlation(AnfFunction(n, monos)))
                if rng.random() < 0.5:
                    parts.append(make_correlated(n, F(rng.randint(1, 3), 4)))
                box = mix(parts, [F(1, len(parts))] * len(parts))
                isolated = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
                receiver = rng.choice(sorted(isolated))
                assert _collapse_on_monomial(box, isolated, receiver) == collapse_reference(
                    box, isolated, receiver
                )


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


# Full reports, byte for byte, one for each branch of the amplifiability rule
# and of the choice of the isolated monomial.
PINNED_REPORTS = [
    pytest.param("x1*x2*x3 + x3*x4 + x1", 4, F(1, 2), 2, """\
function: x1 + x3*x4 + x1*x2*x3
parties: 4
degree->=2 monomials: {1,2,3}, {3,4}
blocks: {1,2,3}, {3,4}
n_J: 1
m{1,2,3} = 2
m{3,4} = 1
local residue: x1
n_scratch: 3
scratch graph edges: (2->1), (3->2), (4->3)
scratch path condition: ok
amplifiable: yes
isolated monomial: {1,2,3}
receiver: 3
plan graph edges: (2->1), (3->2), (4->3)
forwarding edges: (4->3)
n_distill: 1
n_distill bound (formula): 1
end-to-end check (eps=1/2, steps=2): ok
""", id="four-party-verified"),
    pytest.param("x1*x2 + x2*x3 + x4*x5*x6 + x5", 6, None, None, """\
function: x5 + x1*x2 + x2*x3 + x4*x5*x6
parties: 6
degree->=2 monomials: {1,2}, {2,3}, {4,5,6}
blocks: {1,2}, {2,3} | {4,5,6}
n_J: 2
m{1,2} = 1
m{2,3} = 1
m{4,5,6} = 3
local residue: x5
n_scratch: 4
scratch graph edges: (2->1), (3->2), (5->4), (6->5)
scratch path condition: ok
amplifiable: no (n_J = 2 != 1)
""", id="six-party-two-blocks"),
    pytest.param("x1*x2", 4, None, None, """\
function: x1*x2
parties: 4
degree->=2 monomials: {1,2}
blocks: {1,2}
n_J: 1
m{1,2} = 2
local residue: 0
n_scratch: 1
scratch graph edges: (2->1)
scratch path condition: ok
amplifiable: no (max m_I = 2 <= n - |union| = 2; no isolable monomial saves channels)
""", id="pair-among-four"),
    pytest.param("x1*x2 + x1*x3 + x2*x3", 3, None, None, """\
function: x1*x2 + x1*x3 + x2*x3
parties: 3
degree->=2 monomials: {1,2}, {1,3}, {2,3}
blocks: {1,2}, {1,3}, {2,3}
n_J: 1
m{1,2} = 0
m{1,3} = 0
m{2,3} = 0
local residue: 0
n_scratch: 2
scratch graph edges: (2->1), (3->2)
scratch path condition: ok
amplifiable: yes
isolated monomial: {1,2}
receiver: 1
plan graph edges: (1->2), (3->1)
forwarding edges: (3->1)
n_distill: 1
n_distill bound (formula): 2
""", id="triangle"),
    pytest.param("x1*x2*x3 + x1*x2", 3, None, None, """\
function: x1*x2 + x1*x2*x3
parties: 3
degree->=2 monomials: {1,2}, {1,2,3}
blocks: {1,2}, {1,2,3}
n_J: 1
m{1,2} = 0
m{1,2,3} = 1
local residue: 0
n_scratch: 2
scratch graph edges: (2->1), (3->2)
scratch path condition: ok
amplifiable: yes
isolated monomial: {1,2}
receiver: 1
plan graph edges: (1->2), (3->1)
forwarding edges: (3->1)
n_distill: 1
n_distill bound (formula): 1
""", id="nested"),
    pytest.param("x1 + 1", 3, None, None, """\
function: 1 + x1
parties: 3
degree->=2 monomials: (none)
local function; nothing to simulate
""", id="local"),
]



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

    @pytest.mark.parametrize("verify_eps, verify_steps", [(F(1, 2), None), (None, 1)])
    def test_verification_needs_both_eps_and_steps(self, four_party, verify_eps, verify_steps):
        with pytest.raises(ValueError, match="needs both verify_eps and verify_steps"):
            report_text(four_party, verify_eps, verify_steps)

    @pytest.mark.parametrize("text, n, verify_eps, verify_steps, expected", PINNED_REPORTS)
    def test_pinned_reports(self, text, n, verify_eps, verify_steps, expected):
        assert report_text(parse_expr(text, n), verify_eps, verify_steps) == expected

    def test_reports_are_deterministic(self, four_party):
        assert report_text(four_party) == report_text(four_party)
