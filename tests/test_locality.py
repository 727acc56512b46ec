import random
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from operator import getitem

import pytest

from nsboxes import lp
from nsboxes.boxes import (
    MAX_EXHAUSTIVE_PARTIES,
    MAX_PARTIES,
    ONE,
    ZERO,
    BoxTable,
    bit_tuples,
    make_correlated,
    make_even_parity,
    make_npr,
    mix,
)
from nsboxes.locality import (
    NORM,
    LocalityResult,
    LocalModel,
    NonlocalityCertificate,
    _hits,
    _strategy_indices,
    decide_locality,
    realism_distribution,
    realism_marginal,
    strategies,
)


def strategy_keys(s):
    """The entries (x, a) strategy s produces, one per input x in order."""
    return [(x, tuple(map(getitem, s, x))) for x in bit_tuples(len(s))]


def deterministic_box(s):
    return LocalModel({s: ONE}).to_box()


def chsh_value(box):
    """Independent nonlocality oracle for two parties: sum of signed correlators."""
    total = F(0)
    for x in bit_tuples(2):
        correlator = F(0)
        for a in bit_tuples(2):
            correlator += box.prob(x, a) * (1 if a[0] == a[1] else -1)
        total += correlator * (-1 if x[0] * x[1] == 1 else 1)
    return total


def test_strategy_enumeration():
    assert len(strategies(2)) == 16
    assert len(set(strategies(3))) == 64
    s = ((0, 1), (1, 1))
    keys = [
        ((0, 0), (0, 1)),
        ((0, 1), (0, 1)),
        ((1, 0), (1, 1)),
        ((1, 1), (1, 1)),
    ]
    assert strategy_keys(s) == keys
    assert _hits(s) == (0b0001, 0b0101, 0b1011, 0b1111)
    flat = list(make_even_parity(2).entries)
    assert [flat[i] for i in _hits(s)] == keys


@pytest.mark.parametrize("n", [2, 3, 4])
def test_even_parity_local_with_reproducing_model(n):
    box = make_even_parity(n)
    model = decide_locality(box).model
    assert model is not None
    assert all(w > 0 for w in model.weights.values())
    assert sum(model.weights.values()) == 1
    assert model.to_box() == box


@pytest.mark.parametrize("n", [2, 3, 4])
def test_npr_nonlocal_with_verified_certificate(n):
    box = make_npr(n)
    result = decide_locality(box)
    assert not result.local
    assert result.certificate is not None
    assert result.certificate.verify(box)


@pytest.mark.parametrize("eps", [F(1, 4), F(1, 2), F(3, 4)])
def test_correlated_two_party_nonlocal(eps):
    box = make_correlated(2, eps)
    result = decide_locality(box)
    assert not result.local
    assert result.certificate.verify(box)
    # independent oracle: the signed-correlator value exceeds the local bound
    assert chsh_value(box) == 2 + 2 * eps > 2


def test_npr2_chsh_value_is_algebraic_maximum():
    assert chsh_value(make_npr(2)) == 4


def test_deterministic_box_is_local():
    s = ((0, 1), (1, 0), (1, 1))
    box = deterministic_box(s)
    model = decide_locality(box).model
    assert model is not None
    assert model.to_box() == box
    with pytest.raises(ValueError, match=re.escape("((0, 1), (1, 1)) has 2 parties")):
        LocalModel({s: ONE, ((0, 1), (1, 1)): ZERO})


def test_empty_local_model_rejected():
    with pytest.raises(ValueError, match="at least one strategy"):
        LocalModel({})


@pytest.mark.parametrize("weights, bad", [
    ({((0, 1),): ONE, ((0, 1), (1, 1)): ZERO}, "strategy ((0, 1), (1, 1)) has 2 parties"),
    ({((0, 1), (1, 1)): ONE, ((0, 1),): ZERO}, "strategy ((0, 1),) has 1 parties"),
    ({((0, 2),): ONE}, "strategy ((0, 2),) is not a tuple of (bit, bit) response pairs"),
    ({((0, 1.0),): ONE}, "strategy ((0, 1.0),) is not a tuple of (bit, bit) response pairs"),
], ids=["extra-party", "missing-party", "bit-out-of-range", "float-bit"])
def test_local_model_rejects_malformed_strategies(weights, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        LocalModel(weights)


def reference_to_box(model):
    """The box of a local model, summed key by key along the tuple walk."""
    entries = {}
    for s, w in model.weights.items():
        for key in strategy_keys(s):
            entries[key] = entries.get(key, ZERO) + w
    return BoxTable(model.n, entries)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_to_box_matches_the_tuple_walk(n):
    rng = random.Random(200 + n)
    for _ in range(6):
        weights = {random_strategy(rng, n): F(rng.randrange(1, 6)) for _ in range(rng.randrange(1, 7))}
        total = sum(weights.values())
        model = LocalModel({s: w / total for s, w in weights.items()})
        assert model.to_box() == reference_to_box(model)


@pytest.mark.parametrize("n", [MAX_EXHAUSTIVE_PARTIES + 1, MAX_PARTIES])
def test_to_box_builds_past_the_strategy_table_cap(n):
    s = random_strategy(random.Random(n), n)
    box = deterministic_box(s)
    assert {key for key, v in box.entries.items() if v} == set(strategy_keys(s))
    assert all(v in (ZERO, ONE) for v in box.entries.values())


def test_mixture_of_deterministic_boxes_is_local():
    s1 = ((0, 0), (1, 1))
    s2 = ((0, 1), (0, 1))
    box = mix([deterministic_box(s1), deterministic_box(s2)], [F(1, 3), F(2, 3)])
    model = decide_locality(box).model
    assert model is not None
    assert model.to_box() == box


def test_size_limit():
    limit = MAX_EXHAUSTIVE_PARTIES
    with pytest.raises(ValueError, match=f"up to {limit} parties"):
        decide_locality(make_even_parity(limit + 1))


def test_certificate_checked_against_another_party_count():
    certificate = decide_locality(make_npr(2)).certificate
    with pytest.raises(ValueError, match="certificate is for 2 parties, box has 3"):
        certificate.verify(make_npr(3))
    for key in [((0, 0), (0,)), ((0, 2), (0, 0))]:
        malformed = NonlocalityCertificate({NORM: F(1), key: F(-1)})
        with pytest.raises(ValueError, match=re.escape(f"certificate row {key!r} is not an entry")):
            malformed.verify(make_npr(2))


def test_results_are_frozen():
    local = decide_locality(make_even_parity(2))
    nonlocal_ = decide_locality(make_npr(2))
    with pytest.raises(FrozenInstanceError):
        local.model = None
    with pytest.raises(FrozenInstanceError):
        local.model.weights = {}
    with pytest.raises(FrozenInstanceError):
        nonlocal_.certificate.row_duals = {}


class TestRealism:
    def test_marginal_checks_the_party_count(self):
        dist = realism_distribution(decide_locality(make_even_parity(2)).model)
        with pytest.raises(ValueError, match="input has 3 bits, n says 2"):
            realism_marginal(dist, 2, (0, 0, 0))
        with pytest.raises(ValueError, match=r"has 4 bits, expected 6"):
            realism_marginal(dist, 3, (0, 0, 0))
        with pytest.raises(ValueError, match=r"has 4 bits, expected 2"):
            realism_marginal(dist, 1, (0,))

    def test_point_mass_for_deterministic_model(self):
        s = ((0, 1), (1, 0))
        model = LocalModel(weights={s: F(1)})
        dist = realism_distribution(model)
        assert dist == {(0, 1, 1, 0): F(1)}

    def test_even_parity_marginals_reproduce_box(self):
        for n in (2, 3):
            box = make_even_parity(n)
            model = decide_locality(box).model
            dist = realism_distribution(model)
            assert sum(dist.values()) == 1
            for x in bit_tuples(n):
                got = realism_marginal(dist, n, x)
                expected = {
                    a: box.prob(x, a)
                    for a in bit_tuples(n)
                    if box.prob(x, a) != 0
                }
                assert got == expected

    def test_uniform_single_party_bit(self):
        # a one-party box emitting a uniform bit regardless of input
        model = LocalModel(weights={((0, 0),): F(1, 2), ((1, 1),): F(1, 2)})
        dist = realism_distribution(model)
        assert dist == {(0, 0): F(1, 2), (1, 1): F(1, 2)}
        box = model.to_box()
        for x in bit_tuples(1):
            assert realism_marginal(dist, 1, x) == {
                a: box.prob(x, a) for a in bit_tuples(1)
            }


def test_results_are_immutable_and_hashable():
    local = decide_locality(make_even_parity(2))
    nonlocal_ = decide_locality(make_npr(2))
    strategy = next(iter(local.model.weights))
    with pytest.raises(TypeError):
        local.model.weights[strategy] = 7
    with pytest.raises(TypeError):
        nonlocal_.certificate.row_duals[NORM] = 7
    assert local.model.to_box() == make_even_parity(2)
    for result, again in [
        (local, decide_locality(make_even_parity(2))),
        (nonlocal_, decide_locality(make_npr(2))),
    ]:
        assert result == again and hash(result) == hash(again)
    assert len({local, nonlocal_, decide_locality(make_npr(2))}) == 2


def test_values_copy_the_mapping_given():
    weights = {((0, 0), (1, 1)): F(1)}
    model = LocalModel(weights)
    weights[((0, 1), (0, 1))] = F(0)
    assert len(model.weights) == 1
    duals = dict(decide_locality(make_npr(2)).certificate.row_duals)
    certificate = NonlocalityCertificate(duals)
    duals[NORM] += 1
    assert certificate.verify(make_npr(2))
    assert certificate == NonlocalityCertificate(dict(certificate.row_duals))
    assert hash(certificate) == hash(NonlocalityCertificate(dict(certificate.row_duals)))


# The tuple walk over (x, a) keys that the flat strategy-index table
# replaced, kept as a reference for the differential tests below.


def reference_lp_input(box):
    """(strategies, columns, b) of the locality LP, built by the tuple walk."""
    entries = box.entries
    row_keys = [key for key, v in entries.items() if v != 0]
    row = {key: i for i, key in enumerate(row_keys)}
    surviving, columns = [], []
    for s in strategies(box.n):
        hits = [row.get(key) for key in strategy_keys(s)]
        if None not in hits:
            surviving.append(s)
            columns.append(hits + [len(row_keys)])
    return surviving, columns, [entries[key] for key in row_keys] + [ONE]


def reference_decide_locality(box):
    surviving, columns, b = reference_lp_input(box)
    result = lp.solve_equality_feasibility(columns, b)
    if result.feasible:
        weights = {s: w for s, w in zip(surviving, result.solution) if w != 0}
        return LocalityResult(model=LocalModel(weights), certificate=None)
    row_keys = [key for key, v in box.entries.items() if v != 0]
    *y, y_norm = result.certificate
    duals = {key: v for key, v in zip(row_keys, y) if v != 0}
    duals[NORM] = y_norm
    outputs = list(bit_tuples(box.n))
    bound = y_norm + sum(max(duals.get((x, a), ZERO) for a in outputs) for x in outputs)
    penalty = -(max(ZERO, bound) + ONE)
    duals.update((key, penalty) for key, v in box.entries.items() if v == 0)
    return LocalityResult(model=None, certificate=NonlocalityCertificate(duals))


def separates_the_box(certificate, box):
    """y.b > 0, in Fractions."""
    duals = certificate.row_duals
    return sum((y if key == NORM else y * box.entries[key] for key, y in duals.items()), ZERO) > 0


def reference_verify(certificate, box):
    """y.b > 0 and no strategy scoring above 0, in Fractions, key by key."""
    duals = certificate.row_duals
    norm = duals.get(NORM, ZERO)
    return separates_the_box(certificate, box) and all(
        norm + sum(duals.get(key, ZERO) for key in strategy_keys(s)) <= 0
        for s in strategies(box.n)
    )


def random_strategy(rng, n):
    return tuple((rng.randrange(2), rng.randrange(2)) for _ in range(n))


def seeded_boxes(seed, n, count):
    """Local mixtures, PR mixtures and weak PR copies, zero entries included."""
    rng = random.Random(seed)
    boxes = [make_even_parity(n), make_npr(n)]
    while len(boxes) < count:
        parts = [deterministic_box(random_strategy(rng, n)) for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.5:
            parts.append(make_correlated(n, F(rng.randrange(1, 5), 4)))
        weights = [F(rng.randrange(1, 6)) for _ in parts]
        boxes.append(mix(parts, [w / sum(weights) for w in weights]))
    return boxes


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_strategy_indices_match_the_tuple_walk(n):
    flat = {key: i for i, key in enumerate(make_even_parity(n).entries)}
    assert _strategy_indices(n) == tuple(
        tuple(flat[key] for key in strategy_keys(s)) for s in strategies(n)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_decide_locality_matches_the_tuple_walk(n, monkeypatch):
    sent = []

    def recording_solver(columns, b):
        sent.append((columns, b))
        return solve(columns, b)

    solve = lp.solve_equality_feasibility
    monkeypatch.setattr(lp, "solve_equality_feasibility", recording_solver)
    verdicts = set()
    for box in seeded_boxes(n, n, 8 if n < 4 else 5):
        expected = reference_decide_locality(box)
        got = decide_locality(box)
        assert sent[-1] == sent[-2]  # the LP got the same (columns, b)
        assert got == expected
        verdicts.add(got.local)
    assert verdicts == ({True} if n == 1 else {True, False})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_matches_the_tuple_walk(n):
    rng = random.Random(100 + n)
    outcomes = []
    for box in seeded_boxes(n, n, 6):
        result = decide_locality(box)
        base = dict(result.certificate.row_duals) if result.certificate else {NORM: F(-1)}
        for _ in range(6):
            duals = {}
            for key in list(box.entries) + [NORM]:
                roll = rng.random()
                if roll < 0.2:
                    continue  # an absent key counts as 0
                y = base.get(key, ZERO)
                if roll < 0.5:
                    y += F(rng.randrange(-3, 4), rng.randrange(1, 7))
                duals[key] = y
            certificate = NonlocalityCertificate(duals)
            expected = reference_verify(certificate, box)
            assert certificate.verify(box) == expected
            outcomes.append((separates_the_box(certificate, box), expected))
        if result.certificate:
            # The certificate as decided, and without its normalization dual.
            assert result.certificate.verify(box) and reference_verify(result.certificate, box)
            without_norm = NonlocalityCertificate(
                {key: y for key, y in base.items() if key != NORM}
            )
            assert without_norm.verify(box) == reference_verify(without_norm, box)
    # Some duals fail y.b > 0, some fail on a strategy's score, some verify.
    assert (False, False) in outcomes and (True, False) in outcomes
    if n > 1:
        assert (True, True) in outcomes


def test_verify_rejects_foreign_rows_other_party_counts_floats_and_sizes():
    box = make_npr(2)
    certificate = dict(decide_locality(box).certificate.row_duals)
    with pytest.raises(ValueError, match=re.escape("certificate row ('bogus',) is not an entry")):
        NonlocalityCertificate({**certificate, ("bogus",): F(-1)}).verify(box)
    with pytest.raises(ValueError, match="certificate is for 3 parties, box has 2"):
        NonlocalityCertificate({**certificate, ((0, 0, 0), (0, 0, 0)): F(-1)}).verify(box)
    with pytest.raises(TypeError, match="float certificate dual"):
        NonlocalityCertificate({**certificate, ((1, 1), (0, 1)): -0.5}).verify(box)
    limit = MAX_EXHAUSTIVE_PARTIES
    with pytest.raises(ValueError, match=f"certificate check supports up to {limit} parties"):
        NonlocalityCertificate({NORM: F(1)}).verify(make_npr(limit + 1))
