import re
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest

from nsboxes.boxes import (
    MAX_EXHAUSTIVE_PARTIES,
    bit_tuples,
    make_correlated,
    make_even_parity,
    make_npr,
    mix,
)
from nsboxes.locality import (
    NORM,
    LocalModel,
    NonlocalityCertificate,
    decide_locality,
    deterministic_box,
    is_local,
    realism_distribution,
    realism_marginal,
    strategies,
    strategy_keys,
)


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
    assert list(strategy_keys(s)) == [
        ((0, 0), (0, 1)),
        ((0, 1), (0, 1)),
        ((1, 0), (1, 1)),
        ((1, 1), (1, 1)),
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_even_parity_local_with_reproducing_model(n):
    box = make_even_parity(n)
    model = is_local(box)
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
    box = deterministic_box(3, s)
    model = is_local(box)
    assert model is not None
    assert model.to_box() == box
    with pytest.raises(ValueError, match="n says 3"):
        deterministic_box(3, ((0, 1), (1, 1)))


def test_empty_local_model_rejected():
    with pytest.raises(ValueError, match="at least one strategy"):
        LocalModel({})


def test_mixture_of_deterministic_boxes_is_local():
    s1 = ((0, 0), (1, 1))
    s2 = ((0, 1), (0, 1))
    box = mix([deterministic_box(2, s1), deterministic_box(2, s2)], [F(1, 3), F(2, 3)])
    model = is_local(box)
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
        dist = realism_distribution(is_local(make_even_parity(2)))
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
            model = is_local(box)
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
