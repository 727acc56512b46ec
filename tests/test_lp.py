import dataclasses
import random
from fractions import Fraction as F

import pytest

from nsboxes import locality, lp
from nsboxes.boolfn import anf
from nsboxes.boxes import (
    bit_tuples,
    make_correlated,
    make_even_parity,
    make_full_correlation,
    make_npr,
    mix,
)
from nsboxes.lp import FeasibilityResult, solve_equality_feasibility


# Independent checkers of the solver's answers, in Fractions.


def check_system(columns, b, answer, expected, what):
    m = len(b)
    for rows in columns:
        if not all(isinstance(i, int) and 0 <= i < m for i in rows) or len(set(rows)) != len(rows):
            raise ValueError(f"a column must list distinct row indices in range({m}), got {rows!r}")
    if len(answer) != expected:
        raise ValueError(f"{what} length mismatch: {len(answer)} entries, expected {expected}")


def verify_feasible(columns, b, solution):
    """Exact check that solution >= 0 and A @ solution == b."""
    check_system(columns, b, solution, len(columns), "solution")
    total = [F(0)] * len(b)
    for rows, w in zip(columns, solution):
        for i in rows:
            total[i] += w
    return all(w >= 0 for w in solution) and total == list(b)


def verify_certificate(columns, b, y):
    """Exact check that y.b > 0 while y.A_j <= 0 for every column."""
    check_system(columns, b, y, len(b), "certificate")
    dot_b = sum((yi * bi for yi, bi in zip(y, b)), F(0))
    return dot_b > 0 and all(sum((y[i] for i in rows), F(0)) <= 0 for rows in columns)


def fraction_bland(columns, b):
    """Reference solver: the phase-1 Bland simplex on a dense Fraction tableau."""
    m, n = len(b), len(columns)
    rhs = [F(v) for v in b]
    tab = [[F(col[i]) for col in columns] + [F(k == i) for k in range(m)] for i in range(m)]
    basis = list(range(n, n + m))
    obj = [sum((row[j] for row in tab), F(0)) - (j >= n) for j in range(n + m)]
    pivots = 0
    while any(v > 0 for v in obj):
        enter = next(j for j, v in enumerate(obj) if v > 0)
        leave = None
        for i in range(m):
            if tab[i][enter] > 0:
                key = (rhs[i] / tab[i][enter], basis[i])
                if leave is None or key < best:
                    leave, best = i, key
        inv = 1 / tab[leave][enter]
        tab[leave] = [v * inv for v in tab[leave]]
        rhs[leave] *= inv
        for i in range(m):
            f = tab[i][enter]
            if i != leave and f != 0:
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
                rhs[i] -= f * rhs[leave]
        f = obj[enter]
        obj = [v - f * w for v, w in zip(obj, tab[leave])]
        basis[leave] = enter
        pivots += 1
    if all(rhs[i] == 0 for i in range(m) if basis[i] >= n):
        solution = [F(0)] * n
        for i, j in enumerate(basis):
            if j < n:
                solution[j] = rhs[i]
        return FeasibilityResult(True, solution=tuple(solution), pivots=pivots)
    return FeasibilityResult(False, certificate=tuple(obj[n + i] + 1 for i in range(m)), pivots=pivots)


def dense(columns, m):
    """Each column given by its rows, as a dense 0/1 column of length m."""
    return [[F(i in rows) for i in range(m)] for rows in columns]


def reference(columns, b):
    return fraction_bland(dense(columns, len(b)), b)


def test_feasible_simple_combination():
    columns = [[0], [1], [0, 1]]
    b = [F(1, 2), F(1, 2)]
    res = solve_equality_feasibility(columns, b)
    assert res.feasible
    assert verify_feasible(columns, b, res.solution)


def test_feasible_requires_exact_match():
    res = solve_equality_feasibility([[0, 1]], [F(1), F(1)])
    assert res.feasible
    assert res.solution == (F(1),)


def test_infeasible_convexity_conflict():
    # columns sum to 1 in the last row but b demands 2
    columns = [[0, 2], [1, 2]]
    b = [F(1), F(1), F(2)]
    res = solve_equality_feasibility(columns, b)
    assert res.feasible  # w = (1, 1) works: rows are 1, 1, 2
    b = [F(1), F(1), F(1)]
    res = solve_equality_feasibility(columns, b)
    assert not res.feasible
    assert verify_certificate(columns, b, res.certificate)


def test_no_columns_infeasible_unless_zero():
    res = solve_equality_feasibility([], [F(1)])
    assert not res.feasible
    assert verify_certificate([], [F(1)], res.certificate)
    res = solve_equality_feasibility([], [F(0)])
    assert res.feasible


def test_degenerate_system():
    # duplicated rows and redundant columns
    columns = [[0, 1, 2], [2, 1, 0], []]
    b = [F(1), F(1), F(1)]
    res = solve_equality_feasibility(columns, b)
    assert res.feasible
    assert verify_feasible(columns, b, res.solution)


def test_rejects_negative_right_hand_side():
    with pytest.raises(ValueError, match="right-hand side must be nonnegative, got -1/2"):
        solve_equality_feasibility([[0], [1]], [F(1), F(-1, 2)])


@pytest.mark.parametrize("rows", [[0, 0], [2], [-1], [0.0], ["1"]],
                         ids=["repeated", "past-the-end", "negative", "float", "str"])
def test_rejects_bad_row_indices(rows):
    b = [F(1), F(1)]
    message = r"distinct row indices in range\(2\)"
    for call in (
        lambda: solve_equality_feasibility([[1], rows], b),
        lambda: verify_feasible([[1], rows], b, [F(1), F(1)]),
        lambda: verify_certificate([[1], rows], b, [F(1), F(1)]),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_exactness_with_awkward_fractions():
    columns = [[0], [1], [0, 1]]
    w = [F(2, 9), F(5, 13), F(3, 7)]
    target = [w[0] + w[2], w[1] + w[2]]
    res = solve_equality_feasibility(columns, target)
    assert res.feasible
    assert verify_feasible(columns, target, res.solution)
    assert res == reference(columns, target)


def test_verifiers_reject_length_mismatch():
    columns = [[0], [1]]
    b = [F(1), F(0)]
    with pytest.raises(ValueError, match="solution length mismatch"):
        verify_feasible(columns, b, [F(1)])
    with pytest.raises(ValueError, match="certificate length mismatch"):
        verify_certificate(columns, b, [F(1)])


def test_verifiers_reject_wrong_answers():
    columns = [[0], [0]]
    assert verify_feasible(columns, [F(1)], [F(1, 3), F(2, 3)])
    assert not verify_feasible(columns, [F(1)], [F(1, 3), F(1, 3)])
    assert not verify_feasible(columns, [F(0)], [F(1), F(-1)])
    columns, b = [[0]], [F(0), F(1)]
    assert verify_certificate(columns, b, [F(0), F(1)])
    assert not verify_certificate(columns, b, [F(1), F(1)])  # y.A_0 > 0
    assert not verify_certificate(columns, b, [F(-1), F(0)])  # y.b = 0


def test_results_are_immutable_and_hashable():
    for b in ([F(1, 2), F(1, 3)], [F(1, 2), F(1, 3), F(1)]):
        columns = [[0], [1]]
        res = solve_equality_feasibility(columns, b)
        again = solve_equality_feasibility(columns, list(b))
        assert res == again and hash(res) == hash(again)
        assert isinstance(res.solution if res.feasible else res.certificate, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.pivots = 0


def random_system(rng):
    """A 0/1 system with empty and duplicate columns and duplicate rows; b is
    nonnegative, and a nonnegative combination of the columns half the time."""
    m, n = rng.randint(1, 7), rng.randint(0, 9)
    columns = []
    for j in range(n):
        if rng.random() < 0.15:
            rows = []
        elif j and rng.random() < 0.15:
            rows = list(rng.choice(columns))
        else:
            rows = [i for i in range(m) if rng.random() < 0.5]
        rng.shuffle(rows)
        columns.append(rows)
    if m > 1 and rng.random() < 0.3:
        i, k = rng.sample(range(m), 2)  # row k becomes a copy of row i
        columns = [[r for r in rows if r != k] + [k] * (i in rows) for rows in columns]
    if n and rng.random() < 0.5:
        w = [F(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(n)]
        b = [sum((wj for rows, wj in zip(columns, w) if i in rows), F(0)) for i in range(m)]
    else:
        b = [F(rng.randint(0, 4), rng.randint(1, 6)) for _ in range(m)]
    return columns, b


def test_integer_tableau_matches_fraction_reference():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(400):
        columns, b = random_system(rng)
        res = solve_equality_feasibility(columns, b)
        assert res == reference(columns, b)
        if res.feasible:
            assert verify_feasible(columns, b, res.solution)
        else:
            assert verify_certificate(columns, b, res.certificate)
        outcomes.add((res.feasible, res.pivots > 0))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def reference_extension(box, reduced):
    """The certificate extension over the zero rows, in Fractions: every zero
    row gets -(max(0, bound) + 1), bound = y_norm + sum_x max_a y(x, a)."""
    rows = [key for key, v in box.entries.items() if v != 0]
    duals = {key: y for key, y in zip(rows, reduced) if y != 0}
    duals[locality.NORM] = reduced[-1]
    bound = reduced[-1]
    for x in bit_tuples(box.n):
        bound += max(duals.get((x, a), F(0)) for a in bit_tuples(box.n))
    for key, v in box.entries.items():
        if v == 0:
            duals[key] = -(max(F(0), bound) + 1)
    return duals


def unreduced_system(box):
    """Every (x, a) row plus the norm row, one column per strategy."""
    rows = list(box.entries) + [locality.NORM]
    columns = []
    for s in locality.strategies(box.n):
        produced = {(x, tuple(r[xi] for r, xi in zip(s, x))) for x in bit_tuples(box.n)}
        produced.add(locality.NORM)
        columns.append([i for i, key in enumerate(rows) if key in produced])
    return rows, columns, [box.entries[key] for key in rows[:-1]] + [F(1)]


def deterministic_box(s):
    return locality.LocalModel({s: F(1)}).to_box()


def seeded_boxes(rng):
    for n in (2, 3, 4):
        yield make_correlated(n, F(rng.randint(1, 16), 16))
        functions = [anf(n, [{i + 1 for i in range(n) if mask >> i & 1}
                             for mask in range(2 ** n) if rng.random() < 0.4])
                     for _ in range(2)]
        eps = F(rng.randint(1, 7), 8)
        yield mix([make_full_correlation(f) for f in functions] + [make_even_parity(n)],
                  [eps / 2, eps / 2, 1 - eps])
        strats = [rng.choice(locality.strategies(n)) for _ in range(3)]
        w = F(rng.randint(1, 7), 8)
        yield mix([make_npr(n)] + [deterministic_box(s) for s in strats],
                  [w] + [(1 - w) / 3] * 3)


def test_locality_systems_match_fraction_reference(monkeypatch):
    solve = lp.solve_equality_feasibility
    seen = []

    def checked(columns, b):
        res = solve(columns, b)
        assert res == reference(columns, b)
        seen.append(res)
        return res

    monkeypatch.setattr(lp, "solve_equality_feasibility", checked)
    rng = random.Random(5)
    # PR plus one deterministic strategy: its duals are halves, so the
    # extension scores over a common denominator of 2.
    boxes = [mix([make_npr(3), deterministic_box(((1, 1),) * 3)],
                 [F(5, 6), F(1, 6)])]
    for _ in range(2):
        boxes += seeded_boxes(rng)
    for box in boxes:
        result = locality.decide_locality(box)
        res = seen[-1]
        if res.feasible:
            assert result.model.to_box() == box
        else:
            assert result.certificate.row_duals == reference_extension(box, res.certificate)
            assert result.certificate.verify(box)
    assert {res.feasible for res in seen} == {True, False}
    assert any(y.denominator > 1 for res in seen if not res.feasible for y in res.certificate)


def test_certificates_separate_the_unreduced_system():
    """Boxes with zero entries: each certificate, zero rows included, passes
    the generic Farkas check against all 4^n strategy columns."""
    rng = random.Random(17)
    checked = 0
    for _ in range(2):
        for box in seeded_boxes(rng):
            result = locality.decide_locality(box)
            if result.local:
                assert result.model.to_box() == box
                continue
            rows, columns, b = unreduced_system(box)
            y = [result.certificate.row_duals.get(key, F(0)) for key in rows]
            assert verify_certificate(columns, b, y)
            zeros = [key for key, v in box.entries.items() if v == 0]
            assert zeros and all(result.certificate.row_duals[key] < 0 for key in zeros)
            checked += 1
    assert checked >= 6
