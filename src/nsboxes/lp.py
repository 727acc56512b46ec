"""Exact rational feasibility solver for systems A w = b, w >= 0.

Phase-1 simplex with Bland's anti-cycling rule: minimize the sum of
artificial variables starting from the all-artificial basis.  A zero optimum
yields a feasible point; a positive optimum yields a Farkas certificate y
with y.b > 0 and y.A_j <= 0 for every column j.

The tableau holds integers.  Each column is scaled by the LCM of its
denominators and b by the LCM of its own; that rescales the variables by
positive factors, which leaves Bland's entering column and the ratio test's
leaving row unchanged.  Pivoting is fraction-free (Edmonds, J. Res. NBS 71B
(1967); Bareiss, Math. Comp. 22 (1968)): every stored entry is the running
determinant `det`, the last pivot, times the rational entry, and each update
divides exactly by the previous `det`.  Fractions are built only for the
returned solution or certificate.  Floats are refused with `TypeError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .boxes import ZERO, _exact


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    solution: list | None = None      # weight per column when feasible
    certificate: list | None = None   # y per row (original orientation) otherwise
    pivots: int = 0                   # simplex pivots taken


def _check_length(values, expected: int, what: str) -> None:
    if len(values) != expected:
        raise ValueError(f"{what} length mismatch: {len(values)} entries, expected {expected}")


def _integers(values) -> tuple[list[int], int]:
    """values as integer numerators over the LCM of their denominators."""
    exact = [_exact(v, "LP coefficient") for v in values]
    scale = math.lcm(*(f.denominator for f in exact))
    return [f.numerator * (scale // f.denominator) for f in exact], scale


def solve_equality_feasibility(columns: list[list[Fraction]], b: list[Fraction]) -> FeasibilityResult:
    """Decide whether b is a nonnegative combination of the given columns.

    `columns[j]` is the j-th column of A; all columns and b share the row
    count.  Runs entirely in exact arithmetic.
    """
    m = len(b)
    n = len(columns)
    for col in columns:
        _check_length(col, m, "column")
    scaled = [_integers(col) for col in columns]
    rhs, b_scale = _integers(b)

    # Orient rows so the right-hand side is nonnegative.
    signs = [1 if v >= 0 else -1 for v in rhs]
    rhs = [s * v for s, v in zip(signs, rhs)]
    # Tableau over original columns followed by the m artificial columns.
    tab = [
        [signs[i] * col[i] for col, _ in scaled] + [int(k == i) for k in range(m)]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    # Reduced objective row for minimizing the artificial sum: the entry for
    # column j is z_j - c_j with c = (0,...,0, 1,...,1), so 1 - 1 on the
    # artificial columns.
    obj = [sum(s * v for s, v in zip(signs, col)) for col, _ in scaled] + [0] * m

    det = 1
    pivots = 0
    while True:
        enter = next((j for j, v in enumerate(obj) if v > 0), -1)
        if enter < 0:
            break
        # Smallest ratio rhs[i] / tab[i][enter], compared by cross-multiplying
        # the positive denominators; ties go to the smaller basis index.
        leave = -1
        for i in range(m):
            t = tab[i][enter]
            if t > 0:
                if leave < 0:
                    leave = i
                    continue
                d = rhs[i] * tab[leave][enter] - rhs[leave] * t
                if d < 0 or (d == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # The phase-1 objective is bounded below by zero, so an
            # unbounded direction cannot occur; guard anyway.
            raise RuntimeError("phase-1 simplex reported unbounded")
        row_l = tab[leave]
        pivot = row_l[enter]
        rhs_l = rhs[leave]
        for i in range(m):
            factor = tab[i][enter]
            # A row with no entry in the pivot column is rescaled by
            # pivot / det, which need not be an integer: it takes the general
            # update unless pivot == det leaves it as it is.
            if i == leave or (factor == 0 and pivot == det):
                continue
            tab[i] = [(pivot * v - factor * w) // det for v, w in zip(tab[i], row_l)]
            rhs[i] = (pivot * rhs[i] - factor * rhs_l) // det
        factor = obj[enter]
        obj = [(pivot * v - factor * w) // det for v, w in zip(obj, row_l)]
        det = pivot
        basis[leave] = enter
        pivots += 1

    # The optimum is the artificial basics' sum of nonnegative values.
    if all(rhs[i] == 0 for i in range(m) if basis[i] >= n):
        solution = [ZERO] * n
        for i in range(m):
            j = basis[i]
            if j < n:
                solution[j] = Fraction(rhs[i] * scaled[j][1], det * b_scale)
        return FeasibilityResult(feasible=True, solution=solution, pivots=pivots)

    # Farkas certificate: the dual y = c_B B^[-1] read off the artificial
    # columns, mapped back to the original row orientation.
    y = [signs[i] * (Fraction(obj[n + i], det) + 1) for i in range(m)]
    return FeasibilityResult(feasible=False, certificate=y, pivots=pivots)


def verify_feasible(columns, b, solution) -> bool:
    """Exact check that solution >= 0 and A @ solution == b."""
    for col in columns:
        _check_length(col, len(b), "column")
    _check_length(solution, len(columns), "solution")
    if any(w < 0 for w in solution):
        return False
    m = len(b)
    for i in range(m):
        total = ZERO
        for j, col in enumerate(columns):
            if solution[j] != 0:
                total += col[i] * solution[j]
        if total != b[i]:
            return False
    return True


def verify_certificate(columns, b, y) -> bool:
    """Exact check that y.b > 0 while y.A_j <= 0 for every column."""
    for col in columns:
        _check_length(col, len(b), "column")
    _check_length(y, len(b), "certificate")
    dot_b = sum((y[i] * b[i] for i in range(len(b))), ZERO)
    if dot_b <= 0:
        return False
    for col in columns:
        dot = sum((y[i] * col[i] for i in range(len(col))), ZERO)
        if dot > 0:
            return False
    return True
