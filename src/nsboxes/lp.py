"""Exact rational feasibility solver for systems A w = b, w >= 0.

Phase-1 simplex over `fractions.Fraction` with Bland's anti-cycling rule:
minimize the sum of artificial variables starting from the all-artificial
basis.  A zero optimum yields a feasible point; a positive optimum yields a
Farkas certificate y with y.b > 0 and y.A_j <= 0 for every column j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    solution: list | None = None      # weight per column when feasible
    certificate: list | None = None   # y per row (original orientation) otherwise


def solve_equality_feasibility(columns: list[list[Fraction]], b: list[Fraction]) -> FeasibilityResult:
    """Decide whether b is a nonnegative combination of the given columns.

    `columns[j]` is the j-th column of A; all columns and b share the row
    count.  Runs entirely in exact arithmetic.
    """
    m = len(b)
    n = len(columns)
    for col in columns:
        if len(col) != m:
            raise ValueError("column length mismatch")

    # Orient rows so the right-hand side is nonnegative.
    signs = [ONE if b[i] >= 0 else -ONE for i in range(m)]
    rhs = [signs[i] * Fraction(b[i]) for i in range(m)]
    # Tableau over original columns followed by the m artificial columns.
    tab = [
        [signs[i] * Fraction(columns[j][i]) for j in range(n)]
        + [ONE if k == i else ZERO for k in range(m)]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]

    # Reduced objective row for minimizing the artificial sum: the entry for
    # column j is z_j - c_j with c = (0,...,0, 1,...,1).
    obj = [ZERO] * (n + m)
    for j in range(n + m):
        s = ZERO
        for i in range(m):
            s += tab[i][j]
        obj[j] = s - (ZERO if j < n else ONE)

    while True:
        enter = -1
        for j in range(n + m):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = rhs[i] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            # The phase-1 objective is bounded below by zero, so an
            # unbounded direction cannot occur; guard anyway.
            raise RuntimeError("phase-1 simplex reported unbounded")
        pivot = tab[leave][enter]
        inv = ONE / pivot
        tab[leave] = [v * inv for v in tab[leave]]
        rhs[leave] *= inv
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                factor = tab[i][enter]
                row_l = tab[leave]
                row_i = tab[i]
                tab[i] = [vi - factor * vl for vi, vl in zip(row_i, row_l)]
                rhs[i] -= factor * rhs[leave]
        factor = obj[enter]
        obj = [vo - factor * vl for vo, vl in zip(obj, tab[leave])]
        basis[leave] = enter

    optimum = ZERO
    for i in range(m):
        if basis[i] >= n:
            optimum += rhs[i]

    if optimum == 0:
        solution = [ZERO] * n
        for i in range(m):
            if basis[i] < n:
                solution[basis[i]] = rhs[i]
        return FeasibilityResult(feasible=True, solution=solution)

    # Farkas certificate: the dual y = c_B B^[-1] read off the artificial
    # columns, mapped back to the original row orientation.
    y = [signs[i] * (obj[n + i] + ONE) for i in range(m)]
    return FeasibilityResult(feasible=False, certificate=y)


def verify_feasible(columns, b, solution) -> bool:
    """Exact check that solution >= 0 and A @ solution == b."""
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
    dot_b = sum((y[i] * b[i] for i in range(len(b))), ZERO)
    if dot_b <= 0:
        return False
    for col in columns:
        dot = sum((y[i] * col[i] for i in range(len(col))), ZERO)
        if dot > 0:
            return False
    return True
