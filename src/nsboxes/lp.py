"""Exact rational feasibility solver for systems A w = b, w >= 0, A 0/1.

Phase-1 simplex with Bland's anti-cycling rule: minimize the sum of
artificial variables starting from the all-artificial basis.  A zero optimum
yields a feasible point; a positive optimum yields a Farkas certificate y
with y.b > 0 and y.A_j <= 0 for every column j.

Each column of A is given by its rows: `columns[j]` lists the distinct row
indices where column j holds a 1; every other entry is 0.  b must be
nonnegative.  The tableau holds integers: b is scaled by the LCM of its
denominators, and pivoting is fraction-free (Edmonds, J. Res. NBS 71B
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
    solution: tuple | None = None      # weight per column when feasible
    certificate: tuple | None = None   # y per row otherwise
    pivots: int = 0                    # simplex pivots taken


def _check_columns(columns, m: int) -> None:
    for rows in columns:
        if not all(isinstance(i, int) and 0 <= i < m for i in rows) or len(set(rows)) != len(rows):
            raise ValueError(f"a column must list distinct row indices in range({m}), got {rows!r}")


def solve_equality_feasibility(columns: list[list[int]], b: list[Fraction]) -> FeasibilityResult:
    """Decide whether b is a nonnegative combination of the given columns.

    `columns[j]` lists the rows where column j holds a 1, and b >= 0.  Runs
    entirely in exact arithmetic.
    """
    m = len(b)
    n = len(columns)
    exact = [_exact(v, "LP coefficient") for v in b]
    if any(v < 0 for v in exact):
        raise ValueError(f"the right-hand side must be nonnegative, got {min(exact)}")
    _check_columns(columns, m)
    b_scale = math.lcm(*(f.denominator for f in exact))
    rhs = [f.numerator * (b_scale // f.denominator) for f in exact]

    # Tableau over the given columns followed by the m artificial columns.
    tab = [[0] * n + [int(k == i) for k in range(m)] for i in range(m)]
    for j, rows in enumerate(columns):
        for i in rows:
            tab[i][j] = 1
    basis = [n + i for i in range(m)]
    # Reduced objective row for minimizing the artificial sum: the entry for
    # column j is z_j - c_j with c = (0,...,0, 1,...,1), so a column's count
    # of ones, and 1 - 1 on the artificial columns.
    obj = [len(rows) for rows in columns] + [0] * m

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
                solution[j] = Fraction(rhs[i], det * b_scale)
        return FeasibilityResult(feasible=True, solution=tuple(solution), pivots=pivots)

    # Farkas certificate: the dual y = c_B B^[-1] read off the artificial columns.
    y = tuple(Fraction(obj[n + i] + det, det) for i in range(m))
    return FeasibilityResult(feasible=False, certificate=y, pivots=pivots)

