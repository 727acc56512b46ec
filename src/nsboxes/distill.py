"""Scalar dynamics of two-copy boosting on correlated boxes.

Running the boosting wiring on two copies of the mixture
eps * PR + (1 - eps) * even-parity maps the weight eps to
t_map(n, eps) = eps / 2^(n-1) * (2^(n-1) + 1 - eps); iterating consumes
2^m copies for m rounds.  Everything here is exact; closeness to the PR
box is reported both through eps itself and through the worst-case
per-input total-variation distance, which equals 1 - eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .boxes import (
    check_boosting_party_count,
    check_exhaustive_party_count,
    check_weight,
    make_correlated,
)
from .wiring import bs_wiring, evaluate_wiring


class UnreachableTargetError(ValueError):
    """Raised for targets the iteration can approach but never attain."""


def t_map(n: int, eps: Fraction) -> Fraction:
    """One boosting round: eps -> eps / 2^(n-1) * (2^(n-1) + 1 - eps)."""
    check_boosting_party_count(n)
    eps = check_weight(eps)
    half = Fraction(1, 2 ** (n - 1))
    return eps * half * (2 ** (n - 1) + 1 - eps)


def derivative_at_fixed_points(n: int) -> tuple[Fraction, Fraction]:
    """Slopes of the boosting map at its fixed points eps = 0 and eps = 1.

    The slope at 0 is 1 + 1/2^(n-1) > 1 (the fully mixed end repels) and at
    1 it is 1 + 1/2^(n-1) - 1/2^(n-2) < 1 (the PR end attracts).
    """
    check_boosting_party_count(n)
    at_zero = 1 + Fraction(1, 2 ** (n - 1))
    at_one = 1 + Fraction(1, 2 ** (n - 1)) - Fraction(1, 2 ** (n - 2))
    return at_zero, at_one


@dataclass(frozen=True)
class Trajectory:
    """Iterates eps_0, eps_1, ... of the boosting map and the copies used."""

    n: int
    eps_sequence: tuple[Fraction, ...]
    copies_used: int

    @property
    def final(self) -> Fraction:
        return self.eps_sequence[-1]

    @property
    def steps(self) -> int:
        return len(self.eps_sequence) - 1


def iterate(n: int, eps0: Fraction, steps: int) -> Trajectory:
    """Trajectory of `steps` boosting rounds from eps0; uses 2^steps copies."""
    check_boosting_party_count(n)
    eps0 = check_weight(eps0)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    seq = [eps0]
    for _ in range(steps):
        seq.append(t_map(n, seq[-1]))
    return Trajectory(n=n, eps_sequence=tuple(seq), copies_used=2 ** steps)


def steps_to_reach(n: int, eps0: Fraction, target: Fraction) -> int:
    """Smallest m with eps_m >= target.

    Requires 0 < eps0 < 1 and eps0 <= target < 1; a target of exactly 1 is
    approached but never attained and raises UnreachableTargetError.
    """
    check_boosting_party_count(n)
    if not 0 < eps0 < 1:
        raise ValueError(f"eps0 must satisfy 0 < eps0 < 1, got {eps0}")
    if target >= 1:
        raise UnreachableTargetError(
            "eps = 1 is a fixed point reached only in the limit"
        )
    if target < eps0:
        raise ValueError("target must be at least eps0")
    eps = check_weight(eps0)
    target = check_weight(target)
    m = 0
    while eps < target:
        eps = t_map(n, eps)
        m += 1
    return m


def tv_distance_to_limit(eps: Fraction) -> Fraction:
    """Worst-case per-input total-variation distance to the PR box: 1 - eps."""
    return 1 - check_weight(eps)


def validate_against_wiring(n: int, eps: Fraction) -> bool:
    """Cross-check the scalar map against the full wiring engine.

    True iff boosting two copies of the eps-correlated box yields exactly
    the t_map(n, eps)-correlated box, entry by entry.
    """
    check_exhaustive_party_count(n, "wiring cross-check")
    eps = check_weight(eps)
    box = make_correlated(n, eps)
    boosted = evaluate_wiring([box, box], bs_wiring(n))
    return boosted == make_correlated(n, t_map(n, eps))


def trajectory_csv(tr: Trajectory) -> str:
    """CSV rows: step, eps numerator, denominator, decimal, copies used."""
    lines = ["step,eps_num,eps_den,eps_decimal,copies"]
    for k, eps in enumerate(tr.eps_sequence):
        dec = format(float(eps), ".12g")
        lines.append(f"{k},{eps.numerator},{eps.denominator},{dec},{2 ** k}")
    return "\n".join(lines) + "\n"
