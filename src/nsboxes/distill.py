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
    check_int,
    check_weight,
    make_correlated,
)
from .wiring import bs_wiring, evaluate_wiring


class UnreachableTargetError(ValueError):
    """Raised for targets the iteration can approach but never attain."""


def _coprime_fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for coprime num and den > 0, skipping the gcd."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value


def t_map(n: int, eps: Fraction) -> Fraction:
    """One boosting round: eps -> eps / 2^(n-1) * (2^(n-1) + 1 - eps)."""
    check_boosting_party_count(n)
    eps = check_weight(eps)
    p, q = eps.numerator, eps.denominator
    if p == 0:
        return Fraction(0)
    # p/q in lowest terms maps to p((Q+1)q - p) / (Q q^2) with Q = 2^(n-1); a
    # prime dividing q and (Q+1)q - p divides p, so only powers of 2 cancel.
    num, den = p * ((q << (n - 1)) + q - p), (q * q) << (n - 1)
    shift = min((num & -num).bit_length(), (den & -den).bit_length()) - 1
    return _coprime_fraction(num >> shift, den >> shift)


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

    @property
    def final(self) -> Fraction:
        return self.eps_sequence[-1]

    @property
    def steps(self) -> int:
        return len(self.eps_sequence) - 1

    @property
    def copies_used(self) -> int:
        return 2 ** self.steps


def iterate(n: int, eps0: Fraction, steps: int) -> Trajectory:
    """Trajectory of `steps` boosting rounds from eps0; uses 2^steps copies."""
    check_boosting_party_count(n)
    eps0 = check_weight(eps0)
    check_int(steps, "steps", 0)
    seq = [eps0]
    for _ in range(steps):
        seq.append(t_map(n, seq[-1]))
    return Trajectory(n=n, eps_sequence=tuple(seq))


def _bracket_steps(
    n: int, eps: Fraction, target: Fraction, bits: int
) -> tuple[bool, int]:
    """(decided, s) at the first s >= 1 where eps_s's bracket reaches target.

    t_map is increasing on [0, 1], so lo <= eps_s * 2^bits <= hi survives
    rounding outward.  decided (lo >= target, every earlier hi below it)
    certifies s; otherwise the bracket straddles target.  Needs eps < target.
    """
    shift, top = bits + n - 1, ((1 << (n - 1)) + 1) << bits
    lo = (eps.numerator << bits) // eps.denominator
    hi = -(-(eps.numerator << bits) // eps.denominator)
    goal = target.numerator << bits
    s = 0
    while True:
        s += 1
        lo = lo * (top - lo) >> shift
        hi = -(-hi * (top - hi) >> shift)
        if lo * target.denominator >= goal:
            return True, s
        if hi * target.denominator >= goal:
            return False, s


def steps_to_reach(n: int, eps0: Fraction, target: Fraction) -> int:
    """Smallest m with eps_m >= target.

    Requires 0 < eps0 < 1 and eps0 <= target < 1; a target of exactly 1 is
    approached but never attained and raises UnreachableTargetError.  The
    answer comes from certified dyadic brackets on eps_m, whose precision
    doubles while they straddle target, and from the exact recurrence where
    brackets cannot decide (say, when target is some eps_m exactly).
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
    m, bits = 0, 64
    while eps < target:
        reached, s = _bracket_steps(n, eps, target, bits)
        if reached:
            return m + s
        # eps_(m+s)'s denominator has under (its bits now + n) << s bits; a
        # finer bracket than that costs more than computing it exactly.
        if bits < (eps.denominator.bit_length() + n) << s:
            bits *= 2
        else:
            eps, m = iterate(n, eps, s).final, m + s
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
