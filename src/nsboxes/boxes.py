"""Exact conditional-probability tables for n-party binary-input/output boxes.

A box is the conditional distribution P(a | x) where x and a are n-tuples of
bits, one input and one output bit per party.  All probabilities are
`fractions.Fraction`; every identity in this package is checked with zero
tolerance.  Storage is dense: all 4^n entries are kept, zeros included.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator

# Largest party count any table may have.
MAX_PARTIES = 8
# Largest party count for the exhaustive checks: the locality LP, the wiring
# cross-check of the boosting map and the end-to-end plan verifier.
MAX_EXHAUSTIVE_PARTIES = 5

Bits = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def bit_tuples(n: int) -> Iterator[Bits]:
    """All n-bit tuples in lexicographic order (0...0 first)."""
    return itertools.product((0, 1), repeat=n)


def parity(bits: Iterable[int]) -> int:
    p = 0
    for b in bits:
        p ^= b
    return p


def _check_party_count(n: int) -> None:
    if not 1 <= n <= MAX_PARTIES:
        raise ValueError(f"party count must be in 1..{MAX_PARTIES}, got {n}")


def check_exhaustive_party_count(n: int, what: str) -> None:
    """Refuse n parties for an exhaustive check beyond its supported size."""
    if n > MAX_EXHAUSTIVE_PARTIES:
        raise ValueError(
            f"{what} supports up to {MAX_EXHAUSTIVE_PARTIES} parties, got {n}"
        )


def check_boosting_party_count(n: int) -> None:
    """Refuse fewer than two parties for the boosting map and its wiring."""
    if n < 2:
        raise ValueError("the boosting map needs at least two parties")


def _exact(value, what: str) -> Fraction:
    """value as a Fraction; a float raises TypeError.

    A float's binary expansion (0.1 is 3602879701896397/2^55) is almost
    never the number meant.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"float {what}: {value!r}; pass an exact Fraction")
    return Fraction(value)


def check_weight(eps) -> Fraction:
    """The mixing weight eps as a Fraction, required to lie in [0, 1]."""
    eps = _exact(eps, "weight")
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    return eps


def check_positive_weight(eps) -> Fraction:
    """check_weight for eps in (0, 1]; an out-of-range float raises ValueError."""
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    return check_weight(eps)


@dataclass(frozen=True)
class BoxTable:
    """Dense table P(a | x) over n binary-input, binary-output parties.

    Invariants, enforced at construction: every entry is a nonnegative
    Fraction and for every input x the entries sum to exactly 1.  Entries
    omitted from the given mapping are zero; the stored `entries` is a
    read-only view holding all 4^n of them.
    """

    n: int
    entries: Mapping[tuple[Bits, Bits], Fraction] = field(repr=False)

    def __post_init__(self):
        _check_party_count(self.n)
        full = {}
        for x in bit_tuples(self.n):
            total = ZERO
            for a in bit_tuples(self.n):
                p = self.entries.get((x, a), ZERO)
                if not isinstance(p, Fraction):
                    p = _exact(p, f"probability at x={x}, a={a}")
                if p < 0:
                    raise ValueError(f"negative probability at x={x}, a={a}")
                full[(x, a)] = p
                total += p
            if total != 1:
                raise ValueError(
                    f"conditional distribution for x={x} sums to {total}, not 1"
                )
        object.__setattr__(self, "entries", MappingProxyType(full))

    def prob(self, x: Bits, a: Bits) -> Fraction:
        return self.entries[(tuple(x), tuple(a))]

    def support(self, x: Bits) -> list[tuple[Bits, Fraction]]:
        """Nonzero outcomes for input x."""
        return [
            (a, self.entries[(x, a)])
            for a in bit_tuples(self.n)
            if self.entries[(x, a)] != 0
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoxTable):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.entries.values())))


def _parity_box(n: int, odd_weight) -> BoxTable:
    """Parity-symmetric box with weight q(x) = odd_weight(x) on odd parity.

    P(a|x) = q(x)/2^(n-1) for odd parity(a), (1 - q(x))/2^(n-1) for even:
    the correlator form of Werner & Wolf, PRA 64, 032112 (2001).
    """
    _check_party_count(n)
    share = Fraction(1, 2 ** (n - 1))
    outputs = [(a, parity(a)) for a in bit_tuples(n)]
    entries = {}
    for x in bit_tuples(n):
        odd = odd_weight(x) * share
        even = share - odd
        for a, odd_parity in outputs:
            entries[(x, a)] = odd if odd_parity else even
    return BoxTable(n, entries)


def make_npr(n: int) -> BoxTable:
    """The n-party PR box: output parity equals the product of all inputs."""
    return _parity_box(n, all)


def make_even_parity(n: int) -> BoxTable:
    """The n-party even-parity box: output parity 0 for every input."""
    return _parity_box(n, lambda x: 0)


def make_correlated(n: int, eps: Fraction) -> BoxTable:
    """Entrywise mixture eps * PR + (1 - eps) * even-parity."""
    eps = check_weight(eps)
    return _parity_box(n, lambda x: eps * all(x))


def make_full_correlation(f) -> BoxTable:
    """Full-correlation box of a Boolean function given in ANF form."""
    return _parity_box(f.n, f.evaluate)


def mix(boxes: list[BoxTable], weights: list[Fraction]) -> BoxTable:
    """Entrywise convex combination of boxes over the same parties."""
    if not boxes:
        raise ValueError("mix requires at least one box")
    if len(boxes) != len(weights):
        raise ValueError("one weight per box required")
    n = boxes[0].n
    if any(b.n != n for b in boxes):
        raise ValueError("mixed boxes must share the party count")
    weights = [_exact(w, "weight") for w in weights]
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if sum(weights) != 1:
        raise ValueError(f"weights sum to {sum(weights)}, not 1")
    entries = {}
    for key in boxes[0].entries:
        entries[key] = sum(
            (w * b.entries[key] for b, w in zip(boxes, weights)), ZERO
        )
    return BoxTable(n, entries)


def xor_boxes(p: BoxTable, q: BoxTable) -> BoxTable:
    """Box producing the bitwise XOR of two boxes' outputs on a shared input.

    Both boxes receive the same input tuple and answer independently; party i
    outputs the XOR of its two output bits.
    """
    if p.n != q.n:
        raise ValueError("xor_boxes requires equal party counts")
    n = p.n
    entries = {(x, c): ZERO for x in bit_tuples(n) for c in bit_tuples(n)}
    for x in bit_tuples(n):
        sup_p = p.support(x)
        sup_q = q.support(x)
        for a, pa in sup_p:
            for b, qb in sup_q:
                c = tuple(ai ^ bi for ai, bi in zip(a, b))
                entries[(x, c)] += pa * qb
    return BoxTable(n, entries)


def xor_star(functions: list, eps: Fraction) -> BoxTable:
    """Correlated-error XOR of full-correlation boxes.

    Returns eps * (P_f1 xor ... xor P_fm) + (1 - eps) * even-parity: the
    perfect boxes are XORed first and the error is applied once, jointly.
    This differs from XORing the individual eps-mixtures, whose errors are
    independent.
    """
    if not functions:
        raise ValueError("xor_star requires at least one function")
    eps = check_weight(eps)
    n = functions[0].n
    if any(f.n != n for f in functions):
        raise ValueError("all functions must share the variable count")
    return _parity_box(n, lambda x: eps * parity(f.evaluate(x) for f in functions))


@dataclass(frozen=True)
class SignalingCheck:
    """Result of a non-signaling test; falsy when a violation was found.

    On failure, `witness` is (party k, input x, input x', a_slice): flipping
    party k's input from x to x' changes the other parties' marginal at
    outputs a_slice.
    """

    ok: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_non_signaling(p: BoxTable) -> SignalingCheck:
    """Check that no single party's input shifts the others' output marginal.

    The single-party flip condition is checked exhaustively and exactly; it
    is equivalent to marginal invariance for every party subset.  Entries are
    compared as integers over their common denominator, at the flat index
    `(x << n) | a` of `entries`.  Pairs are visited party by party, then by
    input x, then by the others' outputs, so the witness is the first
    violation in that order.
    """
    n = p.n
    side = 1 << n
    den = math.lcm(*(v.denominator for v in p.entries.values()))
    flat = [v.numerator * (den // v.denominator) for v in p.entries.values()]
    rows = [flat[x * side:(x + 1) * side] for x in range(side)]
    for k in range(n):
        bit = 1 << (n - 1 - k)  # party k's bit, in x and in a alike
        # Output pairs differing only in party k, in the order of the others' outputs.
        pairs = [(a, a | bit) for a in range(side) if not a & bit]
        marginals = [[row[a0] + row[a1] for a0, a1 in pairs] for row in rows]
        for x in range(side):
            if x & bit or marginals[x] == marginals[x | bit]:
                continue
            rest = next(j for j, (u, v) in enumerate(zip(marginals[x], marginals[x | bit])) if u != v)
            return SignalingCheck(
                ok=False, witness=(k + 1, _bits(x, n), _bits(x | bit, n), _bits(rest, n - 1))
            )
    return SignalingCheck(ok=True)


def _bits(value: int, width: int) -> Bits:
    """value as a width-bit tuple, most significant bit first."""
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))
