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


def check_int(value, what: str, low: int, high: int | None = None) -> int:
    """value, an int (not a bool; else TypeError) in low..high, or >= low if high is None (else ValueError)."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {value!r}")
    if value < low or (high is not None and value > high):
        span = f"at least {low}" if high is None else f"in {low}..{high}"
        # str() of an int past 4,300 digits raises: a huge value is named by its size.
        shown = value if value.bit_length() <= 256 else f"an int of {value.bit_length()} bits"
        raise ValueError(f"{what} must be {span}, got {shown}")
    return value


def check_bits(value, n: int, what: str) -> Bits:
    """value, required to be a tuple of n ints, each 0 or 1 (an n-bit tuple); else ValueError."""
    if type(value) is not tuple or len(value) != n or not all(type(b) is int and 0 <= b <= 1 for b in value):
        raise ValueError(f"{what} must be a {n}-bit tuple, got {value!r}")
    return value


def check_exhaustive_party_count(n: int, what: str) -> None:
    """Refuse n parties for an exhaustive check beyond its supported size."""
    if n > MAX_EXHAUSTIVE_PARTIES:
        raise ValueError(
            f"{what} supports up to {MAX_EXHAUSTIVE_PARTIES} parties, got {n}"
        )


def check_boosting_party_count(n: int) -> None:
    """Refuse fewer than two parties for the boosting map and its wiring."""
    try:
        check_int(n, "party count", 2)
    except ValueError:
        raise ValueError("the boosting map needs at least two parties") from None


def _exact(value, what: str) -> Fraction:
    """value as a Fraction; a float or a bool raises TypeError.

    A float's binary expansion (0.1 is 3602879701896397/2^55) is almost
    never the number meant, and a bool (True == 1) is a flag passed by mistake.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"{type(value).__name__} {what}: {value!r}; pass an exact Fraction")
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

    Invariants, enforced at construction: keys are (x, a) pairs of n-bit
    tuples, entries are nonnegative Fractions, and for every input x they
    sum to exactly 1.  Omitted entries are zero; the stored `entries` is a
    read-only view holding all 4^n of them.
    """

    n: int
    entries: Mapping[tuple[Bits, Bits], Fraction] = field(repr=False)

    def __post_init__(self):
        check_int(self.n, "party count", 1, MAX_PARTIES)
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
        if not self.entries.keys() <= full.keys():
            stray = min((key for key in self.entries if key not in full), key=repr)
            raise ValueError(f"key {stray!r} is not an (x, a) pair of {self.n}-bit tuples")
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
    check_int(n, "party count", 1, MAX_PARTIES)
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
    """Entrywise convex combination of boxes over the same parties, summed over one common denominator."""
    if not boxes:
        raise ValueError("mix requires at least one box")
    if len(boxes) != len(weights):
        raise ValueError("one weight per box required")
    for i, b in enumerate(boxes):
        _check_box(b, f"mix: boxes[{i}]")
    n = boxes[0].n
    if any(b.n != n for b in boxes):
        raise ValueError("mixed boxes must share the party count")
    weights = [_exact(w, "weight") for w in weights]
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if sum(weights) != 1:
        raise ValueError(f"weights sum to {sum(weights)}, not 1")
    terms = [(w, *_numerators(b)) for b, w in zip(boxes, weights) if w]
    den = math.lcm(*(w.denominator * d for w, _, d in terms))
    totals = [0] * len(boxes[0].entries)
    for w, flat, d in terms:
        c = w.numerator * (den // (w.denominator * d))
        totals = [t + c * v for t, v in zip(totals, flat)]
    return BoxTable(n, {key: Fraction(t, den) for key, t in zip(boxes[0].entries, totals)})


def xor_boxes(p: BoxTable, q: BoxTable) -> BoxTable:
    """Box producing the bitwise XOR of two boxes' outputs on a shared input.

    Both boxes receive the same input tuple and answer independently; party i
    outputs the XOR of its two output bits.  Each output row is the XOR convolution of the
    input's two rows: transform both by Walsh-Hadamard, in integers, multiply pointwise and
    transform back (Fino & Algazi, IEEE Trans. Comput. C-25, 1142 (1976)).
    """
    _check_box(p, "xor_boxes: p")
    _check_box(q, "xor_boxes: q")
    if p.n != q.n:
        raise ValueError(f"xor_boxes requires equal party counts, got {p.n} and {q.n}")
    n = p.n
    side = 1 << n
    (flat_p, den_p), (flat_q, den_q) = _numerators(p), _numerators(q)
    den = den_p * den_q * side  # the inverse transform divides by 2^n
    values = []
    for start in range(0, side * side, side):
        row_p = _walsh_hadamard(flat_p[start:start + side])
        row_q = _walsh_hadamard(flat_q[start:start + side])
        values += _walsh_hadamard([u * v for u, v in zip(row_p, row_q)])
    return BoxTable(n, {key: Fraction(v, den) for key, v in zip(p.entries, values)})


def _check_box(value, what: str) -> BoxTable:
    """value, required to be a BoxTable; else TypeError."""
    if not isinstance(value, BoxTable):
        raise TypeError(f"{what} must be a BoxTable, got {value!r}")
    return value


def _numerators(box: BoxTable) -> tuple[list[int], int]:
    """The entries as integers over their common denominator, in flat `(x << n) | a` order."""
    den = math.lcm(*(v.denominator for v in box.entries.values()))
    return [v.numerator * (den // v.denominator) for v in box.entries.values()], den


def _walsh_hadamard(row: list[int]) -> list[int]:
    """row, transformed in place by the butterfly (u, v) -> (u + v, u - v); returns row."""
    size, half = len(row), 1
    while half < size:
        for start in range(0, size, 2 * half):
            for i in range(start, start + half):
                u, v = row[i], row[i + half]
                row[i], row[i + half] = u + v, u - v
        half *= 2
    return row


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
    flat, _ = _numerators(p)
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
