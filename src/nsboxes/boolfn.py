"""Boolean functions in algebraic normal form and their nonlocal support.

An ANF is a set of monomials: subsets of variable indices, XORed together,
with the empty subset standing for the constant 1.  The nonlocal support
collects the monomials of degree at least two, partitions them into blocks
that share no variables across blocks, and counts per-monomial private
variables.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .boxes import bit_tuples, check_bits, check_int

Monomial = frozenset[int]


class ExprSyntaxError(ValueError):
    """Expression parse failure; `position` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class AnfFunction:
    """Boolean function as XOR of AND-monomials over variables 1..n.

    `n` is an int >= 0.  Any iterable of index iterables is accepted as
    `monomials`; it is stored as a frozenset of frozensets, and every index
    must be an int in 1..n.
    """

    n: int
    monomials: frozenset[Monomial]

    def __post_init__(self):
        check_int(self.n, "variable count", 0)
        object.__setattr__(self, "monomials", frozenset(map(frozenset, self.monomials)))
        for mono in self.monomials:
            for i in mono:
                check_int(i, "variable index", 1, self.n)

    def evaluate(self, x) -> int:
        """XOR over monomials of the AND of their variables at point x, a tuple of n bits."""
        check_bits(x, self.n, "input")
        value = 0
        for mono in self.monomials:
            value ^= all(x[i - 1] for i in mono)
        return int(value)

    def __xor__(self, other: "AnfFunction") -> "AnfFunction":
        if self.n != other.n:
            raise ValueError("XOR of functions over different variable counts")
        return AnfFunction(self.n, self.monomials ^ other.monomials)

    def truth_table(self) -> str:
        """Bitstring of values, first character at x = (0, ..., 0)."""
        return "".join(str(self.evaluate(x)) for x in bit_tuples(self.n))

    def to_text(self) -> str:
        """Canonical expression text: monomials sorted by (size, indices)."""
        if not self.monomials:
            return "0"
        parts = []
        for mono in sorted(self.monomials, key=lambda m: (len(m), sorted(m))):
            parts.append("1" if not mono else "*".join(f"x{i}" for i in sorted(mono)))
        return " + ".join(parts)


# A bare x is a token, so a non-ASCII digit after it is the character named.
_TOKEN = re.compile(r"\s*(x\d*|1|0|\+|\*)", re.ASCII)


def parse_expr(text: str, n: int) -> AnfFunction:
    """Parse an expression like "x1*x2*x3 + x3 x4 + 1" into ANF.

    '+' is XOR; within a term, '*' or plain whitespace is AND; '1' is the
    constant term and '0' the empty function.  Duplicate monomials cancel
    in pairs.  ASCII only.
    """
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip(string.whitespace)
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()

    terms: list[list[tuple[str, int]]] = [[]]
    for tok, at in tokens:
        if tok == "+":
            if not terms[-1]:
                raise ExprSyntaxError("empty term before '+'", at)
            terms.append([])
        else:
            terms[-1].append((tok, at))
    if not terms[-1]:
        where = tokens[-1][1] if tokens else 0
        raise ExprSyntaxError("empty term", where)

    monomials: set[Monomial] = set()
    for term in terms:
        factors: set[int] = set()
        is_zero = False
        expect_factor = True
        for tok, at in term:
            if tok == "*":
                if expect_factor:
                    raise ExprSyntaxError("'*' without a left factor", at)
                expect_factor = True
                continue
            if tok == "0":
                is_zero = True
            elif tok == "1":
                pass
            else:
                # Digits longer than n's are out of range and never reach int().
                digits = tok[1:].lstrip("0")
                index = int(digits) if 0 < len(digits) <= len(str(n)) else 0
                if not 1 <= index <= n:
                    raise ExprSyntaxError(f"variable {tok} outside x1..x{n}", at)
                factors.add(index)
            expect_factor = False
        if expect_factor:
            raise ExprSyntaxError("dangling '*'", term[-1][1])
        if is_zero:
            continue
        monomials ^= {frozenset(factors)}
    return AnfFunction(n, monomials)


def anf_from_truth_table(tt) -> AnfFunction:
    """Recover the unique ANF reproducing a truth table.

    `tt` is a bit sequence (string or ints) of length 2^n whose first entry
    belongs to x = (0, ..., 0) and where x1 is the most significant index
    bit.  Uses the in-place butterfly form of the binary Moebius transform.
    """
    bits = check_bits(tuple(map(int, tt)), len(tt), f"truth table {tt!r}")
    size = len(bits)
    if size == 0 or size & (size - 1):
        raise ValueError(f"truth table length {size} is not a power of two")
    n = size.bit_length() - 1
    coeff = list(bits)
    half = 1
    while half < size:
        for start in range(0, size, 2 * half):
            for i in range(start, start + half):
                coeff[i + half] ^= coeff[i]
        half *= 2
    monomials = set()
    for idx in range(size):
        if coeff[idx]:
            mono = frozenset(
                i + 1 for i in range(n) if idx & (1 << (n - 1 - i))
            )
            monomials.add(mono)
    return AnfFunction(n, monomials)


@dataclass(frozen=True)
class NonlocalSupport:
    """Degree->=2 monomials, their variable-sharing blocks, and m values.

    `blocks` are the connected components of the graph on `j_set` joining
    monomials that share a variable; distinct blocks use disjoint variables
    and the block count is maximal.  `m_values[I]` counts the variables of I
    appearing in no other j_set monomial; it is a read-only mapping.
    """

    j_set: frozenset[Monomial]
    blocks: tuple[frozenset[Monomial], ...]
    m_values: Mapping[Monomial, int]

    def __post_init__(self):
        object.__setattr__(self, "m_values", MappingProxyType(dict(self.m_values)))

    def __hash__(self) -> int:
        return hash(self.j_set)

    @property
    def n_j(self) -> int:
        return len(self.blocks)

    @property
    def union(self) -> frozenset[int]:
        return frozenset().union(*self.j_set)


def nonlocal_support(f: AnfFunction) -> NonlocalSupport:
    """Compute the degree->=2 support, its blocks, and per-monomial m values."""
    j_set = frozenset(m for m in f.monomials if len(m) >= 2)
    blocks: list[frozenset[Monomial]] = []
    for mono in j_set:
        # mono joins, and so merges, every block it shares a variable with
        merged = frozenset([mono]).union(*(b for b in blocks if any(mono & m for m in b)))
        blocks = [b for b in blocks if not b <= merged] + [merged]
    blocks.sort(key=lambda blk: sorted(sorted(m) for m in blk))
    uses = Counter(i for m in j_set for i in m)
    return NonlocalSupport(
        j_set=j_set,
        blocks=tuple(blocks),
        m_values={m: sum(uses[i] == 1 for i in m) for m in j_set},
    )


def local_part(f: AnfFunction) -> AnfFunction:
    """The XOR of f's monomials of degree at most one (constant included)."""
    return AnfFunction(f.n, [m for m in f.monomials if len(m) <= 1])
