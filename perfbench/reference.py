"""Reference answers the benchmark checks nsboxes against.

Nothing here imports nsboxes.  Tables are plain dicts mapping
``(x, a)`` bit-tuple pairs to ``Fraction`` values, holding nonzero entries
only.  Each reference is computed by a different route than the library
uses: closed forms for the box families, the Werner-Wolf criterion for
locality of parity-symmetric boxes, the boosting recurrence modulo a prime,
and dyadic interval brackets for threshold search.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

ONE = Fraction(1)


def bits(n: int):
    return itertools.product((0, 1), repeat=n)


def parity(v) -> int:
    return sum(v) & 1


def anf_value(monomials, x) -> int:
    """XOR over monomials (sets of 1-based variables) of their ANDs at x."""
    value = 0
    for mono in monomials:
        value ^= all(x[i - 1] for i in mono)
    return value


def anf_expr(monomials) -> str:
    """Expression text accepted by ``nsboxes.parse_expr``."""
    terms = sorted(
        ("*".join(f"x{i}" for i in sorted(m)) if m else "1")
        for m in monomials
    )
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------- tables


def full_correlation(n: int, f) -> dict:
    """P(a|x) = 1/2^(n-1) when parity(a) == f(x)."""
    w = Fraction(1, 2 ** (n - 1))
    outputs = {0: [], 1: []}
    for a in bits(n):
        outputs[parity(a)].append(a)
    return {(x, a): w for x in bits(n) for a in outputs[f(x) & 1]}


def npr(n: int) -> dict:
    return full_correlation(n, lambda x: int(all(x)))


def even(n: int) -> dict:
    return full_correlation(n, lambda x: 0)


def uniform(n: int) -> dict:
    w = Fraction(1, 2 ** n)
    return {(x, a): w for x in bits(n) for a in bits(n)}


def deterministic(n: int, strategy) -> dict:
    """``strategy[i]`` is party i's (output on input 0, output on input 1)."""
    return {
        (x, tuple(strategy[i][x[i]] for i in range(n))): ONE for x in bits(n)
    }


def mixture(tables, weights) -> dict:
    out: dict = {}
    for table, w in zip(tables, weights):
        for key, p in table.items():
            out[key] = out.get(key, 0) + w * p
    return {key: p for key, p in out.items() if p != 0}


def correlated(n: int, eps: Fraction) -> dict:
    return mixture([npr(n), even(n)], [eps, 1 - eps])


def box_text(n: int, table: dict) -> str:
    """Box-file text with records in the order ``box_to_text`` writes them."""
    lines = [f"n {n}"]
    for x in bits(n):
        xs = "".join(map(str, x))
        for a in bits(n):
            p = table.get((x, a))
            if p:
                lines.append(f"{xs} {''.join(map(str, a))} {p.numerator}/{p.denominator}")
    return "\n".join(lines) + "\n"


def max_den_bits(values) -> int:
    return max((Fraction(v).denominator.bit_length() for v in values), default=0)


# ---------------------------------------------------------------- locality


def werner_wolf_local(n: int, table: dict):
    """Locality verdict for a parity-symmetric box, or None for other boxes.

    A box with P(a|x) = (1 + (-1)^parity(a) E(x)) / 2^n is local exactly
    when the Walsh-Hadamard coefficients of its correlator E have absolute
    sum at most 1 (Werner and Wolf, PRA 64, 032112).
    """
    size = 2 ** n
    corr = {}
    for x in bits(n):
        e = sum(
            (p if parity(a) == 0 else -p)
            for (xx, a), p in table.items()
            if xx == x
        )
        corr[x] = Fraction(e)
        for a in bits(n):
            sign = 1 if parity(a) == 0 else -1
            if table.get((x, a), 0) != (1 + sign * corr[x]) / size:
                return None
    total = Fraction(0)
    for beta in bits(n):
        c = sum(
            (e if sum(b & xi for b, xi in zip(beta, x)) % 2 == 0 else -e)
            for x, e in corr.items()
        )
        total += abs(Fraction(c, size))
    return total <= 1


# ---------------------------------------------------------------- distill

MODULUS = 2 ** 61 - 1  # prime; the recurrence is checked in this field


def to_mod(q: Fraction) -> int:
    return q.numerator % MODULUS * pow(q.denominator % MODULUS, -1, MODULUS) % MODULUS


def t_map_sequence_mod(n: int, eps0: Fraction, steps: int) -> list[int]:
    """eps_0..eps_steps of the boosting map, reduced modulo ``MODULUS``."""
    c = 2 ** (n - 1)
    inv_c = pow(c, -1, MODULUS)
    seq = [to_mod(eps0)]
    for _ in range(steps):
        e = seq[-1]
        seq.append(e * ((c + 1 - e) % MODULUS) % MODULUS * inv_c % MODULUS)
    return seq


def t_map(n: int, eps: Fraction) -> Fraction:
    c = 2 ** (n - 1)
    return eps * (c + 1 - eps) / c


def steps_to_reach_bracketed(n, eps0, target, precision=512, max_steps=64):
    """Smallest m with eps_m >= target, or None when brackets cannot decide.

    Iterates integer lower and upper bounds on eps_m scaled by 2^precision,
    rounding outward.  The map is increasing on [0, 1], so the bounds stay
    valid bounds.
    """
    scale = 1 << precision
    c = 2 ** (n - 1)
    lo = eps0.numerator * scale // eps0.denominator
    hi = -(-eps0.numerator * scale // eps0.denominator)
    for m in range(max_steps + 1):
        if Fraction(lo, scale) >= target:
            return m
        if Fraction(hi, scale) >= target:
            return None
        lo = lo * ((c + 1) * scale - lo) // (c * scale)
        hi = -(-hi * ((c + 1) * scale - hi) // (c * scale))
    return None


# ---------------------------------------------------------------- commcost


def support_facts(n: int, monomials) -> dict:
    """Block structure of the degree>=2 monomials, as the paper defines it.

    Returns the number of blocks, the one-way channel count for simulating
    the box from scratch (variables in the union minus blocks) and whether
    the margin condition for boosting holds (one block, and some monomial
    has more private variables than there are parties outside the union).
    """
    j_set = [frozenset(m) for m in monomials if len(m) >= 2]
    blocks: list[set] = []
    for mono in j_set:
        touching = [b for b in blocks if b & mono]
        merged = set(mono).union(*touching)
        blocks = [b for b in blocks if not b & mono] + [merged]
    union = set().union(*j_set) if j_set else set()
    private = [
        len(m - set().union(*(o for o in j_set if o != m))) for m in j_set
    ]
    return {
        "n_j": len(blocks),
        "n_scratch": len(union) - len(blocks),
        "margin_ok": len(blocks) == 1 and max(private) > n - len(union),
    }
