"""Locality testing by exact linear programming over deterministic strategies.

A box is local when it is a convex mixture of deterministic strategies, one
response function per party.  Membership in that hull is decided exactly:
strategies that would put weight on a zero-probability entry are eliminated
up front (their weight is forced to zero), and a phase-1 simplex settles the
rest.  A non-local verdict carries a Farkas certificate that is checked
against every strategy column.

Both passes over the 4^n strategies read one integer view of a box: the flat
entry index `(x << n) | a`, the order in which `BoxTable.entries` holds its
entries.  `_hits(s)` lists the flat indices strategy s hits, one per input,
and `_strategy_indices(n)` caches them for every strategy.  The LP pass maps
them through a flat row list; the certificate check sums a flat integer list
of duals, scaled to their common denominator, along them; `LocalModel.to_box`
sums its weights along them, keyed by flat index.

The simplex sees only the nonzero rows.  Its certificate y is extended over
the zero rows without scoring a strategy: none scores above `bound = y_norm +
sum_x max_a y(x, a)` (zero rows counting as 0), so every zero row gets the dual
`-(max(0, bound) + 1)`.  Zero rows have b = 0, so y.b stays positive.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import lp
from .boxes import (
    ONE, ZERO, BoxTable, Bits, _exact, bit_tuples, check_bits, check_exhaustive_party_count,
)

NORM = ("norm",)

# A strategy assigns each party a response pair (output on input 0, on 1).
Strategy = tuple[tuple[int, int], ...]
_RESPONSES = ((0, 0), (0, 1), (1, 0), (1, 1))


def strategies(n: int) -> list[Strategy]:
    """All 4^n deterministic strategy tuples, in a fixed order."""
    return list(itertools.product(_RESPONSES, repeat=n))


def _hits(s: Strategy) -> tuple[int, ...]:
    """The flat indices `(x << n) | a` that strategy s hits, one per input x.

    a is s's outputs on input x.  The indices are sums of per-party
    contributions, one party at a time, in `bit_tuples` order of x.
    """
    n = len(s)
    hits = [0]
    for i, (r0, r1) in enumerate(s):
        x_bit, a_bit = 1 << (2 * n - 1 - i), 1 << (n - 1 - i)
        hits = [h + c for h in hits for c in (r0 * a_bit, x_bit | r1 * a_bit)]
    return tuple(hits)


@functools.lru_cache(maxsize=None)
def _strategy_indices(n: int) -> tuple[tuple[int, ...], ...]:
    """`_hits` of each strategy in `strategies(n)`; n is at most `MAX_EXHAUSTIVE_PARTIES`."""
    return tuple(map(_hits, strategies(n)))


@dataclass(frozen=True)
class LocalModel:
    """Convex weights over deterministic strategies reproducing a box.

    `weights` is stored as a read-only copy of the mapping given.
    """

    weights: Mapping[Strategy, Fraction]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("a local model needs at least one strategy")
        first = next(iter(self.weights))
        for s in self.weights:
            try:
                for r in s if isinstance(s, tuple) else (s,):  # a non-tuple s fails check_bits
                    check_bits(r, 2, "response")
            except ValueError as exc:
                raise ValueError(f"strategy {s!r} is not a tuple of (bit, bit) response pairs") from exc
            if len(s) != len(first):
                raise ValueError(f"strategy {s!r} has {len(s)} parties, {first!r} has {len(first)}")
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))

    def __hash__(self) -> int:
        return hash(frozenset(self.weights.items()))

    @property
    def n(self) -> int:
        return len(next(iter(self.weights)))

    def to_box(self) -> BoxTable:
        n = self.n
        sums: dict[int, Fraction] = {}
        for s, w in self.weights.items():
            for i in _hits(s):
                sums[i] = sums.get(i, ZERO) + w
        bits = list(bit_tuples(n))
        return BoxTable(n, {(bits[i >> n], bits[i % len(bits)]): p for i, p in sums.items()})


@dataclass(frozen=True)
class NonlocalityCertificate:
    """Farkas witness: row duals that separate the box from the local hull.

    Rows are the (x, a) probability equations plus the normalization row
    ("norm",).  The certificate satisfies dot(y, rhs) > 0 while
    dot(y, column) <= 0 for every deterministic strategy.  `row_duals` is
    stored as a read-only copy of the mapping given.
    """

    row_duals: Mapping

    def __post_init__(self):
        object.__setattr__(self, "row_duals", MappingProxyType(dict(self.row_duals)))

    def __hash__(self) -> int:
        return hash(frozenset(self.row_duals.items()))

    def verify(self, box: BoxTable) -> bool:
        exact = {key: _exact(y, "certificate dual") for key, y in self.row_duals.items()}
        for key in exact:
            if key != NORM and key not in box.entries:
                x = key[0] if isinstance(key, tuple) and key else None
                if isinstance(x, tuple) and len(x) != box.n:
                    raise ValueError(f"certificate is for {len(x)} parties, box has {box.n}")
                raise ValueError(f"certificate row {key!r} is not an entry of the box")
        check_exhaustive_party_count(box.n, "certificate check")
        if sum((y if key == NORM else y * box.entries[key] for key, y in exact.items()), ZERO) <= 0:
            return False
        # Score each strategy in integers over the duals' common denominator.
        den = math.lcm(*(y.denominator for y in exact.values()))
        numerators = {key: y.numerator * (den // y.denominator) for key, y in exact.items()}
        norm = numerators.pop(NORM, 0)
        flat = [numerators.get(key, 0) for key in box.entries]
        return all(
            norm + sum(map(flat.__getitem__, hits)) <= 0 for hits in _strategy_indices(box.n)
        )


@dataclass(frozen=True)
class LocalityResult:
    model: LocalModel | None
    certificate: NonlocalityCertificate | None

    @property
    def local(self) -> bool:
        return self.model is not None


def decide_locality(box: BoxTable) -> LocalityResult:
    """Exact locality decision with model or separating certificate."""
    n = box.n
    check_exhaustive_party_count(n, "locality LP")

    # Equations: one per nonzero entry, plus total weight one.  A strategy
    # hitting a zero entry must carry weight zero, so it gets no column.
    row_of: list[int | None] = []  # flat index -> row, None on a zero entry
    b = []
    for v in box.entries.values():
        if v != 0:
            row_of.append(len(b))
            b.append(v)
        else:
            row_of.append(None)
    norm_row = len(b)
    surviving: list[int] = []
    columns = []
    for j, hits in enumerate(_strategy_indices(n)):
        rows = list(map(row_of.__getitem__, hits))
        if None not in rows:
            rows.append(norm_row)
            surviving.append(j)
            columns.append(rows)

    result = lp.solve_equality_feasibility(columns, b + [ONE])
    if result.feasible:
        all_strategies = strategies(n)
        weights = {all_strategies[j]: w for j, w in zip(surviving, result.solution) if w != 0}
        return LocalityResult(model=LocalModel(weights=weights), certificate=None)

    # Extend the certificate over the zero rows (see the module docstring).
    *y, y_norm = result.certificate
    flat = [ZERO if r is None else y[r] for r in row_of]
    duals = {key: v for key, v in zip(box.entries, flat) if v != 0}
    duals[NORM] = y_norm
    side = 1 << n
    bound = y_norm + sum(max(flat[i:i + side]) for i in range(0, len(flat), side))
    penalty = -(max(ZERO, bound) + ONE)
    duals.update((key, penalty) for key, r in zip(box.entries, row_of) if r is None)
    return LocalityResult(model=None, certificate=NonlocalityCertificate(row_duals=duals))


def realism_distribution(model: LocalModel) -> dict:
    """Joint distribution over all potential outputs, one pair per party.

    The returned map sends tuples (a_{1,0}, a_{1,1}, ..., a_{n,0}, a_{n,1})
    to probabilities; a_{i,j} is party i's output had it received input j.
    Marginalizing at positions picked by an input tuple reproduces the
    modeled box.
    """
    dist: dict = {}
    for s, w in model.weights.items():
        if w == 0:
            continue
        point = tuple(bit for pair in s for bit in pair)
        dist[point] = dist.get(point, ZERO) + w
    return dist


def realism_marginal(dist: dict, n: int, x: Bits) -> dict:
    """Marginal of the joint potential-output distribution at input x."""
    check_bits(x, n, "input")
    out: dict = {}
    for point, w in dist.items():
        check_bits(point, 2 * n, "point")
        a = tuple(point[2 * i + x[i]] for i in range(n))
        out[a] = out.get(a, ZERO) + w
    return out
