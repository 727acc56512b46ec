"""Locality testing by exact linear programming over deterministic strategies.

A box is local when it is a convex mixture of deterministic strategies, one
response function per party.  Membership in that hull is decided exactly:
strategies that would put weight on a zero-probability entry are eliminated
up front (their weight is forced to zero), and a phase-1 simplex settles the
rest.  A non-local verdict carries a Farkas certificate that is checked
against every strategy column.

The simplex sees only the nonzero rows.  Its certificate y is extended over
the zero rows without scoring a strategy: none scores above `bound = y_norm +
sum_x max_a y(x, a)` (zero rows counting as 0), so every zero row gets the dual
`-(max(0, bound) + 1)`.  Zero rows have b = 0, so y.b stays positive.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem
from types import MappingProxyType

from . import lp
from .boxes import ONE, ZERO, BoxTable, Bits, _exact, bit_tuples, check_exhaustive_party_count

NORM = ("norm",)

# A strategy assigns each party a response pair (output on input 0, on 1).
Strategy = tuple[tuple[int, int], ...]


def strategies(n: int) -> list[Strategy]:
    """All 4^n deterministic strategy tuples, in a fixed order."""
    per_party = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return list(itertools.product(per_party, repeat=n))


def strategy_keys(s: Strategy) -> Iterator[tuple[Bits, Bits]]:
    """The entries (x, a) strategy s produces, one per input x in order."""
    return ((x, tuple(map(getitem, s, x))) for x in bit_tuples(len(s)))


def deterministic_box(n: int, s: Strategy) -> BoxTable:
    """The box of strategy s; n must equal len(s)."""
    if n != len(s):
        raise ValueError(f"strategy has {len(s)} parties, n says {n}")
    return LocalModel({s: ONE}).to_box()


@dataclass(frozen=True)
class LocalModel:
    """Convex weights over deterministic strategies reproducing a box.

    `weights` is stored as a read-only copy of the mapping given.
    """

    weights: Mapping[Strategy, Fraction]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("a local model needs at least one strategy")
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))

    def __hash__(self) -> int:
        return hash(frozenset(self.weights.items()))

    @property
    def n(self) -> int:
        some = next(iter(self.weights))
        return len(some)

    def to_box(self) -> BoxTable:
        entries: dict = {}
        for s, w in self.weights.items():
            for key in strategy_keys(s):
                entries[key] = entries.get(key, ZERO) + w
        return BoxTable(self.n, entries)


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
        if sum((y if key == NORM else y * box.entries[key] for key, y in exact.items()), ZERO) <= 0:
            return False
        # Score each strategy in integers over the duals' common denominator.
        den = math.lcm(*(y.denominator for y in exact.values()))
        numerators = {key: y.numerator * (den // y.denominator) for key, y in exact.items()}
        norm = numerators.get(NORM, 0)
        return all(
            norm + sum(numerators.get(key, 0) for key in strategy_keys(s)) <= 0
            for s in strategies(box.n)
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
    entries = box.entries
    row_keys = [key for key, v in entries.items() if v != 0]
    row = {key: i for i, key in enumerate(row_keys)}
    norm_row = len(row_keys)
    surviving: list[Strategy] = []
    columns = []
    for s in strategies(n):
        hits = [row.get(key) for key in strategy_keys(s)]
        if None not in hits:
            surviving.append(s)
            columns.append(hits + [norm_row])

    result = lp.solve_equality_feasibility(columns, [entries[key] for key in row_keys] + [ONE])
    if result.feasible:
        weights = {s: w for s, w in zip(surviving, result.solution) if w != 0}
        return LocalityResult(model=LocalModel(weights=weights), certificate=None)

    # Extend the certificate over the zero rows (see the module docstring).
    *y, y_norm = result.certificate
    duals = {key: v for key, v in zip(row_keys, y) if v != 0}
    duals[NORM] = y_norm
    outputs = list(bit_tuples(n))
    bound = y_norm + sum(max(duals.get((x, a), ZERO) for a in outputs) for x in outputs)
    penalty = -(max(ZERO, bound) + ONE)
    duals.update((key, penalty) for key, v in entries.items() if v == 0)
    return LocalityResult(model=None, certificate=NonlocalityCertificate(row_duals=duals))


def is_local(box: BoxTable) -> LocalModel | None:
    """LocalModel when the box is a mixture of deterministic strategies."""
    return decide_locality(box).model


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
    if len(x) != n:
        raise ValueError(f"input has {len(x)} bits, n says {n}")
    out: dict = {}
    for point, w in dist.items():
        if len(point) != 2 * n:
            raise ValueError(f"point {point!r} has {len(point)} bits, expected {2 * n}")
        a = tuple(point[2 * i + x[i]] for i in range(n))
        out[a] = out.get(a, ZERO) + w
    return out
