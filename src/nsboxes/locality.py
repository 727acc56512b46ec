"""Locality testing by exact linear programming over deterministic strategies.

A box is local when it is a convex mixture of deterministic strategies, one
response function per party.  Membership in that hull is decided exactly:
strategies that would put weight on a zero-probability entry are eliminated
up front (their weight is forced to zero), and a phase-1 simplex settles the
rest.  A non-local verdict carries a Farkas certificate that is checked
against every strategy column.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem

from . import lp
from .boxes import ONE, ZERO, BoxTable, Bits, _exact, bit_tuples, check_exhaustive_party_count

NORM = ("norm",)

# A strategy assigns each party a response pair (output on input 0, on 1).
Strategy = tuple[tuple[int, int], ...]


def strategies(n: int) -> list[Strategy]:
    """All 4^n deterministic strategy tuples, in a fixed order."""
    per_party = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return list(itertools.product(per_party, repeat=n))


def strategy_output(s: Strategy, x: Bits) -> Bits:
    return tuple(map(getitem, s, x))


def strategy_keys(s: Strategy) -> Iterator[tuple[Bits, Bits]]:
    """The entries (x, a) strategy s produces, one per input x in order."""
    return ((x, strategy_output(s, x)) for x in bit_tuples(len(s)))


def _integer_duals(row_duals: dict) -> tuple[dict, int]:
    """The duals as integer numerators over their common denominator."""
    exact = {key: _exact(y, "certificate dual") for key, y in row_duals.items()}
    den = math.lcm(*(y.denominator for y in exact.values()))
    return {key: y.numerator * (den // y.denominator) for key, y in exact.items()}, den


def _score(numerators: dict, s: Strategy) -> int:
    """y . column(s) over the duals' common denominator (see _integer_duals)."""
    dot = numerators.get(NORM, 0)
    for key in strategy_keys(s):
        dot += numerators.get(key, 0)
    return dot


def deterministic_box(n: int, s: Strategy) -> BoxTable:
    """The box of strategy s; n must equal len(s)."""
    if n != len(s):
        raise ValueError(f"strategy has {len(s)} parties, n says {n}")
    return LocalModel({s: ONE}).to_box()


@dataclass(frozen=True)
class LocalModel:
    """Convex weights over deterministic strategies reproducing a box."""

    weights: dict[Strategy, Fraction]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("a local model needs at least one strategy")

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
    dot(y, column) <= 0 for every deterministic strategy.
    """

    row_duals: dict

    def verify(self, box: BoxTable) -> bool:
        dot_b = ZERO
        for key, y in self.row_duals.items():
            if key != NORM and len(key[0]) != box.n:
                raise ValueError(f"certificate is for {len(key[0])} parties, box has {box.n}")
            dot_b += y if key == NORM else y * box.entries[key]
        if dot_b <= 0:
            return False
        numerators, _ = _integer_duals(self.row_duals)
        return all(_score(numerators, s) <= 0 for s in strategies(box.n))


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

    zero_set = {key for key, v in box.entries.items() if v == 0}

    # A strategy hitting any zero-probability entry must carry weight zero.
    surviving: list[Strategy] = []
    eliminated: list[Strategy] = []
    for s in strategies(n):
        hits_zero = any(key in zero_set for key in strategy_keys(s))
        (eliminated if hits_zero else surviving).append(s)

    # Equations: one per nonzero entry, plus total weight one.  Zero rows
    # are satisfied automatically once the hitting strategies are gone.
    row_keys = [key for key, v in box.entries.items() if v != 0]
    b = [box.entries[key] for key in row_keys] + [ONE]
    columns = []
    for s in surviving:
        produced = set(strategy_keys(s))
        col = [ONE if key in produced else ZERO for key in row_keys]
        col.append(ONE)
        columns.append(col)

    result = lp.solve_equality_feasibility(columns, b)
    if result.feasible:
        weights = {
            s: w for s, w in zip(surviving, result.solution) if w != 0
        }
        return LocalityResult(model=LocalModel(weights=weights), certificate=None)

    # Extend the reduced certificate over the dropped zero rows so that it
    # also separates the eliminated strategies: each one gets a penalty on
    # its first zero entry that outweighs the largest score among them.
    duals = {key: y for key, y in zip(row_keys, result.certificate) if y != 0}
    duals[NORM] = result.certificate[-1]
    numerators, den = _integer_duals(duals)
    worst = max((_score(numerators, s) for s in eliminated), default=0)
    penalty = Fraction(max(0, worst), den) + ONE
    for s in eliminated:
        first_zero = next(key for key in strategy_keys(s) if key in zero_set)
        duals[first_zero] = -penalty
    certificate = NonlocalityCertificate(row_duals=duals)
    return LocalityResult(model=None, certificate=certificate)


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
    out: dict = {}
    for point, w in dist.items():
        a = tuple(point[2 * i + x[i]] for i in range(n))
        out[a] = out.get(a, ZERO) + w
    return out
