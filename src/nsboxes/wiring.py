"""Adaptive protocols over shared boxes, evaluated to exact output tables.

A wiring fixes a global order over m shared boxes.  At step j each party
feeds the j-th box a bit chosen from its own input, a shared random value,
and the outputs it saw at steps before j; after all steps it emits a final
bit from its input, the randomness, and all its box outputs.  Rules are
stored as dense lookup tables (nested tuples), which keeps wirings
hashable, serializable, and structurally causal: a step table simply has no
slot for outputs that do not exist yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .boxes import (
    ONE,
    ZERO,
    BoxTable,
    _exact,
    bit_tuples,
    check_bits,
    check_boosting_party_count,
    check_int,
)

# A party's history is one int slot h: bit t of h holds box t+1's output.
# step table:  table[x_i][r][h] -> input bit, h encoding prior outputs
# output table: table[x_i][r][h] -> final bit, h encoding all m outputs
Table = tuple


@dataclass(frozen=True)
class PartyRules:
    steps: tuple[Table, ...]
    output: Table


@dataclass(frozen=True)
class Wiring:
    """m-box adaptive wiring for n parties with explicit finite randomness."""

    n: int
    m: int
    randomness: tuple[Fraction, ...]
    parties: tuple[PartyRules, ...]

    def __post_init__(self):
        check_int(self.n, "party count", 1)
        check_int(self.m, "box count", 1)
        if len(self.parties) != self.n:
            raise ValueError("one rule set per party required")
        for w in self.randomness:
            _exact(w, "weight")
        if not self.randomness or sum(self.randomness) != 1 or any(
            w < 0 for w in self.randomness
        ):
            raise ValueError("randomness weights must form a distribution")
        n_r = len(self.randomness)
        for rules in self.parties:
            if len(rules.steps) != self.m:
                raise ValueError("one step table per box required")
            for j, table in enumerate(rules.steps):
                _check_table(table, n_r, 2 ** j)
            _check_table(rules.output, n_r, 2 ** self.m)


def _check_table(table, n_r: int, n_hist: int) -> None:
    if len(table) != 2:
        raise ValueError("step table must have slots for x in {0, 1}")
    for per_x in table:
        if len(per_x) != n_r:
            raise ValueError("step table randomness dimension mismatch")
        for per_r in per_x:
            check_bits(per_r, n_hist, "step table row")


def _tabulate(rule, n_r: int, length: int) -> Table:
    """table[x_i][r][h] = rule(x_i, r, history) over histories of `length` bits.

    The rule sees slot h decoded to a tuple, step 1's output first.
    """
    histories = [
        tuple((h >> t) & 1 for t in range(length)) for h in range(2 ** length)
    ]
    return tuple(
        tuple(
            tuple(int(rule(x_i, r, hist)) & 1 for hist in histories)
            for r in range(n_r)
        )
        for x_i in (0, 1)
    )


def make_wiring(n: int, m: int, input_rule, output_rule, randomness=None) -> Wiring:
    """Tabulate callables into a Wiring.

    `input_rule(i, j, x_i, r, history)` gives party i's input to box j given
    the outputs `history` it saw from boxes before j; `output_rule(i, x_i,
    r, outputs)` gives its final bit.  Party and box indices are 0-based
    here; `randomness` defaults to a single deterministic value.
    """
    check_int(n, "party count", 1)
    check_int(m, "box count", 1)
    if randomness is None:
        randomness = (ONE,)
    randomness = tuple(_exact(w, "weight") for w in randomness)
    n_r = len(randomness)
    parties = tuple(
        PartyRules(
            steps=tuple(
                _tabulate(partial(input_rule, i, j), n_r, j) for j in range(m)
            ),
            output=_tabulate(partial(output_rule, i), n_r, m),
        )
        for i in range(n)
    )
    return Wiring(n=n, m=m, randomness=randomness, parties=parties)


def evaluate_wiring(boxes: list[BoxTable], w: Wiring) -> BoxTable:
    """Exact output table of a wiring over the given shared boxes.

    For each global input, sums over the randomness and over all joint box
    outcomes, weighting each path by the product of box probabilities under
    the inputs the rules determine along the way.
    """
    if len(boxes) != w.m:
        raise ValueError(f"wiring expects {w.m} boxes, got {len(boxes)}")
    if any(b.n != w.n for b in boxes):
        raise ValueError("boxes and wiring must share the party count")
    n = w.n
    inputs = list(bit_tuples(n))
    entries = {(x, c): ZERO for x in inputs for c in inputs}
    supports = [{x: box.support(x) for x in inputs} for box in boxes]
    for x in inputs:
        for r, r_weight in enumerate(w.randomness):
            if r_weight == 0:
                continue
            # paths: (probability, per-party history slot)
            paths = [(r_weight, (0,) * n)]
            for j in range(w.m):
                rows = [rules.steps[j][x_i][r] for rules, x_i in zip(w.parties, x)]
                new_paths = []
                for prob, slots in paths:
                    u = tuple(row[h] for row, h in zip(rows, slots))
                    for b, pb in supports[j][u]:
                        new_paths.append(
                            (prob * pb, tuple(h | bit << j for h, bit in zip(slots, b)))
                        )
                paths = new_paths
            rows = [rules.output[x_i][r] for rules, x_i in zip(w.parties, x)]
            for prob, slots in paths:
                entries[(x, tuple(row[h] for row, h in zip(rows, slots)))] += prob
    return BoxTable(n, entries)


def _forward_input(i, j, x_i, r, history):
    return x_i


def _xor_outputs(i, x_i, r, outs):
    return outs[0] ^ outs[1]


def bs_wiring(n: int) -> Wiring:
    """Two-box boosting wiring: feed x, then x*(1 - a), output a XOR b."""
    check_boosting_party_count(n)

    def input_rule(i, j, x_i, r, history):
        return x_i if j == 0 else x_i * (1 - history[0])

    return make_wiring(n, 2, input_rule, _xor_outputs)


def identity_wiring(n: int) -> Wiring:
    """Single-box wiring that forwards inputs and outputs untouched."""

    def output_rule(i, x_i, r, outs):
        return outs[0]

    return make_wiring(n, 1, _forward_input, output_rule)


def xor_wiring(n: int) -> Wiring:
    """Non-adaptive two-box wiring: same input to both, output a XOR b."""
    return make_wiring(n, 2, _forward_input, _xor_outputs)


NAMED_WIRINGS = {
    "bs": bs_wiring,
    "identity": identity_wiring,
    "xor": xor_wiring,
}


def named_wiring(name: str, n: int) -> Wiring:
    try:
        builder = NAMED_WIRINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown wiring {name!r}; known: {sorted(NAMED_WIRINGS)}"
        ) from None
    return builder(n)


def _table_text(table: Table, label: str, length: int) -> str:
    """One table's cells; a history prints step 1's output first, "-" if empty."""
    cells = []
    for x_i, per_x in enumerate(table):
        for r, per_r in enumerate(per_x):
            for h, bit in enumerate(per_r):
                hist = format(h, f"0{length}b")[::-1] if length else "-"
                cells.append(f"x={x_i} r={r} {label}={hist} -> {bit}")
    return "; ".join(cells)


def wiring_to_text(w: Wiring, name: str | None = None) -> str:
    """Deterministic plain-text listing of all rule tables."""
    label = f" {name}" if name else ""
    lines = [f"wiring{label} n={w.n} boxes={w.m} randomness={len(w.randomness)}"]
    for r, weight in enumerate(w.randomness):
        lines.append(f"r={r} weight={weight}")
    for i, rules in enumerate(w.parties, start=1):
        lines.append(f"party {i}:")
        for j, table in enumerate(rules.steps):
            lines.append(f"  box {j + 1} input: " + _table_text(table, "seen", j))
        lines.append("  output: " + _table_text(rules.output, "outs", w.m))
    return "\n".join(lines) + "\n"
