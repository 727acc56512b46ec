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

from .boxes import ONE, ZERO, BoxTable, bit_tuples

# step table:  table[x_i][r][h] -> input bit, h encoding prior outputs
# output table: table[x_i][r][h] -> final bit, h encoding all m outputs
Table = tuple


def history_index(outputs) -> int:
    """Encode a tuple of prior output bits as a table slot (step 1 first)."""
    idx = 0
    for t, bit in enumerate(outputs):
        idx |= bit << t
    return idx


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
        if self.m < 1:
            raise ValueError("a wiring needs at least one box")
        if len(self.parties) != self.n:
            raise ValueError("one rule set per party required")
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
            if len(per_r) != n_hist:
                raise ValueError("step table history dimension mismatch")
            if any(bit not in (0, 1) for bit in per_r):
                raise ValueError("table entries must be bits")


def _histories(length: int):
    """History tuples ordered by their history_index slot."""
    return [
        tuple((idx >> t) & 1 for t in range(length))
        for idx in range(2 ** length)
    ]


def make_wiring(n: int, m: int, input_rule, output_rule, randomness=None) -> Wiring:
    """Tabulate callables into a Wiring.

    `input_rule(i, j, x_i, r, history)` gives party i's input to box j given
    the outputs `history` it saw from boxes before j; `output_rule(i, x_i,
    r, outputs)` gives its final bit.  Party and box indices are 0-based
    here; `randomness` defaults to a single deterministic value.
    """
    if randomness is None:
        randomness = (ONE,)
    randomness = tuple(Fraction(w) for w in randomness)
    n_r = len(randomness)
    parties = []
    for i in range(n):
        step_tables = []
        for j in range(m):
            table = tuple(
                tuple(
                    tuple(
                        int(input_rule(i, j, x_i, r, hist)) & 1
                        for hist in _histories(j)
                    )
                    for r in range(n_r)
                )
                for x_i in (0, 1)
            )
            step_tables.append(table)
        out_table = tuple(
            tuple(
                tuple(
                    int(output_rule(i, x_i, r, outs)) & 1
                    for outs in _histories(m)
                )
                for r in range(n_r)
            )
            for x_i in (0, 1)
        )
        parties.append(PartyRules(steps=tuple(step_tables), output=out_table))
    return Wiring(n=n, m=m, randomness=randomness, parties=tuple(parties))


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
    entries = {(x, c): ZERO for x in bit_tuples(n) for c in bit_tuples(n)}
    supports = [
        {x: box.support(x) for x in bit_tuples(n)} for box in boxes
    ]
    for x in bit_tuples(n):
        for r, r_weight in enumerate(w.randomness):
            if r_weight == 0:
                continue
            # paths: (probability, per-party output history)
            paths = [(r_weight, tuple(() for _ in range(n)))]
            for j in range(w.m):
                new_paths = []
                for prob, hists in paths:
                    u = tuple(
                        w.parties[i].steps[j][x[i]][r][history_index(hists[i])]
                        for i in range(n)
                    )
                    for b, pb in supports[j][u]:
                        new_paths.append(
                            (
                                prob * pb,
                                tuple(
                                    hists[i] + (b[i],) for i in range(n)
                                ),
                            )
                        )
                paths = new_paths
            for prob, hists in paths:
                c = tuple(
                    w.parties[i].output[x[i]][r][history_index(hists[i])]
                    for i in range(n)
                )
                entries[(x, c)] += prob
    return BoxTable(n, entries)


def bs_wiring(n: int) -> Wiring:
    """Two-box boosting wiring: feed x, then x*(1 - a), output a XOR b."""
    if n < 2:
        raise ValueError("the boosting wiring needs at least two parties")

    def input_rule(i, j, x_i, r, history):
        if j == 0:
            return x_i
        return x_i * (1 - history[0])

    def output_rule(i, x_i, r, outs):
        return outs[0] ^ outs[1]

    return make_wiring(n, 2, input_rule, output_rule)


def identity_wiring(n: int) -> Wiring:
    """Single-box wiring that forwards inputs and outputs untouched."""

    def input_rule(i, j, x_i, r, history):
        return x_i

    def output_rule(i, x_i, r, outs):
        return outs[0]

    return make_wiring(n, 1, input_rule, output_rule)


def xor_wiring(n: int) -> Wiring:
    """Non-adaptive two-box wiring: same input to both, output a XOR b."""

    def input_rule(i, j, x_i, r, history):
        return x_i

    def output_rule(i, x_i, r, outs):
        return outs[0] ^ outs[1]

    return make_wiring(n, 2, input_rule, output_rule)


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


def compose_triangle(a: BoxTable, b: BoxTable) -> BoxTable:
    """Apply the boosting wiring to the box pair (a first, b second)."""
    if a.n != b.n:
        raise ValueError("composed boxes must share the party count")
    return evaluate_wiring([a, b], bs_wiring(a.n))


def wiring_to_text(w: Wiring, name: str | None = None) -> str:
    """Deterministic plain-text listing of all rule tables."""
    lines = []
    head = f"wiring n={w.n} boxes={w.m} randomness={len(w.randomness)}"
    if name:
        head = f"wiring {name} n={w.n} boxes={w.m} randomness={len(w.randomness)}"
    lines.append(head)
    for r, weight in enumerate(w.randomness):
        lines.append(f"r={r} weight={weight}")
    for i, rules in enumerate(w.parties, start=1):
        lines.append(f"party {i}:")
        for j, table in enumerate(rules.steps, start=1):
            cells = []
            for x_i in (0, 1):
                for r in range(len(w.randomness)):
                    for h, bit in enumerate(table[x_i][r]):
                        hist = format(h, f"0{j - 1}b")[::-1] if j > 1 else "-"
                        cells.append(f"x={x_i} r={r} seen={hist} -> {bit}")
            lines.append(f"  box {j} input: " + "; ".join(cells))
        cells = []
        for x_i in (0, 1):
            for r in range(len(w.randomness)):
                for h, bit in enumerate(rules.output[x_i][r]):
                    hist = format(h, f"0{w.m}b")[::-1]
                    cells.append(f"x={x_i} r={r} outs={hist} -> {bit}")
        lines.append("  output: " + "; ".join(cells))
    return "\n".join(lines) + "\n"
