"""Seeded workloads: the ops each one runs and the gate that checks each op.

An op's ``run`` calls nsboxes through module attributes (so the tracer's
wrappers see every call) and returns the answer; its ``check`` compares that
answer with the references in ``reference.py`` and returns a ``Check``.
Rounds are generated lazily from ``(seed, workload, round index)``, so every
round holds fresh inputs of a fixed composition and the same seed always
yields the same inputs.  Known defects run as probes, once per run, outside
the timed loop.

Import this module only after ``nsboxes`` is importable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from nsboxes import boolfn, boxes, boxfile, cli, commcost, distill, locality

import reference as ref

WORKLOADS = ("locality", "pipeline", "distill")

# Per-op budget in seconds, per workload: several times the slowest op in
# the timed loop, so a passing op never comes near it.
BUDGET_S = {"locality": 2.0, "pipeline": 10.0, "distill": 3.0}


@dataclass(frozen=True)
class Check:
    ok: bool
    reason: str = ""
    den_bits: int = 0
    digest: str = ""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Check]
    inputs: object  # what the op feeds nsboxes, for records and tests


@dataclass
class Workload:
    name: str
    seed: int
    budget_s: float
    make_round: Callable[[random.Random, int], list]
    warmup: list = field(default_factory=list)
    # Built after the timed loop: probe inputs are no part of set-up.
    make_probes: Callable[[random.Random], list] = lambda rng: []

    def round(self, index: int) -> list:
        rng = random.Random(f"{self.seed}:{self.name}:round:{index}")
        return self.make_round(rng, index)

    def probes(self) -> list:
        return self.make_probes(random.Random(f"{self.seed}:{self.name}:probes"))


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def fail(reason: str) -> Check:
    return Check(ok=False, reason=reason)


class CliError(RuntimeError):
    """The command exited non-zero; the op failed with the CLI's message."""


def run_cli(argv) -> str:
    """Standard output of ``nsboxes.cli.main(argv)``; raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise CliError(f"exit {rc}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def random_strategy(rng, n):
    return tuple((rng.randint(0, 1), rng.randint(0, 1)) for _ in range(n))


def random_monomials(rng, n, p, min_degree=0):
    return [
        frozenset(c)
        for k in range(min_degree, n + 1)
        for c in itertools.combinations(range(1, n + 1), k)
        if rng.random() < p
    ]


def random_weights(rng, k, total=Fraction(1)):
    raw = [rng.randint(1, 4) for _ in range(k)]
    return [total * Fraction(w, sum(raw)) for w in raw]


# ================================================================ locality


def check_model(n, table, weights) -> bool:
    """Nonnegative weights over strategies that reproduce the table exactly."""
    if any(w < 0 for w in weights.values()):
        return False
    produced: dict = {}
    for s, w in weights.items():
        for x in ref.bits(n):
            key = (x, tuple(s[i][x[i]] for i in range(n)))
            produced[key] = produced.get(key, 0) + w
    return {k: v for k, v in produced.items() if v} == table


def check_certificate(n, table, duals) -> bool:
    """y.b > 0 for the box while y.column <= 0 for every deterministic strategy."""
    norm = duals.get(("norm",), 0)
    if norm + sum(y * table.get(k, 0) for k, y in duals.items() if k != ("norm",)) <= 0:
        return False
    for s in itertools.product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=n):
        dot = norm
        for x in ref.bits(n):
            dot += duals.get((x, tuple(s[i][x[i]] for i in range(n))), 0)
        if dot > 0:
            return False
    return True


def locality_op(kind: str, n: int, table: dict) -> Op:
    text = ref.box_text(n, table)

    def run():
        box = boxfile.box_from_text(text)
        signaling = boxes.is_non_signaling(box)
        result = locality.decide_locality(box)
        if result.local:
            evidence = result.model.to_box() == box
        else:
            evidence = result.certificate.verify(box)
        return box, bool(signaling), result, evidence

    def check(answer) -> Check:
        box, non_signaling, result, evidence = answer
        if {k: v for k, v in box.entries.items() if v} != table:
            return fail("parsed table differs from the generated box")
        if not non_signaling:
            return fail("non-signaling box reported as signaling")
        if not evidence:
            return fail("evidence rejected by nsboxes itself")
        if result.local:
            weights = result.model.weights
            if not check_model(n, table, weights):
                return fail("local model does not reproduce the box")
            values, answer_key = weights.values(), sorted(weights.items())
        else:
            duals = result.certificate.row_duals
            if not check_certificate(n, table, duals):
                return fail("certificate does not separate the box")
            values, answer_key = duals.values(), sorted(duals.items(), key=repr)
        expected = ref.werner_wolf_local(n, table)
        if expected is not None and expected != result.local:
            return fail(f"verdict local={result.local}, Werner-Wolf says {expected}")
        bits = max(ref.max_den_bits(values), ref.max_den_bits(table.values()))
        return Check(True, den_bits=bits, digest=digest(result.local, answer_key))

    return Op(kind, run, check, text)


def fc_mixture(rng, n, k, p, min_degree):
    tables = [
        ref.full_correlation(n, lambda x, m=random_monomials(rng, n, p, min_degree): ref.anf_value(m, x))
        for _ in range(k)
    ]
    eps = Fraction(rng.randint(1, 7), 8)
    return ref.mixture(
        [ref.mixture(tables, random_weights(rng, k)), ref.even(n)], [eps, 1 - eps]
    )


# (k boxes, monomial probability, least monomial degree) per party count:
# chosen so that no mixture in the timed loop has a heavy LP tail.
FC_MIXTURE = {2: (3, 0.4, 0), 3: (2, 0.5, 2), 4: (2, 0.3, 2)}


def locality_round(rng, index):
    ops = []
    for n, count in ((2, 2), (3, 2), (4, 1)):
        for _ in range(count):
            eps = Fraction(rng.randint(1, 16), 16)
            ops.append(locality_op(f"correlated-n{n}", n, ref.correlated(n, eps)))
            ops.append(locality_op(f"fc-mixture-n{n}", n, fc_mixture(rng, n, *FC_MIXTURE[n])))
            k = 3
            w = Fraction(rng.randint(1, 7), 8)
            dets = [ref.deterministic(n, random_strategy(rng, n)) for _ in range(k)]
            table = ref.mixture([ref.npr(n)] + dets, [w] + random_weights(rng, k, 1 - w))
            ops.append(locality_op(f"pr-deterministic-n{n}", n, table))
    for _ in range(3):
        eps = Fraction(rng.randint(1, 16), 16)
        table = ref.mixture([ref.npr(2), ref.uniform(2)], [eps, 1 - eps])
        ops.append(locality_op("noisy-pr-n2", 2, table))
    rng.shuffle(ops)
    return ops


def dense_probe(rng) -> Op:
    """A dense-support 4-party mixture: three random full-correlation boxes
    over all monomials (kept with probability 0.3) plus even parity."""
    while True:
        table = fc_mixture(rng, 4, 3, 0.3, 0)
        if len(table) >= 248:
            return locality_op("dense-n4", 4, table)


def build_locality(seed, tmp):
    return Workload(
        "locality", seed, BUDGET_S["locality"], locality_round,
        warmup=[locality_op("warmup", 2, ref.correlated(2, Fraction(1, 2)))],
        make_probes=lambda rng: [dense_probe(rng) for _ in range(3)],
    )


# ================================================================ pipeline


def report_op(n, monomials, eps, steps) -> Op:
    expr = ref.anf_expr(monomials)
    facts = ref.support_facts(n, monomials)

    def run():
        f = boolfn.parse_expr(expr, n)
        return commcost.report_text(f, eps, steps)

    def check(text) -> Check:
        lines = set(text.splitlines())
        expected = [
            f"parties: {n}",
            f"n_J: {facts['n_j']}",
            f"n_scratch: {facts['n_scratch']}",
            "amplifiable: yes",
            f"end-to-end check (eps={eps}, steps={steps}): ok",
        ]
        for line in expected:
            if line not in lines:
                return fail(f"report lacks {line!r}")
        return Check(True, digest=digest(text))

    return Op(f"report-n{n}", run, check, (expr, n, eps, steps))


def amplifiable_monomials(rng, n):
    """A degree-3 and a degree-2 monomial sharing one variable, plus random
    terms of degree <= 1.  The fixed shape meets the margin condition and
    keeps the verifier's cost even: the plan isolates the degree-3 monomial."""
    while True:
        cubic = frozenset(rng.sample(range(1, n + 1), 3))
        quadratic = frozenset(rng.sample(range(1, n + 1), 2))
        if len(cubic & quadratic) == 1:
            break
    low = [m for m in random_monomials(rng, n, 0.3) if len(m) <= 1]
    return [cubic, quadratic] + low


def build_op(tmp: Path, tag: str, n: int, kind: str, rng) -> Op:
    out = tmp / f"build-{tag}.box"
    argv = ["box", "build", "--type", kind, "--n", str(n), "--out", str(out)]
    if kind == "npr":
        table_of = lambda: ref.npr(n)
    elif kind == "even":
        table_of = lambda: ref.even(n)
    elif kind == "correlated":
        eps = Fraction(rng.randint(1, 15), 16)
        argv += ["--eps", str(eps)]
        table_of = lambda: ref.correlated(n, eps)
    else:
        monomials = random_monomials(rng, n, 0.2)
        argv += ["--f", ref.anf_expr(monomials)]
        table_of = lambda: ref.full_correlation(n, lambda x: ref.anf_value(monomials, x))

    def check(stdout) -> Check:
        text = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        if stdout:
            return fail(f"unexpected output {stdout[:80]!r}")
        table = table_of()
        if text != ref.box_text(n, table):
            return fail("box file differs from the reference table")
        return Check(True, den_bits=ref.max_den_bits(table.values()), digest=digest(text))

    return Op(f"cli-build-n{n}", lambda: run_cli(argv), check, argv)


def check_op(path: Path, n: int) -> Op:
    argv = ["box", "check", str(path), "--skip-local"]

    def check(stdout) -> Check:
        if stdout != "non-signaling: yes\n":
            return fail(f"box check answered {stdout!r}")
        return Check(True, digest=digest(stdout))

    return Op(f"cli-check-n{n}", lambda: run_cli(argv), check, (argv, path.read_text()))


def wiring_op(tmp: Path, tag: str, path: Path, n: int, eps: Fraction) -> Op:
    out = tmp / f"wired-{tag}.box"
    argv = ["wiring", "eval", "--name", "bs", str(path), str(path), "--out", str(out)]

    def check(stdout) -> Check:
        text = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        if stdout:
            return fail(f"unexpected output {stdout[:80]!r}")
        boosted = ref.t_map(n, eps)
        if text != ref.box_text(n, ref.correlated(n, boosted)):
            return fail(f"boosted box is not the correlated box at {boosted}")
        return Check(True, den_bits=boosted.denominator.bit_length(), digest=digest(text))

    return Op(f"cli-wiring-n{n}", lambda: run_cli(argv), check, (argv, eps))


# (parties, kind) of the box builds in each round.
BUILDS = ((5, "even"), (5, "correlated"), (5, "fc"), (6, "fc"), (7, "correlated"), (8, "npr"))


def pipeline_round_maker(tmp: Path):
    def make_round(rng, index):
        ops = []
        # Steps and build kinds follow the position in the round, so every
        # round, whatever its seed, runs the same mix of them.
        for i, n in enumerate((4,) * 10 + (5,) * 3):
            eps = Fraction(rng.randint(1, 7), 8)
            ops.append(report_op(n, amplifiable_monomials(rng, n), eps, 1 + i % 3))
        for i, (n, kind) in enumerate(BUILDS):
            ops.append(build_op(tmp, f"{index}-{i}", n, kind, rng))
        for i, n in enumerate((5, 5, 5, 6)):
            path = tmp / f"input-{index}-{i}.box"
            monomials = random_monomials(rng, n, 0.2)
            eps = Fraction(rng.randint(1, 15), 16)
            table = ref.mixture(
                [ref.full_correlation(n, lambda x: ref.anf_value(monomials, x)), ref.even(n)],
                [eps, 1 - eps],
            )
            path.write_text(ref.box_text(n, table))
            ops.append(check_op(path, n))
        for i, n in enumerate((4, 4, 4, 5)):
            path = tmp / f"weak-{index}-{i}.box"
            eps = Fraction(rng.randint(1, 15), 16)
            path.write_text(ref.box_text(n, ref.correlated(n, eps)))
            ops.append(wiring_op(tmp, f"{index}-{i}", path, n, eps))
        rng.shuffle(ops)
        return ops

    return make_round


def build_pipeline(seed, tmp):
    warm = tmp / "warmup.box"
    warm.write_text(ref.box_text(2, ref.correlated(2, Fraction(1, 2))))
    return Workload(
        "pipeline", seed, BUDGET_S["pipeline"], pipeline_round_maker(tmp),
        warmup=[
            report_op(3, [frozenset({1, 2}), frozenset({2, 3})], Fraction(1, 2), 1),
            check_op(warm, 2),
            wiring_op(tmp, "warmup", warm, 2, Fraction(1, 2)),
        ],
    )


# ================================================================ distill

# Rounds of the heaviest exact trajectory per party count, in the timed loop.
LONG_ROUNDS = {2: 17, 3: 16, 4: 16, 5: 15}
LONG_EPS_DEN = 13
# trajectory_csv writes integers in decimal; stay under the 4300-digit limit.
CSV_MAX_DEN_BITS = 14000


def random_eps0(rng) -> Fraction:
    q = rng.randint(9, 15)
    return Fraction(rng.randint(1, q - 1), q)


def den_bits_bound(n, eps0, steps) -> int:
    """Upper bound on the bits of eps_steps's denominator: den_{k+1} | 2^(n-1) den_k^2."""
    bits = eps0.denominator.bit_length()
    for _ in range(steps):
        bits = 2 * bits + n - 1
    return bits


def trajectory_op(kind, n, eps0, steps, with_csv) -> Op:
    def run():
        tr = distill.iterate(n, eps0, steps)
        return tr, distill.trajectory_csv(tr) if with_csv else None

    def check(answer) -> Check:
        tr, csv = answer
        seq = tr.eps_sequence
        if len(seq) != steps + 1 or seq[0] != eps0 or tr.copies_used != 2 ** steps:
            return fail("trajectory has the wrong length, start or copy count")
        if [ref.to_mod(e) for e in seq] != ref.t_map_sequence_mod(n, eps0, steps):
            return fail("trajectory differs from the boosting recurrence")
        if with_csv:
            rows = csv.splitlines()
            if rows[0] != "step,eps_num,eps_den,eps_decimal,copies" or len(rows) != steps + 2:
                return fail("CSV header or row count is wrong")
            for k, row in enumerate(rows[1:]):
                step, num, den, _, copies = row.split(",")
                if (int(step), Fraction(int(num), int(den)), int(copies)) != (k, seq[k], 2 ** k):
                    return fail(f"CSV row {k} does not match the trajectory")
        return Check(True, den_bits=tr.final.denominator.bit_length(),
                     digest=digest(ref.to_mod(tr.final), csv and hashlib.sha256(csv.encode()).hexdigest()))

    return Op(kind, run, check, (n, eps0, steps, with_csv))


def steps_op(kind, n, eps0, target, expected) -> Op:
    def check(m) -> Check:
        if m != expected:
            return fail(f"steps_to_reach gave {m}, expected {expected}")
        return Check(True, digest=digest(m))

    return Op(kind, lambda: distill.steps_to_reach(n, eps0, target), check, (n, eps0, target))


def validate_op(n, eps) -> Op:
    def check(ok) -> Check:
        return Check(True, digest=digest(ok)) if ok is True else fail(f"wiring oracle said {ok!r}")

    return Op(f"validate-n{n}", lambda: distill.validate_against_wiring(n, eps), check, (n, eps))


def seeded_target(rng, n, eps0):
    """A target on the 10^-6 grid whose threshold step m is drawn from 5..12."""
    m = rng.randint(5, 12)
    seq = [eps0]
    for _ in range(m):
        seq.append(ref.t_map(n, seq[-1]))
    lo, hi = seq[-2], seq[-1]
    target = Fraction(math.ceil((lo + (hi - lo) * Fraction(rng.randint(1, 9), 10)) * 10 ** 6), 10 ** 6)
    if not lo < target <= hi:
        target = hi
    return target, m


def distill_round(rng, index):
    # Group sizes put the median inside validate-n3 and the 90th percentile
    # inside long-n2, so neither sits on the edge between two kinds of op.
    ops = []
    for n in (2, 3, 4, 5):
        eps0 = random_eps0(rng)
        steps = rng.randint(4, 12)
        while den_bits_bound(n, eps0, steps) > CSV_MAX_DEN_BITS:
            steps -= 1
        ops.append(trajectory_op(f"csv-n{n}", n, eps0, steps, True))
        eps0 = random_eps0(rng)
        target, expected = seeded_target(rng, n, eps0)
        ops.append(steps_op(f"steps-n{n}", n, eps0, target, expected))
        # One denominator for the long runs keeps their cost even.
        for _ in range(3 if n == 2 else 1):
            eps0 = Fraction(rng.randint(1, LONG_EPS_DEN - 1), LONG_EPS_DEN)
            ops.append(trajectory_op(f"long-n{n}", n, eps0, LONG_ROUNDS[n], False))
    for n, count in ((2, 1), (3, 5), (4, 1)):
        for _ in range(count):
            ops.append(validate_op(n, Fraction(rng.randint(1, 15), 16)))
    rng.shuffle(ops)
    return ops


def cli_distill_probe(tmp: Path, n, eps0, steps) -> Op:
    out = tmp / "distill-probe.csv"
    argv = ["distill", "--n", str(n), "--eps", str(eps0), "--steps", str(steps), "--out", str(out)]
    inner = trajectory_op("cli-distill-csv", n, eps0, steps, True)

    def check(stdout) -> Check:
        text = out.read_text() if out.exists() else ""
        out.unlink(missing_ok=True)
        return inner.check((distill.iterate(n, eps0, steps), text))

    return Op("cli-distill-csv", lambda: run_cli(argv), check, argv)


def bracketed_steps_op(kind, n, eps0, target) -> Op:
    return steps_op(kind, n, eps0, target, ref.steps_to_reach_bracketed(n, eps0, target))


def build_distill(seed, tmp):
    return Workload(
        "distill", seed, BUDGET_S["distill"], distill_round,
        warmup=[
            trajectory_op("warmup", 2, Fraction(1, 2), 3, True),
            bracketed_steps_op("warmup", 2, Fraction(1, 3), Fraction(9, 10)),
            validate_op(2, Fraction(1, 2)),
        ],
        make_probes=lambda rng: [
            trajectory_op("csv-13", rng.randint(2, 5), random_eps0(rng), 13, True),
            cli_distill_probe(tmp, 2, Fraction(1, 2), 13),
            bracketed_steps_op("steps-long", 2, Fraction(1, 100), 1 - Fraction(1, 10 ** 6)),
            bracketed_steps_op("steps-long", 4, Fraction(1, 5), Fraction(95, 100)),
        ],
    )


BUILDERS = {"locality": build_locality, "pipeline": build_pipeline, "distill": build_distill}


def build(name: str, seed: int, tmp: Path) -> Workload:
    return BUILDERS[name](seed, tmp)
