"""Tests of the benchmark itself: generators, gates, tracing and the runner.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import nsboxes  # noqa: E402
from nsboxes import boxes, locality  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import OP_LAYER, Tracer  # noqa: E402

# Kinds cheap enough to run in a unit test.
CHEAP = {
    "locality": lambda kind: not kind.endswith("n4"),
    "pipeline": lambda kind: kind in ("report-n4", "cli-build-n5", "cli-check-n5", "cli-wiring-n4"),
    "distill": lambda kind: not kind.startswith("long"),
}


def cheap_ops(wl, index=0):
    return [op for op in wl.round(index) if CHEAP[wl.name](op.kind)]


def run_and_check(op):
    answer = op.run()
    return answer, op.check(answer)


# ------------------------------------------------------------ generators


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    def inputs(seed):
        wl = workloads.build(name, seed, tmp_path)
        rounds = [wl.round(i) for i in range(2)] + [wl.probes()]
        return [[(op.kind, repr(op.inputs)) for op in ops] for ops in rounds]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_rounds_keep_their_composition_across_seeds(tmp_path):
    for name in workloads.WORKLOADS:
        kinds = {
            seed: sorted(op.kind for op in workloads.build(name, seed, tmp_path).round(0))
            for seed in (1, 2)
        }
        assert kinds[1] == kinds[2]


# ------------------------------------------------------------ gates


def correlated_op(eps=Fraction(1, 2)):
    return workloads.locality_op("t", 2, ref.correlated(2, eps))


def test_locality_gate_rejects_one_entry_off():
    op = correlated_op()
    (box, ns, result, evidence), check = run_and_check(op)
    assert check.ok
    entries = dict(box.entries)
    x = (1, 1)
    entries[(x, (0, 0))] += Fraction(1, 64)
    entries[(x, (1, 0))] -= Fraction(1, 64)
    tampered = boxes.BoxTable(n=2, entries=entries)
    assert not op.check((tampered, ns, result, evidence)).ok


def test_locality_gate_rejects_forged_certificate():
    op = correlated_op()
    (box, ns, result, evidence), check = run_and_check(op)
    assert check.ok and not result.local
    duals = dict(result.certificate.row_duals)
    duals[("norm",)] += 1  # now some deterministic strategy scores above zero
    forged = locality.LocalityResult(model=None, certificate=locality.NonlocalityCertificate(duals))
    assert not op.check((box, ns, forged, True)).ok


def test_locality_gate_rejects_certificate_for_a_local_box():
    nonlocal_answer, _ = run_and_check(correlated_op())
    local_op = workloads.locality_op("t", 2, ref.even(2))
    (box, ns, result, evidence), check = run_and_check(local_op)
    assert check.ok and result.local
    claimed = nonlocal_answer[2]
    assert not local_op.check((box, ns, claimed, True)).ok


def test_locality_gate_rejects_a_wrong_model_weight():
    op = workloads.locality_op("t", 2, ref.mixture([ref.npr(2), ref.uniform(2)], [Fraction(1, 4), Fraction(3, 4)]))
    (box, ns, result, evidence), check = run_and_check(op)
    assert check.ok and result.local
    weights = dict(result.model.weights)
    first, second = list(weights)[:2]
    weights[first] += Fraction(1, 100)
    weights[second] -= Fraction(1, 100)
    forged = locality.LocalityResult(model=locality.LocalModel(weights), certificate=None)
    assert not op.check((box, ns, forged, True)).ok


def test_locality_gate_checks_the_werner_wolf_verdict():
    assert ref.werner_wolf_local(2, ref.correlated(2, Fraction(1, 16))) is False
    noisy = lambda eps: ref.mixture([ref.npr(2), ref.uniform(2)], [eps, 1 - eps])
    assert ref.werner_wolf_local(2, noisy(Fraction(1, 2))) is True
    assert ref.werner_wolf_local(2, noisy(Fraction(9, 16))) is False
    assert ref.werner_wolf_local(2, ref.deterministic(2, ((0, 1), (1, 1)))) is None


def test_report_functions_are_amplifiable():
    rng = random.Random(5)
    for n in (4, 5):
        for _ in range(20):
            assert ref.support_facts(n, workloads.amplifiable_monomials(rng, n))["margin_ok"]


def test_report_gate_rejects_a_wrong_eps():
    op = workloads.report_op(4, [frozenset({1, 2, 3}), frozenset({3, 4}), frozenset({1})], Fraction(1, 2), 2)
    text, check = run_and_check(op)
    assert check.ok
    assert not op.check(text.replace("eps=1/2", "eps=1/3")).ok
    assert not op.check(text.replace("n_scratch: 3", "n_scratch: 2")).ok


def test_cli_build_gate_rejects_one_entry_off(tmp_path):
    op = workloads.build_op(tmp_path, "t", 5, "correlated", random.Random(1))
    answer = op.run()
    out = tmp_path / "build-t.box"
    lines = out.read_text().splitlines()
    x, a, p = lines[-1].split()
    lines[-1] = f"{x} {a} {Fraction(p) + Fraction(1, 1024)}"
    out.write_text("\n".join(lines) + "\n")
    assert not op.check(answer).ok


def test_wiring_gate_rejects_the_unboosted_box(tmp_path):
    weak = tmp_path / "weak.box"
    eps = Fraction(3, 8)
    weak.write_text(ref.box_text(3, ref.correlated(3, eps)))
    op = workloads.wiring_op(tmp_path, "t", weak, 3, eps)
    assert run_and_check(op)[1].ok
    answer = op.run()
    shutil.copy(weak, tmp_path / "wired-t.box")
    assert not op.check(answer).ok


def test_distill_gates_reject_wrong_values():
    op = workloads.trajectory_op("t", 3, Fraction(2, 9), 6, True)
    (tr, csv), check = run_and_check(op)
    assert check.ok
    seq = list(tr.eps_sequence)
    seq[4] += Fraction(1, 10 ** 9)
    wrong_tr = dataclasses.replace(tr, eps_sequence=tuple(seq))
    assert not op.check((wrong_tr, csv)).ok
    rows = csv.splitlines()
    step, num, den, dec, copies = rows[3].split(",")
    rows[3] = ",".join([step, str(int(num) + 1), den, dec, copies])
    assert not op.check((tr, "\n".join(rows) + "\n")).ok

    steps = workloads.steps_op("t", 2, Fraction(1, 3), Fraction(9, 10), 6)
    assert run_and_check(steps)[1].ok
    assert not steps.check(5).ok


def test_reference_threshold_search_matches_exact_iteration():
    for n, eps0, target in ((2, Fraction(1, 3), Fraction(9, 10)), (4, Fraction(2, 11), Fraction(3, 5))):
        eps, m = eps0, 0
        while eps < target:
            eps, m = ref.t_map(n, eps), m + 1
        assert ref.steps_to_reach_bracketed(n, eps0, target) == m


# ------------------------------------------------------------ budget


def test_budget_turns_an_overrun_into_a_timeout():
    def spin():
        while True:
            pass

    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        outcome, reason, seconds = worker.call_with_budget(spin, 0.05)
        assert outcome == "timeout" and 0.05 <= seconds < 1.0
        assert worker.call_with_budget(lambda: 1 / 0, 1.0)[0] == "error"
        assert worker.call_with_budget(lambda: 42, 1.0)[:2] == ("ok", 42)
    finally:
        signal.signal(signal.SIGALRM, previous)


# ------------------------------------------------------------ tracing


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_runs_give_identical_answers(name, tmp_path):
    wl = workloads.build(name, 3, tmp_path)
    ops = cheap_ops(wl)
    plain = [worker.run_op(op, wl.budget_s) for op in ops]
    tracer = Tracer(nsboxes)
    tracer.install()
    try:
        traced = [worker.run_op(op, wl.budget_s, tracer, i) for i, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    assert all(r["outcome"] == "ok" for r in plain + traced)
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]
    assert len(tracer.spans) > len(ops)


def test_self_times_account_for_each_traced_op(tmp_path):
    wl = workloads.build("pipeline", 3, tmp_path)
    tracer = Tracer(nsboxes)
    tracer.install()
    try:
        for i, op in enumerate(cheap_ops(wl)):
            worker.run_op(op, wl.budget_s, tracer, i)
    finally:
        tracer.uninstall()
    assert min(tracer.self_times()) > -1e-9
    for duration, total in tracer.op_accounting().values():
        assert total == pytest.approx(duration, rel=1e-9, abs=1e-9)
    layers = {span[1] for span in tracer.spans}
    assert {"cli", "boxes", "boxfile", "commcost", "wiring", OP_LAYER} <= layers
    metrics = tracer.layer_metrics(len(cheap_ops(wl)))
    assert metrics["boxes.entries"] > 0 and metrics["boxfile.bytes"] > 0
    assert metrics["commcost.verify_s"] > 0


def test_tracer_wraps_reimported_names_and_restores_them():
    from nsboxes import cli, commcost, wiring

    original = wiring.evaluate_wiring
    tracer = Tracer(nsboxes)
    tracer.install()
    try:
        assert commcost.evaluate_wiring is not original
        assert commcost.evaluate_wiring is wiring.evaluate_wiring
        assert cli.decide_locality.__wrapped__ is locality.decide_locality.__wrapped__
    finally:
        tracer.uninstall()
    assert commcost.evaluate_wiring is original
    assert "__eq__" in vars(boxes.BoxTable) and not hasattr(boxes.BoxTable.__eq__, "__wrapped__")


def test_lp_and_locality_counters():
    tracer = Tracer(nsboxes)
    tracer.install()
    try:
        tracer.begin_op(0, "t")
        workloads.locality_op("t", 3, ref.correlated(3, Fraction(1, 2))).run()
        tracer.end_op()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert metrics["lp.rows"] > 0 and metrics["lp.cols"] > 0 and metrics["lp.max_bits"] > 0
    assert 0 < metrics["locality.survival"] <= 1
    assert metrics["locality.evidence_s"] > 0


# ------------------------------------------------------------ runner


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "locality", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert time.monotonic() - start < 60
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
