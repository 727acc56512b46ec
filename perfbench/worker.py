"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts this script in a fresh process per sample.  With
``--setup-only`` it stops after set-up and reports ``setup_s``: the time from
``--t0`` (the parent's monotonic clock just before the spawn) to the point
where the first timed op would start.  Otherwise it runs the closed loop
(one client, next op after the previous one's gate) until the ops have been
busy for ``--seconds``, finishing the current round, then the known-defect
probes, and writes a run record (and, traced, the spans) under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nsboxes  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"


class OpTimeout(BaseException):
    """Raised by SIGALRM when an op overruns its budget."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def call_with_budget(fn, budget_s: float):
    """(outcome, value or reason, seconds) with outcome ok, error or timeout."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return "timeout", f"over the {budget_s:g} s budget", time.perf_counter() - start
    except Exception as exc:  # any library failure is an op error, recorded
        return "error", f"{type(exc).__name__}: {str(exc)[:200]}", time.perf_counter() - start
    return "ok", value, time.perf_counter() - start


# The machine's speed drifts by tens of percent over seconds to minutes
# (shared hardware).  A fixed pure-Python task of the same kind of work as
# nsboxes (Fraction arithmetic, tuples, dicts) runs before every op; each
# op's time is scaled by CALIBRATION_NOMINAL_S over the median of the
# nearest calibration samples, so reported times read as on a machine where
# the task takes exactly CALIBRATION_NOMINAL_S.
CALIBRATION_NOMINAL_S = 0.002
CALIBRATION_WINDOW = 9


def calibration_task():
    for _ in range(3):
        total = Fraction(0)
        for k in range(1, 200):
            total += Fraction(k % 7 + 1, k)
        table = {}
        for x in itertools.product((0, 1), repeat=7):
            table[x] = sum(x) & 1
    return total, len(table)


def calibration_sample() -> float:
    start = time.perf_counter()
    calibration_task()
    return time.perf_counter() - start


def speed_factors(samples) -> list[float]:
    """Per sample: nominal time over the median of the surrounding samples."""
    half = CALIBRATION_WINDOW // 2
    return [
        CALIBRATION_NOMINAL_S / statistics.median(samples[max(0, i - half):i + half + 1])
        for i in range(len(samples))
    ]


def gate(op, value) -> workloads.Check:
    try:
        return op.check(value)
    except Exception as exc:  # a malformed answer is a wrong answer
        return workloads.fail(f"gate raised {type(exc).__name__}: {exc}")


def run_op(op, budget_s, tracer=None, op_id=None) -> dict:
    if tracer:
        tracer.begin_op(op_id, op.kind)
    outcome, value, seconds = call_with_budget(op.run, budget_s)
    if tracer:
        tracer.end_op()
    result = {"kind": op.kind, "outcome": outcome, "seconds": seconds}
    if outcome == "ok":
        check = gate(op, value)
        result.update(den_bits=check.den_bits, digest=check.digest)
        if not check.ok:
            result.update(outcome="wrong", reason=check.reason)
    else:
        result["reason"] = value
    if result["outcome"] != "ok":
        result["inputs"] = repr(op.inputs)[:300]
    return result


# The 90th percentile needs at least ten ops beyond it.
MIN_OPS = 110


def run_loop(wl, seconds, rounds=None, tracer=None, keep_rounds=False) -> tuple[list, list, int]:
    """Run whole rounds until the ops have been busy for ``seconds`` and
    at least MIN_OPS ops have run.

    With ``rounds`` given, replay exactly those rounds instead; with
    ``keep_rounds``, return the rounds played so they can be replayed.
    """
    results, played, busy = [], [], 0.0
    index = 0
    while (index < len(rounds)) if rounds is not None else busy < seconds or len(results) < MIN_OPS:
        ops = rounds[index] if rounds is not None else wl.round(index)
        if keep_rounds:
            played.append(ops)
        for op in ops:
            calibration = calibration_sample()
            r = run_op(op, wl.budget_s, tracer, len(results))
            r["calibration"] = calibration
            busy += r["seconds"]
            results.append(r)
        index += 1
    for r, factor in zip(results, speed_factors([r["calibration"] for r in results])):
        r["scaled"] = r["seconds"] * factor
    return results, played, index


def summarize(results, budget_s) -> dict:
    """End-to-end figures from calibrated op times; failed ops count at the budget."""
    ok = [r for r in results if r["outcome"] == "ok"]
    latencies = [(r["scaled"] if r["outcome"] == "ok" else budget_s) * 1e3 for r in results]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    scaled = sum(r["scaled"] for r in results)
    return {
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "ops_per_s": len(ok) / scaled,
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": deciles[8],
        "beyond_p90": sum(1 for v in latencies if v > deciles[8]),
        "busy_s": sum(r["seconds"] for r in results),
        "scaled_busy_s": scaled,
        "calibration_median_s": statistics.median(r["calibration"] for r in results),
    }


def by_kind(results) -> dict:
    """kind -> [ops, median ms, max ms]."""
    groups: dict = {}
    for r in results:
        groups.setdefault(r["kind"], []).append(r["seconds"] * 1e3)
    return {k: [len(v), statistics.median(v), max(v)] for k, v in sorted(groups.items())}


def outcome_counts(results) -> dict:
    return {k: sum(1 for r in results if r["outcome"] == k) for k in ("timeout", "error", "wrong", "ok")}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    tmp = TMP_DIR / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, tmp)
        warm = [run_op(op, wl.budget_s) for op in wl.warmup]
        setup_s = time.monotonic() - args.t0
        setup_s *= speed_factors([calibration_sample() for _ in range(CALIBRATION_WINDOW)])[CALIBRATION_WINDOW // 2]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "wrong": outcome_counts(warm)["wrong"]}))
            return 0

        tracer = None
        if args.trace:
            tracer = Tracer(nsboxes)
            tracer.install()
            try:
                results, played, n_rounds = run_loop(wl, args.seconds, tracer=tracer, keep_rounds=True)
            finally:
                tracer.uninstall()
            untraced, _, _ = run_loop(wl, args.seconds, rounds=played)
        else:
            results, _, n_rounds = run_loop(wl, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = [run_op(op, wl.budget_s) for op in wl.probes()]

        summary = summarize(results, wl.budget_s)
        counts = outcome_counts(results)
        probe_counts = outcome_counts(probes)
        wrong = counts["wrong"] + probe_counts["wrong"] + outcome_counts(warm)["wrong"]
        out = {**summary, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "wrong": wrong}
        if tracer:
            mismatched = sum(
                1 for a, b in zip(results, untraced) if a.get("digest") != b.get("digest")
            )
            out["wrong"] += mismatched
            per_layer = tracer.layer_metrics(len(results))
            per_layer.update({
                "op.timeouts": counts["timeout"],
                "op.errors": counts["error"],
                "op.wrong": counts["wrong"] + mismatched,
                "failed_frac": summary["failed"] / summary["attempted"],
                "probe.timeouts": probe_counts["timeout"],
                "probe.errors": probe_counts["error"],
                "probe.wrong": probe_counts["wrong"],
                "probe.solved": probe_counts["ok"],
                "trace.overhead": summary["scaled_busy_s"] / sum(r["scaled"] for r in untraced),
            })
            out["per_layer"] = per_layer

        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "python": platform.python_version(),
            "int_max_str_digits": sys.get_int_max_str_digits(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "budget_s": wl.budget_s,
            "run_seconds": args.seconds,
            "rounds": n_rounds,
            "max_den_bits": max((r.get("den_bits", 0) for r in results + probes), default=0),
            "summary": summary,
            "outcomes": counts,
            "by_kind": by_kind(results),
            "failures": [r for r in results if r["outcome"] != "ok"][:20],
            "probes": [
                {k: r.get(k) for k in ("kind", "outcome", "reason", "seconds")} for r in probes
            ],
        }
        (OUT_DIR / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if tracer:
            tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
        out["record"] = record
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
