"""nsboxes benchmark: run workloads in fresh processes and report metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload sample runs in its own single-threaded process started from
``worker.py``.  Untraced, nine processes set up (interpreter start, import,
input generation, warm-up) and the median of their set-up times is
``setup_s``; the last one also runs the timed loop and gives every other
end-to-end metric.  Traced (``--trace 1``), one process runs the loop with
spans at every layer boundary, replays the same ops untraced, and reports
the per-layer metrics.  ``BENCHMARK.json`` at the checkout root lists the
metrics; the last line of standard output is one JSON object holding them.  Exit status: 0 when every answer
was right, 1 on any wrong answer, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("locality", "pipeline", "distill")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0



class BenchError(RuntimeError):
    pass


def spawn(args, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the workload ran")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args.workload} worker exceeded the {RUN_LIMIT_S:g} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, deadline: float, spec: dict) -> dict:
    if args.trace:
        result = spawn(args, deadline, setup_only=False)
        values = result["per_layer"]
        listed = spec["per_layer"]
    else:
        samples = [spawn(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
        result = spawn(args, deadline, setup_only=False)
        result["wrong"] += sum(s["wrong"] for s in samples)
        result["setup_s"] = statistics.median([s["setup_s"] for s in samples] + [result["setup_s"]])
        values = result
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    record = result["record"]
    print(
        f"# {args.workload} seed={args.seed} python={record['python']} "
        f"int_max_str_digits={record['int_max_str_digits']} nproc={record['nproc']} "
        f"commit={record['git_commit'][:12]} budget_s={record['budget_s']} "
        f"max_den_bits={record['max_den_bits']} rounds={record['rounds']} "
        f"ops={result['attempted']} beyond_p90={result['beyond_p90']}",
        file=sys.stderr,
    )
    for probe in record["probes"]:
        print(f"#   probe {probe['kind']}: {probe['outcome']} {probe.get('reason') or ''}", file=sys.stderr)
    return {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nsboxes" / "__init__.py").is_file():
        print(f"error: no nsboxes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics and their units; report exactly those.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            out = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), deadline, spec)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for metric, m in out["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        print(json.dumps(out))
        correct &= out["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
