"""Command-line front end.

Subcommands: ``box build``, ``box check``, ``distill``, ``analyze``, and
``wiring eval``.  Exit codes: 0 success, 1 usage, parse or I/O failure, 2
an analysis precondition failed.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import boxfile, commcost, distill
from .boolfn import ExprSyntaxError, anf_from_truth_table, parse_expr
from .boxes import (
    MAX_EXHAUSTIVE_PARTIES,
    make_correlated,
    make_even_parity,
    make_full_correlation,
    make_npr,
    is_non_signaling,
)
from .locality import decide_locality
from .wiring import evaluate_wiring, named_wiring, wiring_to_text

USAGE_ERROR = 1
PRECONDITION_ERROR = 2


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        print(f"error: invalid fraction {text!r}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _load_function(args, parser):
    if getattr(args, "expr", None):
        if args.n is None:
            print("error: --n is required with an expression", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
        try:
            return parse_expr(args.expr, args.n)
        except ExprSyntaxError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
    if getattr(args, "truth_table", None):
        try:
            return anf_from_truth_table(args.truth_table)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
    parser.error("a function expression or truth table is required")


def _write_output(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_box_build(args, parser) -> int:
    kind = args.type
    if kind == "npr":
        box = make_npr(args.n)
    elif kind == "even":
        box = make_even_parity(args.n)
    elif kind == "correlated":
        if args.eps is None:
            print("error: --eps is required for correlated boxes", file=sys.stderr)
            return USAGE_ERROR
        eps = _parse_fraction(args.eps)
        if not 0 <= eps <= 1:
            print(f"error: eps must be in [0, 1], got {eps}", file=sys.stderr)
            return USAGE_ERROR
        box = make_correlated(args.n, eps)
    else:  # fc
        f = _load_function(args, parser)
        if args.n is not None and f.n != args.n:
            print(
                f"error: function has {f.n} variables, --n says {args.n}",
                file=sys.stderr,
            )
            return USAGE_ERROR
        box = make_full_correlation(f)
    _write_output(boxfile.box_to_text(box), args.out)
    return 0


def _cmd_box_check(args) -> int:
    box = boxfile.load_box(args.file)
    check = is_non_signaling(box)
    if check:
        print("non-signaling: yes")
    else:
        k, x, x_flip, a_rest = check.witness
        print(
            "non-signaling: no "
            f"(party {k} signals: inputs {''.join(map(str, x))} vs "
            f"{''.join(map(str, x_flip))}, others' outputs {''.join(map(str, a_rest))})"
        )
    if args.skip_local:
        return 0
    if box.n > MAX_EXHAUSTIVE_PARTIES:
        print(f"local: skipped (supported up to {MAX_EXHAUSTIVE_PARTIES} parties)")
        return 0
    result = decide_locality(box)
    if result.local:
        model = result.model
        print(f"local: yes ({len(model.weights)} deterministic strategies)")
        for s, w in sorted(model.weights.items()):
            desc = ",".join(f"{o0}{o1}" for o0, o1 in s)
            print(f"  weight {w} on responses {desc}")
    else:
        verified = result.certificate.verify(box)
        print(
            "local: no (separating certificate "
            + ("verified" if verified else "NOT verified")
            + ")"
        )
    return 0


def _cmd_distill(args) -> int:
    eps = _parse_fraction(args.eps)
    if not 0 < eps <= 1:
        print(f"error: eps must be in (0, 1], got {eps}", file=sys.stderr)
        return PRECONDITION_ERROR
    trajectory = distill.iterate(args.n, eps, args.steps)
    _write_output(distill.trajectory_csv(trajectory), args.out)
    if eps == 1:
        print("note: eps = 1 is a fixed point; the trajectory is constant")
    final = trajectory.final
    print(
        f"final eps after {args.steps} step(s): {final} "
        f"(distance to the perfect box: {distill.tv_distance_to_limit(final)})"
    )
    if args.validate:
        if args.n > MAX_EXHAUSTIVE_PARTIES:
            print(f"wiring oracle: skipped (supported up to {MAX_EXHAUSTIVE_PARTIES} parties)")
        else:
            ok = distill.validate_against_wiring(args.n, eps)
            print("wiring oracle: " + ("MATCH" if ok else "MISMATCH"))
            if not ok:
                return PRECONDITION_ERROR
    return 0


def _cmd_analyze(args, parser) -> int:
    f = _load_function(args, parser)
    verify_eps = None
    verify_steps = None
    if args.verify:
        verify_eps = _parse_fraction(args.eps) if args.eps else Fraction(1, 2)
        verify_steps = args.steps
        if not 0 < verify_eps <= 1:
            print(f"error: eps must be in (0, 1]", file=sys.stderr)
            return PRECONDITION_ERROR
        verdict = commcost.amplifiable(f)
        if not verdict:
            print(
                "error: end-to-end verification needs an amplifiable function: "
                + "; ".join(verdict.reasons),
                file=sys.stderr,
            )
            return PRECONDITION_ERROR
    report = commcost.report_text(f, verify_eps=verify_eps, verify_steps=verify_steps)
    _write_output(report, args.out)
    return 0


def _cmd_wiring_eval(args) -> int:
    boxes = [boxfile.load_box(path) for path in args.boxes]
    n = boxes[0].n
    try:
        w = named_wiring(args.name, n)
        if args.dump_rules:
            sys.stdout.write(wiring_to_text(w, name=args.name))
        result = evaluate_wiring(boxes, w)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR
    _write_output(boxfile.box_to_text(result), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="nsboxes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    box = sub.add_parser("box", help="build or check box files")
    box_sub = box.add_subparsers(dest="box_command", required=True)

    build = box_sub.add_parser("build", help="write a named box to a file")
    build.add_argument("--type", required=True, choices=["npr", "even", "correlated", "fc"])
    build.add_argument("--n", type=int, default=None)
    build.add_argument("--eps", default=None, help='mixing weight "p/q"')
    build.add_argument("--f", dest="expr", default=None, help="ANF expression for fc")
    build.add_argument("--truth-table", default=None, help="bitstring, x=0..0 first")
    build.add_argument("--out", default=None)

    check = box_sub.add_parser("check", help="test a box file")
    check.add_argument("file")
    check.add_argument("--skip-local", action="store_true")

    dist = sub.add_parser("distill", help="iterate the boosting map")
    dist.add_argument("--n", type=int, required=True)
    dist.add_argument("--eps", required=True)
    dist.add_argument("--steps", type=int, default=1)
    dist.add_argument("--validate", action="store_true")
    dist.add_argument("--out", default=None)

    analyze = sub.add_parser("analyze", help="channel-count analysis of a function")
    analyze.add_argument("expr", nargs="?", default=None)
    analyze.add_argument("--n", type=int, default=None)
    analyze.add_argument("--truth-table", default=None)
    analyze.add_argument("--verify", action="store_true")
    analyze.add_argument("--eps", default=None)
    analyze.add_argument("--steps", type=int, default=1)
    analyze.add_argument("--out", default=None)

    wiring = sub.add_parser("wiring", help="evaluate a named wiring on box files")
    wiring_sub = wiring.add_subparsers(dest="wiring_command", required=True)
    weval = wiring_sub.add_parser("eval")
    weval.add_argument("--name", required=True)
    weval.add_argument("--dump-rules", action="store_true")
    weval.add_argument("boxes", nargs="+")
    weval.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "box":
            if args.box_command == "build":
                if args.n is None and args.type in ("npr", "even", "correlated"):
                    print("error: --n is required", file=sys.stderr)
                    return USAGE_ERROR
                return _cmd_box_build(args, parser)
            return _cmd_box_check(args)
        if args.command == "distill":
            return _cmd_distill(args)
        if args.command == "analyze":
            return _cmd_analyze(args, parser)
        if args.command == "wiring":
            return _cmd_wiring_eval(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except (OSError, boxfile.BoxFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
