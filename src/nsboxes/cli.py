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
    check_positive_weight,
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


class _UsageError(Exception):
    """A command line the parser accepts but the command cannot use."""


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"invalid fraction {text!r}") from None


def _load_function(args, parser):
    """The function from exactly one of an expression and --truth-table."""
    if args.expr and args.truth_table:
        raise _UsageError("give a function expression or a truth table, not both")
    if args.expr:
        if args.n is None:
            raise _UsageError("--n is required with an expression")
        try:
            return parse_expr(args.expr, args.n)
        except ExprSyntaxError as exc:
            raise _UsageError(exc) from None
    if not args.truth_table:
        parser.error("a function expression or truth table is required")
    try:
        f = anf_from_truth_table(args.truth_table)
    except ValueError as exc:
        raise _UsageError(exc) from None
    if args.n is not None and f.n != args.n:
        raise _UsageError(f"function has {f.n} variables, --n says {args.n}")
    return f


def _write_output(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_box_build(args, parser) -> int:
    kind = args.type
    if args.n is None and kind != "fc":
        raise _UsageError("--n is required")
    if kind == "npr":
        box = make_npr(args.n)
    elif kind == "even":
        box = make_even_parity(args.n)
    elif kind == "correlated":
        if args.eps is None:
            raise _UsageError("--eps is required for correlated boxes")
        box = make_correlated(args.n, _parse_fraction(args.eps))
    else:  # fc
        box = make_full_correlation(_load_function(args, parser))
    _write_output(boxfile.box_to_text(box), args.out)
    return 0


def _cmd_box_check(args, parser) -> int:
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


def _cmd_distill(args, parser) -> int:
    eps = check_positive_weight(_parse_fraction(args.eps))
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
    verify_eps = verify_steps = None
    if args.verify:
        verify_eps = _parse_fraction(args.eps) if args.eps else Fraction(1, 2)
        verify_steps = args.steps
    _write_output(commcost.report_text(f, verify_eps, verify_steps), args.out)
    return 0


def _cmd_wiring_eval(args, parser) -> int:
    boxes = [boxfile.load_box(path) for path in args.boxes]
    w = named_wiring(args.name, boxes[0].n)
    if args.dump_rules:
        sys.stdout.write(wiring_to_text(w, name=args.name))
    _write_output(boxfile.box_to_text(evaluate_wiring(boxes, w)), args.out)
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
    build.set_defaults(run=_cmd_box_build)

    check = box_sub.add_parser("check", help="test a box file")
    check.add_argument("file")
    check.add_argument("--skip-local", action="store_true")
    check.set_defaults(run=_cmd_box_check)

    dist = sub.add_parser("distill", help="iterate the boosting map")
    dist.add_argument("--n", type=int, required=True)
    dist.add_argument("--eps", required=True)
    dist.add_argument("--steps", type=int, default=1)
    dist.add_argument("--validate", action="store_true")
    dist.add_argument("--out", default=None)
    dist.set_defaults(run=_cmd_distill)

    analyze = sub.add_parser("analyze", help="channel-count analysis of a function")
    analyze.add_argument("expr", nargs="?", default=None)
    analyze.add_argument("--n", type=int, default=None)
    analyze.add_argument("--truth-table", default=None)
    analyze.add_argument("--verify", action="store_true")
    analyze.add_argument("--eps", default=None)
    analyze.add_argument("--steps", type=int, default=1)
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(run=_cmd_analyze)

    wiring = sub.add_parser("wiring", help="evaluate a named wiring on box files")
    wiring_sub = wiring.add_subparsers(dest="wiring_command", required=True)
    weval = wiring_sub.add_parser("eval")
    weval.add_argument("--name", required=True)
    weval.add_argument("--dump-rules", action="store_true")
    weval.add_argument("boxes", nargs="+")
    weval.add_argument("--out", default=None)
    weval.set_defaults(run=_cmd_wiring_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args, parser)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    except (_UsageError, OSError, boxfile.BoxFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR


if __name__ == "__main__":
    sys.exit(main())
