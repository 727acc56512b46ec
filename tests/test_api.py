"""The package's public surface, pinned: adding or dropping a name is a deliberate change.

Every public callable also refuses malformed arguments with a ValueError or a
TypeError that names the bad value.
"""

import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest

import nsboxes
from nsboxes import (
    AnfFunction,
    BoxFileError,
    BoxTable,
    CommGraph,
    ExprSyntaxError,
    LocalModel,
    NonlocalityCertificate,
    NotAmplifiableError,
    Wiring,
    anf_from_truth_table,
    box_from_text,
    bs_wiring,
    decide_locality,
    derivative_at_fixed_points,
    evaluate_wiring,
    identity_wiring,
    iterate,
    load_box,
    make_correlated,
    make_even_parity,
    make_full_correlation,
    make_npr,
    make_wiring,
    mix,
    named_wiring,
    parse_expr,
    plan,
    realism_marginal,
    report_text,
    steps_to_reach,
    t_map,
    validate_against_wiring,
    verify_plan_end_to_end,
    xor_boxes,
    xor_star,
    xor_wiring,
)
from nsboxes.locality import NORM
from nsboxes.lp import solve_equality_feasibility
from nsboxes.wiring import PartyRules


PUBLIC_NAMES = [
    "AmplificationPlan",
    "AnfFunction",
    "BoxFileError",
    "BoxTable",
    "CommGraph",
    "ExprSyntaxError",
    "LocalModel",
    "LocalityResult",
    "NonlocalSupport",
    "NonlocalityCertificate",
    "NotAmplifiableError",
    "SignalingCheck",
    "Trajectory",
    "UnreachableTargetError",
    "Wiring",
    "amplifiable",
    "anf_from_truth_table",
    "boolfn",
    "box_from_text",
    "box_to_text",
    "boxes",
    "boxfile",
    "bs_wiring",
    "commcost",
    "decide_locality",
    "derivative_at_fixed_points",
    "distill",
    "evaluate_wiring",
    "identity_wiring",
    "is_non_signaling",
    "iterate",
    "load_box",
    "local_part",
    "locality",
    "lp",
    "make_correlated",
    "make_even_parity",
    "make_full_correlation",
    "make_npr",
    "make_wiring",
    "mix",
    "n_scratch",
    "named_wiring",
    "nonlocal_support",
    "parse_expr",
    "plan",
    "realism_distribution",
    "realism_marginal",
    "report_text",
    "save_box",
    "scratch_graph",
    "steps_to_reach",
    "t_map",
    "trajectory_csv",
    "validate_against_wiring",
    "verify_path_condition",
    "verify_plan_end_to_end",
    "wiring",
    "wiring_to_text",
    "xor_boxes",
    "xor_star",
    "xor_wiring",
]


def test_public_names_are_pinned():
    assert sorted(nsboxes.__all__) == PUBLIC_NAMES


# ------------------------------------------------------------ malformed input

HALF = F(1, 2)
NPR2 = make_npr(2)
FOUR_PARTY = parse_expr("x1*x2*x3 + x3*x4 + x1", 4)
TWO_BLOCKS = parse_expr("x1*x2 + x2*x3 + x4*x5*x6 + x5", 6)


def _zero_rule(*_):
    return 0


def _load(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.box"
        path.write_text(text)
        return load_box(path)


def _wiring_with_output_row(row):
    """The bs wiring on two parties with party 1's output row at x = 0 replaced."""
    good = bs_wiring(2)
    first = good.parties[0]
    rules = PartyRules(first.steps, ((row,), first.output[1]))
    return Wiring(2, 2, good.randomness, (rules, good.parties[1]))


# (public name[.method], call, error, text the message must hold: the bad value)
MALFORMED = [
    ("AnfFunction", lambda: AnfFunction(True, []), TypeError, "got True"),
    ("AnfFunction", lambda: AnfFunction(2.5, []), TypeError, "got 2.5"),
    ("AnfFunction", lambda: AnfFunction(-1, []), ValueError, "got -1"),
    ("AnfFunction", lambda: AnfFunction(3, [[True, 2]]), TypeError, "got True"),
    ("AnfFunction", lambda: AnfFunction(3, [[4]]), ValueError, "got 4"),
    ("AnfFunction.evaluate", lambda: parse_expr("x1*x2", 2).evaluate((2, 1)), ValueError, "(2, 1)"),
    ("parse_expr", lambda: parse_expr("x1", True), TypeError, "got True"),
    ("parse_expr", lambda: parse_expr("x1*x5", 2), ExprSyntaxError, "x5"),
    ("anf_from_truth_table", lambda: anf_from_truth_table("0120"), ValueError, "(0, 1, 2, 0)"),
    ("BoxTable", lambda: BoxTable(True, {}), TypeError, "got True"),
    ("BoxTable", lambda: BoxTable(2.5, {}), TypeError, "got 2.5"),
    ("BoxTable", lambda: BoxTable(9, {}), ValueError, "got 9"),
    ("BoxTable", lambda: BoxTable(2, {**NPR2.entries, ((0, 0, 0), (1, 1, 1)): 7}),
     ValueError, "((0, 0, 0), (1, 1, 1))"),
    ("BoxTable", lambda: BoxTable(2, {**NPR2.entries, ("ab", 3): 1}), ValueError, "('ab', 3)"),
    ("BoxTable", lambda: BoxTable(1, {((0,), (0,)): True, ((1,), (1,)): 1}), TypeError, ": True"),
    ("make_npr", lambda: make_npr(True), TypeError, "got True"),
    ("make_even_parity", lambda: make_even_parity(2.5), TypeError, "got 2.5"),
    ("make_correlated", lambda: make_correlated(2, True), TypeError, "bool weight: True"),
    ("make_full_correlation", lambda: make_full_correlation(AnfFunction(9, [])), ValueError, "got 9"),
    ("mix", lambda: mix([NPR2, NPR2], [True, False]), TypeError, "bool weight: True"),
    ("xor_boxes", lambda: xor_boxes(NPR2, make_npr(3)), ValueError, "got 2 and 3"),
    ("xor_star", lambda: xor_star([FOUR_PARTY], True), TypeError, "bool weight: True"),
    ("box_from_text", lambda: box_from_text("n 9\n"), BoxFileError, "got 9"),
    ("load_box", lambda: _load("n x\n"), BoxFileError, "'n x'"),
    ("CommGraph", lambda: CommGraph(2.5, [(1, 2)]), TypeError, "got 2.5"),
    ("CommGraph", lambda: CommGraph(-1, []), ValueError, "got -1"),
    ("CommGraph", lambda: CommGraph(True, []), TypeError, "got True"),
    ("CommGraph", lambda: CommGraph(3, [(1, 2.0)]), TypeError, "edge (1, 2.0)"),
    ("CommGraph", lambda: CommGraph(3, [(1, 4)]), ValueError, "got 4"),
    ("CommGraph", lambda: CommGraph(3, [(2, 2)]), ValueError, "vertex 2"),
    ("CommGraph.ancestors", lambda: CommGraph(3, []).ancestors(9), ValueError, "got 9"),
    ("plan", lambda: plan(TWO_BLOCKS), NotAmplifiableError, "n_J = 2"),
    ("report_text", lambda: report_text(FOUR_PARTY, HALF, True), TypeError, "got True"),
    ("verify_plan_end_to_end", lambda: verify_plan_end_to_end(FOUR_PARTY, HALF, True),
     TypeError, "got True"),
    ("verify_plan_end_to_end", lambda: verify_plan_end_to_end(FOUR_PARTY, HALF, 2.5),
     TypeError, "got 2.5"),
    ("verify_plan_end_to_end", lambda: verify_plan_end_to_end(FOUR_PARTY, HALF, -1),
     ValueError, "got -1"),
    ("verify_plan_end_to_end", lambda: verify_plan_end_to_end(FOUR_PARTY, True, 1),
     TypeError, "bool weight: True"),
    ("t_map", lambda: t_map(2.5, HALF), TypeError, "got 2.5"),
    ("t_map", lambda: t_map(2, True), TypeError, "bool weight: True"),
    ("steps_to_reach", lambda: steps_to_reach(2.5, HALF, F(3, 4)), TypeError, "got 2.5"),
    ("derivative_at_fixed_points", lambda: derivative_at_fixed_points(2.5), TypeError, "got 2.5"),
    ("iterate", lambda: iterate(2, HALF, True), TypeError, "got True"),
    ("iterate", lambda: iterate(2, HALF, 2.5), TypeError, "got 2.5"),
    ("iterate", lambda: iterate(2, HALF, -1), ValueError, "got -1"),
    ("validate_against_wiring", lambda: validate_against_wiring(6, HALF), ValueError, "got 6"),
    ("LocalModel", lambda: LocalModel({((0, True),): F(1)}), ValueError, "((0, True),)"),
    ("LocalModel", lambda: LocalModel({((0, 1.0),): F(1)}), ValueError, "((0, 1.0),)"),
    ("NonlocalityCertificate.verify", lambda: NonlocalityCertificate({NORM: True}).verify(NPR2),
     TypeError, "bool certificate dual: True"),
    ("decide_locality", lambda: decide_locality(make_npr(6)), ValueError, "got 6"),
    ("realism_marginal", lambda: realism_marginal({(0, 1): 1}, 1, (2,)), ValueError, "(2,)"),
    ("realism_marginal", lambda: realism_marginal({(0, 2): 1}, 1, (0,)), ValueError, "(0, 2)"),
    ("Wiring", lambda: Wiring(2, True, (F(1),), bs_wiring(2).parties), TypeError, "got True"),
    ("Wiring", lambda: _wiring_with_output_row((0, 1, 2, 0)), ValueError, "(0, 1, 2, 0)"),
    ("bs_wiring", lambda: bs_wiring(2.5), TypeError, "got 2.5"),
    ("identity_wiring", lambda: identity_wiring(0), ValueError, "got 0"),
    ("xor_wiring", lambda: xor_wiring(True), TypeError, "got True"),
    ("make_wiring", lambda: make_wiring(1, 1, _zero_rule, _zero_rule, (True,)),
     TypeError, "bool weight: True"),
    ("named_wiring", lambda: named_wiring("nope", 2), ValueError, "'nope'"),
    ("evaluate_wiring", lambda: evaluate_wiring([NPR2], bs_wiring(2)), ValueError, "got 1"),
    ("lp.solve_equality_feasibility", lambda: solve_equality_feasibility([[True]], [F(1)]),
     ValueError, "[True]"),
    # Rows appended after the first 60 so that existing case ids keep their index.
    ("mix", lambda: mix([5], [1]), TypeError, "boxes[0] must be a BoxTable, got 5"),
    ("xor_boxes", lambda: xor_boxes(5, NPR2), TypeError, "p must be a BoxTable, got 5"),
    ("xor_wiring", lambda: xor_wiring(2.5), TypeError, "party count must be an int, got 2.5"),
    ("make_wiring", lambda: make_wiring(1, 2.5, _zero_rule, _zero_rule),
     TypeError, "box count must be an int, got 2.5"),
]

# Public callables with no malformed argument of the types they take.
NO_MALFORMED_ARGUMENT = {
    # exceptions
    "BoxFileError", "ExprSyntaxError", "NotAmplifiableError", "UnreachableTargetError",
    # results the library builds, with no input rule of their own
    "AmplificationPlan", "LocalityResult", "NonlocalSupport", "SignalingCheck", "Trajectory",
    # every value of the argument types is valid (a save_box path fault is an OSError)
    "amplifiable", "box_to_text", "is_non_signaling", "local_part", "n_scratch",
    "nonlocal_support", "realism_distribution", "save_box", "scratch_graph",
    "trajectory_csv", "verify_path_condition", "wiring_to_text",
}


def test_every_public_callable_is_in_the_malformed_table():
    public = {name for name in nsboxes.__all__ if callable(getattr(nsboxes, name))}
    tabled = {name.split(".")[0] for name, *_ in MALFORMED} - {"lp"}
    assert tabled.isdisjoint(NO_MALFORMED_ARGUMENT)
    assert tabled | NO_MALFORMED_ARGUMENT == public


@pytest.mark.parametrize(
    "call, error, named",
    [row[1:] for row in MALFORMED],
    ids=[f"{row[0]}-{i}" for i, row in enumerate(MALFORMED)],
)
def test_malformed_arguments_raise_a_named_error(call, error, named):
    """A ValueError or TypeError naming the bad value: never another error, never success."""
    assert issubclass(error, (ValueError, TypeError))
    with pytest.raises(error) as info:
        call()
    assert named in str(info.value)
