"""Exact-arithmetic toolkit for n-party non-signaling boxes."""

from .boolfn import (
    AnfFunction,
    ExprSyntaxError,
    NonlocalSupport,
    anf,
    anf_from_truth_table,
    local_part,
    nonlocal_support,
    parse_expr,
)
from .boxes import (
    BoxTable,
    SignalingCheck,
    is_non_signaling,
    make_correlated,
    make_even_parity,
    make_full_correlation,
    make_npr,
    mix,
    xor_boxes,
    xor_star,
)
from .boxfile import BoxFileError, box_from_text, box_to_text, load_box, save_box
from .commcost import (
    AmplificationPlan,
    CommGraph,
    NotAmplifiableError,
    SupportConditionError,
    amplifiable,
    n_distill_bound,
    n_scratch,
    plan,
    report_text,
    scratch_graph,
    verify_path_condition,
    verify_plan_end_to_end,
)
from .distill import (
    Trajectory,
    UnreachableTargetError,
    derivative_at_fixed_points,
    iterate,
    steps_to_reach,
    t_map,
    trajectory_csv,
    validate_against_wiring,
)
from .locality import (
    LocalModel,
    LocalityResult,
    NonlocalityCertificate,
    decide_locality,
    realism_distribution,
    realism_marginal,
)
from .wiring import (
    Wiring,
    bs_wiring,
    evaluate_wiring,
    identity_wiring,
    make_wiring,
    named_wiring,
    wiring_to_text,
    xor_wiring,
)

__all__ = [name for name in dir() if not name.startswith("_")]
