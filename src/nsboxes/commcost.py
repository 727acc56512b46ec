"""Channel counting and amplification planning for full-correlation boxes.

Simulating the full-correlation box of a Boolean function from shared
randomness alone needs one-way channels: one fewer than the variable count
of each block of its degree->=2 monomials.  When the blocks merge into a
single one, a weak copy of the box can instead be boosted toward the
perfect box while only the parties outside one designated monomial forward
their data, which can undercut the from-scratch channel count.  This module
computes both counts, builds witness graphs, and verifies the boosting
pipeline end to end by exact table computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .boolfn import AnfFunction, NonlocalSupport, local_part, nonlocal_support
from .boxes import (
    BoxTable,
    ZERO,
    bit_tuples,
    check_exhaustive_party_count,
    check_int,
    check_positive_weight,
    make_correlated,
    make_full_correlation,
    mix,
    parity,
    xor_boxes,
    xor_star,
)
from .distill import iterate
from .wiring import bs_wiring, evaluate_wiring


class NotAmplifiableError(ValueError):
    """Amplification planning was requested for a non-amplifiable function."""


@dataclass(frozen=True)
class CommGraph:
    """Directed graph on party vertices; an edge is a one-way channel.

    `n` is an int >= 0.  `edges` may be any iterable of pairs of vertices,
    ints in 1..n; it is stored as a frozenset.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        check_int(self.n, "vertex count", 0)
        object.__setattr__(self, "edges", frozenset(self.edges))
        for edge in self.edges:
            u, v = (check_int(w, f"vertex of edge {edge!r}", 1, self.n) for w in edge)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")

    def ancestors(self, v: int) -> frozenset[int]:
        """anc(v): v and every vertex with a path to v, by one reverse search."""
        seen = {check_int(v, "vertex", 1, self.n)}
        frontier = [v]
        while frontier:
            w = frontier.pop()
            for a, b in self.edges:
                if b == w and a not in seen:
                    seen.add(a)
                    frontier.append(a)
        return frozenset(seen)


def _chain(vertices: list[int]) -> set[tuple[int, int]]:
    return {(a, b) for a, b in zip(vertices, vertices[1:])}


def _scratch_count(support: NonlocalSupport) -> int:
    return len(support.union) - support.n_j


def n_scratch(f: AnfFunction) -> int:
    """One-way channels needed to simulate the box from scratch."""
    return _scratch_count(nonlocal_support(f))


def scratch_graph(f: AnfFunction) -> CommGraph:
    """A witness channel graph with exactly n_scratch(f) edges.

    Within each block the variables form one descending chain, so the
    block's smallest variable is a sink reachable from all others.
    """
    return _scratch_graph(f.n, nonlocal_support(f))


def _scratch_graph(n: int, support: NonlocalSupport) -> CommGraph:
    edges: set[tuple[int, int]] = set()
    for block in support.blocks:
        edges |= _chain(sorted(frozenset().union(*block), reverse=True))
    return CommGraph(n=n, edges=edges)


def verify_path_condition(g: CommGraph, support: NonlocalSupport) -> bool:
    """Whether the channels of g suffice to simulate the support's box.

    Party v can learn the inputs of anc(v) = g.ancestors(v): v and every
    vertex with a path to v.  The rule is exact: the perfect box can be
    simulated over g iff every degree->=2 monomial lies inside some anc(v).
    One such party outputs each monomial, shared randomness fixes the
    output parity, and since the ANF is unique no monomial can be split
    across parties.  Each anc(v) is computed once, so the check is one
    subset test per monomial and party.
    """
    ancestors = [g.ancestors(v) for v in range(1, g.n + 1)]
    return all(any(m <= anc for anc in ancestors) for m in support.j_set)


@dataclass(frozen=True)
class AmplifiabilityResult:
    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class AmplificationPlan:
    """Boosting plan: the isolated monomial and the two witness graphs.

    `graph` simulates the box from scratch; its subset `distill_graph`
    forwards the shares of parties outside the isolated monomial to the
    receiving vertex during boosting.  `n_distill` counts the subset's
    edges; `bound` records the n - 1 - max m_I formula for comparison.
    """

    isolated: frozenset[int]
    receiver: int
    graph: CommGraph
    distill_graph: CommGraph
    n_scratch: int
    bound: int

    @property
    def n_distill(self) -> int:
        return len(self.distill_graph.edges)


def _plan(
    f: AnfFunction, support: NonlocalSupport
) -> AmplificationPlan | tuple[str, ...]:
    """The boosting plan for f, or the reasons f is not amplifiable.

    `support` is nonlocal_support(f), computed once by the caller.  f is
    amplifiable when its support forms a single block and either the
    margin condition max m_I > n - |union of monomials| is met or some
    isolable monomial leaves strictly fewer forwarding channels than the
    from-scratch count.  The isolated monomial is the m_I maximizer (ties
    to the smallest variable set) when it is isolable, otherwise the
    largest isolable one.  The witness graph chains all parties so that the
    forwarding edges come first and end at the receiver, making the
    forwarding graph an automatic strict subset.  The plan's `bound` is
    n - 1 - max m_I, or 0 when the best monomial covers all parties.
    """
    if not support.j_set:
        return ("no degree->=2 monomials: the box is local",)
    if support.n_j != 1:
        return (f"n_J = {support.n_j} != 1",)
    # A monomial is isolable when no other monomial nests inside it: pinning
    # the inputs outside it to zero then kills every other monomial, which
    # is what makes the cut land exactly on a correlated box.
    isolable = [m for m in support.j_set if not any(o < m for o in support.j_set)]
    best = max(support.m_values.values())
    margin = f.n - len(support.union)
    scratch = _scratch_count(support)
    if best <= margin and all(f.n - len(m) >= scratch for m in isolable):
        return (
            f"max m_I = {best} <= n - |union| = {margin}",
            "no isolable monomial saves channels",
        )
    isolated = min((m for m, v in support.m_values.items() if v == best), key=sorted)
    if isolated not in isolable:
        isolated = min(isolable, key=lambda m: (-len(m), sorted(m)))

    shared = isolated & frozenset().union(*(m for m in support.j_set if m != isolated))
    receiver = min(shared) if shared else min(isolated)
    forwarding = sorted(set(range(1, f.n + 1)) - isolated, reverse=True)
    tail = sorted(isolated - {receiver}, reverse=True)
    return AmplificationPlan(
        isolated=isolated,
        receiver=receiver,
        graph=CommGraph(n=f.n, edges=_chain(forwarding + [receiver] + tail)),
        distill_graph=CommGraph(n=f.n, edges=_chain(forwarding + [receiver])),
        n_scratch=scratch,
        bound=max(0, f.n - 1 - best),
    )


def amplifiable(f: AnfFunction) -> AmplifiabilityResult:
    """Whether a weak copy can be boosted over a strict subset of `plan.graph`.

    That graph chains all n parties, so the subset need not have fewer channels
    than `n_scratch`.  `_plan` decides it, with the choice of the isolated monomial.
    """
    result = _plan(f, nonlocal_support(f))
    if isinstance(result, AmplificationPlan):
        return AmplifiabilityResult(ok=True)
    return AmplifiabilityResult(ok=False, reasons=result)


def plan(f: AnfFunction) -> AmplificationPlan:
    """The boosting plan for an amplifiable single-block function."""
    result = _plan(f, nonlocal_support(f))
    if isinstance(result, tuple):
        raise NotAmplifiableError("; ".join(result))
    return result


def _collapse_on_monomial(
    box: BoxTable, isolated: frozenset[int], receiver: int
) -> BoxTable:
    """Project an n-party box onto the parties of one monomial.

    Parties outside the monomial receive input 0 and forward their output
    bits to the receiver, who absorbs them into its own output by XOR.  So
    the cut keeps each outcome's parity: the inside parties keep their
    bits, and the receiver's bit is flipped to restore parity(a).  The
    result is a |monomial|-party table.
    """
    inside = sorted(isolated)
    at = inside.index(receiver)
    entries: dict = {}
    for x_sub in bit_tuples(len(inside)):
        x_full = [0] * box.n
        for party, bit in zip(inside, x_sub):
            x_full[party - 1] = bit
        for a, p in box.support(tuple(x_full)):
            d = [a[party - 1] for party in inside]
            d[at] ^= parity(a) ^ parity(d)
            key = (x_sub, tuple(d))
            entries[key] = entries.get(key, ZERO) + p
    return BoxTable(len(inside), entries)


def verify_plan_end_to_end(
    f: AnfFunction, eps: Fraction, steps: int
) -> bool:
    """Exactly simulate the boosting pipeline and check its output table.

    The weak box is assembled from the full-correlation boxes of f's
    degree->=2 monomials through the correlated-error XOR, then XORed with
    the box of its local part.  It is cut down to the isolated monomial's
    parties by zero-pinning and forwarding along the plan's subset graph,
    boosted for `steps` rounds through the actual wiring engine, and
    re-assembled through the correlated-error XOR at the boosted weight.
    True iff every stage lands exactly on its predicted table and the final
    table equals eps_m * (perfect box) + (1 - eps_m) * (local residue box).
    """
    eps = check_positive_weight(eps)
    check_int(steps, "steps", 0)

    the_plan = plan(f)
    check_exhaustive_party_count(f.n, "end-to-end verification")
    isolated = the_plan.isolated
    k = len(isolated)
    residual_box = make_full_correlation(local_part(f))
    perfect_box = make_full_correlation(f)
    part_functions = [AnfFunction(f.n, [m]) for m in f.monomials if len(m) >= 2]

    # Forwarding must be available: every outside party reaches the receiver.
    outside = frozenset(range(1, f.n + 1)) - isolated
    if not outside <= the_plan.distill_graph.ancestors(the_plan.receiver):
        return False

    # Stage 1: the correlated-error assembly reproduces the weak box.
    weak = xor_boxes(xor_star(part_functions, eps), residual_box)
    if weak != mix([perfect_box, residual_box], [eps, 1 - eps]):
        return False

    # Stage 2: cutting out the isolated monomial yields the correlated box.
    stripped = xor_boxes(weak, residual_box)
    collapsed = _collapse_on_monomial(stripped, isolated, the_plan.receiver)
    if collapsed != make_correlated(k, eps):
        return False

    # Stage 3: boosting rounds through the wiring engine match the scalar map.
    boosted = collapsed
    for _ in range(steps):
        boosted = evaluate_wiring([boosted, boosted], bs_wiring(k))
    eps_m = iterate(k, eps, steps).final
    if boosted != make_correlated(k, eps_m):
        return False

    # Stage 4: re-assembly at the boosted weight gives the claimed mixture.
    rebuilt = xor_boxes(xor_star(part_functions, eps_m), residual_box)
    return rebuilt == mix([perfect_box, residual_box], [eps_m, 1 - eps_m])


def _format_monomial(mono: frozenset[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(mono)) + "}"


def _format_edges(g: CommGraph) -> str:
    if not g.edges:
        return "(none)"
    return ", ".join(f"({u}->{v})" for u, v in sorted(g.edges))


def report_text(
    f: AnfFunction,
    verify_eps: Fraction | None = None,
    verify_steps: int | None = None,
) -> str:
    """Structured plain-text analysis report for a function.

    With both `verify_eps` and `verify_steps` given, the report ends with
    the end-to-end check of the plan; asking for it on a function that is
    not amplifiable raises NotAmplifiableError.  Giving only one of the two
    raises ValueError.
    """
    verify = verify_eps is not None
    if verify != (verify_steps is not None):
        raise ValueError("the end-to-end check needs both verify_eps and verify_steps")
    support = nonlocal_support(f)
    the_plan = _plan(f, support)
    if verify and isinstance(the_plan, tuple):
        raise NotAmplifiableError(
            "end-to-end verification needs an amplifiable function: "
            + "; ".join(the_plan)
        )
    lines = [f"function: {f.to_text()}", f"parties: {f.n}"]
    if not support.j_set:
        lines.append("degree->=2 monomials: (none)")
        lines.append("local function; nothing to simulate")
        return "\n".join(lines) + "\n"
    lines.append(
        "degree->=2 monomials: "
        + ", ".join(
            _format_monomial(m)
            for m in sorted(support.j_set, key=lambda m: sorted(m))
        )
    )
    lines.append(
        "blocks: "
        + " | ".join(
            ", ".join(_format_monomial(m) for m in sorted(blk, key=lambda m: sorted(m)))
            for blk in support.blocks
        )
    )
    lines.append(f"n_J: {support.n_j}")
    for mono in sorted(support.m_values, key=lambda m: sorted(m)):
        lines.append(f"m{_format_monomial(mono)} = {support.m_values[mono]}")
    lines.append(f"local residue: {local_part(f).to_text()}")
    lines.append(f"n_scratch: {_scratch_count(support)}")
    g = _scratch_graph(f.n, support)
    lines.append(f"scratch graph edges: {_format_edges(g)}")
    lines.append(
        f"scratch path condition: {'ok' if verify_path_condition(g, support) else 'VIOLATED'}"
    )
    if isinstance(the_plan, tuple):
        lines.append("amplifiable: no (" + "; ".join(the_plan) + ")")
        return "\n".join(lines) + "\n"
    lines.append("amplifiable: yes")
    lines.append(f"isolated monomial: {_format_monomial(the_plan.isolated)}")
    lines.append(f"receiver: {the_plan.receiver}")
    lines.append(f"plan graph edges: {_format_edges(the_plan.graph)}")
    lines.append(f"forwarding edges: {_format_edges(the_plan.distill_graph)}")
    lines.append(f"n_distill: {the_plan.n_distill}")
    lines.append(f"n_distill bound (formula): {the_plan.bound}")
    if verify:
        ok = verify_plan_end_to_end(f, verify_eps, verify_steps)
        lines.append(
            f"end-to-end check (eps={verify_eps}, steps={verify_steps}): "
            + ("ok" if ok else "FAILED")
        )
    return "\n".join(lines) + "\n"
