"""Dynamic-programming join enumeration (bushy plans).

The static cost-based baseline "forms the complete execution plan at the
beginning based on the collected statistics" — a System-R style exhaustive
search, extended to bushy trees (the paper's cost-based plans are bushy).
The search space is subsets of the join graph; disconnected combinations
(cross products) are skipped.
"""

from __future__ import annotations

from itertools import combinations

from repro.algebra.plan import JoinNode, LeafNode, PlanNode
from repro.algebra.toolkit import PlannerToolkit
from repro.common.errors import OptimizationError


def best_bushy_plan(toolkit: PlannerToolkit, movement_aware: bool = False) -> PlanNode:
    """Exhaustive DP over connected alias subsets; returns the cheapest tree.

    The default cost metric is the classic cardinality cost (sum of
    estimated intermediate sizes) the paper's static baseline uses;
    ``movement_aware=True`` switches to the engine-mirroring cost model (an
    ablation showing how much of the dynamic approach's win comes from
    estimation quality vs cost-model fidelity).

    The estimator memoizes per-node estimates for the length of the search,
    so each distinct subtree is estimated once however many candidate joins
    reuse it.
    """
    with toolkit.estimator.memoized():
        return _search(toolkit, movement_aware)


def _search(toolkit: PlannerToolkit, movement_aware: bool) -> PlanNode:
    estimator = toolkit.estimator
    aliases = sorted(toolkit.query.aliases)
    if not aliases:
        raise OptimizationError("query has no FROM entries")
    best: dict[frozenset, tuple[float, PlanNode]] = {}
    for alias in aliases:
        leaf = toolkit.leaf(alias)
        cost = estimator.plan_cost(leaf) if movement_aware else 0.0
        best[frozenset((alias,))] = (cost, leaf)

    for size in range(2, len(aliases) + 1):
        for subset in combinations(aliases, size):
            members = list(subset)
            full = frozenset(members)
            entry: tuple[float, PlanNode] | None = None
            # Enumerate splits; pinning members[0] to the left half halves
            # the work without losing any (unordered) split. mask selects
            # which of the remaining members join it; the all-ones mask is
            # excluded (it would leave the right half empty).
            for mask in range((1 << (len(members) - 1)) - 1):
                left = frozenset(
                    members[i + 1] for i in range(len(members) - 1) if mask >> i & 1
                ) | {members[0]}
                right = full - left
                left_entry = best.get(left)
                right_entry = best.get(right)
                if left_entry is None or right_entry is None:
                    continue
                conditions = toolkit.conditions_across(left, right)
                if not conditions:
                    continue
                node = toolkit.make_join(left_entry[1], right_entry[1], conditions)
                if movement_aware:
                    cost = estimator.plan_cost(node)
                else:
                    # cout_cost(node) = (cout(build) + cout(probe)) + output,
                    # and the children's cout costs are the stored entries.
                    # IEEE addition commutes, so the sum is bit-identical
                    # whichever side make_join chose to build.
                    volume = estimator.output_volume(node)
                    cost = (left_entry[0] + right_entry[0]) + volume
                if entry is None or cost < entry[0]:
                    entry = (cost, node)
            if entry is not None:
                best[full] = entry

    final = best.get(frozenset(aliases))
    if final is None:
        raise OptimizationError(
            "join graph is disconnected: no cross-product-free plan exists"
        )
    return final[1]


def bounded_first_join(toolkit: PlannerToolkit, max_tables: int = 8):
    """The first base-table join of the DP-optimal bushy tree, or ``None``.

    The feedback policy's *widened* planning step: instead of the greedy
    "cheapest next join" rule, run the exhaustive enumeration over the
    surviving tables and commit to one of the leaf-leaf joins the optimal
    tree starts from (the one with the smallest estimated result — the next
    re-optimization point will re-plan the rest anyway). Returns a
    :class:`~repro.core.planner.PlannedJoin` so the driver can substitute it
    for the greedy pick, or ``None`` when the query exceeds ``max_tables``
    (the DP is exponential; past the bound the greedy rule stays in charge).
    """
    from repro.core.planner import PlannedJoin  # late import: avoids a cycle

    if len(toolkit.query.aliases) > max_tables:
        return None
    tree = best_bushy_plan(toolkit)
    candidates: list[JoinNode] = []

    def visit(node: PlanNode) -> None:
        if not isinstance(node, JoinNode):
            return
        if isinstance(node.build, LeafNode) and isinstance(node.probe, LeafNode):
            candidates.append(node)
            return
        visit(node.build)
        visit(node.probe)

    visit(tree)
    if not candidates:
        return None
    node = min(
        candidates, key=lambda n: (n.estimated_rows, tuple(sorted(n.aliases)))
    )
    pair = frozenset((node.build.alias, node.probe.alias))
    conditions = tuple(toolkit.conditions_across(node.build.aliases, node.probe.aliases))
    return PlannedJoin(
        pair=pair,
        conditions=conditions,
        rank=node.estimated_rows,
        node=node,
    )
