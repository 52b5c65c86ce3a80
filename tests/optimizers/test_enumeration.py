"""DP join enumeration tests."""

import pytest

from repro.algebra.plan import JoinNode
from repro.algebra.toolkit import PlannerToolkit
from repro.common.errors import OptimizationError
from repro.optimizers.enumeration import best_bushy_plan

from tests.conftest import build_star_session, star_query


@pytest.fixture(scope="module")
def session():
    return build_star_session()


class TestEnumeration:
    def test_covers_all_tables(self, session):
        toolkit = PlannerToolkit(star_query(), session)
        plan = best_bushy_plan(toolkit)
        assert plan.aliases == frozenset(("fact", "da", "db", "dc"))

    def test_every_join_has_conditions(self, session):
        toolkit = PlannerToolkit(star_query(), session)
        plan = best_bushy_plan(toolkit)
        for node in plan.join_nodes():
            assert node.build_keys and node.probe_keys

    def test_no_cross_products_possible(self, session):
        from repro.lang.ast import Query, TableRef

        query = Query(
            select=("da.a_id",),
            tables=(TableRef("da", "da"), TableRef("db", "db")),
        )
        with pytest.raises(OptimizationError):
            best_bushy_plan(PlannerToolkit(query, session))

    def test_two_table_query(self, session):
        from repro.lang.builder import QueryBuilder

        query = (
            QueryBuilder()
            .select("fact.f_val")
            .from_table("fact")
            .from_table("da")
            .join("fact.f_a", "da.a_id")
            .build()
        )
        plan = best_bushy_plan(PlannerToolkit(query, session))
        assert isinstance(plan, JoinNode)

    def test_movement_aware_can_differ(self, session):
        toolkit = PlannerToolkit(star_query(), session)
        cout_plan = best_bushy_plan(toolkit)
        aware_plan = best_bushy_plan(toolkit, movement_aware=True)
        # both are valid complete plans (they may or may not coincide)
        assert aware_plan.aliases == cout_plan.aliases

    def test_cheaper_than_worst_by_cout(self, session):
        """DP's plan must be at least as cheap (by its own metric) as any
        single right-deep alternative."""
        from repro.optimizers.from_order import from_order_plan

        toolkit = PlannerToolkit(star_query(), session)
        dp_plan = best_bushy_plan(toolkit)
        linear = from_order_plan(toolkit, honor_hints=False)
        assert toolkit.estimator.cout_cost(dp_plan) <= toolkit.estimator.cout_cost(
            linear
        ) * 1.0001


def reference_bushy_plan(toolkit, movement_aware=False):
    """The DP as first written: no estimate memo, every candidate costed by
    walking its whole tree. The oracle for the memoized search."""
    from itertools import combinations

    estimator = toolkit.estimator
    cost_fn = estimator.plan_cost if movement_aware else estimator.cout_cost
    aliases = sorted(toolkit.query.aliases)
    best = {}
    for alias in aliases:
        leaf = toolkit.leaf(alias)
        best[frozenset((alias,))] = (cost_fn(leaf), leaf)
    for size in range(2, len(aliases) + 1):
        for members in combinations(aliases, size):
            full = frozenset(members)
            entry = None
            for mask in range((1 << (len(members) - 1)) - 1):
                left = frozenset(
                    members[i + 1] for i in range(len(members) - 1) if mask >> i & 1
                ) | {members[0]}
                right = full - left
                if left not in best or right not in best:
                    continue
                conditions = toolkit.conditions_across(left, right)
                if not conditions:
                    continue
                node = toolkit.make_join(best[left][1], best[right][1], conditions)
                cost = cost_fn(node)
                if entry is None or cost < entry[0]:
                    entry = (cost, node)
            if entry is not None:
                best[full] = entry
    return best[frozenset(aliases)][1]


def plan_fingerprint(plan, session, query, statistics=None):
    """Shape, recorded estimates and both costs under a fresh estimator."""
    fresh = PlannerToolkit(query, session, statistics).estimator
    return (
        plan.describe(),
        [(n.estimated_rows, n.decided_build_bytes) for n in plan.join_nodes()],
        fresh.cout_cost(plan),
        fresh.plan_cost(plan),
    )


def bench_universe(label):
    from repro.bench.runner import workbench_for_query

    bench = workbench_for_query(label, 10)
    return bench.session, bench.query(label)


UNIVERSES = ("star", "Q8", "J3")


def universe(name, star_session):
    if name == "star":
        return star_session, star_query()
    return bench_universe(name)


class TestEstimateMemo:
    @pytest.mark.parametrize("movement_aware", (False, True))
    @pytest.mark.parametrize("name", UNIVERSES)
    def test_matches_memo_free_search(self, session, name, movement_aware):
        session, query = universe(name, session)
        plan = best_bushy_plan(PlannerToolkit(query, session), movement_aware)
        expected = reference_bushy_plan(PlannerToolkit(query, session), movement_aware)
        assert plan_fingerprint(plan, session, query) == plan_fingerprint(
            expected, session, query
        )

    def test_memo_dies_with_the_call(self, session):
        toolkit = PlannerToolkit(star_query(), session)
        best_bushy_plan(toolkit)
        assert toolkit.estimator._memo is None

    def test_memo_dies_when_the_search_fails(self, session):
        from repro.lang.ast import Query, TableRef

        query = Query(
            select=("da.a_id",), tables=(TableRef("da", "da"), TableRef("db", "db"))
        )
        toolkit = PlannerToolkit(query, session)
        with pytest.raises(OptimizationError):
            best_bushy_plan(toolkit)
        assert toolkit.estimator._memo is None

    @pytest.mark.parametrize("name", UNIVERSES)
    def test_second_call_sees_a_new_catalog_entry(self, session, name):
        """Planners re-register an alias's entry between searches on one
        toolkit; the next search must not reuse estimates from the last."""
        from dataclasses import replace

        session, query = universe(name, session)
        working = session.statistics.copy()
        toolkit = PlannerToolkit(query, session, working)
        first = plan_fingerprint(best_bushy_plan(toolkit), session, query, working)
        for alias in sorted(query.aliases)[:2]:
            entry_name = toolkit.estimator.alias_datasets[alias]
            entry = working.get(entry_name)
            working.register(replace(entry, row_count=entry.row_count * 40))
        second = best_bushy_plan(toolkit)
        expected = reference_bushy_plan(PlannerToolkit(query, session, working))
        assert plan_fingerprint(second, session, query, working) == plan_fingerprint(
            expected, session, query, working
        )
        assert plan_fingerprint(second, session, query, working)[1] != first[1]

    @pytest.mark.parametrize("name", UNIVERSES)
    def test_one_evaluation_per_distinct_node(self, session, name, monkeypatch):
        from repro.algebra.estimation import PlanEstimator

        session, query = universe(name, session)
        evaluations = []
        evaluate = PlanEstimator._evaluate

        def counting(self, node):
            evaluations.append(node)
            return evaluate(self, node)

        monkeypatch.setattr(PlanEstimator, "_evaluate", counting)

        def distinct_nodes_built(search, toolkit):
            built = set()
            make_join, leaf = toolkit.make_join, toolkit.leaf

            def record_join(left, right, conditions, **options):
                node = make_join(left, right, conditions, **options)
                built.add((id(node.build), id(node.probe), node.build_keys))
                return node

            def record_leaf(alias):
                node = leaf(alias)
                built.add(id(node))
                return node

            monkeypatch.setattr(toolkit, "make_join", record_join)
            monkeypatch.setattr(toolkit, "leaf", record_leaf)
            evaluations.clear()
            search(toolkit)
            return len(built), len(evaluations)

        built, memoized = distinct_nodes_built(
            best_bushy_plan, PlannerToolkit(query, session)
        )
        _, memo_free = distinct_nodes_built(
            reference_bushy_plan, PlannerToolkit(query, session)
        )
        assert memoized <= built
        assert memoized < memo_free
