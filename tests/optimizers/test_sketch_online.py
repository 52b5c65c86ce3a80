"""Sketch-online planner tests: determinism, verification, correctness."""

import pytest

from repro.bench.runner import run_query, workbench_for_query
from repro.bench.verify import verify_cell
from repro.spec import PlannerSpec
from repro.testing import evaluate_reference, rows_equal_unordered
from tests.engine.equivalence import run_fingerprint
from repro.engine.vector import ENGINE_ROWWISE


class TestByteDeterminism:
    """Repeated runs must be byte-identical on every observable facet —
    rows, metrics (repr-exact floats), plan, phases, trace and timeline."""

    @pytest.mark.parametrize("label", ("J2", "Q9"))
    def test_repeated_runs_identical(self, label):
        first = run_fingerprint(label, "sketch_online", ENGINE_ROWWISE)
        second = run_fingerprint(label, "sketch_online", ENGINE_ROWWISE)
        assert first == second


class TestVerifierClean:
    @pytest.mark.parametrize("label", ("J1", "J2", "J3"))
    def test_job_suite_zero_diagnostics(self, label):
        row = verify_cell(label, 10, "sketch_online")
        assert row.clean
        assert row.jobs_verified >= 1


class TestCorrectness:
    def test_j2_matches_reference(self):
        bench = workbench_for_query("J2", 10)
        query = bench.query("J2")
        result = run_query("J2", 10, "sketch_online")
        assert rows_equal_unordered(
            result.rows, evaluate_reference(query, bench.session)
        )

    def test_adversarial_j2_matches_dynamic(self):
        sketch = run_query("J2", 10, "sketch_online", skew=1.1, correlation=0.9)
        dynamic = run_query("J2", 10, "dynamic", skew=1.1, correlation=0.9)
        assert rows_equal_unordered(sketch.rows, dynamic.rows)


class TestExecutionShape:
    def test_one_sketch_pass_per_table_then_final(self):
        result = run_query("J2", 10, "sketch_online")
        assert result.phases[-1] == "final"
        sketch_phases = [p for p in result.phases if p.startswith("sketch:")]
        assert len(sketch_phases) == 5  # one per FROM entry of J2
        assert len(result.phases) == 6

    def test_sketch_passes_are_charged(self):
        """The pre-filtering scans cost simulated time (scan + sketch
        maintenance) even though they materialize nothing."""
        result = run_query("J2", 10, "sketch_online")
        assert result.metrics.stats > 0
        assert result.metrics.scan > 0
        assert result.metrics.jobs == 6

    def test_estimates_recorded(self):
        """The final job carries estimate records, so the Q-error report
        can tabulate the strategy."""
        from repro.obs.report import qerror_stats

        result = run_query("J2", 10, "sketch_online")
        assert qerror_stats(result.trace)["records"] >= 1

    def test_plannerspec_accepts_inl(self):
        spec = PlannerSpec.of("sketch_online", inl_enabled=True)
        assert spec.make().inl_enabled is True


class TestSketchPassMergeSemantics:
    """What merging per-partition sketches yields, pinned per sketch kind."""

    @pytest.fixture(scope="class")
    def sketched(self):
        from repro.lang.ast import EvaluationContext
        from repro.optimizers.sketch_online import SketchOnlineOptimizer
        from tests.conftest import build_star_session, star_query

        session = build_star_session()
        query = star_query()
        context = EvaluationContext(query.parameters, session.udfs)
        optimizer = SketchOnlineOptimizer()
        passes = {}
        for alias in ("fact", "db", "dc"):
            entry, _ = optimizer._sketch_pass(query, alias, session, context)
            passes[alias] = entry
        return session, query, context, passes

    @staticmethod
    def qualified_partitions(session, query, context, alias):
        """The values of each partition's rows that pass the alias's predicates."""
        dataset = session.datasets.get(query.table(alias).dataset)
        predicates = query.predicates_for(alias)
        for partition in dataset.partitions:
            kept = []
            for row in partition:
                qualified = {f"{alias}.{key}": value for key, value in row.items()}
                if all(p.evaluate(qualified, context) for p in predicates):
                    kept.append(row)
            yield kept

    @pytest.mark.parametrize("alias", ("fact", "db", "dc"))
    def test_hll_equals_single_pass(self, sketched, alias):
        from repro.sketches.hyperloglog import HyperLogLog

        session, query, context, passes = sketched
        entry = passes[alias]
        partitions = list(self.qualified_partitions(session, query, context, alias))
        assert len(partitions) > 1
        for name, stats in entry.fields.items():
            single = HyperLogLog()
            for rows in partitions:
                single.extend(row[name] for row in rows if row[name] is not None)
            assert stats.distinct.to_state() == single.to_state()

    @pytest.mark.parametrize("alias", ("fact", "db", "dc"))
    def test_gk_is_left_fold_in_partition_order(self, sketched, alias):
        from repro.sketches.gk import GKQuantileSketch

        session, query, context, passes = sketched
        entry = passes[alias]
        partitions = list(self.qualified_partitions(session, query, context, alias))
        for name, stats in entry.fields.items():
            folded = GKQuantileSketch()
            for rows in partitions:
                part = GKQuantileSketch()
                for row in rows:
                    if row[name] is not None:
                        part.add(float(row[name]))
                folded = folded.merge(part)
            assert stats.quantiles.to_state() == folded.to_state()

    def test_gk_is_not_a_single_pass(self, sketched):
        """Merged GK summaries are not what one pass over the rows builds."""
        from repro.sketches.gk import GKQuantileSketch

        session, query, context, passes = sketched
        partitions = list(self.qualified_partitions(session, query, context, "fact"))
        differing = []
        for name, stats in passes["fact"].fields.items():
            single = GKQuantileSketch()
            for rows in partitions:
                for row in rows:
                    single.add(float(row[name]))
            if stats.quantiles.to_state() != single.to_state():
                differing.append(name)
        assert differing
