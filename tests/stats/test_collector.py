"""Statistics collector tests."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.collector import FieldStatistics, StatisticsCollector


def rows(n=100):
    return [{"a": i % 10, "b": f"s{i % 4}", "c": None if i % 5 == 0 else i} for i in range(n)]


class TestFieldStatistics:
    def test_numeric_feeds_both_sketches(self):
        stats = FieldStatistics("a")
        for i in range(100):
            stats.observe(i % 10)
        assert abs(stats.distinct_count - 10) <= 1
        assert len(stats.quantiles) == 100

    def test_strings_skip_quantiles(self):
        stats = FieldStatistics("b")
        stats.observe("x")
        stats.observe("y")
        assert len(stats.quantiles) == 0
        assert abs(stats.distinct_count - 2) <= 0.5

    def test_nulls_counted_not_sketched(self):
        stats = FieldStatistics("c")
        stats.observe(None)
        stats.observe(1)
        assert stats.null_count == 1
        assert len(stats.quantiles) == 1

    def test_histogram_none_for_non_numeric(self):
        stats = FieldStatistics("b")
        stats.observe("x")
        assert stats.histogram() is None

    def test_histogram_for_numeric(self):
        stats = FieldStatistics("a")
        for i in range(200):
            stats.observe(i)
        histogram = stats.histogram(8)
        assert histogram is not None
        assert histogram.total == 200

    def test_merge_combines(self):
        a, b = FieldStatistics("a"), FieldStatistics("a")
        for i in range(50):
            a.observe(i)
        for i in range(50, 100):
            b.observe(i)
        b.observe(None)
        merged = a.merge(b)
        assert merged.null_count == 1
        assert abs(merged.distinct_count - 100) <= 5
        assert len(merged.quantiles) == 100

    def test_boolean_treated_numeric(self):
        stats = FieldStatistics("flag")
        stats.observe(True)
        stats.observe(False)
        assert len(stats.quantiles) == 2


class TestCollector:
    def test_row_count(self):
        collector = StatisticsCollector(["a"])
        collector.observe_rows(rows(42))
        assert collector.row_count == 42

    def test_tracked_fields_only(self):
        collector = StatisticsCollector(["a"])
        collector.observe_rows(rows())
        assert collector.tracked_field_names == ["a"]

    def test_missing_field_counts_null(self):
        collector = StatisticsCollector(["ghost"])
        collector.observe_row({"a": 1})
        assert collector.field("ghost").null_count == 1

    def test_sketch_cost_units(self):
        collector = StatisticsCollector(["a", "b"])
        collector.observe_rows(rows(10))
        assert collector.sketch_cost_units() == 20

    def test_empty_tracked_fields_cost(self):
        collector = StatisticsCollector([])
        collector.observe_rows(rows(10))
        assert collector.sketch_cost_units() == 10


#: values that compare equal across types (1, 1.0, True; 0.0, -0.0) but
#: hash apart, strings, NaN and nulls
_VALUES = st.one_of(
    st.none(),
    st.sampled_from([0, 1, 1.0, True, False, 0.0, -0.0, math.inf, math.nan]),
    st.integers(-3, 3),
    st.floats(allow_nan=False, width=16),
    st.text(max_size=2),
)
_ROWS = st.lists(
    st.dictionaries(st.sampled_from(["a", "b", "c"]), _VALUES), max_size=150
)


def _per_value(fields, rows):
    """The definition: every tracked field observes its value row by row."""
    stats = {name: FieldStatistics(name) for name in fields}
    for row in rows:
        for name in fields:
            stats[name].observe(row.get(name))
    return stats


def _assert_same(collector, fields, rows):
    expected = _per_value(fields, rows)
    assert collector.row_count == len(rows)
    for name in fields:
        got = collector.field(name)
        assert got.null_count == expected[name].null_count
        # repr tells -0.0 from 0.0 and shows NaN, where == would not
        assert repr(got.to_state()) == repr(expected[name].to_state())


class TestBatchedEquivalence:
    """The column-at-a-time paths leave the per-value ``observe`` state."""

    FIELDS = ["a", "b", "ghost"]

    @settings(deadline=None)
    @given(_ROWS)
    def test_observe_rows_list(self, data):
        collector = StatisticsCollector(self.FIELDS)
        collector.observe_rows(data)
        _assert_same(collector, self.FIELDS, data)

    @settings(deadline=None)
    @given(_ROWS)
    def test_observe_rows_generator(self, data):
        collector = StatisticsCollector(self.FIELDS)
        collector.observe_rows(row for row in data)
        _assert_same(collector, self.FIELDS, data)

    @settings(deadline=None)
    @given(_ROWS, st.integers(1, 40))
    def test_observe_columns_in_chunks(self, data, chunk):
        collector = StatisticsCollector(self.FIELDS)
        for start in range(0, len(data), chunk):
            part = data[start : start + chunk]
            # "ghost" has no column at all, so it counts every row as null
            columns = {name: [row.get(name) for row in part] for name in "abc"}
            collector.observe_columns(columns, len(part))
        _assert_same(collector, self.FIELDS, data)
