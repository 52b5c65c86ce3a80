"""Greenwald-Khanna quantile sketch tests, including the epsilon rank bound."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StatisticsError
from repro.sketches.gk import GKQuantileSketch


class TestValidation:
    def test_epsilon_bounds(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(StatisticsError):
                GKQuantileSketch(bad)

    def test_empty_quantile_raises(self):
        with pytest.raises(StatisticsError):
            GKQuantileSketch().quantile(0.5)

    def test_quantile_fraction_bounds(self):
        sketch = GKQuantileSketch()
        sketch.add(1.0)
        with pytest.raises(StatisticsError):
            sketch.quantile(1.5)

    def test_buckets_positive(self):
        sketch = GKQuantileSketch()
        sketch.add(1.0)
        with pytest.raises(StatisticsError):
            sketch.quantiles(0)

    def test_empty_min_max_raise(self):
        with pytest.raises(StatisticsError):
            GKQuantileSketch().minimum
        with pytest.raises(StatisticsError):
            GKQuantileSketch().maximum


class TestBasics:
    def test_count_tracks_inserts(self):
        sketch = GKQuantileSketch()
        sketch.extend(range(100))
        assert len(sketch) == 100

    def test_min_max_exact(self):
        sketch = GKQuantileSketch(0.05)
        values = [random.Random(1).uniform(-50, 50) for _ in range(1000)]
        sketch.extend(values)
        assert sketch.minimum == min(values)
        assert sketch.maximum == max(values)

    def test_single_value(self):
        sketch = GKQuantileSketch()
        sketch.add(7.0)
        assert sketch.quantile(0.0) == 7.0
        assert sketch.quantile(1.0) == 7.0

    def test_quantiles_are_monotone(self):
        sketch = GKQuantileSketch(0.02)
        sketch.extend(random.Random(2).gauss(0, 1) for _ in range(5000))
        borders = sketch.quantiles(16)
        assert borders == sorted(borders)
        assert borders[-1] == sketch.maximum

    def test_rank_monotone(self):
        sketch = GKQuantileSketch(0.02)
        sketch.extend(range(1000))
        assert sketch.rank(-1) == 0
        assert sketch.rank(2000) == 1000
        assert sketch.rank(100) <= sketch.rank(500)

    def test_summary_much_smaller_than_stream(self):
        sketch = GKQuantileSketch(0.01)
        sketch.extend(random.Random(3).random() for _ in range(50_000))
        assert sketch.summary_size() < 5_000


class TestAccuracy:
    def test_uniform_quantiles_within_epsilon(self):
        epsilon = 0.01
        n = 20_000
        sketch = GKQuantileSketch(epsilon)
        rng = random.Random(4)
        values = [rng.random() for _ in range(n)]
        sketch.extend(values)
        ordered = sorted(values)
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            estimate = sketch.quantile(q)
            true_rank = q * (n - 1)
            # locate estimate's true rank; must be within ~2*eps*n
            import bisect

            est_rank = bisect.bisect_left(ordered, estimate)
            assert abs(est_rank - true_rank) <= 2 * epsilon * n + 1

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1,
            max_size=400,
        )
    )
    def test_rank_error_bound_property(self, values):
        epsilon = 0.05
        sketch = GKQuantileSketch(epsilon)
        sketch.extend(values)
        ordered = sorted(values)
        n = len(values)
        for q in (0.0, 0.5, 1.0):
            estimate = sketch.quantile(q)
            import bisect

            lo = bisect.bisect_left(ordered, estimate)
            hi = bisect.bisect_right(ordered, estimate)
            target = q * (n - 1)
            slack = 2 * epsilon * n + 1
            assert lo - slack <= target <= hi + slack


class TestMerge:
    def test_merge_counts(self):
        a, b = GKQuantileSketch(0.02), GKQuantileSketch(0.02)
        a.extend(range(500))
        b.extend(range(500, 1000))
        merged = a.merge(b)
        assert len(merged) == 1000
        assert merged.minimum == 0
        assert merged.maximum == 999

    def test_merge_median_close(self):
        rng = random.Random(5)
        a, b = GKQuantileSketch(0.02), GKQuantileSketch(0.02)
        values = [rng.gauss(10, 2) for _ in range(10_000)]
        for i, value in enumerate(values):
            (a if i % 2 else b).add(value)
        merged = a.merge(b)
        true_median = sorted(values)[5000]
        assert abs(merged.quantile(0.5) - true_median) < 0.5

    def test_merge_keeps_looser_epsilon(self):
        a, b = GKQuantileSketch(0.01), GKQuantileSketch(0.05)
        a.add(1.0)
        b.add(2.0)
        assert a.merge(b).epsilon == 0.05

    def test_merge_does_not_mutate_inputs(self):
        a, b = GKQuantileSketch(), GKQuantileSketch()
        a.extend(range(10))
        b.extend(range(10))
        a.merge(b)
        assert len(a) == 10
        assert len(b) == 10


class _PerValueFlush(GKQuantileSketch):
    """Flushes by bisecting each buffered value into the summary on its own:
    the definition the batch merge in ``GKQuantileSketch._flush`` replays."""

    def _flush(self):
        if not self._buffer:
            return
        self._quantile_cache.clear()
        for value in sorted(self._buffer):
            self._insert_sorted(value)
        self._buffer.clear()
        self._compress()


EPSILONS = st.sampled_from([0.001, 0.01, 0.05, 0.1, 0.3, 0.9])

#: many duplicates, both zeros, both infinities, then arbitrary floats
_ORDERED_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0, -1.0]),
    st.integers(-4, 4).map(float),
    st.floats(allow_nan=False, width=16),
)


@st.composite
def streams(draw, max_size=300):
    """A value stream, with NaN spliced in at drawn positions half the time."""
    values = draw(st.lists(_ORDERED_VALUES, max_size=max_size))
    if draw(st.booleans()):
        for position in draw(st.lists(st.integers(0, len(values)), max_size=3)):
            values.insert(position, math.nan)
    return values


def _same_state(batch: GKQuantileSketch, reference: GKQuantileSketch) -> None:
    # repr tells -0.0 from 0.0 and shows NaN, where == would not
    assert repr(batch.to_state()) == repr(reference.to_state())


class TestBatchFlushReplay:
    """The batch flush leaves exactly the per-value insertion's summary."""

    @settings(deadline=None)
    @given(EPSILONS, streams(max_size=600))
    def test_stream(self, epsilon, values):
        batch, reference = GKQuantileSketch(epsilon), _PerValueFlush(epsilon)
        for value in values:
            batch.add(value)
            reference.add(value)
        _same_state(batch, reference)

    @settings(deadline=None)
    @given(EPSILONS, EPSILONS, streams(), streams(), streams())
    def test_more_values_after_merge(self, eps_a, eps_b, left, right, more):
        batch_a, batch_b = GKQuantileSketch(eps_a), GKQuantileSketch(eps_b)
        ref_a, ref_b = _PerValueFlush(eps_a), _PerValueFlush(eps_b)
        batch_a.extend(left)
        ref_a.extend(left)
        batch_b.extend(right)
        ref_b.extend(right)
        batch = batch_a.merge(batch_b)
        reference = ref_a.merge(ref_b)
        reference.__class__ = _PerValueFlush
        _same_state(batch, reference)
        batch.extend(more)
        reference.extend(more)
        _same_state(batch, reference)

    @settings(deadline=None)
    @given(EPSILONS, streams(), streams())
    def test_more_values_after_from_state(self, epsilon, first, more):
        original = GKQuantileSketch(epsilon)
        original.extend(first)
        state = original.to_state()
        batch = GKQuantileSketch.from_state(state)
        reference = _PerValueFlush.from_state(state)
        batch.extend(more)
        reference.extend(more)
        _same_state(batch, reference)

    @pytest.mark.parametrize(
        "entries",
        [
            [[math.nan, 1, 0], [3.0, 1, 0], [1.0, 1, 0]],
            [[2.0, 1, 0], [math.nan, 1, 0], [0.5, 1, 0], [4.0, 1, 0]],
        ],
    )
    def test_restored_nan_summary_takes_per_value_path(self, entries):
        state = {"epsilon": 0.05, "count": len(entries), "entries": entries}
        batch = GKQuantileSketch.from_state(state)
        reference = _PerValueFlush.from_state(state)
        more = [2.5, 1.5, 0.25, 3.0, -0.0, 0.0, 5.0] * 5
        batch.extend(more)
        reference.extend(more)
        _same_state(batch, reference)

    @pytest.mark.parametrize("order", [(0.0, -0.0), (-0.0, 0.0)])
    def test_sign_of_zero_kept_in_insertion_order(self, order):
        batch, reference = GKQuantileSketch(0.3), _PerValueFlush(0.3)
        values = [1.0, *order, 2.0, *order, *order]
        batch.extend(values)
        reference.extend(values)
        _same_state(batch, reference)
