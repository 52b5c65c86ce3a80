"""HyperLogLog distinct-count tests, including the relative error bound."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StatisticsError
from repro.sketches.hyperloglog import HyperLogLog, max_rank


class TestValidation:
    def test_precision_bounds(self):
        for bad in (3, 19, 0):
            with pytest.raises(StatisticsError):
                HyperLogLog(bad)

    def test_merge_precision_mismatch(self):
        with pytest.raises(StatisticsError):
            HyperLogLog(10).merge(HyperLogLog(12))


class TestAccuracy:
    def test_empty_is_zero(self):
        assert HyperLogLog().cardinality() == 0.0

    def test_small_exact_via_linear_counting(self):
        hll = HyperLogLog(12)
        for i in range(50):
            hll.add(i)
        assert abs(hll.cardinality() - 50) <= 2

    def test_duplicates_ignored(self):
        hll = HyperLogLog(12)
        for _ in range(10_000):
            hll.add("same")
        assert abs(hll.cardinality() - 1) <= 0.5

    @pytest.mark.parametrize("true_count", (1000, 10_000, 100_000))
    def test_relative_error(self, true_count):
        hll = HyperLogLog(12)
        for i in range(true_count):
            hll.add(i)
        estimate = hll.cardinality()
        # expected relative std error ~1.6%; allow 5 sigma
        assert abs(estimate - true_count) / true_count < 5 * hll.relative_error

    def test_strings_and_ints_distinct_domains(self):
        hll = HyperLogLog(12)
        for i in range(500):
            hll.add(i)
            hll.add(str(i))
        assert abs(hll.cardinality() - 1000) < 100

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.integers(), min_size=0, max_size=300))
    def test_linear_regime_property(self, values):
        hll = HyperLogLog(12)
        for value in values:
            hll.add(value)
        if values:
            assert abs(hll.cardinality() - len(values)) <= max(3, 0.1 * len(values))


class TestMerge:
    def test_merge_equals_union(self):
        a, b = HyperLogLog(12), HyperLogLog(12)
        for i in range(3000):
            a.add(i)
        for i in range(1500, 4500):
            b.add(i)
        union = a.merge(b).cardinality()
        assert abs(union - 4500) / 4500 < 0.08

    def test_merge_idempotent_on_same_stream(self):
        a, b = HyperLogLog(12), HyperLogLog(12)
        for i in range(2000):
            a.add(i)
            b.add(i)
        assert abs(a.merge(b).cardinality() - a.cardinality()) < 1e-9

    def test_merge_does_not_mutate(self):
        a, b = HyperLogLog(12), HyperLogLog(12)
        a.add(1)
        b.add(2)
        a.merge(b)
        assert abs(a.cardinality() - 1) <= 0.5

    def test_len_counts_raw_insertions(self):
        hll = HyperLogLog(12)
        for _ in range(7):
            hll.add("x")
        assert len(hll) == 7


def _sketch(precision: int, registers, count: int) -> HyperLogLog:
    sketch = HyperLogLog(precision)
    sketch._registers = bytearray(registers)
    sketch._count = count
    return sketch


@st.composite
def register_pairs(draw):
    """Two same-precision sketches with arbitrary valid registers.

    A seeded fill covers every lane (zeros, the maximum rank and values in
    between); a few drawn lanes are then forced so hypothesis can shrink a
    failure to the registers that cause it.
    """
    precision = draw(st.integers(4, 18))
    m = 1 << precision
    top = max_rank(precision)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    a = bytearray(rng.choice((0, top, rng.randint(0, top))) for _ in range(m))
    b = bytearray(rng.choice((0, top, rng.randint(0, top))) for _ in range(m))
    lane = st.integers(0, m - 1)
    value = st.integers(0, top)
    for index, left, right in draw(st.lists(st.tuples(lane, value, value), max_size=8)):
        a[index], b[index] = left, right
    counts = st.integers(0, 10**9)
    return (
        _sketch(precision, a, draw(counts)),
        _sketch(precision, b, draw(counts)),
    )


class TestMergeKernel:
    """The byte-lane merge must be a register-wise max and nothing else."""

    @settings(deadline=None)
    @given(register_pairs())
    def test_merge_is_bytewise_max(self, pair):
        a, b = pair
        before = (bytes(a._registers), a._count, bytes(b._registers), b._count)
        merged = a.merge(b)
        assert merged._registers == bytearray(
            max(x, y) for x, y in zip(a._registers, b._registers, strict=True)
        )
        assert merged._count == a._count + b._count
        assert merged.precision == a.precision
        assert (bytes(a._registers), a._count, bytes(b._registers), b._count) == before

    @pytest.mark.parametrize("precision", range(4, 19))
    def test_extreme_lanes_every_precision(self, precision):
        """Alternating zero / maximum-rank lanes, both ways round."""
        m = 1 << precision
        top = max_rank(precision)
        a = _sketch(precision, (top * (i % 2) for i in range(m)), 1)
        b = _sketch(precision, (top * ((i + 1) % 2) for i in range(m)), 2)
        assert a.merge(b)._registers == bytearray([top]) * m
        assert b.merge(a)._registers == bytearray([top]) * m
        assert a.merge(a)._registers == a._registers


class TestStateValidation:
    def test_round_trip_at_maximum_rank(self):
        sketch = _sketch(12, [max_rank(12)] * (1 << 12), 5)
        restored = HyperLogLog.from_state(sketch.to_state())
        assert restored._registers == sketch._registers

    @pytest.mark.parametrize("tampered", (max_rank(12) + 1, 0x80, 0xFF))
    def test_out_of_range_register_rejected(self, tampered):
        hll = HyperLogLog(12)
        hll.extend(range(100))
        state = hll.to_state()
        raw = bytearray.fromhex(state["registers"])
        raw[17] = tampered
        state["registers"] = raw.hex()
        with pytest.raises(StatisticsError, match="exceeds"):
            HyperLogLog.from_state(state)
