"""HyperLogLog distinct-count tests, including the relative error bound."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sketches.hyperloglog as hll_module
from repro.common.errors import StatisticsError
from repro.common.rng import stable_hash
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


def _shift_loop_rank(remaining: int, precision: int) -> int:
    """The rank as a bit-by-bit shift loop: the definition ``add`` must match."""
    rank = 1
    bits = 64 - precision
    while remaining & 1 == 0 and rank <= bits:
        rank += 1
        remaining >>= 1
    return rank


def _loop_cardinality(sketch: HyperLogLog) -> float:
    """The estimate as one sequential float sum over every register."""
    m = 1 << sketch.precision
    inverse_sum = 0.0
    zeros = 0
    for register in sketch._registers:
        inverse_sum += 2.0 ** (-register)
        if register == 0:
            zeros += 1
    estimate = hll_module._alpha(m) * m * m / inverse_sum
    if estimate <= 2.5 * m and zeros:
        estimate = m * math.log(m / zeros)
    return estimate


class TestRank:
    """``add`` computes the rank with ``r & -r`` instead of a shift loop."""

    @pytest.mark.parametrize("precision", range(4, 19))
    def test_every_bit_position_and_zero(self, precision, monkeypatch):
        # A hash that is the value itself lets the test pick the rank bits.
        monkeypatch.setattr(hll_module, "stable_hash", lambda value: value)
        bits = 64 - precision
        index = 5
        for remaining in [0] + [1 << k for k in range(bits)] + [(1 << bits) - 1]:
            sketch = HyperLogLog(precision)
            sketch.add((remaining << precision) | index)
            expected = _shift_loop_rank(remaining, precision)
            assert sketch._registers[index] == expected

    @settings(deadline=None)
    @given(st.integers(4, 18), st.lists(st.integers(), max_size=50))
    def test_hashed_values_match_shift_loop(self, precision, values):
        sketch = HyperLogLog(precision)
        expected = bytearray(1 << precision)
        for value in values:
            sketch.add(value)
            h = stable_hash(value)
            index = h & ((1 << precision) - 1)
            rank = _shift_loop_rank(h >> precision, precision)
            expected[index] = max(expected[index], rank)
        assert sketch._registers == expected


#: values that compare equal across types but hash apart, plus repeats
_MIXED_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, True, False, float("inf"), float("nan")]),
    st.floats(allow_nan=False, width=16),
    st.text(max_size=2),
    st.tuples(st.integers(0, 2)),
)


class TestExtend:
    @settings(deadline=None)
    @given(st.integers(4, 18), st.lists(_MIXED_VALUES, max_size=200))
    def test_extend_equals_add_loop(self, precision, values):
        looped = HyperLogLog(precision)
        for value in values:
            looped.add(value)
        extended = HyperLogLog(precision)
        extended.extend(values)
        assert extended._registers == looped._registers
        assert len(extended) == len(looped) == len(values)
        assert extended.cardinality() == looped.cardinality()

    def test_extend_accepts_a_generator(self):
        extended = HyperLogLog(10)
        extended.extend(i % 7 for i in range(100))
        looped = HyperLogLog(10)
        for i in range(100):
            looped.add(i % 7)
        assert extended._registers == looped._registers
        assert len(extended) == 100

    def test_repeats_of_exact_ints_and_strs_hash_once(self):
        sketch = HyperLogLog(10)
        seen = []
        sketch.add = lambda value: (seen.append(value), HyperLogLog.add(sketch, value))
        sketch.extend([3, "x", 3, 3, "x", 4])
        assert seen == [3, "x", 4]
        assert len(sketch) == 6

    def test_equal_values_of_other_types_are_never_merged(self):
        sketch = HyperLogLog(10)
        seen = []
        sketch.add = lambda value: (seen.append(value), HyperLogLog.add(sketch, value))
        values = [1, 1.0, True, 0.0, -0.0, 1, 1.0, True, -0.0]
        sketch.extend(values)
        typed = [(type(v), repr(v)) for v in seen]
        # the int 1 is hashed once; every float and bool on every occurrence
        assert typed.count((int, "1")) == 1
        assert typed.count((float, "1.0")) == 2
        assert typed.count((bool, "True")) == 2
        assert typed.count((float, "0.0")) == 1
        assert typed.count((float, "-0.0")) == 2
        assert len(sketch) == len(values)


@st.composite
def register_arrays(draw):
    """A sketch whose registers span 0 up to ``max_rank`` at any precision,
    weighted towards the exact-sum bound ``top + p <= 52`` on both sides."""
    precision = draw(st.integers(4, 18))
    m = 1 << precision
    top = draw(st.sampled_from(
        sorted({0, 1, 20, max_rank(precision)}
               | {bound - precision for bound in (51, 52, 53, 54, 56, 58)})
    ))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    registers = bytearray(rng.choice((0, top, rng.randint(0, top))) for _ in range(m))
    lane = st.integers(0, m - 1)
    for index, value in draw(st.lists(st.tuples(lane, st.integers(0, top)), max_size=8)):
        registers[index] = value
    return _sketch(precision, registers, 0)


class TestCardinality:
    """The register histogram's exact sum must equal the float loop."""

    @settings(deadline=None)
    @given(register_arrays())
    def test_grouped_sum_equals_float_loop(self, sketch):
        assert repr(sketch.cardinality()) == repr(_loop_cardinality(sketch))

    @pytest.mark.parametrize("precision", range(4, 19))
    def test_maximum_rank_takes_the_loop(self, precision):
        m = 1 << precision
        top = max_rank(precision)
        assert top + precision > 52  # so this is the fallback at every p
        for registers in (
            [top] * m,
            [top * (i % 2) for i in range(m)],
            [0] * (m - 1) + [top],
            [(i % (top + 1)) for i in range(m)],
        ):
            sketch = _sketch(precision, registers, 0)
            assert repr(sketch.cardinality()) == repr(_loop_cardinality(sketch))

    @pytest.mark.parametrize("precision", range(4, 19))
    def test_filled_sketches_every_precision(self, precision):
        for n in (0, 1, 10, 1000, 20000):
            sketch = HyperLogLog(precision)
            sketch.extend(range(n))
            assert repr(sketch.cardinality()) == repr(_loop_cardinality(sketch))
