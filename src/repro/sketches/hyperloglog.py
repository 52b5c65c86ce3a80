"""HyperLogLog distinct-count sketch.

Formula (1) in the paper divides by ``max(U(A.k), U(B.k))``, the number of
unique join-key values, estimated with HyperLogLog [Flajolet et al. 2007].
This implementation uses 2**p registers with the standard bias correction and
linear counting for the small-cardinality range, plus lossless merge (needed
to combine per-partition sketches).
"""

from __future__ import annotations

import math
from functools import cache

from repro.common.errors import StatisticsError
from repro.common.rng import stable_hash


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)


def max_rank(precision: int) -> int:
    """Largest register value :meth:`HyperLogLog.add` can store: the rank of
    the first set bit among the ``64 - precision`` hash bits left after the
    index, or one past them when all are zero."""
    return 64 - precision + 1


#: Types whose equal values always hash alike, so ``extend`` may skip repeats.
_DEDUP_TYPES = frozenset({int, str})


@cache
def _lane_high_bits(m: int) -> int:
    """``0x80`` in every byte lane of an ``m``-byte integer."""
    return int.from_bytes(b"\x80" * m, "little")


class HyperLogLog:
    """HyperLogLog cardinality estimator.

    Parameters
    ----------
    precision:
        Number of index bits ``p``; the sketch keeps ``2**p`` registers and
        has a relative standard error of about ``1.04 / sqrt(2**p)``.
    """

    def __init__(self, precision: int = 12) -> None:
        if not 4 <= precision <= 18:
            raise StatisticsError(f"precision must be in [4, 18], got {precision}")
        self.precision = precision
        self._m = 1 << precision
        self._registers = bytearray(self._m)
        self._count = 0  # raw insertions, handy for tests/diagnostics
        # Memoized cardinality(); invalidated whenever a register changes.
        self._cardinality_cache: float | None = None

    def add(self, value: object) -> None:
        """Insert one value (any hashable/reprable object)."""
        h = stable_hash(value)
        index = h & (self._m - 1)
        remaining = h >> self.precision
        # Rank of the first set bit in the remaining 64-p bits (1-based):
        # ``r & -r`` isolates the lowest set bit. All-zero bits rank one
        # past them.
        if remaining:
            rank = (remaining & -remaining).bit_length()
        else:
            rank = max_rank(self.precision)
        if rank > self._registers[index]:
            self._registers[index] = rank
            self._cardinality_cache = None
        self._count += 1

    def extend(self, values) -> None:
        """Insert every value of an iterable.

        A register keeps the maximum rank it has seen, so inserting a value
        again never changes it: each distinct value is hashed once, and
        ``len()`` still counts every insertion. Only values of exactly type
        ``int`` or ``str`` are deduplicated. Other values can compare equal
        while hashing apart (``1``, ``1.0`` and ``True``; ``0.0`` and
        ``-0.0``), so each of them is inserted as it comes.
        """
        values = values if isinstance(values, list) else list(values)
        if set(map(type, values)) <= _DEDUP_TYPES:
            once, rest = dict.fromkeys(values), ()
        else:
            once = dict.fromkeys(v for v in values if type(v) in _DEDUP_TYPES)
            rest = [v for v in values if type(v) not in _DEDUP_TYPES]
        add = self.add
        for value in once:
            add(value)
        for value in rest:
            add(value)
        self._count += len(values) - len(once) - len(rest)

    def cardinality(self) -> float:
        """Estimated number of distinct inserted values.

        The register scan is the expensive part (``2**p`` registers), so the
        estimate is memoized until the next register update — the planner
        re-reads the same frozen sketches at every re-optimization point.
        """
        if self._cardinality_cache is not None:
            return self._cardinality_cache
        m = self._m
        registers = self._registers
        # histogram[r] = number of registers holding r, up to the largest.
        histogram: list[int] = []
        counted = 0
        while counted < m:
            count = registers.count(len(histogram))
            histogram.append(count)
            counted += count
        top = len(histogram) - 1
        zeros = histogram[0]
        if top + self.precision <= 52:
            # Every partial sum of the 2.0 ** -register terms is k * 2**-top
            # with k <= m * 2**top <= 2**52, so it is a float exactly: the
            # sequential float sum of the fallback below is exact, and so
            # equals this integer sum scaled back down.
            scaled = sum(count << (top - r) for r, count in enumerate(histogram))
            inverse_sum = scaled / (1 << top)
        else:
            inverse_sum = 0.0
            for register in registers:
                inverse_sum += 2.0 ** (-register)
        estimate = _alpha(m) * m * m / inverse_sum
        if estimate <= 2.5 * m and zeros:
            # Linear counting regime.
            estimate = m * math.log(m / zeros)
        self._cardinality_cache = estimate
        return estimate

    def merge(self, other: HyperLogLog) -> HyperLogLog:
        """Return a new sketch equivalent to observing both streams."""
        if self.precision != other.precision:
            raise StatisticsError(
                f"cannot merge HLLs of different precision "
                f"({self.precision} vs {other.precision})"
            )
        # Register-wise max as byte-lane (SWAR) arithmetic on two big ints,
        # the same idiom BloomFilter uses for its bit array. Registers never
        # exceed max_rank(precision) < 0x80, so setting each lane's high bit
        # before subtracting can never borrow across lanes: a lane's high bit
        # survives exactly when a >= b, and the mask widens it to 0xFF.
        m = self._m
        high = _lane_high_bits(m)
        a = int.from_bytes(self._registers, "little")
        b = int.from_bytes(other._registers, "little")
        ge = ((a | high) - b) & high
        mask = (ge - (ge >> 7)) | ge
        merged = HyperLogLog(self.precision)
        merged._registers = bytearray(
            ((a & mask) | (b & ~mask)).to_bytes(m, "little")
        )
        merged._count = self._count + other._count
        return merged

    @property
    def relative_error(self) -> float:
        """Expected relative standard error for this precision."""
        return 1.04 / math.sqrt(self._m)

    def __len__(self) -> int:
        return self._count

    # -- persistence ----------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable snapshot (registers hex-packed for compactness)."""
        return {
            "precision": self.precision,
            "count": self._count,
            "registers": bytes(self._registers).hex(),
        }

    @classmethod
    def from_state(cls, state: dict) -> HyperLogLog:
        """Rebuild a sketch from :meth:`to_state` output.

        The restored sketch's :meth:`cardinality` is identical to the
        original's — the estimate is a pure function of the registers.
        """
        sketch = cls(int(state["precision"]))
        registers = bytearray.fromhex(state["registers"])
        if len(registers) != sketch._m:
            raise StatisticsError(
                f"corrupt HLL state: {len(registers)} registers for "
                f"precision {sketch.precision}"
            )
        # merge's byte-lane max relies on every register staying below 0x80.
        largest = max(registers)
        if largest > max_rank(sketch.precision):
            raise StatisticsError(
                f"corrupt HLL state: register value {largest} exceeds "
                f"{max_rank(sketch.precision)} for precision {sketch.precision}"
            )
        sketch._registers = registers
        sketch._count = int(state["count"])
        return sketch
