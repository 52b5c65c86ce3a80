"""Greenwald-Khanna epsilon-approximate quantile sketch.

The paper (Section 4) collects quantile sketches following the
Greenwald-Khanna algorithm [Wang et al., SIGMOD 2013 study] to extract the
right borders of equi-height histogram buckets. This module implements the
classic GK summary: a sorted list of tuples ``(value, g, delta)`` where the
rank of ``value`` is known to within ``epsilon * n``.

The sketch supports streaming insertion, merging (needed because statistics
are collected per partition and merged at the re-optimization point), rank and
quantile queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, eq

from repro.common.errors import StatisticsError


@dataclass
class _Entry:
    """One GK summary tuple.

    ``g`` is the gap between this entry's minimum rank and the previous
    entry's, ``delta`` the uncertainty in the entry's rank.
    """

    value: float
    g: int
    delta: int


_value = attrgetter("value")


def _has_nan(values: list[float]) -> bool:
    """Whether any value is unequal to itself (NaN)."""
    return not all(map(eq, values, values))


class GKQuantileSketch:
    """Streaming epsilon-approximate quantiles (Greenwald-Khanna 2001).

    Parameters
    ----------
    epsilon:
        Maximum rank error as a fraction of the stream length. Rank queries
        are accurate to ``epsilon * n`` and quantile queries to the matching
        value error.
    """

    def __init__(self, epsilon: float = 0.01) -> None:
        if not 0 < epsilon < 1:
            raise StatisticsError(f"epsilon must be in (0, 1), got {epsilon}")
        self.epsilon = epsilon
        self._entries: list[_Entry] = []
        self._count = 0
        self._buffer: list[float] = []
        # Buffering amortizes insertion cost: we sort and bulk-insert.
        self._buffer_cap = max(16, int(1.0 / epsilon))
        # Memoized quantile() answers; invalidated on every summary change.
        self._quantile_cache: dict[float, float] = {}
        # Set once a NaN may have reached the summary; see _flush.
        self._may_hold_nan = False

    def __len__(self) -> int:
        return self._count + len(self._buffer)

    @property
    def count(self) -> int:
        return len(self)

    def add(self, value: float) -> None:
        """Insert one value into the sketch."""
        self._buffer.append(value)
        if len(self._buffer) >= self._buffer_cap:
            self._flush()

    def extend(self, values) -> None:
        """Insert an iterable of values."""
        for value in values:
            self.add(value)

    def _flush(self) -> None:
        if not self._buffer:
            return
        self._quantile_cache.clear()
        batch = sorted(self._buffer)
        self._buffer.clear()
        if self._may_hold_nan or _has_nan(batch):
            # NaN is unordered, so the summary is no longer sorted and only
            # the per-value bisection defines where later values land.
            self._may_hold_nan = True
            for value in batch:
                self._insert_sorted(value)
        else:
            self._insert_batch(batch)
        self._compress()

    def _insert_batch(self, batch: list[float]) -> None:
        """Insert a sorted, NaN-free batch in one merge, leaving exactly the
        summary that :meth:`_insert_sorted` leaves one value at a time.

        Value ``i`` of the batch is inserted at count ``start + i + 1``, at
        the bisect-left position among the old entries and the batch values
        before it. So every value lands ahead of all entries equal to it:
        equal values end up newest first, ahead of older entries, which a
        stable sort of the reversed batch followed by the old entries
        reproduces. The delta is ``threshold - 1`` at that count, or 0 where
        the value is a new minimum (nothing before it is smaller) or a new
        maximum (everything before it is smaller).
        """
        entries = self._entries
        start = self._count
        two_eps = 2 * self.epsilon
        deltas = [
            max(1, int(two_eps * count)) - 1
            for count in range(start + 1, start + len(batch) + 1)
        ]
        first = batch[0]
        for i, value in enumerate(batch):
            if (i and first < value) or (entries and entries[0].value < value):
                break
            deltas[i] = 0
        for i in range(len(batch) - 1, -1, -1):
            value = batch[i]
            if entries and not entries[-1].value < value:
                break
            if i == 0 or batch[i - 1] < value:
                deltas[i] = 0
        fresh = [
            _Entry(value, 1, delta) for value, delta in zip(batch, deltas, strict=True)
        ]
        fresh.reverse()
        self._entries = sorted(fresh + entries, key=_value)
        self._count = start + len(batch)

    def _insert_sorted(self, value: float) -> None:
        entries = self._entries
        self._count += 1
        threshold = self._threshold()
        # Find the first entry with a larger value.
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if entries[mid].value < value:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0 or lo == len(entries):
            # New minimum or maximum is always exact.
            entries.insert(lo, _Entry(value, 1, 0))
        else:
            delta = max(0, threshold - 1)
            entries.insert(lo, _Entry(value, 1, delta))

    def _threshold(self) -> int:
        return max(1, int(2 * self.epsilon * self._count))

    def _compress(self) -> None:
        entries = self._entries
        if len(entries) < 3:
            return
        threshold = self._threshold()
        out = [entries[0]]
        # Merge adjacent entries while the combined band stays within budget.
        for entry in entries[1:-1]:
            last = out[-1]
            if last is not entries[0] and last.g + entry.g + entry.delta <= threshold:
                entry.g += last.g
                out[-1] = entry
            else:
                out.append(entry)
        out.append(entries[-1])
        self._entries = out

    def rank(self, value: float) -> int:
        """Approximate number of inserted values ``<= value``."""
        self._flush()
        if self._count == 0:
            return 0
        rmin = 0
        for entry in self._entries:
            if entry.value > value:
                return rmin
            rmin += entry.g
        return self._count

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (``0 <= q <= 1``) of the stream."""
        if not 0 <= q <= 1:
            raise StatisticsError(f"quantile fraction must be in [0, 1], got {q}")
        self._flush()
        if self._count == 0:
            raise StatisticsError("cannot query quantiles of an empty sketch")
        cached = self._quantile_cache.get(q)
        if cached is not None:
            return cached
        target = q * (self._count - 1) + 1
        budget = self._threshold() / 2 + 1
        rmin = 0
        result = self._entries[-1].value
        for i, entry in enumerate(self._entries):
            rmin += entry.g
            rmax = rmin + entry.delta
            if target <= rmax + budget or i == len(self._entries) - 1:
                if rmin + budget >= target:
                    result = entry.value
                    break
        self._quantile_cache[q] = result
        return result

    def quantiles(self, buckets: int) -> list[float]:
        """Right borders of ``buckets`` equi-height buckets (Section 4).

        Returns ``buckets`` values; the last is the stream maximum.
        """
        if buckets < 1:
            raise StatisticsError("bucket count must be >= 1")
        return [self.quantile((i + 1) / buckets) for i in range(buckets)]

    @property
    def minimum(self) -> float:
        self._flush()
        if self._count == 0:
            raise StatisticsError("empty sketch has no minimum")
        return self._entries[0].value

    @property
    def maximum(self) -> float:
        self._flush()
        if self._count == 0:
            raise StatisticsError("empty sketch has no maximum")
        return self._entries[-1].value

    def merge(self, other: GKQuantileSketch) -> GKQuantileSketch:
        """Merge two sketches into a new one.

        The merged sketch honours ``max(self.epsilon, other.epsilon)``; per
        the standard GK merge, summaries are interleaved by value and
        recompressed.
        """
        self._flush()
        other._flush()
        merged = GKQuantileSketch(max(self.epsilon, other.epsilon))
        entries = sorted(
            (_Entry(e.value, e.g, e.delta) for e in self._entries + other._entries),
            key=lambda e: e.value,
        )
        merged._entries = entries
        merged._count = self._count + other._count
        merged._may_hold_nan = self._may_hold_nan or other._may_hold_nan
        merged._compress()
        return merged

    def summary_size(self) -> int:
        """Number of retained summary entries (space bound check)."""
        self._flush()
        return len(self._entries)

    # -- persistence ----------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable snapshot of the sketch.

        The buffer is flushed first, so the state is exactly the compressed
        summary — a sketch restored with :meth:`from_state` answers every
        rank/quantile query identically to the original (both operate on the
        same flushed entries).
        """
        self._flush()
        return {
            "epsilon": self.epsilon,
            "count": self._count,
            "entries": [[e.value, e.g, e.delta] for e in self._entries],
        }

    @classmethod
    def from_state(cls, state: dict) -> GKQuantileSketch:
        """Rebuild a sketch from :meth:`to_state` output."""
        sketch = cls(state["epsilon"])
        sketch._count = int(state["count"])
        sketch._entries = [
            _Entry(value, int(g), int(delta)) for value, g, delta in state["entries"]
        ]
        sketch._may_hold_nan = _has_nan([e.value for e in sketch._entries])
        return sketch
