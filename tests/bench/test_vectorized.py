"""Host-speed regression guard for the vectorized engine.

The vectorized engine exists to buy host time (DESIGN.md §10) — simulated
results are byte-identical to row-wise by construction, so wall-clock is the
only axis a regression can hide on. This test pins a generous ceiling on the
throughput smoke bench and checks that the measured host time can be
recorded as a report line. The line goes to a temporary file made by pytest,
so a test run never modifies a file in the source tree.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

import pytest

from repro.bench.throughput import run_throughput

#: Generous wall-clock ceiling: the smoke batch finishes in well under a
#: second on any development machine; the ceiling only trips on an
#: order-of-magnitude hot-path regression (e.g. the fused kernel silently
#: falling back to per-row dict work), not on CI jitter.
CEILING_SECONDS = 120.0


def _record(path: Path, line: str) -> None:
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """Run the smoke bench once and record its host time in a temp report."""
    started = perf_counter()
    report = run_throughput(scale_factor=10, query_count=2, engine="vectorized")
    elapsed = perf_counter() - started
    report_path = tmp_path_factory.mktemp("bench") / "bench_report.txt"
    _record(
        report_path,
        "throughput smoke (SF 10, 2 queries, vectorized engine): "
        f"{report.host_seconds:.3f}s engine host time, "
        f"{elapsed:.3f}s including ingestion",
    )
    return report, elapsed, report_path


class TestVectorizedHostSpeed:
    def test_smoke_bench_completes_under_ceiling(self, smoke_run):
        report, elapsed, _ = smoke_run
        assert report.engine == "vectorized"
        # host_seconds excludes workbench ingestion; the outer clock bounds
        # the whole call so ingestion regressions are caught too.
        assert 0.0 < report.host_seconds <= elapsed
        assert elapsed < CEILING_SECONDS

    def test_host_time_recorded(self, smoke_run):
        _, _, report_path = smoke_run
        assert report_path.exists()
        lines = report_path.read_text(encoding="utf-8").splitlines()
        assert any("vectorized engine" in line for line in lines)
