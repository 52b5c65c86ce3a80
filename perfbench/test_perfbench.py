"""Tests of the benchmark itself, on small configurations.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.service.cache import ServiceCache  # noqa: E402

from perfbench import run as bench  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.tracing import SWEEP  # noqa: E402

#: a sweep-sf100 stand-in at SF 10 that still reaches every layer the
#: sweep is predicted to exercise (sketch merges, Bloom filters, bushy DP)
SMALL_SWEEP = workloads.SessionWorkload(
    SWEEP, 10, (("Q17", "tpcds"), ("J1", "job")),
    ("dynamic", "cost_based", "sketch_online", "predicate_transfer"),
)
SMALL_SERVICE = workloads.ServiceShape(
    warmup_rounds=1, rounds=6, round_size=30, write_every=2, restart_after=3
)


def _sweep(trace: bool, recorded=None):
    return bench.execute(
        SWEEP, 7, 0.0, trace, definition=SMALL_SWEEP, recorded=recorded
    )


def _service(trace: bool):
    return bench.execute("service-rw", 7, 0.0, trace, shape=SMALL_SERVICE)


@pytest.fixture(scope="module")
def definition():
    return bench.load_definition()


@pytest.fixture(scope="module")
def sweep_runs():
    return {trace: _sweep(trace) for trace in (False, True)}


@pytest.fixture(scope="module")
def service_runs():
    return {trace: _service(trace) for trace in (False, True)}


def _assert_emitted(run, definition, trace: bool) -> None:
    line = bench.result_line(run, definition, trace)
    kind = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == [m["name"] for m in definition[kind]]
    for metric in definition[kind]:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert math.isfinite(emitted["value"])
    assert line["correct"] is True, run.failures
    assert line["failed"] == 0
    assert line["attempted"] >= 1
    json.dumps(line)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(
    definition, sweep_runs, service_runs, trace
):
    _assert_emitted(sweep_runs[trace], definition, trace)
    _assert_emitted(service_runs[trace], definition, trace)


def test_end_to_end_metrics_are_never_zero(sweep_runs, service_runs):
    for runs in (sweep_runs, service_runs):
        assert all(value > 0 for value in runs[False].end_to_end.values())


def test_traced_and_untraced_runs_agree(sweep_runs, service_runs):
    for runs in (sweep_runs, service_runs):
        untraced, traced = runs[False], runs[True]
        assert untraced.digests == traced.digests
        sim = {k: v for k, v in untraced.end_to_end.items() if k.startswith("sim_")}
        assert sim == traced.end_to_end


def test_traced_run_reaches_the_predicted_layers(sweep_runs, service_runs):
    sweep = sweep_runs[True].per_layer
    assert sweep["sketches.hll_merge_calls"] > 0
    assert sweep["engine.bloom_probe_calls"] > 0
    assert sweep["optimizers.bushy_dp_calls"] > 0
    assert sweep["analysis.diagnostics"] == 0
    service = service_runs[True].per_layer
    assert service["lang.parse_calls"] > 0
    assert service["service.invalidations"] > 0
    assert 0 < service["service.sketch_reuse_ratio"] < 1
    assert sweep["service.result_hit_ratio"] == 0


def test_simulated_breakdown_adds_up_to_the_total(service_runs):
    traced = service_runs[True]
    parts = sum(
        value for name, value in traced.per_layer.items()
        if name.startswith("cluster.sim_")
    )
    assert parts == pytest.approx(traced.end_to_end["sim_s_total"])


def test_tracer_restores_every_patched_function(monkeypatch):
    import types

    from repro.common import rng
    from repro.engine import exchange
    from repro.sketches.hyperloglog import HyperLogLog

    from perfbench.tracing import LayerTracer

    originals = (rng.stable_hash, exchange.stable_hash, HyperLogLog.__dict__["merge"])
    late = types.ModuleType("repro.imported_while_traced")
    tracer = LayerTracer()
    tracer.install()
    try:
        assert exchange.stable_hash is not originals[1]
        late.stable_hash = rng.stable_hash
        monkeypatch.setitem(sys.modules, late.__name__, late)
    finally:
        tracer.remove()
    assert (rng.stable_hash, exchange.stable_hash,
            HyperLogLog.__dict__["merge"]) == originals
    assert late.stable_hash is originals[0]


def test_gate_trips_on_a_corrupted_digest(definition, sweep_runs):
    recorded = dict(sweep_runs[False].digests)
    recorded["J1"] = "0" * 32
    run = _sweep(False, recorded=recorded)
    line = bench.result_line(run, definition, False)
    assert line["correct"] is False
    assert line["failed"] >= 1
    assert any("J1" in failure for failure in run.failures)


def test_gate_trips_on_a_stale_service_answer(monkeypatch, definition):
    # a cache that never notices re-ingests serves answers from old data
    monkeypatch.setattr(ServiceCache, "_fresh", lambda self, deps: True)
    monkeypatch.setattr(ServiceCache, "invalidate_dataset", lambda self, name: None)
    run = _service(False)
    line = bench.result_line(run, definition, False)
    assert line["correct"] is False
    assert any("stale cache hit" in failure for failure in run.failures)


def test_a_second_seed_runs():
    run = bench.execute("service-rw", 8, 0.0, False, shape=SMALL_SERVICE)
    assert not run.failures
    assert run.digests != _service(False).digests


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    definition = json.loads((tmp_path / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, *definition["command"][1:], "--workload", "service-rw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
