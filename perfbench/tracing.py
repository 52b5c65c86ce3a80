"""Per-layer tracing for the traced benchmark run, applied from outside ``src/``.

The program is left untouched: :class:`LayerTracer` swaps public functions and
methods for thin wrappers while it is installed, and restores the originals
when it is removed.

* Methods are patched on their class (class and static methods keep their
  kind).
* Module-level functions are patched in every loaded ``repro`` module that
  holds them under any name. A module that imported a function by name
  keeps its own reference, so patching only the defining module would miss
  those call sites.
* Timed targets open a span ``(name, start, end, parent, scope)``. Spans are
  kept in memory and written out at the end. A layer's self time is the
  total of its spans' durations minus the durations of their direct child
  spans.
* Per-value targets (``stable_hash``, sketch ``add``, ``PlanEstimator.
  estimate``, ``BloomFilter.might_contain``) are only counted. A clock read
  per call would cost more than the call.

Every target records how often it fired, so :meth:`LayerTracer.missed` can
fail the run when a patch missed its target on a workload that is predicted
to exercise it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter

TIMED = "timed"
COUNTED = "counted"


@dataclass(frozen=True)
class Target:
    """One wrapped function: where it lives and how it is measured."""

    #: ``<module>.<what>`` layer name the measurements are filed under
    layer: str
    module: str
    #: ``function`` or ``Class.method``
    name: str
    mode: str
    #: workloads on which the target must fire at least once
    expected: frozenset[str]
    #: optional extra bookkeeping, see ``LayerTracer._observe``
    observe: str = ""

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


PAPER = "paper-sf1000"
SWEEP = "sweep-sf100"
SERVICE = "service-rw"
_ALL = frozenset({PAPER, SWEEP, SERVICE})
_SESSION = frozenset({PAPER, SWEEP})


def _t(layer, module, name, mode, expected, observe=""):
    return Target(layer, module, name, mode, frozenset(expected), observe)


TARGETS: tuple[Target, ...] = (
    _t("sketches.hll_merge", "repro.sketches.hyperloglog", "HyperLogLog.merge",
       TIMED, {SWEEP}),
    _t("sketches.gk_merge", "repro.sketches.gk", "GKQuantileSketch.merge",
       TIMED, {SWEEP}),
    _t("sketches.hll_cardinality", "repro.sketches.hyperloglog",
       "HyperLogLog.cardinality", TIMED, _ALL),
    _t("sketches.add", "repro.sketches.hyperloglog", "HyperLogLog.add",
       COUNTED, _ALL),
    _t("sketches.add", "repro.sketches.gk", "GKQuantileSketch.add",
       COUNTED, _ALL),
    _t("common.stable_hash", "repro.common.rng", "stable_hash", COUNTED, _ALL),
    _t("stats.collect", "repro.stats.collector",
       "StatisticsCollector.observe_columns", TIMED, _ALL),
    _t("stats.collect", "repro.stats.collector",
       "StatisticsCollector.observe_rows", TIMED, _ALL),
    _t("optimizers.bushy_dp", "repro.optimizers.enumeration", "best_bushy_plan",
       TIMED, _SESSION),
    _t("algebra.estimate", "repro.algebra.estimation", "PlanEstimator.estimate",
       COUNTED, _ALL),
    _t("core.planner", "repro.core.planner", "Planner.ranked_joins", TIMED, _ALL),
    _t("algebra.jobgen", "repro.algebra.jobgen", "compile_plan", TIMED, _ALL),
    _t("algebra.jobgen", "repro.algebra.jobgen", "build_final_job", TIMED, _ALL),
    _t("algebra.jobgen", "repro.algebra.jobgen", "build_sink_job", TIMED, _ALL),
    _t("algebra.jobgen", "repro.algebra.jobgen", "build_pushdown_job",
       TIMED, _ALL),
    _t("algebra.jobgen", "repro.algebra.jobgen", "build_transfer_job",
       TIMED, {SWEEP}),
    _t("analysis.verify", "repro.analysis.runtime", "verify_before_launch",
       TIMED, _ALL, "raises_diagnostics"),
    _t("analysis.verify", "repro.analysis.runtime", "verify_plan_before_jobgen",
       TIMED, _ALL, "raises_diagnostics"),
    _t("analysis.verify", "repro.analysis.runtime", "verify_query_completion",
       TIMED, _ALL, "returns_diagnostics"),
    _t("engine.execute", "repro.engine.executor", "Executor.execute",
       TIMED, _ALL),
    _t("engine.exchange", "repro.engine.exchange", "columnar_hash_exchange",
       TIMED, _SESSION),
    _t("engine.exchange", "repro.engine.exchange", "columnar_broadcast_exchange",
       TIMED, _ALL),
    _t("engine.hash_build", "repro.engine.vector", "build_hash_table",
       TIMED, _ALL),
    _t("engine.hash_probe", "repro.engine.vector", "probe_hash_table",
       TIMED, _ALL),
    _t("engine.bloom_build", "repro.engine.bloom", "BloomFilter.build",
       TIMED, {SWEEP}),
    _t("engine.bloom_probe", "repro.engine.bloom", "BloomFilter.might_contain",
       COUNTED, {SWEEP}, "bloom_pass"),
    _t("engine.scheduler", "repro.engine.scheduler.scheduler",
       "JobScheduler.run_all", TIMED, _ALL),
    _t("lang.parse", "repro.lang.parser", "parse_query", TIMED, {SERVICE}),
    _t("storage.ingest", "repro.storage.ingest", "load_dataset", TIMED, _ALL,
       "ingest_rows"),
    _t("workloads.generate", "repro.workloads.spec", "WorkloadSpec.load_into",
       TIMED, _SESSION),
    _t("service.cache", "repro.service.cache", "ServiceCache.lookup_result",
       TIMED, {SERVICE}),
    _t("service.cache", "repro.service.cache", "ServiceCache.store_result",
       TIMED, {SERVICE}),
    _t("service.cache", "repro.service.cache", "ServiceCache.fetch_intermediate",
       TIMED, {SERVICE}),
    _t("service.cache", "repro.service.cache", "ServiceCache.store_intermediate",
       TIMED, {SERVICE}),
    _t("service.cache", "repro.service.cache", "ServiceCache.invalidate_dataset",
       TIMED, {SERVICE}),
    _t("service.store", "repro.service.store", "ServiceStore.save",
       TIMED, {SERVICE}),
    _t("service.store", "repro.service.store", "ServiceStore.load",
       TIMED, {SERVICE}),
    _t("service.store", "repro.service.store", "ServiceStore.sketches_for",
       TIMED, {SERVICE}, "sketch_reuse"),
)


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class LayerTracer:
    """Installs the wrappers, records spans and counts, and removes them."""

    def __init__(self) -> None:
        #: finished spans: (name, start, end, parent index, scope)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        #: label of the query or round being run, stamped on every span
        self.scope = "setup"
        #: calls per target key
        self.calls: dict[str, int] = {target.key: 0 for target in TARGETS}
        #: extra counters filled by the ``observe`` hooks
        self.extra: dict[str, int] = {
            "analysis.diagnostics": 0,
            "engine.bloom_passed": 0,
            "storage.ingest_rows": 0,
            "service.sketch_reused": 0,
        }
        self._undo: list[tuple[object, str, object]] = []
        #: wrapper -> original, for module functions
        self._originals: dict[object, object] = {}

    # -- spans opened by the benchmark itself ---------------------------------

    def open_span(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter(), None, parent, self.scope))
        self._stack.append(index)
        return index

    def close_span(self, index: int) -> None:
        name, start, _, parent, scope = self.spans[index]
        self._stack.pop()
        self.spans[index] = (name, start, perf_counter(), parent, scope)

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            self._patch(target)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        # a module first imported while the tracer was installed took the
        # wrapper, not the original
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = self._originals.get(id(value))
                if original is not None and original[0] is value:
                    setattr(module, attr, original[1])
        self._originals.clear()

    def _patch(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        if "." in target.name:
            class_name, attr = target.name.split(".")
            cls = getattr(module, class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap(target, raw.__func__))
            else:
                replacement = self._wrap(target, raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, replacement)
            return
        original = getattr(module, target.name)
        wrapper = self._wrap(target, original)
        self._originals[id(wrapper)] = (wrapper, original)
        patched = 0
        for loaded in _repro_modules():
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, attr, value))
                    setattr(loaded, attr, wrapper)
                    patched += 1
        if not patched:
            raise RuntimeError(f"{target.key} was not found in any module")

    def _wrap(self, target: Target, fn):
        calls = self.calls
        key = target.key
        observe = target.observe
        if target.mode == COUNTED:
            if observe == "bloom_pass":
                extra = self.extra

                @functools.wraps(fn)
                def probe(*args, **kwargs):
                    calls[key] += 1
                    passed = fn(*args, **kwargs)
                    if passed:
                        extra["engine.bloom_passed"] += 1
                    return passed

                return probe

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        spans = self.spans
        stack = self._stack
        layer = target.layer
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            calls[key] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe == "raises_diagnostics":
                    tracer.extra["analysis.diagnostics"] += len(
                        getattr(exc, "diagnostics", ())
                    )
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, tracer.scope)
            if observe:
                tracer._observe(observe, result, args, kwargs)
            return result

        return timed

    def _observe(self, observe: str, result, args, kwargs) -> None:
        extra = self.extra
        if observe == "returns_diagnostics":
            extra["analysis.diagnostics"] += len(result or ())
        elif observe == "ingest_rows":
            rows = kwargs["rows"] if "rows" in kwargs else args[2]
            extra["storage.ingest_rows"] += len(rows)
        elif observe == "sketch_reuse" and result is not None:
            extra["service.sketch_reused"] += 1

    # -- results ----------------------------------------------------------------

    def self_times(self, scopes: set[str] | None = None) -> dict[str, float]:
        """Host self seconds per span name, optionally limited to ``scopes``."""
        child_total = [0.0] * len(self.spans)
        for span in self.spans:
            if span is None or span[2] is None:
                raise RuntimeError("a traced span was never closed")
            name, start, end, parent, _ = span
            if parent >= 0:
                child_total[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _, scope) in enumerate(self.spans):
            if scopes is not None and scope not in scopes:
                continue
            totals[name] = totals.get(name, 0.0) + (end - start) - child_total[index]
        return totals

    def layer_calls(self) -> dict[str, int]:
        """Calls per layer name (several targets may share one layer)."""
        totals: dict[str, int] = {}
        for target in TARGETS:
            totals[target.layer] = totals.get(target.layer, 0) + self.calls[target.key]
        return totals

    def missed(self, workload: str) -> list[str]:
        """Targets predicted to fire on ``workload`` that never did."""
        return [
            target.key
            for target in TARGETS
            if workload in target.expected and self.calls[target.key] == 0
        ]

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, scope."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")
