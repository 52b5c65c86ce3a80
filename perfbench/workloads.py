"""The benchmark's three workloads, pinned, and the runners that drive them.

Every workload is a closed loop from one process on one thread: the next
query is sent only after the previous one (or the previous round) finished.
The program is driven only through its public API:
``get_workload(...).load_into(Session())``, ``Session.execute``,
``QueryService`` with its tenant sessions, and ``repro.lang.parse_query``.

Query labels, strategy lists, templates and scale factors are written out
here rather than read from the program's registries, so that registering a
new strategy or query later does not change what a workload measures.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import resource
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import repro.lang as lang
from repro import PlannerSpec, QueryService, Session
from repro.common.types import DataType, Schema
from repro.testing import evaluate_reference
from repro.workloads import get_workload

from perfbench.tracing import PAPER, SERVICE, SWEEP, LayerTracer

PAPER_QUERIES = (("Q17", "tpcds"), ("Q50", "tpcds"), ("Q8", "tpch"), ("Q9", "tpch"))
#: Figure 7's strategies, in the paper's presentation order
PAPER_STRATEGIES = (
    "dynamic", "cost_based", "best_order", "worst_order", "pilot_run", "ingres",
)
SWEEP_QUERIES = PAPER_QUERIES + (("J1", "job"), ("J2", "job"), ("J3", "job"))
SWEEP_STRATEGIES = (
    "dynamic", "cost_based", "from_order", "best_order", "worst_order",
    "pilot_run", "ingres", "greedy_static", "sketch_online", "predicate_transfer",
)
#: the paper's headline strategy, and the one service-rw runs
DYNAMIC = "dynamic"
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3

JOB_TIME_FIELDS = (
    "startup", "scan", "compute", "network", "materialize", "spill", "stats",
    "index", "output",
)


@dataclass(frozen=True)
class SessionWorkload:
    """Serial ``Session.execute`` over every (query, strategy) cell."""

    name: str
    scale_factor: int
    queries: tuple[tuple[str, str], ...]
    strategies: tuple[str, ...]

    @property
    def universes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(universe for _, universe in self.queries))

    @property
    def cells(self) -> list[tuple[str, str]]:
        return [(q, s) for q, _ in self.queries for s in self.strategies]


PAPER_SF1000 = SessionWorkload(PAPER, 1000, PAPER_QUERIES, PAPER_STRATEGIES)
SWEEP_SF100 = SessionWorkload(SWEEP, 100, SWEEP_QUERIES, SWEEP_STRATEGIES)


# -- outcome of one run ---------------------------------------------------------


@dataclass
class Run:
    """What one run measured, before it is formatted."""

    workload: str
    attempted: int = 0
    #: queries that raised, failed, answered wrongly or drew diagnostics
    failed: int = 0
    #: what went wrong, one line per finding
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: answer digests, keyed by query label (Session workloads) or by
    #: position in the traffic (service); equal in traced and untraced runs
    digests: dict[str, str] = field(default_factory=dict)
    #: human-readable lines printed above the result
    notes: list[str] = field(default_factory=list)
    #: the traced run's tracer, whose spans are written out at the end
    tracer: LayerTracer | None = None

    def fail(self, what: str, queries: int = 1) -> None:
        self.failed += queries
        self.failures.append(what)


def digest_rows(rows: list[dict]) -> str:
    """Order-insensitive digest of result rows."""
    lines = sorted(repr(sorted(row.items())) for row in rows)
    return hashlib.blake2b("\n".join(lines).encode(), digest_size=16).hexdigest()


def diagnostic_codes(result) -> list[str]:
    trace = result.trace
    if trace is None:
        return []
    return [code for record in trace.verifications for code in record.codes]


def nearest_rank(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(fraction * len(ordered), 9)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_breakdown(results, out: dict | None = None) -> dict[str, float]:
    """Simulated seconds per ``JobMetrics`` activity plus engine work counts.

    Adds to ``out`` when given.
    """
    if out is None:
        out = {f"cluster.sim_{name}_s": 0.0 for name in JOB_TIME_FIELDS}
        out.update({"engine.tuples_scanned": 0, "engine.tuples_joined": 0,
                    "engine.rows_materialized": 0, "obs.spans": 0})
    for result in results:
        metrics = result.metrics
        for name in JOB_TIME_FIELDS:
            out[f"cluster.sim_{name}_s"] += getattr(metrics, name)
        out["engine.tuples_scanned"] += metrics.tuples_scanned
        out["engine.tuples_joined"] += metrics.tuples_joined
        out["engine.rows_materialized"] += metrics.rows_materialized
        if result.trace is not None:
            out["obs.spans"] += len(result.trace.spans())
    return out


# -- Session workloads: paper-sf1000 and sweep-sf100 ---------------------------


@dataclass
class _Cell:
    """First observation of one (query, strategy) cell; later runs must match."""

    digest: str
    seconds: float
    latency: float


class SessionRunner:
    """Set-up, warm-up, timed passes and checks of one Session workload."""

    def __init__(self, workload: SessionWorkload, seed: int, recorded: dict | None):
        self.workload = workload
        self.seed = seed
        #: recorded digests for this seed (label -> digest), or None
        self.recorded = recorded
        self.run = Run(workload.name)
        self.session: Session | None = None
        self.queries: dict = {}
        self.cells: dict[tuple[str, str], _Cell] = {}
        #: label -> {digest: strategies that answered with it, one per query}
        self.answers: dict[str, dict[str, list[str]]] = {}
        #: set while a traced pass runs: each query becomes a root span
        self.tracer: LayerTracer | None = None

    def set_up(self) -> float:
        """Fresh session, data generation and ingest; returns host seconds."""
        self.session = None
        gc.collect()
        started = perf_counter()
        session = Session()
        queries = {}
        for universe in self.workload.universes:
            spec = get_workload(universe, self.workload.scale_factor, self.seed)
            spec.load_into(session)
            for label, owner in self.workload.queries:
                if owner == universe:
                    queries[label] = spec.query(label)
        self.session, self.queries = session, queries
        return perf_counter() - started

    def execute(self, label: str, strategy: str):
        """Run one cell; returns (host seconds, result or None)."""
        self.run.attempted += 1
        session = self.session
        tracer = self.tracer
        if tracer is not None:
            tracer.scope = f"{label}/{strategy}"
            span = tracer.open_span("bench.query")
        started = perf_counter()
        try:
            result = session.execute(self.queries[label], PlannerSpec.of(strategy))
        except Exception as exc:  # a failed query is counted, not fatal
            result = None
            error = f"{label}/{strategy}: {type(exc).__name__}: {exc}"
        finally:
            session.reset_intermediates()
        elapsed = perf_counter() - started
        if tracer is not None:
            tracer.close_span(span)
        if result is None:
            self.run.fail(error)
        else:
            self._check(label, strategy, result)
        return elapsed, result

    def _check(self, label: str, strategy: str, result) -> None:
        codes = diagnostic_codes(result)
        if codes:
            self.run.fail(f"{label}/{strategy}: verifier diagnostics {codes}")
            return
        digest = digest_rows(result.rows)
        latency = result.schedule.latency_seconds
        cell = self.cells.setdefault(
            (label, strategy), _Cell(digest, result.seconds, latency)
        )
        if (digest, result.seconds, latency) != (cell.digest, cell.seconds, cell.latency):
            self.run.fail(f"{label}/{strategy}: answer or simulated time changed on rerun")
            return
        self.answers.setdefault(label, {}).setdefault(digest, []).append(strategy)

    def timed_phase(self, seconds: float) -> dict[tuple[str, str], list[float]]:
        """Round-robin over the cells, at least one pass and ``seconds`` long.

        Returns the host seconds of every run of every cell.
        """
        cells = self.workload.cells
        times: dict[tuple[str, str], list[float]] = {cell: [] for cell in cells}
        started = perf_counter()
        done = 0
        while done < len(cells) or perf_counter() - started < seconds:
            cell = cells[done % len(cells)]
            times[cell].append(self.execute(*cell)[0])
            done += 1
        return times

    def paired_pass(self, tracer: LayerTracer):
        """One pass that runs every cell untraced and then traced.

        Pairing each cell's two runs keeps drift in the machine's speed out of
        the tracing overhead. Returns both timings and the traced results.
        """
        untraced, traced, results = {}, {}, []
        for cell in self.workload.cells:
            untraced[cell] = [self.execute(*cell)[0]]
            tracer.install()
            self.tracer = tracer
            try:
                elapsed, result = self.execute(*cell)
            finally:
                tracer.remove()
                self.tracer = None
            traced[cell] = [elapsed]
            results.append(result)
        return untraced, traced, results

    def verify_answers(self) -> None:
        """Every strategy agrees, and matches the recorded or reference digest."""
        for label, _ in self.workload.queries:
            expected = self._expected(label)
            for digest, strategies in self.answers.get(label, {}).items():
                if digest != expected:
                    self.run.fail(
                        f"{label}: {len(strategies)} answers from "
                        f"{sorted(set(strategies))} have digest {digest}, "
                        f"expected {expected}",
                        queries=len(strategies),
                    )

    def _expected(self, label: str) -> str:
        if self.recorded is not None:
            return self.recorded[label]
        return digest_rows(evaluate_reference(self.queries[label], self.session))

    def sim_metrics(self) -> tuple[dict[str, float], int]:
        """Simulated metrics of one pass, and the latency sample count."""
        first = [self.cells[cell] for cell in self.workload.cells if cell in self.cells]
        dynamic = [
            self.cells[cell] for cell in self.workload.cells
            if cell[1] == DYNAMIC and cell in self.cells
        ]
        latencies = [cell.latency for cell in first]
        return {
            "sim_s_total": sum(cell.seconds for cell in first),
            "sim_s_dynamic": sum(cell.seconds for cell in dynamic),
            "sim_latency_p50_s": nearest_rank(latencies, 0.50),
            "sim_latency_p99_s": nearest_rank(latencies, 0.99),
        }, len(latencies)


def pass_qps(times: dict) -> float:
    """Queries per host second of one pass, each cell at its median time."""
    return len(times) / sum(statistics.median(samples) for samples in times.values())


def run_session_workload(
    workload: SessionWorkload,
    seed: int,
    seconds: float,
    trace: bool,
    recorded: dict | None = None,
) -> Run:
    runner = SessionRunner(workload, seed, recorded)
    run = runner.run
    if not trace:
        setups = [runner.set_up() for _ in range(SETUPS)]
        # one untimed pass over every cell fills the session's lazy caches
        warm = sum(sum(samples) for samples in runner.timed_phase(0.0).values())
        times = runner.timed_phase(seconds)
        runner.verify_answers()
        sim, samples = runner.sim_metrics()
        run.end_to_end = {
            "host_qps": pass_qps(times),
            **sim,
            "setup_s": statistics.median(setups) + warm,
            "peak_rss_mb": peak_rss_mb(),
        }
        run.notes.append(
            f"set-up: {', '.join(f'{s:.3f}' for s in setups)} s (median taken), "
            f"then a warm pass of {warm:.3f} s; timed phase: "
            f"{sum(len(s) for s in times.values())} queries over {len(times)} cells, "
            f"at least {min(len(s) for s in times.values())} sample(s) per cell"
        )
    else:
        tracer = LayerTracer()
        tracer.install()
        span = tracer.open_span("bench.setup")
        try:
            runner.set_up()
        finally:
            tracer.close_span(span)
            tracer.remove()
        runner.timed_phase(0.0)  # warm pass: lazy caches fill before the pairs
        untraced, traced, results = runner.paired_pass(tracer)
        runner.verify_answers()
        sim, samples = runner.sim_metrics()
        run.end_to_end = sim
        done = [result for result in results if result is not None]
        run.per_layer = layer_metrics(
            tracer, workload.name, sim_breakdown(done),
            sum(r.schedule.queue_delay_seconds for r in done), len(results) - len(done),
        )
        trace_notes(run, tracer, pass_qps(untraced), pass_qps(traced))
        run.tracer = tracer
    run.notes.append(f"simulated latency percentiles over {samples} queries (one pass)")
    run.digests = {label: min(d) for label, d in sorted(runner.answers.items())}
    return run


# -- service-rw -------------------------------------------------------------------

TENANTS = tuple(f"tenant-{i}" for i in range(8))
TENANT_ZIPF = 0.6
TEMPLATE_ZIPF = 1.1
FACT_ROWS = 3000
FACT_SCALE = 10_000.0
#: dimension -> (rows, attribute modulus)
DIMENSIONS = {"a": (50, 7), "b": (40, 5), "c": (30, 3), "d": (20, 4)}
#: star-join shapes: the fact table joined with these dimensions
SHAPES = (
    ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
    ("b", "d"), ("c", "d"), ("a", "b", "c"), ("b", "c", "d"),
)
#: values bound to ``$p`` in ``f.f_val < $p``
PARAMETERS = tuple(range(5, 161, 5))
JOB_SLOTS = 2


@dataclass(frozen=True)
class ServiceShape:
    """Traffic sizes of service-rw; the benchmark's tests use a smaller one."""

    warmup_rounds: int = 2
    rounds: int = 20
    round_size: int = 50
    #: a dimension is re-ingested after every this many timed rounds; 200
    #: queries between writes carry more than 128 distinct (template,
    #: parameter) keys, so the result cache also evicts
    write_every: int = 4
    #: the service restarts after this timed round
    restart_after: int = 10


SERVICE_RW = ServiceShape()


def _template_sql(shape: tuple[str, ...], style: int, parameterized: bool) -> str:
    first = shape[0]
    columns = ["f.f_id", "f.f_val"] + [f"{d}.{d}_tag" for d in shape]
    tables = ["fact AS f"] + [f"d{d} AS {d}" for d in shape]
    where = [f"f.f_{d} = {d}.{d}_id" for d in shape]
    if style == 0:
        where += [f"{first}.{first}_attr >= 1", f"{first}.{first}_attr <= 2"]
    elif style == 1:
        where.append(f"mymod10({first}.{first}_attr) = 1")
    else:
        where.append(f"{first}.{first}_attr != 0")
    if parameterized:
        where.append("f.f_val < $p")
    return (
        f"SELECT {', '.join(columns)} FROM {', '.join(tables)} "
        f"WHERE {' AND '.join(where)}"
    )


#: (label, dimensions read, SQL with ``$p``, reference SQL without it)
TEMPLATES = tuple(
    (
        f"T{index + 1}",
        shape,
        _template_sql(shape, style, True),
        _template_sql(shape, style, False),
    )
    for index, (style, shape) in enumerate(
        (style, shape) for style in range(3) for shape in SHAPES
    )
)


def _zipf(count: int, exponent: float) -> list[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


def _fact_schema() -> Schema:
    return Schema.of(
        ("f_id", DataType.INT), ("f_a", DataType.INT), ("f_b", DataType.INT),
        ("f_c", DataType.INT), ("f_d", DataType.INT), ("f_val", DataType.INT),
        primary_key=("f_id",),
    )


def _dim_schema(d: str) -> Schema:
    return Schema.of(
        (f"{d}_id", DataType.INT), (f"{d}_attr", DataType.INT),
        (f"{d}_tag", DataType.INT), primary_key=(f"{d}_id",),
    )


def _dim_rows(d: str, version: int, seed: int) -> list[dict]:
    """Dimension content at one write version; every write changes every row."""
    size, modulus = DIMENSIONS[d]
    gen = random.Random(f"{seed}/service/dim/{d}/{version}")
    return [
        {f"{d}_id": i, f"{d}_attr": gen.randrange(modulus), f"{d}_tag": version}
        for i in range(size)
    ]


def _fact_rows(seed: int) -> list[dict]:
    gen = random.Random(f"{seed}/service/fact")
    return [
        {"f_id": i, **{f"f_{d}": gen.randrange(size) for d, (size, _) in DIMENSIONS.items()},
         "f_val": gen.randrange(1000)}
        for i in range(FACT_ROWS)
    ]


@dataclass(frozen=True)
class Submission:
    tenant: str
    template: int
    parameter: int


def traffic(seed: int, shape: ServiceShape) -> list[list[Submission]]:
    """All rounds of one pass, warm-up rounds first; tenants and templates Zipf."""
    gen = random.Random(f"{seed}/service/traffic")
    template_weights = _zipf(len(TEMPLATES), TEMPLATE_ZIPF)
    tenant_weights = _zipf(len(TENANTS), TENANT_ZIPF)
    return [
        [
            Submission(
                gen.choices(TENANTS, tenant_weights)[0],
                gen.choices(range(len(TEMPLATES)), template_weights)[0],
                gen.choice(PARAMETERS),
            )
            for _ in range(shape.round_size)
        ]
        for _ in range(shape.warmup_rounds + shape.rounds)
    ]


@dataclass
class ServicePass:
    """What one pass over the traffic observed; handles are not kept."""

    setup_s: float = 0.0
    timed_s: float = 0.0
    timed_queries: int = 0
    latencies: list[float] = field(default_factory=list)
    #: answer digests by traffic position
    digests: list[str] = field(default_factory=list)
    failed: int = 0
    queue_delay_s: float = 0.0
    breakdown: dict[str, float] = field(default_factory=lambda: sim_breakdown(()))
    cache: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("result_hits", "result_misses", "intermediate_hits",
         "intermediate_misses", "invalidations"), 0,
    ))

    def observe(self, handle) -> None:
        self.latencies.append(handle.schedule.latency_seconds)
        self.queue_delay_s += handle.schedule.queue_delay_seconds
        if handle.failed:
            self.failed += 1
        else:
            sim_breakdown((handle.result(),), self.breakdown)

    def observe_cache(self, service: QueryService) -> None:
        for name in self.cache:
            self.cache[name] += getattr(service.cache.stats, name)

    def sim_metrics(self) -> dict[str, float]:
        total = sum(self.breakdown[f"cluster.sim_{name}_s"] for name in JOB_TIME_FIELDS)
        return {
            # every submission runs the dynamic strategy; cache hits charge 0
            "sim_s_total": total,
            "sim_s_dynamic": total,
            "sim_latency_p50_s": nearest_rank(self.latencies, 0.50),
            "sim_latency_p99_s": nearest_rank(self.latencies, 0.99),
        }

    def cache_metrics(self) -> dict[str, float]:
        c = self.cache
        return {
            "service.result_hit_ratio": _ratio(
                c["result_hits"], c["result_hits"] + c["result_misses"]
            ),
            "service.intermediate_hit_ratio": _ratio(
                c["intermediate_hits"], c["intermediate_hits"] + c["intermediate_misses"]
            ),
            "service.invalidations": c["invalidations"],
        }


class ServiceRunner:
    """One pass = fresh service, warm-up rounds, then timed rounds with writes."""

    def __init__(self, seed: int, shape: ServiceShape, workdir: str):
        self.seed = seed
        self.shape = shape
        self.workdir = workdir
        self.rounds = traffic(seed, shape)
        self.fact = _fact_rows(seed)
        self.run = Run(SERVICE)
        #: (template, dimension versions) -> reference rows without ``$p``
        self._reference: dict[tuple, list[dict]] = {}
        #: digests of the first pass, by traffic position
        self.first_digests: list[str] | None = None
        #: set while a traced pass runs: each round becomes a root span
        self.tracer: LayerTracer | None = None

    def _load(self, service: QueryService, versions: dict[str, int]) -> None:
        service.load("fact", _fact_schema(), self.fact, scale=FACT_SCALE)
        for d in DIMENSIONS:
            service.load(f"d{d}", _dim_schema(d), _dim_rows(d, versions[d], self.seed))

    def one_pass(self, timed: bool = True) -> ServicePass:
        """Set up a fresh service and replay the traffic against it.

        With ``timed=False`` the pass stops after the set-up (warm-up rounds
        included). The first pass is checked against ``evaluate_reference``;
        later passes must give the first pass's answers.
        """
        check_reference = self.first_digests is None
        record = ServicePass()
        self._scope("setup")
        gc.collect()
        if self.tracer is not None:
            span = self.tracer.open_span("bench.setup")
        started = perf_counter()
        service = QueryService(job_slots=JOB_SLOTS)
        versions = dict.fromkeys(DIMENSIONS, 0)
        self._load(service, versions)
        for index in range(self.shape.warmup_rounds):
            self._round(service, index, versions, record, check_reference)
        record.setup_s = perf_counter() - started
        if self.tracer is not None:
            self.tracer.close_span(span)
        for step in range(self.shape.rounds if timed else 0):
            index = self.shape.warmup_rounds + step
            self._scope(f"round-{index}")
            record.timed_s += self._round(service, index, versions, record, check_reference)
            record.timed_queries += len(self.rounds[index])
            started = perf_counter()
            if (step + 1) % self.shape.write_every == 0 and step + 1 < self.shape.rounds:
                d = tuple(DIMENSIONS)[(step // self.shape.write_every) % len(DIMENSIONS)]
                versions[d] += 1
                service.load(f"d{d}", _dim_schema(d), _dim_rows(d, versions[d], self.seed),
                             replace=True)
            if step + 1 == self.shape.restart_after:
                record.observe_cache(service)
                service = self._restart(service, versions)
            record.timed_s += perf_counter() - started
        record.observe_cache(service)
        if check_reference:
            self.first_digests = record.digests
        else:
            differ = sum(
                1 for a, b in zip(record.digests, self.first_digests) if a != b
            )
            if differ:
                self.run.fail(f"{differ} service answers differ from the first pass",
                              queries=differ)
        return record

    def _scope(self, scope: str) -> None:
        if self.tracer is not None:
            self.tracer.scope = scope

    def _restart(self, service: QueryService, versions: dict[str, int]) -> QueryService:
        path = os.path.join(self.workdir, "store.json")
        service.save_store(path)
        fresh = QueryService(job_slots=JOB_SLOTS)
        fresh.load_store(path)
        self._load(fresh, versions)
        return fresh

    def _round(self, service, index, versions, record, check_reference) -> float:
        """Submit and drain one round; returns its host seconds (checks excluded)."""
        submissions = self.rounds[index]
        tracer = self.tracer
        if tracer is not None:
            span = tracer.open_span("bench.round")
        started = perf_counter()
        handles = []
        for sub in submissions:
            label, _, sql, _ = TEMPLATES[sub.template]
            query = lang.parse_query(sql, p=sub.parameter)
            handles.append(service.session(sub.tenant).submit(query, DYNAMIC, label=label))
        service.run_all()
        elapsed = perf_counter() - started
        if tracer is not None:
            tracer.close_span(span)
        for sub, handle in zip(submissions, handles, strict=True):
            self.run.attempted += 1
            record.observe(handle)
            record.digests.append(
                self._check(service, sub, handle, versions, check_reference)
            )
        return elapsed

    def _check(self, service, sub, handle, versions, check_reference) -> str:
        where = f"{TEMPLATES[sub.template][0]}(p={sub.parameter})"
        if handle.failed:
            self.run.fail(f"{where}: {handle.schedule.error}")
            return "failed"
        result = handle.result()
        codes = diagnostic_codes(result)
        digest = digest_rows(result.rows)
        if codes:
            self.run.fail(f"{where}: verifier diagnostics {codes}")
        elif check_reference and digest != digest_rows(
            self.reference(service, sub, versions)
        ):
            self.run.fail(
                f"{where}: answer differs from evaluate_reference"
                + (" (stale cache hit)" if handle.schedule.cache_hit else "")
            )
        return digest

    def reference(self, service, sub: Submission, versions) -> list[dict]:
        """Reference answer, evaluated once per (template, data version)."""
        _, dims, _, reference_sql = TEMPLATES[sub.template]
        key = (sub.template, tuple(versions[d] for d in dims))
        rows = self._reference.get(key)
        if rows is None:
            rows = self._reference[key] = evaluate_reference(
                lang.parse_query(reference_sql), service.session(TENANTS[0])
            )
        return [row for row in rows if row["f.f_val"] < sub.parameter]


def run_service_workload(
    seed: int, seconds: float, trace: bool, shape: ServiceShape = SERVICE_RW,
    workdir: str | None = None,
) -> Run:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workdir) as scratch:
        runner = ServiceRunner(seed, shape, scratch)
        run = runner.run
        first = runner.one_pass()
        if not trace:
            passes = [first]
            while sum(p.timed_s for p in passes) < seconds:
                passes.append(runner.one_pass())
            setups = [p.setup_s for p in passes]
            while len(setups) < SETUPS:
                setups.append(runner.one_pass(timed=False).setup_s)
            run.end_to_end = {
                "host_qps": sum(p.timed_queries for p in passes)
                / sum(p.timed_s for p in passes),
                **first.sim_metrics(),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb(),
            }
            run.notes.append(
                f"{len(passes)} timed passes of {len(first.latencies)} queries "
                f"({first.timed_queries} timed); result cache hit ratio "
                f"{first.cache_metrics()['service.result_hit_ratio']:.3f}; "
                f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s"
            )
        else:
            tracer = runner.tracer = LayerTracer()
            tracer.install()
            try:
                traced = runner.one_pass()
            finally:
                tracer.remove()
                runner.tracer = None
            run.end_to_end = traced.sim_metrics()
            run.per_layer = layer_metrics(
                tracer, SERVICE, traced.breakdown, traced.queue_delay_s, traced.failed
            )
            run.per_layer.update(traced.cache_metrics())
            trace_notes(
                run, tracer,
                first.timed_queries / first.timed_s,
                traced.timed_queries / traced.timed_s,
            )
            run.tracer = tracer
        run.notes.append(
            f"simulated latency percentiles over {len(first.latencies)} queries (one pass)"
        )
        run.digests = {str(i): d for i, d in enumerate(runner.first_digests)}
    return run


# -- per-layer metrics from a traced run -----------------------------------------


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: LayerTracer,
    workload: str,
    breakdown: dict[str, float],
    queue_delay_s: float,
    failed_queries: int,
) -> dict[str, float]:
    """The ``per_layer`` metrics of ``BENCHMARK.json`` from one traced pass.

    ``breakdown`` is :func:`sim_breakdown` of the pass's results.
    """
    missed = tracer.missed(workload)
    if missed:
        raise RuntimeError(f"wrapped functions never fired on {workload}: {missed}")
    self_s = tracer.self_times()
    calls = tracer.layer_calls()
    extra = tracer.extra
    probes = calls["engine.bloom_probe"]
    out = {
        "sketches.hll_merge_s": self_s.get("sketches.hll_merge", 0.0),
        "sketches.hll_merge_calls": calls["sketches.hll_merge"],
        "sketches.gk_merge_s": self_s.get("sketches.gk_merge", 0.0),
        "sketches.gk_merge_calls": calls["sketches.gk_merge"],
        "sketches.hll_cardinality_s": self_s.get("sketches.hll_cardinality", 0.0),
        "sketches.hll_cardinality_calls": calls["sketches.hll_cardinality"],
        "sketches.add_calls": calls["sketches.add"],
        "common.stable_hash_calls": calls["common.stable_hash"],
        "stats.collect_s": self_s.get("stats.collect", 0.0),
        "optimizers.bushy_dp_s": self_s.get("optimizers.bushy_dp", 0.0),
        "optimizers.bushy_dp_calls": calls["optimizers.bushy_dp"],
        "algebra.estimate_calls": calls["algebra.estimate"],
        "core.planner_s": self_s.get("core.planner", 0.0),
        "core.planner_calls": calls["core.planner"],
        "algebra.jobgen_s": self_s.get("algebra.jobgen", 0.0),
        "algebra.jobgen_calls": calls["algebra.jobgen"],
        "analysis.verify_s": self_s.get("analysis.verify", 0.0),
        "analysis.verify_calls": calls["analysis.verify"],
        "analysis.diagnostics": extra["analysis.diagnostics"],
        "engine.execute_s": self_s.get("engine.execute", 0.0),
        "engine.jobs": calls["engine.execute"],
        "engine.exchange_s": self_s.get("engine.exchange", 0.0),
        "engine.exchange_calls": calls["engine.exchange"],
        "engine.hash_build_s": self_s.get("engine.hash_build", 0.0),
        "engine.hash_probe_s": self_s.get("engine.hash_probe", 0.0),
        "engine.bloom_build_s": self_s.get("engine.bloom_build", 0.0),
        "engine.bloom_probe_calls": probes,
        "engine.bloom_pass_ratio": _ratio(extra["engine.bloom_passed"], probes),
        "engine.scheduler.self_s": self_s.get("engine.scheduler", 0.0),
        "engine.scheduler.failed_queries": failed_queries,
        "engine.scheduler.sim_queue_delay_s": queue_delay_s,
        "lang.parse_s": self_s.get("lang.parse", 0.0),
        "lang.parse_calls": calls["lang.parse"],
        "storage.ingest_s": self_s.get("storage.ingest", 0.0),
        "storage.ingest_calls": calls["storage.ingest"],
        "storage.ingest_rows": extra["storage.ingest_rows"],
        "workloads.generate_s": self_s.get("workloads.generate", 0.0),
        "service.result_hit_ratio": 0.0,
        "service.intermediate_hit_ratio": 0.0,
        "service.invalidations": 0,
        "service.cache_s": self_s.get("service.cache", 0.0),
        "service.store_s": self_s.get("service.store", 0.0),
        "service.sketch_reuse_ratio": _ratio(
            extra["service.sketch_reused"],
            tracer.calls["repro.service.store.ServiceStore.sketches_for"],
        ),
    }
    out.update(breakdown)
    return out


def trace_notes(run: Run, tracer: LayerTracer, untraced: float, traced: float) -> None:
    """Tracing overhead and the layers with the largest self time."""
    run.notes.append(
        f"tracing overhead: untraced pass {untraced:.3f} q/s, traced pass "
        f"{traced:.3f} q/s ({untraced / traced - 1.0:+.1%} host time)"
    )
    scopes = {span[4] for span in tracer.spans}
    for title, chosen in (
        ("traced pass", scopes - {"setup"}),
        ("traced set-up", scopes & {"setup"}),
    ):
        times = tracer.self_times(chosen)
        total = sum(times.values())
        if not total:
            continue
        run.notes.append(f"largest self times, {title} ({total:.3f} s traced):")
        for name, seconds in sorted(times.items(), key=lambda kv: -kv[1])[:12]:
            run.notes.append(f"  {name:28s} {seconds:9.3f} s  {seconds / total:6.1%}")
