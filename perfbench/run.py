"""Host-time benchmark of the ``repro`` library, one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-sf100 --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
instrumentation. ``--trace 1`` is a separate run that wraps the library's
public layer functions from outside (see ``perfbench/tracing.py``) and
reports the per-layer metrics of one traced set-up plus one traced pass over
the workload. It also times an untraced pass (on the Session workloads, each
query untraced and then traced, back to back) and prints the tracing
overhead. Its spans go to ``.perfbench-out/spans-<workload>-seed<seed>.jsonl``.

Host times are wall-clock (``time.perf_counter``). Simulated ``sim_*``
values are exact for a seed; they differ between seeds.

Human-readable lines come first. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 1 when any answer is wrong, any query failed or the verifier
reported a diagnostic, and 2 when the library's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("paper-sf1000", "sweep-sf100", "service-rw")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def recorded_digests(workload: str, seed: int) -> dict | None:
    """Digests recorded by ``record_digests.py`` for this seed, if any."""
    path = os.path.join(ROOT, "perfbench", "digests.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


_RECORDED = object()


def execute(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    definition=None,
    recorded=_RECORDED,
    shape=None,
):
    """Run one workload; returns its :class:`perfbench.workloads.Run`.

    The keyword arguments shrink a workload for the benchmark's own tests:
    ``definition`` replaces a Session workload, ``recorded`` its digests
    (``None`` checks against the reference evaluator) and ``shape`` the
    service traffic.
    """
    from perfbench import workloads

    if workload == "service-rw":
        return workloads.run_service_workload(
            seed, seconds, trace, shape or workloads.SERVICE_RW, workdir=ROOT
        )
    if definition is None:
        definition = {
            "paper-sf1000": workloads.PAPER_SF1000,
            "sweep-sf100": workloads.SWEEP_SF100,
        }[workload]
    if recorded is _RECORDED:
        recorded = recorded_digests(workload, seed)
    return workloads.run_session_workload(definition, seed, seconds, trace, recorded)


def resolved_engine() -> str:
    """The execution engine the library picks by default."""
    try:
        from repro.engine.vector import default_engine
    except ImportError:
        return "single engine"
    return default_engine()


def result_line(run, definition: dict, trace: bool) -> dict:
    """The final JSON object: every metric of the chosen kind, with its unit."""
    kind = "per_layer" if trace else "end_to_end"
    values = run.per_layer if trace else run.end_to_end
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in definition[kind]
    }
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": min(run.failed, run.attempted),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _arguments(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the library sources are missing under {SRC}", file=sys.stderr)
        return 2
    # library defaults only: the process-wide engine override stays unset
    os.environ.pop("REPRO_ENGINE", None)
    sys.path[:0] = [SRC, ROOT]
    definition = load_definition()
    run = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(run, definition, bool(args.trace))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} engine={resolved_engine()}")
    for note in run.notes:
        print(note)
    attempted = line["attempted"]
    print(f"failed_ratio {line['failed'] / attempted:.6f} "
          f"({line['failed']} of {attempted} queries)")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    for name, metric in line["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6f} {metric['unit']}")
    if run.tracer is not None:
        out = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"spans-{args.workload}-seed{args.seed}.jsonl")
        run.tracer.write_spans(path)
        print(f"{len(run.tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
