"""Record the answer digests the Session workloads are checked against.

For each seed, every query's answer is computed by the reference evaluator
(``repro.testing.evaluate_reference``) and must equal the ``dynamic``
strategy's answer before its digest is written to ``perfbench/digests.json``.
A benchmark run on a recorded seed compares every strategy's answer with
the recorded digest; on any other seed it falls back to the reference
evaluator. Run from the root of a checkout::

    python3 perfbench/record_digests.py --seeds 0-20,42
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATH = os.path.join(ROOT, "perfbench", "digests.json")


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(workload, seed: int) -> dict[str, str]:
    from repro import PlannerSpec, Session
    from repro.testing import evaluate_reference
    from repro.workloads import get_workload

    from perfbench.workloads import DYNAMIC, digest_rows

    session = Session()
    digests = {}
    for universe in workload.universes:
        spec = get_workload(universe, workload.scale_factor, seed)
        spec.load_into(session)
        for label, owner in workload.queries:
            if owner != universe:
                continue
            query = spec.query(label)
            expected = digest_rows(evaluate_reference(query, session))
            actual = digest_rows(session.execute(query, PlannerSpec.of(DYNAMIC)).rows)
            session.reset_intermediates()
            if actual != expected:
                raise SystemExit(f"{workload.name} seed {seed} {label}: dynamic "
                                 "answer differs from the reference evaluator")
            digests[label] = expected
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-20,42")
    args = parser.parse_args(argv)
    os.environ.pop("REPRO_ENGINE", None)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import PAPER_SF1000, SWEEP_SF100

    with open(PATH, encoding="utf-8") as handle:
        recorded = json.load(handle)
    for workload in (PAPER_SF1000, SWEEP_SF100):
        for seed in _seeds(args.seeds):
            recorded.setdefault(workload.name, {})[str(seed)] = record(workload, seed)
            print(f"{workload.name} seed {seed}: recorded", flush=True)
            with open(PATH, "w", encoding="utf-8") as handle:
                json.dump(recorded, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
