"""Smoke test of the benchmark itself: every workload at tiny sizes, all checks on.

    python3 bench/smoke.py            # seeds 0 and 12345, untraced and traced

Fails (exit 1) if any check fails, any operation fails, or a run does not
report every metric BENCHMARK.json names. Takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import EvaluateCV, SummarizeLong, TrainCV

TINY = [
    (TrainCV, {"videos": 5, "frames": 40, "dim": 6, "episodes": 2, "epochs": 2, "folds": 5}),
    (SummarizeLong, {"videos": 2, "frames": 150, "dim": 32}),
    (EvaluateCV, {"videos": 10, "min_frames": 40, "max_frames": 80, "dim": 32, "folds": 5}),
]
SEEDS = (0, 12345)  # 12345 was not used while the benchmark was built


def main():
    run.import_cli()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for kind, size in TINY:
        for seed in SEEDS:
            for trace in (0, 1):
                workload = kind(size)
                work = run.ROOT / ".bench_work" / f"smoke-{workload.name}-{seed}-{trace}"
                try:
                    result, errors, _, _ = run.run(workload, seed, 0.0, trace, work)
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                label = f"{workload.name} seed {seed} trace {trace}"
                problems += [f"{label}: {e}" for e in errors]
                if result["failed"] or not result["attempted"]:
                    problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
                if set(result["metrics"]) != wanted[trace]:
                    problems.append(f"{label}: metrics {sorted(set(result['metrics']) ^ wanted[trace])} differ")
                print(f"{label}: {len(errors)} check failures, {result['attempted']} attempted")
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
