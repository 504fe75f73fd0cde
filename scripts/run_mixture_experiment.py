#!/usr/bin/env python3
"""Run the reference mixture experiment and print per-seed and mean results.

Usage: python3 scripts/run_mixture_experiment.py [--seeds 0 1 2] [--json OUT]

Each pretraining and fine-tune is a job on `amf.jobs`'s pool, at most one per
CPU of the process's affinity (`taskset -c 0 python3 ...` runs every job in
turn in this process). At the end it prints the wall time and the CPU time
of this process and of the processes it forked and reaped, so a slower
per-job run cannot hide behind the speed-up of running jobs side by side.
"""

import argparse
import dataclasses
import json
import resource
import time

from amf.experiment import ExperimentConfig, run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--json", default=None, help="also dump full results as JSON")
    args = ap.parse_args()

    start = time.perf_counter()
    result = run_experiment(ExperimentConfig(seeds=tuple(args.seeds)), log=print)
    wall = time.perf_counter() - start
    own, children = (resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(f"wall {wall:.1f} s; user+sys CPU: this process {own.ru_utime + own.ru_stime:.1f} s, "
          f"children {children.ru_utime + children.ru_stime:.1f} s")

    if args.json:
        payload = {
            "per_seed": [dataclasses.asdict(r) for r in result.per_seed],
            "means": {
                "amf_top1": result.amf_mean_top1,
                "low_top1": result.low_mean_top1,
                "high_top1": result.high_mean_top1,
                "assignment": result.assignment_mean,
            },
            "elapsed_seconds": result.elapsed_seconds,
        }
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
