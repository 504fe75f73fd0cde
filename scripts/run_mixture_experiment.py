#!/usr/bin/env python3
"""Run the reference mixture experiment and print per-seed and mean results.

Usage: python3 scripts/run_mixture_experiment.py [--seeds 0 1 2] [--json OUT]
"""

import argparse
import dataclasses
import json

from amf.experiment import ExperimentConfig, run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--json", default=None, help="also dump full results as JSON")
    args = ap.parse_args()

    result = run_experiment(ExperimentConfig(seeds=tuple(args.seeds)), log=print)

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
