#!/usr/bin/env python3
"""Run the benchmark alternately in two checkouts and record every run.

Usage (each directory is a checkout with its own bench/run.py and src/):

    python3 scripts/bench_pairs.py --parent ../parent --change ../change --label pr7 \\
        --run finetune_amf:0:10 --run finetune_amf:7:1 --run finetune_single:0:5

Each `--run WORKLOAD:SEED:PAIRS[:TRACE]` asks for PAIRS pairs of
`python3 bench/run.py --workload WORKLOAD --seed SEED --trace TRACE`, run for
bench/run.py's default length, one run in each checkout per pair. Pair i runs
the parent first when i is even and the change first when i is odd, so a
drift of the machine's speed falls on both sides. The runs go to BENCH_<label>.json (rewritten after every
run) with the checkouts' git heads and, per run, its wall time, its minor
page faults and user and system CPU time (the RUSAGE_CHILDREN deltas around
the bench/run.py process, so they include any worker process it forked and
reaped) and the last two lines that bench/run.py printed: its
environment line and its result line. A run that exits nonzero or prints no
result is stored too, with its exit code and the last 20 lines of its
stderr, and the series goes on. At the
end it prints, per workload and seed, the runs that failed, each side's total
of failed and attempted operations over all its other runs, every run that
bench/run.py did not mark correct, each side's median minor page faults,
system CPU time and user+system CPU time per run, and then each end-to-end metric's
quartiles on each side over the pairs where both runs succeeded, the number
of pairs the change won, the change's median as a percent change from the
parent's, the metric's `bound` in BENCHMARK.json as a percent, and one
verdict, in the metric's `better` direction:

  gain        at least 10 pairs, the change won at least 9 of every 10, and
              its median beats the parent's by more than the distance
              between the parent's quartiles;
  OUTSIDE     the change's median is worse than the parent's by more than
              the bound, as a fraction of the parent's median;
  unresolved  the distance between the parent's quartiles exceeds the bound,
              as a fraction of its median, and not every change run beats
              every parent run: the runs spread too widely to tell;
  within      otherwise: no worse than the bound allows.

It exits 1 if any run failed, else 2 if any metric is OUTSIDE its bound,
else 0.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path


def git_head(checkout: Path) -> str:
    return subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()


def parse_run(spec: str) -> tuple[str, int, int, int]:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED:PAIRS[:TRACE], got {spec!r}")
    workload, seed, pairs, trace = parts + ["0"] * (4 - len(parts))
    return workload, int(seed), int(pairs), int(trace)


def bench_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One bench/run.py run: its wall time, minor page faults and user and
    system CPU time, and its environment and result lines or, when it fails, its exit
    code and the tail of its stderr."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = round(time.perf_counter() - t0, 3)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {"wall_s": wall, "minflt": after.ru_minflt - before.ru_minflt,
             "user_s": round(after.ru_utime - before.ru_utime, 3),
             "sys_s": round(after.ru_stime - before.ru_stime, 3)}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and len(lines) >= 2 and lines[-2].startswith("env "):
        return {**usage, "env_line": lines[-2], "result_line": lines[-1]}
    return {**usage, "exit_code": proc.returncode, "stderr_tail": proc.stderr.splitlines()[-20:]}


def within_bound(parent: float, change: float, better: str, bound: float) -> bool:
    """True when `change` is no worse than `parent` by more than the relative `bound`."""
    if better == "higher":
        return change >= parent * (1 - bound)
    return change <= parent * (1 + bound)


def quartiles(values: list[float]) -> list[float]:
    """q1, median and q3 of `values`, all the one value when there is only one."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def verdict(parent: list[float], change: list[float], won: int, better: str, bound: float) -> str:
    """gain, OUTSIDE, unresolved or within, as the module docstring defines them."""
    sign = 1 if better == "higher" else -1
    q1, median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    if len(parent) >= 10 and won >= 0.9 * len(parent) and sign * (change_median - median) > q3 - q1:
        return "gain"
    if not within_bound(median, change_median, better, bound):
        return "OUTSIDE"
    beats_every_run = all(sign * (c - p) > 0 for c in change for p in parent)
    if q3 - q1 > bound * abs(median) and not beats_every_run:
        return "unresolved"
    return "within"


def failures(runs: list[dict]) -> str:
    """Each side's failed/attempted operations summed over `runs`, and the runs
    whose result is not marked correct."""
    totals = {"parent": [0, 0], "change": [0, 0]}
    wrong = []
    for r in runs:
        if "result_line" not in r:
            continue
        result = json.loads(r["result_line"])
        totals[r["side"]][0] += result["failed"]
        totals[r["side"]][1] += result["attempted"]
        if not result["correct"]:
            wrong.append(f"pair {r['pair']} {r['side']}" + (" traced" if r["trace"] else ""))
    return ("  failed/attempted: " + " -> ".join(f"{side} {f}/{a}" for side, (f, a) in totals.items())
            + "; correct: false in " + (", ".join(wrong) or "no run"))


def usage(runs: list[dict]) -> str:
    """Each side's median minor page faults, system CPU time and user+system
    CPU time per untraced run that printed a result."""
    sides = {side: [r for r in runs if r["side"] == side and not r["trace"] and "result_line" in r]
             for side in ("parent", "change")}

    def medians(rs):
        columns = zip(*((r["minflt"], r["sys_s"], r["user_s"] + r["sys_s"]) for r in rs))
        return "/".join(f"{statistics.median(c):.4g}" for c in columns)
    return ("  median minor faults / sys s / user+sys s per run: "
            + " -> ".join(f"{side} " + (medians(rs) if rs else "none") for side, rs in sides.items()))


def summarize(runs: list[dict], metrics: list[dict]) -> bool:
    """Prints, per workload and seed, the failed runs, the failure counts and
    the median page faults, system time and user+system time and then, per metric,
    q1/median/q3 per side, the pairs the change won, the percent change of
    the median, the metric's `bound` and the verdict. Returns True when no
    metric is OUTSIDE its bound."""
    all_within = True
    groups: dict[tuple, list[dict]] = {}
    for r in runs:
        groups.setdefault((r["workload"], r["seed"]), []).append(r)
    for (workload, seed), group in groups.items():
        pairs: dict[int, dict[str, dict]] = {}
        for r in group:
            if not r["trace"] and "result_line" in r:
                pairs.setdefault(r["pair"], {})[r["side"]] = json.loads(r["result_line"])["metrics"]
        done = [p for p in pairs.values() if len(p) == 2]
        print(f"{workload} seed {seed}, {len(done)} pairs: q1/median/q3 parent -> change, pairs won")
        print("  failed runs: " + (", ".join(f"pair {r['pair']} {r['side']} (exit {r['exit_code']})"
                                             for r in group if "exit_code" in r) or "none"))
        print(failures(group))
        print(usage(group))
        if not done:
            continue
        for metric in metrics:
            name, direction = metric["name"], metric["better"]
            vals = {side: sorted(p[side][name]["value"] for p in done) for side in ("parent", "change")}
            quart = {side: quartiles(v) for side, v in vals.items()}
            sign = 1 if direction == "higher" else -1
            won = sum(sign * (p["change"][name]["value"] - p["parent"][name]["value"]) > 0 for p in done)
            found = verdict(vals["parent"], vals["change"], won, direction, metric["bound"])
            all_within &= found != "OUTSIDE"
            change = 100 * (quart["change"][1] / quart["parent"][1] - 1)
            print(f"  {name}: " + " -> ".join("/".join(f"{x:.4g}" for x in q) for q in quart.values())
                  + f", won {won}/{len(done)}, median {change:+.1f}%, bound {100 * metric['bound']:g}%"
                  + f" ({direction} is better): {found}")
    return all_within


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--label", required=True, help="output goes to BENCH_<label>.json")
    ap.add_argument("--run", type=parse_run, action="append", required=True,
                    metavar="WORKLOAD:SEED:PAIRS[:TRACE]")
    ap.add_argument("--about", default="", help="what the pairs compare, stored in the file")
    args = ap.parse_args(argv)

    out = Path(f"BENCH_{args.label}.json")
    heads = {"parent": git_head(args.parent), "change": git_head(args.change)}
    doc = {"about": args.about, **heads, "runs": []}
    checkouts = {"parent": args.parent, "change": args.change}
    for workload, seed, pairs, trace in args.run:
        for pair in range(pairs):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                run = {"workload": workload, "seed": seed, "trace": trace, "pair": pair,
                       "side": side, "git_head": heads[side],
                       **bench_once(checkouts[side], workload, seed, trace)}
                doc["runs"].append(run)
                out.write_text(json.dumps(doc, indent=1) + "\n")
                head = f"{workload} seed {seed} trace {trace} pair {pair} {side}"
                if "exit_code" in run:
                    print(f"{head}: FAILED (exit {run['exit_code']}, {run['wall_s']} s)", flush=True)
                    print("\n".join(run["stderr_tail"]), file=sys.stderr, flush=True)
                else:
                    print(f"{head}: {run['result_line']}", flush=True)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    all_within = summarize(doc["runs"], spec["end_to_end"])
    if any("exit_code" in r for r in doc["runs"]):
        return 1
    return 0 if all_within else 2


if __name__ == "__main__":
    raise SystemExit(main())
