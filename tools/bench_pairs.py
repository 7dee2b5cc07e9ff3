"""Alternating parent/change pairs of the benchmark, written as a BENCH_*.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --seeds 1601 1602 ... --out BENCH_label.json [--seconds 20] [--what TEXT]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. For each seed
the script runs ``python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0`` once in each checkout, the side that goes first alternating pair
by pair (the parent first in the first pair), and keeps the JSON object that
ends each run's output.

The output file holds every run in the order it ran and, per workload, each
side's median and quartiles (``statistics.quantiles``, inclusive method) of
every end-to-end metric, the number of failed replicates and their share of
the attempted ones, and per pair comparison how many pairs the change won on
each metric (in the direction ``BENCHMARK.json`` declares; ties count for
neither side) and the largest relative difference of ``mean_regret`` within
a pair. Each metric also gets a verdict (``verdict``): ``gain`` when the
change won at least 9 of every 10 pairs, over at least 10 pairs, and its
median is better than the parent's by more than the parent's interquartile
range; else ``within_bound`` when its median is worse than the parent's by
at most the metric's ``bound`` in ``BENCHMARK.json`` (a share of the
parent's median), else ``worse``. When ``--out`` exists, the new runs are
added to its runs and the summary is computed again from all of them, so
one file can collect several workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_side(checkout, workload, seed, seconds):
    """(info, result) of one benchmark run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    info = next((json.loads(line[len("info: "):]) for line in lines
                 if line.startswith("info: ")), {})
    return info, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent, change, won, pairs, better, bound):
    """``gain``, ``within_bound`` or ``worse``: the change's quartiles
    ``change`` on one metric against the parent's ``parent``, with the
    change better in ``won`` of ``pairs`` pairs; ``better`` is "higher" or
    "lower" and ``bound`` the share of the parent's median by which the
    change's may be worse."""
    sign = 1.0 if better == "higher" else -1.0
    gap = sign * (change["median"] - parent["median"])
    if pairs >= 10 and won >= 0.9 * pairs and gap > parent["q3"] - parent["q1"]:
        return "gain"
    return "within_bound" if -gap <= bound * abs(parent["median"]) else "worse"


def summarize(runs, metrics):
    """(summary, pairs, verdicts) of ``runs`` per workload; ``metrics`` maps
    each end-to-end metric to its ("higher" or "lower", bound)."""
    summary, pairs, verdicts = {}, {}, {}
    better = {name: direction for name, (direction, _) in metrics.items()}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {}
        for side in SIDES:
            results = [r["result"] for r in mine if r["side"] == side]
            entry = {"runs": len(results), "failed": sum(r["failed"] for r in results)}
            attempted = sum(r["attempted"] for r in results)
            entry["failed_share"] = entry["failed"] / attempted if attempted else 0.0
            for name in better:
                values = [r["metrics"][name]["value"] for r in results
                          if name in r["metrics"]]
                if values:
                    entry[name] = quartiles(values)
            summary[workload][side] = entry
        by_seed = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        complete = [p for p in by_seed.values() if set(p) == set(SIDES)]
        counts = {"pairs": len(complete)}
        for name, direction in better.items():
            sign = 1.0 if direction == "higher" else -1.0
            counts[f"{name}_change_better"] = sum(
                1 for p in complete if name in p["parent"] and name in p["change"]
                and sign * (p["change"][name]["value"] - p["parent"][name]["value"]) > 0)
        regret = [(p["parent"]["mean_regret"]["value"], p["change"]["mean_regret"]["value"])
                  for p in complete if "mean_regret" in p["parent"]]
        counts["mean_regret_max_relative_difference"] = max(
            (abs(c - a) / abs(a) if a else abs(c - a) for a, c in regret), default=0.0)
        pairs[workload] = counts
        sides = summary[workload]
        verdicts[workload] = {
            name: verdict(sides["parent"][name], sides["change"][name],
                          counts[f"{name}_change_better"], counts["pairs"], *metrics[name])
            for name in metrics if name in sides["parent"] and name in sides["change"]}
    return summary, pairs, verdicts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--what", default="parent checkout against change checkout")
    args = parser.parse_args(argv)

    out = json.loads(args.out.read_text()) if args.out.exists() else {
        "label": args.out.stem.removeprefix("BENCH_"), "what": args.what,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds} --trace 0",
        "order": "runs listed in the order they ran; the side that runs first alternates "
                 "pair by pair, the parent first in the first pair of each invocation",
        "machine": {}, "summary": {}, "pairs": {}, "verdicts": {}, "runs": []}
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    for i, seed in enumerate(args.seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            info, result = run_side(checkouts[side], args.workload, seed, args.seconds)
            out["machine"] = out["machine"] or info.get("machine", {})
            out["runs"].append({"side": side, "workload": args.workload, "seed": seed,
                                "result": result})
            print(f"{args.workload} seed {seed} {side}: "
                  f"steps_per_s {result['metrics']['steps_per_s']['value']:.1f} "
                  f"failed {result['failed']}", flush=True)
        # Written after every pair, so an interrupted invocation keeps its runs.
        benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
        metrics = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
        out["summary"], out["pairs"], out["verdicts"] = summarize(out["runs"], metrics)
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
