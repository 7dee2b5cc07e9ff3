"""Closed-loop benchmark of ocorobust, one workload per invocation.

    python3 perfbench/run.py --workload {vehicle_mc,di_sweep,cli_single} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced run;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md beside
this file for what each metric means.

Every piece of work runs in a fresh child process: set-up samples (cold
caches by construction) and one worker that runs the workload. Children are
single-threaded (``OCO_MAX_THREADS`` and the BLAS/OpenMP thread counts are 1)
so that a 2-core machine is never oversubscribed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("vehicle_mc", "di_sweep", "cli_single")
REQUIRED = ("src/ocorobust/__init__.py", "configs/double_integrator.cfg",
            "configs/vehicle_optimized.cfg", "configs/regret_sweep.cfg",
            "perfbench/references.json")
SETUP_SAMPLES = 5          # timed cold set-ups per run; setup_s is their median
TRACED_SETUP_SAMPLES = 3
TIME_LIMIT_S = 150.0       # the whole run besides --seconds, children included
THREAD_ENV = {
    "OCO_MAX_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class ChildFailed(Exception):
    pass


class Runner:
    def __init__(self, seconds):
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
        self.deadline = time.monotonic() + seconds + TIME_LIMIT_S

    def child(self, *args):
        """Run worker.py with ``args``; returns (its last-line JSON, start time)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("time limit reached")
        start = time.monotonic()
        # Its own process group, so that a worker that times out is stopped
        # together with the CLI processes it started.
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"worker {' '.join(args)} timed out") from exc
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                              f"{stderr.strip()[-2000:]}")
        return json.loads(lines[-1]), start


def setup_samples(runner, workload, n, trace):
    flag = ["--trace"] if trace else []
    runner.child("setup", "--workload", workload)  # untimed: byte-compiles, warms file cache
    samples = []
    for _ in range(n):
        out, start = runner.child("setup", "--workload", workload, *flag)
        out["setup_wall_s"] = out["ready"] - start
        out["setup_s"] = out["scaled_s"]
        samples.append(out)
    return samples


def setup_layer_metrics(samples):
    """Medians over traced cold set-ups of the time in each set-up layer."""
    import layers  # beside this script, so on sys.path

    metrics = {"setup.import_s": {"value": statistics.median(s["import_s"] for s in samples),
                                  "unit": "s"}}
    absent = []
    for name in layers.SETUP_TARGETS:
        if any(name in s["trace"]["absent"] for s in samples):
            absent.append(f"{name}_s")
            continue
        totals = [sum(total for n, _, _, total, _ in s["trace"]["spans"] if n == name)
                  for s in samples]
        metrics[f"{name}_s"] = {"value": statistics.median(totals), "unit": "s"}
    return metrics, absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a checkout of the repository, missing {missing}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    # Speed on a shared host differs between CPUs, and the calibration kernel
    # must run on the CPU the timed work ran on: pin this process, and so
    # every child it starts, to one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(args.seconds)
    load_start = os.getloadavg()
    try:
        setups = setup_samples(runner, args.workload,
                               TRACED_SETUP_SAMPLES if args.trace else SETUP_SAMPLES,
                               bool(args.trace))
        work, _ = runner.child("run", "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               *(["--trace"] if args.trace else []))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load_end = os.getloadavg()

    metrics = dict(work["metrics"])
    absent = list(work.get("absent", []))
    if args.trace:
        setup_metrics, setup_absent = setup_layer_metrics(setups)
        metrics.update(setup_metrics)
        absent += setup_absent
    else:
        metrics["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups),
                              "unit": "s"}

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": work["machine"],
        "loadavg_start": load_start, "loadavg_end": load_end,
        "samples": {**work["samples"], "setup": len(setups)},
        "setup_s_samples": [s["setup_s"] for s in setups],
        "setup_cpu_s_samples": [s["cpu_s"] for s in setups],
        "setup_wall_s_samples": [s["setup_wall_s"] for s in setups],
        "failed_share": work["failed"] / work["attempted"],
        "absent": absent,
    }
    print("info: " + json.dumps(info))
    for key, problems in work["problems"]:
        print(f"FAILED {key}: {'; '.join(problems)}")
    for name, m in sorted(metrics.items()):
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": work["failed"] == 0,
        "attempted": work["attempted"],
        "failed": work["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
