"""Benchmark worker processes; ``run.py`` starts them, one job per process.

    worker.py setup --workload W [--trace]     one cold set-up, timed
    worker.py run --workload W --seed N --seconds S [--trace]
    worker.py cli --trace-out FILE run ...     traced ``ocorobust run``

Each prints one JSON object as the last line of its standard output, except
``cli``, which writes its spans to FILE and exits with the CLI's code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CALIBRATION_CALLS = 5
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = str(ROOT / "src")


def _import_ocorobust():
    """Import the package under test from this checkout; returns seconds taken."""
    start = time.perf_counter()
    import ocorobust

    elapsed = time.perf_counter() - start
    if Path(ocorobust.__file__).resolve().parent != ROOT / "src" / "ocorobust":
        raise SystemExit(f"ocorobust imported from {ocorobust.__file__}, not this checkout")
    return elapsed


def cmd_setup(args):
    import_s = _import_ocorobust()
    import calibrate
    import layers
    import tracer
    import workloads

    spans = None
    if args.trace:
        spans = tracer.Tracer()
        spans.install(layers.SETUP_TARGETS)
    workloads.WORKLOADS[args.workload]().setup()
    ready, cpu_s = time.monotonic(), time.process_time()
    cal = [calibrate.kernel_cpu_s() for _ in range(SETUP_CALIBRATION_CALLS)]
    scaled_s = cpu_s * calibrate.REFERENCE_S / statistics.fmean(cal)
    print(json.dumps({"ready": ready, "cpu_s": cpu_s, "scaled_s": scaled_s,
                      "import_s": import_s,
                      "trace": spans.to_json() if spans else None}))


def cmd_cli(args):
    spans_out = Path(args.trace_out)
    import tracer

    spans = tracer.Tracer(sample_names=("oco.step",))
    start = time.perf_counter()
    from ocorobust import cli

    spans.add_span("setup.import", time.perf_counter() - start)
    import layers

    spans.install({**layers.SETUP_TARGETS, **layers.LOOP_TARGETS, **layers.CLI_TARGETS},
                  layers.HOOKS)
    try:
        code = cli.main(args.cli_args)
    finally:
        spans_out.write_text(json.dumps(spans.to_json()))
    sys.exit(code)


def _machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name", "unknown"),
    }


class Pass:
    """Rounds of one workload; checks each round outside its timing."""

    def __init__(self, wl, ctx, refs, timed=None):
        import calibrate

        self.wl, self.ctx, self.refs = wl, ctx, refs
        self.timed = timed or calibrate.untimed
        self.round_walls = []
        self.round_outcomes = []

    def round(self, seed):
        start = time.perf_counter()
        raw = self.wl.run_round(self.ctx, seed, self.timed)
        wall = time.perf_counter() - start
        outcomes = self.wl.check_round(self.ctx, seed, raw, self.refs)
        self.round_walls.append(wall)
        self.round_outcomes.append(outcomes)
        return outcomes

    @property
    def outcomes(self):
        return [o for outs in self.round_outcomes for o in outs]

    @property
    def steps(self):
        return sum(o.steps for o in self.outcomes)

    @property
    def wall(self):
        return sum(self.round_walls)


def cmd_run(args):
    _import_ocorobust()
    import layers
    import tracer
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    refs = json.loads(workloads.REFERENCES.read_text())[wl.name]
    order = workloads.seed_order(args.seed, wl.pool)
    tmp_root = ROOT / ".perfbench_out"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=tmp_root))
    try:
        ctx = wl.context(tmp)
        warm = Pass(wl, ctx, refs)
        warm.round(order[-1])  # warm-up: fills lazy solver caches, untimed
        if args.trace:
            result = _traced(wl, ctx, refs, order, layers, tracer)
        else:
            result = _measured(args, wl, ctx, refs, order)
        checked = warm.outcomes + result.pop("outcomes")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    failures = [(o.key, o.problems) for o in checked if o.problems]
    result.update({
        "attempted": len(checked),
        "failed": len(failures),
        "problems": failures[:20],
        "machine": _machine(),
    })
    print(json.dumps(result))


def _measured(args, wl, ctx, refs, order):
    import calibrate

    # Each operation is timed in CPU seconds of the process doing it, so time
    # the shared host spends running other tenants is not counted, and scaled
    # to the reference machine speed by the kernel calls around it.
    timer = calibrate.CalibratedTimer(wl.cpu_time)
    run = Pass(wl, ctx, refs, timer)
    deadline = time.perf_counter() + args.seconds
    # At least the rounds mean_regret is taken over, then until time is up.
    bounds = [0]   # operations timed before each round, and in all
    while len(run.round_walls) < wl.regret_rounds or time.perf_counter() < deadline:
        run.round(order[len(run.round_walls) % wl.pool])
        bounds.append(len(timer.ops))
    scaled = timer.finish()
    kernel = [c for calls in timer.cal for c in calls]
    # Every round holds the same mix of operations (both variants, every sweep
    # cell, both configs), so its mean is comparable between rounds.
    round_means = [statistics.fmean(scaled[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
    regrets = [o.regret for outs in run.round_outcomes[:wl.regret_rounds] for o in outs
               if o.regret is not None]
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {
        "outcomes": run.outcomes,
        "metrics": {
            "steps_per_s": {"value": run.steps / sum(scaled), "unit": "steps/s"},
            "run_ms_p50": {"value": 1e3 * statistics.median(round_means), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
            "mean_regret": {"value": statistics.fmean(regrets) if regrets else float("nan"),
                            "unit": "cost"},
        },
        "samples": {"rounds": len(run.round_walls), "operations": len(run.outcomes),
                    "regret_replicates": len(regrets), "timed_operations": len(scaled),
                    "op_cpu_s_median": statistics.median(timer.ops),
                    "kernel_calls": len(kernel), "kernel_s_mean": statistics.fmean(kernel)},
    }


def _traced(wl, ctx, refs, order, layers, tracer):
    seeds = [order[i % wl.pool] for i in range(wl.trace_rounds)]
    spans = tracer.Tracer(sample_names=("oco.step",))
    plain, traced = Pass(wl, ctx, refs), Pass(wl, ctx, refs)
    # Untraced and traced rounds alternate, so that machine noise hits both
    # sides of the overhead ratio alike.
    for seed in seeds:
        plain.round(seed)
        if wl.in_process:
            spans.install(layers.LOOP_TARGETS, layers.HOOKS)
        else:
            ctx.traced = True   # the invocation runs the traced CLI runner
        traced.round(seed)
        if wl.in_process:
            spans.uninstall()
        else:
            ctx.traced = False
    parts = [spans.to_json()] if wl.in_process else ctx.spans
    overhead = (traced.steps / traced.wall) / (plain.steps / plain.wall)
    metrics, absent = layers.layer_metrics(tracer.merge(parts), traced.wall, overhead)
    csv_bytes = 0 if wl.in_process else ctx.csv_bytes / len(traced.outcomes)
    metrics["cli.csv_bytes"] = {"value": csv_bytes, "unit": "B"}
    return {"outcomes": plain.outcomes + traced.outcomes, "metrics": metrics,
            "absent": absent,
            "samples": {"rounds": len(seeds), "untraced_steps_per_s": plain.steps / plain.wall,
                        "traced_steps_per_s": traced.steps / traced.wall}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("cli")
    p.add_argument("--trace-out", required=True)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    {"setup": cmd_setup, "run": cmd_run, "cli": cmd_cli}[args.mode](args)


if __name__ == "__main__":
    main()
