"""The three closed-loop workloads: set-up, one round of work, output check.

A round is the unit the benchmark times and repeats:

- ``vehicle_mc``: one sensor seed of the RK4 overtaking scenario, run with the
  ``optimized`` and then the ``explicit`` additional input (2 replicates of
  300 steps), as the acceptance Monte Carlo interleaves them.
- ``di_sweep``: one seed of the bundled regret-sweep design through
  ``simkit.regret_scaling_experiment``: every path level x noise level cell,
  zero-noise cells included (9 replicates of 400 steps).
- ``cli_single``: one ``python -m ocorobust.cli run`` invocation on each of the
  single-seed bundled configs ``double_integrator.cfg`` and
  ``vehicle_optimized.cfg``, each in a fresh process (2 invocations).

Inputs come only from the workload seed: it orders a fixed pool of replicate
seeds, and every replicate's output is compared with the reference recorded
for its seed (``references.json``, written by ``make_references.py``).
"""

from __future__ import annotations

import functools
import json
import random
import re
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from calibrate import untimed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
CONFIGS = ROOT / "configs"
REFERENCES = HERE / "references.json"

# Relative and absolute tolerance of the reference comparison. Loose enough
# that a change in floating-point evaluation order passes, tight enough that
# a change in controller behaviour does not.
RTOL = 1e-6
ATOL = 1e-9
MIN_R_SQUARED = 0.8
# Every per-step invariant flag the simulator records; tube_marginal is an
# early warning, not a violation.
INVARIANT_FLAGS = ("state_ok", "input_ok", "candidate_ok", "plan_ok", "zs_ok",
                   "g_cap_ok", "tube_ok", "resid_ok")


def seed_order(seed, pool):
    """Replicate seeds of a run, in order: a seeded permutation of the pool."""
    return random.Random(seed).sample(range(pool), pool)


def fingerprint(cum_regret, path_length, beta, g_norm, u, x_true):
    """Summary of a trace compared against the reference, as a flat list."""
    u = np.asarray(u, float)
    x_true = np.asarray(x_true, float)
    return [float(cum_regret), float(path_length), float(np.sum(beta)),
            float(np.sum(g_norm)), *map(float, u.sum(axis=0)),
            *map(float, x_true.sum(axis=0)), *map(float, x_true[-1])]


def trace_fingerprint(trace, ledger):
    return fingerprint(ledger.cum_regret, ledger.path_length,
                       [r.diagnostics.beta for r in trace],
                       [r.diagnostics.g_norm for r in trace],
                       [r.u for r in trace], [r.x_true for r in trace])


def compare(got, want):
    """Problems found comparing a fingerprint with its reference ([] if none)."""
    if want is None:
        return ["no reference recorded"]
    if len(got) != len(want):
        return [f"fingerprint length {len(got)} != reference {len(want)}"]
    bad = [i for i, (g, w) in enumerate(zip(got, want))
           if not abs(g - w) <= ATOL + RTOL * abs(w)]
    return [f"field {i}: {got[i]!r} != reference {want[i]!r}" for i in bad]


def flag_violations(trace):
    return sum(1 for rec in trace for name in INVARIANT_FLAGS
               if not rec.invariant_flags.get(name, True))


@dataclass
class Outcome:
    """One replicate's result after its output check."""

    key: str
    steps: int
    regret: float | None
    problems: list


def children_cpu_time():
    """CPU seconds used by the ended child processes of this process."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class VehicleMc:
    name = "vehicle_mc"
    in_process = True      # rounds run in the worker itself
    cpu_time = staticmethod(time.process_time)
    pool = 100             # seeds 0..99, as in the acceptance Monte Carlo
    horizon = 300
    regret_rounds = 10     # mean_regret is over the first 10 seeds of the order
    trace_rounds = 10
    variants = ("optimized", "explicit")

    def setup(self):
        from ocorobust import vehicle

        vehicle.vehicle_setup.cache_clear()
        return vehicle.vehicle_setup(vehicle.VehicleParams())

    def context(self, tmp):
        return self.setup()

    def run_round(self, ctx, seed, timed=untimed):
        from ocorobust import vehicle

        out = []
        for variant in self.variants:
            try:
                out.append((variant, timed(
                    vehicle.run_scenario,
                    variant=variant, seed=seed, horizon_steps=self.horizon, setup=ctx)))
            except Exception as exc:  # counted as a failed replicate
                out.append((variant, exc))
        return out

    def check_round(self, ctx, seed, raw, refs):
        outcomes = []
        for variant, result in raw:
            key = f"{variant}/{seed}"
            if isinstance(result, Exception):
                outcomes.append(Outcome(key, 0, None, [f"raised {result!r}"]))
                continue
            trace, ledger, _ = result
            problems = compare(trace_fingerprint(trace, ledger), refs.get(key))
            if flag_violations(trace):
                problems.append(f"{flag_violations(trace)} invariant flag violations")
            outcomes.append(Outcome(key, len(trace), ledger.cum_regret, problems))
        return outcomes

    def reference_entries(self, ctx, seed, raw):
        return {f"{variant}/{seed}": trace_fingerprint(res[0], res[1]) for variant, res in raw}


def build_generic(cfg):
    """What ``ocorobust run`` and ``regret-sweep`` build for a generic-scenario
    config, with the CLI's own helpers: (model, tables, manifold, schedule,
    controller)."""
    from ocorobust import cli
    from ocorobust.plant import build_model, build_tightening, steady_state_manifold

    model = build_model(cli._model_config(cfg))
    tables = build_tightening(model)
    manifold = steady_state_manifold(model, model.p_rpi, shrink=cfg["controller"]["shrink"])
    schedule = cli._schedule(cfg)
    return model, tables, manifold, schedule, cli._controller(cfg, model, schedule)


class SweepContext:
    """Everything ``regret_scaling_experiment`` needs for the bundled design."""

    def __init__(self):
        from ocorobust import cli, simkit

        cfg = cli.load_config(CONFIGS / "regret_sweep.cfg", command="regret-sweep")
        sw = cfg["sweep"]
        self.model, self.tables, self.manifold, schedule, self.controller = build_generic(cfg)
        self.generator = simkit.AlternatingTargetGenerator(
            model=self.model, manifold=self.manifold, base_cost=schedule.cost_at(0),
            direction=tuple(sw["direction"]), levels=tuple(sw["path_levels"]),
            hop_size=sw["hop_size"], horizon=sw["horizon"])
        self.noise_levels = list(sw["noise_levels"])
        self.horizon = sw["horizon"]
        self.base_seed = sw["base_seed"]


class DiSweep:
    name = "di_sweep"
    in_process = True
    cpu_time = staticmethod(time.process_time)
    pool = 40
    regret_rounds = 4      # 36 cells: the disturbance draws average out to ~1 %
    trace_rounds = 3

    def setup(self):
        return SweepContext()

    def context(self, tmp):
        return self.setup()

    def run_round(self, ctx, seed, timed=untimed):
        from ocorobust import simkit

        # regret_scaling_experiment returns only rows; keep each replicate's
        # (trace, ledger) so its invariant flags and trace can be checked. The
        # wrapper times and records each replicate, and is removed when the
        # round ends.
        loop = simkit.run_closed_loop
        captured = []

        @functools.wraps(loop)
        def capturing_loop(*args, **kwargs):
            result = timed(loop, *args, **kwargs)
            captured.append(result)
            return result

        simkit.run_closed_loop = capturing_loop
        try:
            result = simkit.regret_scaling_experiment(
                ctx.model, ctx.tables, ctx.manifold, ctx.controller, ctx.generator,
                dist_levels=ctx.noise_levels, seeds=[seed], horizon=ctx.horizon,
                base_seed=ctx.base_seed)
        except Exception as exc:  # counted as failed replicates
            result = exc
        finally:
            simkit.run_closed_loop = loop
        return result, captured

    def check_round(self, ctx, seed, raw, refs):
        result, runs = raw
        if isinstance(result, Exception):
            return [Outcome(f"{seed}/{i}", 0, None, [f"raised {result!r}"])
                    for i in range(len(ctx.generator.levels) * len(ctx.noise_levels))]
        round_problems = []
        if len(runs) != len(result.rows):
            round_problems.append(f"observed {len(runs)} replicate traces for "
                                  f"{len(result.rows)} rows")
        if result.coefficients is None:
            round_problems.append("degenerate fit")
        else:
            _, c_path, c_noise = result.coefficients
            if c_path < 0 or c_noise < 0 or result.r_squared < MIN_R_SQUARED:
                round_problems.append(f"fit c_path={c_path:.4g} c_noise={c_noise:.4g} "
                                      f"R2={result.r_squared:.4f}")
        outcomes = []
        for i, row in enumerate(result.rows):
            key = self._key(row)
            problems = list(round_problems)
            if i < len(runs):
                trace, ledger = runs[i]
                got = self._fingerprint(row, trace, ledger)
                problems += compare(got, refs.get(key))
                if flag_violations(trace):
                    problems.append(f"{flag_violations(trace)} invariant flag violations")
                steps = len(trace)
            else:
                steps = ctx.horizon
            outcomes.append(Outcome(key, steps, row["regret"], problems))
        return outcomes

    @staticmethod
    def _key(row):
        return f"{row['path_level']:g}/{row['noise_level']:g}/{row['seed']}"

    @staticmethod
    def _fingerprint(row, trace, ledger):
        return [row["w_energy"], row["v_energy"]] + trace_fingerprint(trace, ledger)

    def reference_entries(self, ctx, seed, raw):
        result, runs = raw
        return {self._key(row): self._fingerprint(row, *run)
                for row, run in zip(result.rows, runs)}


class CliContext:
    def __init__(self, tmp):
        self.tmp = tmp          # temporary --out directories, inside the checkout
        self.traced = False     # run the traced CLI runner instead of the CLI
        self.spans = []         # one Tracer.to_json per traced invocation
        self.csv_bytes = 0      # CSV output of the traced invocations
        self.invocations = 0


class CliSingle:
    name = "cli_single"
    in_process = False     # rounds start CLI processes
    cpu_time = staticmethod(children_cpu_time)
    pool = 40
    regret_rounds = 2
    trace_rounds = 2
    configs = ("double_integrator", "vehicle_optimized")

    def setup(self):
        """What ``ocorobust run`` builds before simulating, for both configs."""
        from ocorobust import cli, vehicle

        built = []
        for name in self.configs:
            cfg = cli.load_config(CONFIGS / f"{name}.cfg", command="run")
            if cfg["experiment"]["scenario"] == "vehicle":
                vehicle.vehicle_setup.cache_clear()
                built.append(vehicle.vehicle_setup(cli._vehicle_params(cfg)))
            else:
                built.append(build_generic(cfg))
        return built

    def context(self, tmp):
        return CliContext(tmp)

    def run_round(self, ctx, seed, timed=untimed):
        out = []
        for name in self.configs:
            ctx.invocations += 1
            out_dir = ctx.tmp / f"{name}-{seed}-{ctx.invocations}"
            args = ["run", "--config", str(CONFIGS / f"{name}.cfg"), "--seed", str(seed),
                    "--out", str(out_dir), "--quiet"]
            if ctx.traced:
                spans = ctx.tmp / f"{out_dir.name}.spans.json"
                cmd = [sys.executable, str(HERE / "worker.py"), "cli",
                       "--trace-out", str(spans), *args]
            else:
                cmd = [sys.executable, "-m", "ocorobust.cli", *args]
            log = ctx.tmp / f"{out_dir.name}.log"
            with open(log, "w") as fh:
                code = timed.run_process(cmd, timeout=120, stdout=fh, stderr=subprocess.STDOUT)
            out.append((name, out_dir, code, log.read_text()))
            log.unlink()
        return out

    def check_round(self, ctx, seed, raw, refs):
        outcomes = []
        for name, out_dir, code, output in raw:
            key = f"{name}/{seed}"
            problems, steps, regret = [], 0, None
            if code != 0:
                problems.append(f"exit code {code}: {output.strip()[-300:]}")
            try:
                report = (out_dir / "invariants.txt").read_text()
                counts = [int(n) for n in re.findall(r"violations: (\d+)", report)]
                if not counts or any(counts):
                    problems.append(f"invariants.txt reports violations {counts}")
                got, steps, regret = read_cli_outputs(out_dir, seed)
                problems += compare(got, refs.get(key))
                if ctx.traced:
                    ctx.csv_bytes += sum(p.stat().st_size for p in out_dir.glob("*.csv"))
                    spans = ctx.tmp / f"{out_dir.name}.spans.json"
                    ctx.spans.append(json.loads(spans.read_text()))
                    spans.unlink()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            shutil.rmtree(out_dir, ignore_errors=True)
            outcomes.append(Outcome(key, steps, regret, problems))
        return outcomes

    def reference_entries(self, ctx, seed, raw):
        return {f"{name}/{seed}": read_cli_outputs(out_dir, seed)[0]
                for name, out_dir, *_ in raw}


def read_cli_outputs(out_dir, seed):
    """(fingerprint, steps, cum_regret) from the trace and ledger CSVs of a run."""
    lines = (out_dir / f"trace_{seed:04d}.csv").read_text().splitlines()
    header = lines[0].split(",")
    cols = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])

    def pick(prefix):
        return cols[:, [i for i, h in enumerate(header) if h.startswith(prefix)]]

    totals = {}
    for line in (out_dir / f"ledger_{seed:04d}.csv").read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            totals[key] = float(value)
    got = fingerprint(totals["cum_regret"], totals["path_length"],
                      cols[:, header.index("beta")], cols[:, header.index("g_norm")],
                      pick("u_"), pick("x_true_"))
    return got, len(cols), totals["cum_regret"]


WORKLOADS = {w.name: w for w in (VehicleMc, DiSweep, CliSingle)}
