"""Which functions the traced run wraps, and the per-layer metrics they give.

Span names use the repository's module names, with ``oco`` for
``oco_controller``. Counts and ratios come from values the functions return
(``StepDiagnostics`` in the traces, ``QpSolution`` from the solver), so they
repeat exactly between runs; times do not.
"""

from __future__ import annotations

import statistics

import numpy as np

SETUP_TARGETS = {
    "plant.build_model": "ocorobust.plant:build_model",
    "matlin.spectral_norm_upper": "ocorobust.matlin:spectral_norm_upper",
    "invariance.mrpi_outer": "ocorobust.invariance:mrpi_outer",
    "plant.build_tightening": "ocorobust.plant:build_tightening",
    "plant.steady_state_manifold": "ocorobust.plant:steady_state_manifold",
}

LOOP_TARGETS = {
    "simkit.run_closed_loop": "ocorobust.simkit:run_closed_loop",
    "vehicle.run_scenario": "ocorobust.vehicle:run_scenario",
    "simkit._step_flags": "ocorobust.simkit:_step_flags",
    "oco.initialize": "ocorobust.oco_controller:initialize",
    "oco.step": "ocorobust.oco_controller:step",
    "oco.ogd_step": "ocorobust.oco_controller:ogd_step",
    "oco.project_manifold": "ocorobust.oco_controller:project_manifold",
    "oco.additional_input_optimized": "ocorobust.oco_controller:additional_input_optimized",
    "oco.additional_input_explicit": "ocorobust.oco_controller:additional_input_explicit",
    "oco.max_beta": "ocorobust.oco_controller:max_beta",
    "plant.stage_values": "ocorobust.plant:stage_values",
    "plant.stage_values_linear": "ocorobust.plant:stage_values_linear",
    "plant.optimal_steady_state": "ocorobust.plant:optimal_steady_state",
    "plant.membership_zu": "ocorobust.plant:membership_zu",
    "plant.SteadyStateManifold.contains_u": "ocorobust.plant:SteadyStateManifold.contains_u",
    "plant.PlantModel.tube_margin": "ocorobust.plant:PlantModel.tube_margin",
    "convexsets.HPolytope.contains": "ocorobust.convexsets:HPolytope.contains",
    "denseqp.solve": "ocorobust.denseqp:PrefactoredQp.solve",
}

CLI_TARGETS = {
    "cli.load_config": "ocorobust.cli:load_config",
    "cli.write_trace_csv": "ocorobust.cli:write_trace_csv",
    "cli.write_ledger_csv": "ocorobust.cli:write_ledger_csv",
    "simkit.invariant_report": "ocorobust.simkit:invariant_report",
}

LOOPS = ("simkit.run_closed_loop", "vehicle.run_scenario")
MONITORS = ("plant.membership_zu", "convexsets.HPolytope.contains",
            "plant.SteadyStateManifold.contains_u", "plant.PlantModel.tube_margin")
# Spans whose direct monitor calls count as the loop's monitors; calls made
# inside the controller (e.g. from oco.initialize) do not.
MONITOR_CONTEXT = LOOPS + ("simkit._step_flags",)
# The benchmark QP, the manifold projection and the rollout QP all go through
# PrefactoredQp.solve; the caller tells them apart.
QP_CALLERS = {
    "oco.project_manifold": "projection",
    "oco.additional_input_optimized": "rollout",
    "plant.optimal_steady_state": "benchmark",
}


def _solve_hook(tracer, arguments, sol, parent):
    caller = QP_CALLERS.get(parent, "other")
    tracer.counters[f"qp.{caller}.non_optimal"] += int(sol.status != "optimal")
    tracer.counters["qp.non_optimal"] += int(sol.status != "optimal")
    # Active set: inequalities with a positive multiplier plus all equalities.
    tracer.counters["qp.active"] += (int(np.count_nonzero(sol.ineq_multipliers > 0))
                                     + int(sol.eq_multipliers.size))


def _loop_hook(tracer, arguments, result, parent):
    trace = result[0]
    if "variant" in arguments:
        optimized = arguments["variant"] == "optimized"
    else:
        ctrl = arguments["controller"]
        optimized = ctrl.variant == "optimized" and ctrl.rollout_builder is not None
    c = tracer.counters
    loop = "vehicle.run_scenario" if "variant" in arguments else "simkit.run_closed_loop"
    c["steps"] += len(trace)
    c[f"steps.{loop}"] += len(trace)
    for rec in trace:
        if rec.t < 1:
            continue
        d = rec.diagnostics
        c["ctrl_steps"] += 1
        c["beta_lt1"] += int(d.beta < 1.0)
        if optimized:
            c["optimized_steps"] += 1
            if d.g_fallback:
                c["fallbacks"] += 1
                # No KKT residual means the QP raised; otherwise the QP
                # status or the c_g norm cap rejected its solution.
                key = "fallback_exception" if d.kkt_residual is None else "fallback_status_cap"
                c[key] += 1


HOOKS = {
    "denseqp.solve": _solve_hook,
    "simkit.run_closed_loop": _loop_hook,
    "vehicle.run_scenario": _loop_hook,
}


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(data, wall_s, overhead_ratio):
    """Per-layer metrics of one traced pass.

    ``data`` is a merged trace (``tracer.merge``), ``wall_s`` the wall time of
    the traced pass. Returns (metrics, absent metric names). Per-call means
    of a layer that was never called read 0.
    """
    spans, counters, absent_targets = data["spans"], data["counters"], data["absent"]
    by_name = {}
    for (name, _), rec in spans.items():
        agg = by_name.setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            agg[i] += rec[i]

    def calls(name):
        return by_name.get(name, [0, 0.0, 0.0])[0]

    def per_call_us(name, self_time=False):
        c, total, self_s = by_name.get(name, [0, 0.0, 0.0])
        return _ratio((self_s if self_time else total) * 1e6, c)

    steps = counters.get("steps", 0)
    metrics, absent = {}, []

    def put(name, value, unit, needs, any_of=False):
        # A metric is absent when a target it needs is gone; with ``any_of``,
        # when every one of them is gone.
        missing = [n in absent_targets for n in needs]
        if missing and (all(missing) if any_of else any(missing)):
            absent.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}

    qp = ("denseqp.solve",)
    put("loop.steps", steps, "count", ())
    put("denseqp.solve.calls", calls("denseqp.solve"), "count", qp)
    put("denseqp.solve.calls_per_step", _ratio(calls("denseqp.solve"), steps), "calls/step", qp)
    put("denseqp.solve.us", per_call_us("denseqp.solve"), "us", qp)
    put("denseqp.solve.self_share",
        _ratio(by_name.get("denseqp.solve", [0, 0, 0.0])[2], wall_s), "ratio", qp)
    put("denseqp.solve.active_mean",
        _ratio(counters.get("qp.active", 0), calls("denseqp.solve")), "rows", qp)
    put("denseqp.solve.non_optimal", counters.get("qp.non_optimal", 0), "count", qp)
    for parent, caller in QP_CALLERS.items():
        c, total, _ = spans.get(("denseqp.solve", parent), [0, 0.0, 0.0])
        put(f"denseqp.solve.{caller}.us", _ratio(total * 1e6, c), "us", qp + (parent,))

    step_samples = sorted(data["samples"].get("oco.step", []))
    put("oco.step.calls", calls("oco.step"), "count", ("oco.step",))
    if len(step_samples) >= 2:
        q = statistics.quantiles(step_samples, n=100, method="inclusive")
        p50, p99 = q[49] * 1e6, q[98] * 1e6
    else:
        p50 = p99 = 0.0
    put("oco.step.us_p50", p50, "us", ("oco.step",))
    put("oco.step.us_p99", p99, "us", ("oco.step",))
    for name in ("oco.step", "oco.ogd_step", "oco.project_manifold",
                 "oco.additional_input_optimized", "oco.max_beta"):
        put(f"{name}.self_us", per_call_us(name, self_time=True), "us", (name,))
    for name in ("oco.additional_input_explicit", "plant.stage_values",
                 "plant.stage_values_linear", "plant.optimal_steady_state"):
        put(f"{name}.us", per_call_us(name), "us", (name,))

    loops = dict(needs=LOOPS, any_of=True)
    optimized = counters.get("optimized_steps", 0)
    put("oco.optimized_steps", optimized, "count", **loops)
    put("oco.fallback_share", _ratio(counters.get("fallbacks", 0), optimized), "ratio", **loops)
    put("oco.fallback_exception", counters.get("fallback_exception", 0), "count", **loops)
    put("oco.fallback_status_cap", counters.get("fallback_status_cap", 0), "count", **loops)
    put("oco.beta_lt1_share",
        _ratio(counters.get("beta_lt1", 0), counters.get("ctrl_steps", 0)), "ratio", **loops)

    oss = "plant.optimal_steady_state"
    put(f"{oss}.calls", calls(oss), "count", (oss,))
    put(f"{oss}.solve_ratio",
        _ratio(spans.get(("denseqp.solve", oss), [0])[0], calls(oss)), "ratio", qp + (oss,))

    monitor_s = sum(rec[1] for (name, parent), rec in spans.items()
                    if name in MONITORS and parent in MONITOR_CONTEXT)
    put("simkit.monitors.us_per_step", _ratio(monitor_s * 1e6, steps), "us",
        MONITORS, any_of=True)
    for loop in LOOPS:
        self_s = by_name.get(loop, [0, 0.0, 0.0])[2]
        put(f"{loop}.self_us", _ratio(self_s * 1e6, counters.get(f"steps.{loop}", 0)),
            "us", (loop,))

    for name in CLI_TARGETS:
        put(f"{name}.ms", per_call_us(name) / 1e3, "ms", (name,))

    put("trace.overhead_ratio", overhead_ratio, "ratio", ())
    put("trace.self_coverage",
        _ratio(sum(rec[2] for rec in by_name.values()), wall_s), "ratio", ())
    return metrics, absent
