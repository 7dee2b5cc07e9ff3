"""Command line interface: validate, run, regret-sweep.

Configs are flat key = value files with [section] headers, validated against
the bundled JSON schema (config_schema.json) before anything is computed.
Exit codes: 0 clean, 1 runtime check or invariant failure, 2 config error.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from . import oco_controller as oco
from . import vehicle
from .convexsets import HPolytope, Zonotope
from .errors import AssumptionViolation, ConfigError, InfeasibleError, OcoRobustError
from .plant import (
    ModelConfig,
    QuadraticCost,
    build_model,
    build_tightening,
    cost_curvature,
    membership_zu,
    optimal_steady_state,
    steady_state_manifold,
)
from .simkit import (
    FLAG_NAMES,
    AlternatingTargetGenerator,
    DisturbancePolicy,
    PiecewiseSchedule,
    SimulationAborted,
    check_c_g,
    invariant_report,
    regret_scaling_experiment,
    run_closed_loop,
)


def _load_schema():
    with resources.files("ocorobust").joinpath("config_schema.json").open() as fh:
        return json.load(fh)


def parse_config_text(text):
    """Parse the raw file into {section: {key: (value_string, line_no)}}."""
    sections = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("empty section header", line=ln)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", line=ln)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=ln)
        if current is None:
            raise ConfigError("key outside any [section]", line=ln)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise ConfigError(f"duplicate key '{key}'", line=ln, field=f"{current}.{key}")
        sections[current][key] = (value.strip(), ln)
    return sections


def _convert(spec, raw, line, field):
    kind = spec["type"]
    try:
        if kind == "int":
            return _bounded(spec, int(raw))
        if kind == "float":
            return _bounded(spec, _finite(float(raw)))
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError("expected true/false")
        if kind == "str":
            return raw
        if kind == "enum":
            if raw not in spec["choices"]:
                raise ValueError(f"expected one of {spec['choices']}")
            return raw
        if kind == "vector":
            val = ast.literal_eval(raw)
            arr = np.asarray(val, dtype=float)
            if arr.ndim != 1:
                raise ValueError("expected a flat list")
            return _bounded(spec, _finite(arr))
        if kind == "matrix":
            val = ast.literal_eval(raw)
            arr = np.asarray(val, dtype=float)
            if arr.ndim != 2:
                raise ValueError("expected a list of rows")
            return _finite(arr)
    except (ValueError, SyntaxError) as exc:
        raise ConfigError(f"bad {kind} value ({exc})", line=line, field=field) from exc
    raise ConfigError(f"unknown type {kind} in schema", field=field)


def _bounded(spec, value):
    """``value`` (every entry of a vector) inside the schema's bounds: "min"
    and "max" inclusive, "above" exclusive."""
    arr = np.asarray(value)
    if "min" in spec and (arr < spec["min"]).any():
        raise ValueError(f"must be at least {spec['min']}")
    if "above" in spec and (arr <= spec["above"]).any():
        raise ValueError(f"must be above {spec['above']}")
    if "max" in spec and (arr > spec["max"]).any():
        raise ValueError(f"must be at most {spec['max']}")
    return value


def _finite(value):
    # No schema field has a meaningful inf or NaN (1e999 parses as inf).
    if not np.isfinite(value).all():
        raise ValueError("non-finite entry")
    return value


def load_config(path, command="run"):
    """Read, schema-validate, and type the config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    raw = parse_config_text(text)
    schema = _load_schema()
    cfg = {}
    cost_pieces = {}  # index -> (section name, piece)
    for name, entries in raw.items():
        if name.startswith("cost."):
            spec = schema["repeated_sections"]["cost"]["keys"]
            piece = {}
            for key, (val, ln) in entries.items():
                if key not in spec:
                    raise ConfigError("unknown key", line=ln, field=f"{name}.{key}")
                piece[key] = _convert(spec[key], val, ln, f"{name}.{key}")
            for key, kspec in spec.items():
                if kspec.get("required") and key not in piece:
                    raise ConfigError("missing required key", field=f"{name}.{key}")
            try:
                index = int(name.split(".", 1)[1])
            except ValueError:
                raise ConfigError(f"bad cost section name [{name}]", field=name)
            if index in cost_pieces:
                raise ConfigError(f"index repeats [{cost_pieces[index][0]}]", field=name)
            cost_pieces[index] = (name, piece)
            continue
        if name not in schema["sections"]:
            raise ConfigError(f"unknown section [{name}]", field=name)
        spec = schema["sections"][name]["keys"]
        out = {}
        for key, (val, ln) in entries.items():
            if key not in spec:
                raise ConfigError("unknown key", line=ln, field=f"{name}.{key}")
            out[key] = _convert(spec[key], val, ln, f"{name}.{key}")
        cfg[name] = out
    for name, sect in schema["sections"].items():
        out = cfg.setdefault(name, {})
        for key, kspec in sect["keys"].items():
            if key not in out and "default" in kspec:
                out[key] = kspec["default"]
    scenario = cfg["experiment"].get("scenario", "generic")
    demand = scenario if command != "regret-sweep" else "regret-sweep"
    for name, sect in schema["sections"].items():
        if demand in sect.get("required_for", []) or (
                command == "regret-sweep" and name in ("model", "controller")):
            for key, kspec in sect["keys"].items():
                if kspec.get("required") and key not in cfg.get(name, {}):
                    raise ConfigError("missing required key", field=f"{name}.{key}")
    ordered = [cost_pieces[index] for index in sorted(cost_pieces)]
    for (_, prev), (name, piece) in zip(ordered, ordered[1:]):
        if piece["start"] <= prev["start"]:
            raise ConfigError("start does not follow the previous piece's",
                              field=f"{name}.start")
    cfg["costs"] = [piece for _, piece in ordered]
    if scenario == "generic" or command == "regret-sweep":
        if not cfg["costs"]:
            raise ConfigError("at least one [cost.N] section is required", field="cost.0")
        if cfg["costs"][0]["start"] != 0:
            raise ConfigError("first cost piece must start at 0", field="cost.0.start")
    sweep = cfg["sweep"]
    if "path_levels" in sweep and "horizon" in sweep:
        # A level is a hop count (``AlternatingTargetGenerator.make``): each
        # hop needs a step of its own after step 0.
        horizon = sweep["horizon"]
        if any(level < 0 or round(level) >= horizon for level in sweep["path_levels"]):
            raise ConfigError(f"every level must be at least 0 and round to fewer hops than "
                              f"sweep.horizon = {horizon}", field="sweep.path_levels")
    if "direction" in sweep and "a" in cfg["model"]:
        # The hops move ref_x along it, one entry per state.
        states = len(cfg["model"]["a"])
        if len(sweep["direction"]) != states:
            raise ConfigError(f"needs one entry per state of model.a ({states})",
                              field="sweep.direction")
    return cfg


def _model_config(cfg):
    m = cfg["model"]
    c = cfg["controller"]
    return ModelConfig(
        a=m["a"], b=m["b"], k=m["k"], mu=c["mu"],
        x_set=HPolytope.box(m["x_lb"], m["x_ub"]),
        u_set=HPolytope.box(m["u_lb"], m["u_ub"]),
        w_set=Zonotope.box(m["w_halfwidth"]),
        v_set=Zonotope.box(m["v_halfwidth"]),
        rpi_epsilon=c.get("rpi_epsilon"),
        membership_tol=c["membership_tol"],
    )


def _schedule(cfg):
    pieces = tuple(
        (p["start"], QuadraticCost(p["q_x"], p["q_u"], p["ref_x"], p["ref_u"]))
        for p in cfg["costs"])
    return PiecewiseSchedule(pieces)


def _controller(cfg, model, schedule):
    c = cfg["controller"]
    builder = None
    if c["variant"] == "optimized":
        cost0 = schedule.cost_at(0)
        builder = oco.QuadraticRolloutBuilder(model, cost0.q_x, cost0.q_u)
    return oco.ControllerConfig(gamma=c["gamma"], c_g=c.get("c_g"), rollout_builder=builder)


def _vehicle_params(cfg):
    v = dict(cfg.get("vehicle", {}))
    k = v.pop("k", None)
    if k is not None:
        k = tuple(tuple(row) for row in np.asarray(k, float))
    return vehicle.VehicleParams(
        mu=cfg["controller"]["mu"],
        gamma=cfg["controller"]["gamma"],
        c_g=cfg["controller"].get("c_g", 1000.0),
        shrink=cfg["controller"]["shrink"],
        k=k,
        **v,
    )


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


FLAG_COLUMNS = FLAG_NAMES + ("tube_marginal", "resid_ok")


def _csv_lines(header, t, values, flags=None):
    """CSV lines: the header, then per row t, the float values and any 0/1 flags."""
    flags = np.empty((len(t), 0), bool) if flags is None else np.column_stack(flags)
    return [",".join(header)] + [
        ",".join([str(step), *map(repr, row), *("1" if f else "0" for f in ok)])
        for step, row, ok in zip(t.tolist(), values.tolist(), flags.tolist())]


def write_trace_csv(path, trace):
    n, m = trace.x_true.shape[1], trace.u.shape[1]
    cols = (["t"]
            + [f"x_true_{i}" for i in range(n)]
            + [f"x_meas_{i}" for i in range(n)]
            + [f"u_{i}" for i in range(m)]
            + [f"w_{i}" for i in range(n)]
            + [f"v_{i}" for i in range(n)]
            + ["beta", "g_norm", "cost", "benchmark_cost", "cum_regret"]
            + [f"flag_{name}" for name in FLAG_COLUMNS])
    values = np.column_stack([trace.x_true, trace.x_meas, trace.u, trace.w, trace.v,
                              trace.beta, trace.g_norm, trace.cost, trace.benchmark_cost,
                              np.cumsum(trace.cost - trace.benchmark_cost)])
    flags = [trace.flags.get(name, np.ones(len(trace), bool)) for name in FLAG_COLUMNS]
    Path(path).write_text("\n".join(_csv_lines(cols, trace.t, values, flags)) + "\n")


def write_ledger_csv(path, trace, ledger):
    n, m = trace.benchmark_theta.shape[1], trace.benchmark_eta.shape[1]
    cols = (["t", "cost", "benchmark_cost"]
            + [f"theta_{i}" for i in range(n)]
            + [f"eta_{i}" for i in range(m)])
    values = np.column_stack([trace.cost, trace.benchmark_cost, trace.benchmark_theta,
                              trace.benchmark_eta])
    lines = _csv_lines(cols, trace.t, values)
    lines += [f"# {name} = {_fmt(total)}" for name, total in asdict(ledger).items()]
    Path(path).write_text("\n".join(lines) + "\n")


def _output(args, cfg):
    """The command's output directory, made if missing, and whether it is quiet."""
    out_dir = Path(args.out or cfg["output"]["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, args.quiet or cfg["output"]["quiet"]


def _generic_setup(cfg):
    """The generic scenario's model, tables, manifold, schedule and controller."""
    model = build_model(_model_config(cfg))
    tables = build_tightening(model)
    manifold = steady_state_manifold(model, model.p_rpi, shrink=cfg["controller"]["shrink"])
    schedule = _schedule(cfg)
    return model, tables, manifold, schedule, _controller(cfg, model, schedule)


def cmd_run(args):
    cfg = load_config(args.config, command="run")
    if args.seed is not None and args.seed < 0:
        raise ConfigError("must be at least 0", field="--seed")
    out_dir, quiet = _output(args, cfg)
    scenario = cfg["experiment"]["scenario"]
    horizon = cfg["experiment"]["horizon"]
    n_seeds = cfg["experiment"]["seeds"]
    base_seed = args.seed if args.seed is not None else cfg["disturbance"]["seed"]
    if args.variant:
        cfg["controller"]["variant"] = args.variant

    if scenario == "vehicle":
        params = _vehicle_params(cfg)
        setup = vehicle.vehicle_setup(params)
        model = setup.model
    else:
        model, tables, manifold, schedule, controller = _generic_setup(cfg)
        u0 = cfg["controller"].get("zeta0_u")
        u0 = np.zeros(model.m) if u0 is None else np.asarray(u0, float)
        zeta0 = (model.g_k @ u0, u0)
        x0 = cfg["model"].get("x0")
        abort = cfg["experiment"]["abort_on_violation"]
    check_c_g(params.c_g if scenario == "vehicle" else controller.effective_c_g(model), model)

    results = []
    for i in range(n_seeds):
        seed = base_seed + i
        try:
            if scenario == "vehicle":
                results.append(vehicle.run_scenario(cfg["controller"]["variant"], seed, params,
                                                    horizon, setup=setup))
            else:
                policy = DisturbancePolicy(kind=cfg["disturbance"]["kind"], seed=seed,
                                           scale=cfg["disturbance"]["scale"])
                trace, ledger = run_closed_loop(model, tables, manifold, controller, schedule,
                                                policy, horizon, zeta0=zeta0, x0=x0,
                                                abort_on_violation=abort)
                results.append((trace, ledger, None))
        except SimulationAborted as exc:
            write_trace_csv(out_dir / "trace_partial.csv", exc.trace)
            print(f"aborted: seed {seed}: {exc}", file=sys.stderr)
            return 1
        except OcoRobustError as exc:
            print(f"error: seed {seed}: {exc}", file=sys.stderr)
            return 1

    total_violations, report_lines, regrets = 0, [], []
    for i, (trace, ledger, metrics) in enumerate(results):
        seed = base_seed + i
        write_trace_csv(out_dir / f"trace_{seed:04d}.csv", trace)
        write_ledger_csv(out_dir / f"ledger_{seed:04d}.csv", trace, ledger)
        report = invariant_report(trace, model)
        resid = int(np.count_nonzero(~trace.flags["resid_ok"]))
        total_violations += report.total_violations + resid
        regrets.append(ledger.cum_regret)
        report_lines.append(f"seed {seed}:")
        report_lines.extend("  " + line for line in report.lines())
        if metrics or resid:
            report_lines.append(f"  model-mismatch violations: {resid}")
        if metrics:
            if metrics.get("phase2_standoff_gap_m") is not None:
                report_lines.append(
                    f"  phase2 standoff gap [m]: {metrics['phase2_standoff_gap_m']:.3f}")
            if metrics["phase3_settled_speed_kmh"] is not None:
                report_lines.append(
                    f"  phase3 settled speed [km/h]: {metrics['phase3_settled_speed_kmh']:.3f}")
    (out_dir / "invariants.txt").write_text("\n".join(report_lines) + "\n")
    summary = (f"run scenario={scenario} seeds={n_seeds} horizon={horizon} "
               f"violations={total_violations} mean_regret={np.mean(regrets):.6g}")
    if not quiet:
        print(summary)
    return 0 if total_violations == 0 else 1


def cmd_regret_sweep(args):
    cfg = load_config(args.config, command="regret-sweep")
    out_dir, quiet = _output(args, cfg)
    sw = cfg["sweep"]
    model, tables, manifold, schedule, controller = _generic_setup(cfg)
    gen = AlternatingTargetGenerator(
        model=model, manifold=manifold, base_cost=schedule.cost_at(0),
        direction=tuple(sw["direction"]), levels=tuple(sw["path_levels"]),
        hop_size=sw["hop_size"], horizon=sw["horizon"])
    result = regret_scaling_experiment(
        model, tables, manifold, controller, gen,
        dist_levels=list(sw["noise_levels"]),
        seeds=list(range(sw["seeds_per_cell"])),
        horizon=sw["horizon"], base_seed=sw["base_seed"])

    cols = ["path_level", "noise_level", "seed", "path_length", "w_energy",
            "v_energy", "regret"]
    lines = [",".join(cols)]
    for row in result.rows:
        lines.append(",".join(_fmt(row[c]) if c != "seed" else str(row[c]) for c in cols))
    (out_dir / "sweep_rows.csv").write_text("\n".join(lines) + "\n")

    if result.coefficients is None:
        (out_dir / "sweep_fit.txt").write_text("fit skipped: degenerate design\n")
        if not quiet:
            print("regret-sweep: fit skipped (degenerate design)")
        return 0
    c0, cp, cn = result.coefficients
    fit_text = (f"regret ~ c0 + c_path * path_length + c_noise * (w_energy + v_energy)\n"
                f"c0 = {c0:.6g}\nc_path = {cp:.6g}\nc_noise = {cn:.6g}\n"
                f"r_squared = {result.r_squared:.6f}\n")
    (out_dir / "sweep_fit.txt").write_text(fit_text)
    if not quiet:
        print(f"regret-sweep: c0={c0:.4g} c_path={cp:.4g} c_noise={cn:.4g} "
              f"R2={result.r_squared:.4f}")
    if cp < -1e-9 or cn < -1e-9:
        print("regret-sweep: negative fit coefficient", file=sys.stderr)
        return 1
    return 0


def _validation_checks(cfg):
    """Stepwise assumption checks; returns a list of (name, status, detail)."""
    checks = []
    scenario = cfg["experiment"]["scenario"]

    def record(name, ok, detail=""):
        checks.append((name, "pass" if ok else "FAIL", detail))

    if scenario == "vehicle":
        params = _vehicle_params(cfg)
        model_cfg = vehicle.vehicle_model_config(params)
        gamma, shrink = params.gamma, params.shrink
        c_g = params.c_g
        x0 = [0.0, vehicle.kmh_to_ms(params.initial_speed_kmh) - vehicle.DELTA_BAR]
        zeta0_u = None
        cost0 = vehicle.PHASE1_COST
    else:
        model_cfg = _model_config(cfg)
        gamma, shrink = cfg["controller"]["gamma"], cfg["controller"]["shrink"]
        c_g = cfg["controller"].get("c_g")
        x0 = cfg["model"].get("x0")
        zeta0_u = cfg["controller"].get("zeta0_u")
        cost0 = _schedule(cfg).cost_at(0)

    try:
        model = build_model(model_cfg)
    except AssumptionViolation as exc:
        for label, detail in exc.checks:
            record(label, True, detail)
        record(exc.label, False, exc.detail)
        return checks, None
    except OcoRobustError as exc:
        record("model assembly", False, str(exc))
        return checks, None
    for label, detail in model.checks:
        record(label, True, detail)
    x0 = np.zeros(model.n) if x0 is None else np.asarray(x0, float)
    try:
        tables = build_tightening(model)
        record("tightened stage sets nonempty", True)
    except InfeasibleError as exc:
        record("tightened stage sets nonempty", False, str(exc))
        return checks, model
    try:
        manifold = steady_state_manifold(model, model.p_rpi, shrink=shrink)
        record("steady-state manifold nonempty with 0 interior", True)
    except InfeasibleError as exc:
        record("steady-state manifold nonempty with 0 interior", False, str(exc))
        return checks, model
    try:
        check_c_g(oco.ControllerConfig(gamma=gamma, c_g=c_g).effective_c_g(model), model)
        covers = True
    except OcoRobustError:
        covers = False
    record("c_g covers the explicit-solution norm", covers, f"required >= {model.c_g_min:.4g}")
    try:
        if scenario == "vehicle":
            zeta0 = optimal_steady_state(manifold, cost0, model)
        else:
            u0 = np.zeros(model.m) if zeta0_u is None else np.asarray(zeta0_u, float)
            zeta0 = (model.g_k @ u0, u0)
        state = oco.initialize(model, tables, manifold, zeta0, x0)
        ok0, worst0 = membership_zu(tables, model, x0, state.u_pred)
        record("initial plan feasible (initialization assumption)", ok0,
               f"worst residual {worst0:.2e}")
    except OcoRobustError as exc:
        record("initial plan feasible (initialization assumption)", False, str(exc))
    record("x0 inside X", model.x_set.contains(x0, tol=model.membership_tol))
    try:
        alpha_k, l_k = cost_curvature(cost0, model)
    except AssumptionViolation as exc:
        record("gamma within contraction range", False, exc.detail)
        return checks, model
    bound = 2.0 / (alpha_k + l_k)
    if gamma > bound:
        checks.append(("gamma within contraction range",
                       "warn", f"gamma={gamma:.3g} exceeds 2/(alpha+l)={bound:.3g}; "
                       "regret bound guarantees need a smaller step"))
    else:
        checks.append(("gamma within contraction range", "pass", f"bound {bound:.3g}"))
    return checks, model


def cmd_validate(args):
    cfg = load_config(args.config, command="validate")
    checks, _ = _validation_checks(cfg)
    failed = [c for c in checks if c[1] == "FAIL"]
    for name, status, detail in checks:
        line = f"[{status:>4}] {name}"
        if detail:
            line += f"  ({detail})"
        print(line)
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ocorobust",
        description="Robust online convex optimization control toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("validate", cmd_validate), ("run", cmd_run),
                     ("regret-sweep", cmd_regret_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to config file")
        p.add_argument("--seed", type=int, default=None, help="override base seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--variant", choices=["explicit", "optimized"], default=None)
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OcoRobustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
