"""Closed-loop simulation, disturbance sampling, regret accounting, monitors.

The loop enforces strict online ordering: the controller at step t sees the
measured state and the gradient of the previous cost only; the step-t cost is
revealed after u_t is applied. The benchmark is the per-step optimal steady
state, recomputed from each revealed cost.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import oco_controller as oco
from .errors import OcoRobustError
from .plant import SteadyStateBenchmark, optimal_steady_state, worst_stage_residuals

TUBE_TOL = 1e-6
BETA_WINDOW_MARGIN = 1e-6
BETA_DISTANCE_FLOOR = 1e-6


@dataclass(frozen=True)
class DisturbancePolicy:
    kind: str = "uniform_box"  # zero | uniform_box | worst_corner
    seed: int = 0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "uniform_box", "worst_corner"):
            raise ValueError(f"unknown disturbance kind '{self.kind}'")
        if not 0.0 <= self.scale <= 1.0:
            raise ValueError("scale must be in [0, 1] to keep samples inside the sets")


class _Sampler:
    """Per-run disturbance streams; every emitted point stays in its set."""

    def __init__(self, policy, w_set, v_set):
        self.policy = policy
        self.w_set, self.v_set = w_set, v_set
        w_seed, v_seed = np.random.SeedSequence(policy.seed).spawn(2)
        self._w_rng = np.random.default_rng(w_seed)
        self._v_rng = np.random.default_rng(v_seed)

    def _draw(self, z, rng):
        kind = self.policy.kind
        if kind == "zero":
            return np.zeros(z.dim)
        if kind == "worst_corner":
            return self.policy.scale * z.corner()
        return z.sample(rng, scale=self.policy.scale)

    def next_w(self):
        return self._draw(self.w_set, self._w_rng)

    def next_v(self):
        return self._draw(self.v_set, self._v_rng)


@dataclass
class RegretLedger:
    per_step: list = field(default_factory=list)  # (cost, benchmark_cost, theta, eta)
    cum_regret: float = 0.0
    path_length: float = 0.0
    w_energy: float = 0.0
    v_energy: float = 0.0

    def record(self, cost_val, bench_val, theta, eta, w, v, prev_zeta):
        self.per_step.append((cost_val, bench_val, theta.copy(), eta.copy()))
        self.cum_regret += cost_val - bench_val
        if prev_zeta is not None:
            zeta = np.concatenate([theta, eta])
            self.path_length += float(np.linalg.norm(zeta - prev_zeta))
        self.w_energy += float(np.linalg.norm(w))
        self.v_energy += float(np.linalg.norm(v))


@dataclass
class TraceRecord:
    t: int
    x_true: np.ndarray
    x_meas: np.ndarray
    u: np.ndarray
    w: np.ndarray
    v: np.ndarray
    diagnostics: oco.StepDiagnostics
    invariant_flags: dict


class SimulationAborted(OcoRobustError):
    """Raised when a run stops early; carries the partial trace and ledger."""

    def __init__(self, message, trace, ledger, t):
        self.trace = trace
        self.ledger = ledger
        self.t = t
        super().__init__(f"simulation aborted at t={t}: {message}")


class _MonitorLog:
    """Inputs of the per-step invariant monitors of one run.

    Each step writes one row of preallocated (horizon, .) arrays; the trace
    records hold views of the x_true, x_meas and u rows. ``_step_flags``
    turns any range of rows into flags in one batched pass.
    """

    def __init__(self, model, tables, manifold, c_g, horizon):
        self.model, self.tables, self.manifold, self.c_g = model, tables, manifold, c_g
        n, m = model.n, model.m
        self.x_true = np.empty((horizon, n))
        self.x_meas = np.empty((horizon, n))
        self.u = np.empty((horizon, m))
        self.u_pred = np.empty((horizon, model.mu * m))
        self.u_ss = np.empty((horizon, m))
        self.pred_state = np.empty((horizon, n))
        self.theta_hat = np.empty((horizon, n))
        self.g_norm = np.empty(horizon)
        self.candidate_ok = np.empty(horizon, bool)
        self.extra = []  # the plant's extra flags of each step
        self.flagged = 0  # records of the trace that have their flags

    def record(self, t, x_true, x_meas, u, state, diag, extra):
        self.x_true[t] = x_true
        self.x_meas[t] = x_meas
        self.u[t] = u
        self.u_pred[t] = state.u_pred
        self.u_ss[t] = state.u_ss
        self.pred_state[t] = diag.pred_state
        self.theta_hat[t] = diag.ogd_target[0]
        self.g_norm[t] = diag.g_norm
        self.candidate_ok[t] = diag.candidate_feasible
        self.extra.append(extra)

    def flag(self, trace):
        """Set the flags of the records added to ``trace`` since the last call."""
        lo, hi = self.flagged, len(trace)
        if lo < hi:
            for rec, flags in zip(trace[lo:], _step_flags(self, lo, hi)):
                rec.invariant_flags = flags
            self.flagged = hi


def _step_flags(log, lo, hi):
    """Invariant flags of steps lo..hi-1 of a run, one dict per step.

    Every monitor is a matrix product over the logged rows: state and input
    membership against X and U, the plan against the tightened stage-residual
    map, the steady-state input against S-bar, the c_g cap, and the step's
    prediction against the previous steady state through the tail-set
    facets. A NaN input fails its monitor.
    """
    model, tables, manifold = log.model, log.tables, log.manifold
    tol = model.membership_tol
    rows = slice(lo, hi)
    plan = worst_stage_residuals(tables, log.x_meas[rows], log.u_pred[rows])
    dist = np.linalg.norm(log.theta_hat[rows] - log.pred_state[rows], axis=1)
    # The tube compares step t's prediction with G_K u_ss of step t - 1; step
    # 0 has no predecessor and passes.
    tube_ok = np.ones(hi - lo, bool)
    tube_marginal = np.zeros(hi - lo, bool)
    first = max(lo, 1)
    if first < hi:
        margin = model.tube_margins(log.pred_state[first:hi]
                                    - log.u_ss[first - 1:hi - 1] @ model.g_k.T)
        tube_ok[first - lo:] = margin <= TUBE_TOL
        tube_marginal[first - lo:] = tube_ok[first - lo:] & (margin > -model.tube_band)
    columns = {
        "state_ok": model.x_set.violations(log.x_true[rows]) <= tol,
        "input_ok": model.u_set.violations(log.u[rows]) <= tol,
        "candidate_ok": log.candidate_ok[rows],
        "plan_ok": plan <= tol,
        "zs_ok": manifold.sbar.violations(log.u_ss[rows]) <= 1e-7,
        "g_cap_ok": log.g_norm[rows] <= log.c_g * dist + 1e-8,
        "tube_ok": tube_ok,
        "tube_marginal": tube_marginal,
    }
    names = tuple(columns)
    out = []
    for values, extra in zip(zip(*(c.tolist() for c in columns.values())), log.extra[rows]):
        flags = dict(zip(names, values))
        flags.update(extra)
        out.append(flags)
    return out


def closed_loop(model, tables, manifold, controller, plant, horizon, zeta0,
                abort_on_violation=False):
    """The online loop for any plant; returns (trace, ledger).

    ``plant.observe(t)`` returns (x_true, x_meas, v, cost_t) and
    ``plant.advance(u)`` applies u and returns (w, extra invariant flags).
    The controller gets cost_t only at step t + 1; the benchmark steady state
    is re-solved only when cost_t is a new cost object, by one benchmark
    solver that is rebuilt only when cost_t's weight arrays change. The
    invariant flags are computed in one batched pass after the run, or after
    each step under ``abort_on_violation``; a ``SimulationAborted`` carries a
    trace whose records all have their flags.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    x_true, x_meas, v, cost_t = plant.observe(0)
    if not model.x_set.contains(x_true, tol=model.membership_tol):
        raise OcoRobustError("x0 violates the state constraints")
    c_g = controller.effective_c_g(model)
    if c_g < model.c_g_min * (1 - 1e-9):
        raise OcoRobustError(
            f"c_g={c_g:.3g} below the required norm bound {model.c_g_min:.3g}")
    state = oco.initialize(model, tables, manifold, zeta0, x_meas)
    u = oco.control_input(state, model, x_meas)
    diag = oco.StepDiagnostics(beta=0.0, g_norm=0.0, pred_state=model.g_k @ state.u_ss,
                               ogd_target=state.zeta_hat, candidate_feasible=True)

    log = _MonitorLog(model, tables, manifold, c_g, horizon)
    trace, ledger = [], RegretLedger()
    prev_zeta = bench_cost = benchmark = None
    for t in range(horizon):
        if t > 0:
            prev_cost = cost_t
            x_true, x_meas, v, cost_t = plant.observe(t)
            try:
                u, state, diag = oco.step(state, model, tables, manifold, x_meas,
                                          prev_cost, controller)
            except OcoRobustError as exc:
                log.flag(trace)
                raise SimulationAborted(str(exc), trace, ledger, t) from exc

        if cost_t is not bench_cost:
            if benchmark is None or not benchmark.serves(cost_t):
                benchmark = SteadyStateBenchmark(manifold, model, cost_t)
            theta_t, eta_t = optimal_steady_state(manifold, cost_t, model, benchmark)
            bench_cost = cost_t
        cost_val = cost_t.value(x_true, u)
        bench_val = cost_t.value(theta_t, eta_t + model.k @ theta_t)

        w, extra_flags = plant.advance(u)
        log.record(t, x_true, x_meas, u, state, diag, extra_flags)
        ledger.record(cost_val, bench_val, theta_t, eta_t, w, v, prev_zeta)
        prev_zeta = np.concatenate([theta_t, eta_t])
        trace.append(TraceRecord(t=t, x_true=log.x_true[t], x_meas=log.x_meas[t],
                                 u=log.u[t], w=w.copy(), v=v.copy(),
                                 diagnostics=diag, invariant_flags=None))
        if abort_on_violation:
            log.flag(trace)
            # tube_marginal is an early warning, not a violation
            violated = [name for name, ok in trace[t].invariant_flags.items()
                        if not ok and name != "tube_marginal"]
            if violated:
                raise SimulationAborted(f"invariant violation: {', '.join(violated)}",
                                        trace, ledger, t)
    log.flag(trace)
    return trace, ledger


class _LtiPlant:
    """x+ = A x + B u + w, measured as x + v, with W/V drawn by a policy."""

    def __init__(self, model, cost_schedule, dist_policy, x0):
        self.model, self.cost_schedule = model, cost_schedule
        self.sampler = _Sampler(dist_policy, model.w_set, model.v_set)
        self.x, self.v = x0, self.sampler.next_v()

    def observe(self, t):
        return self.x, self.x + self.v, self.v, self.cost_schedule.cost_at(t)

    def advance(self, u):
        w = self.sampler.next_w()
        self.x = self.model.a @ self.x + self.model.b @ u + w
        self.v = self.sampler.next_v()
        return w, {}


def run_closed_loop(model, tables, manifold, controller, cost_schedule, dist_policy,
                    horizon, zeta0=None, x0=None, abort_on_violation=False):
    """Simulate Eq-style dynamics x+ = Ax + Bu + w with noisy measurements.

    Returns (trace, ledger). Deterministic for a fixed policy seed and config.
    """
    x0 = np.zeros(model.n) if x0 is None else np.asarray(x0, float)
    if zeta0 is None:
        zeta0 = (np.zeros(model.n), np.zeros(model.m))
    plant = _LtiPlant(model, cost_schedule, dist_policy, x0)
    return closed_loop(model, tables, manifold, controller, plant, horizon, zeta0,
                       abort_on_violation=abort_on_violation)


FLAG_NAMES = ("state_ok", "input_ok", "candidate_ok", "plan_ok", "zs_ok",
              "g_cap_ok", "tube_ok")


@dataclass
class InvariantReport:
    steps: int
    violation_counts: dict
    tube_marginal_count: int
    beta_windows: int
    beta_window_violations: int
    max_active_window_product: float

    @property
    def total_violations(self):
        return int(sum(self.violation_counts.values())) + self.beta_window_violations

    def lines(self):
        out = [f"steps checked: {self.steps}"]
        for name in FLAG_NAMES:
            out.append(f"{name:<14} violations: {self.violation_counts[name]}")
        out.append(f"tube marginal hits: {self.tube_marginal_count}")
        out.append(
            f"beta windows: {self.beta_windows}, violations: {self.beta_window_violations}, "
            f"max active product: {self.max_active_window_product:.6f}")
        return out


def invariant_report(trace, model, window_margin=BETA_WINDOW_MARGIN,
                     distance_floor=BETA_DISTANCE_FLOOR):
    """Re-check and summarize the per-step invariants of a finished run.

    State and input membership are recomputed from the recorded true states
    and inputs; the remaining flags are taken from the run. Windowed products
    prod(1 - beta) over mu+1 consecutive steps must stay away from one
    whenever the steady-state estimate was meaningfully far from the
    prediction somewhere in the window.
    """
    counts = {name: 0 for name in FLAG_NAMES}
    marginal = 0
    tol = model.membership_tol
    state_ok = model.x_set.violations(
        np.array([rec.x_true for rec in trace]).reshape(-1, model.n)) <= tol
    input_ok = model.u_set.violations(
        np.array([rec.u for rec in trace]).reshape(-1, model.m)) <= tol
    for rec, x_ok, u_ok in zip(trace, state_ok.tolist(), input_ok.tolist()):
        rechecked = dict(rec.invariant_flags, state_ok=x_ok, input_ok=u_ok)
        for name in FLAG_NAMES:
            if not rechecked.get(name, True):
                counts[name] += 1
        if rec.invariant_flags.get("tube_marginal"):
            marginal += 1
    later = [rec.diagnostics for rec in trace if rec.t >= 1]
    betas = np.array([d.beta for d in later], dtype=float)
    theta_hats = np.array([d.ogd_target[0] for d in later]).reshape(-1, model.n)
    preds = np.array([d.pred_state for d in later]).reshape(-1, model.n)
    dists = np.linalg.norm(theta_hats - preds, axis=1)
    win = model.mu + 1
    windows = win_viol = 0
    max_active = 0.0
    if len(betas) >= win:
        prods = np.prod(sliding_window_view(1.0 - betas, win), axis=1)
        active = sliding_window_view(dists > distance_floor, win).any(axis=1)
        windows = len(prods)
        win_viol = int(np.count_nonzero(active & (prods > 1.0 - window_margin)))
        max_active = float(prods[active].max(initial=0.0))
    return InvariantReport(
        steps=len(trace),
        violation_counts=counts,
        tube_marginal_count=marginal,
        beta_windows=windows,
        beta_window_violations=win_viol,
        max_active_window_product=max_active,
    )


@dataclass(frozen=True)
class ConstantSchedule:
    cost: object

    def cost_at(self, t):
        return self.cost


@dataclass(frozen=True)
class PiecewiseSchedule:
    """Piecewise-constant cost schedule; pieces are (start_step, cost)."""

    pieces: tuple

    def __post_init__(self):
        starts = [s for s, _ in self.pieces]
        if not starts or starts[0] != 0 or starts != sorted(starts):
            raise ValueError("pieces must start at 0 and be sorted by start step")

    def cost_at(self, t):
        current = self.pieces[0][1]
        for start, cost in self.pieces:
            if start <= t:
                current = cost
            else:
                break
        return current


def max_workers(n_jobs):
    env = os.environ.get("OCO_MAX_THREADS")
    if env is not None:
        try:
            cap = max(1, int(env))
        except ValueError:
            cap = 1
    else:
        cap = min(os.cpu_count() or 1, 8)
    return max(1, min(cap, n_jobs))


def replicate_map(fn, args_list):
    """Run fn over argument tuples, in order, optionally across processes."""
    args_list = list(args_list)
    workers = max_workers(len(args_list))
    if workers <= 1 or len(args_list) <= 1:
        return [fn(*args) for args in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in args_list]
        return [f.result() for f in futures]


@dataclass(frozen=True)
class AlternatingTargetGenerator:
    """Cost paths for the regret sweep: the state target hops along a line.

    A level is a hop count: that many target switches of fixed amplitude
    ``hop_size`` along ``direction``, evenly spread over the horizon, so the
    benchmark path length grows linearly with the level. Level 0 is the
    constant cost; every run starts at the optimum of its first piece.
    """

    model: object
    manifold: object
    base_cost: object
    direction: tuple
    levels: tuple
    hop_size: float = 1.0
    horizon: int = 400

    def make(self, level):
        from .plant import QuadraticCost

        direction = np.asarray(self.direction, float)
        base = self.base_cost
        n_hops = int(round(level))
        if n_hops <= 0:
            schedule = ConstantSchedule(base)
        else:
            # Toggle between the base target and base + hop so every switch
            # moves the benchmark by the same distance.
            pieces = [(0, base)]
            for i in range(n_hops):
                start = int(round((i + 1) * self.horizon / (n_hops + 1)))
                ref = base.ref_x + (i % 2 == 0) * self.hop_size * direction
                pieces.append((start, QuadraticCost(
                    q_x=base.q_x, q_u=base.q_u, ref_x=ref, ref_u=base.ref_u)))
            schedule = PiecewiseSchedule(tuple(pieces))
        theta0, eta0 = optimal_steady_state(self.manifold, schedule.cost_at(0), self.model)
        return schedule, (theta0, eta0), theta0


@dataclass
class SweepResult:
    rows: list  # dicts: path_level, noise_level, seed, path_length, w_energy, v_energy, regret
    coefficients: np.ndarray | None  # (c0, c_path, c_noise)
    r_squared: float | None


def regret_scaling_experiment(model, tables, manifold, controller, path_generator,
                              dist_levels, seeds, horizon, base_seed=0):
    """Grid of runs over cost-path levels and disturbance scales.

    ``path_generator(level)`` returns (schedule, zeta0, x0) for one path
    level. Emits one row per (level, scale, seed) with the measured path
    length, disturbance energies, and final regret, plus an affine fit
    regret ~ c0 + c_path * path + c_noise * (w_energy + v_energy).
    """
    rows = []
    jobs = []
    for level in path_generator.levels:
        schedule, zeta0, x0 = path_generator.make(level)
        for scale in dist_levels:
            for seed in seeds:
                policy = DisturbancePolicy(
                    kind="zero" if scale == 0.0 else "uniform_box",
                    seed=base_seed + seed, scale=float(scale))
                jobs.append((level, scale, seed, schedule, zeta0, x0, policy))
    for level, scale, seed, schedule, zeta0, x0, policy in jobs:
        _, ledger = run_closed_loop(model, tables, manifold, controller, schedule,
                                    policy, horizon, zeta0=zeta0, x0=x0)
        rows.append({
            "path_level": level,
            "noise_level": scale,
            "seed": seed,
            "path_length": ledger.path_length,
            "w_energy": ledger.w_energy,
            "v_energy": ledger.v_energy,
            "regret": ledger.cum_regret,
        })
    coeffs, r2 = fit_affine(rows)
    return SweepResult(rows=rows, coefficients=coeffs, r_squared=r2)


def fit_affine(rows):
    """Least-squares fit regret ~ c0 + c_p * path + c_n * (w+v energy).

    The regret of a run started at the optimum has no constant part, so a
    small negative intercept (curvature leaking into the constant) is
    resolved by refitting through the origin.
    """
    if len(rows) < 3:
        return None, None
    a = np.array([[1.0, r["path_length"], r["w_energy"] + r["v_energy"]] for r in rows])
    y = np.array([r["regret"] for r in rows])
    if np.linalg.matrix_rank(a) < 3:
        return None, None
    coeffs, *_ = np.linalg.lstsq(a, y, rcond=None)
    if coeffs[0] < 0.0:
        slopes, *_ = np.linalg.lstsq(a[:, 1:], y, rcond=None)
        coeffs = np.concatenate([[0.0], slopes])
    pred = a @ coeffs
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return coeffs, r2
