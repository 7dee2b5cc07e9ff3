"""Closed-loop simulation, disturbance sampling, regret accounting, monitors.

The loop enforces strict online ordering: the controller at step t sees the
measured state and the gradient of the previous cost only; the step-t cost is
revealed after u_t is applied. The benchmark is the per-step optimal steady
state of each revealed cost; the controller never reads it, so it is solved
for the whole run after the loop.
"""

from __future__ import annotations

import copy
import functools
import os
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import oco_controller as oco
from .errors import DimensionMismatch, OcoRobustError, StepError
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
    """A run's disturbance streams, drawn whole when built: ``w`` holds
    ``horizon`` rows of W and ``v`` holds ``horizon + 1`` rows of V, one
    generator call per stream. Every row stays in its set."""

    def __init__(self, policy, w_set, v_set, horizon):
        w_seed, v_seed = np.random.SeedSequence(policy.seed).spawn(2)
        self.w = self._draw(policy, w_set, np.random.default_rng(w_seed), horizon)
        self.v = self._draw(policy, v_set, np.random.default_rng(v_seed), horizon + 1)

    @staticmethod
    def _draw(policy, z, rng, count):
        if policy.kind == "zero":
            return np.zeros((count, z.dim))
        if policy.kind == "worst_corner":
            return np.tile(policy.scale * z.corner(), (count, 1))
        return z.samples(rng, count, scale=policy.scale)


@dataclass
class RegretLedger:
    """Totals of a run, summed in step order after it (see ``RunRecord.finish``)."""

    cum_regret: float = 0.0
    path_length: float = 0.0
    w_energy: float = 0.0
    v_energy: float = 0.0


@dataclass
class TraceRecord:
    """One step of a run: a view built on demand from a ``RunRecord`` row."""

    t: int
    x_true: np.ndarray
    x_meas: np.ndarray
    u: np.ndarray
    w: np.ndarray
    v: np.ndarray
    diagnostics: oco.StepDiagnostics
    invariant_flags: dict


class SimulationAborted(OcoRobustError):
    """Raised when a run stops early; carries the rows done, flagged, and their ledger."""

    def __init__(self, message, trace, ledger, t):
        self.reason, self.trace, self.ledger, self.t = message, trace, ledger, t
        super().__init__(f"simulation aborted at t={t}: {message}")

    def __reduce__(self):  # see ``errors``: pickles across the process pool
        return type(self), (self.reason, self.trace, self.ledger, self.t)


def _running_sum(x):
    """0.0 + x[0] + x[1] + ... added in step order (``np.sum`` pairs terms)."""
    return float(np.cumsum(np.concatenate([[0.0], x]))[-1])


def _weight_runs(costs, manifold, model, benchmarks):
    """The runs of consecutive rows whose costs have the same weights, as
    (rows, benchmark) pairs: per run, the first of ``benchmarks`` (built
    beforehand) that serves it, else a ``SteadyStateBenchmark`` built for the
    run alone. A cost ends the run unless its benchmark ``serves`` it or its
    weights equal the benchmark's in value (new arrays at every step)."""
    runs, start, benchmark = [], 0, None
    for i, cost in enumerate(costs):
        if benchmark is None or not (benchmark.serves(cost) or (
                np.array_equal(cost.q_x, benchmark.q_x)
                and np.array_equal(cost.q_u, benchmark.q_u))):
            if benchmark is not None:
                runs.append((slice(start, i), benchmark))
            start = i
            benchmark = next((b for b in benchmarks if b.serves(cost)), None)
            if benchmark is None:
                benchmark = SteadyStateBenchmark(manifold, model, cost)
    if benchmark is not None:
        runs.append((slice(start, len(costs)), benchmark))
    return runs


def _benchmark_states(costs, runs, n, m):
    """The benchmark steady state (theta, eta) of every row: per run, one
    ``steady_states`` call over the distinct cost objects (a schedule hands
    out the same object for consecutive steps), spread back over the rows."""
    theta, eta = np.empty((len(costs), n)), np.empty((len(costs), m))
    for rows, benchmark in runs:
        run = costs[rows]
        new = np.array([i == 0 or run[i] is not run[i - 1] for i in range(len(run))])
        distinct = np.flatnonzero(new)
        at = np.cumsum(new) - 1
        run_theta, run_eta = benchmark.steady_states(run[distinct], rows.start + distinct)
        theta[rows], eta[rows] = run_theta[at], run_eta[at]
    return theta, eta


def _cost_values(costs, runs, x, u):
    """``costs[i].value(x[i], u[i])`` of every row: one quadratic form per run
    of ``_weight_runs``, with a reference per row."""
    out = np.empty(len(costs))
    for rows, benchmark in runs:
        dx = x[rows] - np.array([c.ref_x for c in costs[rows]])
        dv = u[rows] - np.array([c.ref_u for c in costs[rows]])
        out[rows] = (0.5 * ((dx @ benchmark.q_x) * dx).sum(axis=1)
                     + 0.5 * ((dv @ benchmark.q_u) * dv).sum(axis=1))
    return out


class RunRecord:
    """The record of one closed-loop run: (horizon, .) columns, one row per step.

    Each step writes x_true, x_meas, u, w and v; the controller's beta,
    g_norm, pred_state, theta_hat, eta_hat, u_pred, u_ss, candidate_ok,
    kkt_residual (NaN when the step has none) and g_fallback; and the step's
    cost object (costs). ``finish`` adds ``flags`` (a boolean column per
    invariant flag), the benchmark steady state benchmark_theta,
    benchmark_eta, and cost and benchmark_cost. Every array attribute is a
    column. Indexing (and so iteration) gives ``TraceRecord`` views of rows; a
    slice gives a record.
    """

    def __init__(self, n, m, mu, horizon):
        widths = dict(x_true=n, x_meas=n, u=m, w=n, v=n, beta=None, g_norm=None,
                      pred_state=n, theta_hat=n, eta_hat=m, u_pred=mu * m, u_ss=m,
                      kkt_residual=None)
        for name, width in widths.items():
            setattr(self, name, np.empty(horizon if width is None else (horizon, width)))
        self.t = np.arange(horizon)
        self.candidate_ok, self.g_fallback = np.empty((2, horizon), bool)
        self.costs = np.empty(horizon, object)
        self.flags, self.flagged = {}, 0  # flagged: the rows that have their flags

    def write(self, t, x_true, x_meas, u, w, v, state, diag, cost):
        self.x_true[t], self.x_meas[t], self.u[t], self.w[t], self.v[t] = x_true, x_meas, u, w, v
        self.beta[t], self.g_norm[t], self.pred_state[t] = diag.beta, diag.g_norm, diag.pred_state
        self.theta_hat[t], self.eta_hat[t] = diag.ogd_target
        self.u_pred[t], self.u_ss[t] = state.u_pred, state.u_ss
        self.candidate_ok[t], self.g_fallback[t] = diag.candidate_feasible, diag.g_fallback
        self.kkt_residual[t] = np.nan if diag.kkt_residual is None else diag.kkt_residual
        self.costs[t] = cost

    def flag(self, hi, monitors):
        """Compute the flags of the rows not yet flagged below ``hi``."""
        lo = self.flagged
        if lo < hi:
            for name, column in _step_flags(self, monitors, lo, hi).items():
                self.flags.setdefault(name, np.ones(len(self.t), bool))[lo:hi] = column
            self.flagged = hi

    def finish(self, rows, monitors, benchmarks):
        """Keep the first ``rows`` rows, flag them, solve their benchmark and
        value them; returns their ledger, whose totals add the rows in step
        order as running sums do. ``benchmarks`` are benchmarks built
        beforehand (see ``_weight_runs``)."""
        self.flag(rows, monitors)
        self._take(slice(0, rows))
        model, _, manifold, _ = monitors
        runs = _weight_runs(self.costs, manifold, model, benchmarks)
        theta, eta = _benchmark_states(self.costs, runs, model.n, model.m)
        self.benchmark_theta, self.benchmark_eta = theta, eta
        self.cost = _cost_values(self.costs, runs, self.x_true, self.u)
        self.benchmark_cost = _cost_values(self.costs, runs, theta, eta + theta @ model.k.T)
        return RegretLedger(
            cum_regret=_running_sum(self.cost - self.benchmark_cost),
            path_length=_running_sum(np.linalg.norm(np.diff(np.hstack([theta, eta]), axis=0),
                                                    axis=1)),
            w_energy=_running_sum(np.linalg.norm(self.w, axis=1)),
            v_energy=_running_sum(np.linalg.norm(self.v, axis=1)))

    def _take(self, rows):
        self.__dict__.update({name: value[rows] for name, value in vars(self).items()
                              if isinstance(value, np.ndarray)})
        self.flags = {name: column[rows] for name, column in self.flags.items()}

    def __len__(self):
        return len(self.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            out = copy.copy(self)
            out._take(i)
            return out
        i = range(len(self))[i]
        kkt = float(self.kkt_residual[i])
        diag = oco.StepDiagnostics(
            beta=float(self.beta[i]), g_norm=float(self.g_norm[i]),
            pred_state=self.pred_state[i], ogd_target=(self.theta_hat[i], self.eta_hat[i]),
            candidate_feasible=bool(self.candidate_ok[i]),
            kkt_residual=None if np.isnan(kkt) else kkt, g_fallback=bool(self.g_fallback[i]))
        return TraceRecord(int(self.t[i]), self.x_true[i], self.x_meas[i], self.u[i],
                           self.w[i], self.v[i], diag,
                           {name: bool(column[i]) for name, column in self.flags.items()})


def _step_flags(record, monitors, lo, hi):
    """Invariant flags of steps lo..hi-1 of a run, one boolean column per flag.

    Every monitor is a matrix product over the recorded rows: state and input
    membership against X and U, the plan against the tightened stage-residual
    map, the steady-state input against S-bar, the c_g cap, the step's
    prediction against the previous steady state through the tail-set
    facets, and the step's process disturbance w against W (for the vehicle,
    the linearization residual). A NaN input fails its monitor.
    """
    model, tables, manifold, c_g = monitors
    tol = model.membership_tol
    rows = slice(lo, hi)
    plan = worst_stage_residuals(tables, record.x_meas[rows], record.u_pred[rows])
    dist = np.linalg.norm(record.theta_hat[rows] - record.pred_state[rows], axis=1)
    # The tube compares step t's prediction with G_K u_ss of step t - 1; step
    # 0 has no predecessor and passes.
    tube_ok = np.ones(hi - lo, bool)
    tube_marginal = np.zeros(hi - lo, bool)
    first = max(lo, 1)
    if first < hi:
        margin = model.tube_margin(record.pred_state[first:hi]
                                   - record.u_ss[first - 1:hi - 1] @ model.g_k.T)
        tube_ok[first - lo:] = margin <= TUBE_TOL
        tube_marginal[first - lo:] = tube_ok[first - lo:] & (margin > -model.tube_band)
    return {
        "state_ok": model.x_set.violations(record.x_true[rows]) <= tol,
        "input_ok": model.u_set.violations(record.u[rows]) <= tol,
        "candidate_ok": record.candidate_ok[rows],
        "plan_ok": plan <= tol,
        "zs_ok": manifold.sbar.violations(record.u_ss[rows]) <= 1e-7,
        "g_cap_ok": record.g_norm[rows] <= c_g * dist + 1e-8,
        "tube_ok": tube_ok,
        "tube_marginal": tube_marginal,
        "resid_ok": model.w_margins(record.w[rows]) <= tol,
    }


def check_horizon(horizon):
    """Plants draw their noise for the whole run, so callers check first."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")


def _check_cost(cost, n, m):
    """Raise unless q_x is (n, n), q_u (m, m), ref_x (n,) and ref_u (m,)."""
    got = (cost.q_x.shape, cost.q_u.shape, cost.ref_x.shape, cost.ref_u.shape)
    if got != ((n, n), (m, m), (n,), (m,)):
        raise DimensionMismatch(f"cost shapes (q_x, q_u, ref_x, ref_u) {got} do not fit "
                                f"n={n}, m={m}")


def _step_map(step_map, cost, next_cost, tables, manifold, gamma, t):
    """The step map for step t, on ``cost``: ``step_map`` when it serves
    ``cost``; else, when ``cost`` takes one and the next step's cost
    ``next_cost`` takes one with the same weight arrays (so the map serves at
    least two steps), one built for it; else None, the gradient path. A run
    whose weights change every step builds none. A map that fails to build
    fails step t."""
    if step_map is not None and step_map.serves(cost):
        return step_map
    takes = oco.QuadraticStepMap.takes
    if not (takes(cost) and takes(next_cost) and next_cost.q_x is cost.q_x
            and next_cost.q_u is cost.q_u):
        return None
    try:
        return oco.QuadraticStepMap(tables, manifold, cost, gamma)
    except Exception as exc:
        raise StepError(t, exc) from exc


def closed_loop(model, tables, manifold, controller, plant, horizon, zeta0,
                abort_on_violation=False, benchmarks=()):
    """The online loop for any plant; returns (trace, ledger).

    ``plant.observe(t)`` returns (x_true, x_meas, v, cost_t) and
    ``plant.advance(u)`` applies u and returns the step's process disturbance w.
    The controller gets cost_t only at step t + 1. Each step writes one row of
    the trace, a ``RunRecord``; flags, the benchmark steady states, cost
    values and totals come after the run (flags after each step under
    ``abort_on_violation``). Each new cost object is checked against the
    model as it arrives (``_check_cost``): a misfit raises at t = 0 and
    aborts the run at t > 0.

    A step on a ``QuadraticCost`` whose weight pair repeats on the next step
    uses an ``oco.QuadraticStepMap`` for that pair, built on first use; the
    loop keeps only the map in use (see ``_step_map``). ``benchmarks`` are
    ``SteadyStateBenchmark``s built beforehand for ``RunRecord.finish``.
    """
    check_horizon(horizon)
    x_true, x_meas, v, cost_t = plant.observe(0)
    if not model.x_set.contains(x_true, tol=model.membership_tol):
        raise OcoRobustError("x0 violates the state constraints")
    _check_cost(cost_t, model.n, model.m)
    c_g = controller.effective_c_g(model)
    if c_g < model.c_g_min * (1 - 1e-9):
        raise OcoRobustError(
            f"c_g={c_g:.3g} below the required norm bound {model.c_g_min:.3g}")
    state = oco.initialize(model, tables, manifold, zeta0, x_meas)
    u = oco.control_input(state, model, x_meas)
    diag = oco.StepDiagnostics(beta=0.0, g_norm=0.0, pred_state=model.g_k @ state.u_ss,
                               ogd_target=state.zeta_hat, candidate_feasible=True)

    monitors = (model, tables, manifold, c_g)
    step_map = None
    record = RunRecord(model.n, model.m, model.mu, horizon)
    for t in range(horizon):
        if t > 0:
            prev_cost = cost_t
            x_true, x_meas, v, cost_t = plant.observe(t)
            try:
                if cost_t is not prev_cost:
                    _check_cost(cost_t, model.n, model.m)
                step_map = _step_map(step_map, prev_cost, cost_t, tables, manifold,
                                     controller.gamma, t)
                u, state, diag = oco.step(state, model, tables, manifold, x_meas, prev_cost,
                                          controller, step_map)
            except OcoRobustError as exc:
                raise SimulationAborted(str(exc), record, record.finish(t, monitors, benchmarks),
                                        t) from exc

        w = plant.advance(u)
        record.write(t, x_true, x_meas, u, w, v, state, diag, cost_t)
        if abort_on_violation:
            record.flag(t + 1, monitors)
            # tube_marginal is an early warning, not a violation
            violated = [name for name, column in record.flags.items()
                        if not column[t] and name != "tube_marginal"]
            if violated:
                raise SimulationAborted(f"invariant violation: {', '.join(violated)}",
                                        record, record.finish(t + 1, monitors, benchmarks), t)
    return record, record.finish(horizon, monitors, benchmarks)


class _LtiPlant:
    """x+ = A x + B u + w, measured as x + v, with W/V drawn by a policy."""

    def __init__(self, model, cost_schedule, dist_policy, x0, horizon):
        self.model, self.cost_schedule = model, cost_schedule
        sampler = _Sampler(dist_policy, model.w_set, model.v_set, horizon)
        self.w, self.v = sampler.w, sampler.v
        self.x, self.t = x0, 0

    def observe(self, t):
        self.t = t
        v = self.v[t]
        return self.x, self.x + v, v, self.cost_schedule.cost_at(t)

    def advance(self, u):
        w = self.w[self.t]
        self.x = self.model.a @ self.x + self.model.b @ u + w
        return w


def run_closed_loop(model, tables, manifold, controller, cost_schedule, dist_policy,
                    horizon, zeta0=None, x0=None, abort_on_violation=False, benchmarks=()):
    """Simulate Eq-style dynamics x+ = Ax + Bu + w with noisy measurements.

    Returns (trace, ledger). Deterministic for a fixed policy seed and config.
    ``benchmarks`` are ``SteadyStateBenchmark``s built beforehand for the
    schedule's weights (see ``closed_loop``).
    """
    check_horizon(horizon)
    x0 = np.zeros(model.n) if x0 is None else np.asarray(x0, float)
    if zeta0 is None:
        zeta0 = (np.zeros(model.n), np.zeros(model.m))
    plant = _LtiPlant(model, cost_schedule, dist_policy, x0, horizon)
    return closed_loop(model, tables, manifold, controller, plant, horizon, zeta0,
                       abort_on_violation=abort_on_violation, benchmarks=benchmarks)


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

    ``trace`` is a ``RunRecord``; only its columns are read. State and input
    membership are recomputed from the recorded true states and inputs; the
    remaining flags are taken from the run. Windowed products prod(1 - beta)
    over mu+1 consecutive steps must stay away from one whenever the
    steady-state estimate was meaningfully far from the prediction somewhere
    in the window.
    """
    tol = model.membership_tol
    flags = dict(trace.flags, state_ok=model.x_set.violations(trace.x_true) <= tol,
                 input_ok=model.u_set.violations(trace.u) <= tol)
    counts = {name: int(np.count_nonzero(~flags[name])) if name in flags else 0
              for name in FLAG_NAMES}
    marginal = int(np.count_nonzero(flags.get("tube_marginal", False)))
    later = trace.t >= 1
    betas = trace.beta[later]
    dists = np.linalg.norm(trace.theta_hat[later] - trace.pred_state[later], axis=1)
    win = model.mu + 1
    windows = win_viol = 0
    max_active = 0.0
    if len(betas) >= win:
        prods = np.prod(sliding_window_view(1.0 - betas, win), axis=1)
        active = sliding_window_view(dists > distance_floor, win).any(axis=1)
        windows = len(prods)
        win_viol = int(np.count_nonzero(active & (prods > 1.0 - window_margin)))
        max_active = float(prods[active].max(initial=0.0))
    return InvariantReport(steps=len(trace), violation_counts=counts,
                           tube_marginal_count=marginal, beta_windows=windows,
                           beta_window_violations=win_viol, max_active_window_product=max_active)


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
        return self.pieces[bisect_right(self.pieces, t, key=lambda piece: piece[0]) - 1][1]


def max_workers(n_jobs):
    env = os.environ.get("OCO_MAX_THREADS")
    try:
        cap = min(os.cpu_count() or 1, 8) if env is None else max(1, int(env))
    except ValueError:
        cap = 1
    return max(1, min(cap, n_jobs))


def _in_order(calls):
    results = []
    for i, call in enumerate(calls):
        try:
            results.append(call())
        except SimulationAborted as exc:
            exc.replicate = i
            raise
    return results


def replicate_map(fn, args_list):
    """Run fn over argument tuples, in order, optionally across processes.
    A run's ``SimulationAborted`` reaches the caller with ``replicate``, its index."""
    args_list = list(args_list)
    workers = max_workers(len(args_list))
    if workers <= 1 or len(args_list) <= 1:
        return _in_order(functools.partial(fn, *args) for args in args_list)
    from concurrent.futures import ProcessPoolExecutor  # pays its import only here

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in args_list]
        return _in_order(future.result for future in futures)


@dataclass(frozen=True)
class AlternatingTargetGenerator:
    """Cost paths for the regret sweep: the state target hops along a line.

    A level is a hop count: that many target switches of fixed amplitude
    ``hop_size`` along ``direction``, evenly spread over the horizon, so the
    benchmark path length grows linearly with the level. Level 0 is the
    constant cost; every run starts at the optimum of its first piece.
    Every cost it hands out has ``base_cost``'s weight arrays, so the one
    ``benchmark()`` serves every schedule it makes.
    """

    model: object
    manifold: object
    base_cost: object
    direction: tuple
    levels: tuple
    hop_size: float = 1.0
    horizon: int = 400

    def benchmark(self):
        """The ``SteadyStateBenchmark`` of ``base_cost``'s weights."""
        return SteadyStateBenchmark(self.manifold, self.model, self.base_cost)

    def make(self, level, benchmark=None):
        """(schedule, zeta0, x0) of one level; ``benchmark`` solves zeta0
        when given (see ``benchmark``), else a one-shot one does."""
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
                pieces.append((start, base.with_ref_x(ref)))
            schedule = PiecewiseSchedule(tuple(pieces))
        theta0, eta0 = optimal_steady_state(self.manifold, schedule.cost_at(0), self.model,
                                            benchmark)
        return schedule, (theta0, eta0), theta0


@dataclass
class SweepResult:
    rows: list  # dicts: path_level, noise_level, seed, path_length, w_energy, v_energy, regret
    coefficients: np.ndarray | None  # (c0, c_path, c_noise)
    r_squared: float | None


def regret_scaling_experiment(model, tables, manifold, controller, path_generator,
                              dist_levels, seeds, horizon, base_seed=0):
    """Grid of runs over cost-path levels and disturbance scales.

    ``path_generator.make(level, benchmark)`` returns (schedule, zeta0, x0)
    for one path level, with zeta0 solved by ``benchmark``, the one
    ``path_generator.benchmark()`` built for the whole design; every run gets
    it for its regret benchmark. Emits one row per (level, scale, seed) with
    the measured path length, disturbance energies, and final regret, plus
    an affine fit regret ~ c0 + c_path * path + c_noise * (w_energy +
    v_energy).
    """
    rows = []
    benchmark = path_generator.benchmark()
    for level in path_generator.levels:
        schedule, zeta0, x0 = path_generator.make(level, benchmark)
        for scale in dist_levels:
            for seed in seeds:
                policy = DisturbancePolicy(
                    kind="zero" if scale == 0.0 else "uniform_box",
                    seed=base_seed + seed, scale=float(scale))
                # one call per row, in row order, through the module attribute
                _, ledger = run_closed_loop(model, tables, manifold, controller, schedule,
                                            policy, horizon, zeta0=zeta0, x0=x0,
                                            benchmarks=(benchmark,))
                rows.append(dict(path_level=level, noise_level=scale, seed=seed,
                                 path_length=ledger.path_length, w_energy=ledger.w_energy,
                                 v_energy=ledger.v_energy, regret=ledger.cum_regret))
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
