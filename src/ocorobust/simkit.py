"""Closed-loop simulation, disturbance sampling, regret accounting, monitors.

The loop enforces strict online ordering: the controller at step t sees the
measured state and the gradient of the previous cost only; the step-t cost is
revealed after u_t is applied. The benchmark is the per-step optimal steady
state of each revealed cost; the controller never reads it, so it is solved
for the whole run after the loop, from the record's reference and
weight-pair columns.

On the LTI plant with the explicit variant, the loop runs ahead over steps
that keep their cost object, a block of them in closed form and checked in
one pass; step t still reads only x_meas_t and cost t-1 (see
``closed_loop``).
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import is_

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import oco_controller as oco
from .errors import DimensionMismatch, OcoRobustError, StepError
from .plant import SteadyStateBenchmark, optimal_steady_state, worst_stage_residuals

TUBE_TOL = 1e-6
# tube_marginal asks the tube margin to clear -tube_band by more than
# rounding: a prediction on the band's edge in exact arithmetic (tube_band =
# 0 under a deadbeat K, where a settled plan's margin is 0) stays clear
# whichever way its products round.
MARGINAL_TOL = 1e-12
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


def _running_sum(x):
    """0.0 + x[0] + x[1] + ... added in step order (``np.sum`` pairs terms)."""
    return float(np.cumsum(np.concatenate([[0.0], x]))[-1])


class RunRecord:
    """The record of one closed-loop run: (horizon, .) columns, one row per step.

    Each step writes x_true, x_meas, u, w and v; the controller's beta,
    g_norm, pred_state, theta_hat, eta_hat, u_pred, u_ss, candidate_ok,
    kkt_residual (NaN when the step has none) and g_fallback; its cost's
    references ref_x and ref_u and weight pair ``pair``, an index into
    ``pairs``, the first cost seen with each distinct (q_x, q_u) (see
    ``pair_of``); and the cost object (costs), which ``finish`` never reads.
    ``finish`` adds ``flags`` (a boolean column per invariant flag), the
    benchmark steady state benchmark_theta, benchmark_eta (one benchmark per
    weight pair, not per run of consecutive steps), and cost and
    benchmark_cost. Every array attribute is a column. Indexing (and so
    iteration) gives ``TraceRecord`` views of rows; a slice gives a record.
    """

    def __init__(self, n, m, mu, horizon):
        widths = dict(x_true=n, x_meas=n, u=m, w=n, v=n, beta=None, g_norm=None,
                      pred_state=n, theta_hat=n, eta_hat=m, u_pred=mu * m, u_ss=m,
                      kkt_residual=None, ref_x=n, ref_u=m)
        for name, width in widths.items():
            setattr(self, name, np.empty(horizon if width is None else (horizon, width)))
        self.t, self.pair = np.arange(horizon), np.empty(horizon, int)
        self.candidate_ok, self.g_fallback = np.empty((2, horizon), bool)
        self.costs, self.pairs = np.empty(horizon, object), []
        self.flags, self.flagged = {}, 0  # flagged: the rows that have their flags

    def pair_of(self, cost):
        """The index in ``pairs`` of ``cost``'s (q_x, q_u): of the first entry
        with the same arrays, else with weights equal in value; else ``cost``
        is appended, the first cost seen with its weights."""
        for same in (is_, np.array_equal):
            for i, first in enumerate(self.pairs):
                if same(first.q_x, cost.q_x) and same(first.q_u, cost.q_u):
                    return i
        self.pairs.append(cost)
        return len(self.pairs) - 1

    def write(self, t, x_true, x_meas, u, w, v, state, diag, cost, pair):
        self.x_true[t], self.x_meas[t], self.u[t], self.w[t], self.v[t] = x_true, x_meas, u, w, v
        self.beta[t], self.g_norm[t], self.pred_state[t] = diag.beta, diag.g_norm, diag.pred_state
        self.theta_hat[t], self.eta_hat[t] = diag.ogd_target
        self.u_pred[t], self.u_ss[t] = state.u_pred, state.u_ss
        self.candidate_ok[t], self.g_fallback[t] = diag.candidate_feasible, diag.g_fallback
        self.kkt_residual[t] = np.nan if diag.kkt_residual is None else diag.kkt_residual
        self.costs[t], self.pair[t] = cost, pair
        self.ref_x[t], self.ref_u[t] = cost.ref_x, cost.ref_u

    def fill(self, rows, **columns):
        """Write the slice ``rows`` of each named column."""
        for name, value in columns.items():
            getattr(self, name)[rows] = value

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
        order as running sums do.

        Each weight pair of ``pairs`` has one benchmark for all its rows,
        not one per run of consecutive steps: the first of ``benchmarks``
        (built beforehand) that serves the pair's first cost, else one built
        for it. Its ``steady_states`` solves the pair's rows whose pair,
        ref_x or ref_u differs from the row before's; ``cost`` and
        ``benchmark_cost`` are one quadratic form in x - ref_x and u - ref_u.
        """
        self.flag(rows, monitors)
        self._take(slice(0, rows))
        model, _, manifold, _ = monitors
        pair, ref_x, ref_u = self.pair, self.ref_x, self.ref_u
        new = np.ones(len(pair), bool)
        new[1:] = ((pair[1:] != pair[:-1]) | (ref_x[1:] != ref_x[:-1]).any(axis=1)
                   | (ref_u[1:] != ref_u[:-1]).any(axis=1))
        theta, eta = np.empty_like(self.x_true), np.empty_like(self.u)
        self.cost, self.benchmark_cost = np.empty((2, len(pair)))
        for p, first in enumerate(self.pairs):
            mine = pair == p
            if not mine.any():
                continue  # the pair of the step the run aborted at
            benchmark = (next((b for b in benchmarks if b.serves(first)), None)
                         or SteadyStateBenchmark(manifold, model, first))
            solved = np.flatnonzero(new & mine)
            theta_p, eta_p = benchmark.steady_states(ref_x[solved], ref_u[solved], solved)
            at = np.cumsum(new[mine]) - 1  # each row's entry among the pair's solved rows
            theta[mine], eta[mine] = theta_p[at], eta_p[at]
            dx = np.stack([self.x_true[mine], theta[mine]]) - ref_x[mine]
            dv = np.stack([self.u[mine], eta[mine] + theta[mine] @ model.k.T]) - ref_u[mine]
            self.cost[mine], self.benchmark_cost[mine] = (
                0.5 * ((dx @ benchmark.q_x) * dx).sum(axis=2)
                + 0.5 * ((dv @ benchmark.q_u) * dv).sum(axis=2))
        self.benchmark_theta, self.benchmark_eta = theta, eta
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
        tube_marginal[first - lo:] = tube_ok[first - lo:] & (
            margin + model.tube_band > MARGINAL_TOL)
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


def check_c_g(c_g, model):
    """Raise unless the norm cap ``c_g`` covers the explicit input's norm
    bound ``model.c_g_min``; a config-level check, so callers that run many
    replicates check once first."""
    if c_g < model.c_g_min * (1 - 1e-9):
        raise OcoRobustError(f"c_g={c_g:.3g} below the required norm bound {model.c_g_min:.3g}")


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
    the trace, a ``RunRecord``, with cost_t as its ref_x, ref_u and pair
    columns: each new cost object is checked against the model
    (``_check_cost``; a misfit raises at t = 0 and aborts the run at t > 0)
    and its weight pair found in ``record.pairs`` (``RunRecord.pair_of``).
    Flags, the benchmark steady states, cost values and totals come after
    the run (flags after each step under ``abort_on_violation``), with one
    benchmark per weight pair, not per run of consecutive steps: one of
    ``benchmarks`` (``SteadyStateBenchmark``s built beforehand) or one
    ``RunRecord.finish`` builds.

    A step on a ``QuadraticCost`` whose weight pair repeats on the next step
    uses an ``oco.QuadraticStepMap`` for that pair, built on first use; the
    loop keeps only the map in use (see ``_step_map``).

    On a plant whose ``observe`` and ``advance`` are ``_LtiPlant``'s own,
    with the explicit variant and gamma > 0, the loop runs ahead over steps
    that keep the previous step's cost object and a map that serves it: it
    takes a block of up to ``oco.RUN_AHEAD_STEPS`` of them in closed form as
    ``oco.step`` takes a step its map's rows settle (``_LtiPlant.ahead``),
    checks the block in one pass (``oco.settled_rows``) and keeps the steps
    before the first one the check rejects, which runs step by step as
    every other step does, or the first one under the other law, where the
    next block starts. Step t still reads only x_meas_t and cost t-1. Under
    ``abort_on_violation`` a block is flagged after it is kept (see
    ``_run_ahead``). A block's first step is the step-by-step step to the
    bit; the closed form of the others rounds differently: every float
    column and ledger total agrees with the run step by step within 1e-12
    (1 + |step by step|), and beta, the flags and the steps that run step by
    step are the same, on the bundled configs, the regret sweep and drawn
    models (``MARGINAL_TOL`` keeps ``tube_marginal`` from rounding). Beta
    may differ in its last bits only on a step-by-step step after a block
    of two or more steps whose ``max_beta`` ratio is strictly inside (0, 1).
    """
    check_horizon(horizon)
    x_true, x_meas, v, cost_t = plant.observe(0)
    if not model.x_set.contains(x_true, tol=model.membership_tol):
        raise OcoRobustError("x0 violates the state constraints")
    _check_cost(cost_t, model.n, model.m)
    record = RunRecord(model.n, model.m, model.mu, horizon)
    pair = record.pair_of(cost_t)
    c_g = controller.effective_c_g(model)
    check_c_g(c_g, model)
    state = oco.initialize(model, tables, manifold, zeta0, x_meas)
    u = oco.control_input(state, model, x_meas)
    diag = oco.StepDiagnostics(beta=0.0, g_norm=0.0, pred_state=model.g_k @ state.u_ss,
                               ogd_target=state.zeta_hat, candidate_feasible=True)

    monitors = (model, tables, manifold, c_g)
    step_map = None
    ahead = _runs_ahead(plant, controller)
    serial = False  # the next step runs step by step
    t = 0
    while t < horizon:
        if t > 0 and ahead and not serial:
            try:
                step_map, state, kept, serial = _run_ahead(
                    plant, record, state, step_map, cost_t, t,
                    min(t + oco.RUN_AHEAD_STEPS, horizon), model, tables, manifold,
                    controller.gamma)
            except OcoRobustError as exc:
                raise SimulationAborted(str(exc), record, record.finish(t, monitors, benchmarks),
                                        t) from exc
            if kept:
                if abort_on_violation:
                    _abort_at_violation(record, t, t + kept, monitors, benchmarks)
                t += kept
                continue
        serial = False
        if t > 0:
            prev_cost = cost_t
            x_true, x_meas, v, cost_t = plant.observe(t)
            try:
                if cost_t is not prev_cost:
                    _check_cost(cost_t, model.n, model.m)
                    pair = record.pair_of(cost_t)
                step_map = _step_map(step_map, prev_cost, cost_t, tables, manifold,
                                     controller.gamma, t)
                u, state, diag = oco.step(state, model, tables, manifold, x_meas, prev_cost,
                                          controller, step_map)
            except OcoRobustError as exc:
                raise SimulationAborted(str(exc), record, record.finish(t, monitors, benchmarks),
                                        t) from exc

        w = plant.advance(u)
        record.write(t, x_true, x_meas, u, w, v, state, diag, cost_t, pair)
        if abort_on_violation:
            _abort_at_violation(record, t, t + 1, monitors, benchmarks)
        t += 1
    return record, record.finish(horizon, monitors, benchmarks)


def _abort_at_violation(record, lo, hi, monitors, benchmarks):
    """Flag the rows below ``hi`` and abort the run at the first of rows
    lo..hi-1 with a violated flag, keeping the rows up to it."""
    record.flag(hi, monitors)
    # tube_marginal is an early warning, not a violation
    columns = {name: column[lo:hi] for name, column in record.flags.items()
               if name != "tube_marginal"}
    ok = np.logical_and.reduce(list(columns.values()))
    if not ok.all():
        i = int(np.argmin(ok))
        violated = [name for name, column in columns.items() if not column[i]]
        raise SimulationAborted(f"invariant violation: {', '.join(violated)}", record,
                                record.finish(lo + i + 1, monitors, benchmarks), lo + i)


def _runs_ahead(plant, controller):
    """True when ``closed_loop`` may run ``plant`` ahead: its class's
    ``observe`` and ``advance`` are ``_LtiPlant``'s own (``_LTI_OWN``) and
    the controller is the explicit variant with gamma > 0 (else ``oco.step``
    fails at t = 1)."""
    cls = type(plant)
    return (getattr(cls, "observe", None) is _LTI_OWN[0]
            and getattr(cls, "advance", None) is _LTI_OWN[1]
            and controller.rollout_builder is None and controller.gamma > 0)


def _run_ahead(plant, record, state, step_map, cost, t, stop, model, tables, manifold,
               gamma):
    """Run ``plant`` ahead from step t, to ``stop`` at most, while the steps
    keep the previous step's cost object ``cost``; returns (step map, state,
    kept, rejected).

    The steps' costs come from the plant's schedule and their map from
    ``_step_map``; with a new cost object at t, or no map, nothing runs
    (kept = 0). Else ``_LtiPlant.ahead`` takes a block of steps under the
    law of its first one and ``oco.settled_rows`` checks them in one pass.
    The block keeps the ``kept`` steps before the first one the check
    rejects (then ``rejected`` is True and that step runs step by step) or
    whose reach gap belongs to the other law (then the next block starts
    there). They go to ``record`` by slices, with the pair of the row before
    them; the plant moves past them and the returned state is the
    controller's after them.
    """
    schedule = plant.cost_schedule
    end = t
    while end < stop and schedule.cost_at(end) is cost:
        end += 1
    if end > t:
        step_map = _step_map(step_map, cost, cost, tables, manifold, gamma, t)
    if end == t or step_map is None:
        return step_map, state, 0, False
    m = model.m
    with np.errstate(all="ignore"):  # a rejected row may hold NaN or inf
        x, x_meas, outs, plans, u, norms, degenerate = plant.ahead(
            step_map, cost, state.plan[m:], t, end)
        settled = oco.settled_rows(step_map, manifold, x_meas, outs, norms[:, 0],
                                   model.membership_tol)
        ok = settled & ((norms[:, 0] <= oco.DEGENERATE_TOL) == degenerate)
    ok[:1] = settled[:1]  # the first step sets the law
    kept = len(ok) if ok.all() else int(np.argmin(ok))
    rejected = kept < len(ok) and not settled[kept]
    if kept:
        rows, last = slice(t, t + kept), kept - 1
        record.fill(rows, x_true=x[:kept], x_meas=x_meas[:kept], u=u[:kept], w=plant.w[rows],
                    v=plant.v[rows], beta=1.0, g_norm=norms[:kept, 1],
                    pred_state=outs[:kept, step_map.pred],
                    theta_hat=outs[:kept, step_map.theta], eta_hat=outs[:kept, step_map.eta],
                    u_pred=plans[:kept, :-m], u_ss=plans[:kept, -m:], kkt_residual=np.nan,
                    candidate_ok=True, g_fallback=False, costs=cost, ref_x=cost.ref_x,
                    ref_u=cost.ref_u, pair=record.pair[t - 1])
        plant.x, plant.t = x[last], t + last
        plant.advance(u[last])
        state = oco.ControllerState(
            plan=plans[last], zeta_hat=(outs[last, step_map.theta], outs[last, step_map.eta]),
            t=t + last)
    return step_map, state, kept, rejected


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

    def ahead(self, step_map, cost, candidate, t, stop):
        """A block of steps from step t, at most to ``stop``, from the
        plant's state and the shifted plan ``candidate``, each taken as
        ``oco.step`` takes an explicit step that ``step_map``'s rows settle on
        ``cost`` (``oco.settled_step``) and applied as ``observe`` and
        ``advance`` would; nothing is checked and the plant does not move.

        The block runs under the law of its first step (its reach gap at or
        below ``oco.DEGENERATE_TOL``, or above it). That step is taken as
        ``oco.step`` takes it, from the map's product at the plant's state,
        so it is the step-by-step step to the bit; the block's other steps
        come in closed form from the map's ``LiftedSteps`` for that law, so
        the block holds at most that object's ``steps`` steps. It ends
        before the first step whose v is not finite and after the first step
        whose w is not finite, and so holds no step at all when v_t is not
        finite.

        Returns per step: x, x_meas, the map's rows, the plan, u and (reach
        gap norm, g_norm); then whether the law is the degenerate one.
        """
        v, w = self.v[t:stop], self.w[t:stop]
        finite = np.concatenate([[True], np.logical_and.reduce(np.isfinite(w[:-1]), axis=1)])
        finite &= np.logical_and.reduce(np.isfinite(v), axis=1)
        rows = len(finite) if finite.all() else int(np.argmin(finite))
        x_meas = self.x + v[0]
        out = step_map.product(x_meas, candidate, cost)
        gap_norm, g, plan, u = oco.settled_step(out, step_map, candidate, x_meas, self.model.k)
        degenerate = gap_norm <= oco.DEGENERATE_TOL
        lifted = step_map.lifted(self.model.a, self.model.b, degenerate)
        rows = min(rows, lifted.steps)
        xs, x_metas, outs, plans, us, norms = lifted.run(step_map, self.x, candidate, cost,
                                                         v[:rows], w[:rows])
        if rows:  # the first step as oco.step takes it, to the bit
            xs[0], x_metas[0], outs[0], plans[0], us[0] = self.x, x_meas, out, plan, u
            norms[0] = gap_norm, math.sqrt(g @ g)
        return xs, x_metas, outs, plans, us, norms, degenerate


# The plant methods ``closed_loop`` runs ahead for (see ``_runs_ahead``),
# taken when the module loads: a plant class whose methods are others, by
# subclassing or by patching, runs step by step.
_LTI_OWN = (_LtiPlant.observe, _LtiPlant.advance)


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
    _starts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        starts = tuple(s for s, _ in self.pieces)
        if not starts or starts[0] != 0 or list(starts) != sorted(starts):
            raise ValueError("pieces must start at 0 and be sorted by start step")
        object.__setattr__(self, "_starts", starts)  # bisected by cost_at

    def cost_at(self, t):
        return self.pieces[bisect_right(self._starts, t) - 1][1]


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
