"""Closed-loop simulation, disturbance sampling, regret accounting, monitors.

The loop enforces strict online ordering: the controller at step t sees the
measured state and the gradient of the previous cost only; the step-t cost is
revealed after u_t is applied. The benchmark is the per-step optimal steady
state of each revealed cost; the controller never reads it, so it is solved
for the whole run after the loop, from the record's reference and
weight-pair columns.

On the LTI plant with the explicit variant, the loop runs ahead over steps
whose costs keep their weight pair (reference hops included), a block of
them in closed form and checked in one pass; step t still reads only
x_meas_t and cost t-1 (see ``closed_loop``).
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import oco_controller as oco
from .errors import DimensionMismatch, OcoRobustError, StepError
from .matlin import row_norms, row_reduce
from .plant import QuadraticCost, SteadyStateBenchmark, optimal_steady_state

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
    generator call per stream. Every row stays in its set. Only
    ``uniform_box`` draws, so only it spawns the policy's seed into the two
    streams' generators."""

    def __init__(self, policy, w_set, v_set, horizon):
        seeds = ((None, None) if policy.kind != "uniform_box"
                 else np.random.SeedSequence(policy.seed).spawn(2))
        self.w = self._draw(policy, w_set, seeds[0], horizon)
        self.v = self._draw(policy, v_set, seeds[1], horizon + 1)

    @staticmethod
    def _draw(policy, z, seed, count):
        if policy.kind == "zero":
            return np.zeros((count, z.dim))
        if policy.kind == "worst_corner":
            return np.tile(policy.scale * z.corner(), (count, 1))
        return z.samples(np.random.default_rng(seed), count, scale=policy.scale)


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


@dataclass
class WeightPair:
    """An entry of ``RunRecord.pairs``: one weight pair (q_x, q_u) with the
    first cost seen with it, its ``SteadyStateBenchmark`` (None until
    ``RunRecord.finish`` builds it) and its ``oco.QuadraticStepMap`` (None
    while the pair has none)."""

    cost: object
    benchmark: object = None
    step_map: object = None


def _same_weights(a, b):
    """True when the costs ``a`` and ``b`` have one weight pair: the same
    q_x and q_u arrays, or arrays equal in value."""
    return ((a.q_x is b.q_x and a.q_u is b.q_u)
            or (np.array_equal(a.q_x, b.q_x) and np.array_equal(a.q_u, b.q_u)))


class RunRecord(oco.ControllerRows):
    """The record of one closed-loop run: (horizon, .) columns, one row per step.

    Each step writes the controller's columns (``oco.ControllerRows``) and
    x_true, x_meas, w and v; its cost's references ref_x and ref_u (those
    the plant handed as data, else the cost's own) and weight pair ``pair``,
    an index into ``pairs``, the run's one table of ``WeightPair`` entries
    (see ``pair_of``): copies of the entries built beforehand (``pairs``),
    then one per weight pair the run brings. ``finish`` adds ``flags`` (a
    boolean column per invariant flag), the benchmark steady state
    benchmark_theta, benchmark_eta (one benchmark per weight pair, not per
    run of consecutive steps), and cost and benchmark_cost. Every array
    attribute is a column. Indexing (and so iteration) gives ``TraceRecord``
    views of rows; a slice gives a record.
    """

    def __init__(self, n, m, mu, horizon, pairs=()):
        super().__init__(n, m, mu, horizon)
        for name, width in dict(x_true=n, x_meas=n, w=n, v=n, ref_x=n, ref_u=m).items():
            setattr(self, name, np.empty((horizon, width)))
        self.pair = np.empty(horizon, int)
        self.pairs = [copy.copy(entry) for entry in pairs]
        self.flags, self.flagged = {}, 0  # flagged: the rows that have their flags

    def pair_of(self, cost):
        """The index in ``pairs`` of the first entry with ``cost``'s weight
        pair (``_same_weights``: the same arrays, or equal in value); else of
        a new entry for ``cost``, the first cost seen with its weights."""
        for i, entry in enumerate(self.pairs):
            if _same_weights(entry.cost, cost):
                return i
        self.pairs.append(WeightPair(cost))
        return len(self.pairs) - 1

    def fill(self, rows, **columns):
        """Write ``rows`` (a row or a slice) of each named column."""
        for name, value in columns.items():
            getattr(self, name)[rows] = value

    def flag(self, hi, monitors):
        """Compute the flags of the rows not yet flagged below ``hi``."""
        lo = self.flagged
        if lo < hi:
            flags = _step_flags(self, monitors, lo, hi)
            if not self.flags:  # each flag's column for every row, made once
                self.flags = dict(zip(flags, np.ones((len(flags), len(self.t)), bool)))
            for name, column in flags.items():
                self.flags[name][lo:hi] = column
            self.flagged = hi

    def finish(self, rows, monitors):
        """Keep the first ``rows`` rows, flag them, solve their benchmark and
        value them; returns their ledger, whose totals add the rows in step
        order as running sums do.

        Each weight pair of ``pairs`` has one benchmark for all its rows,
        not one per run of consecutive steps: its entry's, else one built
        into the entry for its first cost (a pair no kept row has, such as
        that of the step a run aborted at, gets none). Its
        ``steady_states`` solves the pair's rows whose pair,
        ref_x or ref_u differs from the row before's; ``cost`` and
        ``benchmark_cost`` are one quadratic form in x - ref_x and u - ref_u
        over the pair's rows, taken as one slice when they are consecutive.
        """
        self.flag(rows, monitors)
        self._take(slice(0, rows))
        model, _, manifold, _ = monitors
        pair, ref_x, ref_u = self.pair, self.ref_x, self.ref_u
        new = np.ones(len(pair), bool)
        new[1:] = ((pair[1:] != pair[:-1]) | row_reduce(np.logical_or, ref_x[1:] != ref_x[:-1])
                   | row_reduce(np.logical_or, ref_u[1:] != ref_u[:-1]))
        theta, eta = np.empty_like(self.x_true), np.empty_like(self.u)
        self.cost, self.benchmark_cost = np.empty((2, len(pair)))
        for p, entry in enumerate(self.pairs):
            at = np.flatnonzero(pair == p)
            if not len(at):
                continue
            mine = slice(at[0], at[-1] + 1) if at[-1] - at[0] == len(at) - 1 else at
            if entry.benchmark is None:
                entry.benchmark = SteadyStateBenchmark(manifold, model, entry.cost)
            benchmark = entry.benchmark
            starts = new[mine]
            solved = at[starts]
            theta_p, eta_p = benchmark.steady_states(ref_x[solved], ref_u[solved], solved)
            which = np.cumsum(starts) - 1  # each row's entry among the pair's solved rows
            theta[mine], eta[mine] = theta_p[which], eta_p[which]
            dx = np.stack([self.x_true[mine], theta[mine]]) - ref_x[mine]
            dv = np.stack([self.u[mine], eta[mine] + theta[mine] @ model.k.T]) - ref_u[mine]
            self.cost[mine], self.benchmark_cost[mine] = (
                0.5 * _form_sums((dx @ benchmark.q_x) * dx)
                + 0.5 * _form_sums((dv @ benchmark.q_u) * dv))
        self.benchmark_theta, self.benchmark_eta = theta, eta
        # Each total is 0.0 + x[0] + x[1] + ... added in step order, one
        # cumsum row per total (np.sum would pair the terms); the path's
        # terms, one fewer, start a column later.
        terms = np.zeros((4, len(pair) + 1))
        terms[0, 1:] = self.cost - self.benchmark_cost
        terms[1, 2:] = row_norms(np.diff(np.hstack([theta, eta]), axis=0))
        terms[2, 1:] = row_norms(self.w)
        terms[3, 1:] = row_norms(self.v)
        return RegretLedger(*np.cumsum(terms, axis=1)[:, -1].tolist())

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
        return TraceRecord(int(self.t[i]), self.x_true[i], self.x_meas[i], self.u[i],
                           self.w[i], self.v[i], self.diagnostics(i),
                           {name: bool(column[i]) for name, column in self.flags.items()})


def _form_sums(terms):
    """``terms.sum(axis=2)`` of the (2, rows, k) terms of ``finish``'s two
    quadratic forms, each row reduced along the step axis."""
    return row_reduce(np.add, terms.reshape(-1, terms.shape[2])).reshape(terms.shape[:2])


def _step_flags(record, monitors, lo, hi):
    """Invariant flags of steps lo..hi-1 of a run, one boolean column per flag.

    State and input membership against X and U, the plan against the
    tightened stage-residual map and the step's process disturbance w against
    W (for the vehicle, the linearization residual) come from one product of
    the recorded columns [x_true | u | x_meas, u_pred | w] with the stacked
    facets of ``tables.monitor`` (a ``FacetStack``), in blocks of rows whose
    product holds at most ``STACK_ENTRIES`` facet values. Each answer is its
    set's own product's: a row within rounding of the tolerance, or with a
    non-finite entry, takes those; so a NaN or inf fails only the monitors
    whose columns hold it. The steady-state input is checked against S-bar,
    the c_g cap by its norms, and the step's prediction against the previous
    steady state through the tail-set facets; there the tube margin is raised
    to -tube_band, which leaves both tube flags as they are and lets the
    facet product skip the rows whose distance from G_K u_ss cannot reach the
    facets (``ZonotopeMembership.margins``).
    """
    model, tables, manifold, c_g = monitors
    tol = model.membership_tol
    rows = slice(lo, hi)
    state_ok, input_ok, plan_ok, resid_ok = tables.monitor.within(
        [record.x_true[rows], record.u[rows], record.x_meas[rows], record.u_pred[rows],
         record.w[rows] - model.w_set.center], tol)
    dist = row_norms(record.theta_hat[rows] - record.pred_state[rows])
    # The tube compares step t's prediction with G_K u_ss of step t - 1; step
    # 0 has no predecessor and passes.
    tube_ok = np.ones(hi - lo, bool)
    tube_marginal = np.zeros(hi - lo, bool)
    first = max(lo, 1)
    if first < hi:
        margin = model.tube_margin(record.pred_state[first:hi]
                                   - record.u_ss[first - 1:hi - 1] @ model.g_k.T,
                                   -model.tube_band)
        tube_ok[first - lo:] = margin <= TUBE_TOL
        tube_marginal[first - lo:] = tube_ok[first - lo:] & (
            margin + model.tube_band > MARGINAL_TOL)
    return {
        "state_ok": state_ok,
        "input_ok": input_ok,
        "candidate_ok": record.candidate_ok[rows],
        "plan_ok": plan_ok,
        "zs_ok": manifold.sbar.violations(record.u_ss[rows]) <= 1e-7,
        "g_cap_ok": record.g_norm[rows] <= c_g * dist + 1e-8,
        "tube_ok": tube_ok,
        "tube_marginal": tube_marginal,
        "resid_ok": resid_ok,
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


def _shapes(cost):
    return cost.q_x.shape, cost.q_u.shape, cost.ref_x.shape, cost.ref_u.shape


def _fits(cost, n, m):
    """True when q_x is (n, n), q_u (m, m), ref_x (n,) and ref_u (m,)."""
    return _shapes(cost) == ((n, n), (m, m), (n,), (m,))


def _check_cost(cost, n, m):
    """Raise unless ``_fits``."""
    if not _fits(cost, n, m):
        raise DimensionMismatch(f"cost shapes (q_x, q_u, ref_x, ref_u) {_shapes(cost)} do "
                                f"not fit n={n}, m={m}")


def _check_ref(ref, n, m, t):
    """Raise unless ``ref``, a reference a plant handed as data, is a finite
    [ref_x; ref_u] row: ``DimensionMismatch`` on a misfit, a failed step t
    (``StepError``) on a non-finite entry."""
    if np.shape(ref) != (n + m,):
        raise DimensionMismatch(f"reference shape {np.shape(ref)} does not fit n + m = {n + m}")
    if not np.logical_and.reduce(np.isfinite(ref)):
        raise StepError(t, ValueError("ref has non-finite entries"))


def _takes_map(cost):
    """True when ``cost``'s gradient is ``QuadraticCost.grad`` itself, so a
    step on it may take its weight pair's step map; a subclass that
    overrides ``grad``, and any other oracle, keep the gradient path."""
    return getattr(type(cost), "grad", None) is QuadraticCost.grad


def _pair_map(entry, cost, repeats, tables, manifold, gamma, t):
    """The step map of step t, on ``cost``, whose weight pair is the
    ``WeightPair`` ``entry``: None unless ``_takes_map(cost)``, else the
    entry's map, built into the entry first when it has none and
    ``repeats`` (step t's cost has the same pair, so the map serves at
    least two steps). A run whose weights change every step builds none. A
    map that fails to build fails step t."""
    if not _takes_map(cost):
        return None
    if entry.step_map is None and repeats:
        try:
            entry.step_map = oco.QuadraticStepMap(tables, manifold, entry.cost, gamma)
        except Exception as exc:
            raise StepError(t, exc) from exc
    return entry.step_map


def closed_loop(model, tables, manifold, controller, plant, horizon, zeta0,
                abort_on_violation=False, pairs=()):
    """The online loop for any plant; returns (trace, ledger).

    ``plant.observe(t)`` returns (x_true, x_meas, v, cost_t, ref_t) and
    ``plant.advance(u)`` applies u and returns the step's process
    disturbance w. ``ref_t`` is None, for cost_t's own references, or the
    step's reference [ref_x; ref_u] as one row, handed as data so that a
    plant whose reference moves every step hands the same cost object each
    time. The controller gets cost_t and ref_t only at step t + 1. Each step
    writes one row of the trace, a ``RunRecord`` (the controller's columns
    by ``oco.step_row`` from the row before's plan, row 0's from
    ``oco.initialize``), with the step's references and the index of
    cost_t's weight pair in ``record.pairs``: each new cost object is
    checked against the model (``_check_cost``) and its pair found
    (``RunRecord.pair_of``), and each reference handed as data is checked at
    its step (``_check_ref``); a misfit raises at t = 0 and aborts the run
    at t > 0. Flags, benchmarks, cost values and totals come after the run
    (``RunRecord.finish``; flags after each step under
    ``abort_on_violation``).

    ``pairs`` are ``WeightPair``s built beforehand, e.g. once for every run
    of a sweep design or every vehicle run; ``record.pairs`` starts as
    copies of them. Their maps must have been built on ``tables``,
    ``manifold`` and the controller's gamma and their benchmarks on
    ``manifold``, else ``OcoRobustError`` before t = 0. A step on a cost
    that takes a map (``_takes_map``) uses its weight pair's, built on
    first use when the pair repeats on the next step (``_pair_map``).

    On a plant whose ``observe`` and ``advance`` are ``_LtiPlant``'s own,
    with the explicit variant and gamma > 0, the loop runs ahead over steps
    whose costs keep the previous step's weight pair (``_run_ahead``): a
    block of up to ``oco.RUN_AHEAD_BLOCK`` steps in closed form, checked in
    one pass, keeping the steps before the first one the check rejects,
    which runs step by step. The block after one that kept fewer steps than
    it scanned holds at most ``oco.RUN_AHEAD_STEPS`` steps, each block kept
    whole doubles that cap up to ``oco.RUN_AHEAD_BLOCK``, and a new weight
    pair on a step that runs step by step resets it, so the rows computed
    in vain and the scan for a block's end stay linear in the horizon. Under
    ``abort_on_violation`` a block is flagged after it is kept. A block's
    first step is the step-by-step step to the bit; every float column and
    ledger total agrees with the run step by step within 1e-12 (1 + |step by
    step|), and beta, the flags and the steps that run step by step are the
    same, on the bundled configs, the regret sweep and drawn models
    (``MARGINAL_TOL`` keeps ``tube_marginal`` from rounding). Beta may
    differ in its last bits only on a step-by-step step after a block of two
    or more steps whose ``max_beta`` ratio is strictly inside (0, 1).
    """
    check_horizon(horizon)
    for entry in pairs:
        built, benchmark = entry.step_map, entry.benchmark
        if ((built is not None and not (built.tables is tables and built.manifold is manifold
                                        and built.gamma == controller.gamma))
                or (benchmark is not None and benchmark.manifold is not manifold)):
            raise OcoRobustError("a weight pair built beforehand was built for other tables, "
                                 "manifold or gamma")
    x_true, x_meas, v, cost_t, ref_t = plant.observe(0)
    if not model.x_set.contains(x_true, tol=model.membership_tol):
        raise OcoRobustError("x0 violates the state constraints")
    _check_cost(cost_t, model.n, model.m)
    if ref_t is not None:
        _check_ref(ref_t, model.n, model.m, 0)
    record = RunRecord(model.n, model.m, model.mu, horizon, pairs)
    pair = record.pair_of(cost_t)
    c_g = controller.effective_c_g(model)
    check_c_g(c_g, model)
    state = oco.initialize(model, tables, manifold, zeta0, x_meas)
    record.fill(0, plan=state.plan, theta_hat=state.zeta_hat[0], eta_hat=state.zeta_hat[1],
                pred_state=model.g_k @ state.u_ss, u=state.plan[:model.m] + model.k @ x_meas,
                beta=0.0, g_norm=0.0, kkt_residual=np.nan, candidate_ok=True, g_fallback=False)

    monitors = (model, tables, manifold, c_g)
    ahead = _runs_ahead(plant, controller)
    serial = False  # the next step runs step by step
    cap = oco.RUN_AHEAD_BLOCK  # the most steps of the next block
    t = 0
    while t < horizon:
        if t > 0 and ahead and not serial:
            try:
                kept, whole, serial, cost_t = _run_ahead(
                    plant, record, cost_t, pair, t, min(t + cap, horizon), model, tables,
                    manifold, controller.gamma)
            except OcoRobustError as exc:
                raise SimulationAborted(str(exc), record, record.finish(t, monitors),
                                        t) from exc
            if not whole:
                cap = oco.RUN_AHEAD_STEPS
            elif kept:
                cap = min(2 * cap, oco.RUN_AHEAD_BLOCK)
            if kept:
                if abort_on_violation:
                    _abort_at_violation(record, t, t + kept, monitors)
                t += kept
                continue
        serial = False
        if t > 0:
            prev_cost, prev_ref, prev_pair = cost_t, ref_t, pair
            x_true, x_meas, v, cost_t, ref_t = plant.observe(t)
            try:
                if cost_t is not prev_cost:
                    _check_cost(cost_t, model.n, model.m)
                    pair = record.pair_of(cost_t)
                    if pair != prev_pair:
                        cap = oco.RUN_AHEAD_BLOCK
                if ref_t is not None:
                    _check_ref(ref_t, model.n, model.m, t)
                step_map = _pair_map(record.pairs[prev_pair], prev_cost, pair == prev_pair,
                                     tables, manifold, controller.gamma, t)
                oco.step_row(record, t, model, tables, manifold, x_meas, prev_cost, controller,
                             step_map, prev_ref)
            except OcoRobustError as exc:
                raise SimulationAborted(str(exc), record, record.finish(t, monitors),
                                        t) from exc

        w = plant.advance(record.u[t])
        record.x_true[t], record.x_meas[t], record.w[t], record.v[t] = x_true, x_meas, w, v
        record.ref_x[t], record.ref_u[t] = ((cost_t.ref_x, cost_t.ref_u) if ref_t is None
                                            else (ref_t[:model.n], ref_t[model.n:]))
        record.pair[t] = pair
        if abort_on_violation:
            _abort_at_violation(record, t, t + 1, monitors)
        t += 1
    return record, record.finish(horizon, monitors)


def _abort_at_violation(record, lo, hi, monitors):
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
                                record.finish(lo + i + 1, monitors), lo + i)


def _runs_ahead(plant, controller):
    """True when ``closed_loop`` may run ``plant`` ahead: its class's
    ``observe`` and ``advance`` are ``_LtiPlant``'s own (``_LTI_OWN``) and
    the controller is the explicit variant with gamma > 0 (else
    ``oco.step_row`` fails at t = 1)."""
    cls = type(plant)
    return (getattr(cls, "observe", None) is _LTI_OWN[0]
            and getattr(cls, "advance", None) is _LTI_OWN[1]
            and controller.rollout_builder is None and controller.gamma > 0)


def _run_ahead(plant, record, cost, pair, t, stop, model, tables, manifold, gamma):
    """Run ``plant`` ahead from step t, to ``stop`` at most, over the steps
    whose costs keep the weight pair ``pair`` of the previous step's cost
    ``cost``, from row t - 1's plan; returns (kept, whole, rejected, the
    cost of the last kept step, or ``cost``).

    Nothing runs (kept = 0) unless ``cost`` takes a map (``_takes_map``).
    The steps' costs come from the plant's schedule, scanned up to ``stop``
    only: the scan compares cost objects by identity and ends before the
    first new one that does not take a map, does not fit the model
    (``_fits``) or has another weight pair (``_same_weights``), which then
    runs step by step; it adds no entry to ``record.pairs``. The block runs
    on the pair's map (``_pair_map``), each step on the reference of the
    cost of the step before it (step t reads ``cost``), so it crosses
    reference hops. ``_LtiPlant.ahead`` takes one block of steps to the
    scan's end, and ``oco.settled_rows`` checks them in one pass. The block
    keeps the ``kept`` steps before the first one the check rejects (then
    ``rejected`` is True and that step runs step by step), or all its
    steps. ``whole`` is True when the kept steps reach the scan's end (so
    also when the scan ends at t) and False when they stop short of it, as
    a one-step block does on a longer stretch. They go to ``record`` by
    slices, each with its own references and ``pair``, and the plant moves
    past them.
    """
    if not _takes_map(cost):
        return 0, True, False, cost
    schedule, entry = plant.cost_schedule, record.pairs[pair]
    n, m = model.n, model.m
    now, end = schedule.cost_at(t), t
    costs, starts = [cost], [t - 1]  # each cost object of the scan, from its first step
    while True:  # ``now`` is the cost of step ``end``
        if now is not costs[-1]:
            if not (_takes_map(now) and _fits(now, n, m) and _same_weights(entry.cost, now)):
                break
            costs.append(now)
            starts.append(end)
        end += 1
        if end == stop:
            break
        now = schedule.cost_at(end)
    if end == t:
        return 0, True, False, cost
    step_map = _pair_map(entry, cost, True, tables, manifold, gamma, t)
    # each row's cost among ``costs``, for steps t - 1 to end - 1
    which = np.repeat(np.arange(len(costs)), np.diff(starts + [end]))
    refs = np.array([np.concatenate((c.ref_x, c.ref_u)) for c in costs])[which]
    with np.errstate(all="ignore"):  # a rejected row may hold NaN or inf
        x, x_meas, outs, plans, u, norms = plant.ahead(step_map, refs[:-1],
                                                       record.plan[t - 1, m:], t, end)
        ok = oco.settled_rows(step_map, manifold, x_meas, outs, norms[:, 0],
                              model.membership_tol)
    kept = len(ok) if ok.all() else int(np.argmin(ok))
    rejected = kept < len(ok)
    if kept:
        rows, last = slice(t, t + kept), kept - 1
        record.fill(rows, x_true=x[:kept], x_meas=x_meas[:kept], u=u[:kept], w=plant.w[rows],
                    v=plant.v[rows], beta=1.0, g_norm=norms[:kept, 1],
                    pred_state=outs[:kept, step_map.pred],
                    theta_hat=outs[:kept, step_map.theta], eta_hat=outs[:kept, step_map.eta],
                    plan=plans[:kept], kkt_residual=np.nan, candidate_ok=True, g_fallback=False,
                    ref_x=refs[1:kept + 1, :n], ref_u=refs[1:kept + 1, n:], pair=pair)
        plant.x, plant.t = x[last], t + last
        plant.advance(u[last])
        cost = costs[which[kept]]
    return kept, t + kept == end, rejected, cost


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
        return self.x, self.x + v, v, self.cost_schedule.cost_at(t), None

    def advance(self, u):
        w = self.w[self.t]
        self.x = self.model.a @ self.x + self.model.b @ u + w
        return w

    def ahead(self, step_map, refs, candidate, t, stop):
        """A block of steps from step t, at most to ``stop``, from the
        plant's state and the shifted plan ``candidate``, each taken as
        ``oco.step_row`` takes an explicit step that ``step_map``'s rows
        settle on a cost with the step's row of ``refs`` ([ref_x; ref_u], one
        row per step; g, the plan and u are the rows ``g``, ``plan`` and
        ``u``) and applied as ``observe`` and ``advance`` would; nothing is
        checked and the plant does not move.

        The block's first step is taken as ``oco.step_row`` takes it, from
        the map's product at the plant's state, so it is the step-by-step step
        to the bit; its other steps come in closed form from the map's
        ``LiftedSteps``, one scan of at most its ``steps`` rows per chunk (one
        drive product, one map product, one check and one record fill serve
        the whole block). Where ``steps`` is 1, the block is its first step. It ends before
        the first step whose v is not finite and after the first step whose
        w is not finite, and so holds no step at all when v_t is not finite.

        Returns per step: x, x_meas, the map's rows, the plan, u and (reach
        gap norm, g_norm).
        """
        v, w = self.v[t:stop], self.w[t:stop]
        finite = np.concatenate([[True], row_reduce(np.logical_and, np.isfinite(w[:-1]))])
        finite &= row_reduce(np.logical_and, np.isfinite(v))
        rows = len(finite) if finite.all() else int(np.argmin(finite))
        lifted = step_map.lifted(self.model.a, self.model.b)
        if lifted.steps == 1:
            rows = min(rows, 1)
        xs, x_metas, outs, plans, us, norms = lifted.run(step_map, self.x, candidate,
                                                         refs[:rows], v[:rows], w[:rows])
        if rows:  # the first step as oco.step_row takes it, to the bit
            x_meas = self.x + v[0]
            out = step_map.rows_at(x_meas, candidate, refs[0])
            gap, g = out[step_map.gap], out[step_map.g]
            xs[0], x_metas[0], outs[0] = self.x, x_meas, out  # plans, us: views of outs
            norms[0] = math.sqrt(gap @ gap), math.sqrt(g @ g)
        return xs, x_metas, outs, plans, us, norms


# The plant methods ``closed_loop`` runs ahead for (see ``_runs_ahead``),
# taken when the module loads: a plant class whose methods are others, by
# subclassing or by patching, runs step by step.
_LTI_OWN = (_LtiPlant.observe, _LtiPlant.advance)


def run_closed_loop(model, tables, manifold, controller, cost_schedule, dist_policy,
                    horizon, zeta0=None, x0=None, abort_on_violation=False, pairs=()):
    """Simulate Eq-style dynamics x+ = Ax + Bu + w with noisy measurements.

    Returns (trace, ledger). Deterministic for a fixed policy seed and config.
    ``pairs`` are ``WeightPair``s built beforehand for the schedule's
    weights, so that many runs share one benchmark, step map and
    ``LiftedSteps`` per weight pair (see ``closed_loop``).
    """
    check_horizon(horizon)
    x0 = np.zeros(model.n) if x0 is None else np.asarray(x0, float)
    if zeta0 is None:
        zeta0 = (np.zeros(model.n), np.zeros(model.m))
    plant = _LtiPlant(model, cost_schedule, dist_policy, x0, horizon)
    return closed_loop(model, tables, manifold, controller, plant, horizon, zeta0,
                       abort_on_violation=abort_on_violation, pairs=pairs)


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
    dists = row_norms(trace.theta_hat[later] - trace.pred_state[later])
    win = model.mu + 1
    windows = win_viol = 0
    max_active = 0.0
    if len(betas) >= win:
        prods = np.prod(sliding_window_view(1.0 - betas, win), axis=1)
        active = row_reduce(np.logical_or, sliding_window_view(dists > distance_floor, win))
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
        if not starts or starts[0] != 0 or any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("pieces must start at 0, each after the one before")
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
    ``path_generator.benchmark()`` built for the whole design. Every run
    gets it and one ``oco.QuadraticStepMap`` for the design's base weights
    and ``controller.gamma`` as the ``WeightPair`` of its weights, so the
    benchmark, the map and its ``LiftedSteps`` are built once per design,
    not once per run. Emits one
    row per (level, scale, seed) with the measured path length, disturbance
    energies, and final regret, plus an affine fit regret ~ c0 + c_path *
    path + c_noise * (w_energy + v_energy).
    """
    rows = []
    benchmark = path_generator.benchmark()
    base = path_generator.base_cost
    pairs = (WeightPair(base, benchmark,
                        oco.QuadraticStepMap(tables, manifold, base, controller.gamma)
                        if _takes_map(base) else None),)
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
                                            pairs=pairs)
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
