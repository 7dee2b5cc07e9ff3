"""Autonomous-vehicle overtaking case study.

Simulation truth is the nonlinear kinematics (longitudinal and lateral
position, speed) integrated with RK4 at the 0.1 s sample time, with a
constant-speed leader ahead on the right lane. The controller runs on the
reduced linear model of (lateral position, speed deviation from 100 km/h);
the longitudinal position does not enter any constraint and is excluded.
The gap between the reduced linear model and the integrated truth is the
process disturbance; the resid_ok monitor checks it against the disturbance
box.

Scenario phases: cruise at 120 km/h on the right lane; once the leader is
detected 100 m ahead, match its (noisily estimated) speed while softly
keeping a 50 m safety distance; at 20 s, change lane and accelerate to the
speed limit to overtake.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import oco_controller as oco
from .convexsets import HPolytope, Zonotope
from .denseqp import PrefactoredQp
from .matlin import as_matrix
from .plant import (
    ModelConfig,
    QuadraticCost,
    SteadyStateBenchmark,
    build_model,
    build_tightening,
    optimal_steady_state,
    steady_state_manifold,
)
from .simkit import WeightPair, check_horizon, closed_loop

TAU = 0.1                      # s
DELTA_BAR_KMH = 100.0          # linearization speed
LANE_BOUNDS_M = (-1.5, 4.5)
SPEED_BOUNDS_KMH = (0.0, 130.0)
STEER_BOUND_RAD = np.deg2rad(20.0)
ACCEL_BOUND = 4.0              # m/s^2
W_HALFWIDTH = 0.2              # linearization error box, both axes
POS_NOISE_M = 0.1
SPEED_NOISE_KMH = 0.1
DIST_NOISE_M = 0.1

PHASE1_TARGET_KMH = 120.0
PHASE3_TARGET_KMH = 130.0
PHASE3_LANE_M = 3.0
PHASE3_SPEED_WEIGHT = 5.0
INPUT_WEIGHT = 50.0            # 50 ||u||^2, i.e. Hessian 100 per input


def kmh_to_ms(v):
    return v / 3.6


def ms_to_kmh(v):
    return v * 3.6


DELTA_BAR = kmh_to_ms(DELTA_BAR_KMH)


@dataclass(frozen=True)
class VehicleParams:
    initial_speed_kmh: float = 120.0
    leader_speed_kmh: float = 70.0
    initial_gap_m: float = 150.0
    detect_gap_m: float = 100.0
    overtake_time_s: float = 20.0
    safety_distance_m: float = 50.0
    slack_weight: float = 100.0
    mu: int = 10
    gamma: float = 0.7
    c_g: float = 1000.0
    shrink: float = 0.99
    poles: tuple = (0.7, 0.8)
    k: tuple | None = None           # feedback override, row tuples
    sensor_noise_scale: float = 1.0
    linear_truth: bool = False       # ideal truth equal to the reduced model


def reduced_dynamics():
    """Discrete reduced model around the linearization speed: A = I,
    B = diag(tau * Delta_bar, tau)."""
    a = np.eye(2)
    b = np.diag([TAU * DELTA_BAR, TAU])
    return a, b


def default_feedback(poles=(0.7, 0.8)):
    """Diagonal pole placement for the reduced model (B is invertible).

    The speed-axis pole sets how much of the speed range the tightening
    eats and how hard the plan may brake; 0.8 puts the tightened speed
    limit near 125 km/h and the two-car standoff in the mid 50s of meters.
    """
    a, b = reduced_dynamics()
    return np.linalg.solve(b, np.diag(poles) - a)


def vehicle_model_config(params=None):
    """Reduced 2-state, 2-input model data with the scenario constraint boxes.

    States are (lateral position [m], speed deviation from 100 km/h [m/s]),
    so the origin is interior to every constraint set as required.
    """
    params = params or VehicleParams()
    a, b = reduced_dynamics()
    k = default_feedback(params.poles) if params.k is None else as_matrix(params.k, "k")
    x_lb = np.array([LANE_BOUNDS_M[0], kmh_to_ms(SPEED_BOUNDS_KMH[0]) - DELTA_BAR])
    x_ub = np.array([LANE_BOUNDS_M[1], kmh_to_ms(SPEED_BOUNDS_KMH[1]) - DELTA_BAR])
    u_bound = np.array([STEER_BOUND_RAD, ACCEL_BOUND])
    return ModelConfig(
        a=a, b=b, k=k, mu=params.mu,
        x_set=HPolytope.box(x_lb, x_ub),
        u_set=HPolytope.box(-u_bound, u_bound),
        w_set=Zonotope.box([W_HALFWIDTH, W_HALFWIDTH]),
        v_set=Zonotope.box([POS_NOISE_M, kmh_to_ms(SPEED_NOISE_KMH)]),
    )


def build_vehicle_model(params=None):
    """The validated vehicle model; see ``vehicle_model_config``."""
    return build_model(vehicle_model_config(params))


@dataclass
class VehicleSetup:
    """What runs share; no run changes it.

    ``pairs`` holds a ``simkit.WeightPair`` per phase weight pair, with its
    ``SteadyStateBenchmark`` and ``oco.QuadraticStepMap`` (for
    ``params.gamma``): phases 1 and 2 (``PHASE1_COST``), then phase 3.
    """

    params: VehicleParams
    model: object
    tables: object
    manifold: object
    builder: object
    pairs: tuple


@functools.lru_cache(maxsize=8)
def vehicle_setup(params=None):
    params = params or VehicleParams()
    model = build_vehicle_model(params)
    tables = build_tightening(model)
    manifold = steady_state_manifold(model, model.p_rpi, shrink=params.shrink)
    return VehicleSetup(params, model, tables, manifold, VehicleRolloutBuilder(model, params),
                        tuple(WeightPair(cost, SteadyStateBenchmark(manifold, model, cost),
                                         oco.QuadraticStepMap(tables, manifold, cost,
                                                              params.gamma))
                              for cost in (PHASE1_COST, _PHASE3_COST)))


_Q_INPUT = np.eye(2) * 2.0 * INPUT_WEIGHT
_Q_STATE = np.eye(2)
_Q_STATE_P3 = np.diag([1.0, PHASE3_SPEED_WEIGHT])
_REF_U = np.zeros(2)
# Phase 1's cost; phase 2 shares its weight arrays and hands its reference
# as data (``_RoadPlant.observe``).
PHASE1_COST = QuadraticCost(_Q_STATE, _Q_INPUT,
                            [0.0, kmh_to_ms(PHASE1_TARGET_KMH) - DELTA_BAR],
                            _REF_U)
_PHASE3_COST = QuadraticCost(_Q_STATE_P3, _Q_INPUT,
                             [PHASE3_LANE_M, kmh_to_ms(PHASE3_TARGET_KMH) - DELTA_BAR],
                             _REF_U)


class VehicleRolloutBuilder:
    """Rollout maps of the optimized additional-input variant, one per
    planner phase (``maps``), built here once.

    The stage cost is the active phase cost with the controller's own
    steady-state estimate as target, summed over the mu-step rollout of
    g + candidate under state feedback. In the following phase it adds the
    soft safety-distance rows on the predicted gap, through a slack solver:
    the rows are fixed, only their offsets change per step. The own travel
    the rows predict is TAU times the summed rollout speeds, ``gap_x @ x +
    gap_c @ candidate + gap_c @ g`` with the fixed rows ``gap_x`` = cum_speed
    P0 and ``gap_c`` = cum_speed E, so the offsets' part in x and the
    candidate is a block of the slack map; ``rollout`` adds the part the
    planner context sets. Each call brings that context, so runs share one
    builder.
    """

    def __init__(self, model, params):
        mu, n = model.mu, model.n
        # Phases 1 and 2 share their weights; phase 3 weighs speed more.
        follow = oco.QuadraticRolloutBuilder(model, _Q_STATE, _Q_INPUT)
        speed_rows = np.zeros((mu, mu * n))
        for j in range(mu):
            speed_rows[j, j * n + 1] = 1.0
        cum_speed = np.vstack([np.zeros((1, mu * n)),
                               np.cumsum(speed_rows, axis=0)])  # k = 0..mu
        gap_x, gap_c = cum_speed @ model._px, cum_speed @ model._pu
        self.gap_k = TAU * np.arange(mu + 1)
        # Variables (g, eps): the follow weights plus slack_weight * eps^2,
        # the soft rows -TAU gap_c g + offsets + eps >= 0, and S_c g = d.
        nv = mu * model.m
        h = np.zeros((nv + 1, nv + 1))
        h[:nv, :nv] = follow.hessian
        h[nv, nv] = 2.0 * params.slack_weight
        slack_solver = PrefactoredQp(
            h, ineq_normals=np.hstack([TAU * gap_c, -np.ones((mu + 1, 1))]),
            eq_normals=np.hstack([model.s_c, np.zeros((n, 1))]))
        linear = follow.matrix[follow.linear]
        # Offsets less the planner context: -TAU (gap_x x + gap_c candidate)
        # - safety, in the map's columns [x; candidate; theta_hat; d; 1].
        offsets = np.hstack([-TAU * gap_x, -TAU * gap_c, np.zeros((mu + 1, 2 * n)),
                             np.full((mu + 1, 1), -params.safety_distance_m)])
        slack = oco.RolloutMap(slack_solver, np.vstack([linear, np.zeros(linear.shape[1])]),
                               offsets)
        self.maps = {1: follow, 2: slack,
                     3: oco.QuadraticRolloutBuilder(model, _Q_STATE_P3, _Q_INPUT)}

    def rollout(self, phase, gap_meas, est_speed_dev):
        """The rollout map of a step in planner ``phase`` and its offset
        shift: in phase 2 the gap prediction's start ``gap_meas`` plus the
        leader's travel at the estimated speed deviation ``est_speed_dev``,
        at k = 0..mu; no shift in phases 1 and 3."""
        if phase == 2:
            return self.maps[2], gap_meas + self.gap_k * est_speed_dev
        return self.maps[phase], None


class _Sensors:
    """A run's sensor noise, drawn whole per stream (one value per step):
    ``v`` the (position, speed) measurement noise rows, ``dist`` the gap
    noise."""

    def __init__(self, seed, scale, steps):
        bounds = (POS_NOISE_M * scale, kmh_to_ms(SPEED_NOISE_KMH) * scale, DIST_NOISE_M * scale)
        pos, speed, dist = (np.random.default_rng(kid).uniform(-bound, bound, steps)
                            for kid, bound in zip(np.random.SeedSequence(seed).spawn(3), bounds))
        self.v = np.column_stack([pos, speed])
        self.dist = dist.tolist()


def _rk4_step(state, u):
    """One RK4 step of the kinematics (p_x, p_y, speed)' = (speed cos(steer),
    speed sin(steer), accel) on Python floats, in the operation order of the
    vector form: stage states state + (TAU/2) k_i and state + TAU k_3, then
    state + (TAU/6) (k1 + 2 k2 + 2 k3 + k4). The state enters the derivative
    through the speed only, so only the stage speeds are formed: stages 2
    and 3 both have speed + (TAU/2) accel, and so the same derivative."""
    steer, accel = float(u[0]), float(u[1])
    cos_steer, sin_steer = math.cos(steer), math.sin(steer)
    p_x, p_y, speed = state
    mid = speed + 0.5 * TAU * accel  # stages 2 and 3
    end = speed + TAU * accel  # stage 4
    mid_x, mid_y = 2 * (mid * cos_steer), 2 * (mid * sin_steer)
    return (p_x + (TAU / 6.0) * (speed * cos_steer + mid_x + mid_x + end * cos_steer),
            p_y + (TAU / 6.0) * (speed * sin_steer + mid_y + mid_y + end * sin_steer),
            speed + (TAU / 6.0) * (accel + 2 * accel + 2 * accel + accel))


_REDUCED_A, _REDUCED_B = reduced_dynamics()
_B_Y, _B_V = np.diag(_REDUCED_B).tolist()


def _linear_truth_step(state, u):
    # Ideal truth: the reduced model applied to (p_y, speed), p_x advanced
    # with the current speed.
    px, py, speed = state
    red = np.array([py, speed - DELTA_BAR])
    red = _REDUCED_A @ red + _REDUCED_B @ np.asarray(u, float)
    return np.array([px + TAU * speed, red[0], DELTA_BAR + red[1]])


class _RoadPlant:
    """The overtaking road as a closed-loop plant: RK4 (or ideal linear)
    truth, a constant-speed leader, the planner phases and the sensors; and
    the optimized run's rollout builder, with the last ``observe``'s context.
    """

    def __init__(self, params, seed, builder, steps):
        self.params, self.builder = params, builder
        self.sensors = _Sensors(seed, params.sensor_noise_scale, steps)
        self.truth_step = _linear_truth_step if params.linear_truth else _rk4_step
        self.truth = (0.0, 0.0, kmh_to_ms(params.initial_speed_kmh))
        self.leader_px = params.initial_gap_m
        self.leader_speed = kmh_to_ms(params.leader_speed_kmh)
        self.overtake_step = int(round(params.overtake_time_s / TAU))
        self.detected = False
        self.gap_meas = self.prev_gap_meas = self.x_true = self.phase = self.est_speed_dev = None
        self.metrics = {"phase2_start": None, "phase3_start": None, "gap_m": [],
                        "speed_kmh": [], "phase": [], "leader_est_kmh": []}

    def observe(self, t):
        """``closed_loop``'s step-t values: in phase 2 phase 1's cost and the
        step's reference [ref_x; ref_u] = [0, est_speed_dev, 0, 0] as data
        (phase 2 tracks the leader-speed estimate with phase 1's weights, so
        one weight pair serves phases 1 and 2), else the phase's cost and
        None."""
        metrics = self.metrics
        true_gap = self.leader_px - self.truth[0]
        self.gap_meas = gap_meas = true_gap + self.sensors.dist[t]
        v = self.sensors.v[t]
        self.x_true = x_true = np.array([self.truth[1], self.truth[2] - DELTA_BAR])
        x_meas = x_true + v

        if t >= self.overtake_step:
            phase = 3
        else:
            if not self.detected and gap_meas <= self.params.detect_gap_m:
                self.detected = True
            phase = 2 if self.detected else 1
        self.phase, self.est_speed_dev, ref = phase, None, None
        if phase == 2:
            if self.prev_gap_meas is None:
                est_abs = x_meas[1] + DELTA_BAR
            else:
                est_abs = (gap_meas - self.prev_gap_meas) / TAU + (x_meas[1] + DELTA_BAR)
            self.est_speed_dev = est_abs - DELTA_BAR
            ref = np.array([0.0, self.est_speed_dev, 0.0, 0.0])
            metrics["leader_est_kmh"].append(ms_to_kmh(est_abs))
        else:
            metrics["leader_est_kmh"].append(None)
        cost_t = _PHASE3_COST if phase == 3 else PHASE1_COST
        if metrics["phase2_start"] is None and phase == 2:
            metrics["phase2_start"] = t
        if metrics["phase3_start"] is None and phase == 3:
            metrics["phase3_start"] = t

        metrics["gap_m"].append(true_gap)
        metrics["speed_kmh"].append(ms_to_kmh(self.truth[2]))
        metrics["phase"].append(phase)
        return x_true, x_meas, v, cost_t, ref

    def rollout(self):
        return self.builder.rollout(self.phase, self.gap_meas, self.est_speed_dev)

    def advance(self, u):
        """Integrate the truth; the process disturbance is the residual of
        the reduced linear model, which the loop's resid_ok monitor checks
        against the disturbance box. It is formed on floats, from the reduced
        model's A = I and B = diag(tau Delta_bar, tau), in the operation order
        of ``model.a @ x_true + model.b @ u``: each row of a 2 x 2 product sums
        0.0 and its two terms, so the signed zeros and NaNs are that form's."""
        new_truth = self.truth_step(self.truth, u)
        self.leader_px += TAU * self.leader_speed
        self.truth, self.prev_gap_meas = new_truth, self.gap_meas
        (y, s), (steer, accel) = self.x_true.tolist(), u.tolist()
        model_y = (0.0 + y + 0.0 * s) + (0.0 + _B_Y * steer + 0.0 * accel)
        model_s = (0.0 + 0.0 * y + s) + (0.0 + 0.0 * steer + _B_V * accel)
        return np.array([new_truth[1] - model_y, (new_truth[2] - DELTA_BAR) - model_s])


def run_scenario(variant="optimized", seed=0, params=None, horizon_steps=300,
                 setup=None):
    """Closed-loop overtaking scenario; returns (trace, ledger, metrics).

    ``variant`` picks how the additional input sequence is computed:
    "optimized" solves the phase rollout QP, "explicit" uses the least-norm
    formula. The seed drives the sensor noise only; the process disturbance
    is the actual linearization residual, which the resid_ok monitor checks
    against the disturbance box at every step.
    """
    if variant not in ("optimized", "explicit"):
        raise ValueError("variant must be 'optimized' or 'explicit'")
    check_horizon(horizon_steps)
    params = params or VehicleParams()
    setup = setup or vehicle_setup(params)
    model, tables, manifold = setup.model, setup.tables, setup.manifold

    plant = _RoadPlant(params, seed, setup.builder, horizon_steps)
    controller = oco.ControllerConfig(gamma=params.gamma, c_g=params.c_g,
                                      rollout_builder=plant if variant == "optimized" else None)
    first = setup.pairs[0]  # phase 1's
    zeta0 = optimal_steady_state(manifold, first.cost, model, first.benchmark)
    trace, ledger = closed_loop(model, tables, manifold, controller, plant, horizon_steps,
                                zeta0, pairs=setup.pairs)
    metrics = {"variant": variant, "seed": seed, **plant.metrics}
    _finalize_metrics(metrics, trace)
    return trace, ledger, metrics


def _finalize_metrics(metrics, trace):
    window = int(round(5.0 / TAU))
    speeds = np.asarray(metrics["speed_kmh"])
    gaps = np.asarray(metrics["gap_m"])
    phases = np.asarray(metrics["phase"])
    metrics["min_gap_m"] = float(gaps.min())
    # the settled speed is the mean speed of the last window, all in phase 3
    settled = len(phases) >= window and np.all(phases[-window:] == 3)
    metrics["phase3_settled_speed_kmh"] = float(speeds[-window:].mean()) if settled else None
    p3 = metrics["phase3_start"]
    # the standoff is the mean gap of the window before phase 3, all in phase 2
    sel = slice(p3 - window, p3) if p3 is not None and p3 >= window else None
    standoff = sel is not None and np.all(phases[sel] == 2)
    metrics["phase2_standoff_gap_m"] = float(gaps[sel].mean()) if standoff else None
