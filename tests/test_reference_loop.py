"""``closed_loop`` against a reference loop that shares no code with it.

The reference runs the explicit variant on the LTI plant one step at a time,
written out plainly from A, B, K and mu: the mu-step prediction by
simulation, the gradient step on the previous cost, the projection onto the
shrunk manifold by exact enumeration of active sets (at most m rows of
S-bar, each a KKT solve), the least-norm input from ``np.linalg.lstsq`` on
the controllability matrix it builds itself, beta by bisection
(``conftest.max_beta_bisect``), the blend and the feedback. It reads only
the model's matrices and sets, the tightening tables (the constraints
beta is bounded by) and the plant's noise draws. Its flags come from its
own margins, formed from the set primitives.

States, inputs, beta and every other float column must agree with
``closed_loop`` within REL (1 + |reference|); beta by bisection is within
1e-10 of the ratio test. A flag may differ only on a row whose reference
margin sits within REL of the flag's bound; those rows are counted. The
runs: the bundled double integrator and regret sweep, a 1,000-step double
integrator run that ``closed_loop`` takes in one block, and drawn models
(``tests/test_drawn_models.py``).
"""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from ocorobust import cli, simkit, vehicle
from ocorobust import oco_controller as oco
from ocorobust.errors import OcoRobustError
from ocorobust.plant import (
    QuadraticCost,
    build_model,
    build_tightening,
    cost_curvature,
    optimal_steady_state,
    stage_values,
    steady_state_manifold,
)
from ocorobust.simkit import ConstantSchedule, DisturbancePolicy, PiecewiseSchedule
from test_drawn_models import build, drawn_models
from test_step_map import di_schedule

from conftest import assert_close, max_beta_bisect

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REL = 1e-8
COLUMNS = ("x_true", "x_meas", "u", "beta", "g_norm", "pred_state", "theta_hat", "eta_hat",
           "u_pred", "u_ss")


def project(normals, offsets, g_k, x_s, u_s):
    """The u of the point of {(G_K u, u): normals u <= offsets} nearest to
    (x_s, u_s): the KKT point of the first active set, by size, whose
    multipliers are nonnegative and whose point is feasible."""
    m = u_s.size
    h = 2.0 * (g_k.T @ g_k + np.eye(m))
    q = -2.0 * (g_k.T @ x_s + u_s)
    for size in range(m + 1):
        for rows in itertools.combinations(range(len(offsets)), size):
            active = normals[list(rows)]
            kkt = np.block([[h, active.T], [active, np.zeros((size, size))]])
            try:
                sol = np.linalg.solve(kkt, np.concatenate([-q, offsets[list(rows)]]))
            except np.linalg.LinAlgError:
                continue
            u, lam = sol[:m], sol[m:]
            if np.all(normals @ u <= offsets + 1e-9) and np.all(lam >= -1e-9):
                return u
    raise AssertionError("no active set satisfies the KKT conditions")


def reference_run(model, tables, manifold, schedule, policy, horizon, zeta0, x0, gamma, c_g):
    """The run's columns and its flag margins (<= 0 passes), one step at a time."""
    a, b, k, mu = model.a, model.b, model.k, model.mu
    n, m = b.shape
    a_k = a + b @ k
    s_c = np.hstack([np.linalg.matrix_power(a_k, mu - 1 - j) @ b for j in range(mu)])
    g_k = np.linalg.solve(np.eye(n) - a_k, b)
    sampler = simkit._Sampler(policy, model.w_set, model.v_set, horizon)
    normals, offsets = manifold.sbar.normals, manifold.sbar.offsets

    def predict(x, inputs):
        for j in range(mu):
            x = a_k @ x + b @ inputs[j * m:(j + 1) * m]
        return x

    rows = {name: [] for name in COLUMNS + ("w", "v", "candidate_worst")}
    x = np.asarray(x0, float)
    theta, eta = zeta0
    x_meas = x + sampler.v[0]
    tiled = np.tile(eta, mu)
    g = np.linalg.lstsq(s_c, theta - predict(x_meas, tiled), rcond=None)[0]
    plan = np.concatenate([tiled + g, eta])
    beta, g_norm, pred, worst = 0.0, 0.0, g_k @ eta, -np.inf
    for t in range(horizon):
        if t > 0:
            x_meas = x + sampler.v[t]
            candidate = plan[m:]
            u_ss = plan[-m:]
            pred = predict(x_meas, candidate)
            cost = schedule.cost_at(t - 1)
            gx = cost.q_x @ (pred - cost.ref_x)
            gv = cost.q_u @ (u_ss + k @ pred - cost.ref_u)
            eta = project(normals, offsets, g_k, pred - gamma * (gx + k.T @ gv),
                          u_ss - gamma * gv)
            theta = g_k @ eta
            g = np.linalg.lstsq(s_c, theta - pred, rcond=None)[0]
            g_norm = float(np.linalg.norm(g))
            beta = max_beta_bisect(tables, model, x_meas, candidate, g)
            worst = float(stage_values(tables, x_meas, candidate).max())
            plan = np.concatenate([candidate + beta * g, (1.0 - beta) * u_ss + beta * eta])
        u = plan[:m] + k @ x_meas
        w = sampler.w[t]
        for name, value in (("x_true", x), ("x_meas", x_meas), ("u", u), ("beta", beta),
                            ("g_norm", g_norm), ("pred_state", pred), ("theta_hat", theta),
                            ("eta_hat", eta), ("u_pred", plan[:-m]), ("u_ss", plan[-m:]),
                            ("w", w), ("v", sampler.v[t]), ("candidate_worst", worst)):
            rows[name].append(value)
        x = a @ x + b @ u + w
    cols = {name: np.array(value) for name, value in rows.items()}
    tol = model.membership_tol
    plan = (cols["x_meas"] @ tables.residual_x.T + cols["u_pred"] @ tables.residual_u.T
            - tables.residual_offsets).max(axis=1)
    w_normals, w_offsets = model.w_set.to_halfspaces()
    w_margins = ((cols["w"] - model.w_set.center) @ w_normals.T - w_offsets).max(axis=1)
    margins = {
        "state_ok": model.x_set.violations(cols["x_true"]) - tol,
        "input_ok": model.u_set.violations(cols["u"]) - tol,
        "candidate_ok": cols["candidate_worst"] - tol,
        "plan_ok": plan - tol,
        "zs_ok": manifold.sbar.violations(cols["u_ss"]) - 1e-7,
        "g_cap_ok": cols["g_norm"] - c_g * np.linalg.norm(cols["theta_hat"]
                                                          - cols["pred_state"], axis=1) - 1e-8,
        "resid_ok": w_margins - tol,
    }
    tube = np.full(horizon, -np.inf)
    tube[1:] = model.tube_margins(cols["pred_state"][1:] - cols["u_ss"][:-1] @ g_k.T)
    margins["tube_ok"] = tube - simkit.TUBE_TOL
    # marginal: inside the tube and above -tube_band by more than
    # MARGINAL_TOL, i.e. both margins <= 0
    margins["tube_marginal"] = np.maximum(margins["tube_ok"],
                                          simkit.MARGINAL_TOL - (tube + model.tube_band))
    margins["tube_marginal"][0] = np.inf
    return cols, margins


def compare(trace, cols, margins):
    """Assert that ``trace`` agrees with the reference; returns the number of
    flag rows that differ at a margin within REL of its bound."""
    for name in COLUMNS:
        assert_close(getattr(trace, name), cols[name], REL, name)
    assert trace.flags.keys() == margins.keys()
    ties = 0
    for name, margin in margins.items():
        differ = trace.flags[name] != (margin <= 0.0)
        assert np.all(np.abs(margin[differ]) <= REL), (name, np.flatnonzero(differ))
        ties += int(np.count_nonzero(differ))
    return ties


def setup(name, command):
    cfg = cli.load_config(CONFIGS / f"{name}.cfg", command=command)
    model = build_model(cli._model_config(cfg))
    tables = build_tightening(model)
    manifold = steady_state_manifold(model, model.p_rpi, shrink=cfg["controller"]["shrink"])
    schedule = cli._schedule(cfg)
    controller = cli._controller(cfg, model, schedule)
    assert controller.rollout_builder is None
    return cfg, model, tables, manifold, schedule, controller


def test_double_integrator_config():
    cfg, model, tables, manifold, schedule, controller = setup("double_integrator", "run")
    horizon = cfg["experiment"]["horizon"]
    u0 = np.zeros(model.m)
    zeta0, x0 = (model.g_k @ u0, u0), np.asarray(cfg["model"]["x0"], float)
    ties = 0
    for seed in (0, 1, 2):
        policy = DisturbancePolicy(seed=seed)
        trace, _ = simkit.run_closed_loop(model, tables, manifold, controller, schedule, policy,
                                          horizon, zeta0=zeta0, x0=x0)
        ties += compare(trace, *reference_run(
            model, tables, manifold, schedule, policy, horizon, zeta0, x0, controller.gamma,
            controller.effective_c_g(model)))
    print(f"double integrator: {ties} flag rows at a bound")


def test_every_regret_sweep_cell():
    cfg, model, tables, manifold, schedule, controller = setup("regret_sweep", "regret-sweep")
    sw = cfg["sweep"]
    generator = simkit.AlternatingTargetGenerator(
        model=model, manifold=manifold, base_cost=schedule.cost_at(0),
        direction=tuple(sw["direction"]), levels=tuple(sw["path_levels"]),
        hop_size=sw["hop_size"], horizon=sw["horizon"])
    benchmark = generator.benchmark()
    ties = cells = 0
    for level in generator.levels:
        cell_schedule, zeta0, x0 = generator.make(level, benchmark)
        for scale, seed in itertools.product(sw["noise_levels"], (0, 1)):
            policy = DisturbancePolicy(kind="zero" if scale == 0.0 else "uniform_box",
                                       seed=sw["base_seed"] + seed, scale=float(scale))
            trace, _ = simkit.run_closed_loop(model, tables, manifold, controller,
                                              cell_schedule, policy, sw["horizon"],
                                              zeta0=zeta0, x0=x0)
            ties += compare(trace, *reference_run(
                model, tables, manifold, cell_schedule, policy, sw["horizon"], zeta0, x0,
                controller.gamma, controller.effective_c_g(model)))
            cells += 1
    assert cells == 18
    print(f"regret sweep: {ties} flag rows at a bound")


def test_long_block(monkeypatch):
    # 1,000 steps of the bundled double integrator on its first cost alone:
    # every step after the first runs ahead, in one block of 999 steps.
    cfg, model, tables, manifold, schedule, controller = setup("double_integrator", "run")
    schedule = ConstantSchedule(schedule.cost_at(0))
    u0 = np.zeros(model.m)
    zeta0, x0 = (model.g_k @ u0, u0), np.asarray(cfg["model"]["x0"], float)
    blocks, ahead = [], simkit._LtiPlant.ahead

    def counted(plant, *args):
        out = ahead(plant, *args)
        blocks.append(len(out[0]))
        return out

    monkeypatch.setattr(simkit._LtiPlant, "ahead", counted)
    policy = DisturbancePolicy(seed=0)
    trace, _ = simkit.run_closed_loop(model, tables, manifold, controller, schedule, policy,
                                      1000, zeta0=zeta0, x0=x0)
    assert blocks == [999]
    ties = compare(trace, *reference_run(model, tables, manifold, schedule, policy, 1000, zeta0,
                                         x0, controller.gamma, controller.effective_c_g(model)))
    print(f"long block: {ties} flag rows at a bound")


def test_drawn_models():
    # Drawn models (tests/test_drawn_models.py) in the explicit variant, with
    # two pieces on the first weights and one on others, under drawn and
    # worst-corner noise.
    ran, ties = [], 0

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(drawn_models())
    def check(drawn):
        nonlocal ties
        cfg, targets = drawn
        try:
            model, tables, manifold = build(cfg)
        except OcoRobustError:
            return
        n, m = model.n, model.m
        first = QuadraticCost(np.eye(n), np.eye(m), targets[0], np.zeros(m))
        schedule = PiecewiseSchedule(((0, first), (20, first.with_ref_x(targets[1])),
                                      (40, QuadraticCost(2.0 * np.eye(n), np.eye(m),
                                                         targets[2], np.zeros(m)))))
        zeta0 = optimal_steady_state(manifold, first, model)
        controller = oco.ControllerConfig(gamma=1.0 / cost_curvature(first, model)[1])
        for policy in (DisturbancePolicy(seed=3), DisturbancePolicy(kind="worst_corner")):
            try:
                trace, _ = simkit.run_closed_loop(model, tables, manifold, controller,
                                                  schedule, policy, 60, zeta0=zeta0,
                                                  x0=zeta0[0])
            except OcoRobustError:  # e.g. v_0 puts the initial plan outside the sets
                continue
            ties += compare(trace, *reference_run(
                model, tables, manifold, schedule, policy, 60, zeta0, zeta0[0],
                controller.gamma, controller.effective_c_g(model)))
            ran.append(policy.kind)

    check()
    assert len(ran) >= 20
    print(f"drawn models: {len(ran)} runs, {ties} flag rows at a bound")


def equality_rollout(model, q_x, q_u, x_meas, candidate, theta_hat):
    """g of the equality-only rollout QP, written out from A, B, K and mu:
    the rollout of the inputs v_t + g_t + K x_t from x_0 = x_meas (v the
    candidate), the cost 1/2 sum over t < mu of (x_t - theta_hat)' q_x
    (x_t - theta_hat) + u_t' q_u u_t, and the reach constraint x_mu =
    theta_hat, each state and input carried as its value at g = 0 and its
    Jacobian in g; the KKT system solved by ``np.linalg.solve``."""
    a, b, k, mu = model.a, model.b, model.k, model.mu
    n, m = b.shape
    x, dx = np.asarray(x_meas, float), np.zeros((n, mu * m))
    hessian, linear = np.zeros((mu * m, mu * m)), np.zeros(mu * m)
    for t in range(mu):
        u = candidate[t * m:(t + 1) * m] + k @ x
        du = k @ dx
        du[:, t * m:(t + 1) * m] += np.eye(m)
        hessian += dx.T @ q_x @ dx + du.T @ q_u @ du
        linear += dx.T @ q_x @ (x - theta_hat) + du.T @ q_u @ u
        x, dx = a @ x + b @ u, a @ dx + b @ du
    kkt = np.block([[hessian, dx.T], [dx, np.zeros((n, n))]])
    return np.linalg.solve(kkt, np.concatenate([-linear, theta_hat - x]))[:mu * m]


@pytest.fixture
def optimized_steps(monkeypatch):
    """While active, records every optimized step's rollout map, x_meas,
    candidate, theta_hat and g, where the rollout QP set g (its guess kept,
    with no fallback and a reach gap above DEGENERATE_TOL): whether the
    step's ``oco.OptimizedRows`` rows decided it (the last entry, True) or
    ``oco.additional_input_optimized`` did."""
    real, real_rows, seen = oco.additional_input_optimized, oco.OptimizedRows.additional_input, []

    def from_rows(rows, out, x_meas, candidate, *args):
        got = real_rows(rows, out, x_meas, candidate, *args)
        if got is not None:
            seen.append((rows.rollout_map, x_meas, candidate, out[rows.theta], got[0], True))
        return got

    def two_products(model, rollout, x_meas, candidate, theta_hat, d, c_g):
        got = real(model, rollout, x_meas, candidate, theta_hat, d, c_g)
        if got[1] is not None and not got[2]:
            seen.append((rollout[0], x_meas, candidate, theta_hat, got[0], False))
        return got

    monkeypatch.setattr(oco.OptimizedRows, "additional_input", from_rows)
    monkeypatch.setattr(oco, "additional_input_optimized", two_products)
    return seen


def assert_rollouts_match(model, seen, weights):
    """Every recorded g of an equality-only rollout map (a key of
    ``weights``, its stage weights) against ``equality_rollout``, within
    1e-9 of its norm; returns the number of steps the rows decided."""
    fused = 0
    for rollout_map, x_meas, candidate, theta_hat, g, from_rows in seen:
        if rollout_map not in weights:
            continue
        want = equality_rollout(model, *weights[rollout_map], x_meas, candidate, theta_hat)
        assert np.linalg.norm(g - want) <= 1e-9 * np.linalg.norm(want), (from_rows, g, want)
        fused += from_rows
    return fused


class TestEqualityOnlyRollouts:
    """The optimized variant's equality-only rollouts (``QuadraticRolloutBuilder``:
    the vehicle's phases 1 and 3, the double integrator) against
    ``equality_rollout``, which shares no code with the rollout maps, the
    step map or ``PrefactoredQp``."""

    def test_vehicle_phases_1_and_3(self, optimized_steps):
        setup = vehicle.vehicle_setup()
        maps = setup.builder.maps
        weights = {maps[1]: (vehicle._Q_STATE, vehicle._Q_INPUT),
                   maps[3]: (vehicle._Q_STATE_P3, vehicle._Q_INPUT)}
        for seed in (0, 1, 2):
            vehicle.run_scenario("optimized", seed=seed, setup=setup)
        fused = assert_rollouts_match(setup.model, optimized_steps, weights)
        phases = {rollout_map for rollout_map, *_ in optimized_steps}
        assert {maps[1], maps[3]} <= phases and fused > 150
        print(f"vehicle: {fused} of {len(optimized_steps)} rollouts decided by the rows")

    def test_double_integrator_runs(self, di_bundle, optimized_steps):
        # The optimized runs of test_step_map.py: unit weights, and the
        # schedule's first weights with the default cap and c_g = 1000.
        model, tables, manifold = di_bundle
        schedule = di_schedule(model)
        cost0 = schedule.cost_at(0)
        zeta0 = optimal_steady_state(manifold, cost0, model)
        fused = 0
        for (q_x, q_u), c_g in (((np.eye(2), np.eye(1)), None), ((cost0.q_x, cost0.q_u), None),
                                ((cost0.q_x, cost0.q_u), 1000.0)):
            builder = oco.QuadraticRolloutBuilder(model, q_x, q_u)
            optimized_steps.clear()
            simkit.run_closed_loop(
                model, tables, manifold,
                oco.ControllerConfig(gamma=0.3, c_g=c_g, rollout_builder=builder),
                schedule, DisturbancePolicy(seed=5), 120, zeta0=zeta0, x0=zeta0[0])
            assert optimized_steps
            fused += assert_rollouts_match(model, optimized_steps, {builder: (q_x, q_u)})
        assert fused > 100
        print(f"double integrator: {fused} rollouts decided by the rows")
