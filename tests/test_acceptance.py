"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The vehicle Monte Carlo
(100 seeds x 2 variants) is shared across the criteria that consume it.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from ocorobust import vehicle
from ocorobust.cli import main
from ocorobust.convexsets import HPolytope, Zonotope, pontryagin_deduct
from ocorobust.errors import OcoRobustError
from ocorobust.invariance import mrpi_outer, tail_set
from ocorobust.oco_controller import ControllerConfig, max_beta
from ocorobust import oco_controller as oco
from ocorobust.plant import (
    QuadraticCost,
    closed_loop_hessian,
    optimal_steady_state,
)
from ocorobust.simkit import (
    AlternatingTargetGenerator,
    invariant_report,
    regret_scaling_experiment,
)

from conftest import certify_rpi, max_beta_bisect, ogd_step_at, support

REPO = Path(__file__).resolve().parent.parent
N_SEEDS = 100
HORIZON = 300  # 30 s at the 0.1 s sample time


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def vehicle_mc():
    """100-seed Monte Carlo of the scenario, both additional-input variants."""
    vehicle.vehicle_setup()  # model construction excluded from the run budget
    results = {}
    t0 = time.perf_counter()
    for variant in ("optimized", "explicit"):
        runs = []
        for seed in range(N_SEEDS):
            runs.append(vehicle.run_scenario(variant=variant, seed=seed,
                                             horizon_steps=HORIZON))
        results[variant] = runs
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_criterion_1_robust_constraint_satisfaction(vehicle_mc):
    violations = 0
    for variant in ("optimized", "explicit"):
        for trace, _, _ in vehicle_mc[variant]:
            for rec in trace:
                if not rec.invariant_flags["state_ok"]:
                    violations += 1
                if not rec.invariant_flags["input_ok"]:
                    violations += 1
            violations += int(np.count_nonzero(~trace.flags["resid_ok"]))
    elapsed = vehicle_mc["elapsed"]
    report(1, violations == 0 and elapsed < 60.0,
           f"{2 * N_SEEDS} runs x {HORIZON} steps, state/input violations="
           f"{violations}, wall time {elapsed:.1f}s (< 60s)")


def test_criterion_2_recursive_feasibility(vehicle_mc):
    failures = 0
    for variant in ("optimized", "explicit"):
        for trace, _, _ in vehicle_mc[variant]:
            for rec in trace:
                if not rec.invariant_flags["candidate_ok"]:
                    failures += 1
                if not rec.invariant_flags["plan_ok"]:
                    failures += 1
    # every run completed, so max_beta never raised
    report(2, failures == 0,
           f"candidate and plan feasibility failures={failures}; "
           "max_beta raised no errors (all runs completed)")


def test_criterion_3_tube_invariant(vehicle_mc):
    strict = 0
    marginal = 0
    steps = 0
    for variant in ("optimized", "explicit"):
        for trace, _, _ in vehicle_mc[variant]:
            for rec in trace:
                steps += 1
                if not rec.invariant_flags["tube_ok"]:
                    strict += 1
                elif rec.invariant_flags.get("tube_marginal"):
                    marginal += 1
    report(3, strict == 0 and marginal <= 0.01 * steps,
           f"tube membership: strict violations={strict}, "
           f"marginal={marginal}/{steps} steps")


def test_criterion_4_case_study_anchors(vehicle_mc):
    speeds, gaps = [], []
    for _, _, metrics in vehicle_mc["optimized"]:
        speeds.append(metrics["phase3_settled_speed_kmh"])
        gaps.append(metrics["phase2_standoff_gap_m"])
    speeds = np.asarray(speeds)
    gaps = np.asarray([g for g in gaps if g is not None])
    speed_in = int(np.sum((speeds >= 122.0) & (speeds <= 126.0)))
    gap_in = int(np.sum((gaps >= 50.0) & (gaps <= 60.0)))
    exp_speeds = np.asarray([m["phase3_settled_speed_kmh"]
                             for _, _, m in vehicle_mc["explicit"]])
    report(4, speed_in >= 90 and gap_in >= 90 and len(gaps) == N_SEEDS,
           f"settled speed {speeds.mean():.1f} km/h in band {speed_in}/{N_SEEDS}, "
           f"standoff gap {gaps.mean():.1f} m in band {gap_in}/{N_SEEDS} "
           f"(explicit variant speed {exp_speeds.mean():.1f} km/h)")


def test_criterion_5_ogd_contraction(di_bundle):
    model, tables, manifold = di_bundle
    rng = np.random.default_rng(100)
    failures = 0
    for _ in range(1000):
        qx = np.diag(rng.uniform(0.3, 3.0, 2))
        qu = np.array([[rng.uniform(0.1, 2.0)]])
        cost = QuadraticCost(qx, qu, rng.uniform(-0.8, 0.8, 2),
                             rng.uniform(-0.5, 0.5, 1))
        ev = np.linalg.eigvalsh(closed_loop_hessian(cost, model))
        alpha, ell = float(ev[0]), float(ev[-1])
        gamma = rng.uniform(1e-3, 1.0) * 2.0 / (alpha + ell)
        zeta_star = np.concatenate(optimal_steady_state(manifold, cost, model))
        u_ss = rng.uniform(-1.5, 1.5, 1)
        pred = rng.uniform(-2.0, 2.0, 2)
        zeta_hat = np.concatenate(ogd_step_at(tables, model, manifold, cost, gamma, pred, u_ss))
        lhs = np.linalg.norm(zeta_hat - zeta_star)
        rhs = (1.0 - gamma * alpha) * np.linalg.norm(
            np.concatenate([pred, u_ss]) - zeta_star)
        if lhs > rhs + 1e-8:
            failures += 1
    report(5, failures == 0, f"contraction inequality failures={failures}/1000")


def test_criterion_6_regret_linearity(di_bundle, di_cost):
    model, tables, manifold = di_bundle
    t0 = time.perf_counter()
    gen = AlternatingTargetGenerator(model=model, manifold=manifold,
                                     base_cost=di_cost, direction=(1.0, 0.0),
                                     levels=(0, 4, 8), hop_size=1.2, horizon=400)
    result = regret_scaling_experiment(
        model, tables, manifold, ControllerConfig(gamma=0.3), gen,
        dist_levels=[0.0, 0.5, 1.0], seeds=list(range(10)), horizon=400)
    elapsed = time.perf_counter() - t0
    c0, cp, cn = result.coefficients
    zero_cell = [abs(r["regret"]) for r in result.rows
                 if r["path_level"] == 0 and r["noise_level"] == 0.0]
    ok = (c0 >= 0.0 and cp >= 0.0 and cn >= 0.0
          and result.r_squared >= 0.8
          and max(zero_cell) <= 1e-6
          and elapsed < 120.0)
    report(6, ok,
           f"fit c0={c0:.3g} c_path={cp:.3g} c_noise={cn:.3g} "
           f"R2={result.r_squared:.4f} (>= 0.8), zero-cell max |regret|="
           f"{max(zero_cell):.2e} (<= 1e-6), wall time {elapsed:.1f}s (< 120s)")


def test_criterion_7_mrpi_correctness():
    a = np.array([[0.5]])
    w = Zonotope.box([1.0])
    res = mrpi_outer(a, w, epsilon=0.01)
    radius = support(res.p, [1.0])
    certified = certify_rpi(res.p, a, w, tol=1e-9)
    tail = tail_set(a, 2, res)
    tail_radius = support(tail, [1.0])
    ok = (2.0 - 1e-12 <= radius <= 2.01 and certified
          and 0.5 - 1e-12 <= tail_radius <= 0.51)
    report(7, ok,
           f"mRPI radius={radius:.6f} in [2, 2.01], RPI certified={certified}, "
           f"tail radius={tail_radius:.6f} in [0.5, 0.51]")


def test_criterion_8_set_arithmetic_vs_grid():
    rng = np.random.default_rng(101)
    step = 0.01
    disagreements = 0
    checked = 0
    for _ in range(50):
        lb = rng.uniform(-2.0, -0.8, 2)
        ub = rng.uniform(0.8, 2.0, 2)
        p = HPolytope.box(lb, ub)
        order = int(rng.integers(1, 4))
        z = Zonotope(rng.uniform(-0.1, 0.1, 2),
                     rng.uniform(-0.25, 0.25, (2, order)))
        t = pontryagin_deduct(p, z)
        # support function against explicit corner enumeration
        signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * order)).reshape(order, -1)
        corners = z.center[:, None] + z.generators @ signs
        for _ in range(10):
            d = rng.standard_normal(2)
            assert support(z, d) == pytest.approx(float((d @ corners).max()), abs=1e-12)
        # membership of the difference against the dense grid oracle
        xs = np.arange(lb[0] - 0.05, ub[0] + 0.05, step)
        ys = np.arange(lb[1] - 0.05, ub[1] + 0.05, step)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        computed = np.all(pts @ t.normals.T <= t.offsets + 1e-12, axis=1)
        oracle = np.ones(len(pts), dtype=bool)
        for c in corners.T:
            shifted = pts + c
            oracle &= np.all(shifted @ p.normals.T <= p.offsets + 1e-12, axis=1)
        margins = (pts @ t.normals.T - t.offsets).max(axis=1)
        decisive = np.abs(margins) > step * np.sqrt(2.0)
        disagreements += int(np.sum(computed[decisive] != oracle[decisive]))
        checked += int(decisive.sum())
    report(8, disagreements == 0,
           f"grid comparison: {disagreements} disagreements beyond grid "
           f"resolution over {checked} decisive points (50 instances)")


def test_criterion_9_beta_exactness(di_bundle, scalar_bundle):
    rng = np.random.default_rng(102)
    worst = 0.0
    checked = 0
    bundles = [di_bundle, scalar_bundle]
    while checked < 500:
        model, tables, manifold = bundles[checked % 2]
        u = rng.uniform(-0.3, 0.3, model.m)
        if not manifold.contains_u(u):
            continue
        zeta = (model.g_k @ u, u)
        x = zeta[0] + rng.uniform(-0.08, 0.08, model.n)
        try:
            state = oco.initialize(model, tables, manifold, zeta, x)
        except OcoRobustError:
            continue
        g = rng.standard_normal(model.mu * model.m) * rng.uniform(0.3, 40.0)
        exact = max_beta(tables, model, x, state.u_pred, g)
        bis = max_beta_bisect(tables, model, x, state.u_pred, g)
        worst = max(worst, abs(exact - bis))
        checked += 1
    report(9, worst <= 1e-8,
           f"ratio-test vs bisection over {checked} instances, "
           f"max |difference|={worst:.2e} (<= 1e-8)")


def test_criterion_10_deterministic_csv(tmp_path):
    mismatches = []
    for name in ("double_integrator.cfg", "vehicle_optimized.cfg"):
        cfg = str(REPO / "configs" / name)
        out_a = tmp_path / (name + ".a")
        out_b = tmp_path / (name + ".b")
        assert main(["run", "--config", cfg, "--out", str(out_a), "--quiet"]) == 0
        assert main(["run", "--config", cfg, "--out", str(out_b), "--quiet"]) == 0
        for f in sorted(out_a.iterdir()):
            if (out_b / f.name).read_bytes() != f.read_bytes():
                mismatches.append(f"{name}:{f.name}")
    report(10, not mismatches,
           f"byte-identical outputs for repeated runs of 2 bundled configs "
           f"(mismatches: {mismatches or 'none'})")


def test_criterion_11_beta_window_monitor(vehicle_mc):
    setup = vehicle.vehicle_setup()
    violations = 0
    windows = 0
    worst = 0.0
    for variant in ("optimized", "explicit"):
        for trace, _, _ in vehicle_mc[variant]:
            rep = invariant_report(trace, setup.model)
            violations += rep.beta_window_violations
            windows += rep.beta_windows
            worst = max(worst, rep.max_active_window_product)
    report(11, violations == 0,
           f"windowed (1-beta) products over {windows} windows: "
           f"violations={violations}, max active product={worst:.6f} "
           f"(<= 1 - 1e-6)")
