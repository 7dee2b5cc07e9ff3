import copy
from pathlib import Path

import numpy as np
import pytest

from ocorobust.convexsets import ROW_BLOCK, HPolytope, Zonotope, ZonotopeMembership
from ocorobust.errors import AssumptionViolation, DimensionMismatch, InfeasibleError
from ocorobust.denseqp import DEFAULT_TOL
from ocorobust.plant import (
    PROJECTION_TOL,
    ModelConfig,
    QuadraticCost,
    SteadyStateBenchmark,
    build_model,
    build_tightening,
    build_w_bar,
    closed_loop_hessian,
    cost_curvature,
    membership_zu,
    optimal_steady_state,
    stage_values,
    stage_values_linear,
    steady_state_manifold,
)

from conftest import cost_value, lp_support, support

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_cfg(**over):
    base = dict(
        a=[[1.0]], b=[[1.0]], k=[[-0.5]], mu=2,
        x_set=HPolytope.box([-2.0], [2.0]),
        u_set=HPolytope.box([-1.0], [1.0]),
        w_set=Zonotope.box([0.1]),
        v_set=Zonotope.box([0.05]),
    )
    base.update(over)
    return ModelConfig(**base)


class TestBuildModel:
    def test_scalar_derived_matrices(self, scalar_bundle):
        model, _, _ = scalar_bundle
        assert model.a_k == pytest.approx(np.array([[0.5]]))
        assert model.g_k == pytest.approx(np.array([[2.0]]))
        assert model.mu_star == 1

    def test_double_integrator_deadbeat_index(self):
        cfg = ModelConfig(
            a=[[1.0, 1.0], [0.0, 1.0]], b=[[0.0], [1.0]], k=[[-1.0, -2.0]], mu=3,
            x_set=HPolytope.box([-50.0, -50.0], [50.0, 50.0]),
            u_set=HPolytope.box([-50.0], [50.0]),
            w_set=Zonotope.box([0.01, 0.01]),
            v_set=Zonotope.box([0.01, 0.01]),
        )
        model = build_model(cfg)
        # A_K is nilpotent, one input: two steps needed for full rank
        assert model.mu_star == 2
        assert np.allclose(np.linalg.matrix_power(model.a_k, 2), 0.0)

    def test_small_flat_tail_set_builds(self):
        # A_K = diag(0.29, 0.10, -0.04) and mu = 7 make the tail set tiny
        # (largest generator entry about 9e-5) and nearly flat; its facets
        # are judged against its own scale, not against 1
        eye = np.eye(3)
        model = build_model(ModelConfig(
            a=eye, b=eye, k=np.diag([-0.71, -0.90, -1.04]), mu=7,
            x_set=HPolytope.box(-10.0 * np.ones(3), 10.0 * np.ones(3)),
            u_set=HPolytope.box(-5.0 * np.ones(3), 5.0 * np.ones(3)),
            w_set=Zonotope.box([0.05] * 3), v_set=Zonotope.box([0.01] * 3)))
        inside, outside = model.tube_margins(np.array([[0.0, 0.0, 0.0], [1e-3, 0.0, 0.0]]))
        assert inside < 0.0
        assert outside > 0.0

    def test_not_schur_rejected(self):
        with pytest.raises(AssumptionViolation, match="stabilizing feedback"):
            build_model(small_cfg(k=[[0.0]]))

    def test_horizon_too_short(self):
        cfg = ModelConfig(
            a=[[1.0, 1.0], [0.0, 1.0]], b=[[0.0], [1.0]], k=[[-1.0, -2.0]], mu=1,
            x_set=HPolytope.box([-50.0, -50.0], [50.0, 50.0]),
            u_set=HPolytope.box([-50.0], [50.0]),
            w_set=Zonotope.box([0.01, 0.01]),
            v_set=Zonotope.box([0.01, 0.01]),
        )
        with pytest.raises(AssumptionViolation, match="horizon"):
            build_model(cfg)

    def test_degenerate_disturbance_rejected(self):
        with pytest.raises(AssumptionViolation, match="disturbance"):
            build_model(small_cfg(w_set=Zonotope.point([0.0])))

    def test_disturbance_origin_on_boundary_rejected(self):
        with pytest.raises(AssumptionViolation, match="disturbance"):
            build_model(small_cfg(w_set=Zonotope.box([0.1], center=[0.1])))

    def test_more_than_three_states_rejected(self):
        cfg = ModelConfig(
            a=0.5 * np.eye(4), b=np.eye(4)[:, :1], k=np.zeros((1, 4)), mu=4,
            x_set=HPolytope.box(-np.ones(4), np.ones(4)),
            u_set=HPolytope.box([-1.0], [1.0]),
            w_set=Zonotope.box(0.01 * np.ones(4)),
            v_set=Zonotope.box(0.01 * np.ones(4)),
        )
        with pytest.raises(DimensionMismatch, match="n <= 3"):
            build_model(cfg)

    def test_origin_outside_constraints_rejected(self):
        with pytest.raises(AssumptionViolation, match="constraint sets"):
            build_model(small_cfg(x_set=HPolytope.box([0.5], [2.0])))

    def test_uncontrollable_rejected(self):
        cfg = ModelConfig(
            a=[[0.5, 0.0], [0.0, 0.5]], b=[[1.0], [0.0]], k=[[0.0, 0.0]], mu=2,
            x_set=HPolytope.box([-2.0, -2.0], [2.0, 2.0]),
            u_set=HPolytope.box([-1.0], [1.0]),
            w_set=Zonotope.box([0.01, 0.01]),
            v_set=Zonotope.box([0.01, 0.01]),
        )
        with pytest.raises(AssumptionViolation, match="controllability"):
            build_model(cfg)

    def test_rpi_outside_x_rejected(self):
        with pytest.raises(AssumptionViolation, match="rpi containment"):
            build_model(small_cfg(x_set=HPolytope.box([-0.3], [0.3])))

    def test_checks_listed_in_order(self, scalar_bundle):
        model, _, _ = scalar_bundle
        assert [label for label, _ in model.checks] == [
            "disturbance sets contain 0 (Assumption on W, V)",
            "(A, B) controllable",
            "X, U compact with 0 interior",
            "A + BK certified Schur",
            "horizon covers controllability index (mu >= mu*)",
            "S_c full row rank",
            "RPI set P inside X",
        ]
        assert dict(model.checks)["horizon covers controllability index (mu >= mu*)"] == \
            f"mu*={model.mu_star}"

    def test_violation_names_failed_check_and_carries_passed(self):
        with pytest.raises(AssumptionViolation) as err:
            build_model(small_cfg(k=[[0.0]]))
        assert err.value.label == "A + BK certified Schur"
        assert [label for label, _ in err.value.checks] == [
            "disturbance sets contain 0 (Assumption on W, V)",
            "(A, B) controllable",
            "X, U compact with 0 interior",
        ]

    def test_c_g_floor_holds(self, scalar_bundle):
        model, _, _ = scalar_bundle
        # explicit solution norm bound: ||S_c^T (S_c S_c^T)^-1||
        pinv = np.linalg.pinv(model.s_c)
        assert model.c_g_min >= np.linalg.norm(pinv, 2) - 1e-9


class TestWBar:
    def test_no_measurement_noise(self):
        w = Zonotope.box([0.3])
        out = build_w_bar([[1.0]], w, Zonotope.point([0.0]))
        assert support(out, [1.0]) == pytest.approx(0.3)

    def test_noise_doubles_through_dynamics(self):
        out = build_w_bar([[1.0]], Zonotope.point([0.0]), Zonotope.box([1.0]))
        assert support(out, [1.0]) == pytest.approx(2.0)
        assert support(out, [-1.0]) == pytest.approx(2.0)

    def test_both_degenerate(self):
        out = build_w_bar([[1.0]], Zonotope.point([0.0]), Zonotope.point([0.0]))
        assert out.radius_upper() == 0.0


class TestTightening:
    def test_scalar_partial_sums(self):
        # A_K = 0.5, W_bar close to [-0.2, 0.2], X = [-2, 2]
        cfg = small_cfg(w_set=Zonotope.box([0.2 - 2e-9]), v_set=Zonotope.box([1e-9]))
        model = build_model(cfg)
        tables = build_tightening(model)
        # stage 0: deduct 0.2 -> 1.8; stage 1: deduct 0.2 + 0.1 -> 1.7
        assert np.allclose(tables.state_offsets[0], 1.8, atol=1e-7)
        assert np.allclose(tables.state_offsets[1], 1.7, atol=1e-7)

    def test_input_stage_zero_untightened(self, scalar_bundle):
        model, tables, _ = scalar_bundle
        assert np.array_equal(tables.input_offsets[0], model.u_set.offsets)

    def test_deductions_nondecreasing(self, di_bundle):
        model, tables, _ = di_bundle
        assert np.all(np.diff(tables.state_offsets, axis=0) <= 1e-12)
        assert np.all(np.diff(tables.input_offsets, axis=0) <= 1e-12)

    def test_tiny_disturbance_means_tiny_tightening(self):
        cfg = small_cfg(w_set=Zonotope.box([1e-8]), v_set=Zonotope.box([1e-8]))
        model = build_model(cfg)
        tables = build_tightening(model)
        assert np.allclose(tables.state_offsets, 2.0, atol=1e-6)
        assert np.allclose(tables.input_offsets, 1.0, atol=1e-6)

    def test_empty_stage_raises(self):
        # input tightening K * (W_bar sum) exceeds the input box at tau = 1
        cfg = small_cfg(u_set=HPolytope.box([-0.14], [0.14]), w_set=Zonotope.box([0.2]))
        model = build_model(cfg)
        with pytest.raises(InfeasibleError, match="tau"):
            build_tightening(model)


def rollout_stage_values(tables, model, x, useq, offsets=True):
    """Stage residuals by stepping x+ = A_K x + B u with input v = u + K x,
    the state stages then the input stages."""
    us = useq.reshape(model.mu, model.m)
    sv, iv = [], []
    for tau in range(model.mu):
        v = us[tau] + model.k @ x
        x = model.a_k @ x + model.b @ us[tau]
        sv.append(model.x_set.normals @ x - (tables.state_offsets[tau] if offsets else 0.0))
        iv.append(model.u_set.normals @ v - (tables.input_offsets[tau] if offsets else 0.0))
    return np.concatenate(sv + iv)


class TestStageValues:
    def test_matches_stepwise_rollout(self, tables_bundle):
        model, tables = tables_bundle
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.standard_normal(model.n)
            useq = rng.standard_normal(model.mu * model.m)
            for got, want in (
                (stage_values(tables, x, useq),
                 rollout_stage_values(tables, model, x, useq)),
                (stage_values_linear(tables, useq),
                 rollout_stage_values(tables, model, np.zeros(model.n), useq,
                                      offsets=False)),
            ):
                assert got.shape == want.shape == (len(tables.residual_offsets),)
                scale = max(1.0, float(np.abs(want).max()))
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    def test_stacked_rows_match_stage_values_and_prediction(self, tables_bundle):
        # One product in x plus one in useq gives the stage residuals and, in
        # its last rows, A_K^mu x + S_c useq, bit for bit as the separate
        # products (the two blocks between them are checked in the next test).
        model, tables = tables_bundle
        rng = np.random.default_rng(43)
        r, n = len(tables.residual_offsets), model.n
        assert tables.rollout_x.shape == (r + n + 2 * model.m, n)
        assert tables.rollout_u.shape == (r + n + 2 * model.m, model.mu * model.m)
        for _ in range(20):
            x = rng.standard_normal(n)
            useq = rng.standard_normal(model.mu * model.m)
            rows = tables.rollout_x @ x + tables.rollout_u @ useq
            assert np.array_equal(rows[:r] - tables.residual_offsets,
                                  stage_values(tables, x, useq))
            assert np.array_equal(rows[-n:],
                                  model.a_k_powers[model.mu] @ x + model.s_c @ useq)

    def test_step_maps_match_separate_products(self, tables_bundle):
        # The gradient point v = u_ss + K pred and the projection's base term
        # q0 = -2 (G_K' pred + u_ss) under the stage residuals (u_ss the last
        # input of useq), the OGD map M [gx; gv] = G_K' (gx + K' gv) + gv, and
        # [S_c^+; R_u S_c^+] d = [g; R_u g] with g = S_c^+ d, all within 1e-12
        # relative to the size of the terms.
        model, tables = tables_bundle
        rng = np.random.default_rng(44)
        r, n, m = len(tables.residual_offsets), model.n, model.m

        def assert_close(got, want, *terms):
            scale = max(1.0, *(float(np.abs(t).max()) for t in terms))
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

        for _ in range(20):
            x = rng.standard_normal(n)
            useq = rng.standard_normal(model.mu * m)
            rows = tables.rollout_x @ x + tables.rollout_u @ useq
            pred = model.a_k_powers[model.mu] @ x + model.s_c @ useq
            u_ss = useq[-m:]
            k_pred, gt_pred = model.k @ pred, model.g_k.T @ pred
            assert_close(rows[r:r + m], u_ss + k_pred, u_ss, k_pred)
            assert_close(rows[r + m:r + 2 * m], -2.0 * (gt_pred + u_ss), 2.0 * gt_pred,
                         2.0 * u_ss)

            gx, gv = rng.standard_normal(n), rng.standard_normal(m)
            step = model.g_k.T @ (gx + model.k.T @ gv)
            assert_close(tables.ogd_map @ np.concatenate([gx, gv]), step + gv, step, gv)

            d = rng.standard_normal(n)
            both = tables.explicit_map @ d
            g = model.s_c_pinv @ d
            growth = tables.residual_u @ g
            assert_close(both[:g.size], g, g)
            assert_close(both[g.size:], growth, growth, np.abs(tables.residual_u) @ np.abs(g))


class TestMembershipZu:
    def test_zero_everything_ok(self, scalar_bundle):
        model, tables, _ = scalar_bundle
        ok, worst = membership_zu(tables, model, np.zeros(1), np.zeros(2))
        assert ok and worst < 0

    def test_violation_magnitude(self, scalar_bundle):
        model, tables, _ = scalar_bundle
        # hand rollout: x1 = 0.5 * 1.82 + 0.9 = 1.81, stage-0 bound is 1.8,
        # every other stage row stays feasible
        useq = np.array([0.9, 0.5])
        ok, worst = membership_zu(tables, model, np.array([1.82]), useq)
        assert not ok
        assert worst == pytest.approx(0.01, abs=1e-12)

    def test_convex_combination_preserves_feasibility(self, di_bundle):
        model, tables, _ = di_bundle
        rng = np.random.default_rng(40)
        feasible = np.zeros(model.mu * model.m)
        for _ in range(50):
            u = rng.uniform(-0.5, 0.5, model.mu * model.m)
            x = rng.uniform(-0.2, 0.2, model.n)
            ok, _ = membership_zu(tables, model, x, u)
            if not ok:
                lam = rng.uniform(0.0, 1.0)
                mid = lam * u
                ok_mid, _ = membership_zu(tables, model, x * lam, mid + (1 - lam) * feasible)
                # shrinking toward a feasible point cannot become worse
                _, worst_u = membership_zu(tables, model, x, u)
                _, worst_mid = membership_zu(tables, model, x, lam * u)
                assert worst_mid <= lam * worst_u + (1 - lam) * 0.0 + 1e-9


class TestSteadyStateManifold:
    def test_scalar_range_matches_oracle(self, scalar_bundle):
        model, _, _ = scalar_bundle
        man = steady_state_manifold(model, model.p_rpi, shrink=1.0)
        # oracle: 1-D intersection; G_K u in X (-) P and 0*u in U (-) K P
        p_radius = support(model.p_rpi.p, [1.0])
        expected = (2.0 - p_radius) / 2.0
        # shrink = 1: S-bar is S itself
        assert lp_support(man.sbar, [1.0]) == pytest.approx(expected, abs=1e-9)
        assert lp_support(man.sbar, [-1.0]) == pytest.approx(expected, abs=1e-9)

    def test_projector_tolerance(self, scalar_bundle):
        model, _, _ = scalar_bundle
        man = steady_state_manifold(model, model.p_rpi, shrink=1.0)
        assert man.projector.tol == PROJECTION_TOL == 1e-9

    def test_shrink_one_reproduces_s(self, scalar_bundle):
        model, _, _ = scalar_bundle
        man = steady_state_manifold(model, model.p_rpi, shrink=1.0)
        # S: G_K u in X (-) P; its U rows vanish, since I + K G_K = 0 here
        s_offsets = model.x_set.offsets - model.p_rpi.p.support_batch(model.x_set.normals)
        assert np.array_equal(man.sbar.offsets, s_offsets)

    def test_origin_always_member(self, di_bundle):
        model, _, manifold = di_bundle
        assert manifold.contains_u(np.zeros(model.m))
        assert manifold.contains_zeta(np.zeros(model.n), np.zeros(model.m))

    def test_too_tight_raises(self):
        # K P does not fit inside U: the steady-state input constraint
        # (zero normal since I + K G_K = 0 for A = 1) is violated outright
        cfg = small_cfg(u_set=HPolytope.box([-0.11], [0.11]), w_set=Zonotope.box([0.2]))
        model = build_model(cfg)
        with pytest.raises(InfeasibleError):
            steady_state_manifold(model, model.p_rpi, shrink=0.99)


def skew_weights(rng, n):
    """A positive definite symmetric part plus a skew part."""
    a, skew = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return a @ a.T + np.eye(n) + 0.3 * (skew - skew.T)


class TestQuadraticCost:
    def test_value_and_grad(self):
        cost = QuadraticCost([[2.0]], [[4.0]], [1.0], [0.5])
        assert cost_value(cost, [1.0], [0.5]) == 0.0
        gx, gv = cost.grad([2.0], [1.5])
        assert gx == pytest.approx([2.0])
        assert gv == pytest.approx([4.0])

    def test_grad_is_the_derivative_of_value_for_skew_weights(self):
        # value is 1/2 dx'Q dx, whose gradient is the symmetric part of Q
        # times dx whatever Q's skew part
        rng = np.random.default_rng(3)
        q_x, q_u = skew_weights(rng, 3), skew_weights(rng, 2)
        cost = QuadraticCost(q_x, q_u, [0.3, -0.2, 0.1], [0.4, -0.5])
        x, v = rng.standard_normal(3), rng.standard_normal(2)
        dx, dv = x - cost.ref_x, v - cost.ref_u
        assert cost_value(cost, x, v) == pytest.approx(0.5 * dx @ q_x @ dx + 0.5 * dv @ q_u @ dv,
                                                       rel=1e-14)
        h = 1e-6
        gx, gv = cost.grad(x, v)
        for i in range(3):
            e = h * np.eye(3)[i]
            fd = (cost_value(cost, x + e, v) - cost_value(cost, x - e, v)) / (2 * h)
            assert gx[i] == pytest.approx(fd, rel=1e-7, abs=1e-8)
        for i in range(2):
            e = h * np.eye(2)[i]
            fd = (cost_value(cost, x, v + e) - cost_value(cost, x, v - e)) / (2 * h)
            assert gv[i] == pytest.approx(fd, rel=1e-7, abs=1e-8)

    def test_weights_stored_symmetric_and_symmetric_arrays_kept(self):
        rng = np.random.default_rng(4)
        skew = QuadraticCost(skew_weights(rng, 2), [[0.5]], [0.0, 0.0], [0.0])
        assert np.array_equal(skew.q_x, skew.q_x.T)
        q_x, q_u = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([[0.5]])
        cost = QuadraticCost(q_x, q_u, [0.0, 0.0], [0.0])
        assert cost.q_x is q_x and cost.q_u is q_u

    def test_curvature_matches_eigvalsh(self, scalar_bundle):
        model, _, _ = scalar_bundle
        cost = QuadraticCost([[1.0]], [[1.0]], [0.0], [0.0])
        alpha, ell = cost_curvature(cost, model)
        ev = np.linalg.eigvalsh(closed_loop_hessian(cost, model))
        assert alpha <= ev[0] + 1e-12 <= ev[-1] <= ell + 1e-12
        assert alpha >= 0.95 * ev[0]
        assert ell <= 1.05 * ev[-1]

    def test_non_pd_rejected(self, scalar_bundle):
        model, _, _ = scalar_bundle
        cost = QuadraticCost([[0.0]], [[1.0]], [0.0], [0.0])
        with pytest.raises(AssumptionViolation, match="curvature"):
            cost_curvature(cost, model)


class TestOptimalSteadyState:
    def test_interior_target_exact(self, scalar_bundle):
        model, _, manifold = scalar_bundle
        # reachable steady state: theta = 0.5 -> eta = 0.25; center cost there
        cost = QuadraticCost([[1.0]], [[1.0]], [0.5], [0.5 * (-0.5) + 0.25])
        theta, eta = optimal_steady_state(manifold, cost, model)
        assert theta == pytest.approx([0.5], abs=1e-8)
        assert eta == pytest.approx([0.25], abs=1e-8)

    def test_exterior_target_hits_boundary(self, scalar_bundle):
        model, _, manifold = scalar_bundle
        cost = QuadraticCost([[1.0]], [[1e-6]], [5.0], [0.0])
        theta, eta = optimal_steady_state(manifold, cost, model)
        umax = manifold.sbar.offsets[0] / manifold.sbar.normals[0, 0]
        assert eta == pytest.approx([umax], abs=1e-6)

    def test_scaling_invariance(self, di_bundle, di_cost):
        model, _, manifold = di_bundle
        t1 = optimal_steady_state(manifold, di_cost, model)
        doubled = QuadraticCost(2 * di_cost.q_x, 2 * di_cost.q_u,
                                di_cost.ref_x, di_cost.ref_u)
        t2 = optimal_steady_state(manifold, doubled, model)
        assert np.allclose(np.concatenate(t1), np.concatenate(t2), atol=1e-8)

    def test_benchmark_solver_has_the_default_tolerance(self, di_bundle, di_cost):
        model, _, manifold = di_bundle
        assert SteadyStateBenchmark(manifold, model, di_cost).solver.tol == DEFAULT_TOL

    def test_benchmark_reused_across_costs_with_same_weights(self, di_bundle, di_cost):
        model, _, manifold = di_bundle
        benchmark = SteadyStateBenchmark(manifold, model, di_cost)
        moved = QuadraticCost(di_cost.q_x, di_cost.q_u, [0.4, 0.0], di_cost.ref_u)
        # weight arrays of equal value are the same weight pair
        fresh = QuadraticCost(di_cost.q_x.copy(), di_cost.q_u.copy(), [0.4, 0.0], di_cost.ref_u)
        for cost in (di_cost, moved, fresh):
            reused = optimal_steady_state(manifold, cost, model, benchmark)
            one_shot = optimal_steady_state(manifold, cost, model)
            assert all(np.array_equal(a, b) for a, b in zip(reused, one_shot))

    def test_skew_weights_match_a_grid_argmin(self, di_bundle):
        # The benchmark minimizes the cost's own value over S-bar: a grid of
        # the 1-D u-coordinate finds the same point.
        model, _, manifold = di_bundle
        rng = np.random.default_rng(0)
        a, skew = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        q_x = a @ a.T + np.eye(2) + 0.3 * (skew - skew.T)
        cost = QuadraticCost(q_x, [[0.5]], [0.3, 0.7], [0.2])
        theta, eta = optimal_steady_state(manifold, cost, model)
        limit = float(np.min(manifold.sbar.offsets / np.abs(manifold.sbar.normals[:, 0])))
        grid = np.linspace(-limit, limit, 200001)
        values = [cost_value(cost, model.g_k @ [u], [u] + model.k @ model.g_k @ [u])
                  for u in grid[::100]]
        coarse = int(np.argmin(values)) * 100
        fine = grid[max(coarse - 100, 0):coarse + 101]
        values = [cost_value(cost, model.g_k @ [u], [u] + model.k @ model.g_k @ [u]) for u in fine]
        best = fine[int(np.argmin(values))]
        assert abs(eta[0] - best) <= grid[1] - grid[0]
        assert cost_value(cost, theta, eta + model.k @ theta) <= min(values) + 1e-12

    def test_coupling_residual(self, di_bundle, di_cost):
        model, _, manifold = di_bundle
        theta, eta = optimal_steady_state(manifold, di_cost, model)
        assert np.linalg.norm(theta - model.g_k @ eta) <= 1e-9
        assert manifold.contains_u(eta, tol=1e-9)


def tail_membership(kind, scalar_bundle):
    """A ``ZonotopeMembership`` of one kind: a tail set's (the bundled
    double integrator's, the vehicle's, the scalar plant's segment) or that
    of a flat set in 3-D."""
    if kind == "double_integrator":
        from ocorobust import cli

        cfg = cli.load_config(CONFIGS / "double_integrator.cfg", command="run")
        return build_model(cli._model_config(cfg))._tube
    if kind == "vehicle":
        from ocorobust import vehicle

        return vehicle.vehicle_setup(vehicle.VehicleParams()).model._tube
    if kind == "segment":
        return scalar_bundle[0]._tube
    return ZonotopeMembership(Zonotope([0.1, -0.2, 0.3], [[1.0, 0.5, 0.2], [0.0, 1.0, -0.3],
                                                          [0.0, 0.0, 0.0]]))


class TestTubeMembership:
    def test_merged_facets_match_full_facet_form(self, di_bundle):
        model = di_bundle[0]
        tail = model.p_tail
        normals, offsets = tail.to_halfspaces()
        tube = ZonotopeMembership(tail)
        assert len(tube.normals) < len(normals)
        rng = np.random.default_rng(60)
        reach = tail.support_batch(np.eye(model.n)) - tail.center
        pts = tail.center + rng.uniform(-2.0, 2.0, (500, model.n)) * reach
        ref = ((pts - tail.center) @ normals.T - offsets).max(axis=1)
        assert np.any(ref <= 0.0) and np.any(ref > 0.0)
        assert np.allclose(model.tube_margins(pts), ref, rtol=0.0, atol=1e-12)
        assert np.allclose([model.tube_margins(p[None])[0] for p in pts[:20]],
                           model.tube_margins(pts[:20]), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("kind", ["double_integrator", "vehicle", "flat", "segment"])
    def test_floor_is_the_raised_margin(self, kind, scalar_bundle):
        # margins(points, floor) is np.maximum(margins(points), floor) to the
        # bit, on the bundled double integrator's 768-facet tail set, the
        # vehicle's 4-facet box, a flat set (the span path) and a segment,
        # for rows on both sides of |d| = inradius + floor and NaN/inf rows.
        tube = tail_membership(kind, scalar_bundle)
        facets = dict(double_integrator=768, vehicle=4, flat=6, segment=2)[kind]
        assert tube.normals.shape[0] == facets and (tube.span is None) == (kind != "flat")
        rng = np.random.default_rng(61)
        dim = len(tube.center)
        scale = tube.offsets.max()
        edge = (tube.normals[np.argmin(tube.offsets)] if tube.span is None
                else np.linalg.svd(tube.span)[0][:, -1])
        floors = [-np.inf, -0.5 * tube.inradius, -1e-3 * scale, 0.0, 0.3 * scale, np.inf,
                  np.nan]
        for floor in floors:
            reach = tube.inradius + floor
            if not np.isfinite(reach) or reach <= 0.0:
                reach = tube.inradius or scale
            # A block inside the ball; a block just inside it and one on its
            # edge, along the direction where the margin is |d| - inradius
            # (the least offset's normal, or off a flat set's span); then
            # any rows.
            unit = rng.normal(size=(6 * ROW_BLOCK, dim))
            unit[ROW_BLOCK:3 * ROW_BLOCK] = edge
            unit /= np.linalg.norm(unit, axis=1, keepdims=True)
            radii = reach * np.concatenate([rng.uniform(0.0, 1.0 - 2e-9, ROW_BLOCK),
                                            1.0 + rng.uniform(-1e-9, -1e-10, ROW_BLOCK),
                                            1.0 + rng.uniform(-1e-9, 1e-9, ROW_BLOCK),
                                            rng.uniform(0.0, 3.0, 3 * ROW_BLOCK)])
            pts = tube.center + unit * radii[:, None]
            pts[[200, 270, 340]] = np.nan
            pts[[250, 300], 0] = np.inf
            pts[[251, 301], 0] = -np.inf
            with np.errstate(invalid="ignore"):
                got = tube.margins(pts, floor)
                want = np.maximum(tube.margins(pts), floor)
            assert got.tobytes() == want.tobytes(), floor
            assert np.isnan(got[[200, 270, 340]]).all()

    @pytest.mark.parametrize("kind", ["double_integrator", "vehicle"])
    def test_rows_inside_the_ball_skip_the_facets(self, kind, scalar_bundle):
        # With the facets replaced by NaN, blocks of rows inside the
        # inscribed ball by more than -floor read the floor; a block with
        # one row outside it takes the facets, and reads NaN.
        tube = copy.copy(tail_membership(kind, scalar_bundle))
        floor = -0.25 * tube.inradius
        pts = tube.center + np.full((2 * ROW_BLOCK, len(tube.center)), 0.5 * tube.inradius
                                    / np.sqrt(len(tube.center)))
        pts[-1] = tube.center + 0.8 * tube.inradius
        tube.normals = np.full_like(tube.normals, np.nan)
        got = tube.margins(pts, floor)
        assert (got[:ROW_BLOCK] == floor).all() and np.isnan(got[ROW_BLOCK:]).all()

    def test_vehicle_tail_set_has_four_facets(self):
        from ocorobust import vehicle

        tail = vehicle.vehicle_setup(vehicle.VehicleParams()).model.p_tail
        assert len(tail.to_halfspaces()[0]) == 576
        assert ZonotopeMembership(tail).normals.shape == (4, 2)

    def test_segment_margins(self, scalar_bundle):
        model = scalar_bundle[0]
        extent = float(np.abs(model.p_tail.generators).sum())
        pts = np.array([[0.0], [0.5 * extent], [2.0 * extent], [-3.0 * extent]])
        # a full-dimensional 1-D set: signed, negative inside
        want = np.abs(pts[:, 0] - model.p_tail.center[0]) - extent
        assert np.allclose(model.tube_margins(pts), want, rtol=0.0, atol=1e-15)
