import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ocorobust import oco_controller as oco
from ocorobust.denseqp import DEFAULT_TOL, PrefactoredQp, QpSolution
from ocorobust.errors import (
    FactorizationError,
    InfeasibleError,
    InitializationError,
    StepError,
)
from ocorobust.plant import (
    QuadraticCost,
    cost_curvature,
    membership_zu,
    optimal_steady_state,
    stage_values,
    stage_values_linear,
)

from conftest import max_beta_bisect, ogd_step_at, reference_rollout_linear


def steady_pair(model, manifold, u):
    u = np.asarray(u, float)
    return (model.g_k @ u, u)


def constant_rows(rows, model):
    """Map rows in the columns [x; candidate; theta_hat; d; 1] that are the
    constant vector ``rows`` at every step."""
    rows = np.asarray(rows, float)
    return np.hstack([np.zeros((rows.size, 3 * model.n + model.mu * model.m)), rows[:, None]])


def equality_rollout(model, hessian, linear):
    """A rollout over g alone, as a builder's ``rollout`` gives it: the given
    Hessian, the constant linear term ``linear`` and S_c g = d."""
    solver = PrefactoredQp(hessian, eq_normals=model.s_c)
    return oco.RolloutMap(solver, constant_rows(linear, model)), None


def optimized_input(model, rollout, theta, pred, c_g):
    """``oco.additional_input_optimized`` at x_meas = 0 and the zero
    candidate, for reach gap theta - pred."""
    nv = model.mu * model.m
    return oco.additional_input_optimized(model, rollout, np.zeros(model.n), np.zeros(nv),
                                          theta, theta - pred, c_g)


class TestInitialize:
    def test_at_steady_state_plan_is_constant(self, scalar_bundle):
        model, tables, manifold = scalar_bundle
        zeta0 = steady_pair(model, manifold, [0.3])
        state = oco.initialize(model, tables, manifold, zeta0, zeta0[0])
        assert np.allclose(state.u_pred, np.tile([0.3], model.mu), atol=1e-12)
        assert state.t == 0

    def test_correction_identity(self, di_bundle):
        model, tables, manifold = di_bundle
        zeta0 = steady_pair(model, manifold, [0.4])
        x0 = zeta0[0] + np.array([0.15, -0.05])
        state = oco.initialize(model, tables, manifold, zeta0, x0)
        correction = state.u_pred - np.tile(zeta0[1], model.mu)
        target = np.linalg.matrix_power(model.a_k, model.mu) @ (zeta0[0] - x0)
        assert np.allclose(model.s_c @ correction, target, atol=1e-9)

    def test_zeta0_outside_manifold_rejected(self, scalar_bundle):
        model, tables, manifold = scalar_bundle
        u_big = manifold.sbar.offsets[0] / manifold.sbar.normals[0, 0] * 1.5
        with pytest.raises(InitializationError):
            oco.initialize(model, tables, manifold,
                           steady_pair(model, manifold, [u_big]), np.zeros(1))

    def test_infeasible_plan_rejected(self, scalar_bundle):
        model, tables, manifold = scalar_bundle
        zeta0 = steady_pair(model, manifold, [0.75])
        # measured state far from theta0: the correction blows the input stage
        with pytest.raises(InitializationError, match="closer"):
            oco.initialize(model, tables, manifold, zeta0, np.array([-1.99]))


def predict(tables, x, useq):
    """The mu-step prediction A_K^mu x + S_c useq: the last n rows of the
    stacked rollout product, as ``oco.step`` reads them."""
    return (tables.rollout_x @ x + tables.rollout_u @ useq)[-tables.rollout_x.shape[1]:]


class TestPredict:
    """The prediction rows of ``tables.rollout_x``/``rollout_u`` on the
    shifted plan, as ``oco.step`` uses them."""

    def test_zero_state_zero_inputs(self, scalar_bundle):
        _, tables, _ = scalar_bundle
        assert predict(tables, np.zeros(1), np.zeros(2)) == pytest.approx([0.0])

    def test_scalar_mu2(self, scalar_bundle):
        _, tables, _ = scalar_bundle
        # A_K = 0.5, mu = 2: prediction from x=4 with zero inputs is 0.25*4 = 1
        assert predict(tables, np.array([4.0]), np.zeros(2)) == pytest.approx([1.0])

    def test_steady_state_fixed_point(self, di_bundle):
        model, tables, manifold = di_bundle
        zeta0 = steady_pair(model, manifold, [0.5])
        state = oco.initialize(model, tables, manifold, zeta0, zeta0[0])
        shifted = np.concatenate([state.u_pred[model.m:], state.u_ss])
        pred = predict(tables, zeta0[0], shifted)
        assert np.allclose(pred, zeta0[0], atol=1e-9)


class TestOgdStep:
    def test_zero_gradient_fixed_point(self, di_bundle):
        model, tables, manifold = di_bundle
        zeta = steady_pair(model, manifold, [0.3])
        cost = QuadraticCost(np.eye(2), np.eye(1),
                             zeta[0], zeta[1] + model.k @ zeta[0])
        theta, eta = ogd_step_at(tables, model, manifold, cost, 0.2, zeta[0], zeta[1])
        assert np.allclose(theta, zeta[0], atol=1e-8)
        assert np.allclose(eta, zeta[1], atol=1e-8)

    def test_pushes_to_boundary(self, scalar_bundle):
        model, tables, manifold = scalar_bundle
        cost = QuadraticCost([[1.0]], [[1e-9]], [100.0], [0.0])
        theta, eta = ogd_step_at(tables, model, manifold, cost, 1.0, np.zeros(1),
                                 np.zeros(1))
        umax = manifold.sbar.offsets[0] / manifold.sbar.normals[0, 0]
        assert eta[0] == pytest.approx(umax, rel=1e-6)

    def test_contraction_inequality(self, di_bundle):
        model, tables, manifold = di_bundle
        rng = np.random.default_rng(50)
        for _ in range(100):
            qx = np.diag(rng.uniform(0.5, 2.0, 2))
            qu = np.array([[rng.uniform(0.2, 1.0)]])
            cost = QuadraticCost(qx, qu, rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.3, 0.3, 1))
            alpha, ell = cost_curvature(cost, model)
            gamma = rng.uniform(0.05, 1.0) * 2.0 / (alpha + ell)
            zeta_star = optimal_steady_state(manifold, cost, model)
            zs = np.concatenate(zeta_star)
            u_ss = rng.uniform(-1.0, 1.0, 1)
            pred = rng.uniform(-1.0, 1.0, 2)
            zeta_hat = ogd_step_at(tables, model, manifold, cost, gamma, pred, u_ss)
            lhs = np.linalg.norm(np.concatenate(zeta_hat) - zs)
            rhs = (1.0 - gamma * alpha) * np.linalg.norm(np.concatenate([pred, u_ss]) - zs)
            assert lhs <= rhs + 1e-8

    def test_failed_projection_names_its_kkt_residual(self, di_bundle):
        # a solve whose KKT residual misses the tolerance reports "max_iter";
        # the error gives the residual and the tolerance, so that a converged
        # solve relabelled so shows as such
        _, _, manifold = di_bundle
        sol = QpSolution(x=np.zeros(1), kkt_residual=2.79e-9, status="max_iter")

        class MaxIter(PrefactoredQp):
            def solve(self, *args, **kwargs):
                return sol

        manifold = copy.copy(manifold)
        real = manifold.projector
        manifold.projector = MaxIter(real.hessian, ineq_normals=real.ineq_normals, tol=real.tol)
        with pytest.raises(InfeasibleError) as info:
            oco.project_manifold(manifold, np.zeros(1))
        assert str(info.value) == ("manifold projection failed: max_iter "
                                   "(KKT residual 2.79e-09, tol 1e-09)")


class TestAdditionalInput:
    def test_degenerate_is_zero(self, scalar_bundle):
        _, tables, _ = scalar_bundle
        g, growth = oco.additional_input_explicit(tables, np.array([1.0]), np.array([1.0]))
        assert np.array_equal(g, np.zeros(2))
        assert np.array_equal(growth, np.zeros(tables.residual_offsets.size))

    def test_scalar_hand_solution(self, scalar_bundle):
        _, tables, _ = scalar_bundle
        # S_c = [0.5, 1], S_c S_c^T = 1.25, d = 1 -> g = (0.4, 0.8)
        g, _ = oco.additional_input_explicit(tables, np.array([1.0]), np.array([0.0]))
        assert np.allclose(g, [0.4, 0.8], atol=1e-12)

    def test_least_norm_among_solutions(self, di_bundle):
        model, tables, _ = di_bundle
        rng = np.random.default_rng(51)
        d = rng.standard_normal(2) * 0.2
        g, _ = oco.additional_input_explicit(tables, d, np.zeros(2))
        # oracle: minimum-norm QP subject to S_c g = d
        sol = PrefactoredQp(2 * np.eye(model.mu), eq_normals=model.s_c).solve(
            np.zeros(model.mu), eq_offsets=d)
        assert np.allclose(g, sol.x, atol=1e-8)
        assert np.allclose(model.s_c @ g, d, atol=1e-9)

    def test_optimized_identity_cost_matches_explicit(self, di_bundle):
        model, tables, _ = di_bundle
        nv = model.mu * model.m
        rollout = equality_rollout(model, 2 * np.eye(nv), np.zeros(nv))
        theta, pred = np.array([0.3, -0.1]), np.zeros(2)
        g, kkt, fb = optimized_input(model, rollout, theta, pred, c_g=1000.0)
        assert not fb
        assert kkt <= 1e-8
        assert np.allclose(g, oco.additional_input_explicit(tables, theta, pred)[0], atol=1e-7)

    def test_optimized_degenerate_zero(self, di_bundle):
        model, _, _ = di_bundle
        nv = model.mu * model.m
        rollout = equality_rollout(model, 2 * np.eye(nv), np.ones(nv))
        g, kkt, fb = optimized_input(model, rollout, np.ones(2), np.ones(2), c_g=1000.0)
        assert np.array_equal(g, np.zeros(nv))
        assert kkt is None and not fb

    def test_optimized_slack_keeps_equality(self, di_bundle):
        model, _, _ = di_bundle
        nv = model.mu * model.m
        rng = np.random.default_rng(52)
        rows = rng.standard_normal((3, nv)) * 0.1
        # variables (g, eps): rows g + offsets + eps >= 0, 100 eps^2, S_c g = d
        h = np.diag(np.concatenate([np.full(nv, 2.0), [200.0]]))
        solver = PrefactoredQp(h, ineq_normals=np.hstack([-rows, -np.ones((3, 1))]),
                               eq_normals=np.hstack([model.s_c, np.zeros((2, 1))]))
        offsets = np.array([-1.0, -2.0, 0.5])
        rollout_map = oco.RolloutMap(solver, constant_rows(np.zeros(nv + 1), model),
                                     constant_rows(offsets, model))
        theta, pred = np.array([0.2, 0.1]), np.zeros(2)
        g, kkt, fb = optimized_input(model, (rollout_map, 0.0), theta, pred, c_g=1000.0)
        assert not fb
        assert np.linalg.norm(model.s_c @ g - (theta - pred)) <= 1e-8
        # two rows bind: the map's guess is rejected and g is GI's
        want = solver.solve(np.zeros(nv + 1), ineq_offsets=offsets, eq_offsets=theta - pred)
        assert np.count_nonzero(want.ineq_multipliers) == 2
        assert np.array_equal(g, want.x[:nv])

    def test_infeasible_rollout_falls_back(self, di_bundle):
        # Rows g_0 <= -1 and g_0 >= 1 leave no feasible g: the rows' guess is
        # rejected, GI ends "infeasible" and the step takes S_c^+ d.
        model, _, _ = di_bundle
        nv = model.mu * model.m
        rows = np.zeros((2, nv))
        rows[0, 0], rows[1, 0] = 1.0, -1.0
        solver = PrefactoredQp(2 * np.eye(nv), ineq_normals=rows, eq_normals=model.s_c)
        rollout_map = oco.RolloutMap(solver, constant_rows(np.zeros(nv), model),
                                     constant_rows([-1.0, -1.0], model))
        theta, pred = np.array([0.2, 0.1]), np.zeros(2)
        g, kkt, fb = optimized_input(model, (rollout_map, 0.0), theta, pred, c_g=1000.0)
        assert fb and kkt is not None
        assert np.array_equal(g, model.s_c_pinv @ (theta - pred))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gap_raises(self, di_bundle, bad):
        # A non-finite reach gap is an error on both variants, not a fallback.
        model, tables, _ = di_bundle
        nv = model.mu * model.m
        theta = np.array([bad, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            oco.additional_input_explicit(tables, theta, np.zeros(2))
        rollout = equality_rollout(model, 2 * np.eye(nv), np.zeros(nv))
        with pytest.raises(ValueError, match="non-finite"):
            optimized_input(model, rollout, theta, np.zeros(2), c_g=1000.0)

    def test_norm_cap_triggers_fallback(self, di_bundle):
        model, tables, _ = di_bundle
        nv = model.mu * model.m
        # linear term pushes the solution far away; tiny cap forces fallback
        rollout = equality_rollout(model, 2e-4 * np.eye(nv), rng_lin(nv))
        theta, pred = np.array([1e-3, 0.0]), np.zeros(2)
        g, _, fb = optimized_input(model, rollout, theta, pred, c_g=model.c_g_min * 1.01)
        assert fb
        assert np.allclose(g, oco.additional_input_explicit(tables, theta, pred)[0])


class TestRolloutBuilder:
    def test_variant_follows_the_builder(self, di_bundle):
        model, _, _ = di_bundle
        builder = oco.QuadraticRolloutBuilder(model, np.eye(2), np.eye(1))
        assert oco.ControllerConfig(gamma=0.2).variant == "explicit"
        assert oco.ControllerConfig(gamma=0.2, rollout_builder=builder).variant == "optimized"
        fields = [f.name for f in dataclasses.fields(oco.ControllerConfig)]
        assert fields == ["gamma", "c_g", "rollout_builder"]

    def test_solver_has_the_default_tolerance(self, di_bundle):
        model, _, _ = di_bundle
        builder = oco.QuadraticRolloutBuilder(model, np.eye(2), np.eye(1))
        assert builder.solver.tol == DEFAULT_TOL

    def test_solver_serves_every_step(self, di_bundle):
        model, _, _ = di_bundle
        builder = oco.QuadraticRolloutBuilder(model, np.eye(2), np.eye(1))
        # one map for every step, with no offset shift
        assert builder.rollout() == (builder, None)
        # equality rows only: the precomputed equality-constrained optimum
        # answers every solve
        assert builder.solver.eq_optimum and builder.solver.ineq_normals.shape[0] == 0
        assert builder.offsets == slice(builder.matrix.shape[0], builder.matrix.shape[0])

    def test_linear_term_matches_the_per_step_form(self, di_bundle):
        # The fixed maps against the c_x / c_v / tile form they replaced, on
        # drawn contexts, within 1e-12 of the size of the parts that cancel;
        # the reach gap does not enter the linear term.
        model, _, _ = di_bundle
        q_x, q_u = np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([[0.7]])
        builder = oco.QuadraticRolloutBuilder(model, q_x, q_u)
        rng = np.random.default_rng(41)
        nv = model.mu * model.m
        for t in range(50):
            x_meas, theta_hat = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)
            candidate = rng.uniform(-4, 4, nv)
            want, scale = reference_rollout_linear(model, q_x, q_u, x_meas, candidate, theta_hat)
            rows = builder.product(x_meas, candidate, theta_hat, rng.uniform(-3, 3, 2))
            linear = rows[builder.linear]
            assert linear.shape == want.shape and rows[builder.offsets].size == 0
            assert np.linalg.norm(linear - want) <= 1e-12 * scale

    def test_map_needs_full_rank_equality_rows(self, di_bundle):
        # Without S_c's rows, or with a rank-deficient copy of them, there is
        # no equality-constrained optimum to fold into the map.
        model, _, _ = di_bundle
        nv = model.mu * model.m
        linear = constant_rows(np.zeros(nv), model)
        for eq_normals in (None, np.vstack([model.s_c[:1], model.s_c[:1]])):
            solver = PrefactoredQp(2 * np.eye(nv), eq_normals=eq_normals)
            with pytest.raises(ValueError, match="full row rank"):
                oco.RolloutMap(solver, linear)

    def test_non_pd_hessian_raises_at_construction(self, di_bundle):
        # q_u = 0 leaves the last input of the rollout unweighted
        model, _, _ = di_bundle
        with pytest.raises(FactorizationError):
            oco.QuadraticRolloutBuilder(model, np.eye(2), np.zeros((1, 1)))


def rng_lin(nv):
    return np.linspace(1.0, 2.0, nv)


class TestMaxBeta:
    def test_zero_g_full_step(self, scalar_bundle):
        model, tables, _ = scalar_bundle
        assert oco.max_beta(tables, model, np.zeros(1), np.zeros(2), np.zeros(2)) == 1.0

    def test_hand_ratio(self, scalar_bundle):
        model, tables, _ = scalar_bundle
        # base at origin, g = (3.6, 0). Facet ratios by hand:
        # input stage 0: 3.6 b <= 1 -> b = 1/3.6 (binding)
        # state stage 0: 3.6 b <= 1.8 -> 0.5; later stages are looser
        g = np.array([3.6, 0.0])
        beta = oco.max_beta(tables, model, np.zeros(1), np.zeros(2), g)
        assert beta == pytest.approx(1.0 / 3.6, abs=1e-12)

    def test_feasible_at_full_length(self, scalar_bundle):
        model, tables, _ = scalar_bundle
        beta = oco.max_beta(tables, model, np.zeros(1), np.zeros(2),
                            np.array([0.1, 0.05]))
        assert beta == 1.0

    def test_infeasible_base_raises(self, scalar_bundle):
        model, tables, _ = scalar_bundle
        with pytest.raises(InfeasibleError):
            oco.max_beta(tables, model, np.array([5.0]), np.zeros(2), np.zeros(2))

    def test_matches_bisection(self, di_bundle):
        model, tables, manifold = di_bundle
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 60:
            u = rng.uniform(-0.4, 0.4, 1)
            zeta = steady_pair(model, manifold, u)
            if not manifold.contains_u(u):
                continue
            x = zeta[0] + rng.uniform(-0.1, 0.1, 2)
            try:
                state = oco.initialize(model, tables, manifold, zeta, x)
            except InitializationError:
                continue
            g = rng.standard_normal(model.mu) * rng.uniform(0.5, 30.0)
            exact = oco.max_beta(tables, model, x, state.u_pred, g)
            bis = max_beta_bisect(tables, model, x, state.u_pred, g)
            assert abs(exact - bis) <= 1e-8
            checked += 1


def full_ratio_test(base_vals, growth):
    """``oco.max_beta``'s per-facet ratio test with no beta = 1 exit: the
    reference its early exit must equal bit for bit."""
    peak = float(np.abs(growth).max())
    if peak == 0.0:
        return 1.0
    if not peak < np.inf:
        raise ValueError("g has non-finite entries")
    mask = growth > 1e-14 * max(1.0, peak)
    rising = growth[mask]
    if not rising.size:
        return 1.0
    return float(min(1.0, (np.maximum(-base_vals[mask], 0.0) / rising).min()))


class TestMaxBetaEarlyExit:
    """``max_beta`` returns 1 at once when every row stays inside at beta = 1
    (base + growth <= 0); that must be the ratio test's answer too."""

    TOL = 1e-9

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_drawn_rows_equal_full_ratio_test(self, scalar_bundle, data):
        # Base residuals <= tol and growths drawn row by row, among them exact
        # ties growth == -base, zero growth and rows inside at beta = 1.
        model, tables, _ = scalar_bundle
        size = data.draw(st.integers(1, 12))
        base = data.draw(arrays(float, size, elements=st.sampled_from(
            [-3.0, -1.0, -0.25, -1e-3, -1e-12, 0.0, 0.5 * self.TOL, self.TOL])))
        growth = np.array([data.draw(st.sampled_from(
            [-b, 0.0, 1e-3, 0.3, 2.0, -0.5, 5e-15, -b * (1 + 2**-52), -b * (1 - 2**-52)]))
            for b in base])
        got = oco.max_beta(tables, model, None, None, None, tol=self.TOL,
                           _base=(base, float(base.max())), _growth=growth)
        assert got == full_ratio_test(base, growth)

    def test_exact_tie_and_zero_g(self, scalar_bundle):
        model, tables, _ = scalar_bundle
        base = np.array([-1.0, -0.3, 0.0, -2.0**-40])
        for growth in (-base, np.zeros(4)):
            got = oco.max_beta(tables, model, None, None, None,
                               _base=(base, float(base.max())), _growth=growth)
            assert got == full_ratio_test(base, growth) == 1.0

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_rollouts_equal_full_ratio_test_and_bisection(self, scalar_bundle, di_bundle,
                                                          data):
        model, tables, manifold = data.draw(st.sampled_from([scalar_bundle, di_bundle]))
        unit = st.floats(-1.0, 1.0, allow_nan=False)
        u = data.draw(arrays(float, model.m, elements=unit)) * 0.3
        assume(manifold.contains_u(u))
        zeta = steady_pair(model, manifold, u)
        x = zeta[0] + data.draw(arrays(float, model.n, elements=unit)) * 0.08
        try:
            base_seq = oco.initialize(model, tables, manifold, zeta, x).u_pred
        except InitializationError:
            assume(False)
        scale = data.draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5, 5.0, 40.0]))
        g = data.draw(arrays(float, model.mu * model.m, elements=unit)) * scale
        got = oco.max_beta(tables, model, x, base_seq, g)
        assert got == full_ratio_test(stage_values(tables, x, base_seq),
                                      stage_values_linear(tables, g))
        assert abs(got - max_beta_bisect(tables, model, x, base_seq, g)) <= 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_g_raises(self, tables_bundle, bad):
        model, tables = tables_bundle
        x, base_seq = np.zeros(model.n), np.zeros(model.mu * model.m)
        assert stage_values(tables, x, base_seq).max() <= model.membership_tol
        for j in range(base_seq.size):
            g = np.zeros(base_seq.size)
            g[j] = bad
            with pytest.raises(ValueError, match="non-finite"), np.errstate(invalid="ignore"):
                oco.max_beta(tables, model, x, base_seq, g)


class TestStep:
    def test_fixed_point_at_optimum(self, di_bundle):
        model, tables, manifold = di_bundle
        cost = QuadraticCost(np.eye(2), np.eye(1), np.zeros(2), np.zeros(1))
        theta, eta = optimal_steady_state(manifold, cost, model)
        state = oco.initialize(model, tables, manifold, (theta, eta), theta)
        options = oco.ControllerConfig(gamma=0.1)
        u, new_state, diag = oco.step(state, model, tables, manifold, theta, cost, options)
        assert np.allclose(u, eta + model.k @ theta, atol=1e-7)
        assert np.allclose(new_state.u_pred, state.u_pred, atol=1e-7)
        assert diag.g_norm <= 1e-7

    def test_scalar_hand_trace(self, scalar_bundle):
        model, tables, manifold = scalar_bundle
        cost = QuadraticCost([[1.0]], [[1.0]], [0.6], [0.0])
        eta0 = np.array([0.1])
        zeta0 = steady_pair(model, manifold, eta0)
        x0 = np.array([0.15])
        state = oco.initialize(model, tables, manifold, zeta0, x0)
        gamma = 0.3
        options = oco.ControllerConfig(gamma=gamma)
        x1 = np.array([0.3])
        u, new_state, diag = oco.step(state, model, tables, manifold, x1, cost, options)

        # independent recomputation, scipy/numpy only
        candidate = np.concatenate([state.u_pred[1:], eta0])
        pred = 0.25 * x1 + model.s_c @ candidate
        v_arg = eta0 + model.k @ pred
        gx = pred - 0.6
        gv = v_arg - 0.0
        px = pred - gamma * (gx + model.k.T @ gv)
        pu = eta0 - gamma * gv
        # projection onto {(2u, u)} via scalar minimization with clipping
        umax = manifold.sbar.offsets[0] / 2.0
        u_star = np.clip((2 * px + pu) / 5.0, -umax, umax)
        theta_hat = 2 * u_star
        g_expect = model.s_c_pinv @ (theta_hat - pred)
        beta = max_beta_bisect(tables, model, x1, candidate, g_expect)
        assert diag.pred_state == pytest.approx(pred, abs=1e-12)
        assert diag.ogd_target[0] == pytest.approx(theta_hat, abs=1e-9)
        assert diag.beta == pytest.approx(beta, abs=1e-8)
        assert np.allclose(new_state.u_pred, candidate + diag.beta * g_expect, atol=1e-8)
        assert np.allclose(new_state.u_ss,
                           (1 - diag.beta) * eta0 + diag.beta * u_star, atol=1e-8)
        assert np.allclose(u, new_state.u_pred[:1] + model.k @ x1, atol=1e-12)

    def test_candidate_shift_feasible_under_disturbance(self, di_bundle):
        model, tables, manifold = di_bundle
        cost = QuadraticCost(np.eye(2), np.eye(1), [0.5, 0.0], np.zeros(1))
        zeta = steady_pair(model, manifold, [0.2])
        rng = np.random.default_rng(54)
        x_meas = zeta[0].copy()
        state = oco.initialize(model, tables, manifold, zeta, x_meas)
        options = oco.ControllerConfig(gamma=0.2)
        for kick in model.w_bar.samples(rng, 30):
            x_meas = x_meas + kick
            candidate = np.concatenate([state.u_pred[model.m:], state.u_ss])
            ok, _ = membership_zu(tables, model, x_meas, candidate)
            assert ok
            _, state, diag = oco.step(state, model, tables, manifold, x_meas, cost, options)
            assert diag.candidate_feasible

    def test_horizon_one_shift_degenerates_to_steady_input(self, scalar_bundle):
        from ocorobust.convexsets import HPolytope, Zonotope
        from ocorobust.plant import (ModelConfig, build_model, build_tightening,
                                     steady_state_manifold)
        from ocorobust.simkit import ConstantSchedule, DisturbancePolicy, run_closed_loop

        cfg = ModelConfig(a=[[1.0]], b=[[1.0]], k=[[-0.5]], mu=1,
                          x_set=HPolytope.box([-2.0], [2.0]),
                          u_set=HPolytope.box([-1.0], [1.0]),
                          w_set=Zonotope.box([0.1]), v_set=Zonotope.box([0.05]))
        model = build_model(cfg)
        tables = build_tightening(model)
        manifold = steady_state_manifold(model, model.p_rpi, shrink=0.99)
        cost = QuadraticCost([[1.0]], [[1.0]], [0.3], [0.0])
        trace, ledger = run_closed_loop(
            model, tables, manifold, oco.ControllerConfig(gamma=0.4),
            ConstantSchedule(cost), DisturbancePolicy(seed=0), horizon=40)
        assert all(all(r.invariant_flags[k] for k in ("state_ok", "input_ok"))
                   for r in trace)

    def test_error_wrapped_with_step_index(self, di_bundle):
        model, tables, manifold = di_bundle
        zeta = steady_pair(model, manifold, [0.0])
        state = oco.initialize(model, tables, manifold, zeta, np.zeros(2))
        options = oco.ControllerConfig(gamma=0.2)

        class Broken:
            def grad(self, x, v):
                raise RuntimeError("boom")

        with pytest.raises(StepError, match="t=1"):
            oco.step(state, model, tables, manifold, np.zeros(2), Broken(), options)

    def test_malformed_rollout_qp_raises(self, di_bundle):
        # A rollout map of the wrong size is a programming error, not a solver
        # failure: it must surface instead of falling back to the explicit input.
        model, tables, manifold = di_bundle
        nv = model.mu * model.m
        zeta = steady_pair(model, manifold, [0.2])
        state = oco.initialize(model, tables, manifold, zeta, zeta[0])
        cost = QuadraticCost(np.eye(2), np.eye(1), [0.5, 0.0], np.zeros(1))

        class WrongLength:
            def rollout(self):
                # one column more than the step's data
                solver = PrefactoredQp(2 * np.eye(nv), eq_normals=model.s_c)
                return oco.RolloutMap(solver, np.zeros((nv, 3 * model.n + nv + 2))), None

        options = oco.ControllerConfig(gamma=0.2, rollout_builder=WrongLength())
        with pytest.raises(StepError) as info:
            oco.step(state, model, tables, manifold, zeta[0], cost, options)
        assert isinstance(info.value.cause, ValueError)



class TestBoundaryChecks:
    """``step`` validates what comes from outside once, the measured state and
    the gradient oracle's output; a NaN or inf in either still raises."""

    @pytest.fixture(params=["explicit", "optimized"])
    def started(self, request, di_bundle):
        model, tables, manifold = di_bundle
        zeta = steady_pair(model, manifold, [0.2])
        state = oco.initialize(model, tables, manifold, zeta, zeta[0])
        builder = (oco.QuadraticRolloutBuilder(model, np.eye(2), np.eye(1))
                   if request.param == "optimized" else None)
        options = oco.ControllerConfig(gamma=0.2, rollout_builder=builder)
        return model, tables, manifold, state, options, zeta[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_measurement(self, started, bad):
        model, tables, manifold, state, options, x = started
        cost = QuadraticCost(np.eye(2), np.eye(1), [0.5, 0.0], np.zeros(1))
        x_meas = x.copy()
        x_meas[1] = bad
        with pytest.raises(StepError) as info:
            oco.step(state, model, tables, manifold, x_meas, cost, options)
        assert isinstance(info.value.cause, (ValueError, InfeasibleError))

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient(self, started, which, bad):
        model, tables, manifold, state, options, x = started
        cost = QuadraticCost(np.eye(2), np.eye(1), [0.5, 0.0], np.zeros(1))

        class BadOracle:
            def grad(self, x, v):
                grads = list(cost.grad(x, v))
                grads[which] = np.full_like(grads[which], bad)
                return tuple(grads)

        with pytest.raises(StepError) as info:
            oco.step(state, model, tables, manifold, x, BadOracle(), options)
        assert isinstance(info.value.cause, (ValueError, InfeasibleError))
