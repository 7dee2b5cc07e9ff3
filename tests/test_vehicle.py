import numpy as np
import pytest

from ocorobust import denseqp, vehicle
from ocorobust import oco_controller as oco
from ocorobust.errors import OcoRobustError
from unittest import mock

from ocorobust.plant import SteadyStateBenchmark, optimal_steady_state

from conftest import (
    assert_benchmark_matches_per_row,
    assert_ledger_matches_reference,
    reference_gap_offsets,
    reference_rollout_linear,
    zonotope_contains,
)


@pytest.fixture(scope="module")
def setup():
    return vehicle.vehicle_setup(vehicle.VehicleParams())


class TestUnits:
    def test_exact_speed_conversion(self):
        for v in (0.1, 70.0, 100.0, 123.456, 130.0):
            assert abs(vehicle.ms_to_kmh(vehicle.kmh_to_ms(v)) - v) <= 1e-12 * v


class TestReducedModel:
    def test_lateral_row_matches_symbolic_linearization(self):
        # d(speed * sin(steer))/d(steer) at (100 km/h, 0) times the sample time
        a, b = vehicle.reduced_dynamics()
        h = 1e-7
        delta_bar = vehicle.DELTA_BAR
        num = (delta_bar * np.sin(h) - delta_bar * np.sin(0.0)) / h
        assert b[0, 0] == pytest.approx(vehicle.TAU * num, rel=1e-7)
        assert np.array_equal(a, np.eye(2))
        assert b[0, 1] == 0.0

    def test_speed_row_exact(self):
        _, b = vehicle.reduced_dynamics()
        assert b[1, 1] == vehicle.TAU
        assert b[1, 0] == 0.0

    def test_constraint_boxes_exact_si(self, setup):
        model = setup.model
        # recover physical bounds from the deviation boxes, bit-exact
        x_ub = model.x_set.offsets[:2]
        x_lb = -model.x_set.offsets[2:]
        assert x_lb[0] == -1.5 and x_ub[0] == 4.5
        assert x_lb[1] + vehicle.DELTA_BAR == pytest.approx(0.0, abs=1e-12)
        assert (x_ub[1] + vehicle.DELTA_BAR) == 130.0 / 3.6
        u_ub = model.u_set.offsets[:2]
        assert u_ub[0] == np.deg2rad(20.0)
        assert u_ub[1] == 4.0
        assert np.allclose(np.diag(model.w_set.generators), [0.2, 0.2])
        assert np.allclose(np.diag(model.v_set.generators), [0.1, 0.1 / 3.6])

    def test_paper_parameters(self, setup):
        assert setup.params.mu == 10
        assert setup.params.gamma == 0.7
        assert setup.params.c_g == 1000.0
        assert setup.params.shrink == 0.99


class TestPhaseCosts:
    def test_phase1_gradient_zero_at_target(self):
        cost = vehicle.phase_cost(1)
        gx, gv = cost.grad(cost.ref_x, [0.0, 0.0])
        assert np.allclose(gx, 0.0)
        assert np.allclose(gv, 0.0)

    def test_phase2_needs_estimate(self):
        with pytest.raises(ValueError):
            vehicle.phase_cost(2)
        cost = vehicle.phase_cost(2, target_speed_dev=-4.0)
        assert cost.ref_x[1] == -4.0

    def test_phase2_shares_phase1_weights(self, setup):
        # the same arrays, so the phase-1 benchmark solver serves phase 2
        follow = vehicle.phase_cost(1)
        cost = vehicle.phase_cost(2, target_speed_dev=-4.0)
        assert cost.q_x is follow.q_x and cost.q_u is follow.q_u
        assert cost.ref_u is follow.ref_u
        assert SteadyStateBenchmark(setup.manifold, setup.model, follow).serves(cost)
        with pytest.raises(ValueError):
            vehicle.phase_cost(2, target_speed_dev=np.nan)

    def test_phase3_weight_ratio(self):
        cost = vehicle.phase_cost(3)
        assert cost.q_x[1, 1] / cost.q_x[0, 0] == 5.0
        assert cost.ref_x[0] == 3.0
        assert cost.ref_x[1] == pytest.approx(130.0 / 3.6 - vehicle.DELTA_BAR)

    def test_input_weight(self):
        # 50 ||u||^2 means a Hessian of 100 per input channel
        cost = vehicle.phase_cost(1)
        assert np.allclose(cost.q_u, 100.0 * np.eye(2))


def slack_rollout(builder, gap_meas, d, x_meas=np.zeros(2), candidate=np.zeros(20)):
    """The phase-2 rollout map at a step with the gap ``gap_meas``, a leader
    at the own speed, theta_hat = 0 and reach gap ``d``: (map, its rows,
    the soft rows' offsets)."""
    rollout_map, shift = builder.rollout(2, gap_meas, 0.0)
    rows = rollout_map.product(x_meas, candidate, np.zeros(2), d)
    return rollout_map, rows, rows[rollout_map.offsets] + shift


class TestSoftSafety:
    def test_distant_leader_keeps_slack_zero(self, setup):
        builder = vehicle.VehicleRolloutBuilder(setup.model, setup.params)
        d = -np.array([0.0, 0.1])
        rollout_map, rows, offsets = slack_rollout(builder, 200.0, d)
        sol = rollout_map.solver.solve(rows[rollout_map.linear], ineq_offsets=offsets,
                                       eq_offsets=d)
        assert sol.status == "optimal"
        assert abs(sol.x[-1]) <= 1e-9

    def test_gap_at_boundary_row(self, setup):
        builder = vehicle.VehicleRolloutBuilder(setup.model, setup.params)
        # from x = 0 under the zero candidate: the old form's c_x = 0
        rollout_map, _, offsets = slack_rollout(builder, 50.0, np.zeros(2))
        # k = 0 row is pure slack: gap - safety = 0
        assert np.all(rollout_map.solver.ineq_normals[0, :-1] == 0.0)
        assert offsets[0] == pytest.approx(0.0)

    def test_static_shortfall_forces_slack(self, setup):
        # gap 45 m, no closing speed: slack-only subproblem needs eps >= 5
        builder = vehicle.VehicleRolloutBuilder(setup.model, setup.params)
        d = -np.array([0.0, 1e-6])
        rollout_map, rows, offsets = slack_rollout(builder, 45.0, d)
        sol = rollout_map.solver.solve(rows[rollout_map.linear], ineq_offsets=offsets,
                                       eq_offsets=d)
        assert sol.status == "optimal"
        assert sol.x[-1] >= 5.0 - 1e-6

    def test_binding_slack_row_falls_back_to_cold_gi(self, setup, monkeypatch):
        # The same 45 m shortfall inside the step's rollout: the rows' guess
        # (slack 0) is rejected, and the step's g is cold GI's.
        model = setup.model
        d = -np.array([0.0, 1e-3])
        rollout = setup.builder.rollout(2, 45.0, 0.0)
        rollout_map, rows, offsets = slack_rollout(setup.builder, 45.0, d)
        fallbacks = []
        real = denseqp.PrefactoredQp._fallback

        def counted(pre, *args):
            fallbacks.append(pre)
            return real(pre, *args)

        monkeypatch.setattr(denseqp.PrefactoredQp, "_fallback", counted)
        g, kkt, fallback = oco.additional_input_optimized(
            model, rollout, np.zeros(2), np.zeros(20), np.zeros(2), d, setup.params.c_g)
        assert fallbacks == [rollout_map.solver]
        assert not fallback and kkt <= denseqp.DEFAULT_TOL
        x, _, _, _, status = denseqp._gi_core(
            rollout_map.solver, -(rollout_map.solver.hinv @ rows[rollout_map.linear]),
            np.concatenate([d, -offsets]), denseqp.DEFAULT_TOL, denseqp.DEFAULT_MAX_ITER)
        assert status == "optimal" and x[-1] >= 5.0 - 1e-6
        assert np.array_equal(g, x[:20])

    def test_recorded_run_matches_cold_gi(self, setup, monkeypatch):
        # Every phase-2 slack QP of a seed-0 optimized run, decided from the
        # rollout map's guess, re-solved by the GI iteration from scratch.
        recorded = []
        real = denseqp.PrefactoredQp._from_guess

        def record(pre, linear, x, nu, ineq_b, eq_b, tol, *args):
            sol, kept = real(pre, linear, x, nu, ineq_b, eq_b, tol, *args)
            if pre.meq and pre.ineq_normals.shape[0]:
                recorded.append((pre, linear, ineq_b, eq_b, tol, sol))
            return sol, kept

        monkeypatch.setattr(denseqp.PrefactoredQp, "_from_guess", record)
        vehicle.run_scenario("optimized", seed=0, setup=setup)
        monkeypatch.undo()
        assert len(recorded) > 100
        assert {id(pre) for pre, *_ in recorded} == {id(setup.builder.maps[2].solver)}
        for pre, linear, ineq_b, eq_b, tol, sol in recorded:
            x, _, _, _, status = denseqp._gi_core(
                pre, -(pre.hinv @ linear), np.concatenate([eq_b, -ineq_b]),
                tol, denseqp.DEFAULT_MAX_ITER)
            assert sol.status == status == "optimal"
            assert np.linalg.norm(sol.x - x) <= 1e-12 * np.linalg.norm(x)


class TestBenchmarkPath:
    def test_no_benchmark_solve_inside_the_loop(self, setup, monkeypatch):
        # The benchmark solvers (one per SteadyStateBenchmark) are called
        # before observe(0) (zeta0) and after the last advance only: those
        # the setup holds and any built during the run.
        events, solvers = [], [benchmark.solver for benchmark in setup.benchmarks]
        init = SteadyStateBenchmark.__init__
        real = {name: getattr(denseqp.PrefactoredQp, name) for name in ("solve", "guess_rows")}

        def tracked_init(benchmark, *args):
            init(benchmark, *args)
            solvers.append(benchmark.solver)

        def tracked(name):
            def call(pre, *args, **kwargs):
                if any(pre is s for s in solvers):
                    events.append(name)
                return real[name](pre, *args, **kwargs)
            return call

        def log(name, method):
            def call(plant, *args):
                events.append(name)
                return method(plant, *args)
            return call

        monkeypatch.setattr(SteadyStateBenchmark, "__init__", tracked_init)
        for name in real:
            monkeypatch.setattr(denseqp.PrefactoredQp, name, tracked(name))
        monkeypatch.setattr(vehicle._RoadPlant, "observe",
                            log("observe", vehicle._RoadPlant.observe))
        monkeypatch.setattr(vehicle._RoadPlant, "advance",
                            log("advance", vehicle._RoadPlant.advance))
        vehicle.run_scenario("optimized", seed=0, setup=setup)
        first = events.index("observe")
        last = len(events) - 1 - events[::-1].index("advance")
        assert events.count("advance") == 300
        assert not {"solve", "guess_rows"} & set(events[first:last + 1])
        assert "guess_rows" in events[last:]

    def test_rows_on_facets_and_corners(self, setup):
        # Targets on a ring far outside S-bar: the guess fails, and the rows
        # take the one-row step (one facet) or cold GI (a corner); each row
        # still equals the single solve.
        model, manifold = setup.model, setup.manifold
        angles = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
        near = [vehicle.phase_cost(2, target_speed_dev=d) for d in (-4.0, 0.0, 2.0)]
        costs = np.array(near + [
            vehicle.phase_cost(1).with_ref_x([30.0 * np.cos(a), 30.0 * np.sin(a)])
            for a in angles], dtype=object)
        benchmark = SteadyStateBenchmark(manifold, model, costs[0])
        ref_x, ref_u = np.array([c.ref_x for c in costs]), np.array([c.ref_u for c in costs])
        with mock.patch.object(denseqp, "_gi_core", wraps=denseqp._gi_core) as gi:
            theta, eta = benchmark.steady_states(ref_x, ref_u, np.arange(len(costs)))
        linears = -(ref_x @ benchmark.ref_x_map + ref_u @ benchmark.ref_u_map)
        _, kept = benchmark.solver.guess_rows(linears, manifold.sbar.offsets)
        assert kept[:3].all() and not kept[3:].any()
        assert 0 < gi.call_count < len(costs) - 3  # some corners, some one-row steps
        for i, cost in enumerate(costs):
            want_theta, want_eta = optimal_steady_state(manifold, cost, model)
            assert np.linalg.norm(theta[i] - want_theta) <= 1e-12 * np.linalg.norm(want_theta)
            assert np.linalg.norm(eta[i] - want_eta) <= 1e-12 * np.linalg.norm(want_eta)


class TestRolloutBuilderMaps:
    def test_builders_match_the_per_step_form(self, setup, monkeypatch, rollout_oracle):
        # Every rollout of a seed-0 optimized run, phases 1 to 3: the map's
        # linear term and soft-row offsets against the per-step formulas the
        # fixed maps replaced, within 1e-12 of the size of the parts that
        # cancel in them, and the step's g, KKT residual and fallback
        # against the QP built and solved per step (``rollout_oracle``).
        contexts = []
        real = vehicle.VehicleRolloutBuilder.rollout

        def record(b, phase, gap_meas, est):
            contexts.append((phase, gap_meas, est))
            return real(b, phase, gap_meas, est)

        monkeypatch.setattr(vehicle.VehicleRolloutBuilder, "rollout", record)
        seen = rollout_oracle
        vehicle.run_scenario("optimized", seed=0, setup=setup)
        monkeypatch.undo()
        follow = (vehicle._Q_STATE, vehicle._Q_INPUT)
        weights = {1: follow, 2: follow, 3: (vehicle._Q_STATE_P3, vehicle._Q_INPUT)}
        assert len(contexts) == len(seen) == 299
        assert {phase for phase, *_ in contexts} == {1, 2, 3}
        for (phase, gap_meas, est), ((rollout_map, shift), step_args, _) in zip(contexts, seen):
            assert rollout_map is setup.builder.maps[phase]
            rows = rollout_map.product(*step_args)
            want, scale = reference_rollout_linear(setup.model, *weights[phase], *step_args[:3])
            got = rows[rollout_map.linear][:want.size]
            assert np.linalg.norm(got - want) <= 1e-12 * scale
            if phase == 2:
                assert rows[rollout_map.linear].size == want.size + 1
                assert rows[rollout_map.linear][-1] == 0.0
                offsets, scale = reference_gap_offsets(setup.model, *step_args[:2], gap_meas,
                                                       est, setup.params.safety_distance_m)
                got = rows[rollout_map.offsets] + shift
                assert np.linalg.norm(got - offsets) <= 1e-12 * scale
            else:
                assert shift is None and rows[rollout_map.offsets].size == 0

    def test_every_rollout_decided_by_the_rows(self, setup, monkeypatch):
        # Optimized seeds 0..9: the rollout map's guess is kept at every step
        # (no rollout reaches the solver's fallback), and the c_g cap still
        # sends 17 steps to the explicit input, reported in g_fallback.
        decided, fallbacks = [], []
        solvers = {id(m.solver) for m in setup.builder.maps.values()}
        real = {name: getattr(denseqp.PrefactoredQp, name) for name in ("_from_guess", "_fallback")}

        def from_guess(pre, *args):
            sol, kept = real["_from_guess"](pre, *args)
            if id(pre) in solvers:
                decided.append(kept)
            return sol, kept

        def fallback(pre, *args):
            if id(pre) in solvers:
                fallbacks.append(1)
            return real["_fallback"](pre, *args)

        monkeypatch.setattr(denseqp.PrefactoredQp, "_from_guess", from_guess)
        monkeypatch.setattr(denseqp.PrefactoredQp, "_fallback", fallback)
        capped = 0
        for seed in range(10):
            trace, _, _ = vehicle.run_scenario("optimized", seed=seed, setup=setup)
            capped += int(np.count_nonzero([rec.diagnostics.g_fallback for rec in trace]))
            assert not np.isnan(trace.kkt_residual[1:]).any()
        assert len(decided) == 10 * 299 and all(decided) and not fallbacks
        assert capped == 17


def rk4_reference(state, u):
    """The truth step in numpy vector form: the reference for ``_rk4_step``."""
    def rhs(s):
        return np.array([s[2] * np.cos(u[0]), s[2] * np.sin(u[0]), u[1]])

    k1 = rhs(state)
    k2 = rhs(state + 0.5 * vehicle.TAU * k1)
    k3 = rhs(state + 0.5 * vehicle.TAU * k2)
    k4 = rhs(state + vehicle.TAU * k3)
    return state + (vehicle.TAU / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


class TestTruthAndSensors:
    def test_rk4_matches_vector_form(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            state = np.array([rng.uniform(0, 900), rng.uniform(-2, 5), rng.uniform(0, 37)])
            u = rng.uniform([-0.35, -4.0], [0.35, 4.0])
            got = vehicle._rk4_step(tuple(state.tolist()), u)
            assert all(type(v) is float for v in got)
            assert np.array_equal(got, rk4_reference(state, u))

    def test_sensor_rows_match_per_step_draws(self):
        sensors = vehicle._Sensors(11, 0.7, 40)
        rngs = [np.random.default_rng(k) for k in np.random.SeedSequence(11).spawn(3)]
        bounds = (vehicle.POS_NOISE_M * 0.7, vehicle.kmh_to_ms(vehicle.SPEED_NOISE_KMH) * 0.7,
                  vehicle.DIST_NOISE_M * 0.7)
        for t in range(40):
            pos, speed, dist = (rng.uniform(-b, b) for rng, b in zip(rngs, bounds))
            assert sensors.v[t].tolist() == [pos, speed]
            assert sensors.dist[t] == dist

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            vehicle.run_scenario("explicit", seed=0, horizon_steps=horizon)


class TestScenario:
    def test_nominal_run_is_clean(self):
        params = vehicle.VehicleParams(sensor_noise_scale=0.0, linear_truth=True)
        trace, ledger, metrics = vehicle.run_scenario("explicit", seed=0, params=params)
        assert trace.flags["resid_ok"].all()
        for rec in trace:
            assert all(rec.invariant_flags.get(k, True)
                       for k in ("state_ok", "input_ok", "resid_ok"))
        # single smooth lane change: settles on the left lane
        assert trace[-1].x_true[0] == pytest.approx(3.0, abs=0.1)
        assert np.all(np.abs(rec.w) <= 1e-12 for rec in trace)

    def test_determinism(self):
        t1, l1, m1 = vehicle.run_scenario("optimized", seed=4, horizon_steps=80)
        t2, l2, m2 = vehicle.run_scenario("optimized", seed=4, horizon_steps=80)
        assert l1.cum_regret == l2.cum_regret
        for a, b in zip(t1, t2):
            assert np.array_equal(a.x_true, b.x_true)
            assert np.array_equal(a.u, b.u)

    def test_shared_builder_carries_nothing_between_runs(self):
        # every optimized run on a setup uses its one rollout builder; seed 0
        # after a seed-1 run equals seed 0 alone
        params = vehicle.VehicleParams()
        shared = vehicle.vehicle_setup.__wrapped__(params)
        vehicle.run_scenario("optimized", seed=1, params=params, setup=shared)
        t1, l1, _ = vehicle.run_scenario("optimized", seed=0, params=params, setup=shared)
        t2, l2, _ = vehicle.run_scenario("optimized", seed=0, params=params,
                                         setup=vehicle.vehicle_setup.__wrapped__(params))
        for name in ("cost", "benchmark_cost", "benchmark_theta", "benchmark_eta"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))
        for a, b in zip(t1, t2, strict=True):
            assert np.array_equal(a.x_true, b.x_true) and np.array_equal(a.u, b.u)
            assert a.diagnostics.beta == b.diagnostics.beta

    def test_plants_on_one_setup_keep_their_own_context(self, setup):
        # Observed alternately, a plant near the leader (phase 2) and one far
        # behind it (phase 1) each take their own phase's rollout map.
        near = vehicle._RoadPlant(setup.model, vehicle.VehicleParams(initial_gap_m=90.0), 0,
                                  setup.builder, 3)
        far = vehicle._RoadPlant(setup.model, setup.params, 1, setup.builder, 3)
        for t in range(3):
            near.observe(t)
            far.observe(t)
            assert (near.phase, far.phase) == (2, 1)
            rollout_map, shift = near.rollout()
            assert rollout_map is setup.builder.maps[2]
            assert np.array_equal(shift, near.gap_meas
                                  + vehicle.TAU * np.arange(11) * near.est_speed_dev)
            assert far.rollout() == (setup.builder.maps[1], None)
            near.advance(np.zeros(2))
            far.advance(np.zeros(2))

    def test_runs_change_no_attribute_of_the_builder(self):
        # The shared rollout builder and its solvers read the same before and
        # after a run of each variant.
        shared = vehicle.vehicle_setup.__wrapped__(vehicle.VehicleParams())
        builder = shared.builder
        parts = [builder]
        for rollout_map in builder.maps.values():
            parts += [rollout_map, rollout_map.solver]

        def snapshot():
            return [{name: value.copy() if isinstance(value, np.ndarray) else value
                     for name, value in vars(part).items()} for part in parts]

        before = snapshot()
        for variant in ("optimized", "explicit"):
            vehicle.run_scenario(variant, seed=2, horizon_steps=250, setup=shared)
        for old, new in zip(before, snapshot(), strict=True):
            assert old.keys() == new.keys()
            for name, value in old.items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, new[name]), name
                else:
                    assert value is new[name] or value == new[name], name

    @pytest.mark.parametrize("variant", ["optimized", "explicit"])
    def test_totals_match_step_by_step_reference(self, setup, variant):
        trace, ledger, metrics = vehicle.run_scenario(variant, seed=0)
        # phase 2 makes a new cost object each step on phase 1's weights;
        # phase 3 switches the weights
        phase2 = [c for c, p in zip(trace.costs, metrics["phase"]) if p == 2]
        assert len({id(c) for c in phase2}) == len(phase2) > 1
        assert phase2[0].q_x is trace.costs[0].q_x
        assert trace.costs[-1].q_x is not trace.costs[0].q_x
        assert_ledger_matches_reference(trace, ledger, setup.model)
        assert_benchmark_matches_per_row(trace, setup.model, setup.manifold)
        if variant == "optimized":
            kkt = [rec.diagnostics.kkt_residual for rec in trace]
            assert [k is None for k in kkt] == list(np.isnan(trace.kkt_residual))
            assert any(k is not None for k in kkt)

    def test_residual_inside_disturbance_box(self, setup):
        trace, _, _ = vehicle.run_scenario("optimized", seed=1)
        assert trace.flags["resid_ok"].all()
        for rec in trace:
            assert zonotope_contains(setup.model.w_set, rec.w, tol=1e-9)

    def test_estimate_error_bound(self):
        _, _, metrics = vehicle.run_scenario("optimized", seed=2)
        bound = vehicle.ms_to_kmh(2 * 0.1 / vehicle.TAU) + 0.1
        for est, phase in zip(metrics["leader_est_kmh"], metrics["phase"]):
            if phase == 2 and est is not None:
                assert abs(est - 70.0) <= bound + 1e-9

    def test_phase_ordering(self):
        _, _, metrics = vehicle.run_scenario("explicit", seed=3)
        phases = np.array(metrics["phase"])
        assert np.all(np.diff(phases) >= 0)
        assert metrics["phase2_start"] is not None
        assert metrics["phase3_start"] == int(round(20.0 / vehicle.TAU))

    def test_c_g_below_norm_bound_rejected(self):
        with pytest.raises(OcoRobustError, match="c_g"):
            vehicle.run_scenario(params=vehicle.VehicleParams(c_g=1.0))

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            vehicle.run_scenario("fancy", seed=0)
