import numpy as np
import pytest

from ocorobust import denseqp, simkit, vehicle
from ocorobust import oco_controller as oco
from ocorobust.errors import OcoRobustError, StepError
from unittest import mock

from ocorobust.plant import QuadraticCost, SteadyStateBenchmark, optimal_steady_state

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
    """The setup's weight pairs: phases 1 and 2 (``vehicle.PHASE1_COST``),
    then phase 3."""

    def test_phase1_gradient_zero_at_target(self, setup):
        cost = setup.pairs[0].cost
        assert cost is vehicle.PHASE1_COST
        assert cost.ref_x[1] == pytest.approx(120.0 / 3.6 - vehicle.DELTA_BAR)
        gx, gv = cost.grad(cost.ref_x, [0.0, 0.0])
        assert np.allclose(gx, 0.0)
        assert np.allclose(gv, 0.0)

    def test_phase2_needs_estimate(self, setup):
        # Every phase-2 step has a leader-speed estimate, and its reference
        # is [0, estimate] as data on phase 1's cost.
        trace, _, metrics = vehicle.run_scenario("explicit", seed=0, setup=setup)
        phase2 = np.flatnonzero(np.array(metrics["phase"]) == 2)
        estimates = [metrics["leader_est_kmh"][t] for t in phase2]
        assert len(phase2) > 100 and None not in estimates
        want = vehicle.kmh_to_ms(np.array(estimates)) - vehicle.DELTA_BAR
        assert np.allclose(trace.ref_x[phase2, 1], want, rtol=0.0, atol=1e-12)
        assert not trace.ref_x[phase2, 0].any() and not trace.ref_u[phase2].any()

    def test_phase2_shares_phase1_weights(self, setup):
        # Phase 2 steps on phase 1's weight pair, so on its benchmark and
        # step map; phase 3 on its own.
        trace, _, metrics = vehicle.run_scenario("explicit", seed=0, setup=setup)
        phases = np.array(metrics["phase"])
        assert trace.pair.tolist() == (phases == 3).astype(int).tolist()
        for mine, shared in zip(trace.pairs, setup.pairs, strict=True):
            assert mine.cost is shared.cost and mine.benchmark is shared.benchmark
            assert mine.step_map is shared.step_map

    def test_phase3_weight_ratio(self, setup):
        cost = setup.pairs[1].cost
        assert cost.q_x[1, 1] / cost.q_x[0, 0] == 5.0
        assert cost.ref_x[0] == 3.0
        assert cost.ref_x[1] == pytest.approx(130.0 / 3.6 - vehicle.DELTA_BAR)

    def test_input_weight(self, setup):
        # 50 ||u||^2 means a Hessian of 100 per input channel, in every phase
        for entry in setup.pairs:
            assert np.allclose(entry.cost.q_u, 100.0 * np.eye(2))


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
        real = denseqp.PrefactoredQp._cold

        def counted(pre, *args):
            fallbacks.append(pre)
            return real(pre, *args)

        monkeypatch.setattr(denseqp.PrefactoredQp, "_cold", counted)
        g, kkt, fallback = oco.additional_input_optimized(
            model, rollout, np.zeros(2), np.zeros(20), np.zeros(2), d, setup.params.c_g)
        assert fallbacks == [rollout_map.solver]
        assert not fallback and kkt <= denseqp.DEFAULT_TOL
        x, _, _, _, status = denseqp._gi_core(
            rollout_map.solver, -(rollout_map.solver.hinv @ rows[rollout_map.linear]),
            np.concatenate([d, -offsets]))
        assert status == "optimal" and x[-1] >= 5.0 - 1e-6
        assert np.array_equal(g, x[:20])

    def test_recorded_run_matches_cold_gi(self, setup, monkeypatch):
        # Every phase-2 slack QP of a seed-0 optimized run, decided from the
        # step's ``OptimizedRows`` rows or from the rollout map's guess,
        # re-solved by the GI iteration from scratch: the same g (the rows
        # hold g, not the slack).
        recorded = []
        real, real_rows = denseqp.PrefactoredQp._from_guess, oco.OptimizedRows.additional_input
        slack = setup.builder.maps[2]

        def record(pre, linear, x, nu, ineq_b, eq_b):
            sol, kept = real(pre, linear, x, nu, ineq_b, eq_b)
            if pre.meq and pre.ineq_normals.shape[0]:
                recorded.append((pre, linear, ineq_b, eq_b, sol.status, sol.x))
            return sol, kept

        def from_rows(rows, out, x_meas, candidate, shift, *args):
            got = real_rows(rows, out, x_meas, candidate, shift, *args)
            if got is not None and rows.rollout_map is slack:
                d = out[rows.gap]
                own = slack.product(x_meas, candidate, out[rows.theta], d)
                recorded.append((slack.solver, own[slack.linear], own[slack.offsets] + shift, d,
                                 "optimal", got[0]))
            return got

        monkeypatch.setattr(denseqp.PrefactoredQp, "_from_guess", record)
        monkeypatch.setattr(oco.OptimizedRows, "additional_input", from_rows)
        vehicle.run_scenario("optimized", seed=0, setup=setup)
        monkeypatch.undo()
        assert len(recorded) > 100
        assert {id(pre) for pre, *_ in recorded} == {id(slack.solver)}
        for pre, linear, ineq_b, eq_b, status, got in recorded:
            x, _, _, _, gi_status = denseqp._gi_core(
                pre, -(pre.hinv @ linear), np.concatenate([eq_b, -ineq_b]))
            assert status == gi_status == "optimal"
            assert np.linalg.norm(got - x[:got.size]) <= 1e-12 * np.linalg.norm(x)


class TestBenchmarkPath:
    def test_no_benchmark_solve_inside_the_loop(self, setup, monkeypatch):
        # The benchmark solvers (one per SteadyStateBenchmark) are called
        # before observe(0) (zeta0) and after the last advance only: those
        # the setup holds and any built during the run.
        events, solvers = [], [entry.benchmark.solver for entry in setup.pairs]
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
        # Targets on a ring far outside S-bar: the guess fails, and each row
        # takes cold GI, which settles some on one facet and some on a
        # corner; each row still equals the single solve.
        model, manifold = setup.model, setup.manifold
        angles = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
        near = [vehicle.PHASE1_COST.with_ref_x([0.0, d]) for d in (-4.0, 0.0, 2.0)]
        costs = np.array(near + [
            vehicle.PHASE1_COST.with_ref_x([30.0 * np.cos(a), 30.0 * np.sin(a)])
            for a in angles], dtype=object)
        benchmark = SteadyStateBenchmark(manifold, model, costs[0])
        ref_x, ref_u = np.array([c.ref_x for c in costs]), np.array([c.ref_u for c in costs])
        real_gi, sizes = denseqp._gi_core, []

        def gi(*args):
            x, active, *rest = real_gi(*args)
            sizes.append(len(active))
            return (x, active, *rest)

        with mock.patch.object(denseqp, "_gi_core", gi):
            theta, eta = benchmark.steady_states(ref_x, ref_u, np.arange(len(costs)))
        linears = -(ref_x @ benchmark.ref_x_map + ref_u @ benchmark.ref_u_map)
        _, kept = benchmark.solver.guess_rows(linears, manifold.sbar.offsets)
        assert kept[:3].all() and not kept[3:].any()
        assert len(sizes) == len(costs) - 3 and {1, 2} <= set(sizes)  # facets and corners
        for i, cost in enumerate(costs):
            want_theta, want_eta = optimal_steady_state(manifold, cost, model)
            assert np.linalg.norm(theta[i] - want_theta) <= 1e-12 * np.linalg.norm(want_theta)
            assert np.linalg.norm(eta[i] - want_eta) <= 1e-12 * np.linalg.norm(want_eta)


class TestRolloutBuilderMaps:
    def test_solvers_have_the_default_tolerance(self, setup):
        # the follow, slack and phase-3 solvers
        assert [setup.builder.maps[p].solver.tol for p in (1, 2, 3)] == [denseqp.DEFAULT_TOL] * 3

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
        for (phase, gap_meas, est), ((rollout_map, shift), step_args, *_) in zip(contexts, seen):
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
        # Optimized seeds 0..9: every step's rollout guess is kept, from the
        # step's ``OptimizedRows`` rows or from the rollout map's (no rollout
        # reaches the solver's GI), and the c_g cap still sends 17
        # steps to the explicit input, reported in g_fallback.
        decided, fallbacks = [], []
        solvers = {id(m.solver) for m in setup.builder.maps.values()}
        real = {name: getattr(denseqp.PrefactoredQp, name) for name in ("_from_guess", "_cold")}
        real_rows = oco.OptimizedRows.additional_input

        def from_rows(rows, *args):
            got = real_rows(rows, *args)
            if got is not None:
                decided.append(True)
            return got

        def from_guess(pre, *args):
            sol, kept = real["_from_guess"](pre, *args)
            if id(pre) in solvers:
                decided.append(kept)
            return sol, kept

        def cold(pre, *args):
            if id(pre) in solvers:
                fallbacks.append(1)
            return real["_cold"](pre, *args)

        monkeypatch.setattr(oco.OptimizedRows, "additional_input", from_rows)
        monkeypatch.setattr(denseqp.PrefactoredQp, "_from_guess", from_guess)
        monkeypatch.setattr(denseqp.PrefactoredQp, "_cold", cold)
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

    @pytest.mark.parametrize("linear_truth", [False, True])
    def test_plant_residual_is_the_model_forms(self, setup, linear_truth):
        # ``advance`` forms w on floats; it must be [truth'_y, truth'_v -
        # Delta_bar] - (A x_true + B u) with the model's own products, to the
        # bit, signed zeros included: drawn states and inputs inside the
        # boxes, at magnitudes down to 1e-12 of their bounds, with +-0.0
        # entries.
        model = setup.model
        params = vehicle.VehicleParams(linear_truth=linear_truth)
        truth_step = vehicle._linear_truth_step if linear_truth else vehicle._rk4_step
        plant = vehicle._RoadPlant(params, 0, setup.builder, 1)
        x_hi = np.array([4.5, 130.0 / 3.6 - vehicle.DELTA_BAR])
        x_lo = np.array([-1.5, -vehicle.DELTA_BAR])
        u_hi = np.array([vehicle.STEER_BOUND_RAD, vehicle.ACCEL_BOUND])
        rng = np.random.default_rng(36)
        for _ in range(2000):
            x = rng.uniform(x_lo, x_hi) * 10.0 ** rng.integers(-12, 1, 2)
            u = rng.uniform(-u_hi, u_hi) * 10.0 ** rng.integers(-12, 1, 2)
            for z in (x, u):
                zero = rng.random(2) < 0.25
                z[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
            truth = (float(rng.uniform(0.0, 900.0)), float(x[0]),
                     float(x[1] + vehicle.DELTA_BAR))
            plant.truth, plant.x_true = truth, x.copy()
            w = plant.advance(u.copy())
            new = truth_step(truth, u)
            want = np.array([new[1], new[2] - vehicle.DELTA_BAR]) - (model.a @ x + model.b @ u)
            assert np.array_equal(w.view(np.int64), want.view(np.int64))

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
        near = vehicle._RoadPlant(vehicle.VehicleParams(initial_gap_m=90.0), 0, setup.builder, 3)
        far = vehicle._RoadPlant(setup.params, 1, setup.builder, 3)
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
        # phase 2 steps on phase 1's weight pair with a new reference each
        # step, as data in the ref_x column; phase 3 switches the weights
        phase2 = np.array(metrics["phase"]) == 2
        assert not trace.pair[phase2].any() and trace.pair[-1] == 1
        assert len({row.tobytes() for row in trace.ref_x[phase2]}) == np.count_nonzero(phase2) > 1
        assert trace.pairs[1].cost.q_x is not trace.pairs[0].cost.q_x
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

    @pytest.mark.parametrize("horizon", [120, 220, 250])
    def test_settled_speed_only_over_a_whole_phase3_window(self, setup, horizon):
        # The settled speed is the mean of the last 5 s of speeds, all in
        # phase 3: none at 120 steps (no phase 3) and 220 (the window would
        # mix phase 2 in); at 250 the window is phase 3 from its first step.
        _, _, metrics = vehicle.run_scenario("explicit", seed=0, horizon_steps=horizon,
                                             setup=setup)
        window = int(round(5.0 / vehicle.TAU))
        phases = np.array(metrics["phase"])
        if horizon < 250:
            assert metrics["phase3_settled_speed_kmh"] is None
            assert (metrics["phase3_start"] is None) == (horizon == 120)
        else:
            assert np.all(phases[-window:] == 3) and phases[-window - 1] == 2
            assert metrics["phase3_settled_speed_kmh"] == float(
                np.mean(metrics["speed_kmh"][-window:]))

    def test_c_g_below_norm_bound_rejected(self):
        with pytest.raises(OcoRobustError, match="c_g"):
            vehicle.run_scenario(params=vehicle.VehicleParams(c_g=1.0))

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            vehicle.run_scenario("fancy", seed=0)


def nan_gap_at(monkeypatch, t):
    """While active, every run's gap measurement noise is NaN at step t."""
    init = vehicle._Sensors.__init__

    def broken(sensors, *args):
        init(sensors, *args)
        sensors.dist[t] = np.nan

    monkeypatch.setattr(vehicle._Sensors, "__init__", broken)


class TestReferencesAsData:
    def test_run_builds_no_cost_or_map(self, monkeypatch):
        # A run on a shared setup builds no QuadraticStepMap and no
        # QuadraticCost (with_ref_x included) between observe(0) and the
        # last advance, finds a weight pair only where the cost object
        # changes (t = 0 and phase 3's first step), leaves the setup's pair
        # entries and their maps as they were, and records each phase-2
        # step's reference as [0, leader speed estimate] to the bit.
        shared = vehicle.vehicle_setup.__wrapped__(vehicle.VehicleParams())

        def snapshot():
            parts = [*shared.pairs, *(entry.step_map for entry in shared.pairs)]
            return [{name: value.copy() if isinstance(value, np.ndarray) else value
                     for name, value in vars(part).items()} for part in parts]

        events, estimates = [], {}

        def log(name, method):
            def call(*args, **kwargs):
                events.append(name)
                return method(*args, **kwargs)
            return call

        def observe(plant, t):
            events.append(("observe", t))
            out = real_observe(plant, t)
            if plant.phase == 2:
                estimates[t] = plant.est_speed_dev
            return out

        real_observe = vehicle._RoadPlant.observe
        before = snapshot()
        monkeypatch.setattr(vehicle._RoadPlant, "observe", observe)
        monkeypatch.setattr(vehicle._RoadPlant, "advance",
                            log("advance", vehicle._RoadPlant.advance))
        monkeypatch.setattr(QuadraticCost, "__post_init__",
                            log("cost", QuadraticCost.__post_init__))
        monkeypatch.setattr(QuadraticCost, "with_ref_x", log("cost", QuadraticCost.with_ref_x))
        monkeypatch.setattr(oco.QuadraticStepMap, "__init__",
                            log("map", oco.QuadraticStepMap.__init__))
        monkeypatch.setattr(simkit.RunRecord, "pair_of", log("pair_of", simkit.RunRecord.pair_of))
        for variant in ("optimized", "explicit"):
            events.clear()
            estimates.clear()
            trace, _, metrics = vehicle.run_scenario(variant, seed=2, setup=shared)
            first = events.index(("observe", 0))
            last = len(events) - 1 - events[::-1].index("advance")
            inside = events[first:last + 1]
            assert inside.count("advance") == 300
            assert not {"cost", "map"} & set(inside)
            steps = [name[1] for name in inside if isinstance(name, tuple)]
            pairs = [steps[inside[:i].count("advance")] for i, name in enumerate(inside)
                     if name == "pair_of"]
            assert pairs == [0, metrics["phase3_start"]]
            phase2 = np.flatnonzero(np.array(metrics["phase"]) == 2)
            assert len(phase2) > 100 and sorted(estimates) == phase2.tolist()
            want = np.array([[0.0, estimates[t]] for t in phase2])
            assert trace.ref_x[phase2].tobytes() == want.tobytes()
            assert not trace.ref_u.any()
        for old, new in zip(before, snapshot(), strict=True):
            assert old.keys() == new.keys()
            for name, value in old.items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, new[name]), name
                else:
                    assert value is new[name] or value == new[name], name

    def test_non_finite_reference_aborts_at_its_step(self, setup, monkeypatch):
        # A NaN gap measurement at step 60 (phase 2) makes that step's
        # leader estimate, and so its reference, NaN: the run aborts there,
        # keeping the 60 rows before it as the whole run has them.
        whole, _, metrics = vehicle.run_scenario("explicit", seed=0, setup=setup)
        assert metrics["phase"][60] == 2
        nan_gap_at(monkeypatch, 60)
        with pytest.raises(simkit.SimulationAborted) as info:
            vehicle.run_scenario("explicit", seed=0, setup=setup)
        err = info.value
        assert err.t == 60 and len(err.trace) == 60
        assert isinstance(err.__cause__, StepError) and err.__cause__.t == 60
        assert str(err.__cause__.cause) == "ref has non-finite entries"
        for name in ("x_true", "x_meas", "u", "beta", "theta_hat", "ref_x", "ref_u"):
            assert getattr(err.trace, name).tobytes() == getattr(whole, name)[:60].tobytes()
