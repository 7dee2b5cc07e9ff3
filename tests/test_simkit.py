import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocorobust import oco_controller as oco
from ocorobust import simkit
from ocorobust.convexsets import ZonotopeMembership
from ocorobust.errors import DimensionMismatch, InfeasibleError, OcoRobustError
from ocorobust.oco_controller import ControllerConfig
from ocorobust.denseqp import PrefactoredQp
from ocorobust.plant import (
    QuadraticCost,
    SteadyStateBenchmark,
    membership_zu,
    optimal_steady_state,
)
from ocorobust.simkit import (
    FLAG_NAMES,
    MARGINAL_TOL,
    RunRecord,
    TUBE_TOL,
    AlternatingTargetGenerator,
    ConstantSchedule,
    DisturbancePolicy,
    PiecewiseSchedule,
    SimulationAborted,
    _Sampler,
    closed_loop,
    fit_affine,
    invariant_report,
    regret_scaling_experiment,
    run_closed_loop,
)

from conftest import (
    assert_benchmark_matches_per_row,
    assert_ledger_matches_reference,
    row_state,
    zonotope_contains,
)


@pytest.fixture()
def di_run(di_bundle, di_cost):
    model, tables, manifold = di_bundle
    controller = ControllerConfig(gamma=0.3)
    schedule = ConstantSchedule(di_cost)
    zeta0 = optimal_steady_state(manifold, di_cost, model)

    def run(seed=0, horizon=80, kind="uniform_box", scale=1.0, **kw):
        return run_closed_loop(model, tables, manifold, controller, schedule,
                               DisturbancePolicy(kind=kind, seed=seed, scale=scale),
                               horizon, zeta0=zeta0, x0=zeta0[0], **kw)

    return run


def trace_arrays(trace):
    return np.array([np.concatenate([r.x_true, r.x_meas, r.u, r.w, r.v,
                                     [r.diagnostics.beta, r.diagnostics.g_norm]])
                     for r in trace])


class TestDeterminism:
    def test_identical_seeds_identical_traces(self, di_run):
        t1, l1 = di_run(seed=7)
        t2, l2 = di_run(seed=7)
        assert np.array_equal(trace_arrays(t1), trace_arrays(t2))
        assert l1.cum_regret == l2.cum_regret

    def test_measurement_identity(self, di_run):
        trace, _ = di_run(seed=8, horizon=40)
        for rec in trace:
            assert np.array_equal(rec.x_meas, rec.x_true + rec.v)

    def test_different_seeds_differ(self, di_run):
        t1, _ = di_run(seed=1)
        t2, _ = di_run(seed=2)
        assert not np.array_equal(trace_arrays(t1), trace_arrays(t2))


class TestLedger:
    def test_identity(self, di_run):
        trace, ledger = di_run(seed=3)
        assert ledger.cum_regret == pytest.approx(
            sum(trace.cost - trace.benchmark_cost), abs=1e-9)
        assert ledger.path_length >= 0
        assert ledger.w_energy > 0
        assert ledger.v_energy > 0

    def test_zero_noise_optimal_start_zero_regret(self, di_run):
        for horizon in (5, 40, 120):
            _, ledger = di_run(seed=0, horizon=horizon, kind="zero")
            assert abs(ledger.cum_regret) <= 1e-9
            assert ledger.w_energy == 0.0 and ledger.v_energy == 0.0

    def test_switch_transient_decays(self, di_bundle, di_cost):
        model, tables, manifold = di_bundle
        moved = QuadraticCost(di_cost.q_x, di_cost.q_u, [0.6, 0.0], di_cost.ref_u)
        schedule = PiecewiseSchedule(((0, di_cost), (20, moved)))
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        trace, ledger = run_closed_loop(
            model, tables, manifold, ControllerConfig(gamma=0.3), schedule,
            DisturbancePolicy(kind="zero"), 260, zeta0=zeta0, x0=zeta0[0])
        per_step = list(trace.cost - trace.benchmark_cost)
        spike = max(per_step[20:60])
        tail = max(per_step[-20:])
        assert spike > 1e-3
        assert tail <= 1e-5 * max(spike, 1.0)


class TestRunRecord:
    def test_views_read_the_columns(self, di_run):
        trace, _ = di_run(seed=5, horizon=30)
        assert isinstance(trace, RunRecord)
        assert len(trace) == 30 and [rec.t for rec in trace] == list(range(30))
        for i in (0, 7, -1):
            rec, t = trace[i], i % 30
            assert rec.t == t
            for name in ("x_true", "x_meas", "u", "w", "v"):
                assert np.array_equal(getattr(rec, name), getattr(trace, name)[t])
            d = rec.diagnostics
            assert (d.beta, d.g_norm) == (trace.beta[t], trace.g_norm[t])
            assert (d.candidate_feasible, d.g_fallback) == (trace.candidate_ok[t],
                                                            trace.g_fallback[t])
            assert d.kkt_residual is None  # the explicit variant solves no rollout QP
            assert np.array_equal(d.pred_state, trace.pred_state[t])
            assert np.array_equal(d.ogd_target[0], trace.theta_hat[t])
            assert np.array_equal(d.ogd_target[1], trace.eta_hat[t])
            assert rec.invariant_flags == {name: bool(column[t])
                                           for name, column in trace.flags.items()}
            assert set(rec.invariant_flags) == set(FLAG_NAMES) | {"tube_marginal", "resid_ok"}
        with pytest.raises(IndexError):
            trace[30]
        part = trace[5:9]
        assert len(part) == 4 and part[0].t == 5
        assert np.array_equal(part.u, trace.u[5:9]) and part.pairs is trace.pairs
        assert np.array_equal(part.ref_x, trace.ref_x[5:9])

    def test_totals_match_step_by_step_reference(self, di_bundle, di_run):
        trace, ledger = di_run(seed=9, horizon=120)
        assert_ledger_matches_reference(trace, ledger, di_bundle[0])

    def test_alternating_weights_match_per_step_values(self, di_bundle, di_cost):
        # the pieces switch between two weight pairs, so the rows form many
        # short runs that each take their own quadratic form
        model, tables, manifold = di_bundle
        heavy = QuadraticCost(3.0 * di_cost.q_x, 2.0 * di_cost.q_u, [0.3, 0.0], di_cost.ref_u)
        moved = di_cost.with_ref_x([-0.3, 0.0])
        pieces = tuple((start, (di_cost, heavy, moved)[i % 3])
                       for i, start in enumerate(range(0, 90, 7)))
        schedule = PiecewiseSchedule(pieces)
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        trace, ledger = run_closed_loop(
            model, tables, manifold, ControllerConfig(gamma=0.3), schedule,
            DisturbancePolicy(seed=4), 90, zeta0=zeta0, x0=zeta0[0])
        assert [entry.cost for entry in trace.pairs] == [di_cost, heavy]
        for t in range(90):
            cost = schedule.cost_at(t)
            assert trace.pairs[trace.pair[t]].cost.q_x is cost.q_x
            assert np.array_equal(trace.ref_x[t], cost.ref_x)
        assert_ledger_matches_reference(trace, ledger, model)
        assert_benchmark_matches_per_row(trace, model, manifold)

    def test_abort_keeps_the_rows_done(self, di_bundle, di_cost):
        model, tables, manifold = di_bundle

        class BrokenCost(QuadraticCost):
            def grad(self, x, v):
                raise RuntimeError("oracle died")

        # the step-6 cost's gradient raises, so the step-7 update aborts
        broken = BrokenCost(di_cost.q_x, di_cost.q_u, di_cost.ref_x, di_cost.ref_u)
        schedule = PiecewiseSchedule(((0, di_cost), (6, broken), (7, di_cost)))
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        args = (model, tables, manifold, ControllerConfig(gamma=0.3), schedule,
                DisturbancePolicy(seed=2))
        with pytest.raises(SimulationAborted) as err:
            run_closed_loop(*args, 30, zeta0=zeta0, x0=zeta0[0])
        trace, ledger = err.value.trace, err.value.ledger
        assert err.value.t == 7 and len(trace) == 7
        assert all(len(column) == 7 for column in vars(trace).values()
                   if isinstance(column, np.ndarray))
        assert all(column.all() for name, column in trace.flags.items()
                   if name != "tube_marginal")
        assert_ledger_matches_reference(trace, ledger, model)
        # the same seven steps, run to their end, give the same record and totals
        done, done_ledger = run_closed_loop(*args, 7, zeta0=zeta0, x0=zeta0[0])
        assert ledger == done_ledger
        assert np.array_equal(trace.cost, done.cost) and np.array_equal(trace.u, done.u)

    def test_abort_at_new_weights_builds_no_benchmark_for_them(self, di_bundle, di_cost,
                                                               monkeypatch):
        # Step 7's cost brings new weights and step 7 aborts (the step-6
        # gradient raises): no kept row has them, so no benchmark is built.
        model, tables, manifold = di_bundle

        class BrokenCost(QuadraticCost):
            def grad(self, x, v):
                raise RuntimeError("oracle died")

        broken = BrokenCost(di_cost.q_x, di_cost.q_u, di_cost.ref_x, di_cost.ref_u)
        heavy = QuadraticCost(3.0 * di_cost.q_x, di_cost.q_u, di_cost.ref_x, di_cost.ref_u)
        schedule = PiecewiseSchedule(((0, di_cost), (6, broken), (7, heavy)))
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        built = []
        init = SteadyStateBenchmark.__init__

        def tracked(benchmark, *args):
            init(benchmark, *args)
            built.append(benchmark)

        monkeypatch.setattr(SteadyStateBenchmark, "__init__", tracked)
        with pytest.raises(SimulationAborted) as err:
            run_closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3), schedule,
                            DisturbancePolicy(seed=2), 30, zeta0=zeta0, x0=zeta0[0])
        trace = err.value.trace
        assert err.value.t == 7 and [entry.cost for entry in trace.pairs] == [di_cost, heavy]
        assert trace.pairs[1].benchmark is None
        assert trace.pair.tolist() == [0] * 7 and len(built) == 1
        assert_ledger_matches_reference(trace, err.value.ledger, model)


class TestBenchmarkPath:
    """The benchmark steady states, solved after the run in one batched
    guess per run of shared weights, row for row against the single solve."""

    def test_piecewise_schedule_rows(self, di_bundle, di_cost):
        model, tables, manifold = di_bundle
        generator = AlternatingTargetGenerator(model, manifold, di_cost, direction=(1.0, 0.0),
                                               levels=(5,), hop_size=0.5, horizon=120)
        schedule, zeta0, x0 = generator.make(5)
        trace, ledger = run_closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3),
                                        schedule, DisturbancePolicy(seed=3), 120, zeta0=zeta0,
                                        x0=x0)
        # one weight pair; the reference hops at each of the 5 piece starts
        assert len(trace.pairs) == 1
        assert np.count_nonzero(np.diff(trace.ref_x, axis=0).any(axis=1)) == 5
        assert_benchmark_matches_per_row(trace, model, manifold)
        assert_ledger_matches_reference(trace, ledger, model)

    def test_facet_optima_rows(self, di_bundle, di_cost):
        # Targets beyond S-bar put the optimum on a facet, so those rows fail
        # the batched guess and take the single solve.
        model, tables, manifold = di_bundle
        far = [di_cost.with_ref_x([r, 0.0]) for r in (-0.6, 9.0, 0.3, -9.0, -0.6)]
        schedule = PiecewiseSchedule(tuple((10 * i, c) for i, c in enumerate(far)))
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        trace, _ = run_closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3),
                                   schedule, DisturbancePolicy(kind="zero"), 50, zeta0=zeta0,
                                   x0=zeta0[0])
        benchmark = SteadyStateBenchmark(manifold, model, di_cost)
        linears = -(np.array([c.ref_x for c in far]) @ benchmark.ref_x_map
                    + np.array([c.ref_u for c in far]) @ benchmark.ref_u_map)
        _, kept = benchmark.solver.guess_rows(linears, manifold.sbar.offsets)
        assert kept.tolist() == [True, False, True, False, True]
        assert_benchmark_matches_per_row(trace, model, manifold)
        assert manifold.sbar.violations(trace.benchmark_eta).max() <= 1e-9

    def test_non_optimal_row_names_its_step(self, di_bundle, di_cost, monkeypatch):
        model, tables, manifold = di_bundle
        far = di_cost.with_ref_x([9.0, 0.0])
        schedule = PiecewiseSchedule(((0, di_cost), (17, far), (25, di_cost)))
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        solvers = []
        init, solve = SteadyStateBenchmark.__init__, PrefactoredQp.solve

        def tracked_init(benchmark, *args):
            init(benchmark, *args)
            solvers.append(benchmark.solver)

        def failing_solve(pre, *args, **kwargs):
            sol = solve(pre, *args, **kwargs)
            if any(pre is s for s in solvers):
                sol.status = "max_iter"
            return sol

        monkeypatch.setattr(SteadyStateBenchmark, "__init__", tracked_init)
        monkeypatch.setattr(PrefactoredQp, "solve", failing_solve)
        with pytest.raises(InfeasibleError, match=r"step 17: steady-state benchmark QP: max_iter"):
            run_closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3), schedule,
                            DisturbancePolicy(kind="zero"), 40, zeta0=zeta0, x0=zeta0[0])

    def test_finish_reads_no_cost_object(self, di_bundle, di_cost):
        # With the cost object of every entry of ``pairs`` gone (each keeps
        # the benchmark finish built), finish gives the same benchmark, cost
        # values and totals from the columns and the entries' benchmarks.
        model, tables, manifold = di_bundle
        heavy = QuadraticCost(3.0 * di_cost.q_x, 2.0 * di_cost.q_u, [0.3, 0.0], di_cost.ref_u)
        far = di_cost.with_ref_x([9.0, 0.0])  # a facet optimum: the single solve
        schedule = PiecewiseSchedule(((0, di_cost), (15, heavy), (30, far), (40, heavy),
                                      (50, di_cost.with_ref_x([0.3, 0.0]))))
        controller = ControllerConfig(gamma=0.3)
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        trace, ledger = run_closed_loop(model, tables, manifold, controller, schedule,
                                        DisturbancePolicy(seed=6), 60, zeta0=zeta0, x0=zeta0[0])
        names = ("benchmark_theta", "benchmark_eta", "cost", "benchmark_cost")
        before = {name: getattr(trace, name).copy() for name in names}
        assert len(trace.pairs) == 2
        for entry in trace.pairs:
            entry.cost = None
        monitors = (model, tables, manifold, controller.effective_c_g(model))
        assert trace.finish(len(trace), monitors) == ledger
        for name in names:
            assert np.array_equal(getattr(trace, name), before[name]), name

    def test_return_to_earlier_weights_shares_their_benchmark(self, di_bundle, di_cost,
                                                              monkeypatch):
        # A -> B -> A: one benchmark per weight pair, not per run of steps.
        model, tables, manifold = di_bundle
        other = QuadraticCost(di_cost.q_x, [[2.0]], [0.3, 0.0], di_cost.ref_u)
        schedule = PiecewiseSchedule(((0, di_cost), (25, other),
                                      (50, di_cost.with_ref_x([0.6, 0.0]))))
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        built = []
        init = SteadyStateBenchmark.__init__

        def tracked(benchmark, *args):
            init(benchmark, *args)
            built.append(benchmark)

        monkeypatch.setattr(SteadyStateBenchmark, "__init__", tracked)
        trace, ledger = run_closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3),
                                        schedule, DisturbancePolicy(seed=1), 75, zeta0=zeta0,
                                        x0=zeta0[0])
        assert len(built) == 2
        assert [entry.cost for entry in trace.pairs] == [di_cost, other]
        assert trace.pair.tolist() == [0] * 25 + [1] * 25 + [0] * 25
        assert_benchmark_matches_per_row(trace, model, manifold)
        assert_ledger_matches_reference(trace, ledger, model)

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_drawn_piecewise_schedules(self, di_bundle, data):
        # Each piece takes the weight arrays of the piece before, copies of
        # them, those of an earlier piece or new ones, and as its cost an
        # earlier piece's object with those arrays or a fresh one.
        model, tables, manifold = di_bundle
        horizon = 40
        starts = [0] + sorted(data.draw(st.sets(st.integers(1, horizon - 1), max_size=5)))
        refs = st.sampled_from((-9.0, -0.6, -0.2, 0.0, 0.4, 0.6, 9.0))
        weights = st.floats(0.25, 4.0)
        pieces = []  # (start, cost)
        for start in starts:
            kind = "new" if not pieces else data.draw(
                st.sampled_from(("shared", "copy", "return", "new")))
            if kind == "new":
                cost = QuadraticCost(np.diag([data.draw(weights), data.draw(weights)]),
                                     [[data.draw(weights)]], [data.draw(refs), 0.0], [0.0])
            else:
                cost = pieces[-1][1] if kind != "return" else data.draw(
                    st.sampled_from([c for _, c in pieces]))
                if kind == "copy":
                    cost = QuadraticCost(cost.q_x.copy(), cost.q_u.copy(), cost.ref_x,
                                         cost.ref_u)
                if kind == "copy" or data.draw(st.booleans()):
                    cost = cost.with_ref_x([data.draw(refs), 0.0])
            pieces.append((start, cost))
        schedule = PiecewiseSchedule(tuple(pieces))
        zeta0 = optimal_steady_state(manifold, pieces[0][1], model)
        trace, ledger = run_closed_loop(
            model, tables, manifold, ControllerConfig(gamma=0.3), schedule,
            DisturbancePolicy(seed=data.draw(st.integers(0, 9))), horizon, zeta0=zeta0,
            x0=zeta0[0])
        distinct = []
        for _, cost in pieces:
            if not any(np.array_equal(cost.q_x, q_x) and np.array_equal(cost.q_u, q_u)
                       for q_x, q_u in distinct):
                distinct.append((cost.q_x, cost.q_u))
        assert len(trace.pairs) == len(distinct)
        assert_benchmark_matches_per_row(trace, model, manifold)
        assert_ledger_matches_reference(trace, ledger, model)


class TestCausality:
    def test_controller_sees_previous_cost_only(self, di_bundle, di_cost):
        model, tables, manifold = di_bundle
        moved = QuadraticCost(di_cost.q_x, di_cost.q_u, [0.7, 0.0], di_cost.ref_u)
        switch = 10
        schedule = PiecewiseSchedule(((0, di_cost), (switch, moved)))
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        trace, _ = run_closed_loop(
            model, tables, manifold, ControllerConfig(gamma=0.3), schedule,
            DisturbancePolicy(kind="zero"), switch + 3, zeta0=zeta0, x0=zeta0[0])
        theta_star0 = optimal_steady_state(manifold, di_cost, model)[0]
        # at the switch step the estimate still tracks the old optimum
        at_switch = trace[switch].diagnostics.ogd_target[0]
        after = trace[switch + 2].diagnostics.ogd_target[0]
        assert np.linalg.norm(at_switch - theta_star0) <= 1e-6
        assert np.linalg.norm(after - theta_star0) > 1e-3


class TestEngine:
    def test_minimal_plant_matches_run_closed_loop(self, di_bundle, di_cost, step_by_step):
        # run_closed_loop's plant runs step by step here, as the minimal
        # plant does (test_run_ahead holds run-ahead to that run).
        model, tables, manifold = di_bundle
        controller = ControllerConfig(gamma=0.3)
        moved = QuadraticCost(di_cost.q_x, di_cost.q_u, [0.5, 0.0], di_cost.ref_u)
        schedule = PiecewiseSchedule(((0, di_cost), (15, moved)))
        zeta0 = optimal_steady_state(manifold, di_cost, model)

        class NoisefreePlant:
            def __init__(self, x0):
                self.x = np.asarray(x0, float)

            def observe(self, t):
                return self.x, self.x.copy(), np.zeros(model.n), schedule.cost_at(t), None

            def advance(self, u):
                self.x = model.a @ self.x + model.b @ u
                return np.zeros(model.n)

        t1, l1 = closed_loop(model, tables, manifold, controller,
                             NoisefreePlant(zeta0[0]), 40, zeta0)
        t2, l2 = run_closed_loop(model, tables, manifold, controller, schedule,
                                 DisturbancePolicy(kind="zero"), 40, zeta0=zeta0,
                                 x0=zeta0[0])
        assert np.array_equal(trace_arrays(t1), trace_arrays(t2))
        assert [r.invariant_flags for r in t1] == [r.invariant_flags for r in t2]
        for name in ("cost", "benchmark_cost", "benchmark_theta", "benchmark_eta"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))
        assert (l1.cum_regret, l1.path_length) == (l2.cum_regret, l2.path_length)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_rejected(self, di_bundle, di_cost, horizon):
        model, tables, manifold = di_bundle
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            run_closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3),
                            ConstantSchedule(di_cost), DisturbancePolicy(seed=1),
                            horizon, zeta0=zeta0, x0=zeta0[0])

    def test_x0_outside_state_set_rejected(self, di_bundle, di_cost):
        model, tables, manifold = di_bundle
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        with pytest.raises(OcoRobustError, match="x0"):
            run_closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3),
                            ConstantSchedule(di_cost), DisturbancePolicy(kind="zero"),
                            10, zeta0=zeta0, x0=[5.0, 0.0])


def per_step_draws(policy, z, rng, count):
    """The reference: one generator call per point, as a per-step sampler draws."""
    rows = []
    for _ in range(count):
        if policy.kind == "zero":
            rows.append(np.zeros(z.dim))
        elif policy.kind == "worst_corner":
            rows.append(policy.scale * z.corner())
        else:
            xi = rng.uniform(-1.0, 1.0, size=z.order)
            rows.append(policy.scale * (z.center + z.generators @ xi))
    return np.array(rows)


class TestDisturbances:
    def test_membership_all_kinds(self, di_bundle):
        model, _, _ = di_bundle
        for kind in ("zero", "uniform_box", "worst_corner"):
            sampler = _Sampler(DisturbancePolicy(kind=kind, seed=5, scale=0.8),
                               model.w_set, model.v_set, 200)
            for w in sampler.w:
                assert zonotope_contains(model.w_set, w, tol=1e-12)
            for v in sampler.v:
                assert zonotope_contains(model.v_set, v, tol=1e-12)

    def test_worst_corner_constant(self, di_bundle):
        model, _, _ = di_bundle
        sampler = _Sampler(DisturbancePolicy(kind="worst_corner", seed=0),
                           model.w_set, model.v_set, 3)
        assert np.array_equal(sampler.w[0], sampler.w[1])
        assert np.array_equal(sampler.w[2], [0.02, 0.02])

    @pytest.mark.parametrize("kind", ["zero", "uniform_box", "worst_corner"])
    def test_rows_match_per_step_draws(self, di_bundle, kind):
        # The run's block draw gives the values (and, for the bundled box sets,
        # the points) a per-step draw from the same spawned seeds gives.
        model, _, _ = di_bundle
        policy = DisturbancePolicy(kind=kind, seed=7, scale=0.6)
        sampler = _Sampler(policy, model.w_set, model.v_set, 50)
        w_seed, v_seed = np.random.SeedSequence(7).spawn(2)
        assert sampler.w.shape == (50, model.n) and sampler.v.shape == (51, model.n)
        assert np.array_equal(sampler.w, per_step_draws(
            policy, model.w_set, np.random.default_rng(w_seed), 50))
        assert np.array_equal(sampler.v, per_step_draws(
            policy, model.v_set, np.random.default_rng(v_seed), 51))

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            DisturbancePolicy(scale=1.5)
        with pytest.raises(ValueError):
            DisturbancePolicy(kind="gauss")


class TestInvariantReport:
    def test_clean_run(self, di_bundle, di_run):
        model = di_bundle[0]
        trace, _ = di_run(seed=11)
        report = invariant_report(trace, model)
        assert report.total_violations == 0
        assert report.steps == len(trace)

    def test_corrupted_state_detected(self, di_bundle, di_run):
        model = di_bundle[0]
        trace, _ = di_run(seed=12)
        trace.x_true[17] = [99.0, 0.0]
        report = invariant_report(trace, model)
        assert report.violation_counts["state_ok"] == 1
        assert report.total_violations == 1

    def test_beta_window_products(self, di_bundle, di_run):
        model = di_bundle[0]
        trace, _ = di_run(seed=13, horizon=60)
        report = invariant_report(trace, model)
        betas = [r.diagnostics.beta for r in trace if r.t >= 1]
        win = model.mu + 1
        manual = max(np.prod(1.0 - np.asarray(betas[i:i + win]))
                     for i in range(len(betas) - win + 1))
        assert report.beta_windows == len(betas) - win + 1
        assert report.max_active_window_product <= manual + 1e-12

    def test_abort_on_violation_flag(self, di_bundle, di_cost):
        model, tables, manifold = di_bundle
        # force a violation by corrupting the state set tolerance: use a
        # schedule whose gradient explodes mid-run instead
        class Exploding:
            def __init__(self, cost):
                self.cost = cost

            def cost_at(self, t):
                if t >= 4:
                    raise RuntimeError("schedule failure")
                return self.cost

        zeta0 = optimal_steady_state(manifold, di_cost, model)
        with pytest.raises(RuntimeError):
            run_closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3),
                            Exploding(di_cost), DisturbancePolicy(kind="zero"),
                            20, zeta0=zeta0, x0=zeta0[0])

    def test_controller_failure_aborts_with_partial_trace(self, di_bundle, di_cost):
        model, tables, manifold = di_bundle

        class BrokenCost(QuadraticCost):
            def grad(self, x, v):
                raise RuntimeError("oracle died")

        class BrokenAt:
            def __init__(self, cost, fail_at):
                self.cost = cost
                self.fail_at = fail_at
                self.broken = BrokenCost(cost.q_x, cost.q_u, cost.ref_x, cost.ref_u)

            def cost_at(self, t):
                return self.broken if t == self.fail_at else self.cost

        zeta0 = optimal_steady_state(manifold, di_cost, model)
        sched = BrokenAt(di_cost, fail_at=6)
        with pytest.raises(SimulationAborted) as err:
            run_closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3),
                            sched, DisturbancePolicy(kind="zero"), 30,
                            zeta0=zeta0, x0=zeta0[0])
        assert err.value.t == 7
        assert len(err.value.trace) == 7
        for rec in err.value.trace:
            assert all(rec.invariant_flags[name] for name in FLAG_NAMES)

    def test_misfit_cost_aborts_before_its_step(self, di_bundle, di_cost):
        # A piece from step 5 whose q_x does not fit the 2-state model: the
        # run stops when that cost arrives, with rows 0..4 and their ledger.
        model, tables, manifold = di_bundle
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        misfit = QuadraticCost(np.eye(3), [[0.5]], [0.6, 0.0], [0.0])
        with pytest.raises(SimulationAborted, match=r"\(3, 3\).* do not fit n=2, m=1") as err:
            run_closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3),
                            PiecewiseSchedule(((0, di_cost), (5, misfit))),
                            DisturbancePolicy(seed=2), 30, zeta0=zeta0, x0=zeta0[0])
        assert err.value.t == 5 and len(err.value.trace) == 5
        assert isinstance(err.value.__cause__, DimensionMismatch)
        assert np.isfinite(err.value.ledger.cum_regret)
        assert [entry.cost for entry in err.value.trace.pairs] == [di_cost]
        assert not err.value.trace.pair.any()

    @pytest.mark.parametrize("field,value", [("q_x", np.eye(3)), ("q_u", np.eye(2)),
                                             ("ref_x", [0.6]), ("ref_u", [0.0, 0.0])])
    def test_misfit_first_cost_raises_before_the_loop(self, di_bundle, di_cost, field,
                                                      value):
        model, tables, manifold = di_bundle
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        misfit = dataclasses.replace(di_cost, **{field: value})
        with pytest.raises(DimensionMismatch, match="do not fit n=2, m=1"):
            run_closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3),
                            ConstantSchedule(misfit), DisturbancePolicy(seed=2), 30,
                            zeta0=zeta0, x0=zeta0[0])

    def test_state_violation_aborts_with_flagged_trace(self, di_bundle, di_cost):
        model, tables, manifold = di_bundle
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        k = 5
        with pytest.raises(SimulationAborted) as err:
            closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3),
                        HeldPlant(model, zeta0[0], di_cost, leave_x_at=k), 20, zeta0,
                        abort_on_violation=True)
        trace = err.value.trace
        assert err.value.t == k
        assert len(trace) == k + 1
        assert "state_ok" in str(err.value)
        for rec in trace[:-1]:
            assert all(rec.invariant_flags[name] for name in FLAG_NAMES)
        last = trace[-1].invariant_flags
        assert last["state_ok"] is False
        assert all(last[name] for name in FLAG_NAMES if name != "state_ok")


class HeldPlant:
    """Measures the steady state x_hold at every step whatever the input, so
    a controller started at the optimum holds still. The true state jumps
    outside X at step ``leave_x_at``."""

    def __init__(self, model, x_hold, cost, leave_x_at=None):
        self.model, self.x_hold, self.cost = model, x_hold, cost
        self.leave_x_at = leave_x_at

    def observe(self, t):
        x_true = self.x_hold.copy()
        if t == self.leave_x_at:
            x_true[0] += 10.0
        return x_true, self.x_hold.copy(), np.zeros(self.model.n), self.cost, None

    def advance(self, u):
        return np.zeros(self.model.n)


class KickedPlant(HeldPlant):
    """A ``HeldPlant`` whose step ``kick_at`` reports a w outside W; the
    states it measures are unchanged."""

    def __init__(self, model, x_hold, cost, kick_at):
        super().__init__(model, x_hold, cost)
        self.kick_at = kick_at
        self.t = None

    def observe(self, t):
        self.t = t
        return super().observe(t)

    def advance(self, u):
        w = np.zeros(self.model.n)
        if self.t == self.kick_at:
            w[0] = 1.0  # 50 times W's half-width
        return w


class TestResidMonitor:
    @pytest.mark.parametrize("kind", ["zero", "uniform_box", "worst_corner"])
    def test_drawn_w_lies_in_w(self, di_run, kind):
        # worst_corner draws at scale 1 lie on W's boundary
        trace, _ = di_run(kind=kind, scale=1.0)
        assert trace.flags["resid_ok"].dtype == bool
        assert trace.flags["resid_ok"].all()
        assert all(rec.invariant_flags["resid_ok"] for rec in trace)

    def test_w_outside_w_fails_its_row(self, di_bundle, di_cost):
        model, tables, manifold = di_bundle
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        trace, _ = closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3),
                               KickedPlant(model, zeta0[0], di_cost, kick_at=4), 10, zeta0)
        assert np.flatnonzero(~trace.flags["resid_ok"]).tolist() == [4]
        assert all(trace.flags[name].all() for name in FLAG_NAMES)

    def test_w_outside_w_aborts(self, di_bundle, di_cost):
        model, tables, manifold = di_bundle
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        with pytest.raises(SimulationAborted, match="invariant violation: resid_ok") as err:
            closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3),
                        KickedPlant(model, zeta0[0], di_cost, kick_at=4), 10, zeta0,
                        abort_on_violation=True)
        assert err.value.t == 4 and len(err.value.trace) == 5
        assert not err.value.trace[-1].invariant_flags["resid_ok"]


def beta_windows_reference(trace, model, margin, floor):
    """invariant_report's window scores, one window at a time."""
    later = [rec.diagnostics for rec in trace if rec.t >= 1]
    betas = [d.beta for d in later]
    dists = [float(np.linalg.norm(d.ogd_target[0] - d.pred_state)) for d in later]
    win = model.mu + 1
    windows = violations = 0
    max_active = 0.0
    for start in range(len(betas) - win + 1):
        prod = float(np.prod(1.0 - np.asarray(betas[start:start + win])))
        windows += 1
        if any(d > floor for d in dists[start:start + win]):
            max_active = max(max_active, prod)
            violations += prod > 1.0 - margin
    return windows, violations, max_active


class TestBetaWindows:
    MARGIN, FLOOR = 1e-6, 1e-6

    def with_columns(self, trace, **columns):
        out = copy.copy(trace)
        for name, values in columns.items():
            setattr(out, name, np.array(values, float))
        return out

    def check(self, trace, model):
        report = invariant_report(trace, model, window_margin=self.MARGIN,
                                  distance_floor=self.FLOOR)
        windows, violations, max_active = beta_windows_reference(
            trace, model, self.MARGIN, self.FLOOR)
        assert report.beta_windows == windows
        assert report.beta_window_violations == violations
        assert report.max_active_window_product == pytest.approx(max_active, rel=1e-12,
                                                                 abs=0.0)
        return report

    def test_short_traces(self, di_bundle, di_run):
        model = di_bundle[0]
        trace, _ = di_run(seed=21, horizon=40)
        win = model.mu + 1
        # T - 1 betas: fewer than a window, exactly one window, two windows
        for length, expect in ((1, 0), (win, 0), (win + 1, 1), (win + 2, 2)):
            assert self.check(trace[:length], model).beta_windows == expect

    def test_all_zero_betas(self, di_bundle, di_run):
        model = di_bundle[0]
        trace, _ = di_run(seed=22, horizon=40)
        zero = self.with_columns(trace, beta=[0.0] * len(trace))
        report = self.check(zero, model)
        assert report.max_active_window_product == 1.0
        assert report.beta_window_violations > 0
        # no distance above the floor: no window is active
        idle = self.with_columns(zero, pred_state=zero.theta_hat)
        report = self.check(idle, model)
        assert report.beta_window_violations == 0
        assert report.max_active_window_product == 0.0

    def test_random_betas(self, di_bundle, di_run):
        model = di_bundle[0]
        trace, _ = di_run(seed=23, horizon=60)
        rng = np.random.default_rng(24)
        for _ in range(30):
            betas = rng.uniform(0.0, 1.0, len(trace))
            betas[rng.random(len(trace)) < 0.4] = 0.0
            betas[rng.random(len(trace)) < 0.1] = 1.0
            self.check(self.with_columns(trace, beta=betas), model)


class TestBatchedFlags:
    def test_match_per_step_reference(self, di_bundle, di_cost, monkeypatch):
        model, tables, manifold = di_bundle
        controller = ControllerConfig(gamma=0.3)
        c_g = controller.effective_c_g(model)
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        real_initialize, real_step = oco.initialize, oco.step_row
        states = []       # the controller state of each step, as the engine saw it
        held = {}         # the uncorrupted rows the controller continues from

        def initialize(model, *args, **kwargs):
            state = real_initialize(model, *args, **kwargs)
            held["rows"] = oco.ControllerRows(model.n, model.m, model.mu, 14)
            held["rows"].plan[0] = state.plan
            states.append(state)
            return state

        def step(rows, i, *args, **kwargs):
            # Corrupt what the engine records at one step per monitor; the
            # controller itself continues from its own rows.
            own = held["rows"]
            real_step(own, i, *args, **kwargs)
            for name, column in vars(own).items():
                getattr(rows, name)[i] = column[i]
            if i == 3:
                rows.u[i] += 10.0
            if i == 4:
                rows.candidate_ok[i] = False
            if i == 5:  # the plan is [u_pred; u_ss]
                rows.plan[i, :-model.m] += 10.0
            if i == 6:
                rows.plan[i, -model.m:] += 10.0
            if i == 8:
                rows.g_norm[i] += 1.0
            if i == 10:
                rows.pred_state[i] += 1.0
            states.append(row_state(rows, i))

        monkeypatch.setattr(oco, "initialize", initialize)
        monkeypatch.setattr(oco, "step_row", step)
        trace, _ = closed_loop(model, tables, manifold, controller,
                               HeldPlant(model, zeta0[0], di_cost, leave_x_at=2), 14, zeta0)

        tol = model.membership_tol
        ref = []
        for t, rec in enumerate(trace):
            d, st = rec.diagnostics, states[t]
            flags = {
                "state_ok": model.x_set.contains(rec.x_true, tol=tol),
                "input_ok": model.u_set.contains(rec.u, tol=tol),
                "candidate_ok": d.candidate_feasible,
                "plan_ok": membership_zu(tables, model, rec.x_meas, st.u_pred)[0],
                "zs_ok": manifold.contains_u(st.u_ss, tol=1e-7),
                "g_cap_ok": d.g_norm <= c_g * np.linalg.norm(d.ogd_target[0] - d.pred_state)
                + 1e-8,
                "tube_ok": True,
                "tube_marginal": False,
                "resid_ok": zonotope_contains(model.w_set, rec.w, tol=tol),
            }
            if t > 0:
                dev = d.pred_state - model.g_k @ states[t - 1].u_ss
                margin = model.tube_margins(dev[None])[0]
                flags["tube_ok"] = margin <= TUBE_TOL
                flags["tube_marginal"] = (flags["tube_ok"]
                                          and margin + model.tube_band > MARGINAL_TOL)
            ref.append(flags)
        assert [rec.invariant_flags for rec in trace] == ref
        broken = {name: [t for t, f in enumerate(ref) if not f[name]] for name in FLAG_NAMES}
        # zs_ok at 6 also moves the steady state that step 7's tube is centred on
        assert broken == {"state_ok": [2], "input_ok": [3], "candidate_ok": [4],
                          "plan_ok": [5], "zs_ok": [6], "g_cap_ok": [8], "tube_ok": [7, 10]}

        # Under abort_on_violation the same monitors run one step at a time.
        states.clear()
        with pytest.raises(SimulationAborted) as err:
            closed_loop(model, tables, manifold, controller,
                        HeldPlant(model, zeta0[0], di_cost, leave_x_at=2), 14, zeta0,
                        abort_on_violation=True)
        assert [rec.invariant_flags for rec in err.value.trace] == ref[:3]


    def test_nan_prediction_fails_the_tube(self, di_run, di_bundle):
        # The tube margin is raised to -tube_band, and rows inside the tail
        # set's inscribed ball skip the facets; a NaN prediction is never
        # inside it, so its row (and only it) still fails tube_ok.
        model, tables, manifold = di_bundle
        trace, _ = di_run(horizon=20)
        monitors = (model, tables, manifold, ControllerConfig(gamma=0.3).effective_c_g(model))
        trace.pred_state[7, 1] = np.nan
        flags = simkit._step_flags(trace, monitors, 0, len(trace))
        assert trace.flags["tube_ok"].all()
        assert np.flatnonzero(~flags["tube_ok"]).tolist() == [7]
        assert not flags["tube_marginal"][7]


# The monitors of the one stacked product (``tables.monitor``) and S-bar's,
# by the recorded column each reads.
READERS = {"x_true": "state_ok", "u": "input_ok", "x_meas": "plan_ok", "u_pred": "plan_ok",
           "u_ss": "zs_ok", "w": "resid_ok"}


@pytest.fixture(params=["double_integrator", "vehicle"])
def flagged_run(request, di_bundle, di_cost):
    """(trace, monitors) of a finished run on the bundled double integrator's
    model and on the vehicle's, every monitor passing."""
    if request.param == "vehicle":
        from ocorobust import vehicle

        setup = vehicle.vehicle_setup(vehicle.VehicleParams())
        model, tables, manifold = setup.model, setup.tables, setup.manifold
        c_g = ControllerConfig(gamma=setup.params.gamma, c_g=setup.params.c_g).effective_c_g(model)
        trace, _, _ = vehicle.run_scenario("explicit", seed=0, horizon_steps=120, setup=setup)
    else:
        model, tables, manifold = di_bundle
        controller = ControllerConfig(gamma=0.3)
        c_g = controller.effective_c_g(model)
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        trace, _ = run_closed_loop(model, tables, manifold, controller, ConstantSchedule(di_cost),
                                   DisturbancePolicy(seed=0), 150, zeta0=zeta0, x0=zeta0[0])
    assert all(trace.flags[name].all() for name in READERS.values())
    return trace, (model, tables, manifold, c_g)


def with_columns(trace, **columns):
    """A copy of ``trace`` with the given columns replaced."""
    out = copy.copy(trace)
    out.__dict__.update(columns)
    return out


def at_bounds(trace, monitors):
    """A copy of ``trace`` whose rows 10..15 put the first coordinate of
    x_true, u and w on the upper face of X, U and W, one ulp inside and one
    outside it, then at the face plus the default tolerance and one ulp
    either side; and whose u_ss rows 10..15 lie on S-bar's 1e-7 bound along
    its first facet normal, rows 11 and 12 one ulp inside and outside."""
    model, _, manifold, _ = monitors
    rows = slice(10, 16)
    columns = {}
    for name, face in (("x_true", model.x_set), ("u", model.u_set), ("w", None)):
        column = getattr(trace, name).copy()
        unit = np.eye(column.shape[1])[0]
        top = model.w_set.support_batch([unit])[0] if face is None else face.offsets[
            np.flatnonzero((face.normals == unit).all(axis=1))[0]]
        past = top + model.membership_tol
        column[rows, 0] = [top, np.nextafter(top, -np.inf), np.nextafter(top, np.inf),
                           past, np.nextafter(past, -np.inf), np.nextafter(past, np.inf)]
        columns[name] = column
    normal, offset = manifold.sbar.normals[0], manifold.sbar.offsets[0]
    reach = (offset + 1e-7) / (normal @ normal) * normal
    u_ss = trace.u_ss.copy()
    u_ss[rows] = reach
    u_ss[11:13, 0] = np.nextafter(reach[0], [-np.inf, np.inf])
    columns["u_ss"] = u_ss
    return with_columns(trace, **columns)


class TestMonitorProduct:
    """The flags of the one stacked product against each set's own answer."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_fails_only_its_monitor(self, flagged_run, value):
        trace, monitors = flagged_run
        clean = simkit._step_flags(trace, monitors, 0, len(trace))
        for column, reader in READERS.items():
            for j in range(getattr(trace, column).shape[1]):
                hit = getattr(trace, column).copy()
                hit[9, j] = value
                with np.errstate(invalid="ignore"):  # the tube's product of an inf u_ss
                    flags = simkit._step_flags(with_columns(trace, **{column: hit}), monitors,
                                               0, len(trace))
                for name in set(READERS.values()):
                    want = clean[name].copy()
                    want[9] &= name != reader
                    assert np.array_equal(flags[name], want), (column, j, name)

    def test_margins_at_the_bounds_get_the_per_set_answer(self, flagged_run):
        # X, U and W are boxes here, faces along the axes; S-bar's facets
        # are not. The plan's margin has no set method: its own product is
        # checked on general normals in test_convexsets.TestFacetStack.
        trace, monitors = flagged_run
        model, tables, manifold, c_g = monitors
        hit = at_bounds(trace, monitors)
        per_set = {"state_ok": model.x_set.violations(hit.x_true),
                   "input_ok": model.u_set.violations(hit.u),
                   "resid_ok": ZonotopeMembership(model.w_set).margins(hit.w)}
        for name, margins in per_set.items():
            assert margins[10] == 0.0 and margins[11] < 0.0 < margins[12]
            assert margins[14] < margins[13] < margins[15]
        zs = manifold.sbar.violations(hit.u_ss)
        assert np.abs(zs[10:16] - 1e-7).max() < 1e-12
        for tol in (0.0, model.membership_tol, per_set["state_ok"][13],
                    per_set["resid_ok"][13]):
            model_at = copy.copy(model)
            model_at.membership_tol = tol
            flags = simkit._step_flags(hit, (model_at, tables, manifold, c_g), 0, len(hit))
            for name, margins in per_set.items():
                assert np.array_equal(flags[name], margins <= tol), (name, tol)
            assert np.array_equal(flags["zs_ok"], zs <= 1e-7)

    def test_one_row_and_one_block_calls_match_the_whole_run(self, flagged_run):
        # abort_on_violation flags a step-by-step step as one row and a
        # run-ahead block as one call
        trace, monitors = flagged_run
        for record in (trace, at_bounds(trace, monitors)):
            whole = simkit._step_flags(record, monitors, 0, len(record))
            for size in (1, 37):
                part = with_columns(record)
                part.flags, part.flagged = {}, 0
                for hi in range(size, len(record) + size, size):
                    part.flag(min(hi, len(record)), monitors)
                for name, column in whole.items():
                    assert np.array_equal(part.flags[name], column), (size, name)

    def test_abort_on_violation_run_has_the_whole_run_flags(self, di_run):
        flags = di_run(horizon=150)[0].flags
        aborting = di_run(horizon=150, abort_on_violation=True)[0].flags
        assert all(np.array_equal(aborting[name], column) for name, column in flags.items())


class TestRegretScaling:
    def test_linear_growth_in_disturbance(self, di_bundle, di_cost):
        model, tables, manifold = di_bundle
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        rows = []
        for scale in (0.25, 0.5, 1.0):
            for seed in range(5):
                _, ledger = run_closed_loop(
                    model, tables, manifold, ControllerConfig(gamma=0.3),
                    ConstantSchedule(di_cost),
                    DisturbancePolicy(seed=seed, scale=scale), 100,
                    zeta0=zeta0, x0=zeta0[0])
                rows.append({"path_length": 0.0, "w_energy": ledger.w_energy,
                             "v_energy": ledger.v_energy, "regret": ledger.cum_regret})
        coeffs, r2 = fit_affine(rows)
        assert coeffs is None or coeffs[2] >= 0.0

    def test_generator_levels(self, di_bundle, di_cost):
        model, tables, manifold = di_bundle
        gen = AlternatingTargetGenerator(model=model, manifold=manifold,
                                         base_cost=di_cost, direction=(1.0, 0.0),
                                         levels=(0, 3), hop_size=1.0, horizon=200)
        sched0, zeta0, x0 = gen.make(0)
        assert isinstance(sched0, ConstantSchedule)
        sched3, _, _ = gen.make(3)
        starts = [s for s, _ in sched3.pieces]
        assert starts == [0, 50, 100, 150]

    def test_one_benchmark_per_design(self, di_bundle, di_cost, monkeypatch):
        # The design's one benchmark solves every zeta0 and every run's
        # regret benchmark; the rows are those of runs that build their own.
        model, tables, manifold = di_bundle
        gen = AlternatingTargetGenerator(model=model, manifold=manifold,
                                         base_cost=di_cost, direction=(1.0, 0.0),
                                         levels=(0, 2), hop_size=0.5, horizon=60)
        controller = ControllerConfig(gamma=0.3)
        want = []
        for level in gen.levels:
            schedule, zeta0, x0 = gen.make(level)
            for scale in (0.0, 1.0):
                policy = DisturbancePolicy(kind="zero" if scale == 0.0 else "uniform_box",
                                           seed=7, scale=scale)
                want.append(run_closed_loop(model, tables, manifold, controller, schedule,
                                            policy, 60, zeta0=zeta0, x0=x0)[1])
        built = []
        init = SteadyStateBenchmark.__init__

        def tracked(benchmark, *args):
            init(benchmark, *args)
            built.append(benchmark)

        monkeypatch.setattr(SteadyStateBenchmark, "__init__", tracked)
        result = regret_scaling_experiment(model, tables, manifold, controller, gen,
                                           dist_levels=[0.0, 1.0], seeds=[0], horizon=60,
                                           base_seed=7)
        assert len(built) == 1
        assert [row["regret"] for row in result.rows] == [led.cum_regret for led in want]
        assert [row["path_length"] for row in result.rows] == [led.path_length for led in want]

    def test_fit_degenerate_design(self):
        rows = [{"path_length": 0.0, "w_energy": 0.0, "v_energy": 0.0, "regret": 0.0}
                for _ in range(5)]
        coeffs, r2 = fit_affine(rows)
        assert coeffs is None and r2 is None


class TestSchedules:
    def test_piecewise_validation(self, di_cost):
        with pytest.raises(ValueError):
            PiecewiseSchedule(((5, di_cost),))

    @pytest.mark.parametrize("starts", [(0, 0), (0, 10, 10), (0, 10, 5)])
    def test_piecewise_starts_must_ascend_strictly(self, di_cost, starts):
        # a piece with the start of the one before it would never be looked up
        with pytest.raises(ValueError, match="each after the one before"):
            PiecewiseSchedule(tuple((start, di_cost) for start in starts))

    def test_piecewise_lookup(self, di_cost):
        moved = QuadraticCost(di_cost.q_x, di_cost.q_u, [0.1, 0.0], di_cost.ref_u)
        sched = PiecewiseSchedule(((0, di_cost), (10, moved)))
        assert sched.cost_at(0) is di_cost
        assert sched.cost_at(9) is di_cost
        assert sched.cost_at(10) is moved
