import copy
import dataclasses

import numpy as np
import pytest

from ocorobust import oco_controller as oco
from ocorobust.errors import OcoRobustError
from ocorobust.oco_controller import ControllerConfig
from ocorobust.plant import QuadraticCost, membership_zu, optimal_steady_state
from ocorobust.simkit import (
    FLAG_NAMES,
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
    replicate_map,
    run_closed_loop,
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
        _, ledger = di_run(seed=3)
        assert ledger.cum_regret == pytest.approx(
            sum(c - b for c, b, _, _ in ledger.per_step), abs=1e-9)
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
        per_step = [c - b for c, b, _, _ in ledger.per_step]
        spike = max(per_step[20:60])
        tail = max(per_step[-20:])
        assert spike > 1e-3
        assert tail <= 1e-5 * max(spike, 1.0)


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
    def test_minimal_plant_matches_run_closed_loop(self, di_bundle, di_cost):
        model, tables, manifold = di_bundle
        controller = ControllerConfig(gamma=0.3)
        moved = QuadraticCost(di_cost.q_x, di_cost.q_u, [0.5, 0.0], di_cost.ref_u)
        schedule = PiecewiseSchedule(((0, di_cost), (15, moved)))
        zeta0 = optimal_steady_state(manifold, di_cost, model)

        class NoisefreePlant:
            def __init__(self, x0):
                self.x = np.asarray(x0, float)

            def observe(self, t):
                return self.x, self.x.copy(), np.zeros(model.n), schedule.cost_at(t)

            def advance(self, u):
                self.x = model.a @ self.x + model.b @ u
                return np.zeros(model.n), {}

        t1, l1 = closed_loop(model, tables, manifold, controller,
                             NoisefreePlant(zeta0[0]), 40, zeta0)
        t2, l2 = run_closed_loop(model, tables, manifold, controller, schedule,
                                 DisturbancePolicy(kind="zero"), 40, zeta0=zeta0,
                                 x0=zeta0[0])
        assert np.array_equal(trace_arrays(t1), trace_arrays(t2))
        assert [r.invariant_flags for r in t1] == [r.invariant_flags for r in t2]
        for a, b in zip(l1.per_step, l2.per_step):
            assert a[:2] == b[:2]
            assert np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3])
        assert (l1.cum_regret, l1.path_length) == (l2.cum_regret, l2.path_length)

    def test_x0_outside_state_set_rejected(self, di_bundle, di_cost):
        model, tables, manifold = di_bundle
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        with pytest.raises(OcoRobustError, match="x0"):
            run_closed_loop(model, tables, manifold, ControllerConfig(gamma=0.3),
                            ConstantSchedule(di_cost), DisturbancePolicy(kind="zero"),
                            10, zeta0=zeta0, x0=[5.0, 0.0])


class TestDisturbances:
    def test_membership_all_kinds(self, di_bundle):
        model, _, _ = di_bundle
        for kind in ("zero", "uniform_box", "worst_corner", "seeded_sequence"):
            sampler = _Sampler(DisturbancePolicy(kind=kind, seed=5, scale=0.8),
                               model.w_set, model.v_set)
            for _ in range(200):
                assert model.w_set.contains_point(sampler.next_w(), tol=1e-12)
                assert model.v_set.contains_point(sampler.next_v(), tol=1e-12)

    def test_worst_corner_constant(self, di_bundle):
        model, _, _ = di_bundle
        sampler = _Sampler(DisturbancePolicy(kind="worst_corner", seed=0),
                           model.w_set, model.v_set)
        assert np.array_equal(sampler.next_w(), sampler.next_w())
        assert np.array_equal(sampler.next_w(), [0.02, 0.02])

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            DisturbancePolicy(scale=1.5)
        with pytest.raises(ValueError):
            DisturbancePolicy(kind="gauss")


class TestInvariantReport:
    def test_clean_run(self, di_bundle, di_run):
        model, tables, _ = di_bundle
        trace, _ = di_run(seed=11)
        report = invariant_report(trace, model, tables)
        assert report.total_violations == 0
        assert report.steps == len(trace)

    def test_corrupted_state_detected(self, di_bundle, di_run):
        model, tables, _ = di_bundle
        trace, _ = di_run(seed=12)
        bad = copy.deepcopy(trace)
        bad[17].x_true = np.array([99.0, 0.0])
        report = invariant_report(bad, model, tables)
        assert report.violation_counts["state_ok"] == 1
        assert report.total_violations == 1

    def test_beta_window_products(self, di_bundle, di_run):
        model, tables, _ = di_bundle
        trace, _ = di_run(seed=13, horizon=60)
        report = invariant_report(trace, model, tables)
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
        return x_true, self.x_hold.copy(), np.zeros(self.model.n), self.cost

    def advance(self, u):
        return np.zeros(self.model.n), {}


class TestBatchedFlags:
    def test_match_per_step_reference(self, di_bundle, di_cost, monkeypatch):
        model, tables, manifold = di_bundle
        controller = ControllerConfig(gamma=0.3)
        c_g = controller.effective_c_g(model)
        zeta0 = optimal_steady_state(manifold, di_cost, model)
        real_initialize, real_step = oco.initialize, oco.step
        states = []       # the controller state of each step, as the engine saw it
        held = {}         # the uncorrupted state the controller continues from

        def initialize(*args, **kwargs):
            held["state"] = real_initialize(*args, **kwargs)
            states.append(held["state"])
            return held["state"]

        def step(state, *args, **kwargs):
            # Corrupt what the engine records at one step per monitor; the
            # controller itself continues from its own state.
            u, new, diag = real_step(held["state"], *args, **kwargs)
            held["state"] = new
            if new.t == 3:
                u = u + 10.0
            if new.t == 4:
                diag = dataclasses.replace(diag, candidate_feasible=False)
            if new.t == 5:
                new = dataclasses.replace(new, u_pred=new.u_pred + 10.0)
            if new.t == 6:
                new = dataclasses.replace(new, u_ss=new.u_ss + 10.0)
            if new.t == 8:
                diag = dataclasses.replace(diag, g_norm=diag.g_norm + 1.0)
            if new.t == 10:
                diag = dataclasses.replace(diag, pred_state=diag.pred_state + 1.0)
            states.append(new)
            return u, new, diag

        monkeypatch.setattr(oco, "initialize", initialize)
        monkeypatch.setattr(oco, "step", step)
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
            }
            if t > 0:
                margin = model.tube_margin(d.pred_state - model.g_k @ states[t - 1].u_ss)
                flags["tube_ok"] = margin <= TUBE_TOL
                flags["tube_marginal"] = flags["tube_ok"] and margin > -model.tube_band
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

    def test_fit_degenerate_design(self):
        rows = [{"path_length": 0.0, "w_energy": 0.0, "v_energy": 0.0, "regret": 0.0}
                for _ in range(5)]
        coeffs, r2 = fit_affine(rows)
        assert coeffs is None and r2 is None


class TestSchedulesAndWorkers:
    def test_piecewise_validation(self, di_cost):
        with pytest.raises(ValueError):
            PiecewiseSchedule(((5, di_cost),))

    def test_piecewise_lookup(self, di_cost):
        moved = QuadraticCost(di_cost.q_x, di_cost.q_u, [0.1, 0.0], di_cost.ref_u)
        sched = PiecewiseSchedule(((0, di_cost), (10, moved)))
        assert sched.cost_at(0) is di_cost
        assert sched.cost_at(9) is di_cost
        assert sched.cost_at(10) is moved

    def test_replicate_map_matches_serial(self, monkeypatch):
        monkeypatch.setenv("OCO_MAX_THREADS", "2")
        out = replicate_map(_square, [(i,) for i in range(6)])
        assert out == [i * i for i in range(6)]
        monkeypatch.setenv("OCO_MAX_THREADS", "1")
        assert replicate_map(_square, [(i,) for i in range(6)]) == out


def _square(i):
    return i * i
