"""The quadratic step map against the gradient oracle it replaces.

``closed_loop`` hands a step on a plain ``QuadraticCost`` the
``oco.QuadraticStepMap`` of its weight pair, built when the pair repeats on
the next step; any other cost goes through the cost's ``grad``.
Both paths must take the same step: from identical states within 1e-12 of
the oracle's values (beta also within what the stage residuals' rounding
moves it, see ``conftest.both_paths``), over whole runs within 1e-10, with
identical flags. The
costs here have non-zero input references and coupled weights, so a wrongly
folded term shows. A map step whose rows do not settle it (a binding S-bar
row, beta < 1, an infeasible candidate) takes the oracle path's functions
for the rest of the step; a tiny reach gap settles as any other, with the
least-norm g. Step-by-step comparisons run on ``conftest.StepByStep`` plants;
whole runs on the plain LTI plant run ahead (see ``test_run_ahead.py``).
"""

import copy
from pathlib import Path

import numpy as np
import pytest

from ocorobust import cli, simkit, vehicle
from ocorobust import oco_controller as oco
from ocorobust.denseqp import PrefactoredQp, QpSolution
from ocorobust.errors import InfeasibleError, OcoRobustError, StepError
from ocorobust.plant import (
    QuadraticCost,
    SteadyStateBenchmark,
    build_model,
    build_tightening,
    optimal_steady_state,
    steady_state_manifold,
)
from ocorobust.simkit import DisturbancePolicy, PiecewiseSchedule, SimulationAborted

from conftest import (
    StepByStep,
    assert_benchmark_matches_per_row,
    assert_close,
    assert_records_agree,
    assert_steps_agree,
    count_calls,
    count_faces,
    faces_off,
    guess_kept,
    row_state,
    row_step,
    step_with,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RUN_REL = 1e-10
STEP_ROW = oco.step_row  # as the module has it, before a fixture wraps it


class OwnGrad(QuadraticCost):
    """A ``QuadraticCost`` whose ``grad`` overrides the base one (with the
    same values): the step takes the oracle path."""

    def grad(self, x, v):
        return super().grad(x, v)


class GradOnly:
    """Forwards ``grad`` and nothing else."""

    def __init__(self, cost):
        self._cost = cost

    def grad(self, x, v):
        return self._cost.grad(x, v)


def coupled_cost(n, m, ref_x, ref_u, seed=0):
    """Weights with off-diagonal terms, positive definite symmetric parts and
    a skew part, which ``QuadraticCost`` drops: it stores the symmetric
    parts, and ``grad`` and the map both take the stored weights."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((m, m))
    skew_x, skew_u = rng.standard_normal((n, n)), rng.standard_normal((m, m))
    return QuadraticCost(a @ a.T + np.eye(n) + 0.3 * (skew_x - skew_x.T),
                         b @ b.T + 0.5 * np.eye(m) + 0.3 * (skew_u - skew_u.T), ref_x, ref_u)


class FreshWeights:
    """``schedule``'s costs with new weight arrays (equal values) at every
    step, as time-varying weights would have."""

    def __init__(self, schedule):
        self.schedule = schedule

    def cost_at(self, t):
        cost = self.schedule.cost_at(t)
        return QuadraticCost(cost.q_x.copy(), cost.q_u.copy(), cost.ref_x, cost.ref_u)


def di_schedule(model):
    first = coupled_cost(model.n, model.m, [0.4, 0.1], [0.3])
    return PiecewiseSchedule(((0, first), (40, first.with_ref_x([-0.5, 0.2])),
                              (80, coupled_cost(model.n, model.m, [0.2, -0.1], [-0.2],
                                                seed=1))))


class TestServes:
    def test_which_costs_a_map_serves(self):
        # A step's map is its cost's weight pair's: costs with the same
        # weight arrays, or arrays equal in value, share an entry of
        # ``record.pairs``; a cost takes the map only when its ``grad`` is
        # ``QuadraticCost``'s own.
        cost = QuadraticCost(np.eye(2), np.eye(1), [0.5, 0.0], [0.1])
        own = OwnGrad(cost.q_x, cost.q_u, cost.ref_x, cost.ref_u)
        record = simkit.RunRecord(2, 1, 3, 1)
        for same in (cost, cost.with_ref_x([-0.2, 0.1]), own,
                     QuadraticCost(np.eye(2), np.eye(1), [0.5, 0.0], [0.1])):
            assert record.pair_of(same) == 0
        assert record.pair_of(QuadraticCost(cost.q_x, 2.0 * np.eye(1), [0.5, 0.0], [0.1])) == 1
        assert record.pairs[0].cost is cost and len(record.pairs) == 2
        assert simkit._takes_map(cost) and simkit._takes_map(cost.with_ref_x([-0.2, 0.1]))
        assert not simkit._takes_map(own)
        assert not simkit._takes_map(GradOnly(cost))

    def test_with_ref_x_keeps_type_weights_and_checks(self):
        cost = OwnGrad(np.eye(2), np.eye(1), [0.5, 0.0], [0.1])
        moved = cost.with_ref_x([0.25, -1.0])
        assert type(moved) is OwnGrad
        assert moved.q_x is cost.q_x and moved.q_u is cost.q_u and moved.ref_u is cost.ref_u
        assert np.array_equal(moved.ref_x, [0.25, -1.0])
        assert np.array_equal(cost.ref_x, [0.5, 0.0])
        with pytest.raises(ValueError, match="ref_x"):
            cost.with_ref_x([np.nan, 0.0])

    def test_loop_builds_one_map_per_weight_pair(self, di_bundle, monkeypatch):
        model, tables, manifold = di_bundle
        built = []
        init = oco.QuadraticStepMap.__init__

        def tracked(step_map, tables, manifold, cost, gamma):
            init(step_map, tables, manifold, cost, gamma)
            built.append((cost.q_x, gamma))

        monkeypatch.setattr(oco.QuadraticStepMap, "__init__", tracked)
        schedule = di_schedule(model)
        zeta0 = optimal_steady_state(manifold, schedule.cost_at(0), model)
        controller = oco.ControllerConfig(gamma=0.3)
        calls = []
        real = oco.ogd_step
        monkeypatch.setattr(oco, "ogd_step", lambda *a: calls.append(1) or real(*a))

        def run(costs):
            return simkit.run_closed_loop(model, tables, manifold, controller, costs,
                                          DisturbancePolicy(seed=2), 120, zeta0=zeta0,
                                          x0=zeta0[0])

        shared = run(schedule)
        assert [(q is schedule.cost_at(0).q_x, g) for q, g in built] == [(True, 0.3),
                                                                        (False, 0.3)]
        assert not calls
        # Fresh weight arrays of equal value at every step: the same two
        # pairs, so one map per pair and no step on the gradient path; the
        # run agrees with the shared-array run within run-ahead's tolerance,
        # with beta and the flags the same.
        built.clear()
        fresh = run(FreshWeights(schedule))
        assert len(built) == 2 and not calls
        assert_records_agree(fresh, shared, 1e-12)
        assert fresh[0].beta.tobytes() == shared[0].beta.tobytes()

    def test_own_grad_shares_its_pair_but_not_its_map(self, di_bundle, monkeypatch):
        # A piece whose cost overrides grad (``OwnGrad``) with the first
        # piece's weight arrays: its rows have the first piece's pair and so
        # its benchmark, but the steps that read it take ogd_step, and it
        # ends the run-ahead block before it. The run agrees with the same
        # schedule on a plain cost.
        model, tables, manifold = di_bundle
        first = coupled_cost(2, 1, [0.4, 0.1], [0.3])
        later = first.with_ref_x([0.2, 0.0])
        own = OwnGrad(first.q_x, first.q_u, [-0.3, 0.1], first.ref_u)
        zeta0 = optimal_steady_state(manifold, first, model)
        built = []
        init = SteadyStateBenchmark.__init__

        def tracked(benchmark, *args):
            init(benchmark, *args)
            built.append(benchmark)

        def run(middle):
            schedule = PiecewiseSchedule(((0, first), (30, middle), (45, later)))
            return simkit.run_closed_loop(model, tables, manifold,
                                          oco.ControllerConfig(gamma=0.3), schedule,
                                          DisturbancePolicy(seed=2), 90, zeta0=zeta0,
                                          x0=zeta0[0])

        plain = run(first.with_ref_x(own.ref_x))
        with monkeypatch.context() as patch:
            patch.setattr(SteadyStateBenchmark, "__init__", tracked)
            calls = count_calls(patch, "ogd_step")
            steps, step = [], oco.step_row
            patch.setattr(oco, "step_row", lambda rows, i, *a: steps.append(i)
                          or step(rows, i, *a))
            trace, ledger = run(own)
        assert len(trace.pairs) == 1 and not trace.pair.any() and len(built) == 1
        assert trace.pairs[0].benchmark is built[0]
        assert calls["ogd_step"] == 15 and set(range(30, 46)) <= set(steps)
        assert min(steps) == 30  # steps 1..29 ran ahead
        assert_benchmark_matches_per_row(trace, model, manifold)
        assert_runs_agree((trace, ledger), plain)

    def test_fresh_weight_arrays_share_their_benchmark(self, di_bundle, monkeypatch):
        # Weights with equal values in new arrays at every step: the run's
        # benchmark rows come from one benchmark per weight pair, and match
        # the run whose costs share the arrays.
        model, tables, manifold = di_bundle
        schedule = di_schedule(model)
        zeta0 = optimal_steady_state(manifold, schedule.cost_at(0), model)
        controller = oco.ControllerConfig(gamma=0.3)
        built = []
        init = SteadyStateBenchmark.__init__

        def tracked(benchmark, *args):
            init(benchmark, *args)
            built.append(benchmark)

        def run(costs):
            return simkit.run_closed_loop(model, tables, manifold, controller, costs,
                                          DisturbancePolicy(seed=2), 120, zeta0=zeta0,
                                          x0=zeta0[0])

        monkeypatch.setattr(SteadyStateBenchmark, "__init__", tracked)
        trace, ledger = run(FreshWeights(schedule))
        assert len(built) == 2
        shared, shared_ledger = run(schedule)
        assert len(built) == 4
        for name in ("benchmark_theta", "benchmark_eta"):
            assert np.array_equal(getattr(trace, name), getattr(shared, name)), name
        for name in ("cost", "benchmark_cost"):
            assert_close(getattr(trace, name), getattr(shared, name), RUN_REL, name)
        assert_close(ledger.cum_regret, shared_ledger.cum_regret, RUN_REL, "cum_regret")

    def test_step_rejects_a_map_it_does_not_fit(self, di_bundle, monkeypatch):
        # A weight pair built beforehand whose map was built for other
        # tables, another manifold or another gamma, or whose benchmark was
        # built on another manifold, fails the run before t = 0
        # (``closed_loop`` checks each such entry once) instead of steps
        # taking a wrong map or rows a wrong benchmark. One built for the
        # run's own is used.
        model, tables, manifold = di_bundle
        cost = coupled_cost(2, 1, [0.3, 0.0], [0.2])
        zeta = optimal_steady_state(manifold, cost, model)
        benchmark = SteadyStateBenchmark(manifold, model, cost)
        other_tables, other_manifold = copy.copy(tables), copy.copy(manifold)

        def run(step_map, benchmark=benchmark):
            return simkit.run_closed_loop(
                model, tables, manifold, oco.ControllerConfig(gamma=0.3),
                simkit.ConstantSchedule(cost), DisturbancePolicy(seed=0), 20, zeta0=zeta,
                x0=zeta[0], pairs=(simkit.WeightPair(cost, benchmark, step_map),))

        observed, observe = [], simkit._LtiPlant.observe
        with monkeypatch.context() as patch:
            patch.setattr(simkit._LtiPlant, "observe",
                          lambda plant, t: observed.append(t) or observe(plant, t))
            for step_map in (oco.QuadraticStepMap(other_tables, manifold, cost, 0.3),
                             oco.QuadraticStepMap(tables, other_manifold, cost, 0.3),
                             oco.QuadraticStepMap(tables, manifold, cost, 0.2)):
                with pytest.raises(OcoRobustError, match="other tables, manifold or gamma"):
                    run(step_map)
            with pytest.raises(OcoRobustError, match="other tables, manifold or gamma"):
                run(None, SteadyStateBenchmark(other_manifold, model, cost))
        assert observed == []
        step_map = oco.QuadraticStepMap(tables, manifold, cost, 0.3)
        trace, _ = run(step_map)
        assert trace.pairs[0].step_map is step_map and trace.pairs[0].benchmark is benchmark


class TestOneStep:
    def test_double_integrator(self, di_bundle, both_paths):
        model, tables, manifold = di_bundle
        schedule = di_schedule(model)
        zeta0 = optimal_steady_state(manifold, schedule.cost_at(0), model)
        for variant in ("explicit", "optimized"):
            builder = (oco.QuadraticRolloutBuilder(model, np.eye(2), np.eye(1))
                       if variant == "optimized" else None)
            controller = oco.ControllerConfig(gamma=0.3, rollout_builder=builder)
            simkit.run_closed_loop(model, tables, manifold, controller, schedule,
                                   DisturbancePolicy(seed=5), 120, zeta0=zeta0, x0=zeta0[0])
        assert len(both_paths) == 2 * 119

    def test_double_integrator_rollouts_match_the_per_step_form(self, di_bundle,
                                                                 rollout_oracle):
        # Every optimized step's rollout, from the rollout map's rows,
        # against the QP built and solved per step (``rollout_oracle``),
        # across the schedule's three pieces.
        model, tables, manifold = di_bundle
        schedule = di_schedule(model)
        cost0 = schedule.cost_at(0)
        builder = oco.QuadraticRolloutBuilder(model, cost0.q_x, cost0.q_u)
        seen = rollout_oracle
        zeta0 = optimal_steady_state(manifold, cost0, model)
        kept = {}
        for c_g in (None, 1000.0):  # the default cap takes most steps to S_c^+ d
            seen.clear()
            simkit.run_closed_loop(
                model, tables, manifold,
                oco.ControllerConfig(gamma=0.3, c_g=c_g, rollout_builder=builder),
                schedule, DisturbancePolicy(seed=5), 120, zeta0=zeta0, x0=zeta0[0])
            assert len(seen) == 119
            assert all(rollout == (builder, None) for rollout, *_ in seen)
            kept[c_g] = sum(not fallback for _, _, (_, _, fallback), _ in seen)
        assert 0 < kept[None] < 20 and kept[1000.0] == 119

    def test_optimized_reach_gap_comes_from_the_rows(self, monkeypatch):
        # Where the projection keeps the map's guess, the rollout's reach gap
        # is the map's gap rows; where a face decides the projection, the
        # face's gap rows (``oco._face_rows``); elsewhere theta_hat - pred of
        # the projected theta_hat. Seed 3 of the vehicle has the first two
        # kinds, and with the faces off (``faces_off``) the first and the
        # last. The gap is the one the step's ``OptimizedRows`` rows decide
        # the input on, or the one ``additional_input_optimized`` gets.
        gaps, faces, real = [], [], oco.additional_input_optimized
        step, real_rows = oco.step_row, oco.OptimizedRows.additional_input
        real_face = oco._face_rows

        def observed(record, i, model, tables, manifold, x_meas, grad_prev, options,
                     step_map=None, ref=None):
            faces.clear()
            step(record, i, model, tables, manifold, x_meas, grad_prev, options, step_map, ref)
            out = row_step(record, i)
            x_meas, candidate = np.asarray(x_meas, float), record.plan[i - 1, model.m:]
            rows = (step_map.rows_at(x_meas, candidate, grad_prev.ref_x, grad_prev.ref_u)
                    if ref is None else step_map.rows_at(x_meas, candidate, ref))
            d = gaps[-1]
            theta_hat, pred = out[2].ogd_target[0], out[2].pred_state
            if np.array_equal(theta_hat, rows[step_map.theta]):
                assert np.array_equal(d, rows[step_map.gap]), "rows"
                kinds.append("rows")
            elif faces and faces[-1] is not None:
                assert np.array_equal(theta_hat, faces[-1][step_map.theta]), "face"
                assert np.array_equal(d, faces[-1][step_map.gap]), "face"
                kinds.append("face")
            else:
                assert np.array_equal(d, theta_hat - pred), "projected"
                kinds.append("projected")

        def recorded(model, rollout, x_meas, candidate, theta_hat, d, c_g):
            gaps.append(d)
            return real(model, rollout, x_meas, candidate, theta_hat, d, c_g)

        def from_rows(rows, out, *args):
            got = real_rows(rows, out, *args)
            if got is not None:
                gaps.append(out[rows.gap])
            return got

        def face_rows(*args):
            faces.append(real_face(*args))
            return faces[-1]

        kinds = []
        monkeypatch.setattr(oco, "additional_input_optimized", recorded)
        monkeypatch.setattr(oco.OptimizedRows, "additional_input", from_rows)
        monkeypatch.setattr(oco, "_face_rows", face_rows)
        monkeypatch.setattr(oco, "step_row", observed)
        vehicle.run_scenario("optimized", seed=3)
        assert len(kinds) == 299 and 0 < kinds.count("face") < kinds.count("rows")
        assert "projected" not in kinds
        kinds.clear()
        with monkeypatch.context() as patch:
            faces_off(patch)
            vehicle.run_scenario("optimized", seed=3)
        assert len(kinds) == 299 and 0 < kinds.count("projected") < kinds.count("rows")

    @pytest.mark.parametrize("variant", ["optimized", "explicit"])
    def test_vehicle_every_phase(self, variant, both_paths):
        _, _, metrics = vehicle.run_scenario(variant, seed=3)
        assert len(both_paths) == 299
        phases = {metrics["phase"][t - 1] for t, _ in both_paths}
        assert phases == {1, 2, 3}

    def test_oracle_wrapper_takes_the_gradient_path(self, di_bundle, monkeypatch):
        model, tables, manifold = di_bundle
        cost = coupled_cost(2, 1, [0.3, 0.0], [0.2])
        zeta = optimal_steady_state(manifold, cost, model)
        state = oco.initialize(model, tables, manifold, zeta, zeta[0])
        x = zeta[0] + np.array([0.01, -0.02])
        options = oco.ControllerConfig(gamma=0.3)
        calls = []
        real = oco.ogd_step
        monkeypatch.setattr(oco, "ogd_step", lambda *a: calls.append(1) or real(*a))
        step_map = oco.QuadraticStepMap(tables, manifold, cost, 0.3)
        mapped = oco.step(state, model, tables, manifold, x, cost, options, step_map)
        assert not calls
        wrapped = oco.step(state, model, tables, manifold, x, GradOnly(cost), options)
        assert calls == [1]
        assert_steps_agree(mapped, wrapped)


def rows_off(patch):
    """Turn the ``OptimizedRows`` rows' decision off: every optimized step
    then takes the two products the rows fuse, the step map's and the
    rollout map's (``additional_input_optimized``)."""
    patch.setattr(oco.OptimizedRows, "additional_input", lambda rows, *args: None)


@pytest.fixture
def fused_steps(monkeypatch):
    """While active, every optimized ``oco.step_row`` is also taken from the
    row before with the rows' decision off (``rows_off``), and the two must
    agree: g, the plan and u within 1e-12 (1 + |two products|), theta_hat
    and eta_hat to the bit (the rows the two share round alike), g_fallback
    the same, beta the same where either is 1 and within 1e-12 elsewhere
    (the rows' growth of the stage residuals rounds differently). Returns
    a list with one entry per compared step: whether the rows decided it."""
    step, real_rows, real = (oco.step_row, oco.OptimizedRows.additional_input,
                             oco.additional_input_optimized)
    gs, seen = [], []

    def from_rows(rows, *args):
        got = real_rows(rows, *args)
        gs.append(None if got is None else got[0])
        return got

    def two_products(*args):
        got = real(*args)
        gs.append(got[0])
        return got

    def checked(rows, i, model, *args):
        gs.clear()
        step(rows, i, model, *args)
        u, new, diag = row_step(rows, i)
        g, decided = gs[-1], gs[0] is not None
        with monkeypatch.context() as patch:
            rows_off(patch)
            u_ref, new_ref, diag_ref = step_with(patch, step, row_state(rows, i - 1), model,
                                                 *args)
        assert_close(g, gs[-1], 1e-12, "g")
        assert_close(u, u_ref, 1e-12, "u")
        assert_close(new.plan, new_ref.plan, 1e-12, "plan")
        for got_part, want_part in zip(diag.ogd_target, diag_ref.ogd_target):
            assert np.array_equal(got_part, want_part)
        assert diag.g_fallback == diag_ref.g_fallback
        if 1.0 in (diag.beta, diag_ref.beta):
            assert diag.beta == diag_ref.beta
        else:
            assert abs(diag.beta - diag_ref.beta) <= 1e-12 * (1.0 + diag_ref.beta)
        seen.append(decided)

    monkeypatch.setattr(oco.OptimizedRows, "additional_input", from_rows)
    monkeypatch.setattr(oco, "additional_input_optimized", two_products)
    monkeypatch.setattr(oco, "step_row", checked)
    return seen


class TestOptimizedRows:
    """``oco.OptimizedRows`` against the two products it fuses, step by step
    (``fused_steps``) and over whole runs: columns within RUN_REL of the
    runs with the rows' decision off, with identical flags and
    g_fallback."""

    def test_vehicle_seeds(self, fused_steps, monkeypatch):
        setup = vehicle.vehicle_setup()
        capped = 0
        for seed in range(10):
            trace, ledger, _ = vehicle.run_scenario("optimized", seed=seed, setup=setup)
            with monkeypatch.context() as patch:
                patch.setattr(oco, "step_row", STEP_ROW)
                rows_off(patch)
                off = vehicle.run_scenario("optimized", seed=seed, setup=setup)
            assert_runs_agree((trace, ledger), off[:2])
            capped += int(np.count_nonzero(trace.g_fallback))
        assert len(fused_steps) == 10 * 299 and sum(fused_steps) > 2000
        assert capped == 17
        # One block per step map and rollout map it served: phases 1 and 2
        # share the first weight pair's step map, which also serves the
        # step into phase 3 (it reads phase 2's cost with phase 3's rollout).
        maps = setup.builder.maps
        assert [[rows.rollout_map for rows in pair.step_map._optimized]
                for pair in setup.pairs] == [[maps[1], maps[2], maps[3]], [maps[3]]]

    def test_double_integrator_runs(self, di_bundle, fused_steps, monkeypatch):
        # The optimized runs of TestOneStep: unit weights, and the
        # schedule's first weights with the default cap and c_g = 1000.
        model, tables, manifold = di_bundle
        schedule = di_schedule(model)
        cost0 = schedule.cost_at(0)
        zeta0 = optimal_steady_state(manifold, cost0, model)
        for (q_x, q_u), c_g in (((np.eye(2), np.eye(1)), None), ((cost0.q_x, cost0.q_u), None),
                                ((cost0.q_x, cost0.q_u), 1000.0)):
            builder = oco.QuadraticRolloutBuilder(model, q_x, q_u)
            controller = oco.ControllerConfig(gamma=0.3, c_g=c_g, rollout_builder=builder)

            def run():
                return simkit.run_closed_loop(model, tables, manifold, controller, schedule,
                                              DisturbancePolicy(seed=5), 120, zeta0=zeta0,
                                              x0=zeta0[0])

            fused_steps.clear()
            fused = run()
            assert len(fused_steps) == 119 and any(fused_steps)
            with monkeypatch.context() as patch:
                patch.setattr(oco, "step_row", STEP_ROW)
                rows_off(patch)
                assert_runs_agree(fused, run())


# Runs that reach each fallback branch of the map's step: the state
# reference the cost jumps to at step 30 (None: no jump) and the noise.
BRANCHES = {
    # The new target lies outside S-bar: the projection binds a row, so the
    # projector rejects the map's guess.
    "binding": ([2.9, 0.0], dict(seed=1)),
    # The target stays inside S-bar (every guess is kept), but the jump
    # makes beta < 1 on some steps.
    "beta_below_one": ([-1.9, 0.0], dict(seed=1)),
    # No noise, from the optimum: the reach gap stays in (0, 1e-12].
    "tiny_gap": (None, dict(kind="zero")),
}


def branch_run(di_bundle, branch):
    model, tables, manifold = di_bundle
    ref, policy = BRANCHES[branch]
    first = coupled_cost(model.n, model.m, [0.4, 0.1], [0.3])
    schedule = (simkit.ConstantSchedule(first) if ref is None
                else PiecewiseSchedule(((0, first), (30, first.with_ref_x(ref)))))
    zeta0 = optimal_steady_state(manifold, first, model)
    return lambda: simkit.run_closed_loop(model, tables, manifold,
                                          oco.ControllerConfig(gamma=0.3), schedule,
                                          DisturbancePolicy(**policy), 120, zeta0=zeta0,
                                          x0=zeta0[0])


class TestFallbackBranches:
    @pytest.mark.parametrize("branch", BRANCHES)
    def test_each_step_matches_the_oracle(self, branch, di_bundle, both_paths):
        branch_run(di_bundle, branch)()
        assert len(both_paths) == 119

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_whole_run_matches_the_oracle(self, branch, di_bundle, monkeypatch):
        run = branch_run(di_bundle, branch)
        names = ("_projected", "additional_input_explicit", "max_beta")
        with monkeypatch.context() as patch:
            calls = count_calls(patch, *names)
            faces = count_faces(patch)
            mapped = run()
        with monkeypatch.context() as patch:
            patch.setattr(simkit, "_takes_map", lambda cost: False)
            oracle_calls = count_calls(patch, *names)
            oracle = run()
        assert_runs_agree(mapped, oracle)
        trace = mapped[0]
        lowered = int(np.count_nonzero(trace.beta[1:] < 1.0))
        if branch == "binding":
            # The faces decide every binding step; with them off, the
            # projector's fallback does, and the run is the same.
            assert sum(faces) > 0 and calls["_projected"] == 0
            with monkeypatch.context() as patch:
                faces_off(patch)
                calls = count_calls(patch, *names)
                assert_runs_agree(run(), oracle)
            assert calls["_projected"] > 0
        elif branch == "beta_below_one":
            assert calls["_projected"] == 0
            assert 0 < lowered <= calls["max_beta"] < 119
        else:
            # Every reach gap is tiny but not zero, and the map's rows settle
            # every step with the least-norm g, as the oracle path's
            # additional input and beta do. |g| <= c_g_min |d|, up to the
            # rounding of d = theta - pred: a few eps (|theta| + |pred|).
            theta, pred = trace.theta_hat[1:], trace.pred_state[1:]
            gap = np.linalg.norm(theta - pred, axis=1)
            assert np.all((gap > 0.0) & (gap <= 1e-12))
            assert calls["_projected"] == calls["additional_input_explicit"] == 0
            assert calls["max_beta"] == 0
            assert (oracle_calls["additional_input_explicit"] == oracle_calls["max_beta"]
                    == 119)
            rounding = 4 * np.finfo(float).eps * (np.linalg.norm(theta, axis=1)
                                                  + np.linalg.norm(pred, axis=1))
            assert np.all(trace.g_norm[1:] <= di_bundle[0].c_g_min * (gap + rounding))

    def test_infeasible_candidate_the_rows_would_settle(self, di_bundle):
        # A candidate outside the tightened sets fails the step even where
        # the least-norm input would bring every row inside (the map's rows
        # alone would settle it): both paths raise max_beta's error.
        model, tables, manifold = di_bundle
        cost = coupled_cost(2, 1, [0.3, 0.0], [0.2])
        zeta = optimal_steady_state(manifold, cost, model)
        step_map = oco.QuadraticStepMap(tables, manifold, cost, 0.3)
        plan0 = oco.initialize(model, tables, manifold, zeta, zeta[0]).plan
        rng = np.random.default_rng(0)
        for _ in range(5000):
            x = rng.uniform([-3.0, -2.0], [3.0, 2.0])
            plan = plan0 + rng.standard_normal(plan0.size) * rng.uniform(0.0, 3.0)
            out = step_map.rows_at(x, plan[model.m:], cost.ref_x, cost.ref_u)
            if (out[step_map.base].max() > model.membership_tol
                    and out[step_map.reach].max() <= 0.0
                    and guess_kept(manifold.projector, out[step_map.linear],
                                   out[step_map.eta], manifold.sbar.offsets)):
                break
        else:
            pytest.fail("no such state drawn")
        state = oco.ControllerState(plan=plan, zeta_hat=zeta, t=4)
        options = oco.ControllerConfig(gamma=0.3)
        for with_map in ((step_map,), ()):
            with pytest.raises(StepError) as info:
                oco.step(state, model, tables, manifold, x, cost, options, *with_map)
            assert info.value.t == 5 and isinstance(info.value.cause, InfeasibleError)


class TestCensus:
    def test_sweep_design_solves_only_rejected_guesses(self, monkeypatch):
        # On the bundled sweep design, the projector's fallback (one-row step
        # or GI) runs only on steps whose guess its rule (``keeps``, on one
        # step's map rows) rejected, and ``solve`` never runs; the steps run
        # ahead had their guesses kept by the same rule on a block's rows.
        cfg = cli.load_config(CONFIGS / "regret_sweep.cfg", command="regret-sweep")
        sw = cfg["sweep"]
        model = build_model(cli._model_config(cfg))
        tables = build_tightening(model)
        manifold = copy.copy(steady_state_manifold(model, model.p_rpi,
                                                   shrink=cfg["controller"]["shrink"]))
        schedule = cli._schedule(cfg)
        controller = cli._controller(cfg, model, schedule)
        verdicts, fallbacks, solves, batches = [], [], [], []

        class Census(PrefactoredQp):
            def keeps(self, grad, viol, *args, **kwargs):
                kept = super().keeps(grad, viol, *args, **kwargs)
                if np.ndim(viol) == 1:  # one step's rows
                    verdicts.append(bool(kept))
                else:
                    batches.append(kept)
                return kept

            def _fallback(self, *args, **kwargs):
                fallbacks.append(1)
                return super()._fallback(*args, **kwargs)

            def solve(self, *args, **kwargs):
                solves.append(1)
                return super().solve(*args, **kwargs)

        real = manifold.projector
        manifold.projector = Census(real.hessian, ineq_normals=real.ineq_normals, tol=real.tol)
        generator = simkit.AlternatingTargetGenerator(
            model=model, manifold=manifold, base_cost=schedule.cost_at(0),
            direction=tuple(sw["direction"]), levels=tuple(sw["path_levels"]),
            hop_size=sw["hop_size"], horizon=sw["horizon"])
        serial = count_calls(monkeypatch, "step_row")
        result = simkit.regret_scaling_experiment(
            model, tables, manifold, controller, generator,
            dist_levels=list(sw["noise_levels"]), seeds=[0], horizon=sw["horizon"])
        steps = len(result.rows) * (sw["horizon"] - 1)
        ahead = steps - serial["step_row"]
        # every step's guess is tested: step by step once, or in its block
        assert len(verdicts) == serial["step_row"]
        assert len(fallbacks) == verdicts.count(False) and not solves
        assert ahead <= sum(int(np.count_nonzero(kept)) for kept in batches)
        assert sum(verdicts) + ahead > 0.9 * steps


def run_pair(monkeypatch, run):
    """``run()`` with the step maps, then with ``closed_loop`` handing no map
    to any step (the oracle path)."""
    mapped = run()
    with monkeypatch.context() as patch:
        patch.setattr(simkit, "_takes_map", lambda cost: False)
        return mapped, run()


def assert_runs_agree(mapped, oracle):
    (trace, ledger), (trace_ref, ledger_ref) = mapped, oracle
    assert len(trace) == len(trace_ref)
    for name in ("x_true", "x_meas", "u", "w", "beta", "g_norm", "pred_state", "theta_hat",
                 "eta_hat", "u_pred", "u_ss", "benchmark_theta", "benchmark_eta", "cost"):
        assert_close(getattr(trace, name), getattr(trace_ref, name), RUN_REL, name)
    assert trace.flags.keys() == trace_ref.flags.keys()
    for name, column in trace.flags.items():
        assert np.array_equal(column, trace_ref.flags[name]), name
    assert np.array_equal(trace.g_fallback, trace_ref.g_fallback)
    for name in ("cum_regret", "path_length"):
        assert_close(getattr(ledger, name), getattr(ledger_ref, name), RUN_REL, name)


class TestWholeRuns:
    @pytest.mark.parametrize("name,variant", [("double_integrator", "explicit"),
                                              ("double_integrator", "optimized"),
                                              ("regret_sweep", "explicit")])
    def test_generic_configs(self, name, variant, monkeypatch):
        command = "regret-sweep" if name == "regret_sweep" else "run"
        cfg = cli.load_config(CONFIGS / f"{name}.cfg", command=command)
        cfg["controller"]["variant"] = variant
        model = build_model(cli._model_config(cfg))
        tables = build_tightening(model)
        manifold = steady_state_manifold(model, model.p_rpi, shrink=cfg["controller"]["shrink"])
        schedule = cli._schedule(cfg)
        controller = cli._controller(cfg, model, schedule)
        if name == "regret_sweep":
            sw = cfg["sweep"]
            generator = simkit.AlternatingTargetGenerator(
                model=model, manifold=manifold, base_cost=schedule.cost_at(0),
                direction=tuple(sw["direction"]), levels=tuple(sw["path_levels"]),
                hop_size=sw["hop_size"], horizon=sw["horizon"])
            cases = [generator.make(level) for level in generator.levels]
        else:
            u0 = np.zeros(model.m)
            cases = [(schedule, (model.g_k @ u0, u0), np.asarray(cfg["model"]["x0"], float))]
        horizon = cfg["sweep" if name == "regret_sweep" else "experiment"]["horizon"]
        for schedule, zeta0, x0 in cases:
            assert_runs_agree(*run_pair(monkeypatch, lambda: simkit.run_closed_loop(
                model, tables, manifold, controller, schedule, DisturbancePolicy(seed=0),
                horizon, zeta0=zeta0, x0=x0)))

    @pytest.mark.parametrize("variant", ["optimized", "explicit"])
    def test_vehicle_seeds(self, variant, monkeypatch):
        setup = vehicle.vehicle_setup(vehicle.VehicleParams())
        for seed in range(20):
            mapped, oracle = run_pair(monkeypatch, lambda: vehicle.run_scenario(
                variant, seed=seed, setup=setup))
            assert mapped[2]["phase"] == oracle[2]["phase"]
            assert_runs_agree(mapped[:2], oracle[:2])


class TestFailures:
    """Failures keep their type and step on both paths."""

    @pytest.fixture
    def loop(self, di_bundle):
        model, tables, manifold = di_bundle
        cost = coupled_cost(2, 1, [0.3, 0.0], [0.2])
        zeta0 = optimal_steady_state(manifold, cost, model)

        def run(gamma=0.3, plant=None, manifold=manifold):
            plant = plant or simkit._LtiPlant(model, simkit.ConstantSchedule(cost),
                                              DisturbancePolicy(seed=0), zeta0[0], 20)
            with pytest.raises(SimulationAborted) as info:
                simkit.closed_loop(model, tables, manifold, oco.ControllerConfig(gamma=gamma),
                                   plant, 20, zeta0)
            cause = info.value.__cause__
            assert isinstance(cause, StepError) and cause.t == info.value.t
            return info.value.t, type(cause.cause)

        return model, zeta0, cost, run

    def both(self, monkeypatch, run):
        """The failure of ``run()`` with the maps (run ahead where the plant
        allows), step by step and on the oracle path; all three agree."""
        mapped, oracle = run_pair(monkeypatch, run)
        with monkeypatch.context() as patch:
            patch.setattr(simkit, "_LtiPlant", StepByStep)
            serial = run()
        assert oracle == mapped == serial
        return mapped

    def test_gamma_not_positive(self, loop, monkeypatch):
        run = loop[3]
        assert self.both(monkeypatch, lambda: run(gamma=0.0)) == (1, ValueError)
        assert self.both(monkeypatch, lambda: run(gamma=-0.5)) == (1, ValueError)

    def test_non_finite_measurement(self, loop, monkeypatch):
        model, zeta0, cost, run = loop

        class NanAtFour(simkit._LtiPlant):
            def observe(self, t):
                x_true, x_meas, v, cost_t, ref_t = super().observe(t)
                return x_true, (np.full(2, np.nan) if t == 4 else x_meas), v, cost_t, ref_t

        def make():
            return run(plant=NanAtFour(model, simkit.ConstantSchedule(cost),
                                       DisturbancePolicy(seed=0), zeta0[0], 20))

        assert self.both(monkeypatch, make) == (4, ValueError)

    def test_map_that_fails_to_build(self, loop, monkeypatch):
        def broken(*args):
            raise np.linalg.LinAlgError("no map")

        monkeypatch.setattr(oco.QuadraticStepMap, "__init__", broken)
        assert loop[3]() == (1, np.linalg.LinAlgError)

    def test_infeasible_candidate(self, loop, monkeypatch):
        # A measurement far from the plan makes the candidate infeasible:
        # both paths raise max_beta's InfeasibleError at that step.
        model, zeta0, cost, run = loop

        class JumpAtFive(simkit._LtiPlant):
            def observe(self, t):
                x_true, x_meas, v, cost_t, ref_t = super().observe(t)
                return x_true, (np.array([2.9, 1.9]) if t == 5 else x_meas), v, cost_t, ref_t

        def make():
            return run(plant=JumpAtFive(model, simkit.ConstantSchedule(cost),
                                        DisturbancePolicy(seed=0), zeta0[0], 20))

        assert self.both(monkeypatch, make) == (5, InfeasibleError)

    def test_failed_projection(self, loop, monkeypatch, di_bundle):
        # Both paths decide the projection in the projector: its guess test
        # in ``solve`` and its rule on the map's rows (one step's or a
        # block's) reject every guess, so every step runs step by step, every
        # step goes on to the fallback (from ``solve`` on the oracle path,
        # from the map's guess on the map's), and its third fallback fails.
        manifold = copy.copy(di_bundle[2])
        real = manifold.projector
        calls = []

        class FailsThird(PrefactoredQp):
            def kkt_status(self, grad, viol=None, lam=None, *args, **kwargs):
                if lam is None:  # every guess fails GI's stopping test
                    return None
                return super().kkt_status(grad, viol, lam, *args, **kwargs)

            def keeps(self, grad, *args, **kwargs):
                return np.zeros(np.shape(grad)[:-1], bool)

            def _fallback(self, *args, **kwargs):
                calls.append(1)
                if len(calls) == 3:
                    return QpSolution(x=np.zeros(1), kkt_residual=np.inf, status="infeasible")
                return super()._fallback(*args, **kwargs)

        manifold.projector = FailsThird(real.hessian, ineq_normals=real.ineq_normals,
                                        tol=real.tol)

        def run():
            calls.clear()
            return loop[3](manifold=manifold)

        assert self.both(monkeypatch, run) == (3, InfeasibleError)
