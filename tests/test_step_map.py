"""The quadratic step map against the gradient oracle it replaces.

``closed_loop`` hands a step on a plain ``QuadraticCost`` whose weights
repeat on the next step its ``oco.QuadraticStepMap``; any other cost goes
through the cost's ``grad``.
Both paths must take the same step: from identical states within 1e-12 of
the oracle's values (beta also within what the stage residuals' rounding
moves it, see ``conftest.both_paths``), over whole runs within 1e-10, with
identical flags. The
costs here have non-zero input references and coupled weights, so a wrongly
folded term shows. A map step whose rows do not settle it (a binding S-bar
row, beta < 1, a reach gap below ``DEGENERATE_TOL``, an infeasible
candidate) takes the oracle path's functions for the rest of the step.
"""

import copy
from pathlib import Path

import numpy as np
import pytest

from ocorobust import cli, simkit, vehicle
from ocorobust import oco_controller as oco
from ocorobust.denseqp import PrefactoredQp, QpSolution
from ocorobust.errors import InfeasibleError, StepError
from ocorobust.plant import (
    QuadraticCost,
    SteadyStateBenchmark,
    build_model,
    build_tightening,
    optimal_steady_state,
    steady_state_manifold,
)
from ocorobust.simkit import DisturbancePolicy, PiecewiseSchedule, SimulationAborted

from conftest import assert_close, assert_steps_agree

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RUN_REL = 1e-10


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
    def test_which_costs_a_map_serves(self, di_bundle):
        model, tables, manifold = di_bundle
        cost = QuadraticCost(np.eye(2), np.eye(1), [0.5, 0.0], [0.1])
        step_map = oco.QuadraticStepMap(tables, manifold, cost, 0.3)
        assert step_map.serves(cost)
        assert step_map.serves(cost.with_ref_x([-0.2, 0.1]))
        # equal values, other arrays
        assert not step_map.serves(QuadraticCost(np.eye(2), np.eye(1), [0.5, 0.0], [0.1]))
        assert not step_map.serves(QuadraticCost(cost.q_x, 2.0 * np.eye(1), [0.5, 0.0], [0.1]))
        own = OwnGrad(cost.q_x, cost.q_u, cost.ref_x, cost.ref_u)
        assert own.q_x is cost.q_x and not step_map.serves(own)
        assert not oco.QuadraticStepMap.takes(own)
        assert not step_map.serves(GradOnly(cost))
        assert not oco.QuadraticStepMap.takes(GradOnly(cost))

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
        simkit.run_closed_loop(model, tables, manifold, controller, schedule,
                               DisturbancePolicy(seed=2), 120, zeta0=zeta0, x0=zeta0[0])
        assert [(q is schedule.cost_at(0).q_x, g) for q, g in built] == [(True, 0.3),
                                                                        (False, 0.3)]
        # Weights that change every step: no map is built, every step takes
        # the gradient path, and the run agrees with one on the step maps'
        # path for the same values.
        built.clear()
        fresh = FreshWeights(schedule)
        calls = []
        real = oco.ogd_step
        monkeypatch.setattr(oco, "ogd_step", lambda *a: calls.append(1) or real(*a))
        trace, ledger = simkit.run_closed_loop(model, tables, manifold, controller, fresh,
                                               DisturbancePolicy(seed=2), 120, zeta0=zeta0,
                                               x0=zeta0[0])
        assert built == [] and len(calls) == 119
        calls.clear()
        assert_runs_agree((trace, ledger), simkit.run_closed_loop(
            model, tables, manifold, controller, schedule, DisturbancePolicy(seed=2), 120,
            zeta0=zeta0, x0=zeta0[0]))
        assert len(built) == 2 and not calls

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

    def test_step_rejects_a_map_it_does_not_fit(self, di_bundle):
        # A map built for other tables, another manifold, another gamma or
        # other weight arrays fails the step instead of taking a wrong one.
        model, tables, manifold = di_bundle
        cost = coupled_cost(2, 1, [0.3, 0.0], [0.2])
        zeta = optimal_steady_state(manifold, cost, model)
        state = oco.initialize(model, tables, manifold, zeta, zeta[0])
        options = oco.ControllerConfig(gamma=0.3)
        other_tables, other_manifold = copy.copy(tables), copy.copy(manifold)
        same = QuadraticCost(cost.q_x.copy(), cost.q_u.copy(), cost.ref_x, cost.ref_u)
        for step_map in (oco.QuadraticStepMap(other_tables, manifold, cost, 0.3),
                         oco.QuadraticStepMap(tables, other_manifold, cost, 0.3),
                         oco.QuadraticStepMap(tables, manifold, cost, 0.2),
                         oco.QuadraticStepMap(tables, manifold, same, 0.3)):
            with pytest.raises(StepError) as info:
                oco.step(state, model, tables, manifold, zeta[0], cost, options, step_map)
            assert info.value.t == 1 and isinstance(info.value.cause, ValueError)
        oco.step(state, model, tables, manifold, zeta[0], cost, options,
                 oco.QuadraticStepMap(tables, manifold, cost, 0.3))


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


def count_calls(monkeypatch, *names):
    """Count the calls of the ``oco`` functions ``names`` while patched."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(oco, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(oco, name, counted)
    return calls


# Runs that reach each fallback branch of the map's step: the state
# reference the cost jumps to at step 30 (None: no jump) and the noise.
BRANCHES = {
    # The new target lies outside S-bar: the projection binds a row, so the
    # projector rejects the map's guess.
    "binding": ([2.9, 0.0], dict(seed=1)),
    # The target stays inside S-bar (every guess is kept), but the jump
    # makes beta < 1 on some steps.
    "beta_below_one": ([-1.9, 0.0], dict(seed=1)),
    # No noise, from the optimum: the reach gap stays below DEGENERATE_TOL.
    "degenerate": (None, dict(kind="zero")),
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
        with monkeypatch.context() as patch:
            calls = count_calls(patch, "project_manifold", "additional_input_explicit",
                                "max_beta")
            mapped = run()
        with monkeypatch.context() as patch:
            patch.setattr(simkit, "_step_map", lambda *args: None)
            oracle = run()
        assert_runs_agree(mapped, oracle)
        trace = mapped[0]
        lowered = int(np.count_nonzero(trace.beta[1:] < 1.0))
        if branch == "binding":
            assert calls["project_manifold"] > 0
        elif branch == "beta_below_one":
            assert calls["project_manifold"] == 0
            assert 0 < lowered <= calls["max_beta"] < 119
        else:
            assert calls["additional_input_explicit"] == calls["max_beta"] == 119
            assert np.all(trace.g_norm[1:] == 0.0)


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
            out = step_map.product(x, plan[model.m:], cost)
            guess = manifold.projector.guess_row(out[step_map.linear], out[step_map.eta],
                                                 manifold.sbar.offsets, oco.PROJECTION_TOL)
            if (out[step_map.base].max() > model.membership_tol
                    and out[step_map.reach].max() <= 0.0
                    and guess is not None and guess.status == "optimal"):
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
        # On the bundled sweep design, the projector's ``solve`` runs only on
        # steps whose guess its single-row check rejected.
        cfg = cli.load_config(CONFIGS / "regret_sweep.cfg", command="regret-sweep")
        sw = cfg["sweep"]
        model = build_model(cli._model_config(cfg))
        tables = build_tightening(model)
        manifold = copy.copy(steady_state_manifold(model, model.p_rpi,
                                                   shrink=cfg["controller"]["shrink"]))
        schedule = cli._schedule(cfg)
        controller = cli._controller(cfg, model, schedule)
        verdicts, solves = [], []

        class Census(PrefactoredQp):
            inside = False  # True while ``solve`` tests its own guess

            def guess_row(self, *args, **kwargs):
                out = super().guess_row(*args, **kwargs)
                if not self.inside:
                    verdicts.append(out is not None and out.status == "optimal")
                return out

            def solve(self, *args, **kwargs):
                solves.append(1)
                self.inside = True
                try:
                    return super().solve(*args, **kwargs)
                finally:
                    self.inside = False

        real = manifold.projector
        manifold.projector = Census(real.hessian, ineq_normals=real.ineq_normals)
        generator = simkit.AlternatingTargetGenerator(
            model=model, manifold=manifold, base_cost=schedule.cost_at(0),
            direction=tuple(sw["direction"]), levels=tuple(sw["path_levels"]),
            hop_size=sw["hop_size"], horizon=sw["horizon"])
        result = simkit.regret_scaling_experiment(
            model, tables, manifold, controller, generator,
            dist_levels=list(sw["noise_levels"]), seeds=[0], horizon=sw["horizon"])
        steps = len(result.rows) * (sw["horizon"] - 1)
        assert len(verdicts) == steps
        assert len(solves) == verdicts.count(False)
        assert sum(verdicts) > 0.9 * steps


def run_pair(monkeypatch, run):
    """``run()`` with the step maps, then with ``closed_loop`` handing no map
    to any step (the oracle path)."""
    mapped = run()
    with monkeypatch.context() as patch:
        patch.setattr(simkit, "_step_map", lambda *args: None)
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
        mapped, oracle = run_pair(monkeypatch, run)
        assert oracle == mapped
        return mapped

    def test_gamma_not_positive(self, loop, monkeypatch):
        run = loop[3]
        assert self.both(monkeypatch, lambda: run(gamma=0.0)) == (1, ValueError)
        assert self.both(monkeypatch, lambda: run(gamma=-0.5)) == (1, ValueError)

    def test_non_finite_measurement(self, loop, monkeypatch):
        model, zeta0, cost, run = loop

        class NanAtFour(simkit._LtiPlant):
            def observe(self, t):
                x_true, x_meas, v, cost_t = super().observe(t)
                return x_true, (np.full(2, np.nan) if t == 4 else x_meas), v, cost_t

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
                x_true, x_meas, v, cost_t = super().observe(t)
                return x_true, (np.array([2.9, 1.9]) if t == 5 else x_meas), v, cost_t

        def make():
            return run(plant=JumpAtFive(model, simkit.ConstantSchedule(cost),
                                        DisturbancePolicy(seed=0), zeta0[0], 20))

        assert self.both(monkeypatch, make) == (5, InfeasibleError)

    def test_failed_projection(self, loop, monkeypatch, di_bundle):
        # Both paths decide the projection in the projector: its single-row
        # check rejects every guess, so the map's step takes ``solve`` too,
        # and its third solve fails.
        manifold = copy.copy(di_bundle[2])
        real = manifold.projector
        calls = []

        class FailsThird(PrefactoredQp):
            def guess_row(self, *args, **kwargs):
                return None

            def solve(self, linear, **kwargs):
                calls.append(1)
                if len(calls) == 3:
                    return QpSolution(x=np.zeros(1), kkt_residual=np.inf, status="infeasible")
                return super().solve(linear, **kwargs)

        manifold.projector = FailsThird(real.hessian, ineq_normals=real.ineq_normals)

        def run():
            calls.clear()
            return loop[3](manifold=manifold)

        assert self.both(monkeypatch, run) == (3, InfeasibleError)
