"""Run-ahead on the LTI plant against the same runs step by step.

``closed_loop`` runs an ``_LtiPlant`` with the explicit variant ahead over
stretches of steps whose costs keep their weight arrays (reference hops
included): it takes each block of steps in closed form from the step map's
``LiftedSteps`` (the steps as ``oco.step_row`` takes one whose map rows
settle it), checks the block after in one pass (``oco.settled_rows``) and
hands the first rejected step to ``oco.step_row``. Every run here is
compared with the same run on a ``conftest.StepByStep`` plant, which runs
step by step. A block's first step is the step-by-step step to the bit, but
the closed form of the others rounds differently from the step-by-step
products, so every float column and ledger total must agree within REL (1 +
|step by step|); beta, every flag column, the cost objects and the steps
``oco.step_row`` takes must be the same, and a failed run must fail at the
same step with the same message and partial record.
"""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

from ocorobust import cli, simkit
from ocorobust import oco_controller as oco
from ocorobust.convexsets import HPolytope, Zonotope
from ocorobust.errors import OcoRobustError, StepError
from ocorobust.matlin import as_vector
from ocorobust.plant import (
    ModelConfig,
    QuadraticCost,
    build_model,
    build_tightening,
    optimal_steady_state,
    steady_state_manifold,
)
from ocorobust.simkit import (
    ConstantSchedule,
    DisturbancePolicy,
    PiecewiseSchedule,
    SimulationAborted,
)
from test_drawn_models import build, drawn_models
from test_step_map import FreshWeights, coupled_cost

from conftest import StepByStep, assert_close, assert_records_agree, rows_kept

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REL = 1e-12


def serial_steps(monkeypatch):
    """The steps ``oco.step_row`` takes while patched, in order."""
    steps = []
    real = oco.step_row

    def recorded(rows, i, *args, **kwargs):
        steps.append(i)
        return real(rows, i, *args, **kwargs)

    monkeypatch.setattr(oco, "step_row", recorded)
    return steps


def outcome(run):
    """``run()``'s (trace, ledger); what its ``SimulationAborted`` holds, as
    (t, reason, cause type, the cause's cause type, trace, ledger); or the
    type and message of another ``OcoRobustError`` (one raised before the
    loop)."""
    try:
        return run()
    except SimulationAborted as exc:
        cause = exc.__cause__
        return (exc.t, exc.reason, type(cause), type(getattr(cause, "cause", None)),
                exc.trace, exc.ledger)
    except OcoRobustError as exc:
        return type(exc), str(exc), None


def assert_outcomes_agree(got, want):
    """Two outcomes agree: ``conftest.assert_records_agree`` within REL, and
    beta the same to the bit."""
    assert len(got) == len(want)
    if len(want) == 3:
        assert got == want
        return
    assert got[:-2] == want[:-2]
    assert_records_agree(got[-2:], want[-2:], REL)
    assert got[-2].beta.tobytes() == want[-2].beta.tobytes()


def expected_serial_steps(record, model, tables, manifold, gamma):
    """The steps after the first that ``closed_loop`` hands to ``oco.step_row``
    when it runs the step-by-step run ``record`` ahead, for schedules of
    plain ``QuadraticCost``s: those whose weight pair (``record.pair``) is
    not the step before's, and those whose map rows at the record's x_meas,
    candidate and the step before's reference ``oco.step_row`` does not take
    whole (``per_row``). A step reads the cost of the step before it, so a
    hop to a cost of the same weight pair runs ahead."""
    steps, maps = [], {}
    for t in range(1, len(record)):
        pair = record.pair[t - 1]
        if record.pair[t] != pair:
            steps.append(t)
            continue
        if pair not in maps:
            maps[pair] = oco.QuadraticStepMap(tables, manifold, record.pairs[pair].cost, gamma)
        step_map = maps[pair]
        candidate = np.concatenate([record.u_pred[t - 1][model.m:], record.u_ss[t - 1]])
        out = step_map.rows_at(record.x_meas[t], candidate, record.ref_x[t - 1],
                               record.ref_u[t - 1])
        if not per_row(step_map, manifold, record.x_meas[t], out, model.membership_tol):
            steps.append(t)
    return steps


def run_both(monkeypatch, run):
    """The outcome of ``run()`` as it stands and with every LTI plant step by
    step, and the steps ``oco.step_row`` took in the first. For a run that ends,
    those are the steps ``expected_serial_steps`` finds in the step-by-step run."""
    loops = []

    def captured(model, tables, manifold, controller, *args, **kwargs):
        loops.append((model, tables, manifold, controller.gamma))
        return real(model, tables, manifold, controller, *args, **kwargs)

    real = simkit.closed_loop
    with monkeypatch.context() as patch:
        steps = serial_steps(patch)
        ahead = outcome(run)
    with monkeypatch.context() as patch:
        patch.setattr(simkit, "_LtiPlant", StepByStep)
        patch.setattr(simkit, "closed_loop", captured)
        serial = outcome(run)
    assert_outcomes_agree(ahead, serial)
    if len(serial) == 2:
        assert steps == expected_serial_steps(serial[0], *loops[-1])
    return ahead, steps


def generic_setup(name, command):
    cfg = cli.load_config(CONFIGS / f"{name}.cfg", command=command)
    model = build_model(cli._model_config(cfg))
    tables = build_tightening(model)
    manifold = steady_state_manifold(model, model.p_rpi, shrink=cfg["controller"]["shrink"])
    schedule = cli._schedule(cfg)
    return cfg, model, tables, manifold, schedule, cli._controller(cfg, model, schedule)


class TestConfigs:
    def test_every_regret_sweep_cell(self, monkeypatch):
        # Every cell of the bundled design, zero-noise cells included, and
        # the fitted rows. Blocks run across the target hops.
        cfg, model, tables, manifold, schedule, controller = generic_setup(
            "regret_sweep", "regret-sweep")
        sw = cfg["sweep"]
        generator = simkit.AlternatingTargetGenerator(
            model=model, manifold=manifold, base_cost=schedule.cost_at(0),
            direction=tuple(sw["direction"]), levels=tuple(sw["path_levels"]),
            hop_size=sw["hop_size"], horizon=sw["horizon"])
        real = simkit.run_closed_loop

        def sweep():
            runs = []

            def captured(*args, **kwargs):
                runs.append(real(*args, **kwargs))
                return runs[-1]

            with monkeypatch.context() as patch:
                patch.setattr(simkit, "run_closed_loop", captured)
                result = simkit.regret_scaling_experiment(
                    model, tables, manifold, controller, generator,
                    dist_levels=list(sw["noise_levels"]), seeds=[0, 1],
                    horizon=sw["horizon"])
            return runs, result

        with monkeypatch.context() as patch:
            steps = serial_steps(patch)
            (runs, result) = sweep()
        with monkeypatch.context() as patch:
            patch.setattr(simkit, "_LtiPlant", StepByStep)
            serial_runs, serial_result = sweep()
        assert len(runs) == len(serial_runs) == 18
        for got, want in zip(runs, serial_runs):
            assert_outcomes_agree(got, want)
        assert steps == [t for trace, _ in serial_runs for t in expected_serial_steps(
            trace, model, tables, manifold, controller.gamma)]
        for got, want in zip(result.rows, serial_result.rows):
            assert got.keys() == want.keys()
            assert_close([got[k] for k in got], [want[k] for k in got], REL, "row")
        assert_close(result.coefficients, serial_result.coefficients, REL, "coefficients")
        # every hop keeps the base weight arrays, so no step runs step by step
        assert steps == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_double_integrator_config(self, seed, monkeypatch):
        # The bundled config's target hops at t = 150 to a cost object with
        # weight arrays of its own but of equal value, so of the same weight
        # pair: the block runs across the hop.
        cfg, model, tables, manifold, schedule, controller = generic_setup(
            "double_integrator", "run")
        u0 = np.zeros(model.m)
        horizon = cfg["experiment"]["horizon"]
        _, steps = run_both(monkeypatch, lambda: simkit.run_closed_loop(
            model, tables, manifold, controller, schedule, DisturbancePolicy(seed=seed),
            horizon, zeta0=(model.g_k @ u0, u0), x0=np.asarray(cfg["model"]["x0"], float)))
        assert 150 not in steps and len(steps) < 0.1 * horizon


def test_level_8_sweep_run_is_one_block(monkeypatch):
    # The bundled sweep design's top level hops its target 8 times, each to
    # a cost with the base weight arrays: steps 1..399 run ahead in one
    # block, and no step goes through oco.step_row.
    cfg, model, tables, manifold, schedule, controller = generic_setup(
        "regret_sweep", "regret-sweep")
    sw = cfg["sweep"]
    generator = simkit.AlternatingTargetGenerator(
        model=model, manifold=manifold, base_cost=schedule.cost_at(0),
        direction=tuple(sw["direction"]), levels=(8,), hop_size=sw["hop_size"],
        horizon=sw["horizon"])
    level_schedule, zeta0, x0 = generator.make(8)
    assert len(level_schedule.pieces) == 9
    blocks, ahead = [], simkit._LtiPlant.ahead

    def counted(plant, *args):
        out = ahead(plant, *args)
        blocks.append(len(out[0]))
        return out

    steps = serial_steps(monkeypatch)
    monkeypatch.setattr(simkit._LtiPlant, "ahead", counted)
    trace, _ = simkit.run_closed_loop(model, tables, manifold, controller, level_schedule,
                                      DisturbancePolicy(seed=0), sw["horizon"], zeta0=zeta0,
                                      x0=x0)
    assert blocks == [sw["horizon"] - 1] and steps == []
    assert len(trace.pairs) == 1 and trace.pairs[0].cost is level_schedule.cost_at(0)
    assert trace.ref_x.tobytes() == np.array([level_schedule.cost_at(t).ref_x
                                              for t in range(len(trace))]).tobytes()


def test_lifted_steps_across_hops(di_bundle):
    # LiftedSteps.run over references that hop (at row 5, on two rows in a
    # row and at the last row), all in one chunk, against the same steps one
    # by one from the map's product at each row's own reference.
    model, tables, manifold = di_bundle
    m, rows = model.m, 70
    cost = coupled_cost(2, 1, [0.3, 0.0], [0.2])
    hops = {5: cost.with_ref_x([0.1, 0.05]), 31: cost, 32: cost.with_ref_x([-0.2, 0.0]),
            50: cost.with_ref_x([0.25, -0.02]), 51: cost, rows - 1: cost.with_ref_x([0.0, 0.1])}
    costs = [cost]
    for j in range(1, rows):
        costs.append(hops.get(j, costs[-1]))
    refs = np.array([np.concatenate((c.ref_x, c.ref_u)) for c in costs])
    step_map = oco.QuadraticStepMap(tables, manifold, cost, 0.3)
    lifted = step_map.lifted(model.a, model.b)
    assert lifted.steps >= rows
    rng = np.random.default_rng(8)
    v, w = model.v_set.samples(rng, rows), model.w_set.samples(rng, rows)
    zeta = optimal_steady_state(manifold, cost, model)
    x, candidate = zeta[0], oco.initialize(model, tables, manifold, zeta, zeta[0]).plan[m:]
    got = lifted.run(step_map, x, candidate, refs, v, w)
    assert [len(column) for column in lifted.run(step_map, x, candidate, refs[:0], v[:0],
                                                 w[:0])] == [0] * 6
    want = [[] for _ in got]
    for j, c in enumerate(costs):
        x_meas = x + v[j]
        out = step_map.rows_at(x_meas, candidate, c.ref_x, c.ref_u)
        gap, g = out[step_map.gap], out[step_map.g]
        for column, value in zip(want, (x, x_meas, out, out[step_map.plan], out[step_map.u],
                                        [math.sqrt(gap @ gap), math.sqrt(g @ g)])):
            column.append(value)
        x = model.a @ x + model.b @ out[step_map.u] + w[j]
        candidate = out[step_map.plan][m:]
    for name, column, value in zip(("x", "x_meas", "outs", "plans", "u", "norms"), got, want):
        assert_close(column, value, REL, name)


COLUMNS = ("x", "x_meas", "outs", "plans", "u", "norms")


def stepwise(model, step_map, x, candidate, refs, v, w):
    """``LiftedSteps.run``'s six columns from the map's product at each row,
    one step at a time."""
    m, want = model.m, [[] for _ in COLUMNS]
    for j, ref in enumerate(refs):
        x_meas = x + v[j]
        out = step_map.rows_at(x_meas, candidate, ref)
        gap, g = out[step_map.gap], out[step_map.g]
        for column, value in zip(want, (x, x_meas, out, out[step_map.plan], out[step_map.u],
                                        [math.sqrt(gap @ gap), math.sqrt(g @ g)])):
            column.append(value)
        x = model.a @ x + model.b @ out[step_map.u] + w[j]
        candidate = out[step_map.plan][m:]
    return want


def hop_refs(cost, rows, hops):
    """One [ref_x; ref_u] row per step: ``cost``'s, with ref_x ``hops[j]``
    from row j on."""
    refs = np.tile(np.concatenate((cost.ref_x, cost.ref_u)), (rows, 1))
    for j in sorted(hops):
        refs[j:, :len(cost.ref_x)] = hops[j]
    return refs


def lifted_start(model, tables, manifold, cost, rows, seed):
    """A run's start at ``cost``'s optimal steady state, its initial plan's
    candidate, and ``rows`` rows of drawn v and w."""
    zeta = optimal_steady_state(manifold, cost, model)
    candidate = oco.initialize(model, tables, manifold, zeta, zeta[0]).plan[model.m:]
    rng = np.random.default_rng(seed)
    return zeta[0], candidate, model.v_set.samples(rng, rows), model.w_set.samples(rng, rows)


def non_contracting(scale, box, noise):
    """test_non_contracting_model's model for ``scale`` times its A, and
    its first and last weights."""
    a = scale * np.array([[-1.447, 4.85], [-1.195, -0.441]])
    b = np.array([[0.748], [0.689]])
    p = solve_discrete_are(a, b, np.eye(2), np.eye(1))
    k = -np.linalg.solve(np.eye(1) + b.T @ p @ b, b.T @ p @ a)
    model, tables, manifold = build(ModelConfig(
        a=a, b=b, k=k, mu=5, x_set=HPolytope.box([-box, -box], [box, box]),
        u_set=HPolytope.box([-box], [box]), w_set=Zonotope.box([noise, noise]),
        v_set=Zonotope.box([noise, noise])))
    first = QuadraticCost(np.eye(2), np.eye(1), [0.5, 0.0], [0.0])
    last = QuadraticCost(2.0 * np.eye(2), np.eye(1), [0.2, 0.0], [0.0])
    return model, tables, manifold, first, last


def test_lifted_steps_chain_chunks():
    # On the non-contracting model (||F^12||_F > RUN_AHEAD_GROWTH on the
    # map of its first weights), 80 rows go in chained chunks of at most 12
    # rows, each scanned from the last state of the chunk before, with hops
    # inside chunks and on two rows in a row; they agree with the steps one
    # by one.
    model, tables, manifold, first, _ = non_contracting(1.0, 5.0, 0.01)
    rows = 80
    step_map = oco.QuadraticStepMap(tables, manifold, first, 0.5)
    lifted = step_map.lifted(model.a, model.b)
    assert lifted.steps == 12 and rows > 6 * lifted.steps
    refs = hop_refs(first, rows, {5: [-0.5, 0.0], 11: [0.4, 0.1], 12: [0.5, 0.0],
                                  23: [-0.2, 0.0], 40: [0.1, -0.1], rows - 1: [0.5, 0.0]})
    x, candidate, v, w = lifted_start(model, tables, manifold, first, rows, 12)
    got = lifted.run(step_map, x, candidate, refs, v, w)
    for name, column, value in zip(COLUMNS, got, stepwise(model, step_map, x, candidate,
                                                          refs, v, w)):
        assert_close(column, value, REL, name)


def test_lifted_steps_full_block():
    # A block of RUN_AHEAD_BLOCK rows on the bundled double integrator's map
    # is one chunk, scanned in ten rounds (k = 1 ... 512), with hops at the
    # rounds' boundaries; it agrees with the steps one by one.
    _, model, tables, manifold, schedule, controller = generic_setup("double_integrator", "run")
    rows, cost = oco.RUN_AHEAD_BLOCK, schedule.cost_at(0)
    step_map = oco.QuadraticStepMap(tables, manifold, cost, controller.gamma)
    lifted = step_map.lifted(model.a, model.b)
    assert lifted.steps == rows and len(lifted.powers) == 10
    targets = [[0.6, 0.0], [-0.6, 0.0], [0.3, 0.05]]
    refs = hop_refs(cost, rows, {j: targets[i % 3] for i, j in enumerate(
        (1, 2, 3, 4, 5, 8, 9, 512, 513, 1023))})
    x, candidate, v, w = lifted_start(model, tables, manifold, cost, rows, 5)
    got = lifted.run(step_map, x, candidate, refs, v, w)
    for name, column, value in zip(COLUMNS, got, stepwise(model, step_map, x, candidate,
                                                          refs, v, w)):
        assert_close(column, value, REL, name)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_lifted_steps_non_finite_w(di_bundle, value):
    # A non-finite w at row 17 of one chunk: rows 0..17 are finite and agree
    # with the steps one by one, and every later row of every column holds a
    # non-finite entry.
    model, tables, manifold = di_bundle
    rows, bad = 40, 17
    cost = coupled_cost(2, 1, [0.3, 0.0], [0.2])
    step_map = oco.QuadraticStepMap(tables, manifold, cost, 0.3)
    refs = hop_refs(cost, rows, {9: [0.1, 0.05]})
    x, candidate, v, w = lifted_start(model, tables, manifold, cost, rows, 17)
    w[bad, 1] = value
    with np.errstate(all="ignore"):
        got = step_map.lifted(model.a, model.b).run(step_map, x, candidate, refs, v, w)
    want = stepwise(model, step_map, x, candidate, refs[:bad + 1], v, w)
    for name, column, expected in zip(COLUMNS, got, want):
        column = column.reshape(rows, -1)
        assert np.isfinite(column[:bad + 1]).all(), name
        assert_close(column[:bad + 1], expected, REL, name)
        assert not np.isfinite(column[bad + 1:]).all(axis=1).any(), name


def first_power_over(f):
    """The smallest j >= 1 with ||F^j||_F > RUN_AHEAD_GROWTH, at most
    RUN_AHEAD_BLOCK, by a plain power loop, and the powers F^1, F^2, F^4, ...
    below it."""
    power, doubling = np.eye(len(f)), []
    for j in range(1, oco.RUN_AHEAD_BLOCK + 1):
        power = f @ power
        if not np.linalg.norm(power) <= oco.RUN_AHEAD_GROWTH:
            return j, doubling
        if j & (j - 1) == 0 and j < oco.RUN_AHEAD_BLOCK:
            doubling.append(power)
    return oco.RUN_AHEAD_BLOCK, doubling


def settled_step(model, step_map):
    """F of the settled step s+ = F s + E [v; w] + C r, column by column
    from the map's rows at zero noise and reference."""
    n, m, ref = model.n, model.m, np.zeros(model.n + model.m)
    ns = n + step_map.g.stop - step_map.g.start

    def step(s):
        out = step_map.rows_at(s[:n], s[n:], ref)
        return np.concatenate((model.a @ s[:n] + model.b @ out[step_map.u],
                               out[step_map.plan][m:]))

    origin = step(np.zeros(ns))
    return np.column_stack([step(unit) - origin for unit in np.eye(ns)])


def test_steps_is_the_first_power_over_the_growth_bound():
    # ``steps`` against a plain power loop on the bundled double integrator's
    # and the regret sweep's maps (contracting: RUN_AHEAD_BLOCK) and on both
    # non-contracting models (12 and 7; 1 and 1, where F^1024 would
    # overflow, so building it must warn of nothing), and ``powers`` against
    # the loop's F^1, F^2, F^4, ... below ``steps``.
    maps = []
    for name, command in (("double_integrator", "run"), ("regret_sweep", "regret-sweep")):
        _, model, tables, manifold, schedule, controller = generic_setup(name, command)
        maps.append((model, oco.QuadraticStepMap(tables, manifold, schedule.cost_at(0),
                                                 controller.gamma)))
    for scale, box, noise in ((1.0, 5.0, 0.01), (8.0, 50.0, 0.001)):
        model, tables, manifold, first, last = non_contracting(scale, box, noise)
        maps += [(model, oco.QuadraticStepMap(tables, manifold, cost, 0.5))
                 for cost in (first, last)]
    found = []
    for model, step_map in maps:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lifted = oco.LiftedSteps(step_map, model.a, model.b)
        steps, doubling = first_power_over(settled_step(model, step_map))
        found.append(lifted.steps)
        assert lifted.steps == steps
        assert len(lifted.powers) == len(doubling)
        for power, want in zip(lifted.powers, doubling):
            assert_close(power.T, want, 1e-10, "power")
    assert found == [oco.RUN_AHEAD_BLOCK] * 2 + [12, 7, 1, 1]


@pytest.mark.parametrize("growth", [1e12, 1e40])
def test_steps_past_the_doubled_powers(monkeypatch, growth):
    # A bound raised so far that the first power over it comes after F^32,
    # where the gram products find it, on the non-contracting model's first
    # map (its spectral radius is about 1.42): ``steps`` and ``powers``
    # against the plain power loop.
    model, tables, manifold, first, _ = non_contracting(1.0, 5.0, 0.01)
    step_map = oco.QuadraticStepMap(tables, manifold, first, 0.5)
    monkeypatch.setattr(oco, "RUN_AHEAD_GROWTH", growth)
    lifted = oco.LiftedSteps(step_map, model.a, model.b)
    steps, doubling = first_power_over(settled_step(model, step_map))
    assert 32 < lifted.steps == steps < oco.RUN_AHEAD_BLOCK
    assert len(lifted.powers) == len(doubling) > 5
    for power, want in zip(lifted.powers, doubling):
        assert_close(power.T / np.linalg.norm(want), want / np.linalg.norm(want), 1e-10,
                     "power")


def test_rejected_steps_keep_work_linear(monkeypatch):
    # The bundled double integrator with gamma = 3.0 over 3,000 steps: the
    # steps with beta < 1 are rejected inside blocks that span the rest of
    # their weight pair's stretch (here the whole run: the hop at t = 150
    # keeps the pair). After each, the next block holds at most
    # RUN_AHEAD_STEPS steps, and each block kept whole doubles that, so the
    # rows computed stay linear in the horizon. The run agrees with the
    # steps one by one as every run here does, except that the rejected
    # steps, which take beta strictly inside (0, 1) from a closed-form
    # state, may differ in beta's last bits (see ``closed_loop``).
    cfg, model, tables, manifold, schedule, controller = generic_setup(
        "double_integrator", "run")
    controller = dataclasses.replace(controller, gamma=3.0)
    u0, horizon = np.zeros(model.m), 3000
    rows, ahead = [], simkit._LtiPlant.ahead

    def counted(plant, *args):
        out = ahead(plant, *args)
        rows.append(len(out[0]))
        return out

    def run():
        return simkit.run_closed_loop(
            model, tables, manifold, controller, schedule,
            DisturbancePolicy(kind="uniform_box", seed=1), horizon,
            zeta0=(model.g_k @ u0, u0), x0=np.asarray(cfg["model"]["x0"], float))

    with monkeypatch.context() as patch:
        steps = serial_steps(patch)
        patch.setattr(simkit._LtiPlant, "ahead", counted)
        got = run()
    with monkeypatch.context() as patch:
        patch.setattr(simkit, "_LtiPlant", StepByStep)
        want = run()
    assert_records_agree(got, want, REL)
    fractional = (want[0].beta > 0.0) & (want[0].beta < 1.0)
    assert got[0].beta[~fractional].tobytes() == want[0].beta[~fractional].tobytes()
    assert steps == expected_serial_steps(want[0], model, tables, manifold, controller.gamma)
    assert 150 not in steps and len(steps) >= 10
    assert np.flatnonzero(fractional).tolist() == steps
    assert sum(rows) <= 4 * horizon + oco.RUN_AHEAD_STEPS * len(steps)


def test_fresh_weight_arrays_keep_work_linear(monkeypatch):
    # The run of test_rejected_steps_keep_work_linear with new weight
    # arrays of equal value at every step: a new cost object of the same
    # weight pair on a rejected step does not reset the block cap, so the
    # run computes the same blocks as the run on shared arrays, and its
    # record is that run's to the bit.
    cfg, model, tables, manifold, schedule, controller = generic_setup(
        "double_integrator", "run")
    controller = dataclasses.replace(controller, gamma=3.0)
    u0, horizon = np.zeros(model.m), 3000
    ahead = simkit._LtiPlant.ahead

    def run(costs):
        rows = []

        def counted(plant, *args):
            out = ahead(plant, *args)
            rows.append(len(out[0]))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(simkit._LtiPlant, "ahead", counted)
            result = simkit.run_closed_loop(
                model, tables, manifold, controller, costs,
                DisturbancePolicy(kind="uniform_box", seed=1), horizon,
                zeta0=(model.g_k @ u0, u0), x0=np.asarray(cfg["model"]["x0"], float))
        return result, rows

    (shared, shared_rows), (fresh, fresh_rows) = run(schedule), run(FreshWeights(schedule))
    assert fresh_rows == shared_rows and sum(fresh_rows) <= 5 * horizon
    assert_records_agree(fresh, shared)


def test_one_step_blocks_keep_the_scan_linear(monkeypatch):
    # With RUN_AHEAD_GROWTH below ||F||_F, LiftedSteps.steps is 1 and a
    # chunk cannot advance, so every block is its first step, kept, on a
    # stretch it does not reach the end of: the next block's scan of the
    # schedule stops RUN_AHEAD_STEPS steps on, not at the stretch's end, and
    # the cost_at calls stay linear in the horizon. (The scaled-A models of
    # test_non_contracting_model have steps = 1 too, but run only steps 1 to
    # 3 ahead.) The run is the step-by-step run to the bit.
    cfg, model, tables, manifold, schedule, controller = generic_setup(
        "double_integrator", "run")
    cost, calls, blocks, horizon = schedule.cost_at(0), [], [], 600
    ahead = simkit._LtiPlant.ahead

    class Counted:
        def cost_at(self, t):
            calls.append(t)
            return cost

    def counted(plant, *args):
        out = ahead(plant, *args)
        blocks.append(len(out[0]))
        return out

    def run():
        u0 = np.zeros(model.m)
        return simkit.run_closed_loop(model, tables, manifold, controller, Counted(),
                                      DisturbancePolicy(seed=0), horizon,
                                      zeta0=(model.g_k @ u0, u0),
                                      x0=np.asarray(cfg["model"]["x0"], float))

    monkeypatch.setattr(oco, "RUN_AHEAD_GROWTH", 0.5)
    with monkeypatch.context() as patch:
        steps = serial_steps(patch)
        patch.setattr(simkit._LtiPlant, "ahead", counted)
        got = run()
    assert steps == [] and blocks == [1] * (horizon - 1)
    assert len(calls) <= (oco.RUN_AHEAD_STEPS + 2) * horizon
    with monkeypatch.context() as patch:
        patch.setattr(simkit, "_LtiPlant", StepByStep)
        assert_records_agree(got, run())


def test_drawn_models(monkeypatch):
    # Drawn models (n <= 3, m <= n) with two pieces on the first weights and
    # one on others, under drawn and worst-corner noise. The hop at step 20
    # keeps the weight arrays and runs ahead; the one at step 40 does not.
    ran = []

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(drawn_models())
    def check(drawn):
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
        controller = oco.ControllerConfig(gamma=0.5)
        for policy in (DisturbancePolicy(seed=3), DisturbancePolicy(kind="worst_corner")):
            _, steps = run_both(monkeypatch, lambda: simkit.run_closed_loop(
                model, tables, manifold, controller, schedule, policy, 60, zeta0=zeta0,
                x0=zeta0[0]))
            ran.append(len(steps))

    check()
    # most runs take all but their hop to other weights ahead
    assert len(ran) >= 12 and sum(steps <= 1 for steps in ran) >= len(ran) // 2


@pytest.mark.parametrize("scale, box, noise, steps, serial", [(1.0, 5.0, 0.01, [12, 7], 45),
                                                              (8.0, 50.0, 0.001, [1, 1], 57)])
def test_non_contracting_model(monkeypatch, scale, box, noise, steps, serial):
    # Models with K from the discrete Riccati equation, as drawn models have
    # it, whose settled steps are not contracting. With A as drawn, ||F^j||_F
    # passes RUN_AHEAD_GROWTH at j = 12 on the map of the first weights and
    # j = 7 on that of the last piece's, so blocks stop there; with A eight
    # times that, F itself passes it, every block is its first step, taken as
    # oco.step_row takes it, and the run is the step-by-step run to the bit (its
    # projections keep an S-bar facet active from step 4 on, so only steps 1
    # to 3 run ahead). Runs on two pieces of the first weights and one of
    # others agree with the steps one by one. The hop at step 20 keeps the
    # weight arrays, so it runs ahead, but for eight times A, where every
    # step from 4 on runs step by step.
    a = scale * np.array([[-1.447, 4.85], [-1.195, -0.441]])
    b = np.array([[0.748], [0.689]])
    p = solve_discrete_are(a, b, np.eye(2), np.eye(1))
    k = -np.linalg.solve(np.eye(1) + b.T @ p @ b, b.T @ p @ a)
    model, tables, manifold = build(ModelConfig(
        a=a, b=b, k=k, mu=5, x_set=HPolytope.box([-box, -box], [box, box]),
        u_set=HPolytope.box([-box], [box]), w_set=Zonotope.box([noise, noise]),
        v_set=Zonotope.box([noise, noise])))
    first = QuadraticCost(np.eye(2), np.eye(1), [0.5, 0.0], [0.0])
    last = QuadraticCost(2.0 * np.eye(2), np.eye(1), [0.2, 0.0], [0.0])
    step_maps = [oco.QuadraticStepMap(tables, manifold, cost, 0.5) for cost in (first, last)]
    assert [step_map.lifted(a, b).steps for step_map in step_maps] == steps
    # a map builds its LiftedSteps once and keeps it
    assert step_maps[0].lifted(a, b) is step_maps[0].lifted(a, b)
    schedule = PiecewiseSchedule(((0, first), (20, first.with_ref_x([-0.5, 0.0])), (40, last)))
    zeta0 = optimal_steady_state(manifold, first, model)
    for policy in (DisturbancePolicy(seed=3), DisturbancePolicy(kind="worst_corner")):
        def run():
            return simkit.run_closed_loop(model, tables, manifold, oco.ControllerConfig(gamma=0.5),
                                          schedule, policy, 60, zeta0=zeta0, x0=zeta0[0])

        ahead, taken = run_both(monkeypatch, run)
        assert (20 in taken) == (steps == [1, 1]) and len(taken) <= serial
        if steps == [1, 1]:
            with monkeypatch.context() as patch:
                patch.setattr(simkit, "_LtiPlant", StepByStep)
                assert_records_agree(ahead, run())


class TestFailures:
    @pytest.fixture
    def lti(self, di_bundle):
        """run(edit, schedule, abort): ``closed_loop`` on the module's
        ``_LtiPlant`` over 40 steps, after ``edit(plant)``."""
        model, tables, manifold = di_bundle
        cost = coupled_cost(2, 1, [0.3, 0.0], [0.2])
        zeta0 = optimal_steady_state(manifold, cost, model)

        def run(edit=None, schedule=ConstantSchedule(cost), abort=False):
            plant = simkit._LtiPlant(model, schedule, DisturbancePolicy(seed=0), zeta0[0], 40)
            if edit is not None:
                edit(plant)
            return simkit.closed_loop(model, tables, manifold, oco.ControllerConfig(gamma=0.3),
                                      plant, 40, zeta0, abort_on_violation=abort)

        return model, cost, run

    def test_nan_in_the_plants_own_noise(self, lti, monkeypatch):
        # v[4] is NaN: the block from step 1 ends before step 4, the next
        # block holds no step, and oco.step_row fails step 4 as it fails any
        # non-finite measurement.
        _, _, run = lti

        def edit(plant):
            plant.v[4] = np.nan

        result, steps = run_both(monkeypatch, lambda: run(edit))
        t, reason, cause, inner = result[:4]
        assert (t, cause, inner) == (4, StepError, ValueError)
        assert "x_meas has non-finite entries" in reason
        assert steps == [4]

    @pytest.mark.parametrize("stream, value, failed", [("w", np.nan, 21), ("v", np.inf, 20)])
    def test_non_finite_noise_inside_a_block(self, lti, monkeypatch, stream, value, failed):
        # A non-finite w at step 20 reaches x at step 21, a non-finite v at
        # step 20 reaches x_meas at step 20: the block of steps 1..32 ends
        # before that step (its products would spread the value over the
        # whole block), and oco.step_row fails it alone.
        _, _, run = lti

        def edit(plant):
            getattr(plant, stream)[20] = value

        result, steps = run_both(monkeypatch, lambda: run(edit))
        t, reason, cause, inner = result[:4]
        assert (t, cause, inner) == (failed, StepError, ValueError)
        assert "x_meas has non-finite entries" in reason
        assert steps == [failed] and len(result[4]) == failed

    def test_misfit_cost_at_a_hop(self, lti, monkeypatch):
        # A cost with the wrong ref_x arrives at step 10: that step runs step
        # by step and aborts the run before the controller sees it.
        _, cost, run = lti
        misfit = dataclasses.replace(cost, ref_x=np.zeros(3))
        result, steps = run_both(monkeypatch, lambda: run(
            schedule=PiecewiseSchedule(((0, cost), (10, misfit)))))
        assert result[0] == 10 and "do not fit n=2, m=1" in result[1]
        assert steps == []
        assert len(result[4]) == 10

    def test_violation_inside_a_block_aborts_at_its_row(self, lti, monkeypatch):
        # The w of steps 20 and 22 (inside the block of steps 1..32) leaves
        # W: the run aborts at 20 with the serial message, rows and ledger.
        model, _, run = lti

        def edit(plant):
            plant.w[[20, 22]] = 3.0 * model.w_set.corner()

        result, steps = run_both(monkeypatch, lambda: run(edit, abort=True))
        assert result[0] == 20 and result[1].startswith("invariant violation: resid_ok")
        assert len(result[4]) == 21 and steps == []


ROW_KINDS = ("plain", "x_meas", "entry", "guess_boundary", "grad_boundary", "tiny_gap",
             "reach_boundary", "worst_boundary")


def per_row(step_map, manifold, x_meas, out, tol):
    """``oco.step_row``'s decision on one step: does it take the map's rows whole?"""
    try:
        as_vector(x_meas)
    except ValueError:
        return False
    if not rows_kept(manifold.projector, out[step_map.grad], out[step_map.viol]):
        return False
    gap = out[step_map.gap]
    return bool(oco._rows_settle(math.sqrt(gap @ gap), float(np.max(out[step_map.base])),
                                 float(np.max(out[step_map.reach])), tol))


def test_batched_rule_matches_the_step(di_bundle):
    # oco.settled_rows on a block against the step's own tests row by row,
    # on map rows edited to NaN and +-inf entries, guess rows at the 0.1 tol
    # slack boundary and the gradient bound, zero and tiny gaps (up to 2e-12),
    # and reach and worst residuals at their bounds. Both sides decide the
    # guess on the map's grad and viol rows.
    model, tables, manifold = di_bundle
    cost = coupled_cost(2, 1, [0.3, 0.0], [0.2])
    step_map = oco.QuadraticStepMap(tables, manifold, cost, 0.3)
    zeta = optimal_steady_state(manifold, cost, model)
    plan0 = oco.initialize(model, tables, manifold, zeta, zeta[0]).plan
    tol = model.membership_tol
    nudges = st.integers(-3, 3)
    specials = st.sampled_from([np.nan, np.inf, -np.inf])

    def nudge(value, k):
        for _ in range(abs(k)):
            value = np.nextafter(value, np.inf if k > 0 else -np.inf)
        return value

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def check(data):
        rows = data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        x_meas, outs = [], []
        for _ in range(rows):
            x = zeta[0] + rng.normal(0.0, 0.3, 2)
            out = step_map.rows_at(x, plan0[model.m:] + rng.normal(0.0, 0.2, plan0.size - 1),
                                   cost.ref_x, cost.ref_u).copy()
            kind = data.draw(st.sampled_from(ROW_KINDS))
            if kind == "x_meas":
                x = x.copy()
                x[data.draw(st.integers(0, 1))] = data.draw(specials)
            elif kind == "entry":
                block = data.draw(st.sampled_from(["eta", "linear", "grad", "viol", "base",
                                                   "reach", "gap"]))
                span = getattr(step_map, block)
                out[data.draw(st.integers(span.start, span.stop - 1))] = data.draw(specials)
            elif kind in ("guess_boundary", "grad_boundary"):
                # every S-bar row inside, one on the stopping test's bound,
                # or the stationarity row on the gradient bound
                viol = np.full(step_map.viol.stop - step_map.viol.start, -1.0)
                grad = np.zeros(step_map.grad.stop - step_map.grad.start)
                if kind == "guess_boundary":
                    facet = data.draw(st.integers(0, viol.size - 1))
                    viol[facet] = nudge(manifold.projector.stop_tol, data.draw(nudges))
                else:
                    grad[0] = nudge(manifold.projector.tol, data.draw(nudges))
                out[step_map.viol], out[step_map.grad] = viol, grad
            elif kind == "tiny_gap":
                direction = rng.normal(size=2)
                size = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
                out[step_map.gap] = size * 1e-12 * direction / np.linalg.norm(direction)
            elif kind == "reach_boundary":
                out[step_map.reach] = np.minimum(out[step_map.reach], -1.0)
                out[step_map.reach.start] = data.draw(st.sampled_from([0.0, -0.0, 5e-324]))
            elif kind == "worst_boundary":
                out[step_map.base] = np.minimum(out[step_map.base], -1.0)
                out[step_map.base.start] = nudge(tol, data.draw(nudges))
            x_meas.append(x)
            outs.append(out)
        x_meas, outs = np.array(x_meas), np.array(outs)
        with np.errstate(all="ignore"):
            gap_norms = np.array([math.sqrt(out[step_map.gap] @ out[step_map.gap])
                                  for out in outs])
            batched = oco.settled_rows(step_map, manifold, x_meas, outs, gap_norms, tol)
            want = [per_row(step_map, manifold, x, out, tol) for x, out in zip(x_meas, outs)]
        assert batched.tolist() == want

    check()
