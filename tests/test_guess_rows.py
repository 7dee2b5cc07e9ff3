"""The projection's guess decided on the step map's own rows.

``oco.QuadraticStepMap`` composes the projector's stacked products of its
guess eta (the stationarity rows H eta + linear and the S-bar rows A eta - b)
into its matrix, and ``oco.step_row`` and ``oco.settled_rows`` decide the guess
from those rows with ``PrefactoredQp.keeps``. The verdicts must be those of
the single solve's own test (``PrefactoredQp._from_guess``, on eta and the
linear term) on every step-by-step step, and those of ``kept_rows`` (which
forms the products itself, as ``PrefactoredQp.guess_rows`` does) on every
block row: on vehicle seeds 0-9, the bundled double integrator, drawn models
and the 18 runs of the bundled sweep design with seeds 0 and 1. At an S-bar facet, a few ulps either side, both
keep the guess; a row with NaN or inf is rejected.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from ocorobust import cli, simkit, vehicle
from ocorobust import oco_controller as oco
from ocorobust.errors import OcoRobustError
from ocorobust.plant import (
    QuadraticCost,
    build_model,
    build_tightening,
    cost_curvature,
    optimal_steady_state,
    steady_state_manifold,
)

from conftest import guess_kept, rows_kept
from test_drawn_models import HORIZON, GreedyAdversaryPlant, build, drawn_models
from test_step_map import coupled_cost

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def map_verdicts(step_map, manifold, out):
    """(the rule on the map's rows, the single solve's test) of one step."""
    projector = manifold.projector
    return (bool(projector.keeps(out[step_map.grad], out[step_map.viol])),
            guess_kept(projector, out[step_map.linear], out[step_map.eta],
                       manifold.sbar.offsets))


def kept_rows(projector, x, linears, offsets):
    """``keeps`` on each row of ``x`` as the unconstrained optimum of the
    matching row of ``linears``, on stacked products from one product."""
    prod = x @ projector.stacked.T
    n = x.shape[1]
    return projector.keeps(prod[:, :n] + linears, prod[:, n:] - offsets)


@pytest.fixture
def serial_verdicts(monkeypatch):
    """While active, every ``oco.step_row`` given a map records both verdicts
    on its map rows; returns the list of them."""
    real, seen = oco.step_row, []

    def step(rows, i, model, tables, manifold, x_meas, grad_prev, options, step_map=None,
             ref=None):
        if step_map is not None:
            x, candidate = np.asarray(x_meas, float), rows.plan[i - 1, model.m:]
            out = (step_map.rows_at(x, candidate, grad_prev.ref_x, grad_prev.ref_u)
                   if ref is None else step_map.rows_at(x, candidate, ref))
            seen.append(map_verdicts(step_map, manifold, out))
        return real(rows, i, model, tables, manifold, x_meas, grad_prev, options, step_map, ref)

    monkeypatch.setattr(oco, "step_row", step)
    return seen


def assert_agree(verdicts, count):
    """``count`` steps, each with both verdicts the same; returns how many
    guesses were kept."""
    assert len(verdicts) == count
    assert [mine for mine, _ in verdicts] == [want for _, want in verdicts]
    return sum(mine for mine, _ in verdicts)


def test_vehicle_serial_steps(serial_verdicts):
    setup = vehicle.vehicle_setup(vehicle.VehicleParams())
    for seed in range(10):
        for variant in ("optimized", "explicit"):
            vehicle.run_scenario(variant, seed=seed, setup=setup)
    assert 0 < assert_agree(serial_verdicts, 10 * 2 * 299) < 10 * 2 * 299


def test_double_integrator_serial_steps(serial_verdicts, step_by_step):
    cfg = cli.load_config(CONFIGS / "double_integrator.cfg", command="run")
    model = build_model(cli._model_config(cfg))
    tables = build_tightening(model)
    manifold = steady_state_manifold(model, model.p_rpi, shrink=cfg["controller"]["shrink"])
    schedule = cli._schedule(cfg)
    u0 = np.zeros(model.m)
    horizon = cfg["experiment"]["horizon"]
    for variant in ("explicit", "optimized"):
        cfg["controller"]["variant"] = variant
        simkit.run_closed_loop(model, tables, manifold, cli._controller(cfg, model, schedule),
                               schedule, simkit.DisturbancePolicy(seed=0), horizon,
                               zeta0=(model.g_k @ u0, u0), x0=cfg["model"]["x0"])
    assert assert_agree(serial_verdicts, 2 * (horizon - 1)) > 0


def test_drawn_models_serial_steps(serial_verdicts):
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
        schedule = simkit.PiecewiseSchedule(((0, first),
                                             (HORIZON // 2, first.with_ref_x(targets[1]))))
        zeta0 = optimal_steady_state(manifold, first, model)
        gamma = 1.0 / cost_curvature(first, model)[1]
        for builder in (None, oco.QuadraticRolloutBuilder(model, np.eye(n), np.eye(m))):
            simkit.closed_loop(model, tables, manifold,
                               oco.ControllerConfig(gamma=gamma, rollout_builder=builder),
                               GreedyAdversaryPlant(model, schedule, zeta0[0]), HORIZON, zeta0)

    check()
    count = len(serial_verdicts)
    assert count >= 10 * 2 * (HORIZON - 1)
    assert 0 < assert_agree(serial_verdicts, count) < count


def test_sweep_block_rows(monkeypatch):
    cfg = cli.load_config(CONFIGS / "regret_sweep.cfg", command="regret-sweep")
    sw = cfg["sweep"]
    model = build_model(cli._model_config(cfg))
    tables = build_tightening(model)
    manifold = steady_state_manifold(model, model.p_rpi, shrink=cfg["controller"]["shrink"])
    schedule = cli._schedule(cfg)
    generator = simkit.AlternatingTargetGenerator(
        model=model, manifold=manifold, base_cost=schedule.cost_at(0),
        direction=tuple(sw["direction"]), levels=tuple(sw["path_levels"]),
        hop_size=sw["hop_size"], horizon=sw["horizon"])
    real, blocks = oco.settled_rows, []

    def settled(step_map, manifold, x_meas, outs, gap_norms, tol):
        projector = manifold.projector
        blocks.append((projector.keeps(outs[:, step_map.grad], outs[:, step_map.viol]),
                       kept_rows(projector, outs[:, step_map.eta], outs[:, step_map.linear],
                                 manifold.sbar.offsets)))
        return real(step_map, manifold, x_meas, outs, gap_norms, tol)

    monkeypatch.setattr(oco, "settled_rows", settled)
    result = simkit.regret_scaling_experiment(
        model, tables, manifold, cli._controller(cfg, model, schedule), generator,
        dist_levels=list(sw["noise_levels"]), seeds=[0, 1], horizon=sw["horizon"])
    assert len(result.rows) == 18
    mine, want = (np.concatenate(side) for side in zip(*blocks))
    assert len(mine) >= 18 * (sw["horizon"] - 1)
    assert np.array_equal(mine, want)


@pytest.fixture
def di_map(di_bundle):
    model, tables, manifold = di_bundle
    cost = coupled_cost(2, 1, [0.3, 0.0], [0.2])
    zeta = optimal_steady_state(manifold, cost, model)
    plan = oco.initialize(model, tables, manifold, zeta, zeta[0]).plan
    return oco.QuadraticStepMap(tables, manifold, cost, 0.3), manifold, zeta[0], plan[1:], cost


def nudge(value, k):
    for _ in range(abs(k)):
        value = np.nextafter(value, np.inf if k > 0 else -np.inf)
    return value


def test_guess_on_a_facet(di_map):
    # The state reference moves eta along a line; at each S-bar facet it
    # crosses, and a few ulps either side, both rules keep the guess, and
    # far beyond it both reject it.
    step_map, manifold, x, candidate, cost = di_map
    direction = np.array([1.0, 0.0])

    def rows(s):
        return step_map.rows_at(x, candidate, cost.ref_x + s * direction, cost.ref_u)

    viol0, slope = rows(0.0)[step_map.viol], rows(1.0)[step_map.viol] - rows(0.0)[step_map.viol]
    crossings = 0
    for facet in np.flatnonzero(slope):
        s = -viol0[facet] / slope[facet]
        for k in range(-4, 5):
            out = rows(nudge(s, k))
            assert abs(out[step_map.viol][facet]) <= 1e-12
            assert map_verdicts(step_map, manifold, out) == (True, True)
        far = rows(s + np.sign(slope[facet]) * 1.0)
        assert map_verdicts(step_map, manifold, far) == (False, False)
        crossings += 1
    assert crossings == 2


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_are_rejected(di_map, value):
    step_map, manifold, x, candidate, cost = di_map
    projector = manifold.projector
    for i in range(x.size):
        bad = x.copy()
        bad[i] = value
        with np.errstate(invalid="ignore"):
            out = step_map.rows_at(bad, candidate, cost.ref_x, cost.ref_u)
            assert map_verdicts(step_map, manifold, out) == (False, False)
    # each entry of the rows alone, one row at a time and in a batch, against
    # the single solve's test on the same numbers
    out = step_map.rows_at(x, candidate, cost.ref_x, cost.ref_u)
    grad, viol = out[step_map.grad], out[step_map.viol]
    grads, viols = [], []
    for rows, i in [("grad", i) for i in range(grad.size)] + [("viol", i)
                                                             for i in range(viol.size)]:
        g, v = grad.copy(), viol.copy()
        (g if rows == "grad" else v)[i] = value
        with np.errstate(invalid="ignore"):
            assert not projector.keeps(g, v)
            assert not rows_kept(projector, g, v)
        grads.append(g)
        viols.append(v)
    grads.append(grad)
    viols.append(viol)
    with np.errstate(invalid="ignore"):
        batch = projector.keeps(np.array(grads), np.array(viols))
    assert batch.tolist() == [False] * (len(grads) - 1) + [True]
