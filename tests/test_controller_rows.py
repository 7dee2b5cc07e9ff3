"""``oco.step``, the public single step, against the loop's row step.

``oco.step`` is ``oco.step_row`` on a record of two rows. Taken by hand from
each row t - 1 of a run (its plan and t, with row t's x_meas and the
previous step's cost, step map and reference), it must give every
controller column of row t to the bit, and the ``StepDiagnostics`` that
``trace[t]`` reads. The loop itself builds no ``ControllerState`` or
``StepDiagnostics`` in its steps.
"""

from pathlib import Path

import numpy as np
import pytest

from ocorobust import cli, simkit, vehicle
from ocorobust import oco_controller as oco
from ocorobust.plant import build_model, build_tightening, steady_state_manifold

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class Fixed:
    """A rollout builder that gives one step's (map, offset shift)."""

    def __init__(self, rollout):
        self._rollout = rollout

    def rollout(self):
        return self._rollout


def bits(value):
    return np.asarray(value, float).tobytes()


def assert_rows_by_hand(trace, model, tables, manifold, controller, rollouts=None):
    """Take every step t >= 1 of ``trace`` by hand with ``oco.step`` and
    compare it with row t. ``rollouts`` holds each step's rollout (map,
    shift) when the run's rollout builder has a state of its own."""
    for t in range(1, len(trace)):
        entry = trace.pairs[trace.pair[t - 1]]
        assert entry.step_map is not None
        state = oco.ControllerState(
            plan=trace.plan[t - 1].copy(),
            zeta_hat=(trace.theta_hat[t - 1], trace.eta_hat[t - 1]), t=int(trace.t[t - 1]))
        options = controller
        if rollouts is not None:
            options = oco.ControllerConfig(controller.gamma, controller.c_g,
                                           Fixed(rollouts[t - 1]))
        ref = np.concatenate([trace.ref_x[t - 1], trace.ref_u[t - 1]])
        u, new, diag = oco.step(state, model, tables, manifold, trace.x_meas[t].copy(),
                                entry.cost, options, entry.step_map, ref)
        assert new.t == t
        assert bits(u) == bits(trace.u[t]), t
        assert bits(new.plan) == bits(trace.plan[t]), t
        assert bits(new.zeta_hat[0]) == bits(trace.theta_hat[t]), t
        assert bits(new.zeta_hat[1]) == bits(trace.eta_hat[t]), t
        assert bits(diag.pred_state) == bits(trace.pred_state[t]), t
        assert bits([diag.beta, diag.g_norm]) == bits([trace.beta[t], trace.g_norm[t]]), t
        kkt = np.nan if diag.kkt_residual is None else diag.kkt_residual
        assert bits(kkt) == bits(trace.kkt_residual[t]), t
        assert (diag.candidate_feasible, diag.g_fallback) == (trace.candidate_ok[t],
                                                              trace.g_fallback[t]), t
        view = trace[t].diagnostics
        assert (diag.beta, diag.g_norm, diag.candidate_feasible, diag.g_fallback) == (
            view.beta, view.g_norm, view.candidate_feasible, view.g_fallback)
        assert diag.kkt_residual == view.kkt_residual  # None where the column is NaN
        for got, want in ((diag.pred_state, view.pred_state),
                          (diag.ogd_target[0], view.ogd_target[0]),
                          (diag.ogd_target[1], view.ogd_target[1])):
            assert bits(got) == bits(want), t


@pytest.mark.parametrize("variant", ["optimized", "explicit"])
def test_vehicle_rows(variant, monkeypatch):
    setup = vehicle.vehicle_setup()
    model, tables, manifold = setup.model, setup.tables, setup.manifold
    params = setup.params
    for seed in (0, 1):
        rollouts, real = [], vehicle._RoadPlant.rollout
        with monkeypatch.context() as patch:
            patch.setattr(vehicle._RoadPlant, "rollout",
                          lambda plant: rollouts.append(real(plant)) or rollouts[-1])
            trace, _, _ = vehicle.run_scenario(variant, seed=seed, setup=setup)
        controller = oco.ControllerConfig(gamma=params.gamma, c_g=params.c_g)
        assert len(rollouts) == (len(trace) - 1 if variant == "optimized" else 0)
        assert_rows_by_hand(trace, model, tables, manifold, controller,
                            rollouts if variant == "optimized" else None)
        # steps that blend (beta < 1), on both weight pairs
        assert (trace.beta[1:] < 1.0).any() and trace.pair.max() == 1


def test_double_integrator_rows(step_by_step):
    cfg = cli.load_config(CONFIGS / "double_integrator.cfg", command="run")
    model = build_model(cli._model_config(cfg))
    tables = build_tightening(model)
    manifold = steady_state_manifold(model, model.p_rpi, shrink=cfg["controller"]["shrink"])
    schedule = cli._schedule(cfg)
    u0 = np.zeros(model.m)
    for variant in ("explicit", "optimized"):
        cfg["controller"]["variant"] = variant
        controller = cli._controller(cfg, model, schedule)
        trace, _ = simkit.run_closed_loop(model, tables, manifold, controller, schedule,
                                          simkit.DisturbancePolicy(seed=0),
                                          cfg["experiment"]["horizon"],
                                          zeta0=(model.g_k @ u0, u0), x0=cfg["model"]["x0"])
        # the optimized steps report the rollout QP's KKT residual
        assert np.isnan(trace.kkt_residual[1:]).all() == (variant == "explicit")
        assert_rows_by_hand(trace, model, tables, manifold, controller)


def test_loop_steps_build_no_state_or_diagnostics(monkeypatch):
    # Each run builds one ControllerState, initialize's for row 0, and no
    # StepDiagnostics until a view of a row is read.
    built = {"ControllerState": 0, "StepDiagnostics": 0}
    for name in built:
        cls = getattr(oco, name)
        real = cls.__init__

        def counted(self, *args, _real=real, _name=name, **kwargs):
            built[_name] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    setup = vehicle.vehicle_setup()
    for variant in ("optimized", "explicit"):
        trace, _, _ = vehicle.run_scenario(variant, seed=0, setup=setup)
        assert built == {"ControllerState": 1, "StepDiagnostics": 0}
        built["ControllerState"] = 0
    trace[5].diagnostics
    assert built == {"ControllerState": 0, "StepDiagnostics": 1}
