"""The face rows against the projector's GI they stand in for.

A map step whose projection guess the projector rejects takes the point
GI's first iteration reaches from the map's own rows: the rows plus the
row's multiplier times one face (``oco._face_rows``), kept where GI would
stop there and the projector's rule keeps that point. Every face-decided
step must agree with the same step from the same row with the faces off
(``conftest.faces_off``: the step goes to ``oco.project_manifold``, and
the projector's GI answers it): theta_hat, eta_hat, g, the plan and u
within 1e-12 (1 + |.|), g_fallback the same, and beta the same where
either side is 1 and within 1e-12 (1 + beta) below 1; over whole runs,
every column within 1e-12 and every flag the same. The census pins which
steps the faces decide.
"""

from pathlib import Path

import pytest

from ocorobust import cli, vehicle
from ocorobust import oco_controller as oco
from ocorobust.denseqp import PrefactoredQp
from ocorobust.plant import SteadyStateManifold

from conftest import (
    assert_close,
    assert_records_agree,
    assert_steps_agree,
    count_faces,
    faces_off,
    row_state,
    row_step,
    step_with,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# Rejected projection guesses on vehicle seeds 0..9; on every one S-bar's
# row 1 becomes active, and GI's first iteration settles the projection.
REJECTED = {"explicit": 561, "optimized": 666}


@pytest.mark.parametrize("variant", ["explicit", "optimized"])
def test_vehicle_faces_decide_every_rejected_guess(variant, monkeypatch):
    setup = vehicle.vehicle_setup()
    step, real_cold = oco.step_row, PrefactoredQp._cold
    decided, fallbacks, compared = count_faces(monkeypatch), [], []

    def counted_cold(solver, *args):
        fallbacks.append(solver is setup.manifold.projector)
        return real_cold(solver, *args)

    def checked(rows, i, model, *args):
        calls = len(decided)
        step(rows, i, model, *args)
        if len(decided) == calls or not decided[-1]:
            return
        got = row_step(rows, i)
        with monkeypatch.context() as patch:
            faces_off(patch)
            patch.setattr(PrefactoredQp, "_cold", real_cold)
            want = step_with(patch, step, row_state(rows, i - 1), model, *args)
        assert_steps_agree(got, want)
        (_, state, diag), (_, state_ref, diag_ref) = got, want
        if 1.0 in (diag.beta, diag_ref.beta):
            assert diag.beta == diag_ref.beta
        if diag.beta > 0.0:
            # g from the plan: candidate + beta g, then eta_hat
            m, candidate = model.m, rows.plan[i - 1, model.m:]
            assert_close((state.plan[:-m] - candidate) / diag.beta,
                         (state_ref.plan[:-m] - candidate) / diag_ref.beta, 1e-12, "g")
        compared.append(diag.beta)

    monkeypatch.setattr(PrefactoredQp, "_cold", counted_cold)
    monkeypatch.setattr(oco, "step_row", checked)
    runs = [vehicle.run_scenario(variant, seed=seed, setup=setup)[:2] for seed in range(10)]
    assert len(decided) == sum(decided) == len(compared) == REJECTED[variant]
    assert not any(fallbacks)  # the benchmark's solver runs GI on its own
    assert 0.0 < min(compared) < 1.0 == max(compared)  # both beta branches seen
    with monkeypatch.context() as patch:
        faces_off(patch)
        patch.setattr(oco, "step_row", step)
        for seed, run in enumerate(runs):
            assert_records_agree(run, vehicle.run_scenario(variant, seed=seed, setup=setup)[:2],
                                 rel=1e-12)
    assert sum(fallbacks) == REJECTED[variant]


@pytest.mark.parametrize("command,name,variant", [
    ("run", "double_integrator", "explicit"), ("run", "double_integrator", "optimized"),
    ("regret-sweep", "regret_sweep", "explicit")])
def test_bundled_generic_configs_reject_no_guess(command, name, variant, tmp_path, monkeypatch):
    # The projector keeps every guess on these designs, so the faces and
    # the projector's GI never run and their outputs do not depend on them.
    projectors, rejected = [], []
    real_init, real_cold = SteadyStateManifold.__post_init__, PrefactoredQp._cold

    def built(manifold):
        real_init(manifold)
        projectors.append(manifold.projector)

    def counted(solver, *args):
        if any(solver is projector for projector in projectors):
            rejected.append(1)
        return real_cold(solver, *args)

    monkeypatch.setattr(SteadyStateManifold, "__post_init__", built)
    monkeypatch.setattr(PrefactoredQp, "_cold", counted)
    decided = count_faces(monkeypatch)
    assert cli.main([command, "--config", str(CONFIGS / f"{name}.cfg"), "--variant", variant,
                     "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert projectors and not rejected and not decided
