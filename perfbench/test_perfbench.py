"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402,F401  (puts this checkout's src/ on sys.path)
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return json.loads(workloads.REFERENCES.read_text())


@pytest.fixture(scope="module")
def vehicle_round():
    wl = workloads.VehicleMc()
    ctx = wl.context(None)
    return wl, ctx, wl.run_round(ctx, 0)


def test_round_matches_its_reference(refs, vehicle_round):
    wl, ctx, raw = vehicle_round
    outcomes = wl.check_round(ctx, 0, raw, refs["vehicle_mc"])
    assert [o.problems for o in outcomes] == [[], []]
    assert [o.steps for o in outcomes] == [300, 300]


def test_perturbed_reference_is_caught(refs, vehicle_round):
    wl, ctx, raw = vehicle_round
    for field in range(len(refs["vehicle_mc"]["optimized/0"])):
        bad = copy.deepcopy(refs["vehicle_mc"])
        want = bad["optimized/0"][field]
        bad["optimized/0"][field] = want + 1e-4 * max(1.0, abs(want))
        outcomes = wl.check_round(ctx, 0, raw, bad)
        assert outcomes[0].problems, f"perturbed field {field} passed"
        assert not outcomes[1].problems


def test_tolerance_admits_rounding_level_changes(refs, vehicle_round):
    wl, ctx, raw = vehicle_round
    near = copy.deepcopy(refs["vehicle_mc"])
    near["optimized/0"] = [w * (1 + 1e-9) for w in near["optimized/0"]]
    assert not wl.check_round(ctx, 0, raw, near)[0].problems


def test_sweep_round_checks_fit_and_references(refs):
    wl = workloads.DiSweep()
    ctx = wl.context(None)
    raw = wl.run_round(ctx, 3)
    assert all(not o.problems for o in wl.check_round(ctx, 3, raw, refs["di_sweep"]))
    bad = copy.deepcopy(refs["di_sweep"])
    bad["4/0.5/3"][2] *= 1.001    # the replicate's cumulative regret
    flagged = [o.key for o in wl.check_round(ctx, 3, raw, bad) if o.problems]
    assert flagged == ["4/0.5/3"]
    from ocorobust import cli, simkit

    assert simkit.run_closed_loop is cli.run_closed_loop  # capture wrapper removed


def test_fallback_counters_reproduce_the_recorded_baseline():
    """17 of the 2990 optimized steps of seeds 0..9 fall back, all on the
    c_g cap (the rollout QP itself always returns optimal)."""
    from ocorobust import vehicle

    spans = tracer.Tracer()
    spans.install({"vehicle.run_scenario": layers.LOOP_TARGETS["vehicle.run_scenario"],
                   "oco.additional_input_optimized":
                       layers.LOOP_TARGETS["oco.additional_input_optimized"],
                   "denseqp.solve": layers.LOOP_TARGETS["denseqp.solve"]}, layers.HOOKS)
    try:
        for seed in range(10):
            vehicle.run_scenario(variant="optimized", seed=seed, horizon_steps=300)
    finally:
        spans.uninstall()
    c = spans.counters
    assert (c["optimized_steps"], c["fallbacks"]) == (2990, 17)
    assert (c["fallback_exception"], c["fallback_status_cap"]) == (0, 17)
    assert c["qp.rollout.non_optimal"] == 0
    assert vehicle.run_scenario.__name__ == "run_scenario"
    assert not hasattr(vehicle.run_scenario, "__wrapped__")


def test_timer_scales_each_operation_by_the_kernel_calls_around_it(monkeypatch):
    kernel = iter([0.01, 0.02, 0.04, 0.01, 0.2])
    monkeypatch.setattr(calibrate, "kernel_cpu_s", lambda n=None: next(kernel))
    clock = iter([0.0, 0.5, 1.0, 3.0])
    timer = calibrate.CalibratedTimer(lambda: next(clock))
    assert timer(lambda x: x + 1, 1) == 2
    timer(lambda: None)
    # 0.01 | op 1 | 0.02, 0.04 | op 2 | 0.01, 0.2: calls are added until the
    # kernel's total reaches SHARE of the operations' total.
    scaled = timer.finish()
    assert timer.cal == [[0.01, 0.02, 0.04], [0.02, 0.04, 0.01, 0.2]]
    ref = calibrate.REFERENCE_S
    assert scaled == pytest.approx([0.5 * ref / (0.07 / 3), 2.0 * ref / (0.27 / 4)])


def test_timer_samples_beside_a_child_process():
    timer = calibrate.CalibratedTimer(workloads.children_cpu_time)
    code = timer.run_process([sys.executable, "-c", "sum(range(3_000_000))"], timeout=60)
    assert code == 0
    assert len(timer.ops) == 1 and timer.ops[0] > 0
    assert len(timer.cal) == 1 and timer.cal[0]
    assert timer.finish()[0] > 0


def test_missing_target_is_reported_absent():
    targets = dict(layers.LOOP_TARGETS, **{"simkit._step_flags": "ocorobust.simkit:_gone"})
    spans = tracer.Tracer()
    spans.install(targets, layers.HOOKS)
    spans.uninstall()
    assert spans.absent == ["simkit._step_flags"]
    data = tracer.merge([spans.to_json()])
    data["absent"] |= {"oco.max_beta"}
    metrics, absent = layers.layer_metrics(data, 1.0, 1.0)
    assert absent == ["oco.max_beta.self_us"]
    assert "simkit.monitors.us_per_step" in metrics


def test_self_time_excludes_children():
    spans = tracer.Tracer()
    spans.install({"plant.stage_values": layers.LOOP_TARGETS["plant.stage_values"],
                   "plant.membership_zu": layers.LOOP_TARGETS["plant.membership_zu"]})
    try:
        from ocorobust import plant

        wl = workloads.VehicleMc()
        setup = wl.context(None)
        x = [0.0, 0.0]
        u = [0.0] * (setup.model.mu * setup.model.m)
        for _ in range(50):
            plant.membership_zu(setup.tables, setup.model, x, u)
    finally:
        spans.uninstall()
    outer = spans.spans[("plant.membership_zu", None)]
    inner = spans.spans[("plant.stage_values", "plant.membership_zu")]
    assert outer[0] == inner[0] == 50
    assert outer[2] == pytest.approx(outer[1] - inner[1], abs=1e-9)


def test_fails_without_the_program(tmp_path):
    """Given only the benchmark's own files, it exits non-zero with no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "vehicle_mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
