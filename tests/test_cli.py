from pathlib import Path

import pytest

from ocorobust.cli import (
    _model_config,
    _validation_checks,
    load_config,
    main,
    parse_config_text,
)
from ocorobust.errors import ConfigError
from ocorobust.plant import build_model

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

MINI_GENERIC = """
[experiment]
scenario = generic
horizon = 25
seeds = 1

[model]
a = [[1.0]]
b = [[1.0]]
k = [[-0.5]]
x_lb = [-2.0]
x_ub = [2.0]
u_lb = [-1.0]
u_ub = [1.0]
w_halfwidth = [0.05]
v_halfwidth = [0.02]

[controller]
mu = 3
gamma = 0.3

[cost.0]
start = 0
q_x = [[1.0]]
q_u = [[1.0]]
ref_x = [0.4]
ref_u = [0.0]

[disturbance]
seed = 0
"""


def write_cfg(tmp_path, text, name="test.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("[model]\nnot a pair\n")
        assert err.value.line == 2

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("a = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("[model]\na = 1\na = 2\n")

    def test_unknown_section(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI_GENERIC + "\n[extra]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI_GENERIC + "\n[output]\ncolor = red\n")
        with pytest.raises(ConfigError, match="output.color"):
            load_config(cfg)

    def test_missing_required_key_names_field(self, tmp_path):
        broken = MINI_GENERIC.replace("mu = 3\n", "")
        cfg = write_cfg(tmp_path, broken)
        with pytest.raises(ConfigError, match="controller.mu"):
            load_config(cfg)

    def test_bad_matrix_value(self, tmp_path):
        broken = MINI_GENERIC.replace("a = [[1.0]]", "a = [1.0]")
        cfg = write_cfg(tmp_path, broken)
        with pytest.raises(ConfigError, match="model.a"):
            load_config(cfg)

    def test_defaults_filled(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINI_GENERIC))
        assert cfg["controller"]["shrink"] == 0.99
        assert cfg["controller"]["variant"] == "explicit"
        assert cfg["output"]["out_dir"] == "out"


class TestExitCodes:
    def test_missing_mu_exit_2(self, tmp_path, capsys):
        broken = MINI_GENERIC.replace("mu = 3\n", "")
        cfg = write_cfg(tmp_path, broken)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "controller.mu" in capsys.readouterr().err

    def test_clean_run_exit_0(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI_GENERIC)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 0
        assert (tmp_path / "o" / "trace_0000.csv").exists()
        assert (tmp_path / "o" / "ledger_0000.csv").exists()
        assert (tmp_path / "o" / "invariants.txt").exists()

    def test_trace_rows_equal_one_plus_horizon(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI_GENERIC)
        main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        lines = (tmp_path / "o" / "trace_0000.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 25

    def test_abort_on_violation_clean_run_completes(self, tmp_path):
        # tube_marginal is an early warning, not a violation: it must not abort
        plain = write_cfg(tmp_path, MINI_GENERIC, "plain.cfg")
        abort = write_cfg(tmp_path, MINI_GENERIC.replace(
            "seeds = 1\n", "seeds = 1\nabort_on_violation = true\n"), "abort.cfg")
        assert main(["run", "--config", plain, "--out", str(tmp_path / "a"), "--quiet"]) == 0
        assert main(["run", "--config", abort, "--out", str(tmp_path / "b"), "--quiet"]) == 0
        assert not (tmp_path / "b" / "trace_partial.csv").exists()
        for name in ("trace_0000.csv", "ledger_0000.csv", "invariants.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_vehicle_abort_writes_flagged_partial_trace(self, tmp_path, monkeypatch, capsys):
        from ocorobust import oco_controller
        from ocorobust.errors import StepError

        real_step = oco_controller.step

        def failing_step(state, *args, **kwargs):
            if state.t + 1 == 5:
                raise StepError(5, RuntimeError("controller died"))
            return real_step(state, *args, **kwargs)

        monkeypatch.setattr(oco_controller, "step", failing_step)
        code = main(["run", "--config", str(CONFIGS / "vehicle_explicit.cfg"),
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert "aborted" in capsys.readouterr().err
        header, *rows = (tmp_path / "o" / "trace_partial.csv").read_text().splitlines()
        assert len(rows) == 5
        flags = [i for i, col in enumerate(header.split(",")) if col.startswith("flag_")]
        assert all(row.split(",")[i] in ("0", "1") for row in rows for i in flags)

    def test_validate_bundled_configs(self):
        for name in ("double_integrator.cfg", "vehicle_optimized.cfg",
                     "vehicle_explicit.cfg"):
            assert main(["validate", "--config", str(CONFIGS / name)]) == 0

    def test_validate_catches_rpi_overflow(self, tmp_path, capsys):
        broken = MINI_GENERIC.replace("x_lb = [-2.0]", "x_lb = [-0.15]")
        broken = broken.replace("x_ub = [2.0]", "x_ub = [0.15]")
        cfg = write_cfg(tmp_path, broken)
        assert main(["validate", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_validate_catches_unstable_feedback(self, tmp_path, capsys):
        broken = MINI_GENERIC.replace("k = [[-0.5]]", "k = [[0.0]]")
        cfg = write_cfg(tmp_path, broken)
        assert main(["validate", "--config", cfg]) == 1
        assert "Schur" in capsys.readouterr().out

    def test_validate_checks_the_model_run_builds(self, tmp_path):
        text = MINI_GENERIC.replace("gamma = 0.3\n",
                                    "gamma = 0.3\nmembership_tol = 1e-6\nrpi_epsilon = 0.01\n")
        cfg = load_config(write_cfg(tmp_path, text), command="validate")
        _, model = _validation_checks(cfg)
        assert model.membership_tol == 1e-6
        run_model = build_model(_model_config(cfg))
        assert model.p_rpi.epsilon_bound == run_model.p_rpi.epsilon_bound


class TestDeterministicOutput:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI_GENERIC)
        main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--quiet"])
        for name in ("trace_0000.csv", "ledger_0000.csv", "invariants.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI_GENERIC)
        main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "9",
              "--quiet"])
        assert (tmp_path / "a" / "trace_0000.csv").read_bytes() != (
            tmp_path / "b" / "trace_0009.csv").read_bytes()


SWEEP_TAIL = """
[sweep]
path_levels = [0]
noise_levels = [1.0]
seeds_per_cell = 2
horizon = 30
hop_size = 0.3
direction = [1.0]
"""


class TestSweepCommand:
    def test_single_cell_skips_fit(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI_GENERIC + SWEEP_TAIL)
        code = main(["regret-sweep", "--config", cfg, "--out", str(tmp_path / "s")])
        assert code == 0
        rows = (tmp_path / "s" / "sweep_rows.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2
        assert "skipped" in (tmp_path / "s" / "sweep_fit.txt").read_text()

    def test_full_design_reports_fit(self, tmp_path):
        full = MINI_GENERIC + SWEEP_TAIL.replace(
            "path_levels = [0]", "path_levels = [0, 2, 4]").replace(
            "noise_levels = [1.0]", "noise_levels = [0.0, 0.5, 1.0]").replace(
            "horizon = 30", "horizon = 120")
        cfg = write_cfg(tmp_path, full)
        code = main(["regret-sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--quiet"])
        assert code == 0
        fit = (tmp_path / "s" / "sweep_fit.txt").read_text()
        assert "r_squared" in fit

    def test_negative_coefficient_exits_one(self, tmp_path, monkeypatch, capsys):
        import numpy as np

        import ocorobust.cli as cli
        from ocorobust.simkit import SweepResult

        def fake_experiment(*args, **kwargs):
            rows = [{"path_level": 0, "noise_level": 0.0, "seed": 0,
                     "path_length": 1.0, "w_energy": 1.0, "v_energy": 0.0,
                     "regret": 1.0}]
            return SweepResult(rows=rows,
                               coefficients=np.array([0.0, -1.0, 0.5]),
                               r_squared=0.9)

        monkeypatch.setattr(cli, "regret_scaling_experiment", fake_experiment)
        cfg = write_cfg(tmp_path, MINI_GENERIC + SWEEP_TAIL)
        code = main(["regret-sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--quiet"])
        assert code == 1
        assert "negative" in capsys.readouterr().err


VEHICLE_SHORT = """
[experiment]
scenario = vehicle
horizon = 40
seeds = 1

[controller]
mu = 10
gamma = 0.7
c_g = 1000.0
variant = optimized

[vehicle]
sensor_noise_scale = 0.0
linear_truth = true

[disturbance]
seed = 0
"""


class TestVehicleRuns:
    def test_variant_override(self, tmp_path):
        cfg = write_cfg(tmp_path, VEHICLE_SHORT)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "v"),
                     "--variant", "explicit", "--quiet"])
        assert code == 0
        report = (tmp_path / "v" / "invariants.txt").read_text()
        assert "model-mismatch violations: 0" in report
