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


COST_PIECE = """
[{name}]
start = {start}
q_x = [[1.0]]
q_u = [[1.0]]
ref_x = [0.0]
ref_u = [0.0]
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

    @pytest.mark.parametrize("old, new, field", [
        ("gamma = 0.3", "gamma = nan", "controller.gamma"),
        ("ref_x = [0.4]", "ref_x = [-1e999]", "cost.0.ref_x"),
        ("a = [[1.0]]", "a = [[1e999]]", "model.a"),
    ], ids=["float", "vector", "matrix"])
    def test_non_finite_value_is_config_error(self, tmp_path, old, new, field):
        cfg = write_cfg(tmp_path, MINI_GENERIC.replace(old, new))
        with pytest.raises(ConfigError, match=field):
            load_config(cfg)
        for command in ("validate", "run"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                         "--quiet"]) == 2

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

        real_step = oco_controller.step_row

        def failing_step(rows, i, *args, **kwargs):
            if i == 5:
                raise StepError(5, RuntimeError("controller died"))
            return real_step(rows, i, *args, **kwargs)

        monkeypatch.setattr(oco_controller, "step_row", failing_step)
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

    def test_validate_misshaped_b_fails_cleanly(self, tmp_path, capsys):
        broken = MINI_GENERIC.replace("b = [[1.0]]", "b = [[1.0], [1.0]]")
        cfg = write_cfg(tmp_path, broken)
        assert main(["validate", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] model assembly  (b or k shape inconsistent with a)" in captured.out
        assert "Traceback" not in captured.out + captured.err
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "b or k shape inconsistent with a" in capsys.readouterr().err

    def test_validate_four_states_fails_as_model_assembly(self, tmp_path, capsys):
        eye4 = str([[0.5 if i == j else 0.0 for j in range(4)] for i in range(4)])
        text = MINI_GENERIC
        for old, new in (("a = [[1.0]]", f"a = {eye4}"),
                         ("b = [[1.0]]", "b = [[1.0], [0.0], [0.0], [0.0]]"),
                         ("k = [[-0.5]]", "k = [[0.0, 0.0, 0.0, 0.0]]"),
                         ("x_lb = [-2.0]", "x_lb = [-2.0, -2.0, -2.0, -2.0]"),
                         ("x_ub = [2.0]", "x_ub = [2.0, 2.0, 2.0, 2.0]"),
                         ("w_halfwidth = [0.05]", "w_halfwidth = [0.05, 0.05, 0.05, 0.05]"),
                         ("v_halfwidth = [0.02]", "v_halfwidth = [0.02, 0.02, 0.02, 0.02]"),
                         ("q_x = [[1.0]]", f"q_x = {eye4}"),
                         ("ref_x = [0.4]", "ref_x = [0.4, 0.0, 0.0, 0.0]")):
            text = text.replace(old, new)
        cfg = write_cfg(tmp_path, text)
        assert main(["validate", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert out.startswith("[FAIL] model assembly  (n=4 states")
        assert "n <= 3" in out

    def test_validate_three_states_with_small_tail_set(self, tmp_path, capsys):
        # A_K = diag(0.29, 0.10, -0.04) and mu = 7: the tail set is tiny and
        # nearly flat, which must give check lines, not a traceback
        def diag(*d):
            return str([[v if i == j else 0.0 for j in range(3)] for i, v in enumerate(d)])

        text = MINI_GENERIC
        for old, new in (("a = [[1.0]]", f"a = {diag(1.0, 1.0, 1.0)}"),
                         ("b = [[1.0]]", f"b = {diag(1.0, 1.0, 1.0)}"),
                         ("k = [[-0.5]]", f"k = {diag(-0.71, -0.90, -1.04)}"),
                         ("x_lb = [-2.0]", "x_lb = [-10.0, -10.0, -10.0]"),
                         ("x_ub = [2.0]", "x_ub = [10.0, 10.0, 10.0]"),
                         ("u_lb = [-1.0]", "u_lb = [-5.0, -5.0, -5.0]"),
                         ("u_ub = [1.0]", "u_ub = [5.0, 5.0, 5.0]"),
                         ("w_halfwidth = [0.05]", "w_halfwidth = [0.05, 0.05, 0.05]"),
                         ("v_halfwidth = [0.02]", "v_halfwidth = [0.01, 0.01, 0.01]"),
                         ("mu = 3", "mu = 7"),
                         ("q_x = [[1.0]]", f"q_x = {diag(1.0, 1.0, 1.0)}"),
                         ("q_u = [[1.0]]", f"q_u = {diag(1.0, 1.0, 1.0)}"),
                         ("ref_x = [0.4]", "ref_x = [0.4, 0.0, 0.0]"),
                         ("ref_u = [0.0]", "ref_u = [0.0, 0.0, 0.0]")):
            assert old in text
            text = text.replace(old, new)
        assert main(["validate", "--config", write_cfg(tmp_path, text)]) == 0
        captured = capsys.readouterr()
        assert [line[:6] for line in captured.out.splitlines()] == ["[pass]"] * 13
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("command", ["run", "validate", "regret-sweep"])
    def test_repeated_cost_index_exits_2(self, tmp_path, capsys, command):
        text = MINI_GENERIC + SWEEP_TAIL + COST_PIECE.format(name="cost.00", start=10)
        assert main([command, "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "field 'cost.00': index repeats [cost.0]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate", "regret-sweep"])
    def test_decreasing_cost_starts_exit_2(self, tmp_path, capsys, command):
        text = (MINI_GENERIC + SWEEP_TAIL + COST_PIECE.format(name="cost.1", start=150)
                + COST_PIECE.format(name="cost.2", start=100))
        assert main([command, "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "field 'cost.2.start'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate", "regret-sweep"])
    def test_equal_cost_starts_exit_2(self, tmp_path, capsys, command):
        # a piece that starts with the one before would silently replace it
        text = MINI_GENERIC + SWEEP_TAIL + COST_PIECE.format(name="cost.1", start=0)
        assert main([command, "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert ("field 'cost.1.start': start does not follow the previous piece's"
                in capsys.readouterr().err)

    def test_unknown_disturbance_kind_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI_GENERIC.replace(
            "[disturbance]\n", "[disturbance]\nkind = seeded_sequence\n"))
        assert main(["validate", "--config", cfg]) == 2

    def test_validate_x0_uses_membership_tol(self, tmp_path, capsys):
        # x0 is 5e-7 outside X, within membership_tol: run accepts it, so
        # validate must too
        text = MINI_GENERIC.replace("v_halfwidth = [0.02]\n",
                                    "v_halfwidth = [0.02]\nx0 = [2.0000005]\n")
        text = text.replace("gamma = 0.3\n",
                            "gamma = 0.3\nmembership_tol = 1e-6\nzeta0_u = [0.5]\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["validate", "--config", cfg]) == 0
        assert "[pass] x0 inside X" in capsys.readouterr().out
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0

    def test_validate_failed_assumption_lists_checks_before_it(self, tmp_path, capsys):
        broken = MINI_GENERIC.replace("mu = 3", "mu = 3\nrpi_epsilon = 0.01").replace(
            "x_lb = [-2.0]", "x_lb = [-0.15]").replace("x_ub = [2.0]", "x_ub = [0.15]")
        assert main(["validate", "--config", write_cfg(tmp_path, broken)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line[:6] for line in lines] == ["[pass]"] * 6 + ["[FAIL]"]
        assert lines[-1].startswith("[FAIL] RPI set P inside X  (")

    def test_validate_non_pd_cost_is_the_last_failed_check(self, tmp_path, capsys):
        broken = MINI_GENERIC.replace("q_u = [[1.0]]", "q_u = [[0.0]]")
        assert main(["validate", "--config", write_cfg(tmp_path, broken)]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line[:6] for line in lines] == ["[pass]"] * 12 + ["[FAIL]"]
        assert lines[-1] == ("[FAIL] gamma within contraction range  "
                             "(closed-loop cost Hessian is not positive definite)")
        assert captured.err == ""


# Labels and statuses validate prints for the bundled configs, in order.
GENERIC_CHECKS = [
    ("pass", "disturbance sets contain 0 (Assumption on W, V)"),
    ("pass", "(A, B) controllable"),
    ("pass", "X, U compact with 0 interior"),
    ("pass", "A + BK certified Schur"),
    ("pass", "horizon covers controllability index (mu >= mu*)"),
    ("pass", "S_c full row rank"),
    ("pass", "RPI set P inside X"),
    ("pass", "tightened stage sets nonempty"),
    ("pass", "steady-state manifold nonempty with 0 interior"),
    ("pass", "c_g covers the explicit-solution norm"),
    ("pass", "initial plan feasible (initialization assumption)"),
    ("pass", "x0 inside X"),
    ("pass", "gamma within contraction range"),
]
VEHICLE_CHECKS = GENERIC_CHECKS[:-1] + [("warn", "gamma within contraction range")]


@pytest.mark.parametrize("name, expected", [
    ("double_integrator.cfg", GENERIC_CHECKS),
    ("regret_sweep.cfg", GENERIC_CHECKS),
    ("vehicle_optimized.cfg", VEHICLE_CHECKS),
    ("vehicle_explicit.cfg", VEHICLE_CHECKS),
])
def test_validate_check_list_of_bundled_configs(name, expected):
    cfg = load_config(CONFIGS / name, command="validate")
    checks, _ = _validation_checks(cfg)
    assert [(status, label) for label, status, _ in checks] == expected

class TestDeterministicOutput:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, MINI_GENERIC)
        main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--quiet"])
        for name in ("trace_0000.csv", "ledger_0000.csv", "invariants.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("stem", ["double_integrator", "vehicle_optimized",
                                      "vehicle_explicit"])
    def test_bundled_invariants_match_golden(self, tmp_path, stem):
        # tests/golden/<stem>/invariants.txt is the recorded output of
        # `ocorobust run --config configs/<stem>.cfg`; any change to it is a
        # change of the output contract and must be re-recorded on purpose.
        assert main(["run", "--config", str(CONFIGS / f"{stem}.cfg"),
                     "--out", str(tmp_path), "--quiet"]) == 0
        golden = REPO / "tests" / "golden" / stem / "invariants.txt"
        assert (tmp_path / "invariants.txt").read_bytes() == golden.read_bytes()

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


class TestCountsBelowOne:
    @pytest.mark.parametrize("old, new, field", [
        ("horizon = 25", "horizon = 0", "experiment.horizon"),
        ("seeds = 1", "seeds = 0", "experiment.seeds"),
        ("horizon = 25", "horizon = -3", "experiment.horizon"),
    ])
    def test_run_and_validate_exit_2(self, tmp_path, capsys, old, new, field):
        cfg = write_cfg(tmp_path, MINI_GENERIC.replace(old, new))
        for command in ("run", "validate"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                         "--quiet"]) == 2
            err = capsys.readouterr().err
            assert f"field '{field}'" in err and "must be at least 1" in err
        assert not (tmp_path / "o" / "invariants.txt").exists()

    @pytest.mark.parametrize("old, new, field", [
        ("horizon = 30", "horizon = 0", "sweep.horizon"),
        ("seeds_per_cell = 2", "seeds_per_cell = 0", "sweep.seeds_per_cell"),
    ])
    def test_regret_sweep_exit_2(self, tmp_path, capsys, old, new, field):
        cfg = write_cfg(tmp_path, MINI_GENERIC + SWEEP_TAIL.replace(old, new))
        assert main(["regret-sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--quiet"]) == 2
        assert f"field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "s" / "sweep_rows.csv").exists()


class TestPathLevels:
    """A path level is a hop count, and each hop needs a step of its own: a
    level below 0, or one that rounds to sweep.horizon hops or more, is a
    config error naming the field (exit 2) in regret-sweep and validate."""

    @pytest.mark.parametrize("new", ["path_levels = [0, 30]", "path_levels = [-1]",
                                     "path_levels = [29.6]"])
    @pytest.mark.parametrize("command", ["regret-sweep", "validate"])
    def test_exit_2(self, tmp_path, capsys, command, new):
        cfg = write_cfg(tmp_path, MINI_GENERIC + SWEEP_TAIL.replace("path_levels = [0]", new))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "s"), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert "field 'sweep.path_levels'" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "s" / "sweep_rows.csv").exists()

    @pytest.mark.parametrize("command", ["regret-sweep", "validate"])
    def test_bundled_design_on_a_short_horizon_exits_2(self, tmp_path, capsys, command):
        text = (CONFIGS / "regret_sweep.cfg").read_text()
        assert text.count("horizon = 400") == 2
        cfg = write_cfg(tmp_path, text.replace("horizon = 400", "horizon = 5"))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "s"), "--quiet"]) == 2
        assert "field 'sweep.path_levels'" in capsys.readouterr().err

    def test_one_hop_per_step_runs(self, tmp_path):
        # 29.4 rounds to 29 hops on 30 steps: a hop at every step after step 0
        cfg = write_cfg(tmp_path, MINI_GENERIC + SWEEP_TAIL.replace("path_levels = [0]",
                                                                    "path_levels = [29.4]"))
        assert main(["regret-sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--quiet"]) == 0
        assert len((tmp_path / "s" / "sweep_rows.csv").read_text().splitlines()) == 1 + 2


class TestSweepDirection:
    """The hops move ref_x along sweep.direction, so it has one entry per
    state of model.a: a longer one (which numpy cannot broadcast) or a
    shorter one (which it would broadcast to another design) is a config
    error naming the field (exit 2) in regret-sweep and validate."""

    @pytest.mark.parametrize("new", ["direction = [1.0, 0.0, 0.0]", "direction = [1.0]"])
    @pytest.mark.parametrize("command", ["regret-sweep", "validate"])
    def test_bundled_design_exits_2(self, tmp_path, capsys, command, new):
        text = (CONFIGS / "regret_sweep.cfg").read_text()
        assert text.count("direction = [1.0, 0.0]\n") == 1
        cfg = write_cfg(tmp_path, text.replace("direction = [1.0, 0.0]\n", new + "\n"))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "s"), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert "field 'sweep.direction'" in captured.err and "(2)" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "s" / "sweep_rows.csv").exists()

    def test_one_entry_per_state_runs(self, tmp_path):
        # The 1-state model of MINI_GENERIC with its one-entry direction.
        cfg = write_cfg(tmp_path, MINI_GENERIC + SWEEP_TAIL)
        assert main(["validate", "--config", cfg, "--quiet"]) == 0
        too_long = write_cfg(tmp_path, MINI_GENERIC + SWEEP_TAIL.replace(
            "direction = [1.0]", "direction = [1.0, 0.0]"))
        assert main(["validate", "--config", too_long, "--quiet"]) == 2


class TestFloatBounds:
    """Out-of-range floats, and negative seeds, are config errors naming the
    field (exit 2) in every command, before anything is built or run."""

    @pytest.mark.parametrize("old, new, field, message", [
        ("seed = 0", "seed = 0\nscale = 2.0", "disturbance.scale", "must be at most 1"),
        ("seed = 0", "seed = 0\nscale = -0.5", "disturbance.scale", "must be at least 0"),
        ("gamma = 0.3", "gamma = 0.3\nshrink = 1.5", "controller.shrink", "must be at most 1"),
        ("gamma = 0.3", "gamma = 0.3\nshrink = 0.0", "controller.shrink", "must be above 0"),
        ("gamma = 0.3", "gamma = 0.0", "controller.gamma", "must be above 0"),
        ("gamma = 0.3", "gamma = -1.0", "controller.gamma", "must be above 0"),
        ("noise_levels = [1.0]", "noise_levels = [0.5, 1.5]", "sweep.noise_levels",
         "must be at most 1"),
        ("noise_levels = [1.0]", "noise_levels = [-0.1]", "sweep.noise_levels",
         "must be at least 0"),
        ("seed = 0", "seed = -3", "disturbance.seed", "must be at least 0"),
        ("hop_size = 0.3", "hop_size = 0.3\nbase_seed = -1", "sweep.base_seed",
         "must be at least 0"),
    ])
    @pytest.mark.parametrize("command", ["run", "validate", "regret-sweep"])
    def test_exit_2(self, tmp_path, capsys, command, old, new, field, message):
        text = MINI_GENERIC + SWEEP_TAIL
        assert text.count(old) == 1
        cfg = write_cfg(tmp_path, text.replace(old, new))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert f"field '{field}'" in captured.err and message in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists() or not any(out.iterdir())

    def test_negative_seed_option_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI_GENERIC)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out), "--seed", "-1", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert "field '--seed'" in captured.err and "must be at least 0" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    def test_bounds_are_inclusive_where_the_range_is_closed(self, tmp_path):
        text = (MINI_GENERIC + SWEEP_TAIL).replace("seed = 0", "seed = 0\nscale = 0.0").replace(
            "gamma = 0.3", "gamma = 0.3\nshrink = 1.0").replace(
            "noise_levels = [1.0]", "noise_levels = [0.0, 1.0]")
        cfg = load_config(write_cfg(tmp_path, text), command="regret-sweep")
        assert cfg["disturbance"]["scale"] == 0.0
        assert cfg["controller"]["shrink"] == 1.0
        assert list(cfg["sweep"]["noise_levels"]) == [0.0, 1.0]


class TestAbortNamesSeed:
    def test_abort_line_names_the_seed(self, tmp_path, capsys):
        # With no slack left in the membership tolerance, seed 0 of the
        # bundled double integrator finishes and seed 1 aborts at t=153.
        text = (CONFIGS / "double_integrator.cfg").read_text()
        cfg = write_cfg(tmp_path, text.replace("seeds = 1", "seeds = 2").replace(
            "variant = explicit", "variant = explicit\nmembership_tol = -1.0"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("aborted: seed 1: simulation aborted at t=153: ")
        assert len((tmp_path / "o" / "trace_partial.csv").read_text().splitlines()) == 1 + 153
        # the seed that finished leaves no CSV, and no report is written
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["trace_partial.csv"]

    def test_failed_initialization_names_the_seed(self, tmp_path, capsys):
        # x_meas = x0 + v[0]: from x0 = -1.91, seed 0 starts inside the
        # tightened constraints and seed 1 does not.
        text = MINI_GENERIC.replace("v_halfwidth = [0.02]\n",
                                    "v_halfwidth = [0.02]\nx0 = [-1.91]\n")
        one = write_cfg(tmp_path, text)
        assert main(["run", "--config", one, "--out", str(tmp_path / "one"), "--quiet"]) == 0
        three = write_cfg(tmp_path, text.replace("seeds = 1", "seeds = 3"), name="three.cfg")
        assert main(["run", "--config", three, "--out", str(tmp_path / "o"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed 1: initial plan violates tightened constraints")
        assert list((tmp_path / "o").iterdir()) == []


def test_generic_resid_violations_fail_the_run(tmp_path, monkeypatch, capsys):
    # The plant applies its drawn w but reports one outside W on step 4: the
    # only failing flag is resid_ok, and run counts it like the vehicle does.
    # Its own advance makes the loop run it step by step.
    from ocorobust import simkit

    class Kicked(simkit._LtiPlant):
        def advance(self, u):
            w = super().advance(u)
            return w + 1.0 if self.t == 4 else w

    monkeypatch.setattr(simkit, "_LtiPlant", Kicked)
    cfg = write_cfg(tmp_path, MINI_GENERIC)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "violations=1 " in capsys.readouterr().out
    report = (tmp_path / "o" / "invariants.txt").read_text()
    assert "  model-mismatch violations: 1\n" in report
    assert "flag_resid_ok" in (tmp_path / "o" / "trace_0000.csv").read_text().splitlines()[0]


class TestVehicleRuns:
    def test_non_finite_reference_aborts_the_seed(self, tmp_path, monkeypatch, capsys):
        # A NaN gap measurement at step 60 makes that phase-2 step's
        # reference NaN: the run aborts at its step, names the seed and
        # writes the 60 rows before it.
        from test_vehicle import nan_gap_at

        nan_gap_at(monkeypatch, 60)
        code = main(["run", "--config", str(CONFIGS / "vehicle_explicit.cfg"),
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("aborted: seed 0: simulation aborted at t=60: controller step t=60 "
                       "failed: ref has non-finite entries\n")
        assert len((tmp_path / "o" / "trace_partial.csv").read_text().splitlines()) == 1 + 60

    def test_settled_speed_line_only_with_a_phase3_window(self, tmp_path):
        # 40 steps hold no phase 3, so invariants.txt has no settled speed;
        # 250 steps end with a whole window of it.
        for horizon, listed in ((40, False), (250, True)):
            cfg = write_cfg(tmp_path, VEHICLE_SHORT.replace("horizon = 40",
                                                            f"horizon = {horizon}"))
            out = tmp_path / f"h{horizon}"
            assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            report = (out / "invariants.txt").read_text()
            assert ("  phase3 settled speed [km/h]: " in report) == listed

    def test_explicit_zero_c_g_is_kept(self, tmp_path, capsys):
        # c_g = 0.0 is a value, not an absent key: both verbs reject it
        cfg = write_cfg(tmp_path, VEHICLE_SHORT.replace("c_g = 1000.0", "c_g = 0.0"))
        assert main(["validate", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] c_g covers the explicit-solution norm" in out
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "v"), "--quiet"]) == 1
        assert "c_g=0 below the required norm bound" in capsys.readouterr().err
        # a config-level fault: checked once before the seeds, naming none
        cfg = write_cfg(tmp_path, VEHICLE_SHORT.replace("c_g = 1000.0", "c_g = 0.0")
                        .replace("seeds = 1", "seeds = 3"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "s"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: c_g=0 below the required norm bound ") and "seed" not in err
        assert err.count("\n") == 1 and not any((tmp_path / "s").iterdir())

    def test_variant_override(self, tmp_path):
        cfg = write_cfg(tmp_path, VEHICLE_SHORT)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "v"),
                     "--variant", "explicit", "--quiet"])
        assert code == 0
        report = (tmp_path / "v" / "invariants.txt").read_text()
        assert "model-mismatch violations: 0" in report
