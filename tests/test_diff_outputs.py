"""``tools/diff_outputs.py``'s cell ratios, file verdicts and exit code, on
small hand-made output trees (the CLI is never started)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "diff_outputs.py"
SPEC = importlib.util.spec_from_file_location("diff_outputs", TOOL)
diff_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(diff_outputs)

TRACE = "t,x_0,beta\n0,1.0,1.0\n1,-2.5,0.75\n"
LEDGER = "t,cost\n0,3.0\n1,4.0\n# cum_regret = 1.5\n# path_length = 0.25\n"


def tree(root, files):
    """Write ``files`` ({relative path: text}) under ``root``; returns it."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def csv_pair(tmp_path, parent, change):
    return tree(tmp_path / "a", {"f.csv": parent}) / "f.csv", \
        tree(tmp_path / "b", {"f.csv": change}) / "f.csv"


def test_identical_files(tmp_path, capsys):
    files = {"run/trace_0000.csv": TRACE, "run/ledger_0000.csv": LEDGER,
             "run/stdout.txt": "ok\n"}
    failures, largest = diff_outputs.compare(tree(tmp_path / "a", files),
                                             tree(tmp_path / "b", files))
    assert (failures, largest) == (0, (0.0, None, None))
    assert capsys.readouterr().out.count(": identical") == 3


def test_roundoff_ratio_per_column(tmp_path):
    # |a - b| / (1e-9 + 1e-6 |a|): 2.5e-12 against -2.5 is 2.5e-12 / 2.501e-6
    ratios = diff_outputs.csv_ratios(*csv_pair(
        tmp_path, TRACE, TRACE.replace("-2.5,", "-2.5000000000025,")))
    assert ratios["beta"] == ratios["t"] == 0.0
    assert ratios["x_0"] == pytest.approx(2.5e-12 / (1e-9 + 2.5e-6), rel=1e-3)


def test_ledger_total_line_is_a_column(tmp_path):
    ratios = diff_outputs.csv_ratios(*csv_pair(
        tmp_path, LEDGER, LEDGER.replace("cum_regret = 1.5", "cum_regret = 1.5000003")))
    assert ratios["cum_regret"] == pytest.approx(3e-7 / (1e-9 + 1.5e-6), rel=1e-6)
    assert ratios["cost"] == 0.0
    renamed = diff_outputs.csv_ratios(*csv_pair(
        tmp_path, LEDGER, LEDGER.replace("# path_length", "# w_energy")))
    assert renamed == "line 'path_length' -> 'w_energy'"


@pytest.mark.parametrize("change", [TRACE.replace("x_0", "x_1"),  # header
                                    TRACE + "2,0.0,1.0\n",  # one more row
                                    TRACE.replace(",0.75", "")])  # one cell less
def test_header_or_shape_change(tmp_path, change):
    assert diff_outputs.csv_ratios(*csv_pair(tmp_path, TRACE, change)) == (
        "header or shape differs")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "n/a"])
def test_non_finite_or_non_numeric_cell(tmp_path, cell):
    reason = diff_outputs.csv_ratios(*csv_pair(tmp_path, TRACE, TRACE.replace("0.75", cell)))
    assert reason == f"column beta: '0.75' -> '{cell}'"


def test_failures_and_largest_ratio(tmp_path, capsys):
    parent = tree(tmp_path / "a", {"r/trace.csv": TRACE, "r/ledger.csv": LEDGER,
                                   "r/invariants.txt": "0\n", "r/gone.txt": ""})
    change = tree(tmp_path / "b", {
        "r/trace.csv": TRACE.replace("-2.5,", "-2.5000000001,"),  # within tolerance
        "r/ledger.csv": LEDGER.replace("4.0", "4.1"),  # beyond it
        "r/invariants.txt": "1\n", "r/new.txt": ""})
    failures, (ratio, name, column) = diff_outputs.compare(parent, change)
    lines = capsys.readouterr().out.splitlines()
    # the ledger, invariants.txt, and one file on each side only
    assert failures == 4
    assert (name, column) == ("r/ledger.csv", "cost") and ratio == pytest.approx(
        0.1 / (1e-9 + 4e-6))
    assert "r/gone.txt: FAIL, only in parent" in lines
    assert "r/new.txt: FAIL, only in change" in lines
    assert "r/invariants.txt: FAIL, differs" in lines
    assert any(line.startswith("r/trace.csv: within tolerance (x_0 ") for line in lines)


@pytest.mark.parametrize("beyond", [False, True])
def test_exit_code(tmp_path, monkeypatch, capsys, beyond):
    # main() on the repository's configs, with each CLI call replaced by
    # one that writes a trace: the change's differs by roundoff, or beyond
    # the tolerance.
    checkout = TOOL.parent.parent

    def fake_call(checkout_dir, command, config, out_dir):
        side = out_dir.parent.name
        out_dir.mkdir(parents=True)
        text = TRACE
        if side == "change":
            text = TRACE.replace("1,-2.5,", "1,-2.6," if beyond else "1,-2.5000000000025,")
        (out_dir / "trace_0000.csv").write_text(text)
        (out_dir / "exit_code.txt").write_text("0\n")

    monkeypatch.setattr(diff_outputs, "run_call", fake_call)
    code = diff_outputs.main([str(checkout), str(checkout), "--work", str(tmp_path / "w")])
    out = capsys.readouterr().out.splitlines()
    assert code == (1 if beyond else 0)
    assert out[-2] == (f"{len(diff_outputs.CALLS)} file(s) differ beyond tolerance" if beyond
                       else "no file differs beyond tolerance")
    assert out[-1].startswith("largest ratio: ") and "column x_0" in out[-1]


def test_config_copy_makes_each_replacement(tmp_path, monkeypatch):
    checkout = tree(tmp_path / "c", {"configs/x.cfg": "[a]\nk = 1\n[b]\nj = 2\n"})
    monkeypatch.setitem(diff_outputs.COPIES, "two",
                        [("\nk = 1\n", "\nk = 3\n"), ("\nj = 2\n", "\nj = 4\n")])
    path = diff_outputs.config_copy(checkout, "x", "two", tmp_path / "copies")
    assert path.name == "x_two.cfg" and path.read_text() == "[a]\nk = 3\n[b]\nj = 4\n"
    # each text must occur once in the config as the replacements before left it
    monkeypatch.setitem(diff_outputs.COPIES, "gone",
                        [("\nk = 1\n", "\nk = 3\n"), ("\nk = 1\n", "\nk = 5\n")])
    with pytest.raises(SystemExit, match="x.cfg: no single 'k = 1' line"):
        diff_outputs.config_copy(checkout, "x", "gone", tmp_path / "copies")


def test_aborted_copy_of_the_bundled_config(tmp_path):
    # The copy that aborts the bundled double integrator: the abort flag and
    # a membership tolerance below zero, each added once.
    text = diff_outputs.config_copy(TOOL.parent.parent, "double_integrator", "aborted",
                                    tmp_path).read_text()
    assert text.count("\nabort_on_violation = true\n") == 1
    assert text.count("\nmembership_tol = -1e-4\n") == 1
    assert ("run", "double_integrator", "aborted") in diff_outputs.CALLS


def test_optimized_copy_of_the_bundled_config(tmp_path):
    # The bundled double integrator on the optimized variant: the generic
    # rollout builder's path, under the same byte-identity check.
    text = diff_outputs.config_copy(TOOL.parent.parent, "double_integrator", "optimized",
                                    tmp_path).read_text()
    assert text.count("\nvariant = optimized\n") == 1
    assert "\nvariant = explicit\n" not in text
    assert ("run", "double_integrator", "optimized") in diff_outputs.CALLS
