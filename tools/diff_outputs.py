"""Compare the CLI outputs of two checkouts, file by file.

    python3 tools/diff_outputs.py PARENT_DIR CHANGE_DIR [--work DIR]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. In each, every
call runs in a fresh process, with the checkout as working directory and its
``src`` on PYTHONPATH: ``ocorobust run`` on the three bundled run configs,
``regret-sweep`` on ``configs/regret_sweep.cfg`` and ``validate`` on all four
configs. A call's outputs are the files it writes to ``--out``, its stdout,
its stderr and its exit code. They go under ``--work`` (by default a
temporary directory, removed at the end), one directory per side and call.

For every output file the script prints "identical" when the two sides'
bytes are equal. Otherwise, for a CSV file with the same header and shape,
it prints per column the largest |a - b| / (1e-9 + 1e-6 |a|), a the parent's
value (a ledger's total line "# name = value" counts as a cell of column
"name"); a ratio above 1, a differing non-numeric cell, any other differing
file or a file on one side only is a failure. The exit code is 1 when any
file fails, else 0.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CALLS = (
    [("run", name) for name in ("double_integrator", "vehicle_explicit", "vehicle_optimized")]
    + [("regret-sweep", "regret_sweep")]
    + [("validate", name) for name in ("double_integrator", "regret_sweep",
                                       "vehicle_explicit", "vehicle_optimized")])
ABS_TOL, REL_TOL = 1e-9, 1e-6


def run_call(checkout, command, config, out_dir):
    """Run one CLI call in ``checkout``, leaving all its outputs in ``out_dir``."""
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(Path(checkout, "src").resolve()))
    cmd = [sys.executable, "-m", "ocorobust.cli", command, "--config",
           f"configs/{config}.cfg", "--out", str(out_dir.resolve())]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    (out_dir / "stdout.txt").write_text(proc.stdout)
    (out_dir / "stderr.txt").write_text(proc.stderr)
    (out_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _cells(header, row):
    """(column, cell) pairs of a CSV row; a total line "# name = value" is
    the one cell of column "name"."""
    if len(row) == 1 and row[0].startswith("# ") and " = " in row[0]:
        name, _, value = row[0][2:].partition(" = ")
        return [(name, value)]
    return list(zip(header, row))


def csv_ratios(parent, change):
    """{column: largest scaled difference} of two CSV files, or a reason they
    cannot be compared cell by cell."""
    a_rows = list(csv.reader(parent.read_text().splitlines()))
    b_rows = list(csv.reader(change.read_text().splitlines()))
    if not a_rows or a_rows[:1] != b_rows[:1] or list(map(len, a_rows)) != list(map(len, b_rows)):
        return "header or shape differs"
    ratios = dict.fromkeys(a_rows[0], 0.0)
    for a_row, b_row in zip(a_rows[1:], b_rows[1:]):
        for (column, a), (other, b) in zip(_cells(a_rows[0], a_row), _cells(a_rows[0], b_row)):
            if column != other:
                return f"line {column!r} -> {other!r}"
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                return f"column {column}: {a!r} -> {b!r}"
            ratios[column] = max(ratios.get(column, 0.0),
                                 abs(x - y) / (ABS_TOL + REL_TOL * abs(x)))
    return ratios


def compare(parent_dir, change_dir):
    """Print one line per output file; returns the number of failures."""
    failures = 0
    names = sorted({p.relative_to(parent_dir) for p in parent_dir.rglob("*") if p.is_file()}
                   | {p.relative_to(change_dir) for p in change_dir.rglob("*") if p.is_file()})
    for name in names:
        a, b = parent_dir / name, change_dir / name
        if not (a.is_file() and b.is_file()):
            failures += 1
            print(f"{name}: FAIL, only in {'parent' if a.is_file() else 'change'}")
        elif a.read_bytes() == b.read_bytes():
            print(f"{name}: identical")
        elif name.suffix != ".csv":
            failures += 1
            print(f"{name}: FAIL, differs")
        else:
            ratios = csv_ratios(a, b)
            if isinstance(ratios, str):
                failures += 1
                print(f"{name}: FAIL, {ratios}")
                continue
            worst = max(ratios.values())
            failures += worst > 1.0
            detail = ", ".join(f"{c} {r:.3g}" for c, r in ratios.items() if r > 0.0)
            print(f"{name}: {'FAIL' if worst > 1.0 else 'within tolerance'} ({detail})")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the outputs here (must not exist yet)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            for command, config in CALLS:
                run_call(checkout, command, config, work / side / f"{command}_{config}")
        failures = compare(work / "parent", work / "change")
    verdict = f"{failures} file(s) differ" if failures else "no file differs"
    print(f"{verdict} beyond tolerance")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
