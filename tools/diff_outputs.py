"""Compare the CLI outputs of two checkouts, file by file.

    python3 tools/diff_outputs.py PARENT_DIR CHANGE_DIR [--work DIR]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. In each, every
call runs in a fresh process, with the checkout as working directory and its
``src`` on PYTHONPATH: ``ocorobust run`` on the three bundled run configs, on
copies of ``double_integrator.cfg`` and ``vehicle_explicit.cfg`` with
``experiment.seeds = 3`` and on a copy of ``double_integrator.cfg`` whose
weights go A -> B -> A (a piece with q_u = [[2.0]] from step 75, then the
first weights again from step 150), ``regret-sweep`` on
``configs/regret_sweep.cfg`` and ``validate`` on all four configs. A call's
outputs are the files it writes to ``--out``, its stdout, its stderr and its
exit code. They go under ``--work`` (by default a temporary directory,
removed at the end), one directory per side and call; the config copies go
to ``--work``/configs, one directory per side.

For every output file the script prints "identical" when the two sides'
bytes are equal. Otherwise, for a CSV file with the same header and shape,
it prints per column the largest |a - b| / (1e-9 + 1e-6 |a|), a the parent's
value (a ledger's total line "# name = value" counts as a cell of column
"name"); a ratio above 1, a differing non-numeric cell, any other differing
file or a file on one side only is a failure. The last line gives the
largest ratio over all CSV files with its file and column (0 when every
compared cell is equal), so a roundoff change is declared by that one
number. The exit code is 1 when any file fails, else 0.
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

# (command, bundled config, name of the copy to run or None to run the file as is)
CALLS = (
    [("run", name, None) for name in ("double_integrator", "vehicle_explicit",
                                      "vehicle_optimized")]
    + [("run", name, "seeds3") for name in ("double_integrator", "vehicle_explicit")]
    + [("run", "double_integrator", "return")]
    + [("regret-sweep", "regret_sweep", None)]
    + [("validate", name, None) for name in ("double_integrator", "regret_sweep",
                                             "vehicle_explicit", "vehicle_optimized")])
ABS_TOL, REL_TOL = 1e-9, 1e-6
# The piece of the "return" copy between the first and the last cost piece.
RETURN_PIECE = """[cost.1]
start = 75
q_x = [[1.0, 0.0], [0.0, 1.0]]
q_u = [[2.0]]
ref_x = [0.3, 0.0]
ref_u = [0.0]

[cost.2]
"""


# copy name -> (text that occurs once in the bundled config, its replacement)
COPIES = {
    "seeds3": ("\nseeds = 1\n", "\nseeds = 3\n"),
    "return": ("\n[cost.1]\n", "\n" + RETURN_PIECE),
}


def config_copy(checkout, config, copy, copies):
    """The copy ``copy`` (a key of ``COPIES``) of ``checkout``'s bundled
    ``config``, written in ``copies``; returns its path."""
    text = Path(checkout, "configs", f"{config}.cfg").read_text()
    old, new = COPIES[copy]
    if text.count(old) != 1:
        raise SystemExit(f"{config}.cfg: no single {old.strip()!r} line to replace")
    copies.mkdir(parents=True, exist_ok=True)
    path = copies / f"{config}_{copy}.cfg"
    path.write_text(text.replace(old, new))
    return path.resolve()


def run_call(checkout, command, config, out_dir):
    """Run one CLI call in ``checkout`` on the config file ``config`` (a path,
    absolute or relative to the checkout), leaving all its outputs in
    ``out_dir``."""
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(Path(checkout, "src").resolve()))
    cmd = [sys.executable, "-m", "ocorobust.cli", command, "--config",
           str(config), "--out", str(out_dir.resolve())]
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
    """Print one line per output file; returns the number of failures and
    the largest CSV ratio as (ratio, file, column), file and column None
    when no cell differs."""
    failures, largest = 0, (0.0, None, None)
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
            column, worst = max(ratios.items(), key=lambda item: item[1])
            largest = max(largest, (worst, str(name), column), key=lambda item: item[0])
            failures += worst > 1.0
            detail = ", ".join(f"{c} {r:.3g}" for c, r in ratios.items() if r > 0.0)
            print(f"{name}: {'FAIL' if worst > 1.0 else 'within tolerance'} ({detail})")
    return failures, largest


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
            for command, config, copy in CALLS:
                if copy is None:
                    path, name = f"configs/{config}.cfg", f"{command}_{config}"
                else:
                    path = config_copy(checkout, config, copy, work / "configs" / side)
                    name = f"{command}_{config}_{copy}"
                run_call(checkout, command, path, work / side / name)
        failures, (ratio, name, column) = compare(work / "parent", work / "change")
    verdict = f"{failures} file(s) differ" if failures else "no file differs"
    print(f"{verdict} beyond tolerance")
    where = f" ({name}, column {column})" if name else ""
    print(f"largest ratio: {ratio:.3g}{where}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
