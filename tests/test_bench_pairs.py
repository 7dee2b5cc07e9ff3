"""``tools/bench_pairs.py``'s summary and verdicts on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

METRICS = {"steps_per_s": ("higher", 0.25), "run_ms_p50": ("lower", 0.25),
           "mean_regret": ("lower", 0.05)}


def run(workload, side, seed, failed=0, attempted=10, **values):
    return {"side": side, "workload": workload, "seed": seed,
            "result": {"attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": v} for name, v in values.items()}}}


def pairs_of(workload, count, parent, change, parent_failed=0, change_failed=0):
    """``count`` pairs: ``parent(i)`` and ``change(i)`` give pair i's metric values."""
    runs = []
    for i in range(count):
        runs.append(run(workload, "parent", i, failed=parent_failed, **parent(i)))
        runs.append(run(workload, "change", i, failed=change_failed, **change(i)))
    return runs


def test_gain_within_bound_and_worse():
    # steps_per_s: the change wins all 10 pairs by 20 against a parent IQR
    # of about 4.5; run_ms_p50: 10 % worse, inside its 0.25 bound;
    # mean_regret: 10 % worse, outside its 0.05 bound.
    runs = pairs_of("w", 10, lambda i: dict(steps_per_s=100.0 + i, run_ms_p50=10.0,
                                            mean_regret=2.0),
                    lambda i: dict(steps_per_s=120.0 + i, run_ms_p50=11.0, mean_regret=2.2),
                    change_failed=1)
    summary, pairs, verdicts = bench_pairs.summarize(runs, METRICS)
    assert verdicts == {"w": {"steps_per_s": "gain", "run_ms_p50": "within_bound",
                              "mean_regret": "worse"}}
    assert pairs["w"]["pairs"] == 10 and pairs["w"]["steps_per_s_change_better"] == 10
    assert pairs["w"]["mean_regret_max_relative_difference"] == pytest.approx(0.1)
    parent, change = summary["w"]["parent"], summary["w"]["change"]
    assert parent["steps_per_s"] == {"median": 104.5, "q1": 102.25, "q3": 106.75}
    assert (parent["failed"], parent["failed_share"]) == (0, 0.0)
    assert (change["failed"], change["failed_share"]) == (10, 0.1)


@pytest.mark.parametrize("count, won, gap, expected", [
    (10, 9, 20.0, "gain"),          # 9/10 pairs won, gap above the IQR
    (10, 8, 20.0, "within_bound"),  # only 8/10 pairs won
    (9, 9, 20.0, "within_bound"),   # fewer than 10 pairs
    (10, 10, 0.5, "within_bound"),  # every pair won, gap inside the IQR
])
def test_gain_needs_pairs_wins_and_a_gap_above_the_iqr(count, won, gap, expected):
    # The parent reads 100 + i (an IQR of (count - 1) / 2); the change reads
    # gap above that in the first ``won`` pairs and 1 below it in the rest.
    runs = pairs_of("w", count, lambda i: dict(steps_per_s=100.0 + i),
                    lambda i: dict(steps_per_s=100.0 + i + (gap if i < won else -1.0)))
    _, pairs, verdicts = bench_pairs.summarize(runs, {"steps_per_s": ("higher", 0.25)})
    assert pairs["w"]["steps_per_s_change_better"] == won
    assert verdicts["w"]["steps_per_s"] == expected


def test_workloads_are_judged_apart():
    # A lower-is-better metric: the change halves it on "a" and doubles it on "b".
    runs = (pairs_of("a", 10, lambda i: dict(run_ms_p50=10.0), lambda i: dict(run_ms_p50=5.0))
            + pairs_of("b", 10, lambda i: dict(run_ms_p50=10.0),
                       lambda i: dict(run_ms_p50=20.0)))
    _, _, verdicts = bench_pairs.summarize(runs, {"run_ms_p50": ("lower", 0.25)})
    assert verdicts == {"a": {"run_ms_p50": "gain"}, "b": {"run_ms_p50": "worse"}}
