"""The summary arithmetic of ``tools/e2e_pairs.py`` (no benchmark runs)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "e2e_pairs", ROOT / "tools" / "e2e_pairs.py"
)
e2e_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_pairs)

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_p90_ms", "better": "lower", "bound": 0.25},
]


def _run(ops, p90):
    return {
        "correct": True,
        "failed": 0,
        "metrics": {
            "ops_per_s": {"value": ops, "unit": "1/s"},
            "op_p90_ms": {"value": p90, "unit": "ms"},
        },
    }


def test_parse_seeds():
    assert e2e_pairs.parse_seeds("11-14") == [11, 12, 13, 14]
    assert e2e_pairs.parse_seeds("3,5,8-9") == [3, 5, 8, 9]


def test_quartiles_of_one_value():
    assert e2e_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_summary_counts_wins_and_flags_worse_medians():
    pairs = [
        (_run(100 + i, 10.0), _run(120 + i, 14.0 if i else 9.0))
        for i in range(5)
    ]
    rows = {
        row["metric"]: row for row in e2e_pairs.summarize(pairs, METRICS)
    }
    ops = rows["ops_per_s"]
    assert ops["wins"] == 5 and ops["pairs"] == 5
    assert ops["parent"][1] == 102 and ops["change"][1] == 122
    assert ops["resolved"] and not ops["worse"]
    p90 = rows["op_p90_ms"]
    assert p90["wins"] == 1
    # 14 ms against 10 ms is 40% worse, past the 25% bound.
    assert p90["worse"] and not p90["resolved"]


def test_summary_skips_runs_without_metrics():
    pairs = [(_run(100, 10.0), {"correct": False, "error": "timeout"})]
    assert e2e_pairs.summarize(pairs, METRICS) == []


def test_benchmark_declares_the_command_and_metrics():
    bench = e2e_pairs.load_benchmark()
    assert bench["command"] and bench["end_to_end"]
