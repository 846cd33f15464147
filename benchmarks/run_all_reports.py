"""Run every benchmark report standalone and consolidate the output.

Usage::

    python benchmarks/run_all_reports.py            # print to stdout
    python benchmarks/run_all_reports.py REPORTS.md # also write a file

Each ``test_bench_*.py`` module exposes one ``*_report()`` function that
regenerates its paper artifact (table, figure, theorem, or ablation);
this driver runs them all in a deterministic order — the quick way to
refresh ``EXPERIMENTS.md`` on new hardware.
"""

from __future__ import annotations

import importlib
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent))

#: (module, report function) in presentation order.
REPORTS = [
    ("test_bench_table1_robots", "table1_report"),
    ("test_bench_example24_trains", "example24_report"),
    ("test_bench_table2_fixed_schema", "table2_report"),
    ("test_bench_table3_general", "table3_report"),
    ("test_bench_fig1_subtraction", "figure1_report"),
    ("test_bench_fig2_projection", "figure2_report"),
    ("test_bench_fig3_normalization", "figure3_report"),
    ("test_bench_thm21_presburger", "thm21_report"),
    ("test_bench_thm22_presburger", "thm22_report"),
    ("test_bench_thm35_emptiness", "thm35_report"),
    ("test_bench_thm36_npcomplete", "thm36_report"),
    ("test_bench_thm41_query", "thm41_report"),
    ("test_bench_example41_query", "example41_report"),
    ("test_bench_ablation_lcm", "ablation_report"),
    ("test_bench_ablation_baseline", "baseline_report"),
    ("test_bench_ablation_complement", "ablation_report"),
]


def run_all() -> tuple[list[str], bool]:
    """Run every report; returns (lines, all_ok)."""
    lines: list[str] = []
    all_ok = True
    for module_name, function_name in REPORTS:
        module = importlib.import_module(module_name)
        report = getattr(module, function_name)
        start = time.perf_counter()
        body = report()
        elapsed = time.perf_counter() - start
        lines.append("")
        lines.append("=" * 78)
        lines.extend(body)
        lines.append(f"(report regenerated in {elapsed:.1f}s)")
        if any("SUSPECT" in line or "DISAGREE" in line for line in body):
            all_ok = False
    lines.append("")
    lines.append("=" * 78)
    lines.append(
        "ALL REPORTS OK" if all_ok else "SOME REPORTS FLAGGED — inspect above"
    )
    return lines, all_ok


def main(argv: list[str]) -> int:
    lines, all_ok = run_all()
    text = "\n".join(lines) + "\n"
    print(text)
    if len(argv) > 1:
        pathlib.Path(argv[1]).write_text(text)
        print(f"written to {argv[1]}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
