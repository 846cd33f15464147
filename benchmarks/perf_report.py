"""Consolidated-report wrapper for the optimization-layer benchmark.

Runs :mod:`repro.perf.bench` (smoke sizes, so the consolidated run stays
quick), writes the machine-readable ``BENCH_perf.json`` next to the
repository root, and returns the human-readable comparison table.  The
full-size run is ``python -m repro.perf.bench`` (or ``make bench``).
"""

from __future__ import annotations

import json
import pathlib

from repro.perf.bench import format_report, run_perf_comparison

OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf.json"


def perf_report(smoke: bool = True) -> list[str]:
    """Regenerate ``BENCH_perf.json``; return the comparison table."""
    report = run_perf_comparison(smoke=smoke)
    OUTPUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    lines = ["Optimization layer: naive vs optimized"]
    lines.extend(format_report(report))
    lines.append(f"(JSON written to {OUTPUT.name})")
    return lines


if __name__ == "__main__":
    print("\n".join(perf_report()))
