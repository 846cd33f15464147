"""Empirical complexity analysis helpers for the benchmark harness."""

from repro.analysis.complexity import (
    PowerLawFit,
    fit_power_law,
    format_complexity_row,
    sweep,
    time_callable,
)
from repro.analysis.counters import CostReport, measure_binary, measure_unary

__all__ = [
    "CostReport",
    "PowerLawFit",
    "fit_power_law",
    "format_complexity_row",
    "measure_binary",
    "measure_unary",
    "sweep",
    "time_callable",
]
