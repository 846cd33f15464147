"""Tests for the complexity-analysis helpers."""

import pytest

from repro.analysis import (
    CostReport,
    fit_power_law,
    format_complexity_row,
    measure_binary,
    measure_unary,
    sweep,
    time_callable,
)
from repro.core import algebra
from repro.core.relations import relation


class TestPowerLawFit:
    def test_linear(self):
        xs = [10, 20, 40, 80]
        ys = [1.0, 2.0, 4.0, 8.0]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(1.0, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-6)

    def test_quadratic(self):
        xs = [10, 20, 40, 80]
        ys = [x * x * 0.001 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)

    def test_noisy_fit_reasonable(self):
        xs = [10, 20, 40, 80, 160]
        ys = [0.9, 2.2, 3.8, 8.4, 15.6]
        fit = fit_power_law(xs, ys)
        assert 0.8 < fit.exponent < 1.2
        assert fit.r_squared > 0.95

    def test_zero_values_clamped(self):
        fit = fit_power_law([1, 2, 4], [0.0, 1.0, 2.0])
        assert fit.exponent > 0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])

    def test_constant_x_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([5, 5], [1, 2])

    def test_str(self):
        fit = fit_power_law([1, 2, 4], [1, 2, 4])
        assert "n^1.00" in str(fit)


class TestTiming:
    def test_time_callable_positive(self):
        assert time_callable(lambda: sum(range(100))) >= 0

    def test_sweep_shape(self):
        points = sweep(
            [5, 10],
            make_input=lambda n: list(range(n)),
            operation=sum,
            repeat=1,
        )
        assert [n for n, _t in points] == [5, 10]
        assert all(t >= 0 for _n, t in points)


class TestCostReports:
    def test_measure_binary(self):
        r1 = relation(temporal=["t"])
        r1.add_tuple(["2n"])
        r2 = relation(temporal=["t"])
        r2.add_tuple(["3n"])
        result, report = measure_binary(algebra.intersect, r1, r2)
        assert result.contains([6])
        assert report.input_tuples == 2
        assert report.counters["pairs_examined"] == 1
        assert "in=2" in str(report)

    def test_measure_unary(self):
        r = relation(temporal=["t"])
        r.add_tuple(["2n"])
        result, report = measure_unary(algebra.complement, r)
        assert report.output_tuples == len(result)

    def test_format_row(self):
        fit = fit_power_law([1, 2], [1, 2])
        row = format_complexity_row("union", "O(N)", fit, "OK")
        assert "union" in row and "O(N)" in row and "OK" in row
