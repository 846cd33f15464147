#!/usr/bin/env python3
"""Gate a ``BENCH_perf.json`` report on speedups and output parity.

Usage::

    python tools/bench_gate.py [BENCH_perf.json] [--opt BENCH_opt.json]

Fails (exit 1) when any workload reports ``speedup < 1.0`` — the
optimization layer must never be slower than the naive path it
replaces — or when the optimized output diverged from the naive
reference (``optimized_matches_naive`` or ``all_outputs_match`` false).  The
``fig2_projection`` workload additionally carries the batched-kernel
target of ``>= 2.0x`` recorded in the report's ``required_speedup``.

The gate also runs a live **planner smoke check** (``--no-smoke`` to
skip): the logical rewrite passes (``docs/planner.md``) must produce a
visibly smaller plan on the pushdown fixture *and* the same result as
the naive pipeline.  Selection/projection pushdown touches the same
projection-heavy shape ``fig2_projection`` measures, so the smoke check
plus that workload's floor guard the planner against perf regressions.
"""

from __future__ import annotations

import json
import pathlib
import sys

#: Per-workload floors beyond the global >= 1.0 requirement.
TARGETS = {"fig2_projection": 2.0}


def gate(report: dict) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures: list[str] = []
    workloads = report.get("workloads", {})
    if not workloads:
        return ["report has no workloads"]
    for name, entry in sorted(workloads.items()):
        speedup = entry.get("speedup")
        if speedup is None:
            failures.append(f"{name}: speedup missing")
        elif speedup < 1.0:
            failures.append(f"{name}: speedup {speedup} regressed below 1.0x")
        target = TARGETS.get(name)
        if target is not None and speedup is not None and speedup < target:
            failures.append(
                f"{name}: speedup {speedup} below the {target}x target"
            )
        if not entry.get("optimized_matches_naive"):
            failures.append(f"{name}: optimized_matches_naive is false")
    summary = report.get("summary", {})
    if not summary.get("all_outputs_match"):
        failures.append("summary: all_outputs_match is false")
    return failures


def planner_smoke() -> list[str]:
    """Run the logical planner on the pushdown fixture and check it.

    Three assertions: the rewrite passes fired, the optimized plan is
    strictly smaller than the naive lowering (the pushdown actually
    happened), and the optimized result equals the naive one on a
    comparison window.  Returns failure messages (empty = ok).
    """
    try:
        from repro.query import Database
    except ImportError:  # running from a checkout without install
        sys.path.insert(
            0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
        )
        from repro.query import Database

    fixture = "Even(t) & t >= 0"
    failures: list[str] = []
    db = Database()
    db.create("Even", temporal=["t"])
    db.relation("Even").add_tuple(["2n"])
    report = db.plan(fixture, optimize=True)
    if sum(p.rewrites for p in report.passes) < 3:
        failures.append(
            f"planner: fewer than 3 rewrites on {fixture!r} "
            f"({[f'{p.name}:{p.rewrites}' for p in report.passes]})"
        )
    if report.plan.size() >= report.naive.size():
        failures.append(
            f"planner: no plan shrink on {fixture!r} "
            f"({report.naive.size()} -> {report.plan.size()} nodes)"
        )
    naive = db.query(fixture, optimize=False)
    optimized = db.query(fixture, optimize=True)
    if optimized.snapshot(-64, 64) != naive.snapshot(-64, 64):
        failures.append(f"planner: optimized != naive on {fixture!r}")
    return failures


def gate_opt(report: dict) -> list[str]:
    """Gate a ``BENCH_opt.json`` optimizer report (``--opt PATH``).

    The optimizer makes exactness claims, so the gate is strict: every
    scheduling scenario must agree with its oracle, the random-corpus
    parity sweep must have zero failures, and ``summary.ok`` must hold.
    """
    failures: list[str] = []
    scenarios = report.get("scenarios", [])
    if not scenarios:
        failures.append("opt: report has no scenarios")
    for row in scenarios:
        if not row.get("ok"):
            failures.append(
                f"opt scenario {row.get('name')}: {row.get('status')} "
                f"{row.get('value')} disagreed with oracle "
                f"{row.get('oracle')} / expected {row.get('expected')}"
            )
    corpus = report.get("corpus", {})
    parity_failures = corpus.get("parity_failures")
    if parity_failures != 0:
        failures.append(
            f"opt corpus: {parity_failures} parity failures in "
            f"{corpus.get('parity_checks')} checks"
        )
    if not report.get("summary", {}).get("ok"):
        failures.append("opt summary: ok is false")
    return failures


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    smoke = "--no-smoke" not in args
    args = [a for a in args if a != "--no-smoke"]
    opt_path = None
    if "--opt" in args:
        index = args.index("--opt")
        try:
            opt_path = args[index + 1]
        except IndexError:
            print("FAIL: --opt needs a BENCH_opt.json path")
            return 1
        del args[index : index + 2]
    path = args[0] if args else "BENCH_perf.json"
    with open(path) as handle:
        report = json.load(handle)
    failures = gate(report)
    if smoke:
        failures += planner_smoke()
    if opt_path is not None:
        with open(opt_path) as handle:
            failures += gate_opt(json.load(handle))
    for line in failures:
        print(f"FAIL: {line}")
    if failures:
        return 1
    names = ", ".join(sorted(report["workloads"]))
    suffix = ", planner smoke ok" if smoke else ""
    if opt_path is not None:
        suffix += ", opt gate ok"
    print(f"bench gate ok ({names}{suffix})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
