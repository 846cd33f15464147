#!/usr/bin/env python
"""Paired end-to-end benchmark runs: this tree against a parent ref.

Usage (from the repository root)::

    python tools/e2e_pairs.py --parent HEAD~1 --workloads stream_ingest \\
        --seeds 11-20 --seconds 20

The parent ref's committed files are exported with ``git archive`` into
a temporary directory, which is removed afterwards.  For each workload
and seed the benchmark command of ``BENCHMARK.json`` runs once in each
tree, and the tree that runs first alternates from pair to pair.  Per
workload and end-to-end metric the report gives both sides' medians
and quartiles and how many pairs the change won.  ``WORSE`` marks a
change median worse than the parent's by more than the metric's bound
in ``BENCHMARK.json``, and ``resolved`` marks a median gain larger than
the parent's interquartile range.  A run that fails its correctness
checks or fails operations is reported too.

The exit status is 1 when any run failed or a median is ``WORSE``, and
0 otherwise.  Nothing under the benchmark's own directories is edited.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_seeds(text: str) -> list[int]:
    """``"11-20"`` or ``"3,5,8"`` (or a mix) to a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-", 1)
            seeds.extend(range(int(low), int(high) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def export_ref(ref: str, into: str) -> None:
    """Write the committed files of ``ref`` under the directory ``into``."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {ref} failed")


def run_once(tree: str, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in ``tree``; its final JSON line, or a failure."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONPATH" and not k.startswith("REPRO_")}
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(args, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=3 * seconds + 300)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": "timeout"}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False,
                "error": f"exit {done.returncode}: {done.stderr[-300:]}"}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """Per end-to-end metric: both sides' quartiles, wins and verdicts.

    ``pairs`` holds ``(parent_run, change_run)`` results of one workload,
    each with a ``metrics`` mapping of ``{"value": ...}`` entries.
    """
    rows = []
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        both = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in pairs
            if name in p.get("metrics", {}) and name in c.get("metrics", {})
        ]
        if not both:
            continue
        parent = quartiles([p for p, _ in both])
        change = quartiles([c for _, c in both])
        wins = sum((c > p) if higher else (c < p) for p, c in both)
        gain = change[1] - parent[1] if higher else parent[1] - change[1]
        worse = -gain > spec["bound"] * abs(parent[1])
        rows.append({
            "metric": name,
            "parent": parent,
            "change": change,
            "wins": wins,
            "pairs": len(both),
            "gain": gain / parent[1] if parent[1] else 0.0,
            "resolved": gain > parent[2] - parent[0],
            "worse": worse,
        })
    return rows


def format_rows(workload: str, rows: list[dict]) -> str:
    out = [f"== {workload}",
           f"{'metric':<14}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}"
           f"{'gain':>9}{'wins':>8}  verdict"]
    for row in rows:
        verdict = []
        if row["worse"]:
            verdict.append("WORSE")
        if row["resolved"]:
            verdict.append("resolved")
        out.append(
            f"{row['metric']:<14}"
            + "{:>30}".format("/".join(f"{v:.4g}" for v in row["parent"]))
            + "{:>30}".format("/".join(f"{v:.4g}" for v in row["change"]))
            + f"{row['gain']:>+9.1%}"
            + f"{row['wins']:>5}/{row['pairs']:<2}  "
            + " ".join(verdict)
        )
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git ref to compare against, e.g. HEAD~1")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default every workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--json", default=None,
                        help="also write every run's result here")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    parent_tree = tempfile.mkdtemp(prefix="e2e-parent-")
    status = 0
    raw: dict[str, list] = {}
    try:
        export_ref(args.parent, parent_tree)
        for workload in workloads:
            pairs = []
            for index, seed in enumerate(seeds):
                order = [("parent", parent_tree), ("change", ROOT)]
                if index % 2:
                    order.reverse()
                results = {}
                for side, tree in order:
                    results[side] = run_once(tree, bench["command"],
                                             workload, seed, seconds)
                    run = results[side]
                    if not run.get("correct") or run.get("failed"):
                        status = 1
                        print(f"{workload} seed {seed} {side}: "
                              f"correct={run.get('correct')} "
                              f"failed={run.get('failed')} "
                              f"{run.get('error', '')}", file=sys.stderr)
                pairs.append((results["parent"], results["change"]))
            raw[workload] = [{"seed": s, "parent": p, "change": c}
                             for s, (p, c) in zip(seeds, pairs)]
            rows = summarize(pairs, bench["end_to_end"])
            if any(row["worse"] for row in rows):
                status = 1
            print(format_rows(workload, rows), flush=True)
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(raw, handle, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
