"""Before/after benchmark for the optimization layer (``BENCH_perf.json``).

Runs the paper-shaped pairwise-heavy workloads — Figure 1 subtraction,
Figure 2 projection, Table 2 fixed-schema join, Table 3 general
intersection and join — under two variants inside one process:

* **naive** — caches, prefilters and incremental closure all off, with
  the scalar Python kernel (the seed implementation's behavior);
* **optimized** — caches + prefilters + incremental closure on, with
  the session's closure kernel.

Both variants consume the *same* input relations built from the same
seed, and the optimized output is verified against the naive
output (element-for-element for intersection/join/projection, by window
enumeration for subtraction, whose prefilter may return an equivalent
but differently-factored set of tuples).  Timings therefore compare the
same work measured by the same harness in the same run.

Usage::

    python -m repro.perf.bench                # full sizes -> BENCH_perf.json
    python -m repro.perf.bench --smoke        # small sizes, CI-friendly
    python -m repro.perf.bench -o out.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time

from repro.core import algebra
from repro.core.dbm import DBM
from repro.core.lrp import LRP
from repro.core.relations import GeneralizedRelation, Schema
from repro.core.tuples import GeneralizedTuple
from repro.perf.cache import cache_stats, reset_caches
from repro.perf.config import counters_snapshot, overrides, reset_counters

#: Feature switches for the two measured variants.  The naive variant
#: pins the scalar Python kernel (the seed implementation's behavior);
#: the optimized one inherits the session backend (env/auto).
NAIVE = dict(
    cache_enabled=False,
    prefilter_enabled=False,
    incremental_enabled=False,
    kernel="python",
)
OPTIMIZED = dict(
    cache_enabled=True,
    prefilter_enabled=True,
    incremental_enabled=True,
)

#: Workloads whose on/off ratio the acceptance gate inspects.
PAIRWISE_HEAVY = (
    "fig1_subtraction",
    "table3_intersection",
    "table3_join",
)
REQUIRED_SPEEDUP = 2.0


# ----------------------------------------------------------------------
# seeded workload builders
# ----------------------------------------------------------------------


def _interval_relation(
    n_tuples: int,
    arity: int,
    period: int,
    seed: int,
    base_lo: int,
    base_hi: int,
    width: int,
    names: list[str] | None = None,
    offset_choices: list[int] | None = None,
) -> GeneralizedRelation:
    """A seeded relation of period-``period`` lrps with interval bounds.

    Each temporal attribute gets a random lrp offset and a bounded value
    range ``[base, base + width]``; half the tuples also carry one
    difference constraint.  Random offsets make most cross-relation
    pairs residue-incompatible; the base ranges control how often value
    intervals overlap — the two dimensions the prefilters exploit.
    """
    rng = random.Random(seed)
    schema = Schema.make(
        temporal=names or [f"X{i}" for i in range(arity)]
    )
    out = GeneralizedRelation.empty(schema)
    while len(out) < n_tuples:
        lrps = tuple(
            LRP.make(
                rng.choice(offset_choices)
                if offset_choices
                else rng.randrange(period),
                period,
            )
            for _ in range(arity)
        )
        dbm = DBM(arity)
        for i in range(arity):
            base = rng.randint(base_lo, base_hi)
            dbm.add_lower(i, base)
            dbm.add_upper(i, base + width)
        if arity >= 2 and rng.random() < 0.5:
            dbm.add_difference(0, 1, rng.randint(0, width))
        out.add(GeneralizedTuple(lrps, dbm))
    return out


def _fig1_inputs(smoke: bool):
    """Figure 1: fold subtraction over mostly-disjoint subtrahends.

    Subtrahend lrps reuse the minuend offsets (so the naive path runs
    the full staircase decomposition) while most subtrahend intervals
    sit beyond the minuend ranges — exactly the provably-empty overlaps
    the interval prefilter short-circuits.
    """
    n1, n2 = (10, 6) if smoke else (32, 16)
    minuend = _interval_relation(
        n1, 2, 6, seed=101, base_lo=0, base_hi=120, width=40,
        offset_choices=[0, 2, 3],
    )
    far = _interval_relation(
        n2, 2, 6, seed=202, base_lo=260, base_hi=420, width=60,
        offset_choices=[0, 2, 3],
    )
    near = _interval_relation(
        3, 2, 6, seed=303, base_lo=40, base_hi=100, width=30,
        offset_choices=[0, 2, 3],
    )
    subtrahend = algebra.union(far, near)
    return minuend, subtrahend


def _fig2_inputs(smoke: bool):
    """Figure 2: projection with a dropped, constraint-connected column.

    Bounds are quantized to a small grid so the difference systems the
    normalization derives repeat across tuples — the structural
    redundancy the interning cache exists to exploit.
    """
    n = 60 if smoke else 220
    rng = random.Random(404)
    schema = Schema.make(temporal=["X0", "X1", "X2"])
    relation = GeneralizedRelation.empty(schema)
    attempts = 0
    while len(relation) < n and attempts < n * 40:
        attempts += 1
        lrps = tuple(LRP.make(rng.choice([1, 3]), 4) for _ in range(3))
        dbm = DBM(3)
        for i in range(3):
            base = 10 * rng.randint(-4, 4)
            dbm.add_lower(i, base)
            dbm.add_upper(i, base + 25)
        if rng.random() < 0.5:
            dbm.add_difference(0, 1, 10 * rng.randint(0, 3))
        relation.add(GeneralizedTuple(lrps, dbm))
    return (relation,)


def _table2_inputs(smoke: bool):
    """Table 2 (fixed schema): natural join on two shared attributes."""
    n = 24 if smoke else 60
    left = _interval_relation(
        n, 2, 6, seed=505, base_lo=-30, base_hi=60, width=35,
        names=["A", "B"],
    )
    right = _interval_relation(
        n, 2, 6, seed=606, base_lo=-30, base_hi=60, width=35,
        names=["A", "B"],
    )
    return left, right


def _table3_intersection_inputs(smoke: bool):
    """Table 3 (general): pairwise intersection of two random relations.

    All lrps share one offset so the naive path gets past the CRT into
    the DBM meet + closure for every pair, while the wide base spread
    leaves most value intervals disjoint — the case the interval
    prefilter rejects in O(1).
    """
    n = 30 if smoke else 90
    r1 = _interval_relation(
        n, 2, 6, seed=707, base_lo=-180, base_hi=180, width=40,
        offset_choices=[2],
    )
    r2 = _interval_relation(
        n, 2, 6, seed=808, base_lo=-180, base_hi=180, width=40,
        offset_choices=[2],
    )
    return r1, r2


def _table3_join_inputs(smoke: bool):
    """Table 3 (general): natural join sharing one temporal attribute."""
    n = 26 if smoke else 70
    left = _interval_relation(
        n, 2, 6, seed=909, base_lo=-40, base_hi=70, width=40,
        names=["A", "B"],
    )
    right = _interval_relation(
        n, 2, 6, seed=1010, base_lo=-40, base_hi=70, width=40,
        names=["B", "C"],
    )
    return left, right


WORKLOADS: list[tuple[str, str, object, object]] = [
    # (name, verify mode, input builder, operation)
    (
        "fig1_subtraction",
        "window",
        _fig1_inputs,
        lambda r1, r2: algebra.subtract(r1, r2),
    ),
    (
        "fig2_projection",
        "keys",
        _fig2_inputs,
        lambda r: algebra.project(r, ["X0", "X2"]),
    ),
    (
        "table2_fixed_join",
        "keys",
        _table2_inputs,
        lambda r1, r2: algebra.join(r1, r2),
    ),
    (
        "table3_intersection",
        "keys",
        _table3_intersection_inputs,
        lambda r1, r2: algebra.intersect(r1, r2),
    ),
    (
        "table3_join",
        "keys",
        _table3_join_inputs,
        lambda r1, r2: algebra.join(r1, r2),
    ),
]


# ----------------------------------------------------------------------
# persistence scenario (storage engine)
# ----------------------------------------------------------------------


def run_persistence_scenario(smoke: bool = False) -> dict:
    """Measure the durable storage engine on a seeded catalog.

    Times the four storage-path operations — first commit (WAL append +
    fsync), reopen (recovery: WAL replay), compaction (snapshot +
    manifest swing + WAL truncate) and reopen-after-compaction
    (recovery: snapshot load) — over a multi-relation seeded database,
    and verifies the reopened catalog window-for-window against the
    in-memory original.  Appended to ``BENCH_perf.json`` under
    ``"persistence"``.
    """
    import shutil
    import tempfile

    from repro.query.database import Database
    from repro.testing import seeded_relation

    n_relations, max_tuples = (3, 12) if smoke else (6, 60)
    window = (-30, 90)
    rng = random.Random(4242)
    root = tempfile.mkdtemp(prefix="repro-bench-db-")
    path = os.path.join(root, "bench.db")
    scenario: dict = {
        "relations": n_relations,
        "max_tuples_per_relation": max_tuples,
        "window": list(window),
    }
    try:
        db = Database.open(path)
        originals = {}
        for i in range(n_relations):
            relation = seeded_relation(
                rng, temporal_arity=2, max_tuples=max_tuples, max_period=8
            )
            name = f"R{i}"
            db.register(name, relation)
            originals[name] = relation.snapshot(*window)
        start = time.perf_counter()
        records = db.commit()
        scenario["commit_s"] = round(time.perf_counter() - start, 6)
        scenario["commit_records"] = records
        scenario["wal_bytes"] = db.storage.info()["wal_bytes"]
        db.close()

        start = time.perf_counter()
        reopened = Database.open(path)
        scenario["reopen_replay_s"] = round(time.perf_counter() - start, 6)
        start = time.perf_counter()
        scenario["snapshot_name"] = reopened.compact()
        scenario["compact_s"] = round(time.perf_counter() - start, 6)
        reopened.close()

        start = time.perf_counter()
        recovered = Database.open(path)
        scenario["reopen_snapshot_s"] = round(
            time.perf_counter() - start, 6
        )
        scenario["roundtrip_ok"] = all(
            recovered.relation(name).snapshot(*window) == points
            for name, points in originals.items()
        )
        scenario["total_points_checked"] = sum(
            len(points) for points in originals.values()
        )
        recovered.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return scenario


# ----------------------------------------------------------------------
# measurement harness
# ----------------------------------------------------------------------


def _timed(operation, inputs, config: dict, repeats: int = 2):
    """Run ``operation`` under ``config`` with fresh caches; time it.

    One untimed warmup evens out state that persists on the shared input
    tuples (memoized semantic keys, interpreter warmth) so the variant
    order does not bias the comparison; the reported time is the best of
    ``repeats`` runs, each starting from empty caches.
    """
    with overrides(**config):
        reset_caches()
        operation(*inputs)  # warmup, untimed
        elapsed = None
        for _ in range(repeats):
            reset_caches()
            reset_counters()
            start = time.perf_counter()
            result = operation(*inputs)
            lap = time.perf_counter() - start
            if elapsed is None or lap < elapsed:
                elapsed = lap
        counters = counters_snapshot()
        caches = cache_stats()
    return result, elapsed, counters, caches


def _window_points(relation: GeneralizedRelation, low: int, high: int):
    return set(relation.enumerate(low, high))


def _verify(mode: str, reference, candidate) -> bool:
    """Whether ``candidate`` matches the naive ``reference`` output."""
    if mode == "keys":
        ref_keys = {t.canonical_key() for t in reference}
        cand_keys = {t.canonical_key() for t in candidate}
        return ref_keys == cand_keys
    # Window differential: the subtraction prefilter may factor the same
    # point set into different tuples, so compare denoted points.
    low, high = -20, 140
    return _window_points(reference, low, high) == _window_points(
        candidate, low, high
    )


def run_perf_comparison(smoke: bool = False) -> dict:
    """Run every workload naive and optimized; return the report."""
    from repro.perf import kernel

    report: dict = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "smoke": smoke,
            "kernel_backend": kernel.kernel_backend(),
            "required_speedup": REQUIRED_SPEEDUP,
            "pairwise_heavy": list(PAIRWISE_HEAVY),
        },
        "workloads": {},
    }
    for name, verify_mode, build, operation in WORKLOADS:
        inputs = build(smoke)
        naive_out, naive_s, _, _ = _timed(operation, inputs, NAIVE)
        opt_out, opt_s, opt_counters, opt_caches = _timed(
            operation, inputs, OPTIMIZED
        )
        entry = {
            "input_tuples": sum(len(r) for r in inputs),
            "output_tuples": len(naive_out),
            "naive_s": round(naive_s, 6),
            "optimized_s": round(opt_s, 6),
            "speedup": round(naive_s / opt_s, 3) if opt_s > 0 else None,
            "verify_mode": verify_mode,
            "optimized_matches_naive": _verify(
                verify_mode, naive_out, opt_out
            ),
            "counters": opt_counters,
            "caches": {
                cache: {
                    k: stats[k] for k in ("hits", "misses", "evictions")
                }
                for cache, stats in opt_caches.items()
            },
        }
        report["workloads"][name] = entry
    report["persistence"] = run_persistence_scenario(smoke)
    over = [
        name
        for name in PAIRWISE_HEAVY
        if (report["workloads"][name]["speedup"] or 0) >= REQUIRED_SPEEDUP
    ]
    matches = all(
        entry["optimized_matches_naive"]
        for entry in report["workloads"].values()
    )
    roundtrip_ok = bool(report["persistence"].get("roundtrip_ok"))
    report["summary"] = {
        "pairwise_heavy_over_required": over,
        "ok": len(over) >= 2 and matches and roundtrip_ok,
        "all_outputs_match": matches,
        "persistence_roundtrip_ok": roundtrip_ok,
    }
    return report


def format_report(report: dict) -> list[str]:
    """Human-readable lines for a comparison report."""
    lines = [
        "perf layer: naive vs optimized "
        f"(smoke={report['meta']['smoke']})",
        f"{'workload':<22} {'naive':>9} {'opt':>9} {'speedup':>8}  match",
    ]
    for name, entry in report["workloads"].items():
        match = "ok" if entry["optimized_matches_naive"] else "MISMATCH"
        lines.append(
            f"{name:<22} {entry['naive_s']:>8.3f}s {entry['optimized_s']:>8.3f}s "
            f"{entry['speedup']:>7.2f}x  {match}"
        )
    persistence = report.get("persistence")
    if persistence:
        lines.append(
            f"persistence: commit {persistence['commit_s']:.3f}s "
            f"({persistence['wal_bytes']} wal bytes), "
            f"replay-reopen {persistence['reopen_replay_s']:.3f}s, "
            f"compact {persistence['compact_s']:.3f}s, "
            f"snapshot-reopen {persistence['reopen_snapshot_s']:.3f}s, "
            f"roundtrip "
            f"{'ok' if persistence['roundtrip_ok'] else 'MISMATCH'}"
        )
    summary = report["summary"]
    verdict = "OK" if summary["ok"] else "SUSPECT"
    lines.append(
        f"pairwise-heavy workloads at >= {REQUIRED_SPEEDUP}x: "
        f"{', '.join(summary['pairwise_heavy_over_required']) or 'none'} "
        f"-> {verdict}"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    """Entry point: run the comparison and write ``BENCH_perf.json``."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the optimization layer (naive vs optimized)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_perf.json",
        help="output path for the JSON report (default: BENCH_perf.json)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="use small workload sizes (CI smoke run)",
    )
    args = parser.parse_args(argv)
    report = run_perf_comparison(smoke=args.smoke)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    for line in format_report(report):
        print(line)
    print(f"written to {args.output}")
    return 0 if report["summary"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
