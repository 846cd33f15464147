"""Run one workload of the end-to-end benchmark and print its metrics.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload query_hot --seed 0 \\
        --seconds 15 --trace 0 [--smoke]

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload twice for half the time each — untraced, then with the layer
wrappers of :mod:`tracing` installed — prints the per-layer metrics
and writes the spans to ``.bench_out/``.  Every metric is printed as
``name value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
correctness check fails and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys

WORKLOADS = ("query_hot", "query_cold", "stream_ingest", "served_mixed")


def _scrub_environment() -> None:
    """Drop every ``REPRO_*`` knob: the program runs on its defaults."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


def _pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU.

    The CPUs of a shared machine change speed independently, so the
    speed probes only describe the operations when both run on the
    same CPU.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # no affinity control here
        return None
    return cpu


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def _run_pass(args, seconds, tracer, expected):
    if args.workload.startswith("query_"):
        import queries

        return queries.run_pass(args.workload, args.seed, seconds, tracer,
                                args.smoke, expected)
    if args.workload == "stream_ingest":
        import stream

        return stream.run_pass(args.seed, seconds, tracer, args.smoke)
    import served

    return served.run_pass(args.seed, seconds, tracer, args.smoke, expected)


def main(argv=None) -> int:
    args = _arguments(argv)
    # Unwind on SIGTERM too, so the server process is stopped and waited.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _scrub_environment()
    cpu = _pin_to_one_cpu()
    from harness import HERE, ROOT, SCRATCH, calibrate, median

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: the program under test is missing ({src})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import metrics as bench_metrics
    from repro.api import kernel_backend
    from repro.perf.config import get_config

    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cpu": cpu,
        "python": platform.python_version(),
        "kernel_backend": kernel_backend(),
        "cache_size": get_config().cache_size,
        "calibration_before_s": calibrate(100),
    }
    if args.trace:
        import tracing
        from repro.perf.cache import reset_caches

        untraced = _run_pass(args, args.seconds / 2, None, expected)
        reset_caches()
        tracer = tracing.Tracer()
        traced = _run_pass(args, args.seconds / 2, tracer, expected)
        tracer.dump(os.path.join(
            SCRATCH, f"trace-{args.workload}-seed{args.seed}.json"))
        passes = (untraced, traced)
        metrics = bench_metrics.per_layer(untraced, traced, tracer)
    else:
        result = _run_pass(args, args.seconds, None, expected)
        passes = (result,)
        metrics, meta["unscaled"] = bench_metrics.end_to_end(result)
    meta["calibration_after_s"] = calibrate(100)
    meta["samples"] = [len(p.latencies) for p in passes]
    meta["probes"] = [len(p.probes) for p in passes]
    meta["probe_median_s"] = [
        median([s for _at, s in p.probes] or [0.0]) for p in passes]
    for p in passes:
        meta.update({k: v for k, v in p.extra.items()
                     if isinstance(v, (int, float, str))})

    checks = [c for p in passes for c in p.checks]
    correct = all(ok for _name, ok, _detail in checks)
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, ok, detail in checks:
        if not ok:
            print(f"check failed: {name}: {detail}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
