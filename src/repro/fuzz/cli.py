"""``repro fuzz`` — the differential fuzzing command.

Generates seeded random cases, runs the differential check
(:mod:`repro.fuzz.diff`), shrinks failures to minimal replayable repros
(:mod:`repro.fuzz.shrink`) and writes them as JSON for the regression
corpus.  Examples::

    repro fuzz --seed 0 --budget 500
    repro fuzz --seed 7 --budget 2000 --window -6 6 --out fuzz-failures
    repro fuzz --replay tests/corpus/*.json
    repro fuzz --seed 0 --budget 50 --trace
    repro fuzz --seed 0 --budget 0 --ivm 20

Exit status is 0 when every case is clean (``ok`` / ``unstable`` /
``oversize`` / ``limit``) and 1 when any case is ``divergent`` or
``error``.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro import obs
from repro.fuzz.case import Case, load_case
from repro.fuzz.diff import DEFAULT_CONFIG, STATUSES, CaseResult, run_case
from repro.fuzz.gen import DEFAULT_PROFILE, case_seed, generate_case
from repro.fuzz.shrink import same_failure, shrink_case
from repro.obs.metrics import COUNTERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="differential fuzzing against the finite-window oracle",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="base seed; case i runs with seed N*1000003+i (default 0)",
    )
    parser.add_argument(
        "--budget", type=int, default=200, metavar="N",
        help="number of cases to generate and check (default 200)",
    )
    parser.add_argument(
        "--window", type=int, nargs=2, default=None, metavar=("LOW", "HIGH"),
        help="core comparison window (default %d %d)"
        % (DEFAULT_PROFILE.low, DEFAULT_PROFILE.high),
    )
    parser.add_argument(
        "--max-ops", type=int, default=None, metavar="N",
        help="cap on operation nodes per expression (default %d)"
        % DEFAULT_PROFILE.max_ops,
    )
    parser.add_argument(
        "--shrink", action=argparse.BooleanOptionalAction, default=True,
        help="shrink failing cases to minimal repros (default on)",
    )
    parser.add_argument(
        "--shrink-evals", type=int, default=400, metavar="N",
        help="evaluation budget per shrink run (default 400)",
    )
    parser.add_argument(
        "--out", metavar="DIR", default="fuzz-failures",
        help="directory shrunk failing cases are written to "
        "(default fuzz-failures)",
    )
    parser.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="stop starting new cases after this many seconds (per-case "
        "results stay deterministic; the limit only truncates the run)",
    )
    parser.add_argument(
        "--replay", nargs="+", metavar="FILE", default=None,
        help="replay saved case files instead of generating",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="run under the span recorder; print a flamegraph for every "
        "failing case and the fuzz metrics at the end",
    )
    parser.add_argument(
        "--ivm", type=int, default=0, metavar="N",
        help="also run N incremental-view-maintenance cases: streamed "
        "append/retract batches where the maintained view is compared "
        "against a naive recompute after every batch (divergence kind "
        '"ivm"; seeds replay exactly)',
    )
    return parser


def _profile(args: argparse.Namespace):
    profile = DEFAULT_PROFILE
    if args.window is not None:
        low, high = args.window
        profile = replace(profile, low=low, high=high)
    if args.max_ops is not None:
        profile = replace(profile, max_ops=max(1, args.max_ops))
    return profile


def _iter_cases(args: argparse.Namespace):
    """Yield ``(label, case)`` pairs for the run."""
    if args.replay is not None:
        for path in args.replay:
            yield path, load_case(path)
        return
    profile = _profile(args)
    for index in range(args.budget):
        seed = case_seed(args.seed, index)
        yield f"case {index} (seed {seed})", generate_case(seed, profile)


def _save_repro(directory: Path, result: CaseResult, shrunk: Case) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    seed = shrunk.seed if shrunk.seed is not None else "manual"
    path = directory / f"{result.status}-seed-{seed}.json"
    kinds = ",".join(sorted({d.kind for d in result.divergences})) or "none"
    note = (
        f"found by `repro fuzz`: status={result.status} kinds={kinds}; "
        f"original: {result.case.describe()}"
    )
    shrunk.with_note(note).save(path)
    return path


def fuzz_main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro fuzz`` (also ``python -m repro.fuzz``)."""
    args = build_parser().parse_args(argv)
    out = sys.stdout
    recorder_cm = obs.tracing() if args.trace else None
    recorder = recorder_cm.__enter__() if recorder_cm else None
    deadline = (
        time.monotonic() + args.time_limit
        if args.time_limit is not None
        else None
    )
    counts = dict.fromkeys(STATUSES, 0)
    failures = 0
    ran = 0
    truncated = False
    adds_before = COUNTERS["storage.recovery.adds_replayed"]
    boxed_before = COUNTERS["perf.complement_boxed"]
    try:
        for label, case in _iter_cases(args):
            if deadline is not None and time.monotonic() > deadline:
                truncated = True
                break
            result = run_case(case, DEFAULT_CONFIG)
            ran += 1
            counts[result.status] = counts.get(result.status, 0) + 1
            if not result.failing:
                continue
            failures += 1
            print(f"FAIL {label}", file=out)
            print(result.summary(), file=out)
            if recorder is not None and recorder.roots:
                print(obs.render_flamegraph(recorder.roots[-1]), file=out)
            if args.shrink:
                shrunk = shrink_case(
                    case, same_failure(result), max_evals=args.shrink_evals
                )
                print(f"  {shrunk}", file=out)
                path = _save_repro(Path(args.out), result, shrunk.case)
                print(f"  repro written to {path}", file=out)
        for index in range(args.ivm):
            from repro.fuzz.ivm import run_ivm_case

            seed = case_seed(args.seed, index)
            result = run_ivm_case(seed)
            ran += 1
            counts[result.status] = counts.get(result.status, 0) + 1
            if not result.failing:
                continue
            failures += 1
            print(f"FAIL ivm case {index} (seed {seed})", file=out)
            print(result.summary(), file=out)
    finally:
        if recorder_cm is not None:
            recorder_cm.__exit__(None, None, None)
    summary = "  ".join(f"{status}={counts[status]}" for status in STATUSES)
    print(f"{ran} case(s): {summary}", file=out)
    boxed = COUNTERS["perf.complement_boxed"] - boxed_before
    print(f"boxed: {boxed} complement(s) answered within a box", file=out)
    if args.ivm:
        adds = COUNTERS["storage.recovery.adds_replayed"] - adds_before
        print(f"ivm: {adds} add record(s) replayed on reopen", file=out)
    if truncated:
        print(
            f"time limit reached after {ran} case(s); run truncated",
            file=out,
        )
    if args.trace:
        snapshot = obs.metrics().snapshot()
        fuzz_counters = {
            name: value
            for name, value in sorted(snapshot.get("counters", {}).items())
            if name.startswith("fuzz.")
        }
        for name, value in fuzz_counters.items():
            print(f"{name} = {value}", file=out)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(fuzz_main())
