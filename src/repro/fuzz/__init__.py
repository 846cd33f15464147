"""repro.fuzz — differential fuzzing against the finite-window oracle.

The paper's strawman — materializing an infinite relation up to a
horizon — doubles as an executable specification: over a bounded
window, the generalized (symbolic) algebra and a conventional finite
engine must agree exactly.  This package exploits that:

* :mod:`repro.fuzz.case` — replayable (relations, expression, window)
  cases, the expression a plan-IR tree (:mod:`repro.plan.nodes`), with
  a stable JSON form (the ``tests/corpus/`` format).
* :mod:`repro.fuzz.gen` — seeded deterministic case generation, built
  on the same drawing logic as the :mod:`repro.testing` strategies.
* :mod:`repro.fuzz.diff` — the differential executor: the plan as
  built (the naive leg) vs
  :class:`~repro.baseline.finite.FiniteRelation` over per-node
  windows, and the rewritten plan vs the naive leg, both legs on
  :class:`~repro.plan.engine.NativeEngine`.
* :mod:`repro.fuzz.shrink` — delta-debugging minimization of failing
  cases to few-tuple, few-node repros.
* :mod:`repro.fuzz.ivm` — the incremental-view-maintenance leg:
  streamed append/retract batches whose maintained recursive view is
  compared against a naive recompute after every batch (divergence
  kind ``"ivm"``; ``repro fuzz --ivm N``).
* :mod:`repro.fuzz.cli` — the ``repro fuzz`` subcommand.

See ``docs/fuzzing.md`` for the window-commutation argument and usage.
"""

from repro.fuzz.case import FORMAT, Case, case_from_dict, load_case
from repro.fuzz.cli import fuzz_main
from repro.fuzz.diff import (
    DEFAULT_CONFIG,
    CaseResult,
    DiffConfig,
    Divergence,
    OversizeError,
    compute_margin,
    eval_finite,
    eval_naive,
    eval_planned,
    run_case,
)
from repro.fuzz.gen import (
    DEFAULT_PROFILE,
    FuzzProfile,
    case_seed,
    generate_case,
)
from repro.fuzz.ivm import (
    DEFAULT_IVM_PROFILE,
    IvmProfile,
    IvmResult,
    run_ivm_case,
)
from repro.fuzz.shrink import ShrinkResult, same_failure, shrink_case

__all__ = [
    "FORMAT",
    "Case",
    "CaseResult",
    "DEFAULT_CONFIG",
    "DEFAULT_IVM_PROFILE",
    "DEFAULT_PROFILE",
    "DiffConfig",
    "Divergence",
    "FuzzProfile",
    "IvmProfile",
    "IvmResult",
    "OversizeError",
    "ShrinkResult",
    "case_from_dict",
    "case_seed",
    "compute_margin",
    "eval_finite",
    "eval_naive",
    "eval_planned",
    "fuzz_main",
    "generate_case",
    "load_case",
    "run_case",
    "run_ivm_case",
    "same_failure",
    "shrink_case",
]
