"""Operation counters: machine-independent cost accounting.

Wall-clock timings are noisy; the benchmarks corroborate them with
simple structural counts — how many tuples an operation produced, how
many pairwise tuple combinations it examined — which track the paper's
complexity parameters (N tuples, m columns) directly.

The engine's own counts (incremental closures, prefilter rejections,
batched kernel closures, planner and storage work) live in the one
counter store, :data:`repro.obs.metrics.COUNTERS`; read it with
``repro.obs.metrics().snapshot()["counters"]``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.relations import GeneralizedRelation


@dataclass
class CostReport:
    """Structural cost of one algebra computation."""

    input_tuples: int
    output_tuples: int
    schema_width: int
    counters: Counter = field(default_factory=Counter)

    def __str__(self) -> str:
        extra = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        base = (
            f"in={self.input_tuples} out={self.output_tuples} "
            f"m={self.schema_width}"
        )
        return f"{base} {extra}" if extra else base


def measure_binary(
    operation,
    r1: GeneralizedRelation,
    r2: GeneralizedRelation,
) -> tuple[GeneralizedRelation, CostReport]:
    """Run a binary algebra operation and report structural cost."""
    result = operation(r1, r2)
    report = CostReport(
        input_tuples=len(r1) + len(r2),
        output_tuples=len(result),
        schema_width=len(result.schema),
        counters=Counter(pairs_examined=len(r1) * len(r2)),
    )
    return result, report


def measure_unary(
    operation,
    relation: GeneralizedRelation,
) -> tuple[GeneralizedRelation, CostReport]:
    """Run a unary algebra operation and report structural cost."""
    result = operation(relation)
    report = CostReport(
        input_tuples=len(relation),
        output_tuples=len(result),
        schema_width=len(result.schema),
    )
    return result, report

