"""The incremental-view-maintenance differential leg.

The expression fuzzer (:mod:`repro.fuzz.diff`) checks the *algebra*;
this leg checks the *deductive layer above it*: a materialized
recursive view maintained incrementally across streamed edge batches
(:mod:`repro.deductive.incremental`) must denote exactly the point set
a from-scratch **naive** fixpoint derives from the same EDB.  Every
append batch is therefore a differential check of two independent
implementations at once — the semi-naive delta iteration and the
refresh bookkeeping on top of it — against the slow executable oracle.

Each seeded case streams a random temporal-graph workload
(:mod:`repro.deductive.scenarios`) into a
:class:`~repro.deductive.incremental.ViewMaintainer`:

* most batches are pure insertions, folded by the semi-naive
  insert-delta path;
* with probability :attr:`IvmProfile.retract_rate` a batch instead
  *retracts* a random edge schedule, exercising the
  :data:`~repro.deductive.incremental.DIRTY` recompute path.

Each batch's deltas come from the catalog's own classifier
(:func:`repro.query.catalog._input_deltas`) applied to the before and
after ``Edge`` states, exactly as ``append_stream`` derives them: an
append takes its structural insert-only path, a retraction rebuilds the
relation and must come out ``DIRTY`` by itself (or no delta at all, when
the retracted schedule was covered by the others).

After every batch the maintained ``Reach`` view is compared — as a
point set, via :func:`repro.core.algebra.equivalent` — against
``Program.evaluate(db, strategy="naive")`` on the folded EDB.  Any
disagreement is a :class:`~repro.fuzz.diff.Divergence` of kind
``"ivm"``; the case seed replays it exactly
(``repro fuzz --ivm N --seed S``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs
from repro.obs.metrics import COUNTERS
from repro.core import algebra
from repro.core.errors import ReproError
from repro.core.negation import DEFAULT_MAX_EXTENSIONS
from repro.core.normalize import DEFAULT_MAX_TUPLES
from repro.core.relations import GeneralizedRelation
from repro.deductive.incremental import DIRTY, ViewMaintainer
from repro.deductive.scenarios import (
    EDGE_SCHEMA,
    edge_batches,
    reachability_program,
)
from repro.fuzz.diff import Divergence
from repro.query.catalog import _input_deltas
from repro.query.database import Database


@dataclass(frozen=True)
class IvmProfile:
    """Workload bounds for one seeded IVM case.

    Kept deliberately small: each batch pays a full naive fixpoint as
    the oracle, so case cost is dominated by the oracle, not the
    incremental path under test.
    """

    #: Node-count range of the random graph.
    min_nodes: int = 3
    max_nodes: int = 6
    #: Batch-count range per case.
    min_batches: int = 3
    max_batches: int = 6
    #: Edges per insert batch.
    max_batch_size: int = 3
    #: Hop-window range for the reachability program.
    min_window: int = 2
    max_window: int = 5
    #: Probability a batch retracts an edge (the ``DIRTY`` path)
    #: instead of inserting.
    retract_rate: float = 0.25
    #: Comparison window for divergence row samples.
    sample_low: int = 0
    sample_high: int = 48


DEFAULT_IVM_PROFILE = IvmProfile()


@dataclass
class IvmResult:
    """The outcome of one IVM differential case."""

    seed: int
    status: str
    divergences: list[Divergence] = field(default_factory=list)
    error: str = ""
    batches: int = 0
    detail: str = ""

    @property
    def failing(self) -> bool:
        """Whether the case demands attention (a bug or a crash)."""
        return self.status in ("divergent", "error")

    def summary(self) -> str:
        """One human-readable line per outcome, plus any divergences."""
        text = f"{self.status}: ivm seed {self.seed} ({self.detail})"
        if self.error:
            text += f" ({self.error})"
        for div in self.divergences:
            text += "\n" + str(div)
        return text


def _without(relation: GeneralizedRelation, index: int) -> GeneralizedRelation:
    """A copy of ``relation`` missing its ``index``-th tuple."""
    out = GeneralizedRelation.empty(relation.schema)
    for i, gtuple in enumerate(relation):
        if i != index:
            out.add(gtuple)
    return out


def _kind(delta: object) -> str:
    """How the classifier labelled one input change."""
    if delta is DIRTY:
        return "DIRTY"
    return "no" if delta is None else "insert"


def run_ivm_case(
    seed: int, profile: IvmProfile = DEFAULT_IVM_PROFILE
) -> IvmResult:
    """Run one seeded incremental-vs-recompute differential case."""
    COUNTERS["fuzz.ivm.cases"] += 1
    rng = random.Random(seed)
    n_nodes = rng.randint(profile.min_nodes, profile.max_nodes)
    n_batches = rng.randint(profile.min_batches, profile.max_batches)
    batch_size = rng.randint(1, profile.max_batch_size)
    window = rng.randint(profile.min_window, profile.max_window)
    detail = (
        f"{n_nodes} nodes, {n_batches} batches x {batch_size}, "
        f"window {window}"
    )
    result = IvmResult(seed=seed, status="ok", detail=detail)
    try:
        program = reachability_program(window)
        batches = edge_batches(n_nodes, n_batches, batch_size, seed=seed)
        maintainer = ViewMaintainer(
            program,
            {"Edge": EDGE_SCHEMA},
            max_tuples=DEFAULT_MAX_TUPLES,
            max_extensions=DEFAULT_MAX_EXTENSIONS,
        )
        edb = GeneralizedRelation.empty(EDGE_SCHEMA)
        views, _report = maintainer.initialize({"Edge": edb})
        with obs.span("fuzz.ivm.case", seed=seed):
            for batch in batches:
                before = edb
                if rng.random() < profile.retract_rate and len(edb) > 0:
                    # Retraction: unless the rest covers the dropped
                    # schedule, the classifier must mark it DIRTY and
                    # the refresh must recompute the touched strata.
                    edb = _without(edb, rng.randrange(len(edb)))
                else:
                    edb = edb.copy()
                    for gtuple in batch:
                        edb.add(gtuple)
                deltas = _input_deltas(
                    maintainer, {"Edge": before}, {"Edge": edb}, ["Edge"]
                )
                views, _report = maintainer.refresh(
                    {"Edge": edb}, views, deltas
                )
                result.batches += 1
                oracle_db = Database()
                oracle_db.register("Edge", edb)
                oracle = program.evaluate(oracle_db, strategy="naive")
                for name in maintainer.view_names:
                    maintained = views[name]
                    recomputed = oracle.relation(name)
                    if algebra.equivalent(maintained, recomputed):
                        continue
                    lo, hi = profile.sample_low, profile.sample_high
                    want = recomputed.snapshot(lo, hi)
                    got = maintained.snapshot(lo, hi)
                    result.divergences.append(
                        Divergence(
                            kind="ivm",
                            detail=(
                                f"view {name!r} after batch "
                                f"{result.batches}/{n_batches} "
                                f"({_kind(deltas.get('Edge'))} delta): "
                                f"incremental refresh and naive "
                                f"recompute denote different point sets"
                            ),
                            missing=tuple(sorted(want - got))[:10],
                            extra=tuple(sorted(got - want))[:10],
                        )
                    )
                if result.divergences:
                    result.status = "divergent"
                    break
    except ReproError as exc:
        result.status = "error"
        result.error = f"{type(exc).__name__}: {exc}"
    COUNTERS[f"fuzz.ivm.{result.status}"] += 1
    return result
