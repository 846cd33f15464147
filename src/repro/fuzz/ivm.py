"""The incremental-view-maintenance differential leg.

The expression fuzzer (:mod:`repro.fuzz.diff`) checks the *algebra*;
this leg checks the *deductive layer above it*: a materialized
recursive view maintained incrementally across streamed edge batches
(:mod:`repro.deductive.incremental`) must denote exactly the point set
a from-scratch **naive** fixpoint derives from the same EDB.  Every
append batch is therefore a differential check of two independent
implementations at once — the semi-naive delta iteration and the
refresh bookkeeping on top of it — against the slow executable oracle.

Each seeded case installs the program on a diskless
:class:`~repro.query.catalog.VersionedCatalog` and streams a random
temporal-graph workload (:mod:`repro.deductive.scenarios`) through the
real write path, one
:meth:`~repro.query.catalog.VersionedCatalog.commit_mutations`
transaction per batch:

* most batches are pure insertions, structural ``insert`` entries
  exactly as ``append_stream`` sends them, folded by the semi-naive
  insert-delta path;
* with probability :attr:`IvmProfile.retract_rate` a batch instead
  *retracts* a random edge schedule by a ``put`` of the rebuilt
  ``Edge``, exercising the :data:`~repro.deductive.incremental.DIRTY`
  recompute path (or no delta at all, when the retracted schedule was
  covered by the others).

The catalog's own transaction step classifies the change and refreshes
the view, so the leg checks that step too: the views are read from the
committed version.

The program is the reachability program plus a view, ``Hop``, whose
head holds a constant and drops and reorders body variables.

After every batch each committed view is compared — as a point set,
via :func:`repro.core.algebra.equivalent` — against
``Program.evaluate(db, strategy="naive")`` on the folded EDB.  Any
disagreement is a :class:`~repro.fuzz.diff.Divergence` of kind
``"ivm"``; the case seed replays it exactly
(``repro fuzz --ivm N --seed S``).

Every case also streams the same batches through a durable catalog on
a :class:`~repro.storage.engine.StorageEngine` in a temporary
directory.  After a seeded batch that store is compacted, closed and
reopened, and the program installed again adopts the stored views;
after the last batch it is reopened once more, replaying the WAL,
whose insert batches and view refreshes are tuple-level ``add``
records (counted in ``storage.recovery.adds_replayed``).  The
reopened catalog must equal the diskless one in relation names, in
order, and in each relation's canonical tuple keys, in tuple order: a
difference is a divergence of kind ``"durable"``.  One seeded batch
also creates two unrelated relations, dropping one in a second
transaction of its group commit; the other lands before the views, so
the name order moves as replay must follow it.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass, field

from repro import obs
from repro.obs.metrics import COUNTERS
from repro.core import algebra
from repro.core.errors import ReproError
from repro.core.negation import DEFAULT_MAX_EXTENSIONS
from repro.core.normalize import DEFAULT_MAX_TUPLES
from repro.core.relations import GeneralizedRelation
from repro.deductive.scenarios import (
    EDGE_SCHEMA,
    edge_batches,
    reachability_program,
)
from repro.fuzz.diff import Divergence
from repro.query.catalog import VersionedCatalog
from repro.query.database import Database, _tuple_entry
from repro.storage import jsonio
from repro.storage.engine import StorageEngine


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


def _install(catalog: VersionedCatalog, program) -> VersionedCatalog:
    """Install ``program`` on ``catalog`` with the default bounds."""
    catalog.install_program(
        program,
        max_tuples=DEFAULT_MAX_TUPLES,
        max_extensions=DEFAULT_MAX_EXTENSIONS,
    )
    return catalog


def _reopen(durable: VersionedCatalog, program) -> VersionedCatalog:
    """Close ``durable``'s store and open it again with ``program``
    installed, which adopts the stored views."""
    durable.engine.close()
    engine = StorageEngine.open(durable.engine.root, create=False)
    return _install(
        VersionedCatalog(engine=engine, base=engine.relations), program
    )


def _durable_divergence(
    diskless: VersionedCatalog, durable: VersionedCatalog
) -> Divergence | None:
    """Where a reopened store differs from the diskless run, if anywhere:
    relation names in order as the store recovered them (before the
    reinstalled program moves its views last), then canonical tuple keys
    in tuple order, there and in the catalog that adopted the views."""
    want = diskless.current()
    recovered, adopted = durable.engine.relations, durable.current()
    if tuple(recovered) != want.names or {*adopted.names} != {*want.names}:
        return Divergence(
            kind="durable",
            detail=(
                f"reopened store lists relations {tuple(recovered)}, the "
                f"diskless run {want.names}"
            ),
        )
    for name in want.names:
        want_keys = [t.canonical_key() for t in want.relation(name)]
        for got in (recovered[name], adopted.relation(name)):
            if [t.canonical_key() for t in got] != want_keys:
                return Divergence(
                    kind="durable",
                    detail=(
                        f"reopened relation {name!r} holds other tuples or "
                        "another tuple order than the diskless run"
                    ),
                )
    return None


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
    reopen_at = random.Random(f"ivm-durable-{seed}").randrange(n_batches)
    move_at = random.Random(f"ivm-names-{seed}").randrange(n_batches)
    detail = (
        f"{n_nodes} nodes, {n_batches} batches x {batch_size}, "
        f"window {window}, names moved in batch {move_at + 1}, "
        f"reopened after batch {reopen_at + 1}"
    )
    result = IvmResult(seed=seed, status="ok", detail=detail)
    root = tempfile.mkdtemp(prefix="repro-ivm-")
    durable = None
    try:
        program = reachability_program(window)
        program.declare("Hop", temporal=["k"], data=["dst", "src"])
        program.rule("Hop(0, z, x) <- Reach(t, x, z)")
        batches = edge_batches(n_nodes, n_batches, batch_size, seed=seed)
        empty = {"Edge": GeneralizedRelation.empty(EDGE_SCHEMA)}
        catalog = _install(VersionedCatalog(base=empty), program)
        engine = StorageEngine.open(root)
        durable = VersionedCatalog(engine=engine, base=engine.relations)
        durable.commit_state(empty)
        _install(durable, program)
        with obs.span("fuzz.ivm.case", seed=seed):
            for index, batch in enumerate(batches):
                edb = catalog.current().relation("Edge")
                if rng.random() < profile.retract_rate and len(edb) > 0:
                    kind = "retract"
                    edb = _without(edb, rng.randrange(len(edb)))
                    mutations = [
                        {
                            "op": "put",
                            "name": "Edge",
                            "relation": jsonio.relation_to_dict(edb),
                        }
                    ]
                else:
                    kind = "insert"
                    mutations = [
                        {"op": "insert", "name": "Edge",
                         "tuple": _tuple_entry(gtuple)}
                        for gtuple in batch
                    ]
                group = [mutations]
                if index == move_at:
                    group = [
                        mutations
                        + [{"op": "create", "name": n} for n in ("Aux", "Tmp")],
                        [{"op": "drop", "name": "Tmp"}],
                    ]
                for target in (catalog, durable):
                    for txn in target.commit_mutations(group):
                        if txn.error is not None:
                            raise txn.error
                if index == reopen_at:
                    durable.engine.compact()
                    durable = _reopen(durable, program)
                committed = catalog.current()
                edb = committed.relation("Edge")
                result.batches += 1
                oracle_db = Database()
                oracle_db.register("Edge", edb)
                oracle = program.evaluate(oracle_db, strategy="naive")
                for name in catalog.view_names:
                    maintained = committed.relation(name)
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
                                f"({kind} batch): "
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
            else:
                durable = _reopen(durable, program)
                divergence = _durable_divergence(catalog, durable)
                if divergence is not None:
                    result.divergences.append(divergence)
                    result.status = "divergent"
    except ReproError as exc:
        result.status = "error"
        result.error = f"{type(exc).__name__}: {exc}"
    finally:
        if durable is not None:
            durable.engine.close()
        shutil.rmtree(root, ignore_errors=True)
    COUNTERS[f"fuzz.ivm.{result.status}"] += 1
    return result
