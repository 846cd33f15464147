"""The crash-recovery matrix: every injection point × every workload.

This is the proof of the engine's atomicity claim: for a crash at
*any* fault point on the commit or compaction path, reopening the
database yields **exactly** the pre-commit or the post-commit state —
never a mixture, never a partial transaction.  States are compared as
finite-window point sets through two independent lenses: the symbolic
``GeneralizedRelation.snapshot`` and the materialized
:class:`repro.baseline.finite.FiniteRelation` oracle (the same
executable specification the differential fuzzer uses), so a recovery
bug cannot hide behind a serialization quirk.

Everything is seeded and counter-based (no timing, no randomness at
run time), so the whole matrix replays identically on every machine.
"""

import random

import pytest

from repro.baseline.finite import FiniteRelation
from repro.core.tuples import GeneralizedTuple
from repro.query.database import Database
from repro.storage import faults
from repro.testing import seeded_relation

WINDOW = (-40, 120)

#: Fault points on the commit path, with the torn-write fractions the
#: matrix exercises where supported.
COMMIT_FAULTS = [
    ("wal.append", 1, None),
    ("wal.append", 1, 0.0),
    ("wal.append", 1, 0.35),
    ("wal.append", 1, 0.85),
    ("wal.append", 2, 0.5),  # second record of a multi-record txn
    ("wal.commit", 1, None),
    ("wal.fsync", 1, None),
]

#: Fault points on the compaction path.
COMPACT_FAULTS = [
    ("snapshot.write", 1, None),
    ("snapshot.write", 1, 0.5),
    ("snapshot.fsync", 1, None),
    ("snapshot.rename", 1, None),
    ("manifest.write", 1, None),
    ("manifest.write", 1, 0.5),
    ("manifest.rename", 1, None),
    ("wal.reset", 1, None),
]


def observe(db: Database) -> dict[str, frozenset]:
    """The catalog as finite-window point sets, oracle-cross-checked.

    Each relation is enumerated symbolically *and* materialized through
    the finite baseline; the two must agree before the observation is
    trusted.
    """
    out = {}
    for name in db.names:
        relation = db.relation(name)
        symbolic = frozenset(relation.snapshot(*WINDOW))
        oracle = frozenset(
            FiniteRelation.materialize(relation, *WINDOW).rows
        )
        assert symbolic == oracle, (
            f"symbolic/oracle disagreement on {name!r}"
        )
        out[name] = symbolic
    return out


def crash(db: Database, operation) -> None:
    """Run ``operation`` expecting the armed fault to kill the engine."""
    with pytest.raises(faults.InjectedCrash):
        operation(db)
    db.close()


# ----------------------------------------------------------------------
# workloads: (pre-state builder, mutation) pairs
# ----------------------------------------------------------------------


def build_empty(db: Database) -> None:
    """Workload 1: the very first commit of a fresh database."""


def build_seeded(db: Database) -> None:
    """Workload 2/3 base: a committed multi-relation seeded catalog."""
    rng = random.Random(9001)
    for i in range(3):
        db.register(
            f"R{i}",
            seeded_relation(rng, temporal_arity=2, max_tuples=4, max_period=6),
        )
    db.create("Log", temporal=["t"], data=["tag"])
    db.relation("Log").add_tuple(["7n"], "t >= 0", ["boot"])
    db.commit()


def mutate_first_commit(db: Database) -> None:
    db.create("Train", temporal=["dep", "arr"], data=["service"])
    db.relation("Train").add_tuple(
        ["2 + 60n", "80 + 60n"], "dep = arr - 78", ["slow"]
    )
    db.create("Fires", temporal=["t"])
    db.relation("Fires").add_tuple(["2 + 6n"], "t >= 0")
    db.commit()


def mutate_multi(db: Database) -> None:
    """Touch several relations in one transaction: put + put + drop."""
    rng = random.Random(77)
    db.relation("Log").add_tuple(["3 + 7n"], "t >= 10", ["tick"])
    db.register(
        "R1",
        seeded_relation(rng, temporal_arity=2, max_tuples=5, max_period=6),
    )
    db.drop("R2")
    db.create("Fresh", temporal=["t"])
    db.relation("Fresh").add_tuple(["4n"], "t >= -8")
    db.commit()


def mutate_append(db: Database) -> None:
    """Append to two relations in one transaction: add + add."""
    db.relation("R0").add(GeneralizedTuple.make(["3 + 5n", "1 + 5n"]))
    db.relation("Log").add_tuple(["3 + 7n"], "t >= 10", ["tick"])
    db.relation("Log").add_tuple(["5 + 7n"], "t >= 12", ["tock"])
    db.commit()


def compact_op(db: Database) -> None:
    db.compact()


WORKLOADS = [
    ("first_commit", build_empty, mutate_first_commit, COMMIT_FAULTS),
    ("multi_relation", build_seeded, mutate_multi, COMMIT_FAULTS),
    ("append_only", build_seeded, mutate_append, COMMIT_FAULTS),
    ("mid_compaction", build_seeded, compact_op, COMPACT_FAULTS),
]

MATRIX = [
    pytest.param(
        name,
        build,
        mutate,
        point,
        hit,
        fraction,
        id=f"{name}-{point}-hit{hit}"
        + (f"-torn{fraction}" if fraction is not None else ""),
    )
    for name, build, mutate, fault_list in WORKLOADS
    for point, hit, fraction in fault_list
]


@pytest.mark.parametrize(
    "name, build, mutate, point, hit, fraction", MATRIX
)
def test_crash_recovery_is_atomic(
    tmp_path, name, build, mutate, point, hit, fraction
):
    path = str(tmp_path / "db")

    # Pre-state: build and commit the workload's starting catalog.
    db = Database.open(path)
    build(db)
    pre = observe(db)
    db.close()

    # Post-state: what the mutation produces when nothing crashes
    # (computed on a scratch copy so the real store stays at pre).
    scratch_path = str(tmp_path / "scratch")
    scratch = Database.open(scratch_path)
    build(scratch)
    mutate(scratch)
    post = observe(scratch)
    scratch.close()

    # Crash the real store at the injection point, then recover.
    db = Database.open(path)
    with faults.crash_at(point, hit=hit, fraction=fraction):
        crash(db, mutate)
    recovered = Database.open(path)
    state = observe(recovered)

    assert state == pre or state == post, (
        f"partial state after crash at {point} (hit {hit}, "
        f"fraction {fraction}): recovered {sorted(state)} is neither "
        f"pre {sorted(pre)} nor post {sorted(post)}"
    )

    # The recovered store must be fully usable: mutate + commit again.
    recovered.create("AfterCrash", temporal=["t"])
    recovered.relation("AfterCrash").add_tuple(["9n"], "t >= 0")
    assert recovered.commit() >= 1
    recovered.close()
    final = Database.open(path)
    assert "AfterCrash" in final
    final.close()


class TestPinnedOutcomes:
    """Where the protocol *determines* pre vs post, pin it down."""

    def test_crash_before_commit_marker_recovers_pre(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database.open(path)
        with faults.crash_at("wal.commit"):
            crash(db, mutate_first_commit)
        with Database.open(path) as recovered:
            assert recovered.names == ()

    def test_crash_after_marker_before_fsync_recovers_post(self, tmp_path):
        # The marker reached the (unbuffered) file before the fsync
        # point fires, so recovery in the same machine sees the commit.
        path = str(tmp_path / "db")
        db = Database.open(path)
        with faults.crash_at("wal.fsync"):
            crash(db, mutate_first_commit)
        with Database.open(path) as recovered:
            assert set(recovered.names) == {"Train", "Fires"}

    def test_torn_first_record_recovers_pre(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database.open(path)
        with faults.crash_at("wal.append", fraction=0.6):
            crash(db, mutate_first_commit)
        with Database.open(path) as recovered:
            assert recovered.names == ()

    def test_torn_add_record_recovers_pre(self, tmp_path):
        # The append-only transaction writes two ``add`` records; a cut
        # inside the second leaves the first without a commit marker.
        path = str(tmp_path / "db")
        db = Database.open(path)
        build_seeded(db)
        pre = observe(db)
        with faults.crash_at("wal.append", hit=2, fraction=0.9):
            crash(db, mutate_append)
        with open(f"{path}/wal.log", "rb") as handle:
            tail = handle.read().rsplit(b"\n", 2)[1:]
        assert all(b'"op":"add"' in part for part in tail)
        with Database.open(path) as recovered:
            assert observe(recovered) == pre

    def test_compaction_crashes_never_change_the_catalog(self, tmp_path):
        # Compaction re-encodes the same committed state, so recovery
        # must observe it unchanged whichever side of the crash wins.
        path = str(tmp_path / "db")
        db = Database.open(path)
        build_seeded(db)
        committed = observe(db)
        db.close()
        for point in (
            "snapshot.rename",
            "manifest.rename",
            "wal.reset",
        ):
            db = Database.open(path)
            with faults.crash_at(point):
                crash(db, compact_op)
            with Database.open(path) as recovered:
                assert observe(recovered) == committed

    def test_crashed_engine_refuses_further_work(self, tmp_path):
        from repro.core.errors import StorageError

        db = Database.open(str(tmp_path / "db"))
        with faults.crash_at("wal.commit"):
            crash(db, mutate_first_commit)
        reopened_db = Database.open(str(tmp_path / "db"))
        assert reopened_db.names == ()
        reopened_db.close()
        with pytest.raises(StorageError, match="crashed"):
            db.commit()


class TestInjectorMechanics:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            faults.get_injector().arm("no.such.point")
        faults.get_injector().reset()

    def test_fraction_requires_torn_point(self):
        with pytest.raises(ValueError, match="torn"):
            faults.get_injector().arm("wal.commit", fraction=0.5)
        faults.get_injector().reset()

    def test_disarmed_injector_is_inert(self, tmp_path):
        injector = faults.get_injector()
        injector.reset()
        assert not injector.armed
        with Database.open(str(tmp_path / "db")) as db:
            mutate_first_commit(db)
        assert injector.hits["wal.commit"] >= 1  # points fired, no crash

    def test_crash_at_resets_on_exit(self, tmp_path):
        with faults.crash_at("wal.commit"):
            pass
        assert not faults.get_injector().armed
        with Database.open(str(tmp_path / "db")) as db:
            mutate_first_commit(db)  # must not crash
