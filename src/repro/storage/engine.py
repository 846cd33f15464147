"""The durable storage engine: WAL-backed catalog with crash recovery.

The paper's central claim (Defs. 2.1–2.3) is that infinite temporal
extensions admit a *finite, storable* representation.  This module
makes "storable" literal: a :class:`StorageEngine` persists a whole
catalog of generalized relations on disk and guarantees that a crash
at any moment leaves the database recoverable to exactly the last
committed state.

On-disk layout (one directory per database)::

    <root>/
      MANIFEST           one CRC-framed record: format version, the
                         current snapshot name and its LSN
      wal.log            append-only CRC-framed mutation records
      snapshots/         full-catalog snapshot files, one live at a time
        snapshot-<lsn>.json

Logical WAL records (physical framing in :mod:`repro.storage.wal`):

* ``{"lsn", "txn", "op": "put",  "name", "relation"}`` — create or
  replace one relation (payload via :mod:`repro.storage.jsonio`);
* ``{"lsn", "txn", "op": "drop", "name"}`` — remove one relation;
* ``{"lsn", "txn", "op": "commit", "ops": k}`` — transaction commit
  marker; a transaction's records only take effect if this marker made
  it to disk intact.

Commit protocol (:meth:`StorageEngine.commit`): diff the live catalog
against the last committed state, append one ``put``/``drop`` record
per changed relation, append the commit marker, fsync once.  Recovery
(:meth:`StorageEngine.open`) loads the manifest's snapshot, replays
every *committed* transaction whose LSNs exceed the snapshot's, and
truncates any torn tail — so a crash anywhere inside commit leaves
either the full pre-commit or the full post-commit state, never a
partial one.

**Group commit** (:meth:`StorageEngine.commit_many`) generalizes the
protocol to a batch of transactions: each catalog state in the batch is
diffed against its predecessor and appended as its own WAL transaction
(records + commit marker), but the whole batch shares one fsync at the
end.  A crash mid-batch is still per-transaction atomic — recovery
keeps exactly the prefix of transactions whose commit markers reached
disk — and no caller is acknowledged before the shared fsync returns,
so an unacknowledged transaction lost to a crash was never promised.
This is what lets the serving layer (:mod:`repro.serve`) funnel many
concurrent writers through a single disk flush.

**Single-writer lock**: :meth:`open` takes an exclusive ``flock`` on
``<root>/LOCK`` and holds it until :meth:`close`.  A second engine —
in this or any other process — opening the same root gets a clean
:class:`~repro.core.errors.StorageError` instead of interleaving WAL
appends with the first.  A crashed engine (injected fault) releases
the lock immediately, modeling the OS dropping a dead process's locks.

Every transaction committed bumps the engine's monotone
:attr:`~StorageEngine.version` token; the MVCC catalog core
(:mod:`repro.query.catalog`) uses it to name immutable committed
catalog versions.

Compaction (:meth:`StorageEngine.compact`) folds the WAL into a fresh
snapshot using the classic temp-file/fsync/rename dance, updating the
manifest atomically before truncating the log; a crash at any step
leaves a state recovery reads back identically (compaction never
changes the committed catalog, only its encoding).

Every step on these paths fires a named injection point from
:mod:`repro.storage.faults`; ``tests/test_storage_faults.py`` is the
matrix that proves the atomicity claim at each of them.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

try:  # POSIX only; on other platforms the single-writer lock is a no-op
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

from repro.core.errors import RecoveryError, StorageError
from repro.core.relations import GeneralizedRelation
from repro.obs import metrics
from repro.obs.metrics import COUNTERS
from repro.storage import faults, jsonio
from repro.storage.wal import canonical_json, encode_record, scan_wal

FORMAT_VERSION = 1

MANIFEST_NAME = "MANIFEST"
WAL_NAME = "wal.log"
SNAPSHOT_DIR = "snapshots"
LOCK_NAME = "LOCK"


def _fsync_dir(path: str) -> None:
    """Best-effort fsync of a directory (durability of renames)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir-fsync
        pass
    finally:
        os.close(fd)


class StorageEngine:
    """A crash-safe, WAL-backed store for one catalog of relations.

    Use :meth:`open` (or, at one level up,
    :meth:`repro.query.database.Database.open`) rather than the
    constructor; open runs recovery and leaves the engine ready to
    append.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.relations: dict[str, GeneralizedRelation] = {}
        self._committed: dict[str, str] = {}  # name -> canonical payload
        self._next_lsn = 1
        self._next_txn = 1
        self._snapshot_lsn = 0
        self._snapshot_name: str | None = None
        self._wal_file = None
        self._lock_fd: int | None = None
        self._closed = True
        self._crashed = False

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    @property
    def _manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    @property
    def _wal_path(self) -> str:
        return os.path.join(self.root, WAL_NAME)

    @property
    def _snapshot_dir(self) -> str:
        return os.path.join(self.root, SNAPSHOT_DIR)

    @property
    def _lock_path(self) -> str:
        return os.path.join(self.root, LOCK_NAME)

    # ------------------------------------------------------------------
    # single-writer lock
    # ------------------------------------------------------------------

    def _acquire_lock(self) -> None:
        """Take the exclusive inter-process lock on this root.

        Uses a non-blocking ``flock`` on ``<root>/LOCK`` so a second
        opener — another process or another engine in this one — fails
        fast with :class:`~repro.core.errors.StorageError` instead of
        silently interleaving WAL appends with the holder.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            return
        fd = os.open(self._lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise StorageError(
                f"database at {self.root!r} is locked by another writer "
                "(the storage engine is single-writer; close the other "
                "handle or serve the database via repro.serve)"
            ) from None
        self._lock_fd = fd

    def _release_lock(self) -> None:
        """Drop the inter-process lock (idempotent)."""
        if self._lock_fd is None:
            return
        try:
            os.close(self._lock_fd)  # closing the fd releases the flock
        except OSError:  # pragma: no cover - already closed
            pass
        self._lock_fd = None

    def _mark_crashed(self) -> None:
        """Record an injected crash and release the lock.

        A real crash would end the process, and the OS would drop its
        ``flock`` with it; the simulated crash must do the same so the
        test harness can reopen the root the way a restarted process
        would.
        """
        self._crashed = True
        self._release_lock()

    # ------------------------------------------------------------------
    # open / recovery
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, root: str, create: bool = True) -> StorageEngine:
        """Open (and recover) the database at ``root``.

        With ``create`` set (the default) a missing or empty directory
        is initialized to an empty database; otherwise opening a path
        with no manifest raises :class:`~repro.core.errors.StorageError`.

        Opening takes the exclusive single-writer lock first — before
        recovery, which may truncate a torn WAL tail — so two engines
        can never repair or append to the same root concurrently; the
        loser gets a :class:`~repro.core.errors.StorageError`.
        """
        engine = cls(root)
        started = time.perf_counter()
        if not os.path.exists(engine._manifest_path):
            if not create:
                raise StorageError(f"no database at {root!r}")
            if os.path.isdir(root) and any(
                entry not in (SNAPSHOT_DIR, WAL_NAME, LOCK_NAME)
                for entry in os.listdir(root)
            ):
                raise StorageError(
                    f"refusing to initialize a database in non-empty "
                    f"directory {root!r}"
                )
            os.makedirs(root, exist_ok=True)
        engine._acquire_lock()
        try:
            if not os.path.exists(engine._manifest_path):
                engine._initialize()
            engine._recover()
            engine._wal_file = open(engine._wal_path, "ab", buffering=0)
        except BaseException:
            engine._release_lock()
            raise
        engine._closed = False
        registry = metrics()
        registry.histogram("storage.recovery.seconds").observe(
            time.perf_counter() - started
        )
        registry.gauge("storage.wal.bytes").set(
            os.path.getsize(engine._wal_path)
        )
        registry.gauge("storage.relations").set(len(engine.relations))
        return engine

    def _initialize(self) -> None:
        """Create the directory skeleton and an empty manifest."""
        os.makedirs(self._snapshot_dir, exist_ok=True)
        with open(self._wal_path, "ab"):
            pass
        self._write_manifest(snapshot=None, snapshot_lsn=0, fire=False)

    def _manifest_payload(
        self, snapshot: str | None, snapshot_lsn: int
    ) -> dict[str, Any]:
        return {
            "format": FORMAT_VERSION,
            "snapshot": snapshot,
            "snapshot_lsn": snapshot_lsn,
        }

    def _write_manifest(
        self, snapshot: str | None, snapshot_lsn: int, fire: bool = True
    ) -> None:
        """Atomically replace the manifest (temp + fsync + rename)."""
        record = encode_record(
            self._manifest_payload(snapshot, snapshot_lsn)
        )
        tmp = self._manifest_path + ".tmp"
        if fire:
            self._guarded_write("manifest.write", tmp, record)
        else:
            with open(tmp, "wb", buffering=0) as handle:
                handle.write(record)
                os.fsync(handle.fileno())
        if fire:
            faults.fire("manifest.rename")
        os.replace(tmp, self._manifest_path)
        _fsync_dir(self.root)
        self._snapshot_name = snapshot
        self._snapshot_lsn = snapshot_lsn

    def _guarded_write(self, point: str, path: str, data: bytes) -> None:
        """Write ``data`` to ``path``, honoring torn-write injection."""
        cut = faults.fire(point, size=len(data))
        with open(path, "wb", buffering=0) as handle:
            if cut is not None:
                handle.write(data[:cut])
                self._mark_crashed()
                raise faults.InjectedCrash(point)
            handle.write(data)
            faults.fire(point.rsplit(".", 1)[0] + ".fsync")
            os.fsync(handle.fileno())

    def _recover(self) -> None:
        """Rebuild the committed state: snapshot + committed WAL suffix."""
        manifest = self._read_framed_file(self._manifest_path, "manifest")
        if manifest.get("format") != FORMAT_VERSION:
            raise RecoveryError(
                f"unsupported storage format {manifest.get('format')!r}"
            )
        self._snapshot_name = manifest.get("snapshot")
        self._snapshot_lsn = int(manifest.get("snapshot_lsn") or 0)
        payloads: dict[str, dict] = {}
        if self._snapshot_name is not None:
            snapshot_path = os.path.join(
                self._snapshot_dir, self._snapshot_name
            )
            snapshot = self._read_framed_file(snapshot_path, "snapshot")
            payloads.update(snapshot.get("relations", {}))
        replayed, discarded = self._replay_wal(payloads)
        self.relations = {}
        self._committed = {}
        for name, payload in payloads.items():
            try:
                relation = jsonio.relation_from_dict(payload)
            except Exception as exc:
                raise RecoveryError(
                    f"cannot rebuild relation {name!r}: {exc}"
                ) from exc
            self.relations[name] = relation
            self._committed[name] = canonical_json(payload)
        self._cleanup_snapshots()
        COUNTERS["storage.recovery.records_replayed"] += replayed
        COUNTERS["storage.recovery.txns_discarded"] += discarded

    def _read_framed_file(self, path: str, what: str) -> dict[str, Any]:
        """Read a single-record CRC-framed file (manifest or snapshot)."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise RecoveryError(f"cannot read {what} at {path!r}: {exc}")
        scan = scan_wal(data)
        if scan.torn or len(scan.records) != 1:
            raise RecoveryError(
                f"{what} at {path!r} is corrupt "
                f"({len(scan.records)} valid record(s), torn={scan.torn})"
            )
        return scan.records[0]

    def _replay_wal(self, payloads: dict[str, dict]) -> tuple[int, int]:
        """Apply committed WAL transactions onto ``payloads`` in place.

        Returns ``(records_replayed, txns_discarded)``.  Truncates a
        torn tail so the next append starts from a clean record
        boundary.
        """
        if not os.path.exists(self._wal_path):
            return 0, 0
        with open(self._wal_path, "rb") as handle:
            data = handle.read()
        scan = scan_wal(data)
        if scan.torn:
            with open(self._wal_path, "r+b") as handle:
                handle.truncate(scan.valid_bytes)
            _fsync_dir(self.root)
        pending: dict[int, list[dict]] = {}
        replayed = 0
        max_lsn = self._snapshot_lsn
        max_txn = 0
        for record in scan.records:
            try:
                lsn = int(record["lsn"])
                txn = int(record["txn"])
                op = record["op"]
            except (KeyError, TypeError, ValueError) as exc:
                raise RecoveryError(f"malformed WAL record: {exc}") from exc
            max_lsn = max(max_lsn, lsn)
            max_txn = max(max_txn, txn)
            if lsn <= self._snapshot_lsn:
                continue  # already folded into the snapshot
            if op == "commit":
                for applied in pending.pop(txn, []):
                    if applied["op"] == "put":
                        payloads[applied["name"]] = applied["relation"]
                    else:
                        payloads.pop(applied["name"], None)
                    replayed += 1
            elif op in ("put", "drop"):
                pending.setdefault(txn, []).append(record)
            else:
                raise RecoveryError(f"unknown WAL op {op!r}")
        self._next_lsn = max_lsn + 1
        self._next_txn = max_txn + 1
        return replayed, len(pending)

    def _cleanup_snapshots(self) -> None:
        """Drop temp files and snapshots the manifest no longer names."""
        if not os.path.isdir(self._snapshot_dir):
            return
        for entry in os.listdir(self._snapshot_dir):
            if entry == self._snapshot_name:
                continue
            try:
                os.remove(os.path.join(self._snapshot_dir, entry))
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def commit(self, relations: dict[str, GeneralizedRelation]) -> int:
        """Durably record ``relations`` as the new committed state.

        Appends one ``put`` record per new/changed relation and one
        ``drop`` per removed relation, then the commit marker, then
        fsyncs.  Returns the number of mutation records written (0 when
        nothing changed — no I/O at all in that case).  Atomic: a crash
        anywhere inside leaves the previous committed state recoverable.
        """
        return self.commit_many([relations])[0]

    def commit_many(
        self,
        states: list[dict[str, GeneralizedRelation]],
        changed: list[set[str] | None] | None = None,
    ) -> list[int]:
        """Group commit: one WAL transaction per state, one shared fsync.

        Each catalog state is diffed against its predecessor (the first
        against the last committed state) and appended as its own
        transaction — ``put``/``drop`` records plus a commit marker —
        and the whole batch is made durable by a *single* fsync at the
        end.  Returns the per-state mutation record counts (0 for a
        state identical to its predecessor, which appends nothing and
        consumes no transaction id).

        ``changed`` optionally narrows the diff, one entry per state: a
        set of relation names the caller guarantees are the *only* ones
        whose content may differ from the predecessor state (``None``
        entries diff everything).  The transactional core supplies this
        from its copy-on-write bookkeeping, turning the per-transaction
        diff cost from O(catalog) serialization into O(touched) —
        relations outside the hint keep their committed payload without
        being re-serialized.  Dropped relations are always detected
        from the state's keys, hint or not.

        Atomicity is per transaction: a crash mid-batch recovers to the
        longest prefix of transactions whose commit markers reached
        disk.  Callers must not acknowledge any transaction in the
        batch before this method returns — that is the group-commit
        contract the serving layer's batcher upholds.
        """
        self._check_live()
        started = time.perf_counter()
        counts: list[int] = []
        committed = dict(self._committed)
        bytes_appended = 0
        records_appended = 0
        txns = 0
        try:
            for index, relations in enumerate(states):
                hint = changed[index] if changed is not None else None
                current: dict[str, str] = {}
                puts: list[tuple[str, dict]] = []
                for name, relation in relations.items():
                    if (
                        hint is not None
                        and name not in hint
                        and name in committed
                    ):
                        current[name] = committed[name]
                        continue
                    payload = jsonio.relation_to_dict(relation)
                    encoded = canonical_json(payload)
                    current[name] = encoded
                    if committed.get(name) != encoded:
                        puts.append((name, payload))
                drops = [name for name in committed if name not in current]
                if not puts and not drops:
                    counts.append(0)
                    continue
                txn = self._next_txn
                for name, payload in puts:
                    bytes_appended += self._append(
                        {
                            "lsn": self._next_lsn,
                            "txn": txn,
                            "op": "put",
                            "name": name,
                            "relation": payload,
                        }
                    )
                for name in drops:
                    bytes_appended += self._append(
                        {
                            "lsn": self._next_lsn,
                            "txn": txn,
                            "op": "drop",
                            "name": name,
                        }
                    )
                faults.fire("wal.commit")
                bytes_appended += self._append(
                    {
                        "lsn": self._next_lsn,
                        "txn": txn,
                        "op": "commit",
                        "ops": len(puts) + len(drops),
                    }
                )
                self._next_txn = txn + 1
                committed = current
                txns += 1
                records_appended += len(puts) + len(drops) + 1
                counts.append(len(puts) + len(drops))
            if txns:
                faults.fire("wal.fsync")
                os.fsync(self._wal_file.fileno())
        except faults.InjectedCrash:
            self._mark_crashed()
            raise
        if not txns:
            return counts
        self._committed = committed
        self.relations = dict(states[-1])
        registry = metrics()
        COUNTERS["storage.wal.records_appended"] += records_appended
        COUNTERS["storage.wal.bytes_appended"] += bytes_appended
        COUNTERS["storage.wal.fsyncs"] += 1
        COUNTERS["storage.commit.txns"] += txns
        registry.histogram("storage.commit.batch_txns").observe(txns)
        registry.gauge("storage.wal.bytes").set(
            os.path.getsize(self._wal_path)
        )
        registry.gauge("storage.relations").set(len(states[-1]))
        registry.histogram("storage.commit.seconds").observe(
            time.perf_counter() - started
        )
        return counts

    def _append(self, payload: dict[str, Any]) -> int:
        """Frame and append one record (torn-write injection point)."""
        data = encode_record(payload)
        cut = faults.fire("wal.append", size=len(data))
        if cut is not None:
            self._wal_file.write(data[:cut])
            self._mark_crashed()
            raise faults.InjectedCrash("wal.append")
        self._wal_file.write(data)
        self._next_lsn += 1
        return len(data)

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def compact(self) -> str:
        """Fold the committed state into a fresh snapshot; truncate WAL.

        Only *committed* state is compacted — uncommitted in-memory
        mutations stay uncommitted.  The protocol is crash-safe at
        every step: snapshot to a temp file, fsync, rename, atomically
        swing the manifest, and only then truncate the log.  Returns
        the new snapshot's file name.
        """
        self._check_live()
        started = time.perf_counter()
        snapshot_lsn = self._next_lsn - 1
        payload = {
            "format": FORMAT_VERSION,
            "snapshot_lsn": snapshot_lsn,
            "relations": {
                name: json.loads(encoded)
                for name, encoded in self._committed.items()
            },
        }
        record = encode_record(payload)
        name = f"snapshot-{snapshot_lsn:012d}.json"
        final = os.path.join(self._snapshot_dir, name)
        tmp = final + ".tmp"
        try:
            self._guarded_write("snapshot.write", tmp, record)
            faults.fire("snapshot.rename")
            os.replace(tmp, final)
            _fsync_dir(self._snapshot_dir)
            self._write_manifest(snapshot=name, snapshot_lsn=snapshot_lsn)
            faults.fire("wal.reset")
        except faults.InjectedCrash:
            self._mark_crashed()
            raise
        self._wal_file.close()
        self._wal_file = open(self._wal_path, "wb", buffering=0)
        _fsync_dir(self.root)
        self._cleanup_snapshots()
        registry = metrics()
        COUNTERS["storage.snapshots_written"] += 1
        registry.gauge("storage.snapshot.bytes").set(len(record))
        registry.gauge("storage.wal.bytes").set(0)
        registry.histogram("storage.snapshot.seconds").observe(
            time.perf_counter() - started
        )
        return name

    # ------------------------------------------------------------------
    # lifecycle / inspection
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Flush and release file handles (idempotent).

        Closing does *not* commit: like a real database, work not
        committed before ``close`` is gone on reopen.
        """
        if self._wal_file is not None and not self._wal_file.closed:
            if not self._crashed:
                try:
                    os.fsync(self._wal_file.fileno())
                except OSError:  # pragma: no cover
                    pass
            self._wal_file.close()
        self._release_lock()
        self._closed = True

    def _check_live(self) -> None:
        if self._crashed:
            raise StorageError(
                "engine crashed (injected fault); reopen the database"
            )
        if self._closed:
            raise StorageError("engine is closed")

    @property
    def version(self) -> int:
        """The monotone committed-version token (last committed txn id).

        Starts at the highest transaction id recovery replayed (0 for a
        fresh database) and bumps once per committed transaction — the
        identity the MVCC catalog core stamps on immutable committed
        versions.
        """
        return self._next_txn - 1

    def info(self) -> dict[str, Any]:
        """A JSON-friendly summary of the store (for ``repro db info``)."""
        wal_bytes = (
            os.path.getsize(self._wal_path)
            if os.path.exists(self._wal_path)
            else 0
        )
        return {
            "root": self.root,
            "format": FORMAT_VERSION,
            "relations": {
                name: len(rel) for name, rel in self.relations.items()
            },
            "snapshot": self._snapshot_name,
            "snapshot_lsn": self._snapshot_lsn,
            "next_lsn": self._next_lsn,
            "version": self.version,
            "wal_bytes": wal_bytes,
        }

    def __enter__(self) -> StorageEngine:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "crashed" if self._crashed else (
            "closed" if self._closed else "open"
        )
        return (
            f"<StorageEngine {self.root!r} {state} "
            f"relations={list(self.relations)}>"
        )
