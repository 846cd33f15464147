"""Write-ahead-log record framing: CRC-guarded, torn-tail-safe.

The durable engine (:mod:`repro.storage.engine`) appends every catalog
mutation to an append-only log before applying it.  This module owns
the *physical* record format; the engine owns the *logical* protocol
(transactions, commit markers, replay).

Frame format — one ASCII line per record::

    <crc32:08x> <payload-length> <payload-json>\\n

* ``payload-json`` is compact (no embedded newlines), produced by
  :func:`canonical_json`;
* ``crc32`` is computed over the payload bytes only, so a flipped bit
  anywhere in the payload is detected;
* the trailing newline doubles as an end-of-record marker: a record
  missing it was torn mid-write.

A *torn tail* — the suffix left by a crash mid-append — is therefore
always detectable: the length does not match, the CRC does not match,
or the newline is missing.  :func:`scan_wal` decodes the longest valid
prefix and reports where it ends, so recovery can truncate the garbage
and continue from a clean state.  Torn-tail handling is deliberately
*prefix-only*: the first bad frame ends the scan, because an
append-only log cannot contain valid records after a torn one (writes
are sequential).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import StorageError


def canonical_json(payload: dict[str, Any]) -> str:
    """Serialize ``payload`` compactly and deterministically.

    Sorted keys and minimal separators make the encoding canonical:
    equal payloads encode to equal bytes, so a record's bytes (and its
    CRC) depend only on its content.  Nothing compares encodings: what
    a commit writes is decided by the catalog's change sets
    (:meth:`repro.storage.engine.StorageEngine.commit_many`).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_record(payload: dict[str, Any]) -> bytes:
    """Frame one payload dictionary as a CRC-guarded WAL record."""
    body = canonical_json(payload).encode("utf-8")
    if b"\n" in body:
        raise StorageError("WAL payload must not contain newlines")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return b"%08x %d " % (crc, len(body)) + body + b"\n"


def decode_record(line: bytes) -> dict[str, Any]:
    """Decode one complete record line (without trusting it).

    Raises :class:`~repro.core.errors.StorageError` on any framing or
    checksum violation; the engine treats that as a torn/corrupt record.
    """
    if not line.endswith(b"\n"):
        raise StorageError("torn WAL record: missing end-of-record marker")
    try:
        crc_text, length_text, body = line[:-1].split(b" ", 2)
        expected_crc = int(crc_text, 16)
        expected_length = int(length_text, 10)
    except ValueError as exc:
        raise StorageError(f"malformed WAL record header: {exc}") from exc
    if len(body) != expected_length:
        raise StorageError(
            f"torn WAL record: payload is {len(body)} bytes, "
            f"header promised {expected_length}"
        )
    if (zlib.crc32(body) & 0xFFFFFFFF) != expected_crc:
        raise StorageError("corrupt WAL record: CRC mismatch")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"corrupt WAL record: bad payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise StorageError("corrupt WAL record: payload is not an object")
    return payload


@dataclass
class WalScan:
    """The result of scanning a log: valid records plus tail diagnosis.

    ``valid_bytes`` is the offset where the valid prefix ends; recovery
    truncates the file there when ``torn`` is set.
    """

    records: list[dict[str, Any]] = field(default_factory=list)
    valid_bytes: int = 0
    torn: bool = False


def scan_wal(data: bytes) -> WalScan:
    """Decode the longest valid prefix of an append-only log.

    Never raises on bad input — a torn or corrupt frame simply ends the
    scan (``torn=True``), mirroring what replay-after-crash must do.
    """
    scan = WalScan()
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            scan.torn = True  # unterminated tail
            break
        line = data[offset : newline + 1]
        try:
            payload = decode_record(line)
        except StorageError:
            scan.torn = True
            break
        scan.records.append(payload)
        offset = newline + 1
        scan.valid_bytes = offset
    return scan
