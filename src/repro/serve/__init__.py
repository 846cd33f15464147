"""repro.serve — the concurrent serving layer.

A small asyncio TCP server (:class:`ReproServer`) puts one temporal
database in front of many concurrent clients:

* **MVCC snapshot reads** — each connection can pin an immutable
  committed catalog version and query it without ever blocking (or
  being torn by) writers;
* **group commit** — concurrent transactions are drained into commit
  groups made durable by one WAL append run and a single fsync
  (:class:`GroupCommitBatcher`).

The wire protocol is newline-delimited JSON
(:mod:`repro.serve.protocol`); :class:`SyncClient` /
:class:`Client` are the blocking and asyncio clients.  Start a server
from the command line with ``python -m repro.cli serve start PATH``.
Its end-to-end benchmark is the ``served_mixed`` workload of
``benchmarks/e2e`` (``benchmarks/e2e/README.md``).
"""

from repro.serve.client import Client, SyncClient
from repro.serve.protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION
from repro.serve.server import GroupCommitBatcher, ReproServer

__all__ = [
    "Client",
    "GroupCommitBatcher",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ReproServer",
    "SyncClient",
]
