"""``served_mixed``: reads and writes over the wire, in an open loop.

The server (:mod:`server`) runs in its own process on a fresh durable
store.  This process is the load generator: two threads, one
connection each, sending on a fixed schedule whether or not earlier
requests have finished.

* reads, :data:`READ_RATE` per second: three ``ask`` requests to one
  ``query`` returning about 50 tuples, over a 60-tuple ``Train``
  relation nobody writes to;
* writes, :data:`WRITE_RATE` per second: a one-insert ``commit`` into
  ``Event``, each acknowledged only after its fsync.

Latency is timed from when a request was due, so a stall also delays
the requests queued behind it.  This covers the wire, MVCC snapshot
reads and the WAL + fsync commit path, and runs no view maintenance.
With one writer connection group commit never groups.

Checks, after the server has stopped: reopening the store shows
exactly the acknowledged inserts, and every read answer equals the
same query run in-process on the reopened store.
"""

from __future__ import annotations

import hashlib
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time

from harness import (
    HERE,
    PROBE_EVERY,
    PassResult,
    disk_bytes,
    median,
    percentile,
    peak_rss_mb,
    remove_dir,
    scratch_dir,
    window_digest,
)

#: Offered rates, low enough that the server stays far from saturation
#: even when the machine runs at half speed: near saturation queueing
#: makes latency grow much faster than the machine slows.
READ_RATE = 25.0
WRITE_RATE = 15.0
#: Servers started per pass; ``setup_s`` is the median start-and-seed.
SETUP_REPEATS = 3
SHAPE_SEED = 1990
TRAINS = 60
SERVICES = 6
#: Period of the ``Event`` inserts: one distinct instant each.
EVENT_PERIOD = 1_000_000
#: Offset of the one insert sent before timing (past every timed one).
WARM_UP_OFFSET = 900_000
#: Distinct reads, in schedule order, whose digests are pinned for seed 0.
PINNED_READS = 20
#: Seconds a server may take to start, or to stop.
PROCESS_TIMEOUT = 60.0

ASK = ('EXISTS d. EXISTS a. Train(d, a, "{s}") & d >= {k} '
       "& a <= d + {m}")
QUERY = "Train(d, a, s) & d >= {k} & a <= d + 50"


class Inputs:
    """The seeded ``Train`` catalog and the read/write schedules."""

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        rng = random.Random(seed)
        self.shift = rng.randrange(1000)
        order = rng.sample(range(SERVICES), SERVICES)
        self.services = [f"line{i}" for i in order]
        shape = random.Random(SHAPE_SEED)
        self.trains = []
        for _ in range(TRAINS // 6 if smoke else TRAINS):
            period = shape.choice((30, 60, 120))
            offset = shape.randrange(period)
            travel = shape.randrange(10, 60)
            self.trains.append({
                "lrps": [[(offset + self.shift) % period, period],
                         [(offset + travel + self.shift) % period, period]],
                # dep >= shift, arr - dep in [travel, travel + 8]
                "bounds": [[-1, 0, -self.shift], [1, 0, travel + 8],
                           [0, 1, -travel]],
                "data": [self.services[shape.randrange(SERVICES)]],
            })
        offsets = [self.shift + 120 * i for i in range(4)]
        self.reads = []
        for i in range(int(seconds * READ_RATE)):
            k = rng.choice(offsets)
            if i % 4 == 3:
                self.reads.append((i / READ_RATE, "query",
                                   QUERY.format(k=k), k))
            else:
                text = ASK.format(s=rng.choice(self.services), k=k,
                                  m=rng.choice((20, 40, 60)))
                self.reads.append((i / READ_RATE, "ask", text, k))
        self.writes = [
            (i / WRITE_RATE, self.shift + i)
            for i in range(int(seconds * WRITE_RATE))
        ]

    def seed_mutations(self) -> list[dict]:
        return (
            [{"op": "create", "name": "Train", "temporal": ["dep", "arr"],
              "data": ["service"]},
             {"op": "create", "name": "Event", "temporal": ["t"]}]
            + [{"op": "insert", "name": "Train", "tuple": entry}
               for entry in self.trains]
        )


def _event(offset: int) -> list[dict]:
    return [{"op": "insert", "name": "Event",
             "tuple": {"lrps": [[offset, EVENT_PERIOD]], "bounds": [],
                       "data": []}}]


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    """One line of the server's output, or raise when it is late or gone."""
    remaining = deadline - time.monotonic()
    ready, _w, _x = select.select([proc.stdout], [], [], max(0, remaining))
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise RuntimeError(f"server sent no line (exit {proc.poll()})")
    return line.strip()


class Server:
    """A server process on a fresh store under the scratch directory."""

    def __init__(self, trace_path: str | None) -> None:
        self.root = scratch_dir("served-")
        command = [sys.executable, os.path.join(HERE, "server.py"),
                   os.path.join(self.root, "db")]
        if trace_path:
            command += ["--trace", trace_path]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     text=True)
        try:
            line = _read_line(self.proc, time.monotonic() + PROCESS_TIMEOUT)
            self.port = int(line.split()[1])
        except (RuntimeError, ValueError, IndexError):
            self.stop()
            remove_dir(self.root)
            raise

    def start_tracing(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)
        line = _read_line(self.proc, time.monotonic() + PROCESS_TIMEOUT)
        if line != "tracing":
            raise RuntimeError(f"unexpected server output {line!r}")

    def stop(self) -> None:
        """Stop the server and wait for it; kill it when it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=PROCESS_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _start(inputs: Inputs, trace_path: str | None) -> Server:
    from repro.api import SyncClient

    server = Server(trace_path)
    try:
        with SyncClient(port=server.port) as client:
            client.commit(inputs.seed_mutations())
    except BaseException:
        server.stop()
        remove_dir(server.root)
        raise
    return server


def _warm_up(server: Server, inputs: Inputs) -> set[int]:
    """Send every distinct read and one write before timing starts.

    Lazy imports and first-use caches in the server would otherwise
    stall the first timed requests.  Returns the acknowledged insert.
    """
    from repro.api import SyncClient

    with SyncClient(port=server.port) as client:
        for call, text in dict.fromkeys(
            (call, text) for _due, call, text, _k in inputs.reads
        ):
            _send_read(client, (0.0, call, text, 0))
        client.commit(_event(WARM_UP_OFFSET + inputs.shift))
    return {WARM_UP_OFFSET + inputs.shift}


class _Lane:
    """One load thread's connection, schedule and measurements."""

    def __init__(self, port: int, schedule, send, tracer, first_op: int):
        self.port, self.schedule, self.send = port, schedule, send
        self.tracer, self.first_op = tracer, first_op
        self.latencies: list[float] = []  # from due time
        self.ended: list[float] = []
        self.service: list[float] = []  # from send time
        self.lags: list[float] = []
        self.answers: list[tuple] = []
        self.errors: list[str] = []

    def run(self, start: float) -> None:
        from repro.api import SyncClient

        with SyncClient(port=self.port) as client:
            for index, item in enumerate(self.schedule):
                due = start + item[0]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    if self.tracer is None:
                        answer = self.send(client, item)
                    else:
                        answer, _ = self.tracer.call(
                            self.first_op + index, self.send, client, item,
                            count_counters=False)
                except Exception as exc:  # counted as failed, load goes on
                    self.errors.append(repr(exc))
                    continue
                done = time.perf_counter()
                self.latencies.append(done - due)
                self.ended.append(done)
                self.service.append(done - sent)
                self.lags.append(max(0.0, sent - due))
                self.answers.append((item, answer))


def _send_read(client, item):
    _due, call, text, _k = item
    if call == "ask":
        return client.ask(text)
    return client.query(text)


def _send_write(client, item):
    client.commit(_event(item[1]))
    return item[1]


def run_pass(seed: int, seconds: float, tracer, smoke: bool,
             expected: dict) -> PassResult:
    """Start the server, run the open loop, stop it, then check."""
    inputs = Inputs(seed, seconds, smoke)
    result = PassResult(open_loop=True)
    trace_path = None
    if tracer is not None:
        from harness import SCRATCH

        trace_path = os.path.join(SCRATCH, f"trace-server-seed{seed}.json")
    for attempt in range(SETUP_REPEATS):
        started = time.perf_counter()
        last = attempt == SETUP_REPEATS - 1
        server = _start(inputs, trace_path if last else None)
        result.record_setup(time.perf_counter() - started)
        if not last:
            server.stop()
            remove_dir(server.root)
    lanes = [
        _Lane(server.port, inputs.reads, _send_read, tracer, 0),
        _Lane(server.port, inputs.writes, _send_write, tracer,
              len(inputs.reads)),
    ]
    try:
        acked = _warm_up(server, inputs)
        if tracer is not None:
            server.start_tracing()
            tracer.install()
        try:
            _drive(lanes, result)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        server.stop()
    try:
        _check(result, lanes, acked, server.root, seed, smoke, expected)
        if trace_path is not None:
            _server_trace(result, lanes, trace_path)
    finally:
        remove_dir(server.root)
    reads, writes = lanes
    result.attempted = len(inputs.reads) + len(inputs.writes)
    result.failed = len(reads.errors) + len(writes.errors)
    result.latencies = reads.latencies + writes.latencies
    result.ended = reads.ended + writes.ended
    result.peak_rss_mb = peak_rss_mb(children=True)
    result.extra.update(
        tuples_written=len(writes.answers),
        read_p50_ms=median(reads.latencies or [0.0]) * 1e3,
        write_p50_ms=median(writes.latencies or [0.0]) * 1e3,
        lag_p99_ms=percentile(reads.lags + writes.lags or [0.0], 0.99) * 1e3,
    )
    return result


def _drive(lanes: list[_Lane], result: PassResult) -> None:
    """Run the lanes on their own threads; probe speed until they end."""
    start = time.perf_counter() + 0.1
    threads = [threading.Thread(target=lane.run, args=(start,))
               for lane in lanes]
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        time.sleep(PROBE_EVERY)
        result.probe()
    for thread in threads:
        thread.join()
    result.elapsed = time.perf_counter() - start


def _check(result, lanes, warm_acked, root, seed, smoke,
           expected) -> None:
    from repro.api import Database

    reads, writes = lanes
    for lane in lanes:
        result.check("every request succeeded", not lane.errors,
                     "; ".join(lane.errors[:3]))
        result.check("every request was sent",
                     len(lane.latencies) + len(lane.errors)
                     == len(lane.schedule))
    acked = {offset for _item, offset in writes.answers} | warm_acked
    db = Database.open(os.path.join(root, "db"))
    try:
        result.extra["disk_bytes"] = disk_bytes(root)
        stored = {t.lrps[0].offset for t in db.relation("Event")}
        result.check("reopened store holds exactly the acked inserts",
                     stored == acked,
                     f"{len(stored)} stored, {len(acked)} acked")
        served: dict[str, str] = {}
        for (_due, call, text, k), answer in reads.answers:
            digest = _digest(call, answer, k)
            if served.setdefault(text, digest) != digest:
                result.check("repeated reads agree", False, text)
        distinct = {text: (call, k)
                    for (_due, call, text, k), _answer in reads.answers}
        local = {
            text: _digest(call, db.ask(text) if call == "ask"
                          else db.query(text), k)
            for text, (call, k) in distinct.items()
        }
        result.check("served reads == in-process reads", served == local,
                     f"{len(served)} distinct reads")
    finally:
        db.close()
    pinned = {} if smoke else expected.get("served_mixed", {}).get(
        str(seed), {})
    if pinned:
        first = list(served.items())[:PINNED_READS]
        digest = hashlib.sha256(repr(first).encode()).hexdigest()[:16]
        result.check("read digests match pinned", pinned.get("reads") ==
                     digest, f"got {digest}, pinned {pinned.get('reads')}")


def _digest(call: str, answer, k: int) -> str:
    if call == "ask":
        return f"ask:{answer}"
    return window_digest(answer, k - 50, k + 250)


def _server_trace(result, lanes, path: str) -> None:
    """Fold the server's trace in; derive the wire + queue waits."""
    import json

    with open(path) as handle:
        server = json.load(handle)
    result.extra["server"] = server
    handled = {"serve.snapshot": [], "query.catalog": []}
    for name, start, end, _parent, _op in server["spans"]:
        if name in handled and end:
            handled[name].append(end - start)
    reads, writes = lanes
    for key, lane, span in (("read", reads, "serve.snapshot"),
                            ("write", writes, "query.catalog")):
        if lane.service and handled[span]:
            result.extra[f"{key}_wire_queue_ms"] = (
                median(lane.service) - median(handled[span])) * 1e3
