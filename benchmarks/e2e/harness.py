"""Shared pieces of the benchmark: scratch space, statistics, results."""

from __future__ import annotations

import bisect
import gc
import hashlib
import math
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Every file the benchmark writes lives under here (git-ignored).
SCRATCH = os.path.join(ROOT, ".bench_out")


def scratch_dir(prefix: str) -> str:
    """A fresh directory under :data:`SCRATCH`; see :func:`remove_dir`."""
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def calibrate(repeats: int = 1) -> float:
    """Seconds a fixed pure-Python task takes: a gauge of machine speed.

    The task builds, sorts and scans small tuples, dicts and lists, the
    kind of work the program itself does, so it slows down about as
    much as the program when the CPU is shared.  One repeat (about a
    millisecond) is a speed probe taken during a pass; a longer run is
    recorded before and after each workload.

    It measures wall time, so a CPU shared with another process reads
    as slow, as it is for the operations too.  The garbage collector
    is paused meanwhile: everything the task allocates is freed before
    it is resumed, so the program's collections fall where they would
    without probes.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(repeats):
            table = {(i % 97, i): (i, f"k{i % 31}") for i in range(1500)}
            rows = sorted(table.items(), key=lambda item: item[1][1])
            keys = [list(key) for key, _value in rows]
            keys.sort()
            del table, rows, keys
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


#: Seconds between speed probes taken between the operations of a pass.
PROBE_EVERY = 0.2
#: Seconds either side of an operation whose probes gauge its speed.
PROBE_WINDOW = 1.0
#: Seconds one probe takes on the machine the bounds were measured on,
#: a 2-core 2.1 GHz Xeon virtual machine.
REFERENCE_PROBE_S = 0.0012


def speed_scales(probes: list[tuple[float, float]],
                 ended: list[float]) -> list[float]:
    """Per timed step: reference probe time over the probes near its end.

    The CPUs of a shared machine change speed by tens of percent within
    seconds, and the probe task (:func:`calibrate`) slows with them.
    Multiplying a step's time by this factor puts it on the reference
    machine's scale.  Without probes every factor is 1.
    """
    at = [when for when, _seconds in probes]
    seconds = [s for _when, s in probes]
    out = []
    for end in ended:
        low = bisect.bisect_left(at, end - PROBE_WINDOW)
        high = bisect.bisect_right(at, end + PROBE_WINDOW)
        near = seconds[low:high] or seconds
        out.append(REFERENCE_PROBE_S / median(near) if near else 1.0)
    return out


def disk_bytes(root: str) -> int:
    """Bytes in every file under ``root``."""
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, files in os.walk(root)
        for name in files
    )


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set size in MiB of this process or of waited children."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed(tracer, op_id, fn, *args):
    """Run one operation; ``(result, seconds)``, traced when asked."""
    if tracer is not None:
        return tracer.call(op_id, fn, *args)
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def window_digest(relation, low: int, high: int) -> str:
    """Digest of a relation's point set inside ``[low, high]``."""
    points = sorted(relation.enumerate(low, high))
    text = repr(points).encode()
    return f"{len(points)}:{hashlib.sha256(text).hexdigest()[:16]}"


@dataclass
class PassResult:
    """What one pass of a workload measured and checked.

    ``latencies`` are seconds per timed operation and ``ended`` the
    clock reading when each finished; ``elapsed`` is the time the
    operations were measured over (their summed latency in a closed
    loop, the schedule length in an open loop).
    """

    latencies: list[float] = field(default_factory=list)
    ended: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    open_loop: bool = False
    setups: list[float] = field(default_factory=list)
    setups_ended: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: ``(clock reading, seconds)`` of each speed probe of the pass.
    probes: list[tuple[float, float]] = field(default_factory=list)
    #: Per-workload numbers the per-layer metrics are derived from.
    extra: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def record(self, latency: float) -> None:
        """Record one completed operation of a closed loop."""
        self.latencies.append(latency)
        self.ended.append(time.perf_counter())
        self.elapsed += latency

    def record_setup(self, seconds: float) -> None:
        """Record one set-up, with a speed probe right after it."""
        self.setups.append(seconds)
        self.setups_ended.append(time.perf_counter())
        self.probes.append((time.perf_counter(), calibrate()))

    def probe(self) -> None:
        """Take a speed probe if the last one is :data:`PROBE_EVERY` old.

        Called between operations, outside their timing.
        """
        now = time.perf_counter()
        if not self.probes or now - self.probes[-1][0] >= PROBE_EVERY:
            self.probes.append((now, calibrate()))
