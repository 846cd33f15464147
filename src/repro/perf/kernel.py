"""Vectorized batched DBM closure kernel (``REPRO_KERNEL``).

The algebra's hot paths — projection's per-combo n-space systems,
normalization's splits, the pairwise meets of intersect/join — produce
*many small* difference systems that were previously closed one Python
Floyd–Warshall at a time.  This module packs same-dimension systems into
one contiguous ``(batch, n, n)`` float64 array (``+inf`` encodes an
absent bound) and closes them all with a single vectorized sweep::

    D = min(D, D[:, :, k, None] + D[:, k, None, :])   for each k

which is the textbook (non-in-place) Floyd–Warshall recurrence.  For a
satisfiable system it converges to the same unique shortest-path matrix
as the in-place scalar pass in :meth:`repro.core.dbm.DBM.close`;
for an unsatisfiable system the entry values may differ between the two
formulations, but both leave a negative diagonal (any negative cycle
relaxes some ``D[i][i]`` below zero), and callers discard unsatisfiable
systems without reading their entries.

Exactness: bounds are integers but the sweep runs in float64.  One
k-iteration at most doubles the largest finite magnitude, so with every
input magnitude below :data:`MAX_ABS_BOUND` (2^40) and dimension at most
:data:`MAX_DIM` every intermediate stays below 2^53 and float64
arithmetic is exact.  Systems outside that envelope fall back to the
scalar path and are counted in ``kernel.scalar_fallbacks``.

Backend selection: ``PerfConfig.kernel`` (env ``REPRO_KERNEL``) picks
``numpy``, ``python`` or ``auto``; ``auto`` and ``numpy`` degrade
gracefully to the pure-Python scalar path when numpy is not importable,
so the package keeps working without its ``perf`` extra installed.
This module is the only place the backend is read: on the python
backend every entry point runs scalar internally (or answers
:data:`SCALAR`), so no caller branches on it.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import COUNTERS, get_registry
from repro.perf.config import get_config

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.dbm import DBM

INF = float("inf")

#: Finite input magnitudes must stay below 2^40 for the float64 sweep to
#: be exact (doubling per k-iteration, at most MAX_DIM iterations).
MAX_ABS_BOUND = 1 << 40
#: Matrix dimension cap for the exactness guarantee (variables + zero).
MAX_DIM = 12
#: The fewest same-size systems worth one numpy sweep, indexed by the
#: systems' variable count (the zero variable not counted; index 0 is
#: never read): below it, packing the batch and reading it back cost
#: more than the scalar closures they replace.  Variable counts past
#: the end use the last entry.  The measurement is in
#: ``docs/performance.md`` ("Kernel batch threshold").
MIN_BATCH = (0, 16, 8, 8, 6)

#: Template bounds above this magnitude skip the int64 grid arithmetic
#: (headroom against int64 overflow when offsets are folded in).
MAX_TEMPLATE_BOUND = 1 << 60

#: Sentinel returned by :func:`project_batch` for jobs whose group failed
#: an exactness guard: the caller must redo that combo on the scalar path.
SCALAR = object()

_np: Any = None
_np_failed = False


def _numpy():
    """The numpy module, or ``None`` when it cannot be imported."""
    global _np, _np_failed
    if _np is None and not _np_failed:
        try:
            import numpy

            _np = numpy
        except Exception:  # pragma: no cover - exercised via fake-missing
            _np_failed = True
    return _np


def kernel_backend() -> str:
    """The closure backend that would run right now.

    Resolves the configured ``kernel`` field: ``"python"`` is honored
    as-is; ``"numpy"`` and ``"auto"`` return ``"numpy"`` only when the
    import actually succeeds, falling back to ``"python"`` otherwise.
    """
    if get_config().kernel == "python":
        return "python"
    return "python" if _numpy() is None else "numpy"


def kernel_active() -> bool:
    """Whether the vectorized numpy backend is in effect."""
    return kernel_backend() == "numpy"


# ----------------------------------------------------------------------
# packed-array primitives
# ----------------------------------------------------------------------


def pack(dbms: Sequence["DBM"]):
    """Stack same-dimension DBMs into one ``(batch, n, n)`` float64 array.

    ``None`` bounds become ``+inf``.  All matrices must share one
    dimension; the caller groups by :attr:`DBM._n` first.
    """
    np = _numpy()
    n = dbms[0]._n
    flat = [
        INF if bound is None else float(bound)
        for dbm in dbms
        for row in dbm._b
        for bound in row
    ]
    return np.array(flat, dtype=np.float64).reshape(len(dbms), n, n)


def close_packed(batch):
    """Floyd–Warshall-close every matrix in a packed batch, in place.

    Returns ``(batch, sat)`` where ``sat`` is a boolean vector flagging
    matrices with a non-negative diagonal (satisfiable systems).  The
    caller is responsible for the exactness guard (:func:`packed_exact`).
    """
    np = _numpy()
    n = batch.shape[1]
    for k in range(n):
        ik = batch[:, :, k]
        kj = batch[:, k, :]
        np.minimum(batch, ik[:, :, None] + kj[:, None, :], out=batch)
    diag = batch[:, np.arange(n), np.arange(n)]
    sat = ~(diag < 0).any(axis=1)
    return batch, sat


def packed_exact(batch) -> bool:
    """Whether the float64 sweep over ``batch`` is provably exact."""
    np = _numpy()
    if batch.shape[1] > MAX_DIM:
        return False
    finite = np.where(np.isinf(batch), 0.0, batch)
    return bool(np.abs(finite).max(initial=0.0) <= MAX_ABS_BOUND)


def matrix_to_bounds(matrix) -> list[list[int | None]]:
    """One closed float matrix back to the DBM bound representation."""
    return [
        [None if value == INF else int(value) for value in row]
        for row in matrix.tolist()
    ]


def _writeback(dbm: "DBM", matrix) -> None:
    """Install a closed packed matrix into a DBM, marking it closed."""
    dbm._b = matrix_to_bounds(matrix)
    dbm._closed = True


def _observe_batch(size: int) -> None:
    COUNTERS["perf.kernel.batch_closures"] += 1
    COUNTERS["perf.kernel.batch_dbms"] += size
    get_registry().histogram("kernel.batch_size").observe(size)


def _count_fallback(size: int) -> None:
    COUNTERS["perf.kernel.scalar_fallbacks"] += size


def _too_small(n: int, size: int) -> bool:
    """Whether ``size`` systems of matrix dimension ``n`` (variables
    plus the zero variable) are too few for one numpy sweep."""
    return size < MIN_BATCH[min(n - 1, len(MIN_BATCH) - 1)]


def _packed(dbms: Sequence["DBM"], indices: list[int], active: bool):
    """The exact packed batch of ``dbms[indices]``, or ``None`` when the
    group takes the scalar path (backend off, too small or inexact)."""
    if not active or _too_small(dbms[indices[0]]._n, len(indices)):
        return None
    batch = pack([dbms[idx] for idx in indices])
    return batch if packed_exact(batch) else None


# ----------------------------------------------------------------------
# DBM-level entry point
# ----------------------------------------------------------------------


def close_batch(dbms: Sequence["DBM"]) -> list[bool]:
    """Close many DBMs at once; return their satisfiability verdicts.

    Semantically equal to ``[d.close() for d in dbms]``: every DBM ends
    up closed (satisfiable ones hold their tightest bounds; for
    unsatisfiable ones only the negative diagonal is meaningful, exactly
    as after a scalar :meth:`DBM.close`).  Mixed dimensions are fine —
    the batch is grouped by dimension internally.  With the python
    backend (or without numpy) every group takes the scalar loop, and
    its DBMs count as scalar fallbacks as on the numpy path.
    """
    dbms = list(dbms)
    results: list[bool | None] = [None] * len(dbms)
    if not dbms:
        return []
    active = kernel_active()
    groups: dict[int, list[int]] = {}
    for idx, dbm in enumerate(dbms):
        if dbm._closed:
            results[idx] = dbm.is_satisfiable()
        else:
            groups.setdefault(dbm._n, []).append(idx)
    for indices in groups.values():
        batch = _packed(dbms, indices, active)
        if batch is None:
            _count_fallback(len(indices))
            for idx in indices:
                results[idx] = dbms[idx].close()
            continue
        batch, sat = close_packed(batch)
        _observe_batch(len(indices))
        for pos, idx in enumerate(indices):
            _writeback(dbms[idx], batch[pos])
            results[idx] = bool(sat[pos])
    return results  # type: ignore[return-value]


def sat_batch(dbms: Sequence["DBM"]) -> list[bool]:
    """Satisfiability verdicts for many DBMs, without mutating them.

    Semantically ``[d.copy().close() for d in dbms]`` but the numpy
    path skips both the copies and the writeback: the packed batch is
    built straight from the bound matrices, closed, and only the
    diagonal signs are read off.  Use this when callers need only the
    verdict (normalization splits); use :func:`close_batch` when they
    also need the tightened bounds.  Projection needs neither: it reads
    the closure each stored tuple carries.
    """
    dbms = list(dbms)
    if not dbms:
        return []
    active = kernel_active()
    results: list[bool | None] = [None] * len(dbms)
    groups: dict[int, list[int]] = {}
    for idx, dbm in enumerate(dbms):
        if dbm._closed:
            results[idx] = dbm.is_satisfiable()
        else:
            groups.setdefault(dbm._n, []).append(idx)
    for indices in groups.values():
        batch = _packed(dbms, indices, active)
        if batch is None:
            _count_fallback(len(indices))
            for idx in indices:
                results[idx] = dbms[idx].copy().close()
            continue
        _batch, sat = close_packed(batch)
        _observe_batch(len(indices))
        for pos, idx in enumerate(indices):
            results[idx] = bool(sat[pos])
    return results  # type: ignore[return-value]


def canonical_keys_batch(dbms: Sequence["DBM"]) -> list[tuple]:
    """Per-DBM :meth:`DBM.canonical_key` values from one batched sweep.

    Element-for-element equal to ``[d.canonical_key() for d in dbms]``
    and equally non-mutating, but the unclosed systems are closed in one
    packed pass and their key rows are read straight off the closed
    batch — no probe copies, no writeback.
    """
    dbms = list(dbms)
    if not dbms:
        return []
    active = kernel_active()
    results: list[tuple | None] = [None] * len(dbms)
    groups: dict[int, list[int]] = {}
    for idx, dbm in enumerate(dbms):
        if dbm._closed:
            results[idx] = dbm.canonical_key()
        else:
            groups.setdefault(dbm._n, []).append(idx)
    for indices in groups.values():
        batch = _packed(dbms, indices, active)
        if batch is None:
            _count_fallback(len(indices))
            for idx in indices:
                results[idx] = dbms[idx].canonical_key()
            continue
        batch, sat = close_packed(batch)
        _observe_batch(len(indices))
        for pos, idx in enumerate(indices):
            if sat[pos]:
                results[idx] = tuple(
                    [
                        tuple(
                            [
                                None if value == INF else int(value)
                                for value in row
                            ]
                        )
                        for row in batch[pos].tolist()
                    ]
                )
            else:
                results[idx] = ("UNSAT", dbms[idx]._n - 1)
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# batched projection (grid-space close + X-space transcription)
# ----------------------------------------------------------------------


def bounds_template(entries, n):
    """Sparse ``(row, col, bound)`` entries to a bound matrix + mask.

    Row 0 is the zero variable.  Returns ``(template, mask)`` as plain
    nested lists (``project_batch`` stacks whole groups into one numpy
    array, which beats allocating per-tuple ndarrays here); ``mask``
    flags present entries (the zero diagonal is always present) and
    duplicate entries keep the tighter bound, like repeated ``add_*``
    calls would.  Returns ``None`` when a bound is too large for safe
    int64 grid arithmetic — the caller then uses the scalar path for
    every combo of that tuple.
    """
    template = [[0] * n for _ in range(n)]
    mask = [[i == j for j in range(n)] for i in range(n)]
    for i, j, bound in entries:
        if bound > MAX_TEMPLATE_BOUND or bound < -MAX_TEMPLATE_BOUND:
            return None
        if not mask[i][j] or bound < template[i][j]:
            template[i][j] = bound
            mask[i][j] = True
    return template, mask


def project_batch(jobs: Sequence[tuple]) -> list:
    """Close, project and transcribe many combo systems at once.

    Each job is ``(template, mask, offsets, k, kept_rows)`` describing
    one normalized combo of one tuple's cluster: the shared X-space
    bound template from :func:`bounds_template`, the combo's per-row
    grid offsets (0 for the zero row), the cluster period ``k``, and
    the row indices surviving projection.  Per group of identically
    shaped jobs the pipeline is fully vectorized:

    1. grid mapping ``N = (T - O_row + O_col) // k`` in exact int64
       (``np.floor_divide`` matches Python's floor semantics for the
       negative bounds the offsets produce),
    2. one batched Floyd–Warshall sweep over the grid systems,
    3. row/column selection of ``kept_rows``,
    4. X-space transcription ``X = k * P + O_row - O_col`` — an affine
       map that preserves the triangle inequality, so the outputs are
       closed matrices ready to install verbatim.

    Returns one result per job, in order: :data:`SCALAR` when the
    group failed an exactness guard or is too small to pay for numpy
    dispatch (and for every job on the python backend, which touches
    no numpy), ``None`` for an unsatisfiable system, or the closed
    X-space bound matrix over ``kept_rows``.
    """
    results: list = [SCALAR] * len(jobs)
    if not kernel_active():
        _count_fallback(len(jobs))
        return results
    np = _numpy()
    groups: dict[tuple, list[int]] = {}
    for idx, (template, _mask, _offsets, k, kept_rows) in enumerate(jobs):
        groups.setdefault((len(template), k, kept_rows), []).append(idx)
    for (n, k, kept_rows), indices in groups.items():
        if _too_small(n, len(indices)) or n > MAX_DIM or k > MAX_ABS_BOUND:
            _count_fallback(len(indices))
            continue
        tmpl = np.array([jobs[idx][0] for idx in indices], dtype=np.int64)
        mask = np.array([jobs[idx][1] for idx in indices], dtype=bool)
        offs = np.array([jobs[idx][2] for idx in indices], dtype=np.int64)
        grid = tmpl - offs[:, :, None] + offs[:, None, :]
        gridq = np.floor_divide(grid, k)
        mag = int(np.abs(np.where(mask, gridq, 0)).max(initial=0))
        # One k-iteration at most doubles the largest magnitude, and the
        # final transcription multiplies by k and adds offsets below k:
        # everything stays under 2^53, so the float64 math is exact.
        if (mag + 1) * (1 << n) * k > (1 << 52):
            _count_fallback(len(indices))
            continue
        batch = np.where(mask, gridq.astype(np.float64), INF)
        batch, sat = close_packed(batch)
        _observe_batch(len(indices))
        kept = np.array(kept_rows, dtype=np.intp)
        proj = batch[:, kept][:, :, kept]
        kept_offs = offs[:, kept].astype(np.float64)
        xspace = k * proj + kept_offs[:, :, None] - kept_offs[:, None, :]
        for pos, idx in enumerate(indices):
            results[idx] = matrix_to_bounds(xspace[pos]) if sat[pos] else None
    return results
