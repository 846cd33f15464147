"""Vectorized batched DBM closure kernel (``REPRO_KERNEL``).

The algebra's hot paths — projection's per-combo n-space systems,
normalization's splits, the pairwise meets of the join — produce
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
scalar path and are counted in ``kernel.scalar_fallbacks``; a
projection shape group answered :data:`SCALAR` is not, its scalar
closures count in ``perf.closure_full``.

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
from math import gcd
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

#: Bound magnitudes above this skip the int64 grid and residue
#: arithmetic of :func:`project_batch` (headroom against int64 overflow
#: when offsets are folded in).
MAX_TEMPLATE_BOUND = 1 << 60
#: The fewest unpruned split combos (tuples times split size) of one
#: projection shape group worth an array pass in :func:`project_batch`;
#: smaller groups run the scalar path.  Measured, a group breaks even
#: between 8 and 16 combos, where the one-variable systems of
#: :data:`MIN_BATCH` do, so it takes that entry; the measurement is in
#: ``docs/performance.md`` ("Kernel batch threshold").
MIN_SHAPE_COMBOS = MIN_BATCH[1]
#: The most combos one array block of :func:`project_batch` holds: a
#: larger group runs in blocks of whole tuples, and a shape whose split
#: alone is larger runs the scalar path.
MAX_BLOCK_COMBOS = 1 << 13

#: Sentinel returned by :func:`project_batch` for a shape group it does
#: not run as array operations: the caller runs its scalar path.
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


def project_batch(shape, tuples: Sequence, closures: Sequence):
    """Eliminate one projection shape group as array operations.

    The job is one shape group of a projection
    (``repro.core.algebra._Shape``): ``tuples`` share the shape's
    periods and written-bound pattern, and ``closures`` are their
    closed bound rows.  From the shape it reads the split shape
    ``split`` (the cluster attributes, the split size and the
    transcribed cells, each an input cell and its plan rows), the
    cluster attributes' periods ``steps``, the cluster period ``k``,
    the kept cluster positions ``kept`` and their output rows
    ``out_rows``, the output ``template`` and the ``outside`` cells
    (an input cell and its output cell).  Each tuple supplies its
    offsets and bound values.  Over a ``(tuples × combos)`` block of
    the split product:

    1. the residue windows of
       :func:`repro.core.normalize._feasible_combos` keep the combos
       whose offsets meet the tuple's closed windows, and the same
       windows over the tuple's own lrps give its residue verdict
       (:func:`repro.perf.prefilter.residues_meet`);
    2. grid mapping ``N = (T - O_row + O_col) // k`` of the kept
       combos in exact int64 (``np.floor_divide`` matches Python's
       floor semantics for the negative bounds the offsets produce);
    3. one Floyd–Warshall sweep over the grid systems;
    4. row/column selection of the zero row and the kept positions;
    5. X-space transcription ``X = k * P + O_row - O_col``, an affine
       map that preserves the triangle inequality, written into the
       output matrix with the outside bounds.

    Returns :data:`SCALAR` when the group is not worth an array pass
    (fewer than :data:`MIN_SHAPE_COMBOS` unpruned combos), has a
    singleton in its cluster, is too large for one block, fails an
    exactness guard, or the backend is python: the caller then runs
    its scalar path, which forms and answers the same combos.
    Otherwise returns ``(met, formed, blocks)``: how many tuples passed
    the residue verdict, how many combos passed the windows, and per
    block of whole tuples ``(owners, offsets, matrices)`` listing, per
    satisfiable combo in tuple and combo order, the tuple's position
    in ``tuples``, the combo's offsets per cluster position, and its
    output bound matrix as nested lists (``None`` for no bound).
    """
    size = shape.split.size
    steps = shape.steps
    k = shape.k
    m = len(steps)
    if (
        len(tuples) * size < MIN_SHAPE_COMBOS
        or size > MAX_BLOCK_COMBOS
        or 0 in steps
        or m + 1 > MAX_DIM
        or k > MAX_ABS_BOUND
        or not kernel_active()
    ):
        return SCALAR
    np = _numpy()
    attrs = shape.split.attrs
    first = closures[0]
    # A window applies when both its ends are finite; a closure's
    # finite entries follow from the written-bound pattern, so the
    # first tuple's closure decides for the whole group.
    windows = []  # (position, prior position or -1 for the zero row)
    window_cells = []
    for d, a in enumerate(attrs):
        for e, b in [(-1, -1)] + list(enumerate(attrs[:d])):
            low, high = first[b + 1][a + 1], first[a + 1][b + 1]
            if low is not None and high is not None:
                windows.append((d, e))
                window_cells += [(b + 1, a + 1), (a + 1, b + 1)]
    cells = shape.split.cells
    outside = shape.outside
    try:
        values = np.array(
            [
                [rows[i][j] for i, j in window_cells]
                + [t.dbm._b[i][j] for i, j, _ti, _tj in cells]
                + [t.lrps[a].offset for a in attrs]
                + [t.dbm._b[i][j] for i, j, _oi, _oj in outside]
                for t, rows in zip(tuples, closures)
            ],
            dtype=np.int64,
        ).reshape(len(tuples), -1)
    except OverflowError:
        return SCALAR
    w_end = len(window_cells)
    c_end = w_end + len(cells)
    o_end = c_end + m
    # Outside bounds are copied through float64, so they must be exact
    # there; the rest stays in int64.
    outside_values = values[:, o_end:]
    if (
        (values > MAX_TEMPLATE_BOUND).any()
        or (values < -MAX_TEMPLATE_BOUND).any()
        or (outside_values > MAX_ABS_BOUND).any()
        or (outside_values < -MAX_ABS_BOUND).any()
    ):
        return SCALAR
    written = values[:, w_end:c_end]
    n = m + 1
    widest = int(np.abs(written).max(initial=0))
    # One k-iteration at most doubles the largest grid magnitude, and
    # the transcription multiplies by k and adds offsets below k:
    # everything stays under 2^53, so the float64 math is exact.
    if (widest // k + 3) * (1 << n) * k > (1 << 52):
        return SCALAR
    combos = np.indices([k // step for step in steps]).reshape(m, -1).T
    periods = np.array(steps, dtype=np.int64)
    moduli = [
        steps[d] if e < 0 else gcd(steps[d], steps[e]) for d, e in windows
    ]
    rows_ti = np.array([ti for _i, _j, ti, _tj in cells], dtype=np.intp)
    rows_tj = np.array([tj for _i, _j, _ti, tj in cells], dtype=np.intp)
    kept = np.array([0] + [pos + 1 for pos in shape.kept], dtype=np.intp)
    out_rows = np.array(shape.out_rows, dtype=np.intp)
    out_i = np.array([oi for _i, _j, oi, _oj in outside], dtype=np.intp)
    out_j = np.array([oj for _i, _j, _oi, oj in outside], dtype=np.intp)
    n_out = len(shape.template)
    met = formed = 0
    blocks = []
    per_block = max(1, MAX_BLOCK_COMBOS // size)
    for start in range(0, len(tuples), per_block):
        block = values[start:start + per_block]
        base = block[:, c_end:o_end]
        offsets = base[:, None, :] + combos[None, :, :] * periods
        feasible = np.ones(offsets.shape[:2], dtype=bool)
        meets = np.ones(len(block), dtype=bool)
        for w, ((d, e), modulus) in enumerate(zip(windows, moduli)):
            low = -block[:, 2 * w]
            high = block[:, 2 * w + 1]
            if e < 0:
                diff, own = offsets[:, :, d], base[:, d]
            else:
                diff = offsets[:, :, d] - offsets[:, :, e]
                own = base[:, d] - base[:, e]
            feasible &= (
                low[:, None] + (diff - low[:, None]) % k <= high[:, None]
            )
            meets &= low + (own - low) % modulus <= high
        met += int(meets.sum())
        owner, combo = np.nonzero(feasible)
        formed += len(owner)
        if not len(owner):
            continue
        chosen = offsets[owner, combo]
        grid_offsets = np.zeros((len(owner), n), dtype=np.int64)
        grid_offsets[:, 1:] = chosen
        grid = np.full((len(owner), n, n), INF)
        grid[:, np.arange(n), np.arange(n)] = 0.0
        grid[:, rows_ti, rows_tj] = np.floor_divide(
            written[start:start + per_block][owner]
            - grid_offsets[:, rows_ti]
            + grid_offsets[:, rows_tj],
            k,
        )
        grid, sat = close_packed(grid)
        _observe_batch(len(owner))
        keep = np.nonzero(sat)[0]
        projected = grid[keep][:, kept][:, :, kept]
        kept_offsets = grid_offsets[keep][:, kept].astype(np.float64)
        out = np.full((len(keep), n_out, n_out), INF)
        out[:, np.arange(n_out), np.arange(n_out)] = 0.0
        out[:, out_rows[:, None], out_rows[None, :]] = (
            k * projected
            + kept_offsets[:, :, None]
            - kept_offsets[:, None, :]
        )
        if len(outside):
            out[:, out_i, out_j] = outside_values[start:][owner[keep]]
        blocks.append(
            (
                (owner[keep] + start).tolist(),
                chosen[keep].tolist(),
                _bound_lists(out),
            )
        )
    return met, formed, blocks


def _bound_lists(batch) -> list:
    """A batch of float bound matrices as nested lists of ints, with
    ``None`` for ``+inf`` (converted in bulk, not entry by entry)."""
    np = _numpy()
    absent = np.isinf(batch)
    bounds = np.where(absent, 0.0, batch).astype(np.int64).astype(object)
    bounds[absent] = None
    return bounds.tolist()

