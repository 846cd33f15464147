"""Hot-path optimization layer for the generalized algebra.

Four independently switchable optimizations (see ``docs/performance.md``):

1. **Incremental DBM closure** — adding a few bounds to an already
   closed matrix tightens in O(d·n²) instead of re-running the O(n³)
   Floyd–Warshall closure (:mod:`repro.core.dbm`).
2. **Canonical interning caches** — bounded LRU caches memoize closures,
   satisfiability checks, normal-form expansions and emptiness verdicts
   keyed on written constraint forms (:mod:`repro.perf.cache`).
3. **Pairwise-op prefilters** — O(m) residue/interval rejection tests
   skip provably-empty tuple pairs before the CRT + DBM work in
   ``intersect``/``join``/``subtract`` (:mod:`repro.perf.prefilter`).
4. **Vectorized batched closure kernel** — many same-dimension DBMs are
   packed into one numpy array and closed with a single vectorized
   Floyd–Warshall sweep (:mod:`repro.perf.kernel`); backend selected via
   ``REPRO_KERNEL`` with a graceful pure-Python fallback.

This package's ``__init__`` must stay import-light: :mod:`repro.core.dbm`
imports it at the bottom of the dependency graph, so only the
dependency-free ``config`` and ``cache`` modules load eagerly;
``kernel`` (which may import numpy) and ``prefilter`` (which imports
the core) load lazily on attribute access.
"""

from __future__ import annotations

from repro.perf.cache import (
    LRUCache,
    cache_stats,
    closure_cache,
    normalize_cache,
    reset_caches,
)
from repro.perf.config import (
    PERF_COUNTERS,
    PerfConfig,
    configure,
    counters_snapshot,
    get_config,
    overrides,
    reset_config,
    reset_counters,
)

_LAZY_SUBMODULES = ("kernel", "prefilter")

__all__ = [
    "LRUCache",
    "PERF_COUNTERS",
    "PerfConfig",
    "cache_stats",
    "closure_cache",
    "configure",
    "counters_snapshot",
    "get_config",
    "normalize_cache",
    "overrides",
    "reset_caches",
    "reset_config",
    "reset_counters",
    *_LAZY_SUBMODULES,
]


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f"repro.perf.{name}")
    raise AttributeError(f"module 'repro.perf' has no attribute {name!r}")
