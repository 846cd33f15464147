"""Hot-path optimization layer for the generalized algebra.

Two optimizations (see ``docs/performance.md``):

1. **Pairwise-op prefilters** — O(m) residue/interval rejection tests
   skip provably-empty tuple pairs before the CRT + DBM work in
   ``join`` (which ``intersect`` and ``product`` run) and ``subtract``
   (:mod:`repro.perf.prefilter`).
   They are exact and always on.
2. **Vectorized batched closure kernel** — many same-dimension DBMs are
   packed into one numpy array and closed with a single vectorized
   Floyd–Warshall sweep (:mod:`repro.perf.kernel`); backend selected via
   ``REPRO_KERNEL`` with a graceful pure-Python fallback.

Two always-on shortcuts need no switch: a tuple with no written bound
is decided nonempty without normalizing (:mod:`repro.core.emptiness`),
and ``select`` conjoins a condition into a tuple's carried closure with
one O(n²) sweep per bound (:meth:`repro.core.dbm.DBM.conjoin_closed`).

This package's ``__init__`` must stay import-light: :mod:`repro.core.dbm`
imports it at the bottom of the dependency graph, so only the
dependency-free ``config`` module loads eagerly; ``kernel`` (which may
import numpy) and ``prefilter`` (which imports the core) load lazily on
attribute access.
"""

from __future__ import annotations

from repro.perf.config import (
    PerfConfig,
    configure,
    get_config,
    overrides,
    reset_config,
)

_LAZY_SUBMODULES = ("kernel", "prefilter")

__all__ = [
    "PerfConfig",
    "configure",
    "get_config",
    "overrides",
    "reset_config",
    *_LAZY_SUBMODULES,
]


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f"repro.perf.{name}")
    raise AttributeError(f"module 'repro.perf' has no attribute {name!r}")
