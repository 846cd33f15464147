"""Global configuration and counters for the optimization layer.

This module is intentionally dependency-free (stdlib only): it is
imported from :mod:`repro.core.dbm`, the bottom of the core dependency
graph, so it must not import anything from :mod:`repro.core`.

Knobs (environment variables read once at import; override at runtime
with :func:`configure` or scope changes with :func:`overrides`):

``REPRO_CACHE_SIZE``
    Maximum number of entries in each interning cache (default 8192).
``REPRO_NO_CACHE``
    Set to any non-empty value to disable the interning caches.
``REPRO_NO_PREFILTER``
    Set to any non-empty value to disable the pairwise-op prefilters.
``REPRO_NO_INCREMENTAL``
    Set to any non-empty value to disable incremental DBM closure.
``REPRO_KERNEL``
    Closure kernel backend: ``numpy`` (batched, vectorized), ``python``
    (scalar), or ``auto`` (default: numpy when importable).
``REPRO_OPTIMIZE``
    The logical-plan rewrite passes (pushdown, join reordering, CSE)
    run before every query unless this is ``0``/``false``/``no``/``off``,
    which keeps the naive plan (the oracle the rewrites are checked
    against).
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace

#: Hit/miss/skip instrumentation for every perf feature.  Bumped from the
#: hot paths; read through :func:`repro.analysis.counters.perf_counters`.
PERF_COUNTERS: Counter = Counter()

DEFAULT_CACHE_SIZE = 8192
#: Recognized closure kernel backends.
KERNEL_BACKENDS = ("auto", "numpy", "python")


def _env_flag(name: str) -> bool:
    return bool(os.environ.get(name, ""))


def _env_on(name: str) -> bool:
    """An opt-out flag: on unless ``0``/``false``/``no``/``off``."""
    raw = os.environ.get(name, "").strip().lower()
    return raw not in ("0", "false", "no", "off")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "")
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


@dataclass(frozen=True)
class PerfConfig:
    """Feature switches for the optimization layer.

    All four optimizations preserve the algebra's semantics; all but the
    subtraction prefilter additionally preserve the exact tuple-by-tuple
    output of the naive path (see ``docs/performance.md``).
    """

    cache_enabled: bool = True
    cache_size: int = DEFAULT_CACHE_SIZE
    prefilter_enabled: bool = True
    incremental_enabled: bool = True
    kernel: str = "auto"
    optimize: bool = True


def _env_kernel() -> str:
    raw = os.environ.get("REPRO_KERNEL", "").strip().lower()
    return raw if raw in KERNEL_BACKENDS else "auto"


def _from_env() -> PerfConfig:
    return PerfConfig(
        cache_enabled=not _env_flag("REPRO_NO_CACHE"),
        cache_size=max(0, _env_int("REPRO_CACHE_SIZE", DEFAULT_CACHE_SIZE)),
        prefilter_enabled=not _env_flag("REPRO_NO_PREFILTER"),
        incremental_enabled=not _env_flag("REPRO_NO_INCREMENTAL"),
        kernel=_env_kernel(),
        optimize=_env_on("REPRO_OPTIMIZE"),
    )


_config: PerfConfig = _from_env()


def get_config() -> PerfConfig:
    """The currently active configuration."""
    return _config


def configure(**changes) -> PerfConfig:
    """Replace configuration fields; returns the new configuration.

    Changing ``cache_enabled`` or ``cache_size`` resets the caches (a
    smaller bound must not keep a larger population alive).
    """
    global _config
    old = _config
    _config = replace(_config, **changes)
    if (
        _config.cache_enabled != old.cache_enabled
        or _config.cache_size != old.cache_size
    ):
        from repro.perf import cache as _cache

        _cache.reset_caches()
    return _config


def reset_config() -> PerfConfig:
    """Restore the environment-derived defaults and clear the caches."""
    global _config
    _config = _from_env()
    from repro.perf import cache as _cache

    _cache.reset_caches()
    return _config


@contextmanager
def overrides(**changes):
    """Scoped :func:`configure`: restores the previous config on exit."""
    global _config
    saved = _config
    configure(**changes)
    try:
        yield _config
    finally:
        inner = _config
        _config = saved
        if (
            inner.cache_enabled != saved.cache_enabled
            or inner.cache_size != saved.cache_size
        ):
            from repro.perf import cache as _cache

            _cache.reset_caches()


def reset_counters() -> None:
    """Zero the perf counters."""
    PERF_COUNTERS.clear()


def counters_snapshot() -> dict[str, int]:
    """A plain-dict copy of the perf counters."""
    return dict(PERF_COUNTERS)
