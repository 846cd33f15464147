"""Global configuration for the optimization layer.

This module is intentionally dependency-free (stdlib only): it loads
with :mod:`repro.perf`, which :mod:`repro.core.dbm`, the bottom of the
core dependency graph, imports, so it must not import anything from
:mod:`repro.core`.

Knobs (environment variables read once at import; override at runtime
with :func:`configure` or scope changes with :func:`overrides`):

``REPRO_KERNEL``
    Closure kernel backend: ``numpy`` (batched, vectorized), ``python``
    (scalar), or ``auto`` (default, also when empty: numpy when
    importable); any other value raises ``ValueError``.
``REPRO_OPTIMIZE``
    The logical-plan rewrite passes (pushdown, join reordering, CSE)
    run before every query unless this is ``0``/``false``/``no``/``off``,
    which keeps the naive plan (the oracle the rewrites are checked
    against).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

#: Recognized closure kernel backends.
KERNEL_BACKENDS = ("auto", "numpy", "python")


def _env_on(name: str) -> bool:
    """An opt-out flag: on unless ``0``/``false``/``no``/``off``."""
    raw = os.environ.get(name, "").strip().lower()
    return raw not in ("0", "false", "no", "off")


@dataclass(frozen=True)
class PerfConfig:
    """The switches of the optimization layer.

    ``kernel`` picks the closure backend, which never changes an answer
    tuple; ``optimize`` runs the logical-plan rewrites, which change the
    plan but not the point set it denotes (see ``docs/performance.md``).
    """

    kernel: str = "auto"
    optimize: bool = True

    # Read by benchmarks/e2e/run.py into its ``cache_size`` meta field.
    @property
    def cache_size(self) -> int:
        """Always 0: the interning caches are gone."""
        return 0


def _check_kernel(kernel: str) -> str:
    if kernel not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {KERNEL_BACKENDS}"
        )
    return kernel


def _env_kernel() -> str:
    """``REPRO_KERNEL``: empty means ``auto``, a misspelling raises."""
    raw = os.environ.get("REPRO_KERNEL", "").strip().lower()
    return _check_kernel(raw) if raw else "auto"


def _from_env() -> PerfConfig:
    return PerfConfig(
        kernel=_env_kernel(),
        optimize=_env_on("REPRO_OPTIMIZE"),
    )


_config: PerfConfig = _from_env()


def get_config() -> PerfConfig:
    """The currently active configuration."""
    return _config


def configure(**changes) -> PerfConfig:
    """Replace configuration fields; returns the new configuration.

    Raises ``ValueError`` for a ``kernel`` outside :data:`KERNEL_BACKENDS`.
    """
    global _config
    _check_kernel(changes.get("kernel", "auto"))
    _config = replace(_config, **changes)
    return _config


def reset_config() -> PerfConfig:
    """Restore the environment-derived defaults."""
    global _config
    _config = _from_env()
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
        _config = saved

