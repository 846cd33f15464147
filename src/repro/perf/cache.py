"""A no-op kept for one outside reader; the library keeps no caches."""

from __future__ import annotations


# Read by benchmarks/e2e/run.py between its untraced and traced passes.
def reset_caches() -> None:
    """Do nothing: there are no caches to reset."""
