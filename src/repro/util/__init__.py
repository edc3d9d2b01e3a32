"""Shared utilities for the :mod:`repro` package.

This package contains small, dependency-light helpers that every other
subsystem builds on:

* :mod:`repro.util.rng` — deterministic random-number-generator plumbing
  (seed trees, generator coercion, the marking coin chain).
* :mod:`repro.util.itlog` — iterated logarithms ``log``, ``log^(2)``,
  ``log^(3)`` and related closed forms used throughout the paper's
  parameter choices.
* :mod:`repro.util.bitset` — a NumPy-backed fixed-universe bitset
  (import it from there; the package does not load it).
"""

from repro.util.itlog import (
    ilog,
    log2_ceil,
    log_base,
    loglog,
    logloglog,
)
from repro.util.rng import as_generator, spawn_generators, spawn_seeds

__all__ = [
    "as_generator",
    "spawn_generators",
    "spawn_seeds",
    "ilog",
    "log2_ceil",
    "log_base",
    "loglog",
    "logloglog",
]
