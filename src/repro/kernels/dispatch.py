"""Shape-based kernel dispatch for the MIS solvers.

Every solver entry point (``beame_luby``, ``karp_upfal_wigderson``,
``permutation_bl``, ``greedy_mis``) asks this module which execution
backend to run — callers never pick one by hand.  The decision uses cheap
instance features only (universe, dimension, n, m, density; in the spirit
of the A5 cost-model ablation: features you can read off the store headers
without touching the payload), plus hard blockers from the call site
(instrumentation hooks that are defined in terms of the CSR
representation).

In ``auto`` mode the choice between CSR and the bitset engines is made by
a **measured cost model** when a calibration file exists
(:mod:`repro.kernels.costmodel`; produced by
``scripts/kernel_calibrate.py``, ignored unless its
``provenance.machine_id`` matches this machine, and memoised so a solve
does not re-read it): the instance's shape bucket looks up which backend
actually measured faster here.  Without a usable calibration — or for a
bucket the probe did not cover — the static envelope below decides,
exactly as before.

The contract the dispatcher relies on — and the differential fuzz subjects
enforce — is that **all backends are bit-identical per seed**, so this
choice can never change a result, a trace record, or a regression corpus
replay; only wall-clock.

Every decision is counted in the metrics registry:

* ``kernels/dispatch/<backend>`` — which backend ran;
* ``kernels/dispatch_reason/<reason>`` — why (low-cardinality labels);
* ``kernels/dispatch_mode/<cost-model|static>`` — whether a measured
  calibration or the static thresholds made an ``auto`` dense choice;
* ``kernels/dispatch_shape/<bucket>/<backend>`` — chosen backend per
  shape bucket;

all visible in ``repro trace summary`` and the OpenMetrics export, so
calibration drift shows up in heartbeat output.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels import current_kernel
from repro.kernels.bl_dense import BLOCK_MAX_DIMENSION, BLOCK_MAX_UNIVERSE
from repro.kernels.costmodel import preferred_backend, shape_bucket, usable_calibration
from repro.kernels.jit import HAVE_NUMBA
from repro.obs import metrics as obs_metrics
from repro.util.rng import COIN_CHUNK

__all__ = [
    "DENSE_MAX_DIMENSION",
    "DENSE_MAX_UNIVERSE",
    "ShapeFeatures",
    "KernelDecision",
    "dense_capable",
    "select_backend",
]

#: The dense envelope: what *some* dense engine can represent.  The
#: engines divide it between themselves — the scalar engine covers
#: dimension ≤ 3 (bespoke degree/pair histograms), the frontier engine
#: dimension 4+ (generic lists + the shared Δ tracker) — and both keep
#: per-vertex state O(universe), so the bound is set by acceptable
#: allocation, not table blow-up.  The numba block engine keeps its own
#: tighter bounds (``BLOCK_MAX_*`` in :mod:`repro.kernels.bl_dense`): its
#: pair tables are dense U² arrays.
DENSE_MAX_DIMENSION = 8
#: Not a tuning knob: the dense engines draw a round's coins for its
#: ``n <= universe`` active vertices as one ``random(n)`` fill, which equals
#: :func:`~repro.util.rng.bernoulli_coins` only while ``n <= COIN_CHUNK``.
#: Past that the CSR path moves to a second child stream, and the engines
#: would no longer be bit-identical.
DENSE_MAX_UNIVERSE = COIN_CHUNK


@dataclass(frozen=True)
class ShapeFeatures:
    """The cheap features the dispatcher (and its obs trail) looks at."""

    n: int
    m: int
    universe: int
    dimension: int
    density: float  # m / max(n, 1)

    @classmethod
    def of(cls, H: Hypergraph) -> "ShapeFeatures":
        n = H.num_vertices
        m = H.num_edges
        return cls(
            n=n,
            m=m,
            universe=H.universe,
            dimension=H.dimension,
            density=m / max(n, 1),
        )


@dataclass(frozen=True)
class KernelDecision:
    """Outcome of one dispatch: the backend to run and the (counted) reason."""

    backend: str  # "csr" | "bitset" | "jit"
    reason: str

    @property
    def dense(self) -> bool:
        return self.backend != "csr"


def dense_capable(H: Hypergraph) -> bool:
    """Can a dense engine represent this instance at all?

    The frontier engines keep per-vertex incidence lists and dict-keyed
    degree state — O(universe + total edge size), no U² tables — so the
    envelope extends to dimension ≤ 8 and universes up to 64k.  Beyond it
    the CSR reference loop is the only representation.
    """
    return H.dimension <= DENSE_MAX_DIMENSION and H.universe <= DENSE_MAX_UNIVERSE


def select_backend(
    H: Hypergraph,
    *,
    requested: str | None = None,
    blockers: tuple[str, ...] = (),
) -> KernelDecision:
    """Choose the backend for one solve and count the decision.

    Parameters
    ----------
    H:
        The instance (only shape features are read).
    requested:
        Explicit kernel name; defaults to :func:`repro.kernels.current_kernel`
        (``use_kernel`` override, else ``REPRO_KERNEL``, else ``auto``).
    blockers:
        Call-site conditions that force CSR regardless of the request —
        e.g. an ``on_round`` hook (its signature hands out CSR hypergraph
        successors).  Low-cardinality labels; the first one is counted.
    """
    req = _validated(requested) if requested is not None else current_kernel()
    mode: str | None = None
    if req == "csr":
        decision = KernelDecision("csr", "forced:csr")
    elif blockers:
        decision = KernelDecision("csr", f"blocked:{blockers[0]}")
    elif not dense_capable(H):
        reason = "auto:shape-sparse" if req == "auto" else "unsupported-shape"
        decision = KernelDecision("csr", reason)
    elif req == "jit":
        if not HAVE_NUMBA:
            decision = KernelDecision("bitset", "fallback:jit-unavailable")
        elif (
            H.dimension <= BLOCK_MAX_DIMENSION and H.universe <= BLOCK_MAX_UNIVERSE
        ):
            decision = KernelDecision("jit", "forced:jit")
        else:
            # In-envelope but beyond the block engine's U² tables: degrade
            # to the scalar/frontier engines rather than all the way to CSR.
            decision = KernelDecision("bitset", "fallback:jit-shape")
    elif req == "bitset":
        decision = KernelDecision("bitset", "forced:bitset")
    else:
        cal = usable_calibration()
        pick = preferred_backend(cal, ShapeFeatures.of(H)) if cal is not None else None
        if pick is not None:
            mode = "cost-model"
            decision = KernelDecision(pick, f"cost-model:{pick}")
        else:
            mode = "static"
            decision = KernelDecision("bitset", "auto:shape-dense")
    obs_metrics.inc(f"kernels/dispatch/{decision.backend}")
    obs_metrics.inc(f"kernels/dispatch_reason/{decision.reason}")
    if mode is not None:
        obs_metrics.inc(f"kernels/dispatch_mode/{mode}")
    bucket = shape_bucket(H.dimension, H.universe)
    obs_metrics.inc(f"kernels/dispatch_shape/{bucket}/{decision.backend}")
    return decision


def _validated(name: str) -> str:
    from repro.kernels import _validate

    return _validate(name)
