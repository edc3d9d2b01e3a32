"""DynamicMIS: the repair engine's exactness, state machine, and backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic import DynamicMIS
from repro.generators import churn_stream, sharded_hypergraph, uniform_hypergraph
from repro.hypergraph import Hypergraph
from repro.hypergraph.components import component_labels
from repro.kernels import use_kernel
from repro.kernels.dispatch import dense_capable


def _partitions_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Two label arrays induce the same partition (up to renaming)."""
    if a.shape != b.shape:
        return False
    pairs = a.astype(np.int64) * (int(b.max()) + 2) + b.astype(np.int64)
    # Same partition iff the pairing is a bijection on both sides.
    return (
        np.unique(pairs).size == np.unique(a).size == np.unique(b).size
    )


def _drive(engine: DynamicMIS, batches) -> list[str]:
    strategies = []
    for batch in batches:
        out = engine.apply(batch.add_edges, batch.remove_edges, strict=False)
        strategies.append(out.strategy)
    return strategies


@pytest.mark.parametrize(
    "make",
    [
        lambda: sharded_hypergraph(5, 12, 18, 3, seed=11),
        lambda: uniform_hypergraph(40, 70, 2, seed=12),
    ],
    ids=["sharded", "connected"],
)
@pytest.mark.parametrize("strategy", ["auto", "repair", "recompute"])
def test_invariant_matches_pinned_recompute(make, strategy):
    H = make()
    engine = DynamicMIS(H, seed=7, strategy=strategy)
    batches = churn_stream(
        H, 8, seed=13, batch_edges=4, arrival_fraction=0.5, adversarial_fraction=0.3
    )
    for batch in batches:
        out = engine.apply(batch.add_edges, batch.remove_edges, strict=False)
        assert out.certified
        assert np.array_equal(engine.independent_set, engine.recompute_reference())
    assert engine.certify()


def test_forced_strategies_are_bit_identical():
    H = sharded_hypergraph(6, 10, 15, 3, seed=21)
    batches = churn_stream(H, 10, seed=22, batch_edges=3, hot_fraction=0.6)
    engines = {s: DynamicMIS(H, seed=5, strategy=s) for s in ("auto", "repair", "recompute")}
    for s, engine in engines.items():
        _drive(engine, batches)
    ref = engines["auto"]
    for s in ("repair", "recompute"):
        assert np.array_equal(engines[s].independent_set, ref.independent_set), s
        assert engines[s].chain == ref.chain, s


def test_label_maintenance_matches_fresh_labeling():
    H = sharded_hypergraph(4, 10, 14, 3, seed=31)
    engine = DynamicMIS(H, seed=3, strategy="repair")
    batches = churn_stream(H, 12, seed=32, batch_edges=4, arrival_fraction=0.5)
    for batch in batches:
        engine.apply(batch.add_edges, batch.remove_edges, strict=False)
        fresh = component_labels(engine.hypergraph)
        active = engine.hypergraph.vertex_mask()
        assert _partitions_equal(engine._labels[active], fresh[active])


def test_noop_batch():
    H = uniform_hypergraph(20, 30, 3, seed=41)
    engine = DynamicMIS(H, seed=1)
    before = engine.independent_set.copy()
    chain_before = engine.chain
    out = engine.apply()  # empty batch
    assert out.strategy == "noop"
    assert out.patch_vertices == 0
    assert np.array_equal(engine.independent_set, before)
    # The chain still advances: a no-op batch is a recorded stream state.
    assert engine.chain != chain_before
    assert engine.steps == 1


def test_remove_and_readd_is_structural_noop():
    H = uniform_hypergraph(15, 20, 3, seed=42)
    engine = DynamicMIS(H, seed=1)
    e = H.edges[0]
    out = engine.apply(add_edges=[e], remove_edges=[e])
    assert out.strategy == "noop"
    assert out.update.is_noop


def test_all_components_update():
    # Touch every component in one batch: repair must handle the degenerate
    # "everything is dirty" case and still match recompute.
    H = sharded_hypergraph(3, 8, 10, 2, seed=43)
    engine = DynamicMIS(H, seed=2, strategy="repair")
    adds = [(b * 8, b * 8 + 1) for b in range(3)]
    out = engine.apply(add_edges=adds, strict=False)
    assert out.strategy == "repair"
    assert np.array_equal(engine.independent_set, engine.recompute_reference())


def test_emptying_and_refilling():
    H = uniform_hypergraph(12, 8, 2, seed=44)
    engine = DynamicMIS(H, seed=9)
    engine.apply(remove_edges=list(H.edges))
    # Edgeless: every active vertex is independent.
    assert engine.independent_set.size == engine.hypergraph.num_vertices
    engine.apply(add_edges=[(0, 1), (2, 3)])
    assert np.array_equal(engine.independent_set, engine.recompute_reference())


def test_strict_propagates_and_state_survives():
    H = uniform_hypergraph(10, 10, 2, seed=45)
    engine = DynamicMIS(H, seed=4)
    before = engine.independent_set.copy()
    steps = engine.steps
    with pytest.raises(ValueError):
        engine.apply(remove_edges=[(8, 9)] if (8, 9) not in H.edges else [(7, 9)])
    assert np.array_equal(engine.independent_set, before)
    assert engine.steps == steps


def test_trace_records_rounds():
    H = sharded_hypergraph(3, 10, 12, 3, seed=46)
    engine = DynamicMIS(H, seed=6, strategy="repair")
    batch = churn_stream(H, 1, seed=47, batch_edges=3, arrival_fraction=1.0)[0]
    out = engine.apply(batch.add_edges, batch.remove_edges, strict=False, trace=True)
    assert out.strategy == "repair"
    assert len(out.rounds) >= 1
    # Interleave: a traced update then an untraced one on the same engine.
    out2 = engine.apply(add_edges=[(0, 1, 2)], strict=False)
    assert out2.rounds == ()
    assert np.array_equal(engine.independent_set, engine.recompute_reference())


def test_invalid_strategy_rejected():
    H = uniform_hypergraph(5, 3, 2, seed=48)
    with pytest.raises(ValueError):
        DynamicMIS(H, strategy="sometimes")


def test_backend_bit_identity():
    H = sharded_hypergraph(5, 12, 20, 3, seed=51)
    assert dense_capable(H)
    batches = churn_stream(H, 6, seed=52, batch_edges=4, adversarial_fraction=0.2)
    finals = {}
    for kernel in ("csr", "bitset", "jit"):
        with use_kernel(kernel):
            engine = DynamicMIS(H, seed=8)
            _drive(engine, batches)
            finals[kernel] = (engine.independent_set.copy(), engine.chain)
    ref_set, ref_chain = finals["csr"]
    for kernel, (mis, chain) in finals.items():
        assert np.array_equal(mis, ref_set), kernel
        assert chain == ref_chain, kernel


def test_outcome_fields_are_coherent():
    H = sharded_hypergraph(4, 10, 15, 3, seed=61)
    engine = DynamicMIS(H, seed=10, strategy="repair")
    batch = churn_stream(H, 1, seed=62, batch_edges=2, arrival_fraction=1.0)[0]
    out = engine.apply(batch.add_edges, batch.remove_edges, strict=False)
    assert out.mis_size == out.mis.size == engine.independent_set.size
    assert out.chain == engine.chain
    assert 0.0 <= out.dirty_fraction <= 1.0
    assert out.patch_vertices + out.frozen_vertices >= out.mis_size


def test_validate_false_skips_certificate():
    H = uniform_hypergraph(15, 20, 3, seed=63)
    engine = DynamicMIS(H, seed=2, validate=False)
    out = engine.apply(add_edges=[(0, 1, 2)])
    assert not out.certified
    assert engine.certify()  # external pass still available


def test_empty_hypergraph_start():
    H = Hypergraph(8, [])
    engine = DynamicMIS(H, seed=0)
    assert engine.independent_set.size == 8
    out = engine.apply(add_edges=[(0, 1), (1, 2)])
    assert out.certified
    assert np.array_equal(engine.independent_set, engine.recompute_reference())


def test_stream_identity_pinned():
    # A 300-step hot-window churn stream with superset arrivals (dimension
    # grows 3 -> 4), replayed through repair with the full certificate on
    # every step.  The chain and MIS digests are pinned: a faster step
    # path must leave every state and the final set bit-identical.
    import hashlib

    H0 = sharded_hypergraph(200, 16, 30, 3, seed=(7, "pin"))
    engine = DynamicMIS(H0, seed=7)
    batches = churn_stream(
        H0,
        300,
        seed=(7, "pin-stream"),
        batch_edges=4,
        arrival_fraction=0.55,
        hot_fraction=0.8,
        hot_window=0.05,
        adversarial_fraction=0.2,
    )
    strategies = _drive(engine, batches)
    mis = engine.independent_set
    assert strategies.count("repair") == 300
    assert engine.hypergraph.dimension == 4
    assert mis.size == 1694
    assert engine.chain == (
        "48af160ed762d14b316c5a97edb953fddc5fcc0fe4d1e7019b0141b191b1e627"
    )
    assert hashlib.sha256(np.asarray(mis, dtype=np.int64).tobytes()).hexdigest() == (
        "b983fdf9a9d76d2a35a11fd3e41b2e863867ec91a6a819bc5f9e65bcb905ea9e"
    )
