"""Tests for the serial marking step: the coin chain
(:func:`repro.util.rng.bernoulli_coins`) and the CSR round's mark counts."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import apply_bl_round
from repro.util.rng import COIN_CHUNK, bernoulli_coins


class TestSerialBackend:
    """The in-process bulk steps every CSR round and SBL sample runs."""

    def test_bernoulli_deterministic(self):
        a = bernoulli_coins(42, 1000, 0.3)
        c = bernoulli_coins(42, 1000, 0.3)
        assert np.array_equal(a, c)

    def test_bernoulli_rate(self):
        marks = bernoulli_coins(0, 20000, 0.25)
        assert abs(marks.mean() - 0.25) < 0.02

    def test_bernoulli_extremes(self):
        assert not bernoulli_coins(0, 100, 0.0).any()
        assert bernoulli_coins(0, 100, 1.0).all()

    def test_bernoulli_empty(self):
        assert bernoulli_coins(0, 0, 0.5).size == 0

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            bernoulli_coins(0, 10, 1.5)

    def test_chunking_invariance(self):
        """A draw spanning several chunks is a prefix-extension of shorter
        draws: crossing a chunk boundary never moves earlier coins."""
        n = 2 * COIN_CHUNK + 123
        full = bernoulli_coins(9, n, 0.5)
        assert full.shape == (n,)
        for k in (1, COIN_CHUNK - 1, COIN_CHUNK, COIN_CHUNK + 1, 2 * COIN_CHUNK):
            assert np.array_equal(full[:k], bernoulli_coins(9, k, 0.5)), k
        # Each chunk comes from its own child stream, not one long stream.
        one_stream = np.random.default_rng(
            np.random.SeedSequence(9).spawn(1)[0]
        ).random(n) < 0.5
        assert np.array_equal(full[:COIN_CHUNK], one_stream[:COIN_CHUNK])
        assert not np.array_equal(full[COIN_CHUNK:], one_stream[COIN_CHUNK:])

    def test_edge_mark_counts(self, small_mixed):
        """The CSR round's per-edge mark counts: only the fully marked edge
        (0, 1, 2) retracts its marks, partially marked edges keep theirs."""
        marked = np.zeros(small_mixed.universe, dtype=bool)
        marked[[0, 1, 2, 4]] = True
        _, added, _, unmark = apply_bl_round(small_mixed, marked)
        assert np.flatnonzero(unmark).tolist() == [0, 1, 2]
        assert added.tolist() == [4]

    def test_multi_chunk_stream_pinned(self):
        coins = bernoulli_coins(9, 150_000, 0.3)
        digest = hashlib.sha256(np.packbits(coins)).hexdigest()
        assert digest == "ab9d5fd64fccb02fc8fea5499cdef03e10cb20aff5400acec98c89115965848c"
        assert int(coins.sum()) == 44840
