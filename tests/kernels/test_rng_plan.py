"""RoundRngPlan: bit-exact replication of BL's per-round RNG chain.

The oracle is the real NumPy object chain the CSR path runs —
``stream(seed)`` → ``integers(0, 2⁶³-1, 4)`` → ``SeedSequence.spawn`` →
``default_rng`` — so every assertion here is against NumPy itself, not
against a second hand-rolled model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.rng import (
    RoundRngPlan,
    _int_to_u32s,
    _scalar_round_state,
)
from repro.util.rng import stream


def _oracle_coins(seed, rounds: int, draws: int = 32) -> list[np.ndarray]:
    """Round coins exactly as ``bernoulli_coins`` derives them (one chunk)."""
    out = []
    st = stream(seed)
    for _ in range(rounds):
        gen = next(st)
        e4 = gen.integers(0, 2**63 - 1, size=4).tolist()
        child = np.random.SeedSequence(e4).spawn(1)[0]
        out.append(np.random.default_rng(child).random(draws))
    return out


def _plan_coins(seed, rounds: int, draws: int = 32) -> list[np.ndarray]:
    plan = RoundRngPlan(seed)
    return [plan.generator(i).random(draws) for i in range(rounds)]


class TestIntSeeds:
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**31 - 1, 2**64 + 3])
    def test_matches_numpy_chain(self, seed):
        assert all(
            np.array_equal(a, b)
            for a, b in zip(_oracle_coins(seed, 12), _plan_coins(seed, 12))
        )

    def test_block_extension_past_first_block(self):
        # A small block forces several batch extensions over 40 rounds.
        plan = RoundRngPlan(3, block=16)
        got = [plan.generator(i).random(32) for i in range(40)]
        oracle = _oracle_coins(3, 40)
        assert all(np.array_equal(a, b) for a, b in zip(oracle, got))

    def test_scalar_reference_matches_numpy(self):
        # The scalar fallback must equal PCG64's own seeded state.
        words = _int_to_u32s(99) + [0] * (4 - len(_int_to_u32s(99)))
        for index in (0, 1, 7):
            state, inc = _scalar_round_state(words, index)
            gen = np.random.default_rng(
                np.random.SeedSequence(99, spawn_key=(index,))
            )
            e4 = gen.integers(0, 2**63 - 1, size=4).tolist()
            child = np.random.SeedSequence(e4).spawn(1)[0]
            got = np.random.PCG64(child).state["state"]
            assert (got["state"], got["inc"]) == (state, inc)


class TestGeneratorSeeds:
    def test_matches_numpy_chain(self):
        # stream() consumes entropy from the generator; give each side its
        # own identically-seeded instance.
        oracle = _oracle_coins(np.random.default_rng(11), 8)
        got = _plan_coins(np.random.default_rng(11), 8)
        assert all(np.array_equal(a, b) for a, b in zip(oracle, got))


class TestSeedSequenceSeeds:
    def test_plain_seedsequence(self):
        oracle = _oracle_coins(np.random.SeedSequence(21), 8)
        got = _plan_coins(np.random.SeedSequence(21), 8)
        assert all(np.array_equal(a, b) for a, b in zip(oracle, got))

    def test_spawned_child_with_spawn_key(self):
        # Campaign seeds are spawn-tree leaves: same entropy, distinct
        # spawn_key.  The plan must fold the key into the round hash.
        a = np.random.SeedSequence(42).spawn(3)[2]
        b = np.random.SeedSequence(42).spawn(3)[2]
        assert a.spawn_key == (2,)
        oracle = _oracle_coins(a, 8)
        got = _plan_coins(b, 8)
        assert all(np.array_equal(x, y) for x, y in zip(oracle, got))

    def test_sibling_leaves_diverge(self):
        left, right = np.random.SeedSequence(42).spawn(2)
        assert not np.array_equal(
            _plan_coins(left, 1)[0], _plan_coins(right, 1)[0]
        )

    def test_partially_consumed_root(self):
        # A SeedSequence that has already spawned children resumes from
        # its counter, not from zero.
        a = np.random.SeedSequence(5)
        a.spawn(2)
        b = np.random.SeedSequence(5)
        b.spawn(2)
        oracle = _oracle_coins(a, 6)
        got = _plan_coins(b, 6)
        assert all(np.array_equal(x, y) for x, y in zip(oracle, got))

    def test_mirrors_stream_spawn_consumption(self):
        # stream() spawns one child per round; the plan must leave the
        # caller's SeedSequence in the same state, so a later solve from
        # the same object stays aligned with the CSR path.
        a = np.random.SeedSequence(6)
        b = np.random.SeedSequence(6)
        _oracle_coins(a, 5)
        _plan_coins(b, 5)
        assert a.n_children_spawned == b.n_children_spawned

    def test_back_to_back_solves_from_one_object(self):
        a = np.random.SeedSequence(17)
        b = np.random.SeedSequence(17)
        for _ in range(2):  # second solve starts at the advanced counter
            oracle = _oracle_coins(a, 4)
            got = _plan_coins(b, 4)
            assert all(np.array_equal(x, y) for x, y in zip(oracle, got))


class TestExactModeFallback:
    def test_nondefault_pool_size(self):
        # pool_size ≠ 4 invalidates the replicated hash constants: the
        # plan must fall back to the exact object chain.
        a = np.random.SeedSequence(3, pool_size=8)
        b = np.random.SeedSequence(3, pool_size=8)
        oracle = _oracle_coins(a, 6)
        got = _plan_coins(b, 6)
        assert all(np.array_equal(x, y) for x, y in zip(oracle, got))

    def test_exact_mode_is_sequential_only(self):
        plan = RoundRngPlan(np.random.SeedSequence(3, pool_size=8))
        plan.generator(0)
        with pytest.raises(ValueError, match="sequential"):
            plan.generator(2)


class TestStateCache:
    def test_same_seed_shares_the_state_list(self):
        a = RoundRngPlan(1234)
        a.generator(0)
        b = RoundRngPlan(1234)
        assert a._states is b._states

    def test_consumed_roots_do_not_collide(self):
        # Same entropy, different spawn counter: distinct cache entries.
        r1 = np.random.SeedSequence(77)
        r2 = np.random.SeedSequence(77)
        r2.spawn(1)
        a = RoundRngPlan(r1)
        b = RoundRngPlan(r2)
        coins_a = a.generator(0).random(16)
        coins_b = b.generator(0).random(16)
        assert not np.array_equal(coins_a, coins_b)
