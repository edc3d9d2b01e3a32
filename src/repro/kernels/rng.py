"""Bit-exact vectorised replication of the per-round RNG handshake.

Every marking round of :func:`repro.core.bl.beame_luby` draws its coins
through the chain

.. code-block:: text

    root = SeedSequence(entropy)             # once per solve
    gen_i = default_rng(root.spawn(1)[0])    # stream(): one per round
    e4 = gen_i.integers(0, 2**63 - 1, 4)     # spawn_seeds(gen_i, 1)
    child = SeedSequence(e4).spawn(1)[0]
    default_rng(child).random(n) < p         # bernoulli_coins, n <= COIN_CHUNK

which costs ~60 µs per round in object construction alone — more than the
whole dense round body is allowed to spend.  The chain is a pure function
of ``(root entropy, round index)``, independent of the algorithm state, so
this module precomputes the final PCG64 ``(state, inc)`` pair for a block
of future rounds in one vectorised pass: SeedSequence's entropy-pool hash,
PCG64's ``srandom`` seeding and the Lemire bounded-integer draws are
replayed on uint32-limb NumPy arrays across all rounds of the block.  The
per-round cost collapses to one state injection into a single reused
:class:`numpy.random.PCG64` plus the C-level ``random(n)`` fill.

Bit-identity is the contract, not an optimisation target: the dense
kernels must produce the same coins as the CSR path for every seed, so
the replication is property-tested against the NumPy objects themselves
(``tests/kernels/test_rng_plan.py``).  The astronomically rare
non-uniform cases — a Lemire rejection (p ≈ 2⁻⁶³ per draw) or a spawned
entropy word below 2³² (p ≈ 2⁻³¹ per word) — fall back to an exact
scalar replay of the affected round.

The SeedSequence hash and PCG64 seeding algorithms are stable public
contracts of NumPy (stream compatibility is guaranteed across versions),
which is what makes this replication safe to pin.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import SeedLike, _entropy, stream

__all__ = ["RoundRngPlan"]

# SeedSequence pool-hash constants (imneme's seed_seq_fe, as adopted by NumPy).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_XSHIFT = 16
_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_POOL = 4

# PCG64's 128-bit LCG multiplier, low-to-high 32-bit limbs.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_LIMBS = [(_PCG_MULT >> (32 * k)) & _M32 for k in range(4)]
_M128 = (1 << 128) - 1


def _int_to_u32s(v: int) -> list[int]:
    """NumPy's ``_int_to_uint32_array``: little-endian 32-bit words, ≥ 1 word."""
    if v == 0:
        return [0]
    out = []
    while v:
        out.append(v & _M32)
        v >>= 32
    return out


# ---------------------------------------------------------------------------
# Scalar (Python-int) reference chain — exact, used for rare fallback rounds
# and as the oracle in the property tests.
# ---------------------------------------------------------------------------

def _mix_entropy(words: list[int]) -> list[int]:
    hc = _INIT_A

    def h(value: int) -> int:
        nonlocal hc
        value = (value ^ hc) & _M32
        hc = (hc * _MULT_A) & _M32
        value = (value * hc) & _M32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ (r >> _XSHIFT)

    pool = [h(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for s in range(_POOL):
        for d in range(_POOL):
            if s != d:
                pool[d] = mix(pool[d], h(pool[s]))
    for s in range(_POOL, len(words)):
        for d in range(_POOL):
            pool[d] = mix(pool[d], h(words[s]))
    return pool


def _generate_state4(pool: list[int]) -> list[int]:
    hc = _INIT_B
    out32 = []
    for i in range(8):
        data = pool[i % _POOL]
        data = (data ^ hc) & _M32
        hc = (hc * _MULT_B) & _M32
        data = (data * hc) & _M32
        data ^= data >> _XSHIFT
        out32.append(data)
    return [out32[2 * i] | (out32[2 * i + 1] << 32) for i in range(4)]


def _srandom(val4: list[int]) -> tuple[int, int]:
    """PCG64 seeding: ``generate_state(4, uint64)`` → (state, inc)."""
    initstate = (val4[0] << 64) | val4[1]
    initseq = (val4[2] << 64) | val4[3]
    inc = ((initseq << 1) | 1) & _M128
    state = (((inc + initstate) & _M128) * _PCG_MULT + inc) & _M128
    return state, inc


def _next64(state: int, inc: int) -> tuple[int, int]:
    state = (state * _PCG_MULT + inc) & _M128
    x = (state >> 64) ^ (state & _M64)
    rot = state >> 122
    return state, ((x >> rot) | (x << ((64 - rot) & 63))) & _M64


def _scalar_round_state(run_words: list[int], index: int) -> tuple[int, int]:
    """Exact (state, inc) for round *index*, all in Python ints."""
    v1 = _generate_state4(_mix_entropy(run_words + _int_to_u32s(index)))
    s1, inc1 = _srandom(v1)
    # Lemire draws of integers(0, 2**63 - 1, size=4): rng_excl = 2**63 - 1,
    # rejection threshold (2**64 - rng_excl) % rng_excl = 2.
    excl = (1 << 63) - 1
    ent4 = []
    while len(ent4) < 4:
        s1, r = _next64(s1, inc1)
        m = r * excl
        if (m & _M64) < excl and (m & _M64) < 2:
            continue
        ent4.append(m >> 64)
    words2: list[int] = []
    for v in ent4:
        words2.extend(_int_to_u32s(v))
    if len(words2) < _POOL:
        words2 = words2 + [0] * (_POOL - len(words2))
    v2 = _generate_state4(_mix_entropy(words2 + [0]))  # spawn_key (0,)
    return _srandom(v2)


# ---------------------------------------------------------------------------
# Vectorised batch seeding
# ---------------------------------------------------------------------------

def _vec_hash(v: np.ndarray, hc: int) -> tuple[np.ndarray, int]:
    """One pool-hash step on a uint64 vector of 32-bit values."""
    v = (v ^ hc) * ((hc * _MULT_A) & _M32) & _M32
    v ^= v >> _XSHIFT
    return v, (hc * _MULT_A) & _M32


def _vec_mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> _XSHIFT)


def _vec_hash_rows(rows: np.ndarray, hc: int, mult: int) -> tuple[np.ndarray, int]:
    """Stacked pool-hash: row *k* hashed with the *k*-th constant of the
    ``hc`` chain (``hc``, ``hc·mult``, ``hc·mult²``, …).  The chain is
    data-independent, so a run of consecutive hashes collapses into one
    2-D elementwise pass."""
    k = rows.shape[0]
    hcs = np.empty((k, 1), dtype=np.uint64)
    cur = hc
    for i in range(k):
        hcs[i, 0] = cur
        cur = (cur * mult) & _M32
    h = ((rows ^ hcs) * ((hcs * mult) & _M32)) & _M32
    h ^= h >> _XSHIFT
    return h, cur


def _vec_mul128_const(l: list[np.ndarray]) -> list[np.ndarray]:
    """(4-limb vector) × PCG multiplier, low 128 bits, 32-bit limbs."""
    c = _PCG_MULT_LIMBS
    # Column sums of 32-bit product halves never overflow uint64.
    p = {}
    for i in range(4):
        for j in range(4 - i):
            p[(i, j)] = l[i] * c[j]
    out = []
    carry = None
    for k in range(4):
        col = None
        for i in range(k + 1):
            lo = p[(i, k - i)] & _M32
            col = lo if col is None else col + lo
        for i in range(k):
            hi = p[(i, k - 1 - i)] >> 32
            col = col + hi
        if carry is not None:
            col = col + carry
        out.append(col & _M32)
        carry = col >> 32
    return out


def _vec_add128(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
    out = []
    carry = None
    for k in range(4):
        s = a[k] + b[k] if carry is None else a[k] + b[k] + carry
        out.append(s & _M32)
        carry = s >> 32
    return out


def _vec_srandom(val: list[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Vectorised PCG64 seeding from 8 uint32-limb vectors (4 uint64 words).

    *val* holds the ``generate_state(4, uint64)`` output as 8 little-endian
    32-bit limbs: initstate = limbs 0–3, initseq = limbs 4–7 (each pair of
    32-bit limbs forming one uint64 word, words ordered high-first within
    the 128-bit value, as in ``PCG_128BIT_CONSTANT(seed[0], seed[1])``).
    """
    # generate_state words: val[0],val[1] = initstate high u64 (lo32, hi32),
    # val[2],val[3] = initstate low u64; val[4..7] likewise for initseq.
    initstate = [val[2], val[3], val[0], val[1]]
    initseq = [val[6], val[7], val[4], val[5]]
    inc = [
        ((initseq[0] << 1) | 1) & _M32,
        ((initseq[1] << 1) | (initseq[0] >> 31)) & _M32,
        ((initseq[2] << 1) | (initseq[1] >> 31)) & _M32,
        ((initseq[3] << 1) | (initseq[2] >> 31)) & _M32,
    ]
    state = _vec_mul128_const(_vec_add128(inc, initstate))
    state = _vec_add128(state, inc)
    return state, inc


def _vec_next64(state: list[np.ndarray], inc: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    state = _vec_add128(_vec_mul128_const(state), inc)
    lo = state[0] | (state[1] << 32)
    hi = state[2] | (state[3] << 32)
    x = lo ^ hi
    rot = state[3] >> 26
    out = ((x >> rot) | (x << ((64 - rot) & np.uint64(63)))) & _M64
    return state, out


def _vec_pool_mix(words: list[np.ndarray], hc: int) -> tuple[list[np.ndarray], int]:
    """Vectorised mix_entropy over per-round word vectors (uniform length).

    The initial pool fill and each extra entropy word hash 4 rows with
    consecutive chain constants — both collapse to one stacked pass
    (:func:`_vec_hash_rows`); only the in-pool mixing round is inherently
    sequential (each step reads the evolving pool)."""
    count = words[0].shape[0]
    first = np.zeros((_POOL, count), dtype=np.uint64)
    for i in range(min(_POOL, len(words))):
        first[i] = words[i]
    pool, hc = _vec_hash_rows(first, hc, _MULT_A)
    for s in range(_POOL):
        for d in range(_POOL):
            if s != d:
                h, hc = _vec_hash(pool[s], hc)
                pool[d] = _vec_mix(pool[d], h)
    for s in range(_POOL, len(words)):
        hs, hc = _vec_hash_rows(
            np.broadcast_to(words[s], (_POOL, count)), hc, _MULT_A
        )
        pool = _vec_mix(pool, hs)
    return [pool[i] for i in range(_POOL)], hc


def _vec_generate_state(pool: list[np.ndarray]) -> list[np.ndarray]:
    rows = np.stack([pool[i % _POOL] for i in range(8)])
    data, _ = _vec_hash_rows(rows, _INIT_B, _MULT_B)
    return [data[i] for i in range(8)]


#: Shared per-entropy state cache.  The (state, inc) sequence is a pure
#: function of the run entropy words, so solves that share a seed — a
#: differential replay across backends, benchmark repetitions, a fuzz
#: shrink loop — reuse the batch precompute instead of repeating it.  The
#: cached list is extended in place by whichever plan needs more rounds.
_STATE_CACHE: dict[tuple[tuple[int, ...], int], list[tuple[int, int]]] = {}
_STATE_CACHE_MAX = 16


class RoundRngPlan:
    """Per-round PCG64 states for BL's coin stream, precomputed in blocks.

    ``generator(i)`` returns a :class:`numpy.random.Generator` positioned
    exactly where ``default_rng(spawn_seeds(next(stream(seed)), 1)[0])``
    would be on round *i* — same seed, same round, same bits.  The
    generator object is reused across rounds (only its bit-generator state
    is replaced), so callers must draw from it before requesting the next
    round's generator.
    """

    def __init__(self, seed: SeedLike, block: int = 128):
        root = _stream_root(seed)
        # A caller-supplied SeedSequence is consumed statefully by stream()
        # (one spawn per round); keep a handle so the fast path can mirror
        # that side effect and a re-solve from the same object stays
        # bit-identical with the CSR path.
        self._root = root if isinstance(seed, np.random.SeedSequence) else None
        if getattr(root, "pool_size", _POOL) != _POOL:
            # Non-default entropy pool: the replicated hash constants do not
            # apply — run the exact object chain one round at a time.
            self._exact_stream = stream(root)
            self._exact_next = 0
            return
        self._exact_stream = None
        entropy = root.entropy
        items = list(entropy) if isinstance(entropy, (list, tuple, np.ndarray)) else [entropy]
        words: list[int] = []
        for item in items:
            words.extend(_int_to_u32s(int(item)))
        if len(words) < _POOL:
            # spawn keys are always present for round children; NumPy then
            # zero-pads the run entropy to the pool size.
            words = words + [0] * (_POOL - len(words))
        # The round child's spawn key is root.spawn_key + (round index,):
        # the root's own key words precede the per-round word, and the
        # per-round index starts at the root's current spawn counter.
        for part in root.spawn_key:
            words.extend(_int_to_u32s(int(part)))
        self._offset = int(root.n_children_spawned)
        self._run_words = words
        self._block = max(16, int(block))
        key = (tuple(words), self._offset)
        states = _STATE_CACHE.get(key)
        if states is None:
            if len(_STATE_CACHE) >= _STATE_CACHE_MAX:
                _STATE_CACHE.clear()
            states = []
            _STATE_CACHE[key] = states
        self._states = states
        self._bg = np.random.PCG64()
        self._gen = np.random.Generator(self._bg)
        self._state_template = {
            "bit_generator": "PCG64",
            "state": {"state": 0, "inc": 0},
            "has_uint32": 0,
            "uinteger": 0,
        }

    # -- batch precompute -------------------------------------------------
    def _extend(self, upto: int) -> None:
        while len(self._states) <= upto:
            start = len(self._states)
            count = self._block
            self._states.extend(self._batch(start, count))

    def _batch(self, start: int, count: int) -> list[tuple[int, int]]:
        base = self._offset + start
        idx = np.arange(base, base + count, dtype=np.uint64)
        if base + count >= 1 << 32:  # round index no longer one u32 word
            return [_scalar_round_state(self._run_words, base + i) for i in range(count)]
        # Level 1: child_i = SeedSequence(entropy, spawn_key=(i,)).
        words1 = [np.full(count, w, dtype=np.uint64) for w in self._run_words] + [idx]
        pool1, _ = _vec_pool_mix(words1, _INIT_A)
        val1 = _vec_generate_state(pool1)
        s1, inc1 = _vec_srandom(val1)
        # integers(0, 2**63 - 1, size=4) via Lemire; rejection is ~2⁻⁶³.
        excl = np.uint64((1 << 63) - 1)
        ent = []
        bad = np.zeros(count, dtype=bool)
        for _ in range(4):
            s1, r = _vec_next64(s1, inc1)
            lo = ((r << np.uint64(63)) - r) & _M64
            bad |= lo < 2  # leftover < threshold ⊆ leftover < rng_excl
            borrow = ((r & np.uint64(1)) << np.uint64(63)) < r
            ent.append((r >> np.uint64(1)) - borrow.astype(np.uint64))
        # Level 2: SeedSequence([e0..e3]).spawn(1)[0] — words are the two
        # 32-bit halves of each value; a sub-2³² value shortens the word
        # list, which the uniform layout can't express (scalar fallback).
        for e in ent:
            bad |= e < np.uint64(1 << 32)
        words2 = []
        for e in ent:
            words2.append(e & _M32)
            words2.append(e >> np.uint64(32))
        words2.append(np.zeros(count, dtype=np.uint64))  # spawn_key (0,)
        pool2, _ = _vec_pool_mix(words2, _INIT_A)
        val2 = _vec_generate_state(pool2)
        s2, inc2 = _vec_srandom(val2)
        out = []
        for i in range(count):
            if bad[i]:
                out.append(_scalar_round_state(self._run_words, base + i))
                continue
            state = int(s2[0][i]) | (int(s2[1][i]) << 32) | (int(s2[2][i]) << 64) | (int(s2[3][i]) << 96)
            inc = int(inc2[0][i]) | (int(inc2[1][i]) << 32) | (int(inc2[2][i]) << 64) | (int(inc2[3][i]) << 96)
            out.append((state, inc))
        return out

    # -- per-round access -------------------------------------------------
    def generator(self, index: int) -> np.random.Generator:
        """The round-*index* generator (reused object; draw before advancing)."""
        if self._exact_stream is not None:
            if index != self._exact_next:
                raise ValueError(
                    f"exact-mode plan requires sequential rounds: got {index}, "
                    f"expected {self._exact_next}"
                )
            self._exact_next += 1
            gen = next(self._exact_stream)
            entropy = gen.integers(0, 2**63 - 1, size=4).tolist()
            child = np.random.SeedSequence(entropy).spawn(1)[0]
            return np.random.default_rng(child)
        if self._root is not None:
            self._root.spawn(1)  # mirror stream()'s per-round consumption
        if index >= len(self._states):
            self._extend(index)
        state, inc = self._states[index]
        tmpl = self._state_template
        tmpl["state"]["state"] = state
        tmpl["state"]["inc"] = inc
        self._bg.state = tmpl
        return self._gen


def _stream_root(seed: SeedLike) -> np.random.SeedSequence:
    """The root SeedSequence exactly as :func:`repro.util.rng.stream` builds it."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        entropy = seed.integers(0, 2**63 - 1, size=4).tolist()
        return np.random.SeedSequence(entropy)
    return np.random.SeedSequence(_entropy(seed))
