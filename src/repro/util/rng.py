"""Deterministic random-number-generator plumbing.

Every stochastic component in :mod:`repro` accepts a ``seed`` argument that
may be ``None`` (non-deterministic), an integer, a
:class:`numpy.random.SeedSequence`, or an existing
:class:`numpy.random.Generator`.  The helpers here normalise those inputs and
derive statistically independent child generators, so a single top-level seed
reproduces an entire experiment — including all parallel rounds — exactly.

The design follows NumPy's recommended practice: never reuse a generator
across conceptually independent streams, always *spawn* children from a
:class:`~numpy.random.SeedSequence`.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

import numpy as np

from repro.obs import metrics as obs_metrics

#: Types accepted anywhere a seed is expected.  Sequences may mix ints and
#: strings; strings are hashed to stable integers (useful for labelling
#: derived streams, e.g. ``(seed, "instances")``).
SeedLike = Union[None, int, str, Sequence, np.random.SeedSequence, np.random.Generator]

__all__ = [
    "COIN_CHUNK",
    "SeedLike",
    "as_generator",
    "bernoulli_coins",
    "spawn_seeds",
    "spawn_generators",
    "stream",
]

#: Coins per child stream in :func:`bernoulli_coins`.  Part of the RNG
#: contract: changing it changes every marking draw longer than one chunk.
COIN_CHUNK = 1 << 16


def _entropy(seed) -> "int | list[int] | None":
    """Normalise ints/strings/sequences into SeedSequence-compatible entropy.

    Strings are hashed with SHA-256 (stable across processes and Python
    versions, unlike ``hash()``).
    """
    import hashlib

    if seed is None or isinstance(seed, int):
        return seed
    if isinstance(seed, str):
        return int.from_bytes(hashlib.sha256(seed.encode()).digest()[:8], "big")
    if isinstance(seed, (tuple, list)):
        out = []
        for item in seed:
            e = _entropy(item)
            if e is None:
                raise ValueError("None not allowed inside a composite seed")
            out.extend(e if isinstance(e, list) else [e])
        return out
    raise TypeError(f"unsupported seed component: {type(seed).__name__}")


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int``, a sequence of ints, a
        :class:`~numpy.random.SeedSequence`, or an existing ``Generator``
        (returned unchanged — the caller then shares state with us, which is
        the intended behaviour for nested algorithmic components).

    Returns
    -------
    numpy.random.Generator
        A PCG64-backed generator.

    Examples
    --------
    >>> g = as_generator(1234)
    >>> h = as_generator(1234)
    >>> bool((g.random(4) == h.random(4)).all())
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(_entropy(seed))


def spawn_seeds(seed: SeedLike, n: int) -> list[np.random.SeedSequence]:
    """Derive *n* independent :class:`~numpy.random.SeedSequence` children.

    If *seed* is already a ``Generator`` we derive children from fresh
    entropy drawn from it (keeping determinism when the generator itself is
    seeded).

    Parameters
    ----------
    seed:
        Anything accepted by :func:`as_generator`.
    n:
        Number of children to derive.  Must be non-negative.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of seeds: {n}")
    if isinstance(seed, np.random.SeedSequence):
        return list(seed.spawn(n))
    if isinstance(seed, np.random.Generator):
        # Derive a deterministic child entropy stream from the generator.
        entropy = seed.integers(0, 2**63 - 1, size=4).tolist()
        return list(np.random.SeedSequence(entropy).spawn(n))
    return list(np.random.SeedSequence(_entropy(seed)).spawn(n))


def spawn_generators(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive *n* independent generators from *seed*.

    Convenience wrapper combining :func:`spawn_seeds` and
    :func:`as_generator`.
    """
    return [np.random.default_rng(s) for s in spawn_seeds(seed, n)]


def stream(seed: SeedLike) -> Iterator[np.random.Generator]:
    """Yield an unbounded deterministic stream of independent generators.

    Useful for iterative algorithms whose round count is not known in
    advance (e.g. the while loops of BL and SBL): round *i* always receives
    the same generator for a given top-level seed regardless of how many
    rounds end up executing.
    """
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif isinstance(seed, np.random.Generator):
        entropy = seed.integers(0, 2**63 - 1, size=4).tolist()
        root = np.random.SeedSequence(entropy)
    else:
        root = np.random.SeedSequence(_entropy(seed))
    while True:
        (child,) = root.spawn(1)
        yield np.random.default_rng(child)


def bernoulli_coins(seed: SeedLike, n: int, p: float) -> np.ndarray:
    """*n* independent Bernoulli(*p*) coins as a boolean mask.

    The marking step of BL and the sampling step of SBL.  Chunk *k* of
    :data:`COIN_CHUNK` coins comes from the *k*-th child of
    :func:`spawn_seeds`, so a draw of ``n <= COIN_CHUNK`` coins is
    ``default_rng(spawn_seeds(seed, 1)[0]).random(n) < p`` (what the dense
    kernels replay), and for a fixed non-Generator seed a longer draw
    extends a shorter one.

    >>> bool((bernoulli_coins(3, 10, 0.5) == bernoulli_coins(3, 10, 0.5)).all())
    True
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    obs_metrics.inc("backend/bernoulli_calls")
    obs_metrics.inc("backend/bernoulli_draws", n)
    if n == 0:
        return np.zeros(0, dtype=bool)
    starts = range(0, n, COIN_CHUNK)
    seeds = spawn_seeds(seed, len(starts))
    return np.concatenate([
        np.random.default_rng(s).random(min(COIN_CHUNK, n - start)) < p
        for s, start in zip(seeds, starts)
    ])
