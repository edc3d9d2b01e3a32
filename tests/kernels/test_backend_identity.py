"""Cross-backend bit-identity: the dispatcher can never change a result.

Every solver that consults the dispatcher is replayed under each forced
kernel and compared field-for-field — independent set, header, per-round
records (modulo wall-clock), meta, and PRAM machine totals.  The
regression corpus replays under every backend too, so a reproducer pinned
on one engine guards them all.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import beame_luby, greedy_mis, karp_upfal_wigderson, permutation_bl
from repro.generators import mixed_dimension_hypergraph, uniform_hypergraph
from repro.hypergraph import Hypergraph
from repro.kernels import use_kernel
from repro.kernels.jit import HAVE_NUMBA
from repro.pram.machine import CountingMachine
from repro.qa import replay

KERNELS = ["csr", "bitset"] + (["jit"] if HAVE_NUMBA else [])

SOLVERS = {
    "bl": beame_luby,
    "kuw": karp_upfal_wigderson,
    "permutation": permutation_bl,
    "greedy": greedy_mis,
}

INSTANCES = {
    "uniform-d3": uniform_hypergraph(60, 120, 3, seed=0),
    "uniform-d2": uniform_hypergraph(40, 90, 2, seed=1),
    "mixed": mixed_dimension_hypergraph(50, 120, (1, 2, 3), seed=2),
    "degenerate": Hypergraph(8, [(0,), (1,), (0, 1, 2), (3, 4), (3, 4, 5)]),
    "edgeless": Hypergraph(10, []),
    "empty": Hypergraph(0, []),
    # The widened envelope: dimension > 3 routes to the frontier engine,
    # universe > 2048 to the big-universe scalar path.
    "uniform-d4": uniform_hypergraph(36, 90, 4, seed=3),
    "uniform-d5": uniform_hypergraph(30, 60, 5, seed=4),
    "wide-u4096": uniform_hypergraph(4096, 96, 3, seed=5),
    # The top of the dense envelope: universe == COIN_CHUNK, the largest
    # draw the dense engines' single-chunk coin fill still reproduces.
    "wide-u65536": uniform_hypergraph(65536, 96, 3, seed=5),
    "mixed-d5-wide": mixed_dimension_hypergraph(3000, 48, (2, 3, 4, 5), seed=6),
}

REGRESSION_DIR = Path(__file__).parents[1] / "regressions"


def _record_key(rec):
    extras = tuple(
        sorted((k, v) for k, v in (rec.extras or {}).items() if k != "wall_ns")
    )
    return (
        rec.index, rec.phase, rec.n_before, rec.m_before, rec.n_after,
        rec.m_after, rec.marked, rec.unmarked, rec.added, rec.removed_red,
        rec.dimension, extras,
    )


def _solve(fn, kernel, H, seed, **kwargs):
    if kwargs.pop("count", False):
        kwargs["machine"] = CountingMachine()
    with use_kernel(kernel):
        return fn(H, seed, **kwargs)


def _assert_identical(a, b, tag):
    assert np.array_equal(a.independent_set, b.independent_set), tag
    assert (a.algorithm, a.n, a.m) == (b.algorithm, b.n, b.m), tag
    assert len(a.rounds) == len(b.rounds), tag
    for x, y in zip(a.rounds, b.rounds):
        assert _record_key(x) == _record_key(y), (tag, _record_key(x), _record_key(y))
    assert a.meta == b.meta, tag
    assert a.machine == b.machine, tag


@pytest.mark.parametrize("solver", sorted(SOLVERS), ids=str)
@pytest.mark.parametrize("name", sorted(INSTANCES), ids=str)
@pytest.mark.parametrize("seed", [0, 3])
def test_backends_bit_identical(solver, name, seed):
    H = INSTANCES[name]
    fn = SOLVERS[solver]
    baseline = _solve(fn, "csr", H, seed, count=True)
    for kernel in KERNELS[1:]:
        got = _solve(fn, kernel, H, seed, count=True)
        _assert_identical(baseline, got, (solver, name, seed, kernel))


def test_auto_matches_forced_backends():
    H = INSTANCES["uniform-d3"]
    for solver, fn in SOLVERS.items():
        auto = _solve(fn, "auto", H, 5)
        forced = _solve(fn, "bitset", H, 5)
        assert np.array_equal(auto.independent_set, forced.independent_set), solver


def test_jit_without_numba_degrades_to_bitset():
    if HAVE_NUMBA:
        pytest.skip("numba present: jit is its own backend")
    H = INSTANCES["uniform-d3"]
    a = _solve(beame_luby, "jit", H, 2)
    b = _solve(beame_luby, "bitset", H, 2)
    _assert_identical(a, b, "jit-fallback")


class TestSblDenseRouting:
    """SBL hands its reduced instances to the dispatcher; results can't move.

    The sampling phase keeps its own coin stream, and the inner BL/KUW
    solves are bit-identical per backend — so SBL's full ``Result``
    payload must match field-for-field whichever kernel the reduced
    instances route through.
    """

    @pytest.mark.parametrize(
        "path", sorted(REGRESSION_DIR.glob("*.npz")), ids=lambda p: p.stem
    )
    def test_identical_across_kernels_on_corpus(self, path):
        from repro.core import sbl
        from repro.qa import load_reproducer

        H, manifest = load_reproducer(path)
        seed = int(manifest["seed"])
        baseline = _solve(sbl, "csr", H, seed, count=True)
        for kernel in ("bitset", "auto"):
            got = _solve(sbl, kernel, H, seed, count=True)
            _assert_identical(baseline, got, (path.stem, kernel))

    @pytest.mark.parametrize("name", ["uniform-d5", "mixed-d5-wide"], ids=str)
    def test_identical_on_high_dimension_instances(self, name):
        from repro.core import sbl

        H = INSTANCES[name]
        baseline = _solve(sbl, "csr", H, 9, count=True)
        got = _solve(sbl, "bitset", H, 9, count=True)
        _assert_identical(baseline, got, (name, "bitset"))


class TestTracedDenseRounds:
    """The tracer blocker is gone: dense rounds emit per-round spans."""

    @pytest.mark.parametrize(
        "name", ["uniform-d3", "uniform-d4", "wide-u4096"], ids=str
    )
    def test_span_per_round_under_dense_kernels(self, name):
        from repro.obs.events import MemorySink
        from repro.obs.tracer import Tracer, use_tracer

        H = INSTANCES[name]
        sink = MemorySink()
        tracer = Tracer(sink)
        try:
            with use_tracer(tracer), use_kernel("bitset"):
                res = beame_luby(H, seed=1)
        finally:
            tracer.close()
        rounds = [
            e
            for e in sink.events
            if e.get("type") == "span" and e.get("name") == "bl/round"
        ]
        assert len(rounds) == res.num_rounds
        # The traced run must still match the CSR reference bit-for-bit.
        ref = _solve(beame_luby, "csr", H, 1, count=True)
        got = _solve(beame_luby, "bitset", H, 1, count=True)
        _assert_identical(ref, got, (name, "traced-dense"))


class TestCorpusMatrix:
    """Backend-matrix replay of the committed reproducer corpus."""

    @pytest.mark.parametrize("kernel", KERNELS, ids=str)
    @pytest.mark.parametrize(
        "path", sorted(REGRESSION_DIR.glob("*.npz")), ids=lambda p: p.stem
    )
    def test_reproducer_clean_under_kernel(self, path, kernel):
        with use_kernel(kernel):
            failures = replay(path)
        assert failures == [], (
            f"{path.name} under {kernel}:\n"
            + "\n".join(f"  {f}" for f in failures)
        )
