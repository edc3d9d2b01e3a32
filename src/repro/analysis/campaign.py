"""Measurement campaigns: algorithm × instance grids with CSV export.

A *campaign* is the batch layer the experiments are built on when you want
raw data instead of a finished table: it sweeps a grid of instance
specifications and algorithms, runs each cell over several seeds, verifies
every output, and collects one flat record per run — ready for CSV
export or downstream aggregation.

Example
-------
>>> from repro.analysis.campaign import Campaign, InstanceSpec, AlgorithmSpec
>>> from repro.generators import uniform_hypergraph
>>> from repro.core import beame_luby, karp_upfal_wigderson
>>> camp = Campaign(
...     instances=[InstanceSpec("u3", uniform_hypergraph, {"n": 40, "m": 60, "d": 3})],
...     algorithms=[AlgorithmSpec("bl", beame_luby), AlgorithmSpec("kuw", karp_upfal_wigderson)],
...     repeats=2,
... )
>>> records = camp.run(seed=0)
>>> sorted({r.algorithm for r in records})
['bl', 'kuw']
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, TextIO, Union

import numpy as np

from repro.core.result import MISResult
from repro.hypergraph.hypergraph import Hypergraph
from repro.util.rng import SeedLike, spawn_seeds

__all__ = ["InstanceSpec", "AlgorithmSpec", "RunRecord", "Campaign", "write_csv"]


@dataclass(frozen=True)
class InstanceSpec:
    """A named instance generator call: ``generator(seed=…, **params)``."""

    name: str
    generator: Callable[..., Hypergraph]
    params: Mapping[str, Any] = field(default_factory=dict)

    def build(self, seed: SeedLike) -> Hypergraph:
        """Instantiate the hypergraph."""
        return self.generator(seed=seed, **self.params)


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named algorithm call: ``fn(H, seed, machine=…, **options)``."""

    name: str
    fn: Callable[..., MISResult]
    options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class RunRecord:
    """One verified run: the flat record campaigns accumulate."""

    instance: str
    algorithm: str
    repeat: int
    n: int
    m: int
    dimension: int
    mis_size: int
    rounds: int
    depth: int
    work: int

    FIELDS = (
        "instance", "algorithm", "repeat", "n", "m", "dimension",
        "mis_size", "rounds", "depth", "work",
    )

    def as_row(self) -> list[Any]:
        """Values in :data:`FIELDS` order."""
        return [getattr(self, f) for f in self.FIELDS]


@dataclass
class Campaign:
    """A grid of instance specs × algorithm specs × repeats.

    Attributes
    ----------
    instances, algorithms:
        The grid axes.
    repeats:
        Seeds per cell (instance randomness and algorithm randomness are
        drawn from independent child streams of the campaign seed).
    verify:
        Check every output with :func:`check_mis` (on by default — a
        campaign that silently collects invalid outputs is worse than a
        crash).
    """

    instances: Sequence[InstanceSpec]
    algorithms: Sequence[AlgorithmSpec]
    repeats: int = 3
    verify: bool = True

    def run(
        self,
        seed: SeedLike = 0,
        *,
        parallel: "Union[None, int, Any]" = None,
    ) -> list[RunRecord]:
        """Execute the full grid; returns one record per (cell, repeat).

        Parameters
        ----------
        seed:
            Campaign seed.  Instance randomness and the per-cell algorithm
            seeds all derive from it, and the derivation is identical for
            every execution mode — so the records are **bit-identical**
            whether the grid runs serially or on any number of workers.
        parallel:
            ``None`` or ``0`` (default) runs in-process.  A positive
            ``int`` runs the grid on that many worker processes via
            :class:`repro.exec.ParallelRunner` (instances travel through
            shared memory, one block per distinct instance).  An existing
            ``ParallelRunner`` is borrowed, letting several campaigns
            share one warm pool.  Every mode runs the same cell body.
        """
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1: {self.repeats}")
        if not self.instances or not self.algorithms:
            raise ValueError("campaign needs at least one instance and one algorithm")
        from repro.exec import ParallelRunner

        if isinstance(parallel, ParallelRunner):
            return self._run(seed, parallel)
        with ParallelRunner(parallel) as runner:
            return self._run(seed, runner)

    def _grid(self, seed: SeedLike):
        """Yield one ``(ispec, H, aspec, rep, cell_seed)`` tuple per run.

        The single source of the seed-tree shape: every execution mode
        runs the cells built from it, which is what makes their records
        agree.
        """
        inst_seeds = spawn_seeds((seed, "instances"), len(self.instances))
        for ispec, iseed in zip(self.instances, inst_seeds):
            H = ispec.build(iseed)
            algo_seeds = spawn_seeds(
                (seed, "runs", ispec.name), len(self.algorithms) * self.repeats
            )
            si = 0
            for aspec in self.algorithms:
                for rep in range(self.repeats):
                    yield ispec, H, aspec, rep, algo_seeds[si]
                    si += 1

    def _run(self, seed: SeedLike, runner: Any) -> list[RunRecord]:
        from repro.exec import Cell

        cells = []
        stubs = []  # (ispec, H, aspec, rep) aligned with cells
        for ispec, H, aspec, rep, cell_seed in self._grid(seed):
            cells.append(
                Cell(
                    instance=H,
                    fn=aspec.fn,
                    seed=cell_seed,
                    options=dict(aspec.options),
                    verify=self.verify,
                    label=f"{ispec.name}/{aspec.name}/{rep}",
                )
            )
            stubs.append((ispec, H, aspec, rep))
        results = runner.run_cells(cells)
        return [
            RunRecord(
                instance=ispec.name,
                algorithm=aspec.name,
                repeat=rep,
                n=H.num_vertices,
                m=H.num_edges,
                dimension=H.dimension,
                mis_size=r.mis_size,
                rounds=r.num_rounds,
                depth=r.depth,
                work=r.work,
            )
            for (ispec, H, aspec, rep), r in zip(stubs, results)
        ]

    def summarize(self, records: Sequence[RunRecord]) -> list[dict[str, Any]]:
        """Per-cell means over repeats: one dict per (instance, algorithm)."""
        cells: dict[tuple[str, str], list[RunRecord]] = {}
        for r in records:
            cells.setdefault((r.instance, r.algorithm), []).append(r)
        out = []
        for (inst, algo), rs in sorted(cells.items()):
            out.append(
                {
                    "instance": inst,
                    "algorithm": algo,
                    "runs": len(rs),
                    "mis_size": float(np.mean([r.mis_size for r in rs])),
                    "rounds": float(np.mean([r.rounds for r in rs])),
                    "depth": float(np.mean([r.depth for r in rs])),
                    "work": float(np.mean([r.work for r in rs])),
                }
            )
        return out


def write_csv(records: Sequence[RunRecord], fp: Union[TextIO, str, Path]) -> None:
    """Write records as CSV (header + one row per run)."""
    if isinstance(fp, (str, Path)):
        with open(fp, "w", newline="") as f:
            write_csv(records, f)
        return
    writer = csv.writer(fp)
    writer.writerow(RunRecord.FIELDS)
    for r in records:
        writer.writerow(r.as_row())
