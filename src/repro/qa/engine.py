"""The fuzz campaign engine: budget loop, shrink-on-failure, telemetry.

``run_fuzz`` drives the whole pipeline the CLI and CI expose::

    case stream (fuzzer) -> differential battery -> [on failure]
        restrict to the failing subjects -> shrink -> save reproducer

The engine is deterministic for a fixed ``(seed, budget-in-cases)``; a
time budget ("60s") trades that for wall-clock control — CI uses a time
budget with a fixed seed, which is deterministic in *content* (case k is
always the same) even though the stopping index varies with machine
speed.

Telemetry rides the ambient tracer from :mod:`repro.obs`: one
``fuzz/run`` span over the campaign, one ``fuzz/case`` span per case
(family, sizes, failure count), and ``qa/*`` metrics counters — so a
``--telemetry`` JSONL stream shows exactly which case went wrong and how
long every stage took.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from repro.obs import metrics as obs_metrics
from repro.obs.tracer import current_tracer
from repro.qa.differential import SOLVERS, Failure, make_predicate, run_case
from repro.qa.fuzzer import FuzzCase, generate_case
from repro.qa.regressions import save_reproducer
from repro.qa.shrinker import shrink

__all__ = ["Budget", "parse_budget", "CaseReport", "FuzzReport", "run_fuzz"]

_KNOWN_SOLVER_NAMES = {s.name for s in SOLVERS}

#: Failure checks that only the metamorphic battery can reproduce.
_METAMORPHIC_CHECKS = {
    "determinism",
    "canonicalisation",
    "edge-order",
    "relabel",
    "component-split",
    "component-merge",
}


@dataclass(frozen=True)
class Budget:
    """Either a case-count budget or a wall-clock budget (never both)."""

    cases: int | None = None
    seconds: float | None = None

    def __str__(self) -> str:
        if self.seconds is not None:
            return f"{self.seconds:g}s"
        return str(self.cases)


def parse_budget(text: str) -> Budget:
    """Parse ``"200"`` (cases), ``"60s"`` (seconds) or ``"2m"`` (minutes)."""
    text = text.strip().lower()
    try:
        if text.endswith("ms"):
            return Budget(seconds=float(text[:-2]) / 1000.0)
        if text.endswith("s"):
            return Budget(seconds=float(text[:-1]))
        if text.endswith("m"):
            return Budget(seconds=float(text[:-1]) * 60.0)
        cases = int(text)
    except ValueError:
        raise ValueError(
            f"bad budget {text!r}: want a case count ('200') or a duration "
            "('60s', '2m')"
        ) from None
    if cases < 0:
        raise ValueError(f"budget must be non-negative: {cases}")
    return Budget(cases=cases)


@dataclass
class CaseReport:
    """One failing case: what broke, and where the reproducer went."""

    index: int
    description: str
    failures: list[Failure]
    reproducer: Path | None = None
    shrunk_n: int | None = None
    shrunk_m: int | None = None


@dataclass
class FuzzReport:
    """Campaign outcome returned by :func:`run_fuzz`."""

    seed: int
    budget: Budget
    cases: int = 0
    elapsed_s: float = 0.0
    failures: list[CaseReport] = field(default_factory=list)
    stop_reason: str = "budget-exhausted"

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "clean" if self.ok else f"{len(self.failures)} failing case(s)"
        return (
            f"fuzz seed={self.seed} budget={self.budget}: {self.cases} cases "
            f"in {self.elapsed_s:.1f}s — {verdict} [{self.stop_reason}]"
        )


def _shrink_settings(failures: list[Failure]) -> tuple[list[str], bool, bool]:
    """Derive the narrowest predicate that still reproduces *failures*.

    An empty solver list is meaningful: only extra/oracle subjects
    failed, so shrink candidates skip the healthy library fleet entirely.
    """
    solvers = sorted({f.solver for f in failures} & _KNOWN_SOLVER_NAMES)
    metamorphic = any(f.check in _METAMORPHIC_CHECKS for f in failures)
    oracle = any(f.check == "oracle" or f.solver == "kuw-oracle" for f in failures)
    return solvers, metamorphic, oracle


def _handle_failure(
    case: FuzzCase,
    failures: list[Failure],
    out_dir: Path | None,
    extra_solvers: Mapping[str, Callable] | None,
    do_shrink: bool,
    max_shrink_evals: int,
    fuzz_seed: int,
) -> CaseReport:
    report = CaseReport(case.index, case.describe(), failures)
    if out_dir is None:
        return report
    if case.family == "stream-updates":
        return _handle_stream_failure(
            case, failures, report, out_dir, do_shrink, max_shrink_evals, fuzz_seed
        )
    H = case.hypergraph
    shrunk_kind = "unshrunk-failure"
    shrink_meta: dict = {}
    certificate_only = all(f.solver == "planted" for f in failures)
    if do_shrink and not certificate_only:
        solvers, metamorphic, oracle = _shrink_settings(failures)
        # Keep only the extra subjects that actually failed — shrinking
        # against a healthy solver fleet would never converge.
        extras = None
        if extra_solvers:
            failing = {f.solver for f in failures}
            extras = {n: fn for n, fn in extra_solvers.items() if n in failing} or None
        fails = make_predicate(
            case.solver_seed,
            solvers=solvers,
            extra_solvers=extras,
            metamorphic=metamorphic,
            oracle=oracle,
        )
        try:
            result = shrink(H, fails, max_evals=max_shrink_evals)
        except ValueError:
            # Not reproducible under the narrowed predicate (flaky
            # environment failure, or an extra solver with state): pin
            # the unshrunk instance instead.
            result = None
        if result is not None:
            H = result.hypergraph
            shrunk_kind = "shrunk-failure"
            shrink_meta = {
                "evals": result.evals,
                "from": {"n": case.hypergraph.num_vertices, "m": case.hypergraph.num_edges},
            }
    manifest = {
        "kind": shrunk_kind,
        "seed": case.solver_seed,
        "solvers": sorted({f.solver for f in failures} & _KNOWN_SOLVER_NAMES) or None,
        "description": f"fuzz failure: {case.describe()}",
        "failures": [str(f) for f in failures],
        "fuzz": {
            "seed": fuzz_seed,
            "index": case.index,
            "family": case.family,
            "params": case.params,
            "mutations": list(case.mutations),
        },
        "shrink": shrink_meta,
        "replay": {"metamorphic": True, "oracle": True, "focus_index": 0},
    }
    report.reproducer = save_reproducer(H, manifest, out_dir)
    report.shrunk_n = H.num_vertices
    report.shrunk_m = H.num_edges
    return report


def _handle_stream_failure(
    case: FuzzCase,
    failures: list[Failure],
    report: CaseReport,
    out_dir: Path,
    do_shrink: bool,
    max_shrink_evals: int,
    fuzz_seed: int,
) -> CaseReport:
    """Pin a failing stream case: shrink the *update sequence*, not the graph.

    The starting hypergraph goes into the archive as usual; the (possibly
    ddmin-minimised) update batches ride in ``manifest["stream"]``, which
    is what routes :func:`repro.qa.regressions.replay` back to the stream
    battery.
    """
    from repro.qa.streams import (
        encode_steps,
        make_stream_predicate,
        shrink_steps,
        steps_from_params,
    )

    H = case.hypergraph
    steps = steps_from_params(case.params)
    shrunk_kind = "unshrunk-failure"
    shrink_meta: dict = {}
    if do_shrink:
        try:
            shrunk, evals = shrink_steps(
                H,
                steps,
                make_stream_predicate(H, case.solver_seed),
                max_evals=min(max_shrink_evals, 400),
            )
        except ValueError:
            shrunk = None  # not reproducible under re-evaluation: pin as-is
        if shrunk is not None:
            shrink_meta = {
                "evals": evals,
                "from_batches": len(steps),
                "from_events": sum(len(a) + len(r) for a, r in steps),
            }
            steps = shrunk
            shrunk_kind = "shrunk-failure"
    manifest = {
        "kind": shrunk_kind,
        "seed": case.solver_seed,
        "solvers": None,
        "description": f"stream fuzz failure: {case.describe()}",
        "failures": [str(f) for f in failures],
        "fuzz": {
            "seed": fuzz_seed,
            "index": case.index,
            "family": case.family,
            "params": {k: v for k, v in case.params.items() if k != "stream"},
            "mutations": list(case.mutations),
        },
        "shrink": shrink_meta,
        "stream": {"steps": encode_steps(steps)},
    }
    report.reproducer = save_reproducer(H, manifest, out_dir)
    report.shrunk_n = H.num_vertices
    report.shrunk_m = H.num_edges
    return report


def _case_battery(payload: tuple) -> list[Failure]:
    """Rebuild fuzz case ``(seed, index)`` and run its differential battery.

    Module-level so :meth:`ParallelRunner.map_tasks` can pickle it into
    worker processes; the case is regenerated from its coordinates (pure,
    a few hundred microseconds) instead of shipping the hypergraph over.
    Runs under whatever tracer is ambient in the calling process — in a
    worker that is the private memory-sink tracer the runner splices back.
    """
    seed, index, solvers, extra_solvers, metamorphic, oracle = payload
    return _run_battery(
        generate_case(seed, index), solvers, extra_solvers, metamorphic, oracle
    )


def _run_battery(
    case: FuzzCase,
    solvers: list[str] | None,
    extra_solvers: Mapping[str, Callable] | None,
    metamorphic: bool,
    oracle: bool,
) -> list[Failure]:
    H = case.hypergraph
    tracer = current_tracer()
    with tracer.span(
        "fuzz/case",
        index=case.index,
        family=case.family,
        n=H.num_vertices,
        m=H.num_edges,
        dim=H.dimension,
    ) as span:
        if case.family == "stream-updates":
            from repro.qa.streams import run_stream_battery, steps_from_params

            failures = run_stream_battery(
                H, steps_from_params(case.params), case.solver_seed
            )
        else:
            failures = run_case(
                H,
                case.solver_seed,
                solvers=solvers,
                extra_solvers=extra_solvers,
                focus_index=case.index,
                metamorphic=metamorphic,
                oracle=oracle,
                certificate=case.certificate,
            )
        if tracer.enabled:
            span.set(failures=len(failures), mutations=list(case.mutations))
    return failures


def run_fuzz(
    budget: Budget | str,
    seed: int = 0,
    *,
    solvers: list[str] | None = None,
    extra_solvers: Mapping[str, Callable] | None = None,
    out_dir: str | Path | None = None,
    max_failures: int = 1,
    shrink_failures: bool = True,
    max_shrink_evals: int = 2000,
    metamorphic: bool = True,
    oracle: bool = True,
    start_index: int = 0,
    on_case: Callable[[FuzzCase, list[Failure]], None] | None = None,
    workers: int | None = None,
) -> FuzzReport:
    """Run a differential fuzzing campaign.

    Parameters
    ----------
    budget:
        A :class:`Budget` or its string form (``"200"`` cases, ``"60s"``).
    seed:
        Campaign seed; fully determines every case (see
        :func:`repro.qa.fuzzer.generate_case`).
    solvers, extra_solvers:
        Subject selection, as in :func:`repro.qa.differential.run_case`.
    out_dir:
        Where reproducers are written (``None`` disables writing).
    max_failures:
        Stop after this many failing cases (CI wants 1).
    shrink_failures, max_shrink_evals:
        Delta-debug failing instances before saving.
    metamorphic, oracle:
        Invariant groups to run per case.
    start_index:
        First case index (resume a stream past known-clean prefixes).
    on_case:
        Observer hook called after each case with its failures.
    workers:
        Fan case batteries out over N worker processes via the shared
        :class:`~repro.exec.runner.ParallelRunner` (``None``/``0`` =
        in-process, one case per dispatch).  Case content, processing
        order and the failure report are identical for every worker count
        on a case budget; with workers, a time budget may overshoot by up
        to one dispatch chunk before it stops.  ``extra_solvers`` must be
        picklable to cross the pool boundary.
    """
    if isinstance(budget, str):
        budget = parse_budget(budget)
    seed = int(seed)
    out_path = Path(out_dir) if out_dir is not None else None
    report = FuzzReport(seed=seed, budget=budget)
    tracer = current_tracer()
    t0 = time.monotonic()

    def exhausted(index_offset: int) -> bool:
        if budget.cases is not None and index_offset >= budget.cases:
            return True
        if budget.seconds is not None and time.monotonic() - t0 >= budget.seconds:
            return True
        return False

    def fold(case: FuzzCase, failures: list[Failure]) -> bool:
        """Account one completed case; True = stop (max failures hit)."""
        if on_case is not None:
            on_case(case, failures)
        if not failures:
            return False
        obs_metrics.inc("qa/failing_cases")
        if tracer.enabled:
            tracer.emit(
                "fuzz_failure",
                index=case.index,
                failures=[str(f) for f in failures],
            )
        report.failures.append(
            _handle_failure(
                case,
                failures,
                out_path,
                extra_solvers,
                shrink_failures,
                max_shrink_evals,
                seed,
            )
        )
        if len(report.failures) >= max_failures:
            report.stop_reason = "max-failures"
            return True
        return False

    with tracer.span(
        "fuzz/run", seed=seed, budget=str(budget), workers=workers or 0
    ) as run_span:
        offset = 0
        from repro.exec.runner import ParallelRunner

        with ParallelRunner(workers) as runner:
            # Chunked dispatch: enough cases in flight to keep every worker
            # busy, small enough that a time budget or an early max-failures
            # stop does not overrun by much.  In-process, one case at a time.
            chunk = max(2 * runner.workers, 4) if runner.workers else 1
            stop = False
            while not stop and not exhausted(offset):
                size = chunk
                if budget.cases is not None:
                    size = min(size, budget.cases - offset)
                indices = [start_index + offset + i for i in range(size)]
                batch = runner.map_tasks(
                    _case_battery,
                    [
                        (seed, idx, solvers, extra_solvers, metamorphic, oracle)
                        for idx in indices
                    ],
                    label="fuzz/chunk",
                )
                for index, failures in zip(indices, batch):
                    obs_metrics.inc("qa/cases")
                    report.cases += 1
                    offset += 1
                    if failures or on_case is not None:
                        # The case itself stays in the battery; rebuild it
                        # (pure in (seed, index)) only when needed.
                        if fold(generate_case(seed, index), failures):
                            stop = True
                            break
        report.elapsed_s = time.monotonic() - t0
        if tracer.enabled:
            run_span.set(
                cases=report.cases,
                failing_cases=len(report.failures),
                stop_reason=report.stop_reason,
            )
    return report
