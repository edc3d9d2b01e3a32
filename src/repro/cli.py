"""Command-line interface.

The subcommands mirror the library's workflow::

    python -m repro generate uniform --n 200 --m 400 --d 3 -o inst.txt
    python -m repro info inst.txt
    python -m repro solve inst.txt --algorithm sbl --seed 7 --costs
    python -m repro check inst.txt --set 1,4,9,12
    python -m repro experiment E3 --scale quick
    python -m repro campaign --sizes 100,200 --workers 4 --csv runs.csv
    python -m repro stream --steps 50 --batch 4 --hot 0.8 --telemetry run.jsonl
    python -m repro trace summary run.jsonl
    python -m repro fuzz run --budget 60s --seed 0
    python -m repro fuzz replay tests/regressions
    python -m repro fuzz shrink inst.txt --seed 0 -o tests/regressions
    python -m repro serve --socket repro.sock --workers auto --heartbeat 5
    python -m repro client solve inst.txt --algorithm bl --seed 7

``solve`` prints a JSON document (set, rounds, optional PRAM costs) so it
composes with shell pipelines; everything else prints human-readable text.
``solve`` and ``experiment`` accept ``--telemetry PATH`` to stream a
versioned JSONL span/metric event log (see docs/observability.md), which
``trace summary`` / ``trace compare`` / ``trace diff`` / ``trace flame``
render.  ``--profile HZ`` adds sampling-profiler events to the stream;
``--heartbeat SEC`` and ``--metrics-out PATH`` publish campaign liveness
gauges as OpenMetrics text.

Importing this module loads only what ``solve`` runs (the solvers, the
hypergraph substrate, numpy and ``scipy.sparse``).  Each other command
imports its own dependencies — analysis, the executor, generators, the
service, the dynamic engine, fuzzing — when it runs, and the argument
parser is built once per process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import Callable, Iterator, Sequence

from repro.core import (
    beame_luby,
    greedy_mis,
    karp_upfal_wigderson,
    linear_hypergraph_mis,
    luby_mis,
    permutation_bl,
    sbl,
)
from repro.hypergraph import check_mis
from repro.hypergraph.degrees import degree_profile
from repro.hypergraph.hio import dump, load
from repro.hypergraph.validate import (
    IndependenceViolation,
    MaximalityViolation,
)
from repro.pram import CountingMachine

__all__ = ["main"]

ALGORITHMS: dict[str, Callable] = {
    "sbl": sbl,
    "bl": beame_luby,
    "kuw": karp_upfal_wigderson,
    "greedy": greedy_mis,
    "permutation": permutation_bl,
    "luby": luby_mis,
    "linear": linear_hypergraph_mis,
}


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.generators import (
        bounded_edges_instance,
        mixed_dimension_hypergraph,
        random_linear_hypergraph,
        sparse_random_graph,
        uniform_hypergraph,
    )

    if args.family == "uniform":
        H = uniform_hypergraph(args.n, args.m, args.d, seed=args.seed)
    elif args.family == "mixed":
        dims = [int(x) for x in args.dims.split(",")]
        H = mixed_dimension_hypergraph(args.n, args.m, dims, seed=args.seed)
    elif args.family == "graph":
        H = sparse_random_graph(args.n, args.avg_degree, seed=args.seed)
    elif args.family == "linear":
        H = random_linear_hypergraph(args.n, args.m, args.d, seed=args.seed)
    elif args.family == "bounded":
        H = bounded_edges_instance(args.n, seed=args.seed, beta_fraction=args.beta_fraction)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.family)
    if args.output == "-":
        dump(H, sys.stdout)
    else:
        dump(H, args.output)
        print(f"wrote {H} to {args.output}", file=sys.stderr)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_kv

    H = load(args.instance)
    info = {
        "vertices": H.num_vertices,
        "edges": H.num_edges,
        "dimension": H.dimension,
        "min edge size": H.min_edge_size,
        "total edge size": H.total_edge_size,
        "max vertex degree": H.max_degree(),
    }
    if H.num_edges and H.dimension <= 12:
        prof = degree_profile(H)
        info["max normalised degree Δ"] = round(prof.delta(), 4)
    print(render_kv(str(args.instance), info))
    return 0


@contextlib.contextmanager
def _telemetry(
    path: str,
    *,
    profile_hz: float = 0.0,
    heartbeat: float = 0.0,
    metrics_out: str = "",
    track_memory: bool = False,
    extra_gauges: Callable[[], dict] | None = None,
    **run_attrs,
) -> Iterator[None]:
    """Activate the observability stack for the enclosed run.

    With *path*, opens a :class:`~repro.obs.events.JsonlSink` there, emits
    a ``run`` preamble event carrying *run_attrs*, and installs the tracer
    ambiently (so library code picks it up via ``current_tracer()``)
    inside an isolated metrics registry; on exit the metrics snapshot is
    flushed and the sink closed.  ``track_memory`` opts the tracer into
    per-span allocation peaks.

    *profile_hz* > 0 runs a :class:`~repro.obs.profile.SamplingProfiler`
    over the run, its samples landing as a ``profile`` event on the
    stream.  *heartbeat* > 0 starts a liveness thread flushing progress
    gauges every beat; *extra_gauges* (a callable returning name→value)
    is polled on each beat so long-running commands — ``serve`` — can
    publish their own gauges through the same textfile.  *metrics_out*
    writes an OpenMetrics textfile — each beat when a heartbeat runs,
    once at exit otherwise — and works with or without a telemetry
    *path*.

    With none of these requested this is a complete no-op.
    """
    if not path and not metrics_out:
        yield
        return
    from repro.obs import (
        NULL_TRACER,
        Heartbeat,
        JsonlSink,
        SamplingProfiler,
        Tracer,
        isolated_registry,
        use_tracer,
    )
    from repro.obs.export import render_openmetrics

    with isolated_registry() as registry:
        if path:
            tracer = Tracer(JsonlSink(path), track_memory=track_memory)
        else:
            tracer = NULL_TRACER  # no event stream: metrics-only run
        profiler = None
        if profile_hz > 0:
            if not path:
                print(
                    "--profile needs --telemetry PATH (samples land on the "
                    "event stream); ignoring",
                    file=sys.stderr,
                )
            else:
                profiler = SamplingProfiler(profile_hz, tracer=tracer)
        labels = (
            {"command": str(run_attrs["command"])} if "command" in run_attrs else None
        )
        beat = None
        if heartbeat > 0:
            beat = Heartbeat(
                heartbeat,
                registry=registry,
                tracer=tracer,
                textfile=metrics_out or None,
                labels=labels,
                extra=extra_gauges,
            )
        try:
            if tracer.enabled:
                tracer.emit("run", **run_attrs)
            if profiler is not None:
                profiler.start()
            if beat is not None:
                beat.start()
            with use_tracer(tracer):
                yield
        finally:
            if beat is not None:
                beat.stop()  # final beat rewrites the textfile
            if profiler is not None and profiler.running:
                profiler.stop()  # emits the profile event before close
            if tracer.enabled:
                tracer.flush_metrics()
            tracer.close()
            if metrics_out and beat is None:
                from pathlib import Path

                if extra_gauges is not None:
                    with contextlib.suppress(Exception):
                        for name, value in extra_gauges().items():
                            registry.gauge(name).set(float(value))
                Path(metrics_out).write_text(
                    render_openmetrics(registry.snapshot(), labels=labels),
                    encoding="utf-8",
                )
    if path:
        print(f"telemetry written to {path}", file=sys.stderr)
    if metrics_out:
        print(f"metrics written to {metrics_out}", file=sys.stderr)


def _cmd_solve(args: argparse.Namespace) -> int:
    H = load(args.instance)
    fn = ALGORITHMS[args.algorithm]
    # Telemetry implies a cost accountant: spans record depth/work deltas.
    machine = CountingMachine() if (args.costs or args.telemetry) else None
    kwargs = {}
    if machine is not None:
        kwargs["machine"] = machine
    with _telemetry(
        args.telemetry,
        profile_hz=args.profile,
        track_memory=args.track_memory,
        command="solve",
        instance=str(args.instance),
        algorithm=args.algorithm,
        seed=args.seed,
        n=H.num_vertices,
        m=H.num_edges,
        dim=H.dimension,
    ):
        res = fn(H, seed=args.seed, **kwargs)
    check_mis(H, res.independent_set)
    doc = {
        "algorithm": res.algorithm,
        "n": res.n,
        "m": res.m,
        "mis_size": res.size,
        "rounds": res.num_rounds,
        "independent_set": res.independent_set.tolist(),
    }
    if args.costs and machine is not None:
        doc["pram"] = machine.snapshot()
    if args.save_trace:
        from repro.analysis.traces import save_result

        save_result(res, args.save_trace)
        print(f"trace written to {args.save_trace}", file=sys.stderr)
    json.dump(doc, sys.stdout, indent=2 if args.pretty else None)
    print()
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.analysis.campaign import (
        AlgorithmSpec,
        Campaign,
        InstanceSpec,
        write_csv,
    )
    from repro.analysis.tables import render_table
    from repro.exec.workers import resolve_workers
    from repro.generators import uniform_hypergraph

    algo_names = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for a in algo_names:
        if a not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}; known: {sorted(ALGORITHMS)}")
    ns = [int(x) for x in args.sizes.split(",") if x.strip()]
    camp = Campaign(
        instances=[
            InstanceSpec(
                f"uniform-{args.d}-n{n}",
                uniform_hypergraph,
                {"n": n, "m": args.edge_factor * n, "d": args.d},
            )
            for n in ns
        ],
        algorithms=[AlgorithmSpec(a, ALGORITHMS[a]) for a in algo_names],
        repeats=args.repeats,
    )
    workers = resolve_workers(args.workers)
    with _telemetry(
        args.telemetry,
        profile_hz=args.profile,
        heartbeat=args.heartbeat,
        metrics_out=args.metrics_out,
        command="campaign",
        sizes=ns,
        algorithms=algo_names,
        repeats=args.repeats,
        seed=args.seed,
        workers=workers or 0,
    ):
        records = camp.run(seed=args.seed, parallel=workers)
    if args.csv:
        write_csv(records, args.csv)
        print(f"wrote {len(records)} runs to {args.csv}", file=sys.stderr)
    summary = camp.summarize(records)
    print(
        render_table(
            ["instance", "algorithm", "runs", "|I| (mean)", "rounds", "depth", "work"],
            [
                [c["instance"], c["algorithm"], c["runs"], c["mis_size"],
                 c["rounds"], c["depth"], c["work"]]
                for c in summary
            ],
            title="campaign summary",
        )
    )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.dynamic import DynamicMIS
    from repro.generators import churn_stream, sharded_hypergraph

    if args.instance:
        H = load(args.instance)
    else:
        H = sharded_hypergraph(
            args.blocks, args.block_n, args.block_m, args.d, seed=args.seed
        )
    batches = churn_stream(
        H,
        args.steps,
        seed=args.seed,
        batch_edges=args.batch,
        arrival_fraction=args.arrival,
        hot_fraction=args.hot,
        hot_window=args.hot_window,
        adversarial_fraction=args.adversarial,
    )
    strategies: Counter[str] = Counter()
    with _telemetry(
        args.telemetry,
        heartbeat=args.heartbeat,
        metrics_out=args.metrics_out,
        command="stream",
        n=H.num_vertices,
        m=H.num_edges,
        dim=H.dimension,
        steps=args.steps,
        strategy=args.strategy,
        seed=args.seed,
    ):
        engine = DynamicMIS(H, seed=args.seed, strategy=args.strategy)
        for batch in batches:
            out = engine.apply(batch.add_edges, batch.remove_edges)
            strategies[out.strategy] += 1
        certified = engine.certify()
    final = engine.hypergraph
    doc = {
        "steps": engine.steps,
        "strategy": args.strategy,
        "n": final.num_vertices,
        "m": final.num_edges,
        "mis_size": int(engine.independent_set.size),
        "repairs": strategies["repair"],
        "recomputes": strategies["recompute"],
        "noops": strategies["noop"],
        "certified": certified,
        "chain": engine.chain,
    }
    json.dump(doc, sys.stdout, indent=2 if args.pretty else None)
    print()
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    H = load(args.instance)
    members = [int(x) for x in args.set.split(",")] if args.set else []
    try:
        check_mis(H, members)
    except IndependenceViolation as exc:
        print(f"NOT independent: {exc}")
        return 1
    except MaximalityViolation as exc:
        print(f"independent but NOT maximal: {exc}")
        return 2
    print(f"valid maximal independent set of size {len(set(members))}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis import run_experiment
    from repro.analysis.ablations import run_ablation
    from repro.exec.workers import resolve_workers

    eid = args.experiment_id.upper()
    with _telemetry(
        args.telemetry,
        profile_hz=args.profile,
        heartbeat=args.heartbeat,
        metrics_out=args.metrics_out,
        command="experiment",
        experiment=eid,
        scale=args.scale,
        seed=args.seed,
    ):
        workers = resolve_workers(args.workers)
        if eid.startswith("A"):
            res = run_ablation(eid, scale=args.scale, seed=args.seed)
        else:
            res = run_experiment(eid, scale=args.scale, seed=args.seed, workers=workers)
    print(res.to_markdown())
    return 0


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    from repro.exec.workers import resolve_workers
    from repro.qa import parse_budget, run_fuzz

    budget = parse_budget(args.budget)
    workers = resolve_workers(args.workers)
    solvers = (
        [s.strip() for s in args.solvers.split(",") if s.strip()]
        if args.solvers
        else None
    )
    with _telemetry(
        args.telemetry,
        heartbeat=args.heartbeat,
        metrics_out=args.metrics_out,
        command="fuzz-run",
        budget=str(budget),
        seed=args.seed,
        workers=workers or 0,
    ):
        report = run_fuzz(
            budget,
            seed=args.seed,
            solvers=solvers,
            out_dir=args.out,
            max_failures=args.max_failures,
            shrink_failures=not args.no_shrink,
            start_index=args.start_index,
            workers=workers,
        )
    print(report.summary())
    for cr in report.failures:
        print(f"\nFAIL {cr.description}")
        for f in cr.failures:
            print(f"  {f}")
        if cr.reproducer is not None:
            print(
                f"  reproducer: {cr.reproducer} "
                f"(n={cr.shrunk_n}, m={cr.shrunk_m}) — replay with "
                f"'repro fuzz replay {cr.reproducer}'"
            )
    return 0 if report.ok else 1


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.qa import replay

    target = Path(args.path)
    paths = sorted(target.glob("*.npz")) if target.is_dir() else [target]
    if not paths:
        print(f"no reproducers under {target}", file=sys.stderr)
        return 1
    bad = 0
    for path in paths:
        failures = replay(path)
        if failures:
            bad += 1
            print(f"FAIL {path.name}")
            for f in failures:
                print(f"  {f}")
        else:
            print(f"ok   {path.name}")
    print(f"{len(paths) - bad}/{len(paths)} reproducers clean")
    return 1 if bad else 0


def _cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.qa import load_reproducer, make_predicate, save_reproducer, shrink

    path = Path(args.instance)
    if path.suffix == ".npz":
        H, manifest = load_reproducer(path)
        seed = int(manifest["seed"]) if args.seed is None else args.seed
        solvers = manifest.get("solvers")
    else:
        H = load(path)
        seed = 0 if args.seed is None else args.seed
        solvers = None
    if args.solvers:
        solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    fails = make_predicate(seed, solvers=solvers, metamorphic=True, oracle=True)
    if not fails(H):
        print(f"{path}: differential battery passes — nothing to shrink")
        return 1
    result = shrink(H, fails, max_evals=args.max_evals)
    print(result.summary())
    out = save_reproducer(
        result.hypergraph,
        {
            "kind": "shrunk-failure",
            "seed": seed,
            "solvers": solvers,
            "description": f"shrunk from {path.name} "
            f"(n={H.num_vertices}, m={H.num_edges})",
            "failures": [],
            "replay": {"metamorphic": True, "oracle": True, "focus_index": 0},
        },
        args.out,
    )
    print(f"reproducer written to {out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.exec.workers import resolve_workers
    from repro.service import ServerConfig, SolveServer

    workers = resolve_workers(args.workers)
    http = None
    if args.http:
        host, _, port = args.http.rpartition(":")
        http = (host or "127.0.0.1", int(port))
    config = ServerConfig(
        socket_path=args.socket,
        http=http,
        workers=workers,
        batch_window_ms=args.batch_window,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        cache_size=args.cache_size,
        default_deadline_ms=args.deadline or None,
        verify=not args.no_verify,
    )
    # The heartbeat polls the server's liveness gauges each beat; the
    # server only exists once the loop is running, hence the late binding.
    holder: dict[str, SolveServer] = {}

    def _gauges() -> dict:
        server = holder.get("server")
        return server.liveness_gauges() if server is not None else {}

    async def _main() -> None:
        server = SolveServer(config)
        holder["server"] = server
        await server.start()
        endpoints = str(args.socket)
        if http is not None:
            endpoints += f" and http://{http[0]}:{server.http_port}"
        print(f"serving on {endpoints} (workers={workers or 0})", file=sys.stderr)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, stop.set)
        try:
            await stop.wait()
        finally:
            await server.stop()

    with _telemetry(
        args.telemetry,
        heartbeat=args.heartbeat,
        metrics_out=args.metrics_out,
        extra_gauges=_gauges,
        command="serve",
        socket=str(args.socket),
        workers=workers or 0,
    ):
        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass
    print("server stopped", file=sys.stderr)
    return 0


def _cmd_client_solve(args: argparse.Namespace) -> int:
    from repro.service import ServiceError, SolveClient

    if not args.instance and not args.content_hash:
        print("need an instance path or --content-hash", file=sys.stderr)
        return 2
    H = load(args.instance) if args.instance else None
    try:
        with SolveClient(args.socket, timeout=args.timeout) as client:
            response = client.solve(
                H,
                algorithm=args.algorithm,
                seed=args.seed,
                content_hash=args.content_hash or None,
                deadline_ms=args.deadline or None,
                request_id=args.id or None,
            )
    except (ConnectionError, FileNotFoundError, OSError) as exc:
        print(f"cannot reach server at {args.socket}: {exc}", file=sys.stderr)
        return 1
    except ServiceError as exc:
        json.dump(exc.response, sys.stdout, indent=2 if args.pretty else None)
        print()
        return 1
    json.dump(response, sys.stdout, indent=2 if args.pretty else None)
    print()
    return 0


def _cmd_client_ping(args: argparse.Namespace) -> int:
    from repro.service import SolveClient

    try:
        with SolveClient(args.socket, timeout=args.timeout) as client:
            ok = client.ping()
    except (ConnectionError, FileNotFoundError, OSError) as exc:
        print(f"cannot reach server at {args.socket}: {exc}", file=sys.stderr)
        return 1
    print("pong" if ok else "no pong")
    return 0 if ok else 1


def _cmd_client_stats(args: argparse.Namespace) -> int:
    from repro.service import SolveClient

    try:
        with SolveClient(args.socket, timeout=args.timeout) as client:
            stats = client.stats()
    except (ConnectionError, FileNotFoundError, OSError) as exc:
        print(f"cannot reach server at {args.socket}: {exc}", file=sys.stderr)
        return 1
    json.dump(stats, sys.stdout, indent=2)
    print()
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    from repro.obs.inspector import render_summary

    print(render_summary(args.path, width=args.width))
    return 0


def _cmd_trace_compare(args: argparse.Namespace) -> int:
    from repro.obs.inspector import TraceError, render_compare

    try:
        print(render_compare(args.path_a, args.path_b))
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.obs.inspector import TraceError, render_diff

    try:
        print(render_diff(args.path_a, args.path_b, top=args.top))
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace_flame(args: argparse.Namespace) -> int:
    from repro.obs.profile import render_flame, write_speedscope

    try:
        if args.speedscope:
            n = write_speedscope(args.path, args.speedscope)
            print(f"wrote {n} samples to {args.speedscope}", file=sys.stderr)
        print(render_flame(args.path, limit=args.limit))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel maximal independent sets of hypergraphs (SPAA 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random instance")
    g.add_argument("family", choices=["uniform", "mixed", "graph", "linear", "bounded"])
    g.add_argument("--n", type=int, required=True, help="number of vertices")
    g.add_argument("--m", type=int, default=0, help="number of edges")
    g.add_argument("--d", type=int, default=3, help="edge size (uniform/linear)")
    g.add_argument("--dims", default="2,3,4", help="comma-separated sizes (mixed)")
    g.add_argument("--avg-degree", type=float, default=4.0, help="mean degree (graph)")
    g.add_argument("--beta-fraction", type=float, default=5.0, help="β multiplier (bounded)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")
    g.set_defaults(func=_cmd_generate)

    i = sub.add_parser("info", help="print instance statistics")
    i.add_argument("instance")
    i.set_defaults(func=_cmd_info)

    s = sub.add_parser("solve", help="compute a verified MIS")
    s.add_argument("instance")
    s.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="sbl")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--costs", action="store_true", help="account EREW-PRAM depth/work")
    s.add_argument("--pretty", action="store_true", help="indent the JSON output")
    s.add_argument("--save-trace", default="", help="write the full round trace to this path")
    s.add_argument(
        "--telemetry",
        default="",
        metavar="PATH",
        help="stream span/metric events to this JSONL file (see 'repro trace')",
    )
    s.add_argument(
        "--profile",
        type=float,
        default=0.0,
        metavar="HZ",
        help="sample the solver stack at HZ while it runs (needs --telemetry; "
        "render with 'repro trace flame')",
    )
    s.add_argument(
        "--track-memory",
        action="store_true",
        help="record per-span allocation peaks via tracemalloc (slower)",
    )
    s.set_defaults(func=_cmd_solve)

    k = sub.add_parser("campaign", help="sweep a uniform-hypergraph grid over algorithms")
    k.add_argument("--sizes", default="100,200", help="comma-separated vertex counts")
    k.add_argument("--d", type=int, default=3, help="edge size")
    k.add_argument("--edge-factor", type=int, default=2, help="m = factor·n")
    k.add_argument("--algorithms", default="bl,kuw,greedy", help="comma-separated names")
    k.add_argument("--repeats", type=int, default=3)
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--csv", default="", help="also write per-run records to this CSV path")
    k.add_argument(
        "--workers",
        default="0",
        help="run the grid on N worker processes (0 = in-process, 'auto' = "
        "cpu count floored by the measured dispatch overhead in "
        "BENCH_m02.json); records are identical for every worker count",
    )
    k.add_argument(
        "--telemetry",
        default="",
        metavar="PATH",
        help="stream span/metric events to this JSONL file (see 'repro trace')",
    )
    k.add_argument(
        "--profile",
        type=float,
        default=0.0,
        metavar="HZ",
        help="sample the parent-process stack at HZ (needs --telemetry)",
    )
    k.add_argument(
        "--heartbeat",
        type=float,
        default=0.0,
        metavar="SEC",
        help="flush progress/ETA/utilization gauges every SEC seconds",
    )
    k.add_argument(
        "--metrics-out",
        default="",
        metavar="PATH",
        help="write an OpenMetrics textfile (each heartbeat, or once at exit)",
    )
    k.set_defaults(func=_cmd_campaign)

    st = sub.add_parser(
        "stream", help="maintain an MIS under a churn stream of edge updates"
    )
    st.add_argument(
        "instance",
        nargs="?",
        default="",
        help="starting instance (omit to generate a sharded one)",
    )
    st.add_argument("--blocks", type=int, default=40, help="generated: component count")
    st.add_argument("--block-n", type=int, default=16, help="generated: vertices/block")
    st.add_argument("--block-m", type=int, default=30, help="generated: edges/block")
    st.add_argument("--d", type=int, default=3, help="generated: edge size")
    st.add_argument("--steps", type=int, default=20, help="number of update batches")
    st.add_argument("--batch", type=int, default=4, help="events per batch")
    st.add_argument(
        "--arrival", type=float, default=0.5, help="arrival fraction (rest departs)"
    )
    st.add_argument(
        "--hot", type=float, default=0.0, help="fraction of events hot-region biased"
    )
    st.add_argument(
        "--hot-window",
        type=float,
        default=0.125,
        help="hot region width as a fraction of the universe",
    )
    st.add_argument(
        "--adversarial",
        type=float,
        default=0.0,
        help="fraction of arrivals that are dup/superset injections",
    )
    st.add_argument(
        "--strategy",
        choices=["auto", "repair", "recompute"],
        default="auto",
        help="force a maintenance strategy (default: cost-model dispatch)",
    )
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--pretty", action="store_true", help="indent the JSON output")
    st.add_argument(
        "--telemetry",
        default="",
        metavar="PATH",
        help="stream span/metric events to this JSONL file (see 'repro trace')",
    )
    st.add_argument(
        "--heartbeat",
        type=float,
        default=0.0,
        metavar="SEC",
        help="flush progress gauges every SEC seconds",
    )
    st.add_argument(
        "--metrics-out",
        default="",
        metavar="PATH",
        help="write an OpenMetrics textfile (each heartbeat, or once at exit)",
    )
    st.set_defaults(func=_cmd_stream)

    c = sub.add_parser("check", help="validate a claimed MIS")
    c.add_argument("instance")
    c.add_argument("--set", default="", help="comma-separated vertex ids")
    c.set_defaults(func=_cmd_check)

    e = sub.add_parser("experiment", help="run an experiment (E1–E18) or ablation (A1–A7)")
    e.add_argument("experiment_id")
    e.add_argument("--scale", choices=["quick", "full"], default="quick")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument(
        "--telemetry",
        default="",
        metavar="PATH",
        help="stream span/metric events to this JSONL file (see 'repro trace')",
    )
    e.add_argument(
        "--profile",
        type=float,
        default=0.0,
        metavar="HZ",
        help="sample the experiment stack at HZ (needs --telemetry)",
    )
    e.add_argument(
        "--heartbeat",
        type=float,
        default=0.0,
        metavar="SEC",
        help="flush progress/ETA/utilization gauges every SEC seconds",
    )
    e.add_argument(
        "--metrics-out",
        default="",
        metavar="PATH",
        help="write an OpenMetrics textfile (each heartbeat, or once at exit)",
    )
    e.add_argument(
        "--workers",
        default="0",
        help="fan repeated trials out over N worker processes (0 = "
        "in-process, 'auto' = cpu count floored by the measured dispatch "
        "overhead in BENCH_m02.json); experiments E1/E3/E8/E17 parallelise",
    )
    e.set_defaults(func=_cmd_experiment)

    f = sub.add_parser("fuzz", help="differential fuzzing, replay and shrinking")
    fsub = f.add_subparsers(dest="fuzz_command", required=True)
    fr = fsub.add_parser("run", help="run a differential fuzz campaign")
    fr.add_argument(
        "--budget",
        default="200",
        help="case count ('200') or wall-clock duration ('60s', '2m')",
    )
    fr.add_argument("--seed", type=int, default=0, help="campaign seed")
    fr.add_argument(
        "--solvers", default="", help="comma-separated solver subset (default: all)"
    )
    fr.add_argument(
        "-o",
        "--out",
        default="tests/regressions",
        help="directory for shrunk reproducers",
    )
    fr.add_argument(
        "--max-failures", type=int, default=1, help="stop after this many failing cases"
    )
    fr.add_argument(
        "--no-shrink", action="store_true", help="save failing instances unshrunk"
    )
    fr.add_argument(
        "--start-index", type=int, default=0, help="first case index of the stream"
    )
    fr.add_argument(
        "--workers",
        default="0",
        help="fan case batteries out over N worker processes on the shared "
        "campaign executor (0 = in-process, 'auto' = cpu count floored by "
        "the measured dispatch overhead in BENCH_m02.json)",
    )
    fr.add_argument(
        "--telemetry",
        default="",
        metavar="PATH",
        help="stream span/metric events to this JSONL file (see 'repro trace')",
    )
    fr.add_argument(
        "--heartbeat",
        type=float,
        default=0.0,
        metavar="SEC",
        help="flush progress/ETA/utilization gauges every SEC seconds",
    )
    fr.add_argument(
        "--metrics-out",
        default="",
        metavar="PATH",
        help="write an OpenMetrics textfile (each heartbeat, or once at exit)",
    )
    fr.set_defaults(func=_cmd_fuzz_run)
    fp = fsub.add_parser("replay", help="replay reproducer file(s)")
    fp.add_argument("path", help="a .npz reproducer or a directory of them")
    fp.set_defaults(func=_cmd_fuzz_replay)
    fs = fsub.add_parser("shrink", help="delta-debug a failing instance")
    fs.add_argument("instance", help="instance file (text/JSON) or .npz reproducer")
    fs.add_argument(
        "--seed", type=int, default=None, help="solver seed (default: manifest's, or 0)"
    )
    fs.add_argument("--solvers", default="", help="comma-separated solver subset")
    fs.add_argument("--max-evals", type=int, default=2000, help="predicate eval budget")
    fs.add_argument("-o", "--out", default="tests/regressions", help="output directory")
    fs.set_defaults(func=_cmd_fuzz_shrink)

    v = sub.add_parser("serve", help="run the MIS solve service (unix socket + optional HTTP)")
    v.add_argument("--socket", default="repro.sock", help="unix socket path to bind")
    v.add_argument(
        "--http",
        default="",
        metavar="HOST:PORT",
        help="also serve HTTP/1.1 (POST /solve, GET /metrics, GET /healthz); "
        "port 0 picks a free port",
    )
    v.add_argument(
        "--workers",
        default="0",
        help="solve batches on N worker processes (0 = in-process, 'auto' = "
        "cpu count floored by the measured dispatch overhead in BENCH_m02.json)",
    )
    v.add_argument(
        "--batch-window",
        type=float,
        default=2.0,
        metavar="MS",
        help="micro-batch gathering window in milliseconds",
    )
    v.add_argument("--max-batch", type=int, default=32, help="max cells per batch")
    v.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="admission bound on pending requests (excess is rejected)",
    )
    v.add_argument("--cache-size", type=int, default=1024, help="LRU result-cache capacity")
    v.add_argument(
        "--deadline",
        type=float,
        default=0.0,
        metavar="MS",
        help="default per-request deadline (0 = none); requests still queued "
        "past it are expired instead of solved",
    )
    v.add_argument(
        "--no-verify", action="store_true", help="skip server-side MIS verification"
    )
    v.add_argument(
        "--telemetry",
        default="",
        metavar="PATH",
        help="stream span/metric events to this JSONL file (see 'repro trace')",
    )
    v.add_argument(
        "--heartbeat",
        type=float,
        default=0.0,
        metavar="SEC",
        help="flush service gauges (queue depth, batch occupancy, cache hit "
        "rate, latency p50/p99) every SEC seconds",
    )
    v.add_argument(
        "--metrics-out",
        default="",
        metavar="PATH",
        help="write an OpenMetrics textfile (each heartbeat, or once at exit)",
    )
    v.set_defaults(func=_cmd_serve)

    cl = sub.add_parser("client", help="talk to a running solve service")
    clsub = cl.add_subparsers(dest="client_command", required=True)
    cs = clsub.add_parser("solve", help="submit one solve request")
    cs.add_argument("instance", nargs="?", default="", help="instance file (optional "
                    "when the server already holds it — use --content-hash)")
    cs.add_argument("--socket", default="repro.sock", help="server unix socket path")
    cs.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="sbl")
    cs.add_argument("--seed", type=int, default=0)
    cs.add_argument(
        "--content-hash",
        default="",
        help="refer to an instance the server already holds instead of sending it",
    )
    cs.add_argument("--deadline", type=float, default=0.0, metavar="MS",
                    help="per-request deadline in milliseconds")
    cs.add_argument("--id", default="", help="request id echoed in the response")
    cs.add_argument("--timeout", type=float, default=30.0, help="socket timeout (s)")
    cs.add_argument("--pretty", action="store_true", help="indent the JSON output")
    cs.set_defaults(func=_cmd_client_solve)
    cp = clsub.add_parser("ping", help="liveness round-trip")
    cp.add_argument("--socket", default="repro.sock")
    cp.add_argument("--timeout", type=float, default=5.0)
    cp.set_defaults(func=_cmd_client_ping)
    ct = clsub.add_parser("stats", help="print the server's stats snapshot")
    ct.add_argument("--socket", default="repro.sock")
    ct.add_argument("--timeout", type=float, default=5.0)
    ct.set_defaults(func=_cmd_client_stats)

    t = sub.add_parser("trace", help="inspect telemetry JSONL streams")
    tsub = t.add_subparsers(dest="trace_command", required=True)
    ts = tsub.add_parser("summary", help="span tree, per-phase rollups, metrics")
    ts.add_argument("path")
    ts.add_argument("--width", type=int, default=60, help="sparkline width")
    ts.set_defaults(func=_cmd_trace_summary)
    tc = tsub.add_parser("compare", help="side-by-side wall-time deltas of two runs")
    tc.add_argument("path_a")
    tc.add_argument("path_b")
    tc.set_defaults(func=_cmd_trace_compare)
    td = tsub.add_parser(
        "diff", help="structural span-tree diff ranked by wall-time regression"
    )
    td.add_argument("path_a", help="baseline trace")
    td.add_argument("path_b", help="candidate trace")
    td.add_argument(
        "--top", type=int, default=0, help="show only the N largest deltas (0 = all)"
    )
    td.set_defaults(func=_cmd_trace_diff)
    tf = tsub.add_parser("flame", help="render profile samples as folded stacks")
    tf.add_argument("path", help="telemetry JSONL with profile events (--profile)")
    tf.add_argument("--limit", type=int, default=40, help="rows per section")
    tf.add_argument(
        "--speedscope",
        default="",
        metavar="OUT",
        help="also write speedscope-compatible JSON to OUT",
    )
    tf.set_defaults(func=_cmd_trace_flame)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser: parsing keeps no state in it, so one serves
    every :func:`main` call (building it costs ~4 ms)."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
