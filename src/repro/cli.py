"""Command-line interface.

    python -m repro quickstart [--n 4000 --k 8 --seed 0]
    python -m repro solve --list
    python -m repro solve planted:n=4000 --problem matching --solver coreset \
        --k 8 --executor processes
    python -m repro solve graph.npz --solver vertex_cover.coreset --k 8 --json -
    python -m repro solve workload:gmission --solver matching.maximum
    python -m repro workloads --list
    python -m repro workloads --info ba_adwords --json
    python -m repro workloads --fetch gmission
    python -m repro experiment e1 [--trials 3]
    python -m repro experiment e1 --set n_values=2000,4000 --json out.json
    python -m repro experiment e21 --executor processes --workers 8
    python -m repro experiment e1 --archive            # JSON run artifact
    python -m repro list-experiments
    python -m repro sweep e1 e8 --set n_trials=1 --set e1.k_values=4,8 \
        --seeds 0,1 --dir benchmarks/sweeps/demo --executor processes
    python -m repro bench [--quick --check --out BENCH_substrate.json]
    python -m repro report [--results benchmarks/results -o report.md]
    python -m repro report --diff OLD.json NEW.json
    python -m repro report --trend benchmarks/sweeps/demo --check
    python -m repro serve --port 8080 --graph demo=planted:n=4000
    python -m repro worker --connect HOST:PORT [--tag NAME]

The CLI is a thin shell over the declarative experiment registry
(:mod:`repro.experiments.registry`) so that every table a benchmark can
produce is also reachable without pytest — with any grid parameter
overridable from the command line (``--set KEY=VALUE``, repeatable; values
are coerced to the type of the parameter's default, comma-separating
tuples) and machine-readable output (``--json PATH`` writes a JSON
document, ``--json -`` prints it to stdout instead of the text table).

``--executor`` / ``--workers`` select the execution backend (`serial`,
`processes`, `remote`); they work by setting ``REPRO_EXECUTOR`` /
``REPRO_WORKERS`` for the run, which is where the trial harness
(``run_trials``) and the distributed engines (``run_simultaneous``,
``MapReduceSimulator``) resolve their defaults, so every experiment picks
them up without per-table plumbing.  Outputs are bit-identical across
backends for the same seed (docs/PARALLELISM.md); the registry's picklable
trials are what let ``processes`` fan out whole trials, not just machines.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

__all__ = ["add_bench_arguments", "build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Randomized composable coresets for matching and "
                    "vertex cover (Assadi–Khanna SPAA'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quickstart", help="run the Theorem 1 demo pipeline")
    q.add_argument("--n", type=int, default=4000, help="vertices per side ×2")
    q.add_argument("--k", type=int, default=8, help="number of machines")
    q.add_argument("--seed", type=int, default=0)
    _add_executor_flags(q)

    s = sub.add_parser(
        "solve",
        help="run one registered solver on a graph (repro.solve facade)",
        description="Run one capability-tagged solver from the "
                    "repro.solve registry on a graph file (.npz or "
                    "edge-list text) or a generator spec like "
                    "planted:n=2000 (see docs/SOLVER_API.md).",
    )
    s.add_argument("graph", nargs="?", default=None, metavar="GRAPH",
                   help="graph file (.npz / edge-list text), generator "
                        "spec name[:k=v,...] — planted, gnp, bipartite, "
                        "skewed, weighted — or a registry workload "
                        "workload:NAME[:k=v,...] (see repro workloads "
                        "--list)")
    s.add_argument("--list", action="store_true", dest="list_solvers",
                   help="list registered solvers with their capability "
                        "metadata and exit")
    s.add_argument("--problem", choices=["matching", "vertex_cover"],
                   default=None,
                   help="problem to solve (disambiguates short --solver "
                        "names; filters --list)")
    s.add_argument("--solver", default=None,
                   help="registered solver name, full (matching.coreset) "
                        "or short within --problem (coreset)")
    s.add_argument("--k", type=int, default=None,
                   help="machine count for coreset/mapreduce solvers")
    s.add_argument("--seed", type=int, default=0,
                   help="root seed: graph generation and the solver run "
                        "derive independent streams from it")
    s.add_argument("--param", action="append", default=[], dest="params",
                   metavar="KEY=VALUE",
                   help="solver parameter override (repeatable), e.g. "
                        "--param alpha=8")
    s.add_argument("--certificate", action="store_true",
                   help="include the full certificate in --json output")
    s.add_argument("--json", default=None, dest="json_path", metavar="PATH",
                   help="write the SolveResult as JSON to PATH ('-' prints "
                        "JSON to stdout)")
    _add_executor_flags(s)

    wl = sub.add_parser(
        "workloads",
        help="list, inspect, or prefetch registered workload families "
             "(repro.workloads)",
        description="The workload registry: synthetic families "
                    "(preferential attachment, capacitated AdWords, "
                    "power-law, clustered) and dataset-backed loaders "
                    "(gmission, movielens) with bundled offline fixtures. "
                    "Any workload is usable as a repro solve graph via "
                    "workload:NAME[:k=v,...].  See docs/WORKLOADS.md.",
    )
    wl.add_argument("--list", action="store_true", dest="list_workloads",
                    help="table of registered workloads with kind, flags, "
                         "and parameter defaults")
    wl.add_argument("--info", default=None, metavar="NAME",
                    help="full metadata for one workload")
    wl.add_argument("--fetch", default=None, metavar="NAME",
                    help="materialize one workload at default parameters "
                         "into the cache (~/.cache/repro or "
                         "$REPRO_CACHE_DIR) as a .npz artifact")
    wl.add_argument("--seed", type=int, default=0,
                    help="build seed for --fetch (default 0)")
    wl.add_argument("--force", action="store_true",
                    help="with --fetch: rebuild even if the artifact "
                         "exists")
    wl.add_argument("--json", action="store_true", dest="as_json",
                    help="emit --list/--info output as JSON")

    e = sub.add_parser("experiment", help="run one experiment table")
    e.add_argument("id", help="experiment id, e.g. e1, e7, e21")
    e.add_argument("--trials", type=int, default=None,
                   help="override the number of trials")
    e.add_argument("--seed", type=int, default=None,
                   help="override the experiment seed")
    e.add_argument("--set", action="append", default=[], dest="overrides",
                   metavar="KEY=VALUE",
                   help="override a grid parameter (repeatable); values are "
                        "coerced to the default's type, tuples are "
                        "comma-separated, e.g. --set n_values=2000,4000")
    e.add_argument("--json", default=None, dest="json_path", metavar="PATH",
                   help="write the table as JSON to PATH ('-' prints JSON "
                        "to stdout instead of the text table)")
    e.add_argument("--archive", nargs="?", const="benchmarks/results",
                   default=None, metavar="DIR",
                   help="persist the run as a schema-versioned JSON "
                        "artifact under DIR (default benchmarks/results) "
                        "for repro report --diff")
    _add_executor_flags(e)

    sub.add_parser("list-experiments", help="list available experiment ids")

    sw = sub.add_parser(
        "sweep",
        help="cross-product --set axes into a resumable grid of archived "
             "experiment runs (repro.sweep)",
        description="Plan and execute an experiment grid: every "
                    "comma-separated value of a --set axis becomes its own "
                    "cell, cells are archived as content-addressed run "
                    "artifacts under DIR/cells plus a manifest at "
                    "DIR/manifest.json, and a re-invocation skips every "
                    "cell whose artifact already exists.  A failing cell "
                    "is recorded and the sweep continues (exit 1 at the "
                    "end).  See docs/SWEEPS.md.",
    )
    sw.add_argument("ids", nargs="+", metavar="EXPERIMENT",
                    help="experiment id(s) to sweep, e.g. e1 e8")
    sw.add_argument("--set", action="append", default=[], dest="overrides",
                    metavar="[EXP.]KEY=V1,V2,...",
                    help="one grid axis (repeatable): each comma-separated "
                         "value is its own cell; EXP. scopes the axis to "
                         "one experiment of a multi-experiment sweep; ';' "
                         "builds tuple values (n_values=600;1200)")
    sw.add_argument("--seeds", default=None, metavar="S1,S2,...",
                    help="comma-separated root seeds — one more axis "
                         "(default: each spec's registered seed)")
    sw.add_argument("--dir", default="benchmarks/sweeps", dest="directory",
                    help="sweep directory: cell artifacts under DIR/cells, "
                         "manifest at DIR/manifest.json "
                         "(default %(default)s)")
    sw.add_argument("--force", action="store_true",
                    help="re-execute cells whose artifact already exists")
    sw.add_argument("--retry-failed", type=int, default=0, metavar="N",
                    dest="retry_failed",
                    help="re-run a failing cell up to N extra times (e.g. "
                         "a transiently broken worker pool) before "
                         "recording status=failed; the manifest records "
                         "each cell's attempt count (default 0)")
    sw.add_argument("--dry-run", action="store_true",
                    help="print the planned cells and exit without "
                         "executing")
    _add_executor_flags(sw)

    b = sub.add_parser(
        "bench",
        help="time the executor substrate and write BENCH_substrate.json",
    )
    add_bench_arguments(b)

    r = sub.add_parser("report", help="stitch archived benchmark tables "
                                      "into one markdown report, diff two "
                                      "archived run artifacts, or render "
                                      "cross-commit trends")
    r.add_argument("--results", default="benchmarks/results",
                   help="directory of archived tables")
    r.add_argument("-o", "--output", default=None,
                   help="write the report here (default: stdout)")
    r.add_argument("--diff", nargs=2, default=None,
                   metavar=("OLD", "NEW"),
                   help="diff two JSON run artifacts (written by "
                        "`repro experiment ... --archive`) instead of "
                        "rendering the report")
    r.add_argument("--trend", default=None, metavar="DIR",
                   help="build per-(experiment, metric, commit) series "
                        "from every run artifact and BENCH_*.json under "
                        "DIR (recursive) and render the trajectory "
                        "instead of the report (docs/SWEEPS.md)")
    r.add_argument("--check", action="store_true",
                   help="with --trend: exit 1 when the newest commit "
                        "regresses any perf or quality metric beyond "
                        "tolerance")
    r.add_argument("--perf-tol", type=float, default=None, metavar="FRAC",
                   help="perf tolerance: flag wall-clock metrics more than "
                        "this fraction slower than the previous commit "
                        "(default 0.20)")
    r.add_argument("--quality-tol", type=float, default=None, metavar="FRAC",
                   help="quality tolerance: flag approximation ratios more "
                        "than this fraction worse than the previous commit "
                        "(default 0.05)")

    v = sub.add_parser(
        "serve",
        help="run the matching-as-a-service HTTP server (repro.serve)",
        description="Serve the solver registry over HTTP: graphs load "
                    "once and stay pinned, one executor serves every "
                    "request (a pooled backend stays warm), concurrent "
                    "POST /solve requests "
                    "micro-batch into single barriers, and solvers "
                    "resolve by capability (problem/model/guarantee). "
                    "See docs/SERVING.md.",
    )
    v.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    v.add_argument("--port", type=int, default=8080,
                   help="bind port (default 8080; 0 picks a free port)")
    v.add_argument("--graph", action="append", default=[], dest="graphs",
                   metavar="ID=SPEC",
                   help="preload a graph under ID from a file or generator "
                        "spec (repeatable), e.g. --graph "
                        "demo=planted:n=4000; more can be added at "
                        "runtime via POST /graphs")
    v.add_argument("--seed", type=int, default=0,
                   help="generation seed for preloaded generator specs")
    v.add_argument("--max-batch", type=int, default=32,
                   help="most requests one executor barrier takes; the "
                        "rest wait for the next (default 32)")
    v.add_argument("--max-inflight", type=int, default=64,
                   help="global in-flight request cap; excess requests "
                        "get 429 overloaded + Retry-After (default 64)")
    v.add_argument("--max-inflight-per-graph", type=int, default=0,
                   help="per-graph in-flight cap (0 disables, the "
                        "default)")
    v.add_argument("--max-queue", type=int, default=256,
                   help="bound on queued (not yet dispatched) batch "
                        "entries; excess requests get 429 (default 256)")
    v.add_argument("--default-deadline-ms", type=float, default=None,
                   help="deadline budget for requests that don't send "
                        "deadline_ms (default: none — such requests run "
                        "unbounded)")
    v.add_argument("--max-deadline-ms", type=float, default=0.0,
                   help="cap on client-supplied deadline_ms (0 = uncapped, "
                        "the default)")
    v.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive worker-pool breaks that open the "
                        "circuit breaker (default 3; below it each break "
                        "re-warms immediately)")
    v.add_argument("--breaker-backoff-ms", type=float, default=500.0,
                   help="initial breaker backoff before a half-open "
                        "probe; doubles per reopen up to 30000 ms "
                        "(default 500)")
    v.add_argument("--step-down-after", type=int, default=2,
                   help="consecutive breaker openings before the backend "
                        "steps down remote→processes→serial (0 disables; "
                        "default 2)")
    _add_executor_flags(v)

    w = sub.add_parser(
        "worker",
        help="join a remote-executor coordinator as a worker process",
        description="Connect to a RemoteExecutor coordinator (a run "
                    "started with --executor remote) and execute tasks "
                    "until it shuts down.  Run one per core, on this "
                    "host or any host that can reach the coordinator's "
                    "bind address ($REPRO_REMOTE_BIND).",
    )
    w.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="the coordinator's address")
    w.add_argument("--tag", default=None,
                   help="optional label reported in the hello frame "
                        "(useful to tell hosts apart in diagnostics)")

    return parser


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the bench flags on ``parser``.

    The one declaration: the ``repro bench`` subcommand and the standalone
    :func:`repro.experiments.bench.main` both call it, so the two entry
    points cannot drift.  It lives here, not in the bench module, so that
    building the parser does not import the ``repro.experiments`` package.
    """
    parser.add_argument("--quick", action="store_true",
                        help="small scenario sizes (the CI smoke mode)")
    parser.add_argument("--out", default="BENCH_substrate.json",
                        metavar="PATH",
                        help="artifact path (default: %(default)s; "
                             "'-' skips writing)")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool worker count (default: min(cpus, 8))")
    parser.add_argument("--repeats", type=int, default=None,
                        help="override rounds per variant")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless persistent >= cold throughput "
                             "and all outputs are bit-identical")


def _add_executor_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--executor", choices=["serial", "processes", "remote"],
        default=None,
        help="execution backend for trial fan-out and the distributed "
             "engines (default: $REPRO_EXECUTOR or serial); outputs are "
             "bit-identical across backends for the same seed",
    )
    sub.add_argument(
        "--workers", type=int, default=None,
        help="worker count for processes/remote "
             "(default: $REPRO_WORKERS or the cpu count)",
    )


def _apply_executor_flags(args: argparse.Namespace) -> None:
    """Export the flags as the env defaults the engines resolve."""
    from repro.dist.executor import EXECUTOR_ENV, WORKERS_ENV, validate_workers

    if args.executor is not None:
        os.environ[EXECUTOR_ENV] = args.executor
    if args.workers is not None:
        try:
            validate_workers(args.workers)
        except ValueError as exc:
            raise SystemExit(f"--workers: {exc}")
        os.environ[WORKERS_ENV] = str(args.workers)


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from repro import quickstart_matching

    _apply_executor_flags(args)
    out = quickstart_matching(n=args.n, k=args.k, seed=args.seed,
                              executor=args.executor)
    for key, value in out.items():
        print(f"{key:>17}: {value}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.solve import (
        RunContext,
        SolverCapabilityError,
        UnknownSolverError,
        get_solver,
        load_graph,
        solve,
        solvers_for,
    )
    from repro.solve.graphs import parse_scalar
    from repro.utils.rng import spawn_seeds

    if args.list_solvers:
        specs = solvers_for(problem=args.problem)
        for spec in specs:
            flags = []
            if spec.bipartite_only:
                flags.append("bipartite-only")
            if spec.weighted:
                flags.append("weighted")
            if spec.capacitated:
                flags.append("capacitated")
            if spec.uses_k:
                flags.append("uses-k")
            if spec.baseline:
                flags.append("baseline")
            flag_text = f" [{', '.join(flags)}]" if flags else ""
            print(f"{spec.name:32s} {spec.problem:12s} {spec.model:10s} "
                  f"{spec.guarantee}{flag_text}")
            print(f"{'':32s} {spec.description}")
        print(f"{len(specs)} solvers registered")
        return 0

    if args.graph is None or args.solver is None:
        print("solve: GRAPH and --solver are required (or use --list)",
              file=sys.stderr)
        return 2

    name = args.solver
    if "." not in name and args.problem is not None:
        name = f"{args.problem}.{name}"
    try:
        spec = get_solver(name)
    except UnknownSolverError as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return 2
    if args.problem is not None and spec.problem != args.problem:
        print(f"solve: solver {spec.name!r} solves {spec.problem}, "
              f"not {args.problem}", file=sys.stderr)
        return 2

    params = {}
    for item in args.params:
        key, sep, text = item.partition("=")
        key = key.strip()
        if not sep or not key:
            print(f"--param expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        params[key] = parse_scalar(text.strip())

    _apply_executor_flags(args)
    # One clean exit path for every bad input — a negative seed, an
    # out-of-range --k, a bad graph spec, or a capability violation all
    # print one line and exit 2, never a traceback.
    try:
        graph_seed, solve_seed = spawn_seeds(args.seed, 2)
        graph = load_graph(args.graph, rng=graph_seed)
        ctx = RunContext(seed=solve_seed, k=args.k, executor=args.executor,
                         workers=args.workers)
        result = solve(graph, spec.name, ctx, **params)
    except (SolverCapabilityError, ValueError) as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return 2

    doc = result.to_dict(include_certificate=args.certificate)
    doc["graph"] = {
        "source": args.graph,
        "n_vertices": graph.n_vertices,
        "n_edges": graph.n_edges,
        "kind": type(graph).__name__,
    }
    doc["solver_meta"] = spec.capabilities()
    doc["seed"] = args.seed

    if args.json_path == "-":
        import json

        print(json.dumps(doc, indent=2))
        return 0
    if args.json_path is not None:
        import json

        Path(args.json_path).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"  solver: {spec.name} ({spec.model}, {spec.guarantee})")
    print(f"   graph: {args.graph} — n={graph.n_vertices} "
          f"m={graph.n_edges} ({type(graph).__name__})")
    print(f"   value: {result.value:g}")
    print(f"    size: {result.size}")
    print(f"verified: {result.verified}")
    print(f"    wall: {result.wall_time_s:.4f}s")
    for key in sorted(result.stats):
        print(f"   stats: {key} = {result.stats[key]}")
    if args.json_path is not None:
        print(f"[wrote JSON: {args.json_path}]")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    import json

    from repro.workloads import (
        UnknownWorkloadError,
        all_workloads,
        fetch_workload,
        get_workload,
    )

    if args.info is not None:
        try:
            spec = get_workload(args.info)
        except UnknownWorkloadError as exc:
            print(f"workloads: {exc}", file=sys.stderr)
            return 2
        info = spec.info()
        if args.as_json:
            print(json.dumps(info, indent=2))
            return 0
        for key in ("name", "kind", "weighted", "capacitated", "source"):
            print(f"{key:>12}: {info[key]}")
        print(f"{'params':>12}: " + (", ".join(
            f"{k}={v!r}" for k, v in info["params"].items()) or "(none)"))
        print(f"{'description':>12}: {info['description']}")
        print(f"{'spec':>12}: workload:{spec.name}" + (
            ":" + ",".join(f"{k}={v}" for k, v in info["params"].items()
                           if v is not None)
            if any(v is not None for v in info["params"].values()) else ""))
        return 0

    if args.fetch is not None:
        try:
            path = fetch_workload(args.fetch, seed=args.seed,
                                  force=args.force)
        except UnknownWorkloadError as exc:
            print(f"workloads: {exc}", file=sys.stderr)
            return 2
        print(f"[cached: {path}]")
        return 0

    # --list is the default action
    specs = all_workloads()
    if args.as_json:
        print(json.dumps([s.info() for s in specs], indent=2))
        return 0
    print(f"{'name':<12} {'kind':<10} {'flags':<20} params")
    print(f"{'-' * 12} {'-' * 10} {'-' * 20} {'-' * 30}")
    for spec in specs:
        flags = [f for f, on in (("weighted", spec.weighted),
                                 ("capacitated", spec.capacitated)) if on]
        params = ", ".join(f"{k}={v}" for k, v in spec.params.items())
        print(f"{spec.name:<12} {spec.kind:<10} "
              f"{','.join(flags) or '-':<20} {params or '-'}")
        print(f"{'':<12} {spec.description}")
    print(f"{len(specs)} workloads registered "
          f"(use as: repro solve workload:NAME[:k=v,...])")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.registry import (
        UnknownExperimentError,
        UnknownParameterError,
        get_experiment,
    )

    _apply_executor_flags(args)
    try:
        spec = get_experiment(args.id)
    except UnknownExperimentError as exc:
        print(exc, file=sys.stderr)
        return 2

    overrides = {}
    for item in args.overrides:
        key, sep, text = item.partition("=")
        key = key.strip()
        if not sep or not key:
            print(f"--set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        try:
            overrides[key] = spec.coerce(key, text)
        except (UnknownParameterError, ValueError) as exc:
            print(f"--set {item!r}: {exc}", file=sys.stderr)
            return 2
    if args.trials is not None:
        overrides["n_trials"] = args.trials

    try:
        table = spec.run(seed=args.seed, archive_dir=args.archive,
                         **overrides)
    except ValueError as exc:
        # Covers UnknownParameterError plus values that pass coercion but
        # fail at run time (e.g. an unknown E15 variant, n_trials=0) —
        # bad input exits 2 with one line, never a traceback.
        print(f"experiment {spec.id}: {exc}", file=sys.stderr)
        return 2

    archived = getattr(table, "artifact_path", None)
    if args.json_path == "-":
        print(table.to_json())
        if archived:
            print(f"[archived run: {archived}]", file=sys.stderr)
        return 0
    if args.json_path is not None:
        Path(args.json_path).write_text(table.to_json() + "\n")
        print(table.format())
        print(f"[wrote JSON: {args.json_path}]")
    else:
        print(table.format())
    if archived:
        print(f"[archived run: {archived}]")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import GridError, plan_grid, run_sweep

    _apply_executor_flags(args)
    seeds = None
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            print(f"--seeds expects comma-separated integers, got "
                  f"{args.seeds!r}", file=sys.stderr)
            return 2
        if not seeds:
            print(f"--seeds lists no seeds: {args.seeds!r}", file=sys.stderr)
            return 2
    try:
        cells = plan_grid(args.ids, args.overrides, seeds)
    except GridError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2

    if args.dry_run:
        for cell in cells:
            print(f"  plan  {cell.describe()}")
        print(f"{len(cells)} cells planned (dry run, nothing executed)")
        return 0

    if args.retry_failed < 0:
        print(f"--retry-failed must be >= 0, got {args.retry_failed}",
              file=sys.stderr)
        return 2
    result = run_sweep(
        cells, args.directory,
        executor=args.executor,
        force=args.force,
        retry_failed=args.retry_failed,
        grid_args={
            "experiments": [e.strip().lower() for e in args.ids],
            "set": list(args.overrides),
            "seeds": seeds,
        },
    )
    by_id = {r["cell_id"]: r for r in result.executed + result.skipped}
    for cell in cells:
        record = by_id.get(cell.cell_id)
        if record is None:  # a duplicate cell collapsed into its twin
            continue
        status = record["status"]
        line = (f"  {status:<7s} {record['wall_time_s']:8.2f}s  "
                f"{cell.describe()}")
        if status == "failed":
            line += f"\n          {record['error']}"
        print(line)
    print(result.summary())
    print(f"[manifest: {result.manifest_path}]")
    return result.exit_code


def _cmd_list(args: argparse.Namespace) -> int:
    del args
    from repro.experiments.registry import all_experiments

    for spec in all_experiments():
        print(f"{spec.id:>4}  {spec.title} — {spec.description}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import run_from_args

    try:
        return run_from_args(args)
    except ValueError as exc:  # e.g. --workers 0
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, serve_main

    preload = []
    for item in args.graphs:
        graph_id, sep, source = item.partition("=")
        graph_id = graph_id.strip()
        if not sep or not graph_id or not source.strip():
            print(f"--graph expects ID=SPEC, got {item!r}", file=sys.stderr)
            return 2
        preload.append((graph_id, source.strip()))
    config = ServeConfig(
        host=args.host,
        port=args.port,
        executor=args.executor,
        workers=args.workers,
        max_batch=args.max_batch,
        preload=tuple(preload),
        seed=args.seed,
        max_inflight=args.max_inflight,
        max_inflight_per_graph=args.max_inflight_per_graph,
        max_queue=args.max_queue,
        default_deadline_ms=args.default_deadline_ms,
        max_deadline_ms=args.max_deadline_ms,
        breaker_threshold=args.breaker_threshold,
        breaker_backoff_ms=args.breaker_backoff_ms,
        step_down_after=args.step_down_after,
    )
    try:
        return serve_main(config)
    except (ValueError, OSError) as exc:  # bad flag combo or bind failure
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.dist.remote import worker_main

    try:
        return worker_main(args.connect, tag=args.tag)
    except ValueError as exc:  # malformed --connect address
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.artifacts import ArtifactError
    from repro.experiments.report import (
        collect_artifacts,
        collect_results,
        render_diff,
        render_report,
    )

    if args.diff is not None:
        old_path, new_path = args.diff
        try:
            text = render_diff(old_path, new_path)
        except ArtifactError as exc:
            print(f"--diff: {exc}", file=sys.stderr)
            return 2
        if args.output:
            Path(args.output).write_text(text + "\n")
            print(f"wrote {args.output}")
        else:
            print(text)
        return 0

    if args.trend is not None:
        import dataclasses

        from repro.sweep.trend import (
            TrendThresholds,
            build_series,
            collect_trend_docs,
            evaluate_trends,
            render_trend,
        )

        thresholds = TrendThresholds()
        tol_overrides = {
            key: value for key, value in
            (("perf_tol", args.perf_tol), ("quality_tol", args.quality_tol))
            if value is not None
        }
        if tol_overrides:
            thresholds = dataclasses.replace(thresholds, **tol_overrides)
        try:
            docs = collect_trend_docs(args.trend)
        except FileNotFoundError as exc:
            print(f"--trend: {exc}", file=sys.stderr)
            return 2
        series = build_series(docs)
        flags = evaluate_trends(series, thresholds)
        text = render_trend(series, flags, thresholds)
        if args.output:
            Path(args.output).write_text(text + "\n")
            print(f"wrote {args.output} ({len(series)} series, "
                  f"{len(flags)} flagged)")
        else:
            print(text)
        return 1 if (args.check and flags) else 0

    results = collect_results(args.results)
    artifacts = collect_artifacts(args.results)
    text = render_report(results, artifacts=artifacts)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output} ({len(results)} tables, "
              f"{len(artifacts)} run artifacts)")
    else:
        print(text)
    return 0


_COMMANDS = {
    "quickstart": _cmd_quickstart,
    "solve": _cmd_solve,
    "workloads": _cmd_workloads,
    "experiment": _cmd_experiment,
    "list-experiments": _cmd_list,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # stdout closed early (e.g. piped to `head`)
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
