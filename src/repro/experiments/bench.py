"""The substrate performance harness behind ``repro bench``.

Every claim the executor substrate makes — persistent pools beat per-call
pools, the remote content cache ships each graph once per worker — is
measured here, on the same scenario sizes the experiment suite uses (E1's
small grids, E8's MapReduce workload, E21's parallel-scaling size), and
written to a structured ``BENCH_substrate.json`` artifact that CI uploads
and future commits can compare against.  ``--check`` turns the two
load-bearing claims into hard assertions (exit code 1 on regression),
which is what the ``substrate-perf`` CI job runs.

The sections:

``pool_lifecycle``
    Per-barrier *substrate overhead* of R back-to-back
    ``run_simultaneous`` barriers per backend variant: ``serial``,
    ``processes-cold`` (a fresh pool per barrier — the pre-lifecycle
    behavior, reconstructed by resolving the executor by name inside the
    loop) and ``processes-persistent`` (one
    :class:`~repro.dist.executor.ProcessExecutor` reused across all R
    barriers).  The barriers run the transfer probe (compute-light), so
    the column *is* the pool cost: on a compute-heavy workload a ±5%
    compute wobble would drown the ~10ms/barrier pool start-up being
    measured — real-workload backend scaling is E21's table, not this
    one.  Every variant's outputs are asserted bit-identical to serial
    before its row is recorded.

``solver_facade``
    One representative solver per execution model (offline, coreset,
    mapreduce, streaming) run through the unified :mod:`repro.solve`
    facade on the smallest scenario, timed via ``SolveResult`` —
    ``wall_time_s`` for the end-to-end solve plus each solver's own
    ``stats`` — with every certificate's ``verified`` flag asserted.
    This keeps the facade's overhead and verification contract on the
    same regression radar as the substrate itself.

``remote_exec``
    The ``remote`` backend (socket coordinator + ``repro worker``
    subprocesses, :mod:`repro.dist.remote`) on the smallest scenario:
    per-barrier seconds over a persistent two-worker fleet with the fleet
    spawn paid untimed, the bit-identical-to-serial flag, and the
    :class:`~repro.dist.remote.RemotePieceCache` counters — which let the
    artifact *prove* the serialize-once/fetch-and-pin claim (stored bytes
    constant across barriers, shipped bytes bounded by graphs × workers)
    rather than assert it in prose.

Wall-clock numbers describe the machine the bench ran on; only the
``identical`` columns and the relative orderings are claims.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.utils.provenance import provenance_stamp

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "add_bench_arguments",
    "main",
    "run_from_args",
    "run_substrate_bench",
]

#: Version 4 added the shared provenance stamp (``git_commit`` /
#: ``git_dirty`` next to the existing ``host`` / ``created_at``, all from
#: :func:`repro.utils.provenance.provenance_stamp`), which is what lets
#: ``repro report --trend`` place each committed bench file on a
#: per-commit timeline.  Version-3 files (no git fields) still trend,
#: under commit ``"unknown"``.
BENCH_SCHEMA_VERSION = 4

#: One solver per execution model, timed through the facade in the
#: ``solver_facade`` section (matching side; the vertex-cover solvers
#: share the same engines).
_FACADE_SOLVERS = (
    "matching.maximum",
    "matching.coreset",
    "matching.mapreduce",
    "matching.streaming_greedy",
)

#: Scenario sizes mirror the experiment grids: e1-small is E1's lower grid
#: cell, e8-mid is the E8 MapReduce workload at reduced n, e21 is exactly
#: E21's registered size (n=4000, avg_degree=24).
_SCENARIOS: Dict[str, List[Dict[str, Any]]] = {
    "quick": [
        dict(name="e1-small", n=1200, k=4, avg_degree=8.0, repeats=4),
        dict(name="e8-mid", n=2400, k=8, avg_degree=12.0, repeats=4),
    ],
    "full": [
        dict(name="e1-small", n=1200, k=4, avg_degree=8.0, repeats=6),
        dict(name="e8-mid", n=2400, k=8, avg_degree=12.0, repeats=6),
        dict(name="e21", n=4000, k=8, avg_degree=24.0, repeats=6),
    ],
}


def _build_workload(scenario: Dict[str, Any], seed: int = 1701):
    """The partitioned graph for a scenario size."""
    from repro.graph.generators import bipartite_gnp
    from repro.graph.partition import random_k_partition

    n, k, deg = scenario["n"], scenario["k"], scenario["avg_degree"]
    side = n // 2
    graph = bipartite_gnp(side, side, p=min(1.0, deg / side), rng=seed)
    return random_k_partition(graph, k, rng=seed + 1)


def _warm_task(x):
    return x


def _global_warmup(workers: int) -> None:
    """Pay every one-time cost before anything is timed.

    The first process pool primes fork/import machinery, a per-interpreter
    cost that would otherwise land inside whichever timed loop happened to
    run first and skew that one variant.
    """
    from repro.dist.executor import ProcessExecutor

    with ProcessExecutor(max_workers=workers) as pool:
        pool.map(_warm_task, list(range(max(2, workers))))


def _time_rounds(fn, repeats: int) -> float:
    """Total wall-clock of ``repeats`` calls of ``fn`` (first call included:
    pool start-up is exactly the cost under test)."""
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return time.perf_counter() - start


def _run_pool_lifecycle(
    scenarios: Sequence[Dict[str, Any]], workers: int, repeats_override: Optional[int]
) -> List[Dict[str, Any]]:
    from repro.dist.coordinator import run_simultaneous
    from repro.dist.executor import ProcessExecutor

    proto = _probe_protocol()
    rows: List[Dict[str, Any]] = []
    for scenario in scenarios:
        part = _build_workload(scenario)
        # Probe barriers are milliseconds, so stability is cheap: raise the
        # scenario default to ten rounds.  An explicit --repeats override
        # is honored exactly, here and in every other section.
        repeats = repeats_override or max(scenario["repeats"], 10)
        seed = 42

        def run(executor):
            return run_simultaneous(proto, part, seed, executor=executor)

        reference = run("serial").output

        variants: Dict[str, float] = {}
        identical: Dict[str, bool] = {}

        variants["serial"] = _time_rounds(lambda: run("serial"), repeats)
        identical["serial"] = True

        # Cold: the engine resolves "processes" by name each barrier, so it
        # builds and tears down one pool per call — the pre-lifecycle cost.
        variants["processes-cold"] = _time_rounds(
            lambda: run("processes"), repeats)
        identical["processes-cold"] = bool(
            np.array_equal(run("processes").output, reference))

        with ProcessExecutor(max_workers=workers) as persistent:
            run(persistent)  # pool creation paid here, steady state timed
            variants["processes-persistent"] = _time_rounds(
                lambda: run(persistent), repeats)
            identical["processes-persistent"] = bool(
                np.array_equal(run(persistent).output, reference))

        for variant, total in variants.items():
            rows.append(dict(
                scenario=scenario["name"],
                variant=variant,
                rounds=repeats,
                total_s=round(total, 6),
                per_round_s=round(total / repeats, 6),
                speedup_vs_serial=round(variants["serial"] / total, 4),
                identical=identical[variant],
            ))
    return rows


def _probe_protocol():
    """A transfer-bound protocol: full data touch, negligible compute."""
    from repro.dist.coordinator import SimultaneousProtocol

    return SimultaneousProtocol(
        "transfer-probe", _probe_summarize, _probe_combine
    )


def _probe_summarize(piece, machine_index, rng, public=None):
    """Checksum the piece (touching every edge byte) and reply tiny.

    Module-level so the ``processes`` backend can pickle it.
    """
    from repro.dist.message import Message

    edges = piece.edges
    # One full pass over the data, echoed in the reply so it cannot be
    # skipped: the cut piece must actually deliver every byte.
    checksum = int(edges.sum()) % max(piece.n_vertices, 1) if edges.size else 0
    probe = np.array([[0, checksum]], dtype=np.int64)
    return Message(sender=machine_index, edges=probe)


def _probe_combine(coordinator, messages):
    return np.vstack([m.edges for m in messages]) if messages else None


# --------------------------------------------------------------------- #
# the remote backend
# --------------------------------------------------------------------- #
def _run_remote_exec(
    scenario: Dict[str, Any], workers: int, repeats_override: Optional[int]
) -> List[Dict[str, Any]]:
    """Steady-state remote barriers on the smallest scenario.

    The fleet (listener + two local ``repro worker`` subprocesses) is
    spawned and fed one untimed warmup barrier — which is also where the
    content cache serializes the graph once and the workers fetch-and-pin
    it — so the timed rounds measure the steady state a sweep actually
    runs in: digest-only task payloads over a warm socket fleet.
    """
    from repro.dist.coordinator import run_simultaneous
    from repro.dist.remote import RemoteExecutor

    proto = _probe_protocol()
    part = _build_workload(scenario)
    repeats = repeats_override or scenario["repeats"]
    seed = 44

    def run(executor):
        return run_simultaneous(proto, part, seed, executor=executor)

    reference = run("serial").output
    serial_total = _time_rounds(lambda: run("serial"), repeats)

    fleet = min(workers, 2)
    with RemoteExecutor(max_workers=fleet, connect_timeout=60,
                        cache_min_bytes=0) as ex:
        run(ex)  # fleet spawn + piece fetch-and-pin paid here, untimed
        total = _time_rounds(lambda: run(ex), repeats)
        identical = bool(np.array_equal(run(ex).output, reference))
        cache = ex.piece_cache.stats()
    return [dict(
        scenario=scenario["name"],
        variant="remote-persistent",
        workers=fleet,
        rounds=repeats,
        total_s=round(total, 6),
        per_round_s=round(total / repeats, 6),
        serial_per_round_s=round(serial_total / repeats, 6),
        identical=identical,
        piece_cache=cache,
    )]


# --------------------------------------------------------------------- #
# solver facade
# --------------------------------------------------------------------- #
def _run_solver_facade(
    scenario: Dict[str, Any], repeats_override: Optional[int]
) -> List[Dict[str, Any]]:
    """Time one solver per model through ``repro.solve`` on one scenario.

    Per-solver wall clock comes from ``SolveResult.wall_time_s`` (the
    facade's own timing of the adapter), averaged over the scenario's
    repeat count; ``stats`` keys are recorded so consumers can see which
    metrics each model reports without running anything.
    """
    from repro.solve import RunContext, get_solver, solve

    graph = _build_workload(scenario).graph
    repeats = repeats_override or scenario["repeats"]
    rows: List[Dict[str, Any]] = []
    for name in _FACADE_SOLVERS:
        spec = get_solver(name)
        ctx = RunContext(seed=7, k=scenario["k"])
        walls = []
        reference = None
        identical = True
        verified = True
        for _ in range(repeats):
            res = solve(graph, name, ctx)
            walls.append(res.wall_time_s)
            verified = verified and res.verified
            if reference is None:
                reference = res.certificate
            else:
                identical = identical and np.array_equal(
                    reference, res.certificate
                )
        last = res
        rows.append(dict(
            scenario=scenario["name"],
            solver=name,
            model=spec.model,
            value=float(last.value),
            wall_s=round(float(np.mean(walls)), 6),
            stats_keys=sorted(last.stats),
            verified=bool(verified),
            identical=bool(identical),
        ))
    return rows


# --------------------------------------------------------------------- #
# driver
# --------------------------------------------------------------------- #
def run_substrate_bench(
    mode: str = "full",
    workers: Optional[int] = None,
    repeats: Optional[int] = None,
    out: Optional[str | Path] = None,
) -> Dict[str, Any]:
    """Run every section and (optionally) write the JSON artifact."""
    if mode not in _SCENARIOS:
        raise ValueError(f"mode must be one of {sorted(_SCENARIOS)}, "
                         f"got {mode!r}")
    scenarios = _SCENARIOS[mode]
    workers = workers or min(os.cpu_count() or 1, 8)

    _global_warmup(workers)
    pool_rows = _run_pool_lifecycle(scenarios, workers, repeats)
    facade_rows = _run_solver_facade(scenarios[0], repeats)
    remote_rows = _run_remote_exec(scenarios[0], workers, repeats)

    checks = _evaluate_checks(pool_rows, facade_rows, remote_rows)

    doc: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "substrate_bench",
        "mode": mode,
        **provenance_stamp(),
        "workers": workers,
        "scenarios": [
            {k: s[k] for k in ("name", "n", "k", "avg_degree")}
            for s in scenarios
        ],
        "pool_lifecycle": pool_rows,
        "solver_facade": facade_rows,
        "remote_exec": remote_rows,
        "checks": checks,
    }
    if out is not None:
        Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def _evaluate_checks(
    pool_rows: List[Dict[str, Any]],
    facade_rows: List[Dict[str, Any]],
    remote_rows: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """The assertable facts: each maps to one acceptance claim."""
    per = {
        (r["scenario"], r["variant"]): r["per_round_s"] for r in pool_rows
    }
    scenarios = sorted({r["scenario"] for r in pool_rows})
    persistent_faster = all(
        per[(s, "processes-persistent")] < per[(s, "processes-cold")]
        for s in scenarios
    )
    # Serialize-once, fetch-and-pin: across every barrier of the run each
    # piece was stored exactly once, and shipped at most once per worker.
    cache_bounded = all(
        r["piece_cache"]["bytes_shipped"]
        <= r["workers"] * r["piece_cache"]["bytes_stored"]
        and r["piece_cache"]["store_hits"] > 0  # later barriers deduped
        for r in remote_rows
    )
    return {
        "persistent_pool_faster_than_cold": bool(persistent_faster),
        "all_outputs_identical": bool(
            all(r["identical"] for r in pool_rows)
            and all(r["identical"] for r in facade_rows)
            and all(r["identical"] for r in remote_rows)
        ),
        "solver_facade_all_verified": bool(
            all(r["verified"] for r in facade_rows)
        ),
        "remote_outputs_identical": bool(
            all(r["identical"] for r in remote_rows)
        ),
        "remote_cache_ships_each_piece_once_per_worker": bool(cache_bounded),
    }


def _format_summary(doc: Dict[str, Any]) -> str:
    lines = [f"substrate bench [{doc['mode']}] — workers={doc['workers']}, "
             f"python {doc['host']['python']}"]
    lines.append("pool_lifecycle (probe barriers, per-round seconds):")
    for r in doc["pool_lifecycle"]:
        lines.append(
            f"  {r['scenario']:>10s}  {r['variant']:<22s}"
            f"{r['per_round_s']:>10.4f}s  x{r['speedup_vs_serial']:<6.3g}"
            f"{'' if r['identical'] else '  OUTPUT MISMATCH'}"
        )
    lines.append("solver_facade (one solver per model, repro.solve):")
    for r in doc["solver_facade"]:
        lines.append(
            f"  {r['scenario']:>10s}  {r['solver']:<28s}"
            f"{r['wall_s']:>10.4f}s  value {r['value']:g}"
            f"{'' if r['verified'] else '  NOT VERIFIED'}"
            f"{'' if r['identical'] else '  OUTPUT MISMATCH'}"
        )
    lines.append("remote_exec (socket fleet, steady-state barriers):")
    for r in doc["remote_exec"]:
        cache = r["piece_cache"]
        lines.append(
            f"  {r['scenario']:>10s}  {r['variant']:<22s}"
            f"{r['per_round_s']:>10.4f}s  serial "
            f"{r['serial_per_round_s']:.4f}s  workers={r['workers']}  "
            f"cache {cache['pieces_stored']}p/"
            f"{cache['bytes_stored']}B stored, "
            f"{cache['bytes_shipped']}B shipped"
            f"{'' if r['identical'] else '  OUTPUT MISMATCH'}"
        )
    lines.append("checks:")
    for key, value in doc["checks"].items():
        lines.append(f"  {key}: {value}")
    return "\n".join(lines)


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the bench flags on ``parser``.

    The single source of truth for the interface: the ``repro bench``
    subcommand and this module's standalone ``main`` both call it, so the
    two entry points cannot drift.
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


def run_from_args(args: argparse.Namespace) -> int:
    """Execute the bench from parsed :func:`add_bench_arguments` flags."""
    if args.workers is not None:
        from repro.dist.executor import validate_workers

        validate_workers(args.workers)  # ValueError on bad counts

    doc = run_substrate_bench(
        mode="quick" if args.quick else "full",
        workers=args.workers,
        repeats=args.repeats,
        out=None if args.out == "-" else args.out,
    )
    print(_format_summary(doc))
    if args.out != "-":
        print(f"[wrote {args.out}]")

    if args.check:
        checks = doc["checks"]
        failed = [
            key for key in ("persistent_pool_faster_than_cold",
                            "all_outputs_identical",
                            "solver_facade_all_verified",
                            "remote_outputs_identical",
                            "remote_cache_ships_each_piece_once_per_worker")
            if not checks[key]
        ]
        if failed:
            print(f"CHECK FAILED: {', '.join(failed)}", file=sys.stderr)
            return 1
        print("all checks passed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Time the executor substrate (pool lifecycle, solver "
                    "facade, remote backend) and write "
                    "BENCH_substrate.json",
    )
    add_bench_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return run_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover - module execution hook
    raise SystemExit(main())
