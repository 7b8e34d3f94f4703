"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload coreset-matching --seed 1 \\
        --seconds 30 --trace 0

``coreset-matching`` and ``coreset-cover-procs`` call ``repro.solve.solve``
in a child process (:mod:`solve_load`); ``serve-mixed`` drives a ``repro
serve`` subprocess over HTTP (:mod:`serve_load`).  The program is
imported from the checkout's ``src``; without it the runner exits 2.

Standard output is a readable report (validity stamp, correctness checks,
every metric with its unit) and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` is a separate run that
reports the per-layer ones.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import host
from measure import failed_share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "matching_ratio": "ratio",
    "cover_ratio": "ratio",
    "coreset_bits": "bits",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER: Dict[str, str] = {
    "graph.partition_ms": "ms",
    "graph.pieces_ms": "ms",
    "dist.summarize_ms": "ms",
    "dist.summarize_max_ms": "ms",
    "dist.barrier_ms": "ms",
    "dist.task_bytes": "bytes",
    "dist.ledger_ms": "ms",
    "dist.message_edges": "count",
    "core.fixed_vertices": "count",
    "core.compose_ms": "ms",
    "matching.kernel_ms": "ms",
    "matching.kernel_edges": "count",
    "matching.kernel_calls": "count",
    "solve.verify_ms": "ms",
    "solve.facade_ms": "ms",
    "trace.coverage": "ratio",
    "serve.solver_ms_p50": "ms",
    "serve.overhead_ms_p50": "ms",
    "serve.capacity_per_s": "1/s",
    "serve.batch_size_mean": "count",
    "serve.view_hit_ratio": "ratio",
    "serve.cpu_ms_per_request": "ms",
    "serve.pools_created": "count",
    "serve.rejected": "count",
    "client.lag_ms_p99": "ms",
}
WORKLOADS = ("coreset-matching", "coreset-cover-procs", "serve-mixed")
#: Set-ups timed per end-to-end run, half before the timed phase and half
#: after it; ``setup_s`` is their median.  On a shared 2-CPU host whose
#: speed swings by half over tens of seconds, back-to-back set-ups all
#: land in one spell: the median of three or five of them spread 0.3
#: across seeds.
SETUPS = 4
#: A workload that solves no instance of a problem loses nothing on it.
NOT_APPLICABLE_RATIO = 1.0
#: How long a solve child may outlive its timed phase before it is killed.
CHILD_GRACE_S = 120.0


def child_env() -> Dict[str, str]:
    """The checkout's ``src`` first, and no ``REPRO_*`` override, so every
    backend, worker count and transfer mode is the program's default."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _solve_child(args: argparse.Namespace,
                 setup_only: bool) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Spawn one :mod:`solve_load` child; returns its set-up time (spawn to
    ``ready``) and, unless ``setup_only``, its summary."""
    cmd = [sys.executable, str(HERE / "solve_load.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(args.seconds + CHILD_GRACE_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"{args.workload} child exited with status {code}")
    return setup_s, None if setup_only else json.loads(rest.splitlines()[-1])


def run_solve(args: argparse.Namespace) -> Dict[str, Any]:
    """Half the set-ups before the timed child (whose own is the last of
    them) and half after it, as :func:`serve_load.run` does."""
    setups = 1 if args.trace else SETUPS
    head = (setups - 1) // 2
    samples = [_solve_child(args, setup_only=True)[0] for _ in range(head)]
    setup_s, summary = _solve_child(args, setup_only=False)
    samples.append(setup_s)
    samples += [_solve_child(args, setup_only=True)[0]
                for _ in range(setups - 1 - head)]
    summary["notes"]["setup_samples_s"] = samples
    if not args.trace:
        summary["metrics"]["setup_s"] = statistics.median(samples)
    return summary


def run_serve(args: argparse.Namespace) -> Dict[str, Any]:
    import serve_load

    return serve_load.run(ROOT, child_env(), args.seed, args.seconds,
                          1 if args.trace else SETUPS, bool(args.trace))


def result_metrics(summary: Dict[str, Any],
                   trace: int) -> Dict[str, Dict[str, Any]]:
    """Every metric of the run's table, with its unit.  A per-layer metric
    of a layer the workload never enters reads 0; an end-to-end ratio of
    a problem the workload never solves reads 1."""
    if trace:
        table, defaults = PER_LAYER, dict.fromkeys(PER_LAYER, 0)
    else:
        table = END_TO_END
        defaults = dict.fromkeys(("matching_ratio", "cover_ratio"),
                                 NOT_APPLICABLE_RATIO)
    values = {**defaults, **summary["metrics"]}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in table.items()}


def report(args: argparse.Namespace, summary: Dict[str, Any],
           metrics: Dict[str, Dict[str, Any]], stamp: Dict[str, Any]) -> None:
    """The readable part of the output: everything before the last line."""
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("validity " + json.dumps(stamp, sort_keys=True))
    for flag in stamp["flags"]:
        print(f"validity flag: {flag}")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"checks: {attempted} operations attempted, {failed} failed, "
          f"failed_share {failed_share(attempted, failed):g} ratio")
    for name, count in sorted(summary["failures"].items()):
        print(f"check failed: {name} x{count}")
    latency = summary["notes"].get("latency", {})
    for name, metric in metrics.items():
        note = ""
        if name == "latency_p90_ms":
            note = (f"  (p{100 * latency['q90']:.4g} of {latency['n']} "
                    f"samples, {latency['reference_n']} for reference)")
        print(f"metric {name} = {metric['value']!r} {metric['unit']}{note}")
    if latency:
        print(f"tail latency = {latency['p99_ms']!r} ms at "
              f"p{100 * latency['q99']:.4g}: the highest percentile with "
              f">= 10 of the {latency['reference_n']} reference samples "
              f"beyond it; not a metric, as one stall of the host moves it")
    print("notes " + json.dumps(summary["notes"], sort_keys=True))


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; run the "
              f"benchmark from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        stamp = host.validity_stamp(ROOT)
        summary = (run_serve if args.workload == "serve-mixed"
                   else run_solve)(args)
        host.finish_stamp(stamp, summary.get("lag_ms_p99"))
        metrics = result_metrics(summary, args.trace)
    except Exception:  # noqa: BLE001 - report, and print no result
        traceback.print_exc()
        return 1
    report(args, summary, metrics, stamp)
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
