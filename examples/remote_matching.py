#!/usr/bin/env python
"""Remote execution: the matching coreset on socket-joined workers.

Scenario: the k machines of the simultaneous protocol run as *separate
worker processes joined over TCP* — the same fleet shape you would use
across hosts, demonstrated here with two local `repro worker`
subprocesses.  The coordinator binds a port, the workers dial in, tasks
stream out as length-prefixed pickle frames, and results come back
composed in machine-index order — so the run is bit-identical to serial
per seed, exactly like every other backend (docs/PARALLELISM.md §7).

The script shows the full external-fleet workflow:

1. `RemoteExecutor(spawn_workers=0)` + `start()` — bind now, spawn nobody;
2. launch two `repro worker --connect HOST:PORT` subprocesses;
3. run the matching-coreset protocol over the fleet, twice, on one
   persistent executor — the first barrier waits for both workers to
   join; every task names the graph and each machine cuts its own
   piece, so the content cache ships the graph at most once per worker;
4. verify bit-identity against a serial run and print the cache counters;
5. close — workers receive a shutdown frame and exit 0.

Run:  python examples/remote_matching.py
"""

import subprocess
import sys
import time

import numpy as np

from repro.core.protocols import matching_coreset_protocol
from repro.dist.coordinator import run_simultaneous
from repro.dist.remote import RemoteExecutor
from repro.graph.generators import planted_matching_gnp
from repro.graph.partition import random_k_partition

N_WORKERS = 2


def main() -> None:
    graph, _ = planted_matching_gnp(2000, 2000, p=12.0 / 4000, rng=0)
    part = random_k_partition(graph, k=6, rng=1)
    proto = matching_coreset_protocol()
    print(f"workload: n={graph.n_vertices}, m={graph.n_edges}, k=6")

    serial_a = run_simultaneous(proto, part, rng=5)
    serial_b = run_simultaneous(proto, part, rng=6)

    ex = RemoteExecutor(max_workers=N_WORKERS, spawn_workers=0,
                        cache_min_bytes=1024)
    workers = []
    try:
        host, port = ex.start()
        print(f"coordinator listening on {host}:{port}")
        for i in range(N_WORKERS):
            workers.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", f"{host}:{port}", "--tag", f"demo-{i}"]))
        print(f"launched {N_WORKERS} `repro worker` subprocesses\n")

        for seed, serial in ((5, serial_a), (6, serial_b)):
            start = time.perf_counter()
            remote = run_simultaneous(proto, part, rng=seed, executor=ex)
            wall = time.perf_counter() - start
            identical = (np.array_equal(remote.output, serial.output)
                         and remote.total_bits == serial.total_bits)
            print(f"  seed {seed}: {wall:5.2f}s  "
                  f"matching={remote.output.shape[0]}  "
                  f"bits={remote.total_bits}  "
                  f"identical_to_serial={identical}")
            assert identical, "determinism contract violated"

        stats = ex.piece_cache.stats()
        print(f"\ncontent cache: {stats['pieces_stored']} graph stored once, "
              f"{stats['fetches_served']} fetches served "
              f"(bound: graphs x workers = "
              f"{stats['pieces_stored'] * N_WORKERS}), "
              f"{stats['bytes_shipped']} bytes shipped "
              f"for 2 barriers over the same graph")
        assert stats["fetches_served"] <= stats["pieces_stored"] * N_WORKERS
    finally:
        ex.close()
    for proc in workers:
        rc = proc.wait(timeout=30)
        assert rc == 0, f"worker exited with {rc}"
    print("workers shut down cleanly (exit 0)\n")
    print("Same seed, same bits — across processes joined over sockets.")


if __name__ == "__main__":
    main()
