"""``repro serve`` under faults: crashing workers, dying clients, SIGTERM.

These run the **processes** executor — the deployment shape, where solver
code lives in a worker pool and each graph is pinned in shared memory,
tasks carrying only a reference to it — and drive the same env-triggered
chaos hooks as the remote-executor suite (``repro.dist.faults``).  The
pinned transport itself is checked first: every graph type is served
bit-identically to an in-process solve, from tasks of under 1 KiB.

Choreography matters (see :func:`chaos.serve_harness`): the pool spawns
when the server is constructed and workers inherit the environment at
fork, so :func:`chaos.chaos` must be armed *around* the harness and the
block kept open through the recovery assertions — replacement workers
carry the armed env too, and only the already-claimed latch file keeps
them clean.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from chaos import chaos, run_async, serve_harness
from repro.serve import ServeClient, ServeClientError
from repro.solve import RunContext, get_solver, solve
from repro.solve.graphs import load_graph

REPO = Path(__file__).resolve().parents[1]
DEMO = (("demo", "planted:n=300,p=0.03", 11),)
PROC = dict(executor="processes", workers=2)


# --------------------------------------------------------------------- #
# the pinned transport
# --------------------------------------------------------------------- #
#: (graph id, source, seed, solver): one graph of each type.
TYPED = (
    ("plain", "gnp:n=200,p=0.05", 1, "matching.coreset"),
    ("bipartite", "planted:n=300,p=0.03", 11, "vertex_cover.coreset"),
    ("weighted", "weighted:n=400", 7, "matching.weighted_coreset"),
    ("weighted_bipartite", "workload:ba:weights=uniform", 0,
     "matching.weighted_coreset"),
    ("capacitated", "workload:ba_adwords", 0, "matching.b_coreset"),
)


def _canonical(result_doc):
    """A result document's bytes, less its wall time."""
    doc = {k: v for k, v in result_doc.items() if k != "wall_time_s"}
    return json.dumps(doc, sort_keys=True).encode()


class TestPinnedTransport:
    def test_every_graph_type_served_bit_identical(self):
        """Each graph type, pinned on a process pool, is served
        byte-identically to an in-process ``solve()``, and the task that
        carries it pickles to under 1 KiB whatever its size."""
        async def main():
            async with serve_harness(
                    graphs=tuple(entry[:3] for entry in TYPED),
                    **PROC) as (server, client):
                docs = await asyncio.gather(*(
                    client.solve(graph_id, solver=name, seed=seed, k=4,
                                 certificate=True)
                    for graph_id, _, _, name in TYPED for seed in (0, 3)
                ))
                task_bytes = {
                    graph_id: len(pickle.dumps(server._make_task(
                        server.store.get(graph_id), get_solver(name), 0, 4,
                        {}, True, False)))
                    for graph_id, _, _, name in TYPED
                }
                return docs, task_bytes, await client.stats()

        docs, task_bytes, stats = run_async(main())
        sources = {entry[0]: entry[1:3] for entry in TYPED}
        for doc in docs:
            source, graph_seed = sources[doc["graph"]]
            want = solve(load_graph(source, rng=graph_seed), doc["solver"],
                         RunContext(seed=doc["seed"], k=4))
            assert doc["result"]["verified"]
            assert _canonical(doc["result"]) == _canonical(
                want.to_dict(include_certificate=True))
        assert all(size < 1024 for size in task_bytes.values()), task_bytes
        assert stats["executor"]["ship_handles"] is True
        assert stats["store"]["views_created"] == 0


# --------------------------------------------------------------------- #
# worker crashes
# --------------------------------------------------------------------- #
class TestWorkerCrash:
    def test_killed_worker_is_a_500_and_the_server_recovers(self, tmp_path):
        """One worker dies mid-solve: the in-flight request gets a
        structured ``worker_pool_broken`` 500, the server stays up, and
        the *next* request runs verified on a fresh pool."""
        with chaos(tmp_path, kill=True):
            async def main():
                async with serve_harness(graphs=DEMO,
                                         **PROC) as (server, client):
                    with pytest.raises(ServeClientError) as err:
                        await client.solve("demo", solver="matching.coreset",
                                           seed=0, k=4)
                    health = await client.healthz()
                    # Recovery: latch already claimed, replacements clean.
                    doc = await client.solve("demo",
                                             solver="matching.coreset",
                                             seed=0, k=4)
                    stats = await client.stats()
                    return (err.value, health, doc, stats,
                            server.executor.pools_created)

            exc, health, doc, stats, pools = run_async(main())
        assert exc.status == 500
        assert exc.code == "worker_pool_broken"
        assert "batch_size" in exc.doc["error"]
        assert health["ok"]
        assert doc["result"]["verified"]
        assert doc["solver"] == "matching.coreset"
        assert stats["batcher"]["pool_breaks"] == 1
        assert pools == 2  # original + the replacement spawned on recovery

    def test_concurrent_batch_fails_together_then_all_recover(self, tmp_path):
        """A crash takes down the whole in-flight batch (one barrier, one
        structured failure each) — and a full follow-up wave succeeds."""
        with chaos(tmp_path, kill=True):
            async def main():
                async with serve_harness(graphs=DEMO,
                                         **PROC) as (_, client):
                    first = await asyncio.gather(*(
                        client.solve("demo", solver="matching.coreset",
                                     seed=s, k=4)
                        for s in range(4)
                    ), return_exceptions=True)
                    second = await asyncio.gather(*(
                        client.solve("demo", solver="matching.coreset",
                                     seed=s, k=4)
                        for s in range(4)
                    ))
                    return first, second

            first, second = run_async(main())
        broken = [e for e in first
                  if isinstance(e, ServeClientError)
                  and e.code == "worker_pool_broken"]
        assert broken, "the kill never surfaced as worker_pool_broken"
        for e in first:  # nothing hung, nothing leaked an odd exception
            assert isinstance(e, (dict, ServeClientError))
        for doc in second:
            assert doc["result"]["verified"]

    def test_solver_error_is_structured_not_a_pool_break(self, tmp_path):
        """A *solver* raise (bad runtime param that passes prechecks) is a
        ``solve_failed`` 500 naming the solver — the pool survives and the
        same connection pattern keeps working."""
        async def main():
            async with serve_harness(graphs=DEMO, **PROC) as (server, client):
                with pytest.raises(ServeClientError) as err:
                    await client.solve(
                        "demo", solver="matching.subsampled_coreset",
                        seed=0, k=4, params={"alpha": -2.0},
                    )
                doc = await client.solve(
                    "demo", solver="matching.subsampled_coreset",
                    seed=0, k=4,
                )
                return err.value, doc, server.executor.pools_created

        exc, doc, pools = run_async(main())
        assert exc.status == 500
        assert exc.code == "solve_failed"
        assert exc.doc["error"]["solver"] == "matching.subsampled_coreset"
        assert "alpha" in exc.doc["error"]["message"]
        assert doc["result"]["verified"]
        assert pools == 1  # a raise is not a crash: same pool throughout


# --------------------------------------------------------------------- #
# unpin while solving
# --------------------------------------------------------------------- #
class TestUnpinUnderLoad:
    def test_unregister_with_requests_in_flight(self, tmp_path):
        """DELETE /graphs/demo while six slowed solves are in flight:
        every in-flight request completes verified (the pin is leased),
        the graph is gone afterwards, and the id is reusable."""
        with chaos(tmp_path, slow_ms=150, latch=False):
            async def main():
                async with serve_harness(graphs=DEMO,
                                         **PROC) as (_, client):
                    inflight = [asyncio.ensure_future(
                        client.solve("demo", solver="matching.coreset",
                                     seed=s, k=4))
                        for s in range(6)]
                    await asyncio.sleep(0.05)  # let them reach the pool
                    gone = await client.unregister_graph("demo")
                    docs = await asyncio.gather(*inflight)
                    remaining = await client.graphs()
                    health = await client.healthz()
                    info = await client.register_graph(
                        "demo", "gnp:n=80,p=0.1", seed=1)
                    return gone, docs, remaining, health, info

            gone, docs, remaining, health, info = run_async(main())
        assert gone["unregistered"]["id"] == "demo"
        for doc in docs:
            assert doc["result"]["verified"]
        assert remaining == []
        assert health == {"ok": True, "graphs": 0}
        assert info["n_vertices"] == 80  # the id was fully released


# --------------------------------------------------------------------- #
# protocol-level abuse
# --------------------------------------------------------------------- #
class TestWireAbuse:
    def test_malformed_request_line_is_a_400(self):
        async def main():
            async with serve_harness(graphs=DEMO, **PROC) as (_, client):
                reader, writer = await asyncio.open_connection(
                    client.host, client.port)
                writer.write(b"THIS IS NOT HTTP\r\n\r\n")
                await writer.drain()
                status, doc, _headers = await ServeClient._read_response(reader)
                writer.close()
                await writer.wait_closed()
                return status, doc, await client.healthz()

        status, doc, health = run_async(main())
        assert status == 400
        assert doc["error"]["code"] == "bad_request"
        assert health["ok"]

    @pytest.mark.parametrize("content_length", ["999999999", "banana"])
    def test_oversized_or_invalid_length_is_a_413(self, content_length):
        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                reader, writer = await asyncio.open_connection(
                    client.host, client.port)
                writer.write(
                    b"POST /solve HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %s\r\n\r\n"
                    % content_length.encode())
                await writer.drain()
                status, doc, _headers = await ServeClient._read_response(reader)
                writer.close()
                await writer.wait_closed()
                return status, doc, await client.healthz()

        status, doc, health = run_async(main())
        assert status == 413
        assert doc["error"]["code"] == "bad_request"
        assert health["ok"]

    def test_client_hangup_mid_request_leaves_the_server_up(self):
        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                _, writer = await asyncio.open_connection(
                    client.host, client.port)
                writer.write(b"POST /solve HTTP/1.1\r\n"
                             b"Content-Length: 500\r\n\r\n{\"gra")
                await writer.drain()
                writer.close()  # vanish mid-body
                await writer.wait_closed()
                await asyncio.sleep(0.05)
                return await client.solve("demo",
                                          solver="matching.greedy_maximal",
                                          seed=0)

        assert run_async(main())["result"]["verified"]


# --------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_cli_boot_serve_sigterm_exits_cleanly(self):
        """The CLI process boots, pins the preload graph, serves a real
        solve, and a SIGTERM drains and exits 0."""
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        env.pop("REPRO_EXECUTOR", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--graph", "demo=planted:n=300", "--seed", "11"],
            cwd=REPO, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            port = None
            preloaded = False
            for _ in range(50):
                line = proc.stdout.readline()
                if not line:
                    break
                if line.startswith("pinned graph 'demo'"):
                    preloaded = True
                if "listening on" in line:
                    port = int(line.split(":")[-1].split()[0])
                    break
            assert preloaded and port, "server never announced readiness"

            async def drive():
                client = ServeClient(port=port)
                await client.wait_ready()
                return await client.solve("demo", problem="matching",
                                          seed=0, k=4)

            doc = run_async(drive())
            assert doc["result"]["verified"]

            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "draining and shutting down" in out
