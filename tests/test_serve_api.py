"""The ``repro serve`` HTTP API under concurrency (serial backend).

The load-bearing contract is **serving determinism**: a solve served
over HTTP — batched with arbitrary concurrent neighbours — must be
bit-identical to the same solve run in-process with :func:`repro.solve
.solve`.  Everything the server adds (pinning, micro-batching, partition
-view reuse, capability resolution) must be invisible in the result.

These tests run the serial executor so solver code shares the test
process (fast, and partition-view leasing is exercised); the process-
backend and fault paths live in ``tests/test_serve_faults.py``.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import pickle

import pytest

from chaos import held_barrier, run_async, serve_harness, wait_until
from repro.solve import RunContext, resolve_capability, solve
from repro.solve.graphs import load_graph

from repro.serve import ServeClient, ServeClientError
from repro.serve.store import MAX_VIEWS_PER_GRAPH

GRAPH_SPEC = "planted:n=400,p=0.02"
GRAPH_SEED = 7
DEMO = (("demo", GRAPH_SPEC, GRAPH_SEED),)
# A WeightedBipartiteGraph and a CapacitatedBipartiteGraph.
TYPED = (("ba", "workload:ba:weights=uniform", 0),
         ("adwords", "workload:ba_adwords", 0))


def _tiny_graphs():
    """One small graph of each of the five graph types."""
    import numpy as np

    from repro.graph.capacity import (
        CapacitatedBipartiteGraph,
        WeightedBipartiteGraph,
    )
    from repro.graph.generators import bipartite_gnp, gnp
    from repro.graph.weights import WeightedGraph

    bip = bipartite_gnp(6, 6, 0.5, 1)
    w = np.linspace(1.0, 2.0, bip.n_edges)
    return {
        "Graph": gnp(12, 0.3, 2),
        "BipartiteGraph": bip,
        "WeightedGraph": WeightedGraph(12, bip.edges, w),
        "WeightedBipartiteGraph": WeightedBipartiteGraph(6, 6, bip.edges, w),
        "CapacitatedBipartiteGraph": CapacitatedBipartiteGraph(
            6, 6, bip.edges, w, np.full(6, 2)),
    }


def reference(solver: str, seed: int, k: int = 4, **params):
    """The in-process ground truth a served solve must reproduce."""
    graph = load_graph(GRAPH_SPEC, rng=GRAPH_SEED)
    return solve(graph, solver, RunContext(seed=seed, k=k), **params)


def assert_matches_reference(doc, ref):
    """Served result document == in-process SolveResult, bit for bit."""
    want = ref.to_dict(include_certificate=True)
    got = doc["result"]
    assert got["solver"] == want["solver"]
    assert got["value"] == want["value"]
    assert got["size"] == want["size"]
    assert got["verified"] is True
    if "certificate" in got:
        assert got["certificate"] == want["certificate"]
    # wall_time differs by machine load; every other stat is deterministic.
    got_stats = {k: v for k, v in got["stats"].items() if "time" not in k}
    want_stats = {k: v for k, v in want["stats"].items() if "time" not in k}
    assert got_stats == want_stats


async def behind_a_barrier(server, client, requests):
    """Run the client coroutines ``requests`` as one batch: a blocker
    holds the executor barrier until every one of them waits in the
    queue, and the next barrier takes them all."""
    with held_barrier(server) as hold:
        blocker = asyncio.ensure_future(client.solve(
            "demo", solver="matching.greedy_maximal", seed=100))
        await wait_until(lambda: hold.batches)
        futs = [asyncio.ensure_future(request) for request in requests]
        await wait_until(lambda: server.batcher.queue_depth() == len(futs))
        hold.open()
        await blocker
        return await asyncio.gather(*futs)


# --------------------------------------------------------------------- #
# determinism under concurrency
# --------------------------------------------------------------------- #
class TestServingDeterminism:
    def test_concurrent_identical_requests_are_bit_identical(self):
        """N identical in-flight requests coalesce into batches, and every
        one comes back identical to the serial in-process run."""
        ref = reference("matching.coreset", seed=3)

        async def main():
            async with serve_harness(graphs=DEMO) as (server, client):
                with held_barrier(server) as hold:
                    futs = [asyncio.ensure_future(client.solve(
                        "demo", solver="matching.coreset", seed=3, k=4,
                        certificate=True)) for _ in range(8)]
                    # However the eight split between the held barrier and
                    # the queue, at least one batch holds several.
                    await wait_until(
                        lambda: sum(map(len, hold.batches))
                        + server.batcher.queue_depth() == 8)
                    hold.open()
                    return await asyncio.gather(*futs)

        docs = run_async(main())
        assert len(docs) == 8
        for doc in docs:
            assert_matches_reference(doc, ref)
        # They shared barriers: at least one request observed neighbours
        # in its batch.
        assert max(d["batch_size"] for d in docs) > 1

    def test_mixed_seeds_stay_isolated_in_one_batch(self):
        """Different seeds batched together must not bleed into each
        other — each result equals its own serial reference."""
        seeds = [0, 1, 2, 3, 4, 5]
        refs = {s: reference("matching.coreset", seed=s) for s in seeds}

        async def main():
            async with serve_harness(graphs=DEMO) as (server, client):
                return await behind_a_barrier(server, client, [
                    client.solve("demo", solver="matching.coreset",
                                 seed=s, k=4, certificate=True)
                    for s in seeds
                ])

        for seed, doc in zip(seeds, run_async(main())):
            assert doc["batch_size"] == len(seeds)
            assert_matches_reference(doc, refs[seed])

    def test_mixed_solvers_share_a_graph_batch(self):
        ref_m = reference("matching.greedy_maximal", seed=0)
        ref_v = reference("vertex_cover.two_approx", seed=0)

        async def main():
            async with serve_harness(graphs=DEMO) as (server, client):
                return await behind_a_barrier(server, client, [
                    client.solve("demo", solver="matching.greedy_maximal",
                                 seed=0, certificate=True),
                    client.solve("demo", solver="vertex_cover.two_approx",
                                 seed=0, certificate=True),
                ])

        doc_m, doc_v = run_async(main())
        assert doc_m["batch_size"] == doc_v["batch_size"] == 2
        assert_matches_reference(doc_m, ref_m)
        assert_matches_reference(doc_v, ref_v)

    def test_repeat_waves_reuse_partition_views(self):
        """Same (k, seed) across waves: the pinned partition is built once
        and every later solve hits the cache — still bit-identical."""
        ref = reference("matching.coreset", seed=9)

        async def main():
            async with serve_harness(graphs=DEMO, executor="serial") as (
                    server, client):
                for _ in range(3):
                    docs = await asyncio.gather(*(
                        client.solve("demo", solver="matching.coreset",
                                     seed=9, k=4, certificate=True)
                        for _ in range(3)
                    ))
                    for doc in docs:
                        assert_matches_reference(doc, ref)
                return await client.stats()

        stats = run_async(main())["store"]
        assert stats["views_created"] == 1
        assert stats["view_hits"] == 8


# --------------------------------------------------------------------- #
# partition views hold no shared memory
# --------------------------------------------------------------------- #
class _TypeRecorder(pickle.Pickler):
    """A pickler that notes the type of every object it serializes."""

    def __init__(self, file):
        super().__init__(file)
        self.types = set()

    def persistent_id(self, obj):
        self.types.add(type(obj))
        return None


class TestPartitionViews:
    def test_view_is_a_plain_partition(self):
        """A cached view crosses any executor boundary as ordinary data:
        pickling it must not drag a shared-memory segment along (a remote
        worker could not attach one, and a local one re-attaches and later
        warns about names it never owned)."""
        from multiprocessing import shared_memory

        from repro.graph.partition import PartitionedGraph
        from repro.serve.store import GraphStore

        store = GraphStore(pin_shared=False)
        try:
            store.register("demo", GRAPH_SPEC, seed=GRAPH_SEED)
            pg = store.acquire("demo")
            view = store.lease_view(pg, k=4, seed=3)
            assert type(view) is PartitionedGraph
            recorder = _TypeRecorder(io.BytesIO())
            recorder.dump(view)
            assert shared_memory.SharedMemory not in recorder.types
            store.release(pg)
        finally:
            store.close()

    def test_coreset_burst_leaves_dev_shm_alone(self):
        """A burst of coreset solves over more (k, seed) pairs than the
        view cache holds: no shared-memory entry appears, and the LRU
        never grows past its bound."""
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        seeds = range(12)

        async def main():
            async with serve_harness(graphs=DEMO, executor="serial") as (
                    server, client):
                before = set(os.listdir("/dev/shm"))
                docs = await asyncio.gather(*(
                    client.solve("demo", solver="matching.coreset", seed=s,
                                 k=4)
                    for s in seeds
                ))
                after = set(os.listdir("/dev/shm"))
                stats = await client.stats()
                return docs, after - before, stats["store"]

        docs, appeared, store = run_async(main())
        assert all(doc["result"]["verified"] for doc in docs)
        assert appeared == set()
        assert store["views_created"] == len(seeds)
        assert store["partition_views"] <= MAX_VIEWS_PER_GRAPH


# --------------------------------------------------------------------- #
# capability resolution over HTTP
# --------------------------------------------------------------------- #
class TestCapabilityRouting:
    def test_problem_only_resolves_the_registry_best(self):
        expected = resolve_capability(
            "matching", graph=load_graph(GRAPH_SPEC, rng=GRAPH_SEED),
        )

        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                return await client.solve("demo", problem="matching", seed=0)

        doc = run_async(main())
        assert doc["solver"] == expected.name
        assert not expected.baseline

    def test_capability_solve_equals_named_solve(self):
        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                by_cap = await client.solve(
                    "demo", problem="matching", model="coreset",
                    guarantee="O(1)-approx", seed=5, k=4, certificate=True,
                )
                by_name = await client.solve(
                    "demo", solver=by_cap["solver"], seed=5, k=4,
                    certificate=True,
                )
                return by_cap, by_name

        by_cap, by_name = run_async(main())
        assert by_cap["solver"] == "matching.coreset"
        strip = lambda d: {k: v for k, v in d.items() if k != "wall_time_s"}
        assert strip(by_cap["result"]) == strip(by_name["result"])

    def test_impossible_capability_is_a_422(self):
        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                with pytest.raises(ServeClientError) as err:
                    await client.solve("demo", problem="matching",
                                       guarantee="1.0001-approx", seed=0)
                return err.value

        exc = run_async(main())
        assert exc.status == 422
        assert exc.code == "unresolvable_capability"
        assert exc.doc["error"]["query"]["problem"] == "matching"
        assert exc.doc["error"]["candidates"]

    def test_solvers_route_reports_resolution_order(self):
        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                return await client.solvers(problem="matching",
                                            model="coreset")

        doc = run_async(main())
        names = {s["name"] for s in doc["solvers"]}
        assert "matching.coreset" in names and "vertex_cover.lp" in names
        order = doc["resolution_order"]
        assert order[0] == "matching.coreset"
        assert order[-1] == "matching.send_everything"  # baseline last


# --------------------------------------------------------------------- #
# /compare
# --------------------------------------------------------------------- #
class TestCompare:
    def test_side_by_side_matches_individual_references(self):
        solvers = ["matching.coreset", "matching.greedy_maximal",
                   "matching.send_everything"]
        refs = {name: reference(name, seed=2) for name in solvers}

        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                return await client.compare("demo", solvers, seed=2, k=4)

        doc = run_async(main())
        assert [c["solver"] for c in doc["solvers"]] == solvers
        for column in doc["solvers"]:
            assert column["ok"]
            assert column["result"]["value"] == refs[column["solver"]].value
            assert column["result"]["verified"]
        summary = doc["summary"]
        assert summary == {
            "completed": 3, "failed": 0,
            "best_value": max(r.value for r in refs.values()),
        }

    def test_entries_accept_params_and_labels(self):
        ref = reference("matching.subsampled_coreset", seed=1, alpha=2.0)

        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                return await client.compare("demo", [
                    {"solver": "matching.subsampled_coreset",
                     "params": {"alpha": 2.0}, "label": "alpha=2"},
                    "matching.greedy_maximal",
                ], seed=1, k=4)

        doc = run_async(main())
        first = doc["solvers"][0]
        assert first["label"] == "alpha=2"
        assert first["params"] == {"alpha": 2.0}
        assert first["result"]["value"] == ref.value

    def test_one_compare_is_one_barrier(self):
        """A /compare that mixes coreset solvers, which lease partition
        views, with solvers that do not still runs as one barrier."""
        solvers = ["matching.coreset", "vertex_cover.coreset",
                   "matching.mapreduce", "matching.streaming_greedy"]
        refs = {name: reference(name, seed=5) for name in solvers}

        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                before = (await client.stats())["batcher"]
                doc = await client.compare("demo", solvers, seed=5, k=4)
                after = (await client.stats())["batcher"]
                return before, doc, after

        before, doc, after = run_async(main())
        assert after["batches"] - before["batches"] == 1
        assert after["max_batch_seen"] >= 4
        for column in doc["solvers"]:
            assert column["ok"], column
            assert column["result"]["value"] == refs[column["solver"]].value

    def test_compare_needs_two_entries(self):
        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                with pytest.raises(ServeClientError) as err:
                    await client.compare("demo", ["matching.coreset"], k=4)
                return err.value

        exc = run_async(main())
        assert (exc.status, exc.code) == (400, "bad_request")


# --------------------------------------------------------------------- #
# graph administration
# --------------------------------------------------------------------- #
class TestGraphAdmin:
    def test_register_solve_unregister_roundtrip(self):
        async def main():
            async with serve_harness() as (_, client):
                assert await client.graphs() == []
                info = await client.register_graph("g1", "gnp:n=120,p=0.05",
                                                   seed=3)
                assert info["id"] == "g1"
                assert info["n_vertices"] == 120
                listed = await client.graphs()
                assert [g["id"] for g in listed] == ["g1"]
                doc = await client.solve("g1", problem="matching", seed=0)
                assert doc["result"]["verified"]
                gone = await client.unregister_graph("g1")
                assert gone["unregistered"]["id"] == "g1"
                with pytest.raises(ServeClientError) as err:
                    await client.solve("g1", problem="matching", seed=0)
                return err.value

        exc = run_async(main())
        assert (exc.status, exc.code) == (404, "not_found")

    def test_duplicate_registration_conflicts(self):
        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                with pytest.raises(ServeClientError) as err:
                    await client.register_graph("demo", "gnp:n=50", seed=0)
                return err.value

        exc = run_async(main())
        assert (exc.status, exc.code) == (409, "conflict")

    def test_get_one_graph_info(self):
        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                return await client.call("GET", "/graphs/demo")

        info = run_async(main())
        assert info["id"] == "demo"
        assert info["source"] == GRAPH_SPEC
        assert info["seed"] == GRAPH_SEED
        assert info["n_vertices"] == 400


# --------------------------------------------------------------------- #
# validation and protocol errors
# --------------------------------------------------------------------- #
class TestValidation:
    @pytest.fixture(scope="class")
    def errors(self):
        """One server boot, every 4xx probe — (status, code) per case."""
        cases = {}

        async def main():
            async with serve_harness(graphs=DEMO + TYPED) as (_, client):
                async def probe(name, method, path, doc=None):
                    status, parsed = await client.request(method, path, doc)
                    cases[name] = (status, (parsed or {}).get("error", {}))

                await probe("no_route", "GET", "/nope")
                await probe("wrong_method", "GET", "/solve")
                await probe("missing_graph", "POST", "/solve",
                            {"graph": "ghost", "solver": "matching.maximum"})
                await probe("unknown_solver", "POST", "/solve",
                            {"graph": "demo", "solver": "matching.quantum"})
                await probe("solver_and_problem", "POST", "/solve",
                            {"graph": "demo", "solver": "matching.maximum",
                             "problem": "matching"})
                await probe("neither", "POST", "/solve", {"graph": "demo"})
                await probe("coreset_without_k", "POST", "/solve",
                            {"graph": "demo", "solver": "matching.coreset"})
                await probe("unknown_param", "POST", "/solve",
                            {"graph": "demo", "solver": "matching.coreset",
                             "k": 4, "params": {"warp": 9}})
                await probe("partition_param", "POST", "/solve",
                            {"graph": "demo", "solver": "matching.coreset",
                             "k": 4, "params": {"partition": [0, 1]}})
                await probe("non_scalar_param", "POST", "/solve",
                            {"graph": "demo", "solver": "matching.coreset",
                             "k": 4, "params": {"alpha": [1, 2]}})
                await probe("empty_body", "POST", "/solve")
                await probe("bad_graph_id", "POST", "/graphs",
                            {"id": "a/b", "source": "gnp:n=10"})
                await probe("bad_source", "POST", "/graphs",
                            {"id": "g", "source": "nosuchgen:n=10"})
                await probe("weighted_bipartite_weighted_solver", "POST",
                            "/solve", {"graph": "ba",
                                       "solver": "matching.weighted_coreset",
                                       "k": 4})
                before = (await client.stats())["batcher"]["requests"]
                await probe("capacitated_plain_solver", "POST", "/solve",
                            {"graph": "adwords",
                             "solver": "matching.coreset", "k": 4})
                after = (await client.stats())["batcher"]["requests"]
                cases["capacitated_plain_solver_barriers"] = after - before

        run_async(main())
        return cases

    @pytest.mark.parametrize("case,status,code", [
        ("no_route", 404, "not_found"),
        ("wrong_method", 405, "method_not_allowed"),
        ("missing_graph", 404, "not_found"),
        ("unknown_solver", 404, "not_found"),
        ("solver_and_problem", 400, "bad_request"),
        ("neither", 400, "bad_request"),
        ("coreset_without_k", 400, "bad_request"),
        ("unknown_param", 400, "bad_request"),
        ("partition_param", 400, "bad_request"),
        ("non_scalar_param", 400, "bad_request"),
        ("empty_body", 400, "bad_request"),
        ("bad_graph_id", 400, "bad_request"),
        ("bad_source", 400, "bad_request"),
        # The facade's capability rule: edge weights on a bipartite
        # container serve a weighted solver, and a capacitated graph is
        # refused by a solver that would ignore its capacities.
        ("weighted_bipartite_weighted_solver", 200, None),
        ("capacitated_plain_solver", 400, "bad_request"),
    ])
    def test_error_table(self, errors, case, status, code):
        got_status, error = errors[case]
        assert got_status == status
        assert error.get("code") == code
        assert bool(error.get("message")) == (code is not None)

    def test_capability_refusal_costs_no_barrier(self, errors):
        _, error = errors["capacitated_plain_solver"]
        assert "ignores capacities" in error["message"]
        assert errors["capacitated_plain_solver_barriers"] == 0

    def test_precheck_refuses_exactly_what_solve_refuses(self):
        """For every registered solver and every graph type, serve's
        precheck and ``solve()`` accept the same pairs."""
        from repro.serve.app import ReproServer
        from repro.serve.protocol import BadRequest
        from repro.solve.registry import SolverCapabilityError, all_solvers

        by_serve, by_solve = set(), set()
        for kind, graph in _tiny_graphs().items():
            for spec in all_solvers():
                try:
                    ReproServer._precheck(spec, graph, 2, {})
                except BadRequest:
                    by_serve.add((spec.name, kind))
                try:
                    solve(graph, spec.name, RunContext(seed=0, k=2))
                except SolverCapabilityError:
                    by_solve.add((spec.name, kind))
        assert by_serve == by_solve
        assert ("matching.coreset", "CapacitatedBipartiteGraph") in by_solve
        assert ("matching.weighted_coreset",
                "WeightedBipartiteGraph") not in by_solve

    def test_malformed_json_is_a_400_not_a_crash(self):
        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                reader, writer = await asyncio.open_connection(
                    client.host, client.port)
                body = b"{not json"
                writer.write(
                    b"POST /solve HTTP/1.1\r\nHost: x\r\n"
                    b"Connection: close\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
                await writer.drain()
                status, parsed, _headers = await ServeClient._read_response(reader)
                writer.close()
                await writer.wait_closed()
                # server survived:
                health = await client.healthz()
                return status, parsed, health

        status, parsed, health = run_async(main())
        assert status == 400
        assert parsed["error"]["code"] == "bad_request"
        assert health["ok"]


# --------------------------------------------------------------------- #
# protocol niceties
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_healthz_stats_and_flags(self):
        async def main():
            async with serve_harness(graphs=DEMO, executor="serial") as (
                    server, client):
                health = await client.healthz()
                lean = await client.solve("demo", solver="matching.maximum",
                                          seed=0, verify=False)
                full = await client.solve("demo", solver="matching.maximum",
                                          seed=0, certificate=True)
                stats = await client.stats()
                return health, lean, full, stats

        health, lean, full, stats = run_async(main())
        assert health == {"ok": True, "graphs": 1}
        assert lean["result"]["verified"] is False  # verify=false skipped it
        assert "certificate" not in lean["result"]
        assert full["result"]["verified"] is True
        assert len(full["result"]["certificate"]) == full["result"]["size"]
        assert stats["server"]["requests_total"] >= 4
        assert stats["server"]["errors_total"] == 0
        assert stats["executor"]["backend"] == "serial"
        assert stats["executor"]["ship_handles"] is False
        assert stats["batcher"]["requests"] == 2
        assert stats["store"]["graphs"] == 1

    def test_default_executor_is_serial_and_ready(self, monkeypatch):
        """With no executor and no $REPRO_EXECUTOR, serve resolves the way
        every other engine does: serial, warm at once, no pool."""
        from repro.dist.executor import EXECUTOR_ENV

        monkeypatch.delenv(EXECUTOR_ENV, raising=False)

        async def main():
            async with serve_harness(graphs=DEMO) as (server, client):
                ready = await client.readyz()
                stats = await client.stats()
                statz = await client.statz()
                return server.executor_name, ready, stats, statz

        name, (ready, doc), stats, statz = run_async(main())
        assert name == "serial"
        assert ready is True, doc
        assert stats["executor"]["backend"] == "serial"
        assert stats["executor"]["current_backend"] == "serial"
        assert statz["executor"]["pools_created"] == 0

    def test_keep_alive_serves_many_requests_per_connection(self):
        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                reader, writer = await asyncio.open_connection(
                    client.host, client.port)
                statuses = []
                for i in range(3):
                    last = i == 2
                    body = json.dumps({
                        "graph": "demo", "solver": "matching.greedy_maximal",
                        "seed": i,
                    }).encode()
                    conn = b"close" if last else b"keep-alive"
                    writer.write(
                        b"POST /solve HTTP/1.1\r\nHost: x\r\n"
                        b"Connection: %s\r\nContent-Length: %d\r\n\r\n%s"
                        % (conn, len(body), body))
                    await writer.drain()
                    status, parsed, _headers = await ServeClient._read_response(reader)
                    statuses.append((status, parsed["result"]["verified"]))
                writer.close()
                await writer.wait_closed()
                return statuses

        assert run_async(main()) == [(200, True)] * 3
