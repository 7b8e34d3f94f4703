"""``repro serve`` under overload: admission, deadlines, circuit breaker.

The PR 9 resilience contract, chaos-proven:

* **Sustained 2×-capacity load** sheds the excess with structured 429
  ``overloaded`` + ``Retry-After`` while every *admitted* request stays
  bit-identical to in-process :func:`repro.solve.solve` — overload must
  never change answers, only refuse some.
* **Deadlines** (``deadline_ms``) expire queued requests before they are
  ever dispatched and turn expired-in-flight requests into 504s without
  touching their batch-mates' results.
* **A worker kill-storm** drives the :class:`~repro.serve.resilience.
  ExecutorSupervisor` through open → half-open → closed with
  ``pools_created`` bounded (one pool per backed-off probe, not one per
  request), ``/readyz`` flipping unready → ready across the cycle.

Choreography (see :func:`chaos.serve_harness`): pool workers inherit the
chaos env at fork, so :func:`chaos.chaos` arms *around* the harness;
``latch=False`` makes every worker misbehave (storms), ``latch=True``
exactly one (single-fault recovery).  Disarming chaos *before* a probe
(the ``ExitStack`` pattern below) is what lets a replacement pool fork
clean and the probe succeed.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import time

import pytest

from chaos import (chaos, held_barrier, overload_burst, run_async,
                   serve_harness, wait_until)
from repro.solve import RunContext, solve
from repro.solve.graphs import load_graph

from repro.serve import ServeClient, ServeClientError

GRAPH_SPEC = "planted:n=300,p=0.03"
GRAPH_SEED = 11
DEMO = (("demo", GRAPH_SPEC, GRAPH_SEED),)
PROC = dict(executor="processes", workers=2)
GREEDY = "matching.greedy_maximal"


def reference(solver: str, seed: int, k=None, **params):
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
    got_stats = {k: v for k, v in got["stats"].items() if "time" not in k}
    want_stats = {k: v for k, v in want["stats"].items() if "time" not in k}
    assert got_stats == want_stats


# --------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------- #
class TestAdmissionControl:
    def test_sustained_overload_sheds_429s_admitted_stay_correct(
            self, tmp_path):
        """2× the admission capacity arrives at once: exactly the cap is
        admitted, the rest get structured 429s with Retry-After, and every
        admitted result is bit-identical to in-process solve()."""
        with chaos(tmp_path, slow_ms=150, latch=False):
            async def main():
                async with serve_harness(
                    graphs=DEMO, max_inflight=4, **PROC,
                ) as (server, client):
                    buckets = await overload_burst(client, "demo", 8)
                    statz = await client.statz()
                    return buckets, statz

            buckets, statz = run_async(main())
        assert len(buckets["ok"]) == 4
        assert len(buckets["overloaded"]) == 4
        assert not buckets["other"]
        for exc in buckets["overloaded"]:
            assert exc.status == 429
            assert exc.code == "overloaded"
            assert exc.doc["error"]["reason"] == "max_inflight"
            assert exc.retry_after is not None and exc.retry_after > 0
        # Overload changed scheduling, never answers.
        for doc in buckets["ok"]:
            assert_matches_reference(
                doc, reference("matching.greedy_maximal", doc["seed"]))
        adm = statz["admission"]
        assert adm["rejected_global"] == 4
        assert adm["rejected_total"] == 4
        assert adm["admitted_total"] == 4
        assert adm["max_inflight_seen"] == 4
        assert adm["inflight"] == 0  # every admit was released

    def test_per_graph_cap_isolates_a_hot_graph(self, tmp_path):
        """A per-graph cap sheds only the hot graph's excess: the other
        graph's requests are untouched."""
        with chaos(tmp_path, slow_ms=150, latch=False):
            async def main():
                async with serve_harness(
                    graphs=DEMO + (("alt", GRAPH_SPEC, GRAPH_SEED),),
                    max_inflight_per_graph=2, **PROC,
                ) as (_, client):
                    hot, cold = await asyncio.gather(
                        overload_burst(client, "demo", 4),
                        overload_burst(client, "alt", 2),
                    )
                    statz = await client.statz()
                    return hot, cold, statz

            hot, cold, statz = run_async(main())
        assert len(hot["ok"]) == 2 and len(hot["overloaded"]) == 2
        assert len(cold["ok"]) == 2 and not cold["overloaded"]
        for exc in hot["overloaded"]:
            assert exc.doc["error"]["reason"] == "max_inflight_per_graph"
            assert exc.doc["error"]["graph"] == "demo"
        assert statz["admission"]["rejected_per_graph"] == 2

    def test_queue_bound_rejects_past_max_queue(self):
        """The batch queue never grows past --max-queue: excess submits
        get 429 queue_full while the queued ones complete normally."""
        async def main():
            async with serve_harness(
                graphs=DEMO, max_queue=3,
            ) as (server, client):
                with held_barrier(server) as hold:
                    blocker = asyncio.ensure_future(
                        client.solve("demo", solver=GREEDY, seed=100))
                    await wait_until(lambda: hold.batches)
                    burst = asyncio.ensure_future(
                        overload_burst(client, "demo", 8))
                    await wait_until(
                        lambda: server.batcher.rejected_queue_full == 5)
                    hold.open()
                    buckets = await burst
                    await blocker
                statz = await client.statz()
                return buckets, statz, server.batcher.stats()

        buckets, statz, batch = run_async(main())
        assert len(buckets["ok"]) == 3
        assert len(buckets["overloaded"]) == 5
        for exc in buckets["overloaded"]:
            assert exc.doc["error"]["reason"] == "queue_full"
            assert exc.retry_after is not None
            assert exc.doc["error"]["retry_after_ms"] == 50.0
        for doc in buckets["ok"]:
            assert_matches_reference(
                doc, reference("matching.greedy_maximal", doc["seed"]))
        assert statz["queue"]["rejected_queue_full"] == 5
        assert batch["max_queue_seen"] <= 3

    def test_queue_bound_counts_requests_waiting_behind_a_barrier(self):
        """Every request waiting for a barrier counts against the
        readiness watermark and --max-queue, however long the barrier in
        flight runs: /readyz turns not-ready at the watermark, and once
        max_queue requests wait, the next one is shed with queue_full."""
        async def main():
            async with serve_harness(
                graphs=DEMO, max_queue=4, ready_watermark=2,
            ) as (server, client):
                with held_barrier(server) as hold:
                    blocker = asyncio.ensure_future(
                        client.solve("demo", solver=GREEDY, seed=100))
                    await wait_until(lambda: hold.batches)
                    queued = [asyncio.ensure_future(
                        client.solve("demo", solver=GREEDY, seed=s))
                        for s in range(2)]
                    await wait_until(lambda: server.batcher.requests == 3)
                    # A barrier that runs long changes nothing: the two
                    # requests keep waiting in the queue, and counted.
                    await asyncio.sleep(0.05)
                    at_watermark = await client.readyz()
                    queued += [asyncio.ensure_future(
                        client.solve("demo", solver=GREEDY, seed=s))
                        for s in range(2, 4)]
                    await wait_until(lambda: server.batcher.requests == 5)
                    with pytest.raises(ServeClientError) as err:
                        await client.solve("demo", solver=GREEDY, seed=9)
                    depth = server.batcher.queue_depth()
                    hold.open()
                    await blocker
                    docs = await asyncio.gather(*queued)
                return at_watermark, err.value, depth, docs, hold.batches

        at_watermark, shed, depth, docs, batches = run_async(main())
        ready, doc = at_watermark
        assert ready is False
        assert any("watermark 2" in r for r in doc["reasons"])
        assert shed.status == 429
        assert shed.doc["error"]["reason"] == "queue_full"
        assert depth == 4
        for seed, doc in enumerate(docs):
            assert_matches_reference(doc, reference(GREEDY, seed))
        # The four queued requests ran as one barrier behind the blocker.
        assert [len(b) for b in batches] == [1, 4]


# --------------------------------------------------------------------- #
# request deadlines
# --------------------------------------------------------------------- #
class TestDeadlines:
    def test_expired_in_queue_is_never_dispatched(self):
        """A request whose deadline passes while it waits behind a
        barrier is dropped before its own: 504, and the expired task
        never reaches the executor."""
        async def main():
            async with serve_harness(graphs=DEMO) as (server, client):
                with held_barrier(server) as hold:
                    blocker = asyncio.ensure_future(
                        client.solve("demo", solver=GREEDY, seed=100))
                    await wait_until(lambda: hold.batches)
                    late = asyncio.ensure_future(client.solve(
                        "demo", solver=GREEDY, seed=0, deadline_ms=40))
                    await wait_until(
                        lambda: server.batcher.queue_depth() == 1)
                    await asyncio.sleep(0.06)  # outlive the 40 ms budget
                    hold.open()
                    await blocker
                    with pytest.raises(ServeClientError) as err:
                        await late
                statz = await client.statz()
                return (err.value, statz, server.batcher.stats(),
                        hold.batches)

        exc, statz, batch, batches = run_async(main())
        assert exc.status == 504
        assert exc.code == "deadline_exceeded"
        assert exc.doc["error"]["deadline_ms"] == 40
        assert batch["expired_in_queue"] == 1
        # The whole point: never dispatched.  Only the blocker's barrier
        # reached the executor.
        assert [[t.seed for t in b] for b in batches] == [[100]]
        assert batch["batches"] == 1
        assert statz["deadlines"]["expired_in_queue"] == 1

    def test_expired_in_flight_spares_its_batchmates(self):
        """One entry expires while its shared batch executes: it gets a
        504, its batch-mate's result is bit-identical and untouched."""
        async def main():
            async with serve_harness(graphs=DEMO) as (server, client):
                with held_barrier(server) as hold:
                    blocker = asyncio.ensure_future(
                        client.solve("demo", solver=GREEDY, seed=100))
                    await wait_until(lambda: hold.batches)
                    pair = asyncio.gather(
                        client.solve("demo", solver=GREEDY, seed=1,
                                     deadline_ms=500),
                        client.solve("demo", solver=GREEDY, seed=2),
                        return_exceptions=True,
                    )
                    await wait_until(
                        lambda: server.batcher.queue_depth() == 2)
                    hold.release()  # the blocker's barrier runs...
                    await wait_until(lambda: len(hold.batches) == 2)
                    # ...and the pair's is in flight: outlive the budget.
                    await asyncio.sleep(0.55)
                    hold.open()
                    await blocker
                    tight, roomy = await pair
                return tight, roomy, server.batcher.stats()

        tight, roomy, batch = run_async(main())
        assert isinstance(tight, ServeClientError)
        assert tight.status == 504
        assert tight.code == "deadline_exceeded"
        assert isinstance(roomy, dict)
        assert roomy["batch_size"] == 2  # they shared the barrier
        assert_matches_reference(
            roomy, reference("matching.greedy_maximal", 2))
        assert batch["expired_in_flight"] == 1

    def test_default_and_cap_bound_every_request(self):
        """--default-deadline-ms covers clients that send none;
        --max-deadline-ms caps clients that ask for too much."""
        async def main():
            async with serve_harness(
                graphs=DEMO, default_deadline_ms=60.0, max_deadline_ms=80.0,
            ) as (server, client):
                with held_barrier(server) as hold:
                    # The blocker holds the barrier; its own (defaulted)
                    # budget runs out in flight.
                    blocker = asyncio.ensure_future(
                        client.solve("demo", solver=GREEDY, seed=100))
                    await wait_until(lambda: hold.batches)
                    queued = asyncio.gather(
                        client.solve("demo", solver=GREEDY, seed=0),
                        client.solve("demo", solver=GREEDY, seed=1,
                                     deadline_ms=500000),
                        return_exceptions=True,
                    )
                    await wait_until(
                        lambda: server.batcher.queue_depth() == 2)
                    await asyncio.sleep(0.1)  # outlive both budgets
                    hold.open()
                    outcomes = await queued
                    await asyncio.gather(blocker, return_exceptions=True)
                statz = await client.statz()
                return outcomes, statz

        (defaulted, capped), statz = run_async(main())
        assert isinstance(defaulted, ServeClientError)
        assert defaulted.status == 504
        assert defaulted.doc["error"]["deadline_ms"] == 60.0
        assert isinstance(capped, ServeClientError)
        assert capped.status == 504
        assert capped.doc["error"]["deadline_ms"] == 80.0  # not 500000
        assert statz["deadlines"]["expired_in_queue"] == 2
        assert statz["deadlines"]["expired_in_flight"] == 1  # the blocker

    def test_invalid_deadline_is_a_400(self):
        async def main():
            async with serve_harness(graphs=DEMO) as (_, client):
                outcomes = []
                for bad in (0, -5, "soon", True):
                    with pytest.raises(ServeClientError) as err:
                        await client.solve(
                            "demo", solver="matching.greedy_maximal",
                            seed=0, deadline_ms=bad)
                    outcomes.append(err.value)
                return outcomes

        for exc in run_async(main()):
            assert exc.status == 400
            assert exc.code == "bad_request"
            assert exc.doc["error"]["field"] == "deadline_ms"


# --------------------------------------------------------------------- #
# the circuit breaker, end to end
# --------------------------------------------------------------------- #
class TestBreaker:
    def test_kill_storm_opens_probes_reopen_then_recover(self, tmp_path):
        """The acceptance scenario: a kill-storm trips the breaker after
        `threshold` consecutive breaks; while open, requests shed with
        429 and create **no pools**; a half-open probe under fire reopens
        with doubled backoff; once the storm stops, the next probe closes
        the breaker and results are bit-identical again.  Pool creation
        stays bounded: one per re-warm/probe, never one per request."""
        async def main():
            stack = contextlib.ExitStack()
            stack.enter_context(chaos(tmp_path, kill=True, latch=False))
            try:
                async with serve_harness(
                    graphs=DEMO, breaker_threshold=2,
                    breaker_backoff_ms=400.0, step_down_after=0, **PROC,
                ) as (server, client):
                    errs = []
                    for _ in range(2):  # the storm: consecutive breaks
                        with pytest.raises(ServeClientError) as err:
                            await client.solve(
                                "demo", solver="matching.greedy_maximal",
                                seed=0)
                        errs.append(err.value)
                    # Breaker is now open: immediate shed, no pool churn.
                    pools_at_open = server.supervisor.pools_created_total
                    shed = []
                    for _ in range(5):
                        with pytest.raises(ServeClientError) as err:
                            await client.solve(
                                "demo", solver="matching.greedy_maximal",
                                seed=0)
                        shed.append(err.value)
                    open_statz = await client.statz()
                    pools_after_shed = server.supervisor.pools_created_total
                    # Backoff elapses; the probe batch runs INTO the still-
                    # armed storm → breaker reopens, backoff doubles.
                    await asyncio.sleep(0.45)
                    with pytest.raises(ServeClientError) as err:
                        await client.solve(
                            "demo", solver="matching.greedy_maximal", seed=0)
                    probe_err = err.value
                    reopen_statz = await client.statz()
                    # Storm over: disarm chaos, wait out the doubled
                    # backoff; the next probe forks a clean pool and wins.
                    stack.close()
                    await asyncio.sleep(0.85)
                    doc = await client.solve(
                        "demo", solver="matching.greedy_maximal", seed=5)
                    closed_statz = await client.statz()
                    ready, _ = await client.readyz()
                    return (errs, pools_at_open, shed, open_statz,
                            pools_after_shed, probe_err, reopen_statz,
                            doc, closed_statz, ready,
                            server.supervisor.pools_created_total)
            finally:
                stack.close()

        (errs, pools_at_open, shed, open_statz, pools_after_shed,
         probe_err, reopen_statz, doc, closed_statz, ready,
         pools_final) = run_async(main())
        for exc in errs:
            assert exc.status == 500
            assert exc.code == "worker_pool_broken"
        breaker = open_statz["breaker"]
        assert breaker["state"] == "open"
        assert breaker["opens_total"] == 1
        assert breaker["consecutive_breaks"] == 2
        for exc in shed:
            assert exc.status == 429
            assert exc.code == "overloaded"
            assert exc.doc["error"]["reason"] == "breaker_open"
            assert exc.retry_after is not None and exc.retry_after > 0
        # Shedding is free: zero pools created while open.
        assert pools_after_shed == pools_at_open
        assert breaker["rejected"] >= 5
        # The in-storm probe broke the replacement pool → reopened.
        assert probe_err.code == "worker_pool_broken"
        assert reopen_statz["breaker"]["state"] == "open"
        assert reopen_statz["breaker"]["opens_total"] == 2
        assert reopen_statz["breaker"]["retry_in_ms"] > 400  # doubled
        # Recovery: probe succeeded, breaker closed, answers correct.
        assert closed_statz["breaker"]["state"] == "closed"
        assert closed_statz["breaker"]["probes"] == 2
        assert ready is True
        assert_matches_reference(doc, reference("matching.greedy_maximal",
                                                5))
        # Bounded pool churn across the whole storm: boot + post-break
        # re-warm + two probes = 4, regardless of how many requests shed.
        assert pools_final == 4

    def test_readyz_flips_unready_then_ready_across_a_pool_break(
            self, tmp_path):
        """/readyz is the load-balancer view: ready at boot, unready the
        moment the breaker opens, ready again after the probe recovers.
        /healthz stays 200 throughout (liveness ≠ readiness)."""
        with chaos(tmp_path, kill=True):  # latch: exactly one kill
            async def main():
                async with serve_harness(
                    graphs=DEMO, breaker_threshold=1,
                    breaker_backoff_ms=300.0, **PROC,
                ) as (_, client):
                    ready_boot, _ = await client.readyz()
                    with pytest.raises(ServeClientError):
                        await client.solve(
                            "demo", solver="matching.greedy_maximal", seed=0)
                    ready_open, open_doc = await client.readyz()
                    health_open = await client.healthz()
                    await asyncio.sleep(0.35)
                    # Latch already claimed → the probe's fresh pool is
                    # clean and the probe solve succeeds.
                    doc = await client.solve(
                        "demo", solver="matching.greedy_maximal", seed=3)
                    ready_back, _ = await client.readyz()
                    statz = await client.statz()
                    return (ready_boot, ready_open, open_doc, health_open,
                            doc, ready_back, statz)

            (ready_boot, ready_open, open_doc, health_open, doc,
             ready_back, statz) = run_async(main())
        assert ready_boot is True
        assert ready_open is False
        assert any("breaker" in r for r in open_doc["reasons"])
        assert health_open["ok"] is True  # liveness unaffected
        assert_matches_reference(doc, reference("matching.greedy_maximal",
                                                3))
        assert ready_back is True
        assert statz["breaker"]["state"] == "closed"
        assert statz["breaker"]["opens_total"] == 1
        assert statz["breaker"]["probes"] == 1

    def test_readyz_respects_the_queue_watermark(self):
        """A backed-up batch queue flips /readyz before the queue bound
        is anywhere near — the early-warning seam for load balancers."""
        async def main():
            async with serve_harness(
                graphs=DEMO, ready_watermark=2,
            ) as (server, client):
                with held_barrier(server) as hold:
                    futs = [asyncio.ensure_future(client.solve(
                        "demo", solver=GREEDY, seed=100))]
                    await wait_until(lambda: hold.batches)
                    futs += [asyncio.ensure_future(client.solve(
                        "demo", solver=GREEDY, seed=s)) for s in range(2)]
                    await wait_until(
                        lambda: server.batcher.queue_depth() == 2)
                    ready_loaded, doc = await client.readyz()
                    hold.open()
                    await asyncio.gather(*futs)
                ready_after, _ = await client.readyz()
                return ready_loaded, doc, ready_after

        ready_loaded, doc, ready_after = run_async(main())
        assert ready_loaded is False
        assert any("watermark" in r for r in doc["reasons"])
        assert ready_after is True


# --------------------------------------------------------------------- #
# queue-wait and barrier percentiles on /statz
# --------------------------------------------------------------------- #
class TestQueueLatency:
    def test_statz_reports_wait_and_barrier_percentiles(self):
        """Every dispatched request adds one queue-wait sample and every
        barrier one barrier sample; each ring reports ordered p50, p95
        and p99."""
        async def main():
            async with serve_harness(graphs=DEMO) as (server, client):
                before = (await client.statz())["queue"]
                with held_barrier(server) as hold:
                    futs = [asyncio.ensure_future(
                        client.solve("demo", solver=GREEDY, seed=100))]
                    await wait_until(lambda: hold.batches)
                    futs += [asyncio.ensure_future(client.solve(
                        "demo", solver=GREEDY, seed=s)) for s in range(3)]
                    await wait_until(
                        lambda: server.batcher.queue_depth() == 3)
                    hold.open()
                    await asyncio.gather(*futs)
                return before, (await client.statz())["queue"]

        before, after = run_async(main())
        empty = {"samples": 0, "p50": None, "p95": None, "p99": None}
        assert before["wait_ms"] == before["barrier_ms"] == empty
        assert after["wait_ms"]["samples"] == 4
        assert after["barrier_ms"]["samples"] == 2  # blocker, then three
        for ring in (after["wait_ms"], after["barrier_ms"]):
            assert 0 <= ring["p50"] <= ring["p95"] <= ring["p99"]

    def test_percentiles_are_nearest_rank_over_a_bounded_ring(self):
        from collections import deque

        from repro.serve.batcher import RING_SIZE, _percentiles

        ring = deque(maxlen=RING_SIZE)
        ring.extend(float(x) for x in range(1, 101))
        assert _percentiles(ring) == {"samples": 100, "p50": 50.0,
                                      "p95": 95.0, "p99": 99.0}
        ring.extend([0.0] * RING_SIZE)  # the newest replace the oldest
        assert _percentiles(ring)["samples"] == RING_SIZE
        assert _percentiles(ring)["p99"] == 0.0


# --------------------------------------------------------------------- #
# the supervisor state machine, exactly (fake clock, no server)
# --------------------------------------------------------------------- #
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _FakeExecutor:
    """Just enough executor for supervisor unit tests."""

    def __init__(self, name="processes"):
        self.name = name
        self.pools_created = 0
        self.maps = 0
        self._closed = False

    def map(self, fn, tasks):
        self.maps += 1
        return [fn(t) for t in tasks]

    def close(self):
        self._closed = True


class TestSupervisorUnit:
    def _sup(self, executor=None, **kw):
        from repro.serve.resilience import ExecutorSupervisor

        clock = _Clock()
        kw.setdefault("threshold", 2)
        kw.setdefault("backoff_s", 1.0)
        kw.setdefault("max_backoff_s", 4.0)
        kw.setdefault("step_down_after", 0)
        sup = ExecutorSupervisor(executor or _FakeExecutor(),
                                 clock=clock, **kw)
        return sup, clock

    def test_closed_open_half_open_closed_cycle(self):
        from repro.serve import Overloaded

        sup, clock = self._sup()
        assert sup.on_dispatch() == "ok"
        assert sup.on_break() == "rewarm"  # isolated: PR 7 semantics
        assert sup.state == "closed"
        assert sup.on_break() == "opened"  # threshold=2 consecutive
        assert sup.state == "open"
        with pytest.raises(Overloaded) as err:
            sup.on_submit()
        assert 0 < err.value.retry_after_s <= 1.0
        with pytest.raises(Overloaded):
            sup.on_dispatch()
        clock.now = 1.1  # backoff elapsed
        sup.on_submit()  # allowed to queue now
        assert sup.on_dispatch() == "probe"
        assert sup.state == "half_open"
        assert sup.on_break() == "reopened"  # probe failed
        assert sup.state == "open"
        assert sup.retry_after_s() == pytest.approx(2.0)  # doubled
        clock.now = 3.2
        assert sup.on_dispatch() == "probe"
        sup.on_success()
        assert sup.state == "closed"
        assert sup.consecutive_breaks == 0
        assert sup.retry_after_s() == 0.0
        # Backoff reset: the next opening starts from 1s again.
        sup.on_break(), sup.on_break()
        assert sup.retry_after_s() == pytest.approx(1.0)

    def test_success_resets_the_consecutive_count(self):
        sup, _ = self._sup(threshold=3)
        sup.on_break(), sup.on_break()
        sup.on_success()  # a healthy barrier in between
        assert sup.on_break() == "rewarm"  # count restarted, not "opened"
        assert sup.state == "closed"

    def test_backoff_is_capped(self):
        sup, clock = self._sup(threshold=1, backoff_s=1.0, max_backoff_s=4.0)
        sup.on_break()
        for i in range(5):  # probe-fail repeatedly
            clock.now += 10.0
            assert sup.on_dispatch() == "probe"
            sup.on_break()
        assert sup.retry_after_s() <= 4.0

    def test_step_down_walks_remote_processes_serial(self):
        """The degradation chain: enough consecutive openings swap the
        backend for the next more conservative one, with a clean breaker
        each time, and `serial` is the floor."""
        sup, clock = self._sup(_FakeExecutor(name="remote"),
                               threshold=1, step_down_after=1)
        try:
            assert sup.on_break() == "opened"
            clock.now += 2.0
            assert sup.on_dispatch() == "probe"
            assert sup.on_break() == "stepped_down"
            assert sup.backend == "processes"
            assert sup.state == "closed"  # the new backend starts clean
            assert sup.step_downs == [("remote", "processes")]

            assert sup.on_break() == "opened"
            clock.now += 2.0
            assert sup.on_dispatch() == "probe"
            assert sup.on_break() == "stepped_down"
            assert sup.backend == "serial"
            assert sup.step_downs == [("remote", "processes"),
                                      ("processes", "serial")]

            # serial is the floor: the cycle keeps open/probing, no swap.
            assert sup.on_break() == "opened"
            clock.now += 2.0
            assert sup.on_dispatch() == "probe"
            assert sup.on_break() == "reopened"
            assert sup.backend == "serial"
        finally:
            sup.close()

    def test_pools_created_total_spans_step_downs(self):
        fake = _FakeExecutor(name="processes")
        fake.pools_created = 7
        sup, clock = self._sup(fake, threshold=1, step_down_after=1)
        try:
            sup.on_break()
            clock.now += 2.0
            sup.on_dispatch()
            assert sup.on_break() == "stepped_down"
            assert fake._closed  # the retired backend was released
            # The retired backend's pools still count toward the total.
            assert sup.pools_created_total >= 7
        finally:
            sup.close()

    def test_rewarm_marks_the_pool_warm(self):
        fake = _FakeExecutor()
        sup, _ = self._sup(fake)
        assert sup.pool_warm is False
        assert sup.ready() == (False, ["worker pool is not warm"])
        sup.rewarm()
        assert fake.maps == 1
        assert sup.pool_warm is True
        assert sup.ready() == (True, [])


# --------------------------------------------------------------------- #
# remote degradation observability (the PR 6 seam, surfaced)
# --------------------------------------------------------------------- #
class TestRemoteDegradationObservability:
    def test_remote_executor_stats_expose_the_fallback(self, monkeypatch):
        """RemoteExecutor.stats() records the remote→processes fallback:
        degraded flag, event count, and the fallback backend's stats."""
        from chaos import square
        from repro.dist.remote import RemoteDegradedWarning, RemoteExecutor

        monkeypatch.setenv("REPRO_REMOTE_SPAWN", "0")
        ex = RemoteExecutor(max_workers=2, connect_timeout=0.2)
        try:
            assert ex.stats()["degraded"] is False
            assert ex.stats()["fallback_events"] == 0
            with pytest.warns(RemoteDegradedWarning):
                assert ex.map(square, [1, 2, 3]) == [1, 4, 9]
            stats = ex.stats()
            assert stats["backend"] == "remote"
            assert stats["degraded"] is True
            assert stats["fallback_events"] == 1
            assert stats["fallback"]["backend"] == "processes"
        finally:
            ex.close()

    def test_statz_surfaces_remote_degradation_when_serving(
            self, monkeypatch):
        """Serving over --executor remote with no fleet: the boot warm-up
        degrades to processes, requests still serve bit-identically, and
        GET /statz shows the whole story."""
        from repro.dist.remote import RemoteDegradedWarning

        monkeypatch.setenv("REPRO_REMOTE_SPAWN", "0")
        monkeypatch.setenv("REPRO_REMOTE_CONNECT_TIMEOUT", "0.3")

        async def main():
            async with serve_harness(
                graphs=DEMO, executor="remote", workers=2,
            ) as (_, client):
                doc = await client.solve(
                    "demo", solver="matching.greedy_maximal", seed=4)
                statz = await client.statz()
                return doc, statz

        with pytest.warns(RemoteDegradedWarning):
            doc, statz = run_async(main())
        assert_matches_reference(doc, reference("matching.greedy_maximal",
                                                4))
        ex = statz["executor"]
        assert ex["backend"] == "remote"
        assert ex["degraded"] is True
        assert ex["fallback_events"] == 1
        assert ex["fallback"]["backend"] == "processes"
        assert statz["breaker"]["backend"] == "remote"
        assert statz["ready"] is True


# --------------------------------------------------------------------- #
# client retries
# --------------------------------------------------------------------- #
class TestClientRetries:
    def test_connect_retry_rides_out_a_late_server(self):
        """retries= with jittered backoff bridges a server that isn't
        listening yet — the reconnect loop tests used to hand-roll."""
        from repro.serve import ReproServer, ServeConfig

        async def main():
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
            probe.close()
            client = ServeClient(port=port, retries=8, backoff=0.05)

            async def boot_late():
                await asyncio.sleep(0.4)
                server = ReproServer(ServeConfig(port=port))
                await server.start()
                return server

            boot = asyncio.ensure_future(boot_late())
            started = time.monotonic()
            doc = await client.healthz()
            waited = time.monotonic() - started
            server = await boot
            await server.aclose()
            return doc, waited

        doc, waited = run_async(main())
        assert doc["ok"] is True
        assert waited >= 0.3  # it really did wait through retries

    def test_zero_retries_keeps_the_old_contract(self):
        """Default retries=0: a dead port raises immediately."""
        async def main():
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
            probe.close()
            await ServeClient(port=port).healthz()

        with pytest.raises(OSError):
            run_async(main())

    def test_429_retry_honors_the_advisory_delay(self, tmp_path):
        """A retrying client that hits an open breaker sleeps out the
        server's Retry-After and lands exactly on the successful probe."""
        with chaos(tmp_path, kill=True):  # latch: one kill, then clean
            async def main():
                async with serve_harness(
                    graphs=DEMO, breaker_threshold=1,
                    breaker_backoff_ms=300.0, **PROC,
                ) as (server, client):
                    with pytest.raises(ServeClientError):
                        await client.solve(
                            "demo", solver="matching.greedy_maximal", seed=0)
                    # Breaker is open.  A non-retrying probe proves it...
                    with pytest.raises(ServeClientError) as err:
                        await client.solve(
                            "demo", solver="matching.greedy_maximal", seed=6)
                    assert err.value.status == 429
                    # ...and a retrying client waits it out and succeeds.
                    patient = ServeClient(port=server.port, retries=4,
                                          backoff=0.05)
                    started = time.monotonic()
                    doc = await patient.solve(
                        "demo", solver="matching.greedy_maximal", seed=6)
                    waited = time.monotonic() - started
                    statz = await client.statz()
                    return err.value, doc, waited, statz

            exc, doc, waited, statz = run_async(main())
        assert exc.retry_after is not None and exc.retry_after > 0
        assert_matches_reference(doc, reference("matching.greedy_maximal",
                                                6))
        assert waited >= 0.1  # it slept on the advisory delay
        assert statz["breaker"]["state"] == "closed"
        assert statz["breaker"]["rejected"] >= 2


# --------------------------------------------------------------------- #
# drain: SIGTERM with a non-empty queue
# --------------------------------------------------------------------- #
class TestDrain:
    def test_drain_flushes_queued_requests_to_completion(self):
        """A healthy drain doesn't drop queued work: entries waiting
        behind the barrier in flight when the drain starts are run and
        answered; only *new* work is refused (503 shutting_down)."""
        async def main():
            async with serve_harness(graphs=DEMO) as (server, client):
                with held_barrier(server) as hold:
                    blocker = asyncio.ensure_future(
                        client.solve("demo", solver=GREEDY, seed=100))
                    await wait_until(lambda: hold.batches)
                    futs = [asyncio.ensure_future(client.solve(
                        "demo", solver=GREEDY, seed=s)) for s in range(2)]
                    await wait_until(
                        lambda: server.batcher.queue_depth() == 2)
                    drain = asyncio.ensure_future(server.batcher.drain())
                    await wait_until(lambda: server.batcher.draining)
                    hold.open()
                    await drain
                    await blocker
                docs = await asyncio.gather(*futs)
                with pytest.raises(ServeClientError) as err:
                    await client.solve(
                        "demo", solver="matching.greedy_maximal", seed=9)
                return docs, err.value

        docs, refused = run_async(main())
        for seed, doc in enumerate(docs):
            assert_matches_reference(
                doc, reference("matching.greedy_maximal", seed))
        assert refused.status == 503
        assert refused.code == "shutting_down"

    def test_drain_503s_queued_work_when_the_breaker_is_open(
            self, tmp_path):
        """Draining with the breaker open: queued requests can never be
        dispatched, so they get structured 503s instead of hanging until
        a probe that will never come."""
        with chaos(tmp_path, kill=True, latch=False):
            async def main():
                async with serve_harness(
                    graphs=DEMO + (("alt", GRAPH_SPEC, GRAPH_SEED),),
                    breaker_threshold=1, breaker_backoff_ms=20000.0,
                    **PROC,
                ) as (server, client):
                    with held_barrier(server) as hold:
                        # One on 'demo' holds the barrier; once released,
                        # the kill-storm breaks the pool and the breaker
                        # opens.
                        broken = asyncio.gather(
                            client.solve("demo", solver=GREEDY, seed=1),
                            return_exceptions=True,
                        )
                        await wait_until(lambda: hold.batches)
                        # One request queued on 'alt' behind them.
                        queued = asyncio.ensure_future(client.solve(
                            "alt", solver=GREEDY, seed=0))
                        await wait_until(
                            lambda: server.batcher.queue_depth() == 1)
                        # SIGTERM path; idempotent.
                        closing = asyncio.ensure_future(server.aclose())
                        await wait_until(lambda: server.batcher.draining)
                        hold.open()
                        await closing
                    outcome = await asyncio.gather(
                        queued, return_exceptions=True)
                    return await broken, outcome[0]

            broken, queued_outcome = run_async(main())
        for exc in broken:
            assert isinstance(exc, ServeClientError)
            assert exc.code == "worker_pool_broken"
        assert isinstance(queued_outcome, ServeClientError)
        assert queued_outcome.status == 503
        assert queued_outcome.code == "shutting_down"
