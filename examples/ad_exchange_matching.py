#!/usr/bin/env python
"""Distributed ad-exchange allocation, served over HTTP.

Scenario: an ad exchange must match advertisers to impression slots.  Bid
logs (edges: advertiser × slot, weight = bid value) arrive sharded across
k ingestion servers.  We want a high-value allocation (a maximum-weight
matching) with one round of communication — and we want it *as a
service*: the bid log is pinned once, then allocation queries hit a warm
``repro serve`` instance instead of re-running scripts.

The solver behind ``/solve`` is the Crouch–Stubbs weighted extension
(paper §1.1): every server buckets its bids into geometric value classes,
computes a maximum matching *inside each class* (the Theorem 1 coreset
per class), and ships the union; the coordinator greedily merges from the
highest value class down.

This example boots a :class:`repro.serve.ReproServer` in-process (no
subprocess, no port juggling — the same server ``repro serve`` runs),
registers the bid log from an ``.npz`` file exactly as an operator would
(``POST /graphs``), then:

* runs a ``/compare`` of the weighted coreset at two class widths (the
  communication baseline — shipping every raw bid — is arithmetic), and
* fires a burst of concurrent ``/solve`` queries to show micro-batching
  (one executor barrier for the burst) and per-seed determinism.

Run:  python examples/ad_exchange_matching.py
"""

import asyncio
import tempfile
from pathlib import Path

import numpy as np

from repro.graph.generators import bipartite_gnp
from repro.graph.io import save_npz
from repro.graph.weights import WeightedGraph
from repro.serve import ReproServer, ServeClient, ServeConfig
from repro.utils.rng import spawn_generators


def make_bid_log(n_advertisers, n_slots, rng):
    """Bipartite bid graph with log-normal bid values (heavy-tailed, like
    real auctions).  Dense: every advertiser bids on many slots, which is
    the regime where shipping coresets instead of raw bid logs pays off.
    """
    base = bipartite_gnp(n_advertisers, n_slots, p=80.0 / n_slots, rng=rng)
    bids = np.exp(rng.normal(loc=0.0, scale=1.2, size=base.n_edges)) + 0.01
    return WeightedGraph(base.n_vertices, base.edges, bids, validated=True)


async def main() -> None:
    rng = spawn_generators(seed=42, n=1)[0]
    n_adv = n_slots = 1000
    k = 8
    wg = make_bid_log(n_adv, n_slots, rng)
    print(f"bid log: {wg.n_edges} bids, {n_adv} advertisers, "
          f"{n_slots} slots, total value {wg.total_weight():.0f}")

    with tempfile.TemporaryDirectory() as tmp:
        # Operators hand the server a file path, not a live object: the
        # ingest pipeline drops bid logs as .npz, the server pins them.
        bid_log_path = Path(tmp) / "bid_log.npz"
        save_npz(bid_log_path, wg)

        async with ReproServer(ServeConfig()) as server:
            client = ServeClient(port=server.port)
            info = await client.register_graph("bids", str(bid_log_path))
            print(f"pinned via POST /graphs: kind={info['kind']} "
                  f"n={info['n_vertices']} m={info['n_edges']}")

            # -- side-by-side: class width vs. allocation value ---------- #
            doc = await client.compare("bids", [
                {"solver": "matching.weighted_coreset",
                 "params": {"epsilon": 0.5}, "label": "classes 1.5x wide"},
                {"solver": "matching.weighted_coreset",
                 "params": {"epsilon": 1.0}, "label": "classes 2x wide"},
            ], seed=7, k=k)
            ship_bits = wg.n_edges * 24  # 2×int32 endpoints + fp bid each
            for col in doc["solvers"]:
                bits = col["result"]["stats"].get("total_bits")
                print(f"  {col['label']:<20} value {col['result']['value']:>8.0f}"
                      f"  comm {bits:>12,} bits"
                      f"  verified={col['result']['verified']}")
            best = doc["summary"]["best_value"]
            print(f"  best allocation value: {best:.0f} "
                  f"(all {doc['summary']['completed']} columns in one batch)")

            # -- a burst of concurrent queries: micro-batching ---------- #
            seeds = list(range(8))
            docs = await asyncio.gather(*(
                client.solve("bids", solver="matching.weighted_coreset",
                             seed=s, k=k, params={"epsilon": 0.5})
                for s in seeds
            ))
            again = await client.solve("bids",
                                       solver="matching.weighted_coreset",
                                       seed=seeds[0], k=k,
                                       params={"epsilon": 0.5})
            values = [d["result"]["value"] for d in docs]
            batched = max(d["batch_size"] for d in docs)
            print(f"\nburst of {len(seeds)} concurrent queries "
                  f"(max batch {batched}):")
            print(f"  allocation values by seed: "
                  f"{', '.join(f'{v:.0f}' for v in values)}")
            strip = lambda d: {x: v for x, v in d.items()
                               if x != "wall_time_s"}
            print(f"  seed {seeds[0]} replayed: "
                  f"{again['result']['value']:.0f} "
                  f"(bit-identical: "
                  f"{strip(again['result']) == strip(docs[0]['result'])})")

            stats = await client.stats()
            b = stats["batcher"]
            print(f"\nserver stats: {b['requests']} solves in "
                  f"{b['batches']} batches "
                  f"(largest {b['max_batch_seen']}); "
                  f"coreset comm at eps=0.5 was "
                  f"{docs[0]['result']['stats']['total_bits']:,} bits vs "
                  f"{ship_bits:,} to ship every bid")


if __name__ == "__main__":
    asyncio.run(main())
