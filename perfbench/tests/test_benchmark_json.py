"""``BENCHMARK.json`` and the runner agree on every name and unit."""

import json

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_and_metrics_match_the_runner():
    assert {w["name"] for w in BENCH["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == \
        run.PER_LAYER


def test_bounds_and_setup():
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


def test_not_applicable_metrics_are_filled():
    summary = {"metrics": {"setup_s": 1.0, "latency_p50_ms": 2.0,
                           "latency_p90_ms": 3.0, "throughput_per_s": 5.0, "cover_ratio": 1.5,
                           "coreset_bits": 6.0, "peak_rss_mb": 7.0}}
    metrics = run.result_metrics(summary, trace=0)
    assert metrics["matching_ratio"] == {"value": 1.0, "unit": "ratio"}
    assert metrics["cover_ratio"]["value"] == 1.5
    layer = run.result_metrics({"metrics": {"graph.pieces_ms": 3.0}},
                               trace=1)
    assert layer["graph.pieces_ms"]["value"] == 3.0
    assert layer["client.lag_ms_p99"]["value"] == 0
