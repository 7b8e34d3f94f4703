"""Run one workload over several seeds and print, per metric, the median,
the quartiles and the spread (interquartile range over the median) next
to the metric's bound in ``BENCHMARK.json``.

    python3 perfbench/spread.py --workload coreset-matching --seeds 1-10

A workload is steady when every end-to-end spread stays below a third of
its bound.  Runs are sequential, one ``run.py`` call each, for
``run_seconds``; the last line is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from measure import quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> List[int]:
    """``"1-10"`` or ``"3,5,8"``."""
    if "-" in text:
        low, high = (int(part) for part in text.split("-", 1))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = bench["per_layer" if args.trace else "end_to_end"]

    runs, walls = [], []
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"wall={walls[-1]:.1f}s " + " ".join(
                  f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                  for m in table), flush=True)

    rows, steady = {}, True
    for metric in table:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        q1, mid, q3 = quartiles(values)
        share = spread(values) if mid else None
        bound = metric.get("bound")
        ok = bound is None or (share is not None and share < bound / 3)
        steady &= ok
        rows[name] = {"median": mid, "q1": q1, "q3": q3, "spread": share,
                      "bound": bound, "ok": ok}
        shown = "n/a" if share is None else f"{share:.4f}"
        print(f"{name:28s} median {mid:<14.6g} q1 {q1:<14.6g} "
              f"q3 {q3:<14.6g} spread {shown:8s} bound {bound} "
              f"{'ok' if ok else 'WIDE'}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "trace": args.trace, "steady": steady,
                      "all_correct": all(r["correct"] for r in runs),
                      "wall_s": walls, "metrics": rows}))
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
