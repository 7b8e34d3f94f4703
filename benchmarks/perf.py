#!/usr/bin/env python
"""Standalone substrate perf harness — the script form of ``repro bench``.

Runs every section of :mod:`repro.experiments.bench` (pool lifecycle,
matching scan, solver facade, remote backend) and writes
``BENCH_substrate.json``.  Not
collected by pytest (the tier-1 suite and the ``bench_e*.py`` experiment
benchmarks have their own entry points); invoke it directly when iterating
on the substrate without an installed console script:

    PYTHONPATH=src python benchmarks/perf.py --quick --check

``assert_substrate_claims`` is importable for ad-hoc use: it raises
``AssertionError`` naming the first violated claim of a bench document,
which is exactly what the ``substrate-perf`` CI job enforces via
``repro bench --quick --check``.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Allow running from a source checkout without an installed package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:  # pragma: no cover
    sys.path.insert(0, str(_SRC))

from repro.experiments.bench import main, run_substrate_bench  # noqa: E402

__all__ = ["assert_substrate_claims", "main", "run_substrate_bench"]


def assert_substrate_claims(doc: dict) -> None:
    """Raise ``AssertionError`` on the first violated substrate claim."""
    checks = doc["checks"]
    assert checks["all_outputs_identical"], (
        "a backend variant produced different outputs — the determinism "
        "contract is broken"
    )
    assert checks["persistent_pool_faster_than_cold"], (
        "persistent process pools were not faster than per-call pools"
    )
    assert checks["solver_facade_all_verified"], (
        "a repro.solve facade solver returned an unverified certificate"
    )


if __name__ == "__main__":
    raise SystemExit(main())
