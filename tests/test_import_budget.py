"""What each entry path imports, checked in a fresh interpreter.

A process loads only what the code it runs needs: scipy costs about half a
second to import, so a solve that never calls it must not load it, and
building the CLI parser must not load the experiments package.  Each case
runs in its own interpreter on the ``serial`` executor and reports which
modules it loaded, so nothing here depends on timing.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PRELUDE = """
import json, sys

def loaded(package):
    return sorted(m for m in sys.modules
                  if m == package or m.startswith(package + "."))
"""


def _fresh(code: str) -> dict:
    """Run ``code`` after :data:`PRELUDE` in a new interpreter; return the
    JSON document it prints last."""
    env = {**os.environ, "PYTHONPATH": SRC, "REPRO_EXECUTOR": "serial"}
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)], env=env,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cover_coreset_of_a_plain_graph_loads_no_scipy():
    doc = _fresh("""
        from repro.graph.edgelist import Graph
        from repro.solve import RunContext, load_graph, solve

        g = load_graph("skewed:n=400", rng=5)
        r = solve(Graph(g.n_vertices, g.edges), "vertex_cover.coreset",
                  RunContext(seed=3, k=4, executor="serial"))
        print(json.dumps({"verified": r.verified,
                          "scipy": loaded("scipy")}))
    """)
    assert doc == {"verified": True, "scipy": []}


def test_matching_coreset_loads_csgraph_and_lp_loads_optimize_on_first_use():
    doc = _fresh("""
        from repro.solve import RunContext, load_graph, solve

        g = load_graph("planted:n=400", rng=5)
        ctx = RunContext(seed=3, k=4, executor="serial")
        m = solve(g, "matching.coreset", ctx)
        after_matching = loaded("scipy")
        lp = solve(g, "vertex_cover.lp", ctx)
        print(json.dumps({
            "bipartite": type(g).__name__,
            "verified": [m.verified, lp.verified],
            "csgraph": "scipy.sparse.csgraph" in after_matching,
            "optimize": ["scipy.optimize" in after_matching,
                         "scipy.optimize" in loaded("scipy")],
        }))
    """)
    assert doc == {"bipartite": "BipartiteGraph", "verified": [True, True],
                   "csgraph": True, "optimize": [False, True]}


def test_cli_parser_loads_neither_experiments_nor_scipy():
    doc = _fresh("""
        from repro.cli import build_parser

        args = build_parser().parse_args(["bench", "--quick", "--out", "-"])
        print(json.dumps({"bench": [args.quick, args.out, args.check],
                          "experiments": loaded("repro.experiments"),
                          "scipy": loaded("scipy")}))
    """)
    assert doc == {"bench": [True, "-", False], "experiments": [],
                   "scipy": []}


def test_coreset_solve_loads_the_remote_backend_only_when_asked():
    doc = _fresh("""
        from repro.graph.edgelist import Graph
        from repro.solve import RunContext, load_graph, solve

        g = load_graph("skewed:n=400", rng=5)
        g = Graph(g.n_vertices, g.edges)
        local = solve(g, "vertex_cover.coreset",
                      RunContext(seed=3, k=4, executor="serial"))
        after_solve = loaded("repro.dist.remote")
        from repro.dist import RemoteExecutor
        from repro.dist import *  # noqa: F403 - every exported name resolves
        remote = solve(g, "vertex_cover.coreset",
                       RunContext(seed=3, k=4, executor="remote", workers=1))
        print(json.dumps({
            "after_solve": after_solve,
            "backend": RemoteExecutor.__module__,
            "star": RemoteTaskError.__name__,
            "same": [remote.certificate.tolist() == local.certificate.tolist(),
                     remote.stats["total_bits"] == local.stats["total_bits"]],
        }))
    """)
    assert doc == {"after_solve": [], "backend": "repro.dist.remote",
                   "star": "RemoteTaskError", "same": [True, True]}
