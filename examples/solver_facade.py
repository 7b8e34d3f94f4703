#!/usr/bin/env python
"""The unified solver facade: every algorithm behind one API.

The paper treats algorithms as black boxes; ``repro.solve`` makes that
literal.  This example runs the *same seeded workload* through one solver
per execution model — offline, coreset, MapReduce, streaming — plus two
vertex-cover solvers, comparing values, communication, and wall clock
from the uniform ``SolveResult``, without importing a single algorithm
module.

Run:  python examples/solver_facade.py
"""

from repro.solve import RunContext, get_solver, load_graph, solve
from repro.utils.rng import spawn_seeds


def main() -> None:
    graph_seed, solve_seed = spawn_seeds(0, 2)
    graph = load_graph("planted:n=4000", rng=graph_seed)
    print(f"graph: n={graph.n_vertices}, m={graph.n_edges}\n")

    # The same context drives every solver: one seed, k machines for the
    # distributed models (offline/streaming solvers ignore k).
    ctx = RunContext(seed=solve_seed, k=8)

    print(f"{'solver':32s} {'model':10s} {'value':>7s} {'verified':>8s} "
          f"{'wall':>8s}  extra")
    for name in (
        "matching.maximum",            # offline optimum (the denominator)
        "matching.coreset",            # Theorem 1, simultaneous model
        "matching.mapreduce",          # §1.1, ≤ 2 rounds
        "matching.streaming_greedy",   # one-pass semi-streaming
        "vertex_cover.konig",          # exact bipartite VC
        "vertex_cover.coreset",        # Theorem 2
    ):
        res = solve(graph, name, ctx)
        spec = get_solver(name)
        extra = ""
        if "total_bits" in res.stats:
            extra = f"{res.stats['total_bits']} bits"
        elif "n_rounds" in res.stats:
            extra = f"{res.stats['n_rounds']} rounds"
        elif "memory_words" in res.stats:
            extra = f"{res.stats['memory_words']} words"
        print(f"{name:32s} {spec.model:10s} {res.value:7g} "
              f"{str(res.verified):>8s} {res.wall_time_s:7.3f}s  {extra}")

    # Re-running with the same context is bit-identical — the contract
    # every backend (serial/processes/remote) upholds.
    again = solve(graph, "matching.coreset", ctx)
    first = solve(graph, "matching.coreset", ctx)
    assert (first.certificate == again.certificate).all()
    print("\nsame RunContext → bit-identical certificate: OK")


if __name__ == "__main__":
    main()
