"""Tests for the execution backends and their determinism contract.

The load-bearing property (docs/PARALLELISM.md): for the same seed, every
backend — serial, processes, remote — produces bit-identical protocol
outputs, messages, and ledger totals, because engines compose per-machine
results in machine-index order, never completion order.

Helpers here are module-level on purpose: the ``processes`` backend pickles
every task into a worker, which closures and lambdas cannot survive (that
failure mode gets its own tests below).
"""

import os

import numpy as np
import pytest

from repro.dist.coordinator import SimultaneousProtocol, run_simultaneous
from repro.dist.executor import (
    EXECUTOR_ENV,
    WORKERS_ENV,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    UnpicklableTaskError,
    available_backends,
    resolve_executor,
    serial_inner_engines,
)
from repro.dist.message import Message
from repro.graph.generators import bipartite_gnp, gnp
from repro.graph.partition import random_k_partition

BACKENDS = ["serial", "processes"]
#: The backends whose runs are compared against serial's.
POOLED = ["processes"]


def _echo_summarizer(piece, machine_index, rng, public=None):
    return Message(sender=machine_index, edges=piece.edges)


def _union_combine(coordinator, messages):
    return coordinator.union_graph(messages)


def _square(x):
    return x * x


def _first(task):
    return task[0]


# --------------------------------------------------------------------- #
# resolution
# --------------------------------------------------------------------- #
class TestResolveExecutor:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "processes")
        assert isinstance(resolve_executor(None), ProcessExecutor)

    def test_workers_env_var(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_executor("processes").max_workers == 3

    @pytest.mark.parametrize("name,cls", [
        ("serial", SerialExecutor),
        ("processes", ProcessExecutor),
        ("PROCESSES", ProcessExecutor),  # case-insensitive
        ("mp", ProcessExecutor),         # alias
    ])
    def test_names_and_aliases(self, name, cls):
        assert isinstance(resolve_executor(name), cls)

    @pytest.mark.parametrize("name", ["threads", "THREADS", "thread"])
    def test_threads_is_not_a_backend(self, name):
        with pytest.raises(ValueError,
                           match="available backends: serial, processes, "
                                 "remote$"):
            resolve_executor(name)

    def test_instance_passes_through(self):
        ex = ProcessExecutor(max_workers=2)
        assert resolve_executor(ex) is ex

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu")

    def test_bad_worker_count_rejected(self):
        # validate_workers owns the rule for every consumer (constructors,
        # $REPRO_WORKERS, and the CLI's --workers flag).
        from repro.dist.executor import validate_workers

        with pytest.raises(ValueError, match="worker count"):
            ProcessExecutor(max_workers=0)
        with pytest.raises(ValueError, match="worker count"):
            validate_workers(0)
        assert validate_workers(3) == 3

    def test_available_backends(self):
        assert available_backends() == ("serial", "processes", "remote")


# --------------------------------------------------------------------- #
# the map contract
# --------------------------------------------------------------------- #
class TestMapOrder:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_input_order(self, backend):
        ex = resolve_executor(backend, workers=4)
        assert ex.map(_square, range(20)) == [i * i for i in range(20)]

    def test_empty_and_singleton(self):
        for backend in BACKENDS:
            ex = resolve_executor(backend)
            assert ex.map(_square, []) == []
            assert ex.map(_square, [7]) == [49]

    def test_abstract_map_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Executor().map(_square, [1])


# --------------------------------------------------------------------- #
# tasks of equal cost: one pool call per worker
# --------------------------------------------------------------------- #
def _draw(i):
    return i, np.random.default_rng(i).bytes(32)


def _pid(_):
    return os.getpid()


def _exit_on(flag):
    if flag:
        os._exit(13)
    return flag


#: A lambda bound at module level: pickle looks it up by its name,
#: ``<lambda>``, and raises ``PicklingError``.
_MODULE_LAMBDA = lambda: 6  # noqa: E731


def _count_submits(ex):
    """Start ``ex``'s pool and record every call item it is handed."""
    pool = ex._ensure_pool()
    submitted = []
    submit = pool.submit

    def counting_submit(fn, *args, **kwargs):
        submitted.append(args)
        return submit(fn, *args, **kwargs)

    pool.submit = counting_submit
    return submitted


class TestEqualCostBlocks:
    """``map(..., equal_cost=True)`` hands a process pool one call item per
    worker, carrying ceil(n / W) consecutive tasks; every other map goes
    task by task.  The map contract is the same either way."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_results_in_input_order_and_identical_to_serial(self, workers):
        with ProcessExecutor(max_workers=workers) as ex:
            ex.map(_square, range(workers))  # the pooled path from here on
            for n in (0, 1, workers - 1, workers, workers + 1, 8):
                tasks = list(range(100, 100 + n))
                assert ex.map(_draw, tasks, equal_cost=True) == \
                    SerialExecutor().map(_draw, tasks)

    def test_eight_tasks_on_two_workers_are_two_pool_calls(self):
        with ProcessExecutor(max_workers=2) as ex:
            submitted = _count_submits(ex)
            pids = ex.map(_pid, range(8), equal_cost=True)
        assert len(submitted) == 2
        assert len(set(pids[:4])) == 1
        assert len(set(pids[4:])) == 1
        assert os.getpid() not in pids

    def test_other_maps_go_task_by_task(self):
        with ProcessExecutor(max_workers=2) as ex:
            submitted = _count_submits(ex)
            assert ex.map(_square, range(8)) == [i * i for i in range(8)]
        assert len(submitted) == 8

    def test_one_task_still_runs_inline(self):
        with ProcessExecutor(max_workers=2) as ex:
            assert ex.map(_pid, [0], equal_cost=True) == [os.getpid()]
            assert ex.pools_created == 0

    def test_worker_killed_mid_block_breaks_only_that_map(self):
        from repro.dist.executor import WorkerPoolBrokenError

        with ProcessExecutor(max_workers=2) as ex:
            # Task 2 ends the process running tasks 0-3 after two of them.
            with pytest.raises(WorkerPoolBrokenError):
                ex.map(_exit_on, [False, False, True] + [False] * 5,
                       equal_cost=True)
            assert ex.map(_square, range(8), equal_cost=True) == [
                i * i for i in range(8)]
            assert ex.pools_created == 2

    def test_unpicklable_task_inside_a_block_is_named(self):
        with ProcessExecutor(max_workers=2) as ex:
            ex.map(_square, range(2))  # the pooled path from here on
            # A lambda at module level fails with PicklingError, a local
            # closure with AttributeError: both are named.
            for bad in (_MODULE_LAMBDA, lambda: 6):
                tasks = [1, 2, 3, 4, 5, bad, 7, 8]
                with pytest.raises(UnpicklableTaskError,
                                   match=r"cannot ship task 5 \(<function"):
                    ex.map(_square, tasks, equal_cost=True)
            assert ex.map(_square, range(4), equal_cost=True) == [0, 1, 4, 9]

    @pytest.mark.parametrize("kind, blocks", [
        ("random", True), ("explicit", False), ("vertex", False)])
    def test_engine_blocks_only_a_random_partition(self, kind, blocks):
        """The machines of a random partition cost about the same; an
        explicit or vertex partition's pieces may not, so they keep the
        pool's balancing."""
        class Recording(ProcessExecutor):
            def map(self, fn, tasks, **kw):
                self.equal_cost = kw.get("equal_cost", False)
                return super().map(fn, tasks, **kw)

        graph = _graph_of("bipartite")
        protocol = SimultaneousProtocol("echo", _echo_summarizer,
                                        _union_combine)
        with Recording(max_workers=2) as ex:
            run_simultaneous(protocol, _partition_of(kind, graph), rng=3,
                             executor=ex)
        assert ex.equal_cost is blocks


# --------------------------------------------------------------------- #
# determinism across backends
# --------------------------------------------------------------------- #
class TestProtocolDeterminismAcrossBackends:
    def _run(self, protocol, executor, seed=9):
        g = bipartite_gnp(60, 60, 0.08, 7)
        part = random_k_partition(g, 4, 8)
        return run_simultaneous(protocol, part, seed, executor=executor)

    @pytest.mark.parametrize("backend", POOLED)
    def test_matching_protocol_bit_identical(self, backend):
        from repro.core.protocols import matching_coreset_protocol

        proto = matching_coreset_protocol()
        a = self._run(proto, "serial")
        b = self._run(proto, backend)
        np.testing.assert_array_equal(a.output, b.output)
        assert a.ledger.summary() == b.ledger.summary()
        for ma, mb in zip(a.messages, b.messages):
            assert ma.sender == mb.sender
            np.testing.assert_array_equal(ma.edges, mb.edges)

    @pytest.mark.parametrize("backend", POOLED)
    def test_vc_protocol_bit_identical(self, backend):
        from repro.core.protocols import vertex_cover_coreset_protocol

        proto = vertex_cover_coreset_protocol(k=4)
        a = self._run(proto, "serial")
        b = self._run(proto, backend)
        np.testing.assert_array_equal(a.output, b.output)
        assert a.total_bits == b.total_bits

    def test_grouped_protocol_with_public_setup_on_processes(self):
        from repro.core.protocols import grouped_vertex_cover_protocol

        a = self._run(grouped_vertex_cover_protocol(4, 16.0), "serial")
        b = self._run(grouped_vertex_cover_protocol(4, 16.0), "processes")
        np.testing.assert_array_equal(a.output, b.output)

    @pytest.mark.parametrize("backend", POOLED)
    def test_mapreduce_matching_bit_identical(self, backend):
        from repro.core.mapreduce_algos import mapreduce_matching

        g = bipartite_gnp(80, 80, 0.05, 2)
        a = mapreduce_matching(g, k=5, rng=10, executor="serial")
        b = mapreduce_matching(g, k=5, rng=10, executor=backend)
        np.testing.assert_array_equal(a.matching, b.matching)
        assert a.job.n_rounds == b.job.n_rounds
        assert a.job.total_shuffled_edges == b.job.total_shuffled_edges
        assert a.job.peak_machine_edges == b.job.peak_machine_edges

    @pytest.mark.parametrize("backend", POOLED)
    def test_mapreduce_vertex_cover_bit_identical(self, backend):
        from repro.core.mapreduce_algos import mapreduce_vertex_cover

        g = gnp(90, 0.06, 3)
        a = mapreduce_vertex_cover(g, k=4, rng=11, executor="serial")
        b = mapreduce_vertex_cover(g, k=4, rng=11, executor=backend)
        np.testing.assert_array_equal(a.cover, b.cover)


# --------------------------------------------------------------------- #
# machines cut their own pieces from a resident graph
# --------------------------------------------------------------------- #
def _typed_summarizer(piece, machine_index, rng, public=None):
    """Echo the piece, with a fingerprint of its type and per-edge data in
    ``aux_bits``, so a piece rebuilt as the wrong type cannot pass."""
    import zlib

    blob = type(piece).__name__.encode() + piece.edges.tobytes()
    for attr in ("weights", "capacities"):
        if hasattr(piece, attr):
            blob += getattr(piece, attr).tobytes()
    return Message(sender=machine_index, edges=piece.edges,
                   aux_bits=zlib.crc32(blob))


def _graph_of(kind):
    from repro.graph.capacity import (
        CapacitatedBipartiteGraph,
        WeightedBipartiteGraph,
    )
    from repro.graph.weights import WeightedGraph

    rng = np.random.default_rng(21)
    if kind == "plain":
        return gnp(90, 0.06, 3)
    bip = bipartite_gnp(60, 60, 0.08, 7)
    if kind == "bipartite":
        return bip
    weights = rng.uniform(1.0, 9.0, size=bip.n_edges)
    if kind == "weighted":
        return WeightedGraph(bip.n_vertices, bip.edges, weights)
    if kind == "weighted_bipartite":
        return WeightedBipartiteGraph(60, 60, bip.edges, weights)
    return CapacitatedBipartiteGraph(60, 60, bip.edges, weights,
                                     rng.integers(1, 4, size=60))


def _partition_of(kind, graph):
    from repro.graph.partition import (
        adversarial_degree_partition,
        random_vertex_partition,
    )

    if kind == "random":
        return random_k_partition(graph, 4, 8)
    if kind == "explicit":
        return adversarial_degree_partition(graph, 4)
    return random_vertex_partition(graph, 4, 8)


@pytest.fixture(scope="module")
def process_executor():
    with ProcessExecutor(max_workers=2) as ex:
        yield ex


@pytest.fixture(params=["processes", "remote"])
def pooled_executor(request, process_executor):
    if request.param == "remote":
        return request.getfixturevalue("remote_executor")
    return process_executor


class TestResidentGraphTasks:
    """A machine task names the graph and the partition's recipe; the
    machine cuts its own piece.  Every backend must cut the same pieces,
    of the same type, for every partition kind."""

    @pytest.mark.parametrize("partition_kind", ["random", "explicit",
                                                "vertex"])
    @pytest.mark.parametrize("graph_kind", [
        "plain", "bipartite", "weighted", "weighted_bipartite",
        "capacitated",
    ])
    def test_pieces_identical_across_backends(self, pooled_executor,
                                              graph_kind, partition_kind):
        from repro.core.protocols import vertex_cover_coreset_protocol

        part = _partition_of(partition_kind, _graph_of(graph_kind))
        echo = SimultaneousProtocol("typed-echo", _typed_summarizer,
                                    _union_combine)
        for proto in (echo, vertex_cover_coreset_protocol(k=4)):
            a = run_simultaneous(proto, part, 9, executor="serial")
            b = run_simultaneous(proto, part, 9, executor=pooled_executor)
            np.testing.assert_array_equal(a.output, b.output)
            assert a.total_bits == b.total_bits
            for ma, mb in zip(a.messages, b.messages):
                np.testing.assert_array_equal(ma.edges, mb.edges)
                np.testing.assert_array_equal(ma.fixed_vertices,
                                              mb.fixed_vertices)
                assert ma.aux_bits == mb.aux_bits

    @pytest.mark.parametrize("graph_kind", ["plain", "bipartite",
                                            "weighted"])
    def test_every_coreset_solver_identical_across_backends(
            self, pooled_executor, graph_kind):
        from repro.solve import RunContext, solve
        from repro.solve.registry import SolverCapabilityError, all_solvers

        graph = _graph_of(graph_kind)
        ran = 0
        for spec in all_solvers():
            if spec.model != "coreset":
                continue
            for seed in (0, 5):
                try:
                    a = solve(graph, spec.name,
                              RunContext(seed=seed, k=4, executor="serial"))
                except SolverCapabilityError:
                    continue
                b = solve(graph, spec.name,
                          RunContext(seed=seed, k=4,
                                     executor=pooled_executor))
                np.testing.assert_array_equal(a.certificate, b.certificate)
                assert a.stats.get("total_bits") == b.stats.get("total_bits")
                ran += 1
        assert ran >= 12

    def test_random_partition_tasks_do_not_grow_with_m(self):
        import pickle

        from repro.solve import RunContext, solve
        from repro.graph.bipartite import BipartiteGraph
        from repro.graph.edgelist import Graph

        class Recording(ProcessExecutor):
            def map(self, fn, tasks, **kw):
                tasks = list(tasks)
                self.task_bytes = [len(pickle.dumps(t)) for t in tasks]
                return super().map(fn, tasks, **kw)

        # MapReduce round 2 runs on a random re-partition too, whether
        # round 1 shuffled a contiguous placement or the input came
        # pre-randomized.
        cases = [("vertex_cover.coreset", {}),
                 ("matching.mapreduce", {}),
                 ("matching.mapreduce", {"assume_random_input": True}),
                 ("vertex_cover.mapreduce", {}),
                 ("vertex_cover.mapreduce", {"assume_random_input": True})]
        rng = np.random.default_rng(3)
        sizes = {}
        with Recording(max_workers=2) as ex:
            for m in (20_000, 200_000):
                g = Graph(20_000, rng.integers(0, 20_000, size=(m, 2)))
                # Matchings run on a bipartite graph: Hopcroft-Karp stays
                # quick at this size.
                bip = BipartiteGraph.from_pairs(
                    10_000, 10_000, *rng.integers(0, 10_000, size=(2, m)))
                for i, (solver, params) in enumerate(cases):
                    graph = bip if solver.startswith("matching") else g
                    solve(graph, solver,
                          RunContext(seed=4, k=8, executor=ex), **params)
                    assert len(ex.task_bytes) == 8
                    sizes[i, m] = max(ex.task_bytes)
        # A piece alone would be 16 bytes per edge: 40 kB and 400 kB here.
        for i, case in enumerate(cases):
            assert sizes[i, 200_000] <= sizes[i, 20_000] + 64, case
            assert sizes[i, 200_000] < 4096, case

    def test_close_leaves_no_dev_shm_entry(self, monkeypatch):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        from repro.core.protocols import vertex_cover_coreset_protocol

        monkeypatch.delenv("REPRO_SHM_BACKEND", raising=False)

        before = set(os.listdir("/dev/shm"))
        with ProcessExecutor(max_workers=2) as ex:
            for graph_kind in ("bipartite", "capacitated"):
                part = random_k_partition(_graph_of(graph_kind), 4, 1)
                run_simultaneous(vertex_cover_coreset_protocol(k=4), part,
                                 2, executor=ex)
            assert set(os.listdir("/dev/shm")) - before  # the pinned graph
        assert set(os.listdir("/dev/shm")) - before == set()


# --------------------------------------------------------------------- #
# pickling constraints of the process backend
# --------------------------------------------------------------------- #
class TestProcessPicklingErrors:
    def test_closure_summarizer_raises_clear_error(self):
        marker = []  # dooms the closure below to unpicklability

        def closure_summarizer(piece, machine_index, rng, public=None):
            assert marker == []
            return Message(sender=machine_index)

        proto = SimultaneousProtocol("closure", closure_summarizer,
                                     _union_combine)
        g = gnp(20, 0.3, 1)
        part = random_k_partition(g, 3, 2)
        with pytest.raises(UnpicklableTaskError, match="not picklable"):
            run_simultaneous(proto, part, 3, executor="processes")
        # The same protocol is fine on the in-process backend.
        run_simultaneous(proto, part, 3, executor="serial")

    def test_lambda_in_a_task_raises_clear_error(self):
        with ProcessExecutor(max_workers=2) as ex:
            tasks = [(i, lambda e: e) for i in range(3)]
            with pytest.raises(UnpicklableTaskError, match="module level"):
                ex.map(_first, tasks)

    def test_error_raised_even_for_single_task(self):
        # The lone-task inline path must not skip the pickle contract.
        with ProcessExecutor(max_workers=2) as ex:
            with pytest.raises(UnpicklableTaskError, match="module level"):
                ex.map(_first, [(0, lambda e: e)])
            assert ex._pool is None

    def test_picklable_protocol_factories_survive_pickling(self):
        import pickle

        from repro.core.protocols import (
            GroupedVCSummarizer,
            MatchingCoresetSummarizer,
            VCCoresetSummarizer,
        )

        for summarizer in [MatchingCoresetSummarizer(),
                           VCCoresetSummarizer(k=4),
                           GroupedVCSummarizer(k=4)]:
            assert pickle.loads(pickle.dumps(summarizer)) == summarizer


# --------------------------------------------------------------------- #
# run_trials fan-out
# --------------------------------------------------------------------- #
def _uniform_trial(s):
    # Module-level so every backend — including ``processes`` — can run it.
    gen = np.random.default_rng(s)
    return {"x": float(gen.uniform())}


def _inner_backend_trial(s):
    # Which backend an engine inside this trial would resolve, and where
    # the trial ran.
    inner = resolve_executor(None)
    inner.close()
    return {"inner_serial": float(inner.name == "serial"),
            "pid": float(os.getpid())}


class TestSerialInnerEngines:
    """The one nesting rule that run_trials and the sweep runner share."""

    @pytest.mark.parametrize("outer", ["processes", "remote"])
    def test_pins_and_restores(self, outer, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "processes")
        with serial_inner_engines(outer):
            assert os.environ[EXECUTOR_ENV] == "serial"
        assert os.environ[EXECUTOR_ENV] == "processes"

    def test_unset_variable_stays_unset(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        with pytest.raises(RuntimeError):
            with serial_inner_engines("processes"):
                assert os.environ[EXECUTOR_ENV] == "serial"
                raise RuntimeError
        assert EXECUTOR_ENV not in os.environ

    def test_serial_outer_pins_nothing(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "processes")
        with serial_inner_engines("serial"):
            assert os.environ[EXECUTOR_ENV] == "processes"


class TestRunTrialsExecutor:
    def test_processes_match_serial(self):
        from repro.experiments.harness import run_trials

        a = run_trials(_uniform_trial, 6, seed=5, executor="serial")
        b = run_trials(_uniform_trial, 6, seed=5, executor="processes")
        np.testing.assert_array_equal(a["x"], b["x"])

    def test_default_resolves_from_env(self, monkeypatch):
        from repro.experiments.harness import run_trials

        monkeypatch.setenv(EXECUTOR_ENV, "processes")
        a = run_trials(_uniform_trial, 4, seed=9)
        b = run_trials(_uniform_trial, 4, seed=9, executor="serial")
        np.testing.assert_array_equal(a["x"], b["x"])

    @pytest.mark.parametrize("backend", ["processes", "remote"])
    def test_out_of_process_trials_pin_inner_engines_to_serial(
            self, backend, monkeypatch):
        """Every backend but serial runs trials in other processes; none
        may nest a second pool per trial, even when $REPRO_EXECUTOR names
        one (docs/PARALLELISM.md §4)."""
        from repro.dist.remote import RemoteExecutor
        from repro.experiments.harness import run_trials

        monkeypatch.setenv(EXECUTOR_ENV, "processes")
        # Built after setenv: locally spawned remote workers copy the
        # coordinator's environment, $REPRO_EXECUTOR included.
        ex = (ProcessExecutor(max_workers=2) if backend == "processes"
              else RemoteExecutor(max_workers=2, connect_timeout=60))
        with ex:
            out = run_trials(_inner_backend_trial, 4, seed=3, executor=ex)
        assert out["inner_serial"].tolist() == [1.0] * 4
        assert os.getpid() not in out["pid"].astype(int).tolist()
