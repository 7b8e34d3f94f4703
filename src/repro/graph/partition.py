"""Edge partitioning: the random k-partitioning at the heart of the paper,
plus the adversarial partitionings it contrasts against.

A *random k-partitioning* assigns every edge independently and uniformly to
one of ``k`` machines (paper, §1, "Randomized Composable Coresets").  The
paper's central claim is that this single change — random instead of
adversarial placement — moves matching and vertex cover from Ω(n²) summaries
to Õ(n) summaries.  Round 1 of its MapReduce algorithm (§1.1) makes one out
of any placement (:func:`shuffled_k_partition`).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from repro.graph.edgelist import Graph
from repro.utils.rng import RandomState, as_generator, root_seed

__all__ = [
    "PLACEMENTS",
    "PartitionedGraph",
    "RowsRecipe",
    "SeededRecipe",
    "VertexPartitionedGraph",
    "random_k_partition",
    "random_vertex_partition",
    "shuffled_k_partition",
    "partition_by_assignment",
    "adversarial_degree_partition",
]


class PartitionedGraph:
    """A graph together with a k-way partition of its edge set.

    ``assignment[i]`` is the machine (in ``0..k-1``) that received edge ``i``
    of ``graph.edges``.  Pieces are built on demand as same-type subgraphs
    on the full vertex set, matching the paper's model where every machine
    knows the vertex set ``V`` but only its own edges.  The machine ids are
    kept in the narrowest integer type holding ``k - 1``, so cutting a
    piece is one byte-wide comparison and the rows stay ascending.

    A random partition is kept as its *draw* — the seed, or the generator
    state, that the assignment comes from — so it pickles in O(1) bytes in
    the edge count: ``(graph, k, draw)``, never the assignment.
    :meth:`recipe` hands each machine the same draw, and a machine holding
    the graph cuts its own piece from it.
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        assignment: np.ndarray | None = None,
        *,
        draw: "_Draw | None" = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.graph = graph
        self.k = k
        self._draw = draw
        if assignment is None:
            if draw is None:
                raise ValueError("a partition needs an assignment or a draw")
            return
        a = np.asarray(assignment, dtype=np.int64)
        if a.shape != (graph.n_edges,):
            raise ValueError(
                f"assignment must have shape ({graph.n_edges},), got {a.shape}"
            )
        if a.size and (a.min() < 0 or a.max() >= k):
            raise ValueError(f"machine ids must lie in [0, {k})")
        self.__dict__["assignment"] = a

    @cached_property
    def assignment(self) -> np.ndarray:
        """``(m,)`` int64 machine ids (drawn on first use for a random
        partition)."""
        return self._keys.astype(np.int64)

    @cached_property
    def _keys(self) -> np.ndarray:
        """The machine ids in the narrowest type holding ``k - 1``."""
        if "assignment" not in self.__dict__:
            return self._draw.keys(self.graph.n_edges, self.k)
        return self.assignment.astype(np.min_scalar_type(self.k - 1))

    def _rows(self, i: int) -> np.ndarray:
        if not 0 <= i < self.k:
            raise IndexError(f"machine index {i} out of range [0, {self.k})")
        return np.flatnonzero(self._keys == i)

    def piece(self, i: int) -> Graph:
        """The subgraph ``G^(i)`` given to machine ``i``, equal to
        ``graph.subgraph_from_mask(assignment == i)``."""
        return self.graph.subgraph_from_indices(self._rows(i))

    def pieces(self) -> Iterator[Graph]:
        """Iterate over all ``k`` machine subgraphs."""
        for i in range(self.k):
            yield self.piece(i)

    def recipe(self, i: int) -> "SeededRecipe | RowsRecipe":
        """What machine ``i`` needs, besides the graph, to cut its piece:
        the draw of a random partition (O(1) bytes), or the piece's edge
        rows for an explicit assignment (8 bytes per piece edge), built
        once per machine so later barriers hand out the same object."""
        if self._draw is not None and 0 <= i < self.k:
            return SeededRecipe(self.k, self._draw, self)
        return _rows_recipe(self._row_recipes, i, self._rows)

    @cached_property
    def _row_recipes(self) -> dict:
        return {}

    def __getstate__(self) -> dict:
        # A draw rebuilds the machine ids; the narrow copy is always rebuilt.
        state = {"graph": self.graph, "k": self.k, "_draw": self._draw}
        if self._draw is None:
            state["assignment"] = self.assignment
        return state

    def piece_sizes(self) -> np.ndarray:
        """Number of edges per machine."""
        return np.bincount(self._keys, minlength=self.k).astype(np.int64)

    def union(self) -> Graph:
        """Reassemble the full graph from the pieces (identity check)."""
        return self.graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "random" if self._draw is not None else "explicit"
        return f"PartitionedGraph({self.graph!r}, k={self.k}, {kind})"


# --------------------------------------------------------------------- #
# Recipes: how a machine that holds the graph cuts its own piece
# --------------------------------------------------------------------- #
#: Machine ids drawn per chunk, so that a chunk's temporaries stay in cache.
_DRAW_CHUNK = 1 << 15

#: The most machines a random partition takes: numpy draws every bounded
#: integer below 2**32 from 32-bit draws, which :func:`_fill` reproduces.
_MAX_K = 1 << 32


class _Draw:
    """The source of a random assignment: a ``SeedSequence``, or the state
    a bit generator had just before it drew.  Pickling carries only the
    seed material, and draws with equal ``key`` draw equal assignments."""

    __slots__ = ("seed", "key")

    def __init__(self, seed: "np.random.SeedSequence | dict") -> None:
        self.seed = seed
        self.key = pickle.dumps(seed)

    def keys(self, m: int, k: int) -> np.ndarray:
        """The ``m`` machine ids ``integers(0, k, size=m, dtype=int64)``
        draws, stored in the narrowest type holding ``k - 1``."""
        if isinstance(self.seed, np.random.SeedSequence):
            bit_generator = np.random.PCG64(self.seed)
        else:
            bit_generator = getattr(np.random, self.seed["bit_generator"])()
            bit_generator.state = self.seed
        out = np.empty(m, dtype=np.min_scalar_type(k - 1))
        _fill(bit_generator, out, k)
        return out

    def __getstate__(self) -> object:
        return self.seed

    def __setstate__(self, seed: object) -> None:
        self.__init__(seed)  # type: ignore[misc]


def _check_k(k: int) -> None:
    """Refuse a random partition's ``k`` below 1 or above :data:`_MAX_K`
    (past it, the ledger's per-player array alone would need 32 GiB)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > _MAX_K:
        raise ValueError(
            f"a random partition takes at most 2**32 machines, got k={k}")


def _fill(bit_generator: np.random.BitGenerator, out: np.ndarray,
          k: int) -> "tuple[int, int] | None":
    """Fill ``out`` with the ids ``Generator(bit_generator).integers(0, k,
    size=out.size, dtype=int64)`` draws, for ``k <= 2**32``.

    numpy turns 32-bit draws into ids by Lemire's multiply-and-reject rule
    (Lemire 2019, arXiv:1805.10941): a draw ``u`` gives the id
    ``(u * k) >> 32``, unless ``(u * k) mod 2**32 < 2**32 mod k``, when it
    is rejected and the next draw is tried.  A rejection depends on its
    draw alone, so filtering the raw stream, one chunk after another,
    gives the same ids.  MT19937's raw words are its 32-bit draws; the
    other bit generators yield each 64-bit word's low half, then its high
    half, after the half they carry when ``has_uint32`` is set.  A single
    machine draws nothing.

    The raw stream advances as by ``integers``; the carried half it would
    leave, ``(has_uint32, uinteger)``, is returned for
    :func:`_fill_live` to set (``None`` for MT19937, or when nothing was
    drawn).
    """
    _check_k(k)
    if k == 1:
        out[...] = 0
        return None
    reject_below = (1 << 32) % k
    halves = not isinstance(bit_generator, np.random.MT19937)
    carried = np.zeros(0, dtype=np.uint32)
    if halves:
        state = bit_generator.state
        kept_half = state["uinteger"]
        if state["has_uint32"]:
            carried = np.array([kept_half], dtype=np.uint32)
    start = 0
    while start < out.size:
        n = min(_DRAW_CHUNK, out.size - start)
        if halves:
            words = bit_generator.random_raw((n - carried.size + 1) // 2)
            if words.size:
                kept_half = int(words[-1]) >> 32
            u = words.astype("<u8", copy=False).view("<u4")
            if carried.size:
                u = np.concatenate((carried, u))
            u, carried = u[:n], u[n:]
        else:
            u = bit_generator.random_raw(n)
        draws = np.multiply(u, np.uint64(k), dtype=np.uint64)
        if reject_below:
            kept = draws.astype(np.uint32) >= reject_below
            if not kept.all():
                draws = draws[kept]
        draws >>= np.uint64(32)
        out[start:start + draws.size] = draws
        start += draws.size
    if not (halves and out.size):
        return None
    return carried.size, kept_half


def _fill_live(gen: np.random.Generator, out: np.ndarray, k: int) -> None:
    """:func:`_fill` from a caller's generator, which is left where
    ``gen.integers`` leaves it, carried half included."""
    carried = _fill(gen.bit_generator, out, k)
    if carried is not None:
        state = gen.bit_generator.state
        state["has_uint32"], state["uinteger"] = carried
        gen.bit_generator.state = state


class _ShuffleDraw(_Draw):
    """Round 1 of the MapReduce algorithm (§1.1) as a draw.  The seed is
    ``(routes, placed)``: the entropy whose k spawned children are the
    machines' route streams, and the round-0 placement, ``None`` for the
    consecutive chunks of ``np.array_split`` or the state of the generator
    that drew a random one.  Each machine draws one destination per edge
    it holds, in ascending row order, from its route stream, and an
    edge's key is its destination."""

    __slots__ = ()

    def keys(self, m: int, k: int) -> np.ndarray:
        routes, placed = self.seed
        return _routed(_placed(m, k, placed), routes, k)


def _placed(m: int, k: int, placed: dict | None) -> np.ndarray:
    """Each edge's round-0 machine: its ``np.array_split`` chunk, or the
    random placement drawn from the generator state ``placed``."""
    if placed is not None:
        return _Draw(placed).keys(m, k)
    sizes = np.full(k, m // k)
    sizes[: m % k] += 1
    return np.repeat(np.arange(k, dtype=np.min_scalar_type(k - 1)), sizes)


def _routed(sources: np.ndarray, routes: tuple, k: int) -> np.ndarray:
    """Each edge's destination: machine ``i`` draws ``integers(0, k)``
    from the ``i``-th child of ``routes`` for each edge whose source is
    ``i``, in ascending row order."""
    order = np.argsort(sources, kind="stable")
    routed = np.empty_like(sources)
    start = 0
    children = np.random.SeedSequence(routes).spawn(k)
    for child, count in zip(children, np.bincount(sources, minlength=k)):
        _fill(np.random.PCG64(child), routed[start:start + count], k)
        start += count
    keys = np.empty_like(routed)
    keys[order] = routed
    return keys


class SeededRecipe:
    """Machine ``i``'s recipe for a random partition: ``k`` and the draw.

    In the process that built the partition the recipe keeps a link to it
    and cuts from its machine ids; the link is not pickled, so a worker
    draws the ids itself, once per partition and graph (the most recent
    one is remembered), and every later machine of that partition reuses
    them.
    """

    __slots__ = ("k", "draw", "_partition")

    def __init__(self, k: int, draw: _Draw,
                 partition: PartitionedGraph | None = None) -> None:
        self.k = k
        self.draw = draw
        self._partition = partition

    def piece(self, graph: Graph, i: int) -> Graph:
        part = self._partition
        if part is None or part.graph is not graph:
            part = _recent_partition(graph, self.k, self.draw)
        return part.piece(i)

    def __getstate__(self) -> tuple:
        return self.k, self.draw

    def __setstate__(self, state: tuple) -> None:
        self.k, self.draw = state
        self._partition = None


#: The last partition a worker rebuilt from a recipe (it holds its graph,
#: so an identity match can never be a different, recycled object).
_RECENT: list = [None]


def _recent_partition(graph: Graph, k: int, draw: _Draw) -> PartitionedGraph:
    part = _RECENT[0]
    if part is None or part.graph is not graph or part.k != k \
            or part._draw.key != draw.key:
        part = PartitionedGraph(graph, k, draw=draw)
        _RECENT[0] = part
    return part


@dataclass(frozen=True, eq=False)
class RowsRecipe:
    """Machine ``i``'s recipe for an explicit partition: its piece's
    ascending edge rows, read-only.  A partition builds each machine's
    recipe once and hands out the same object, so the remote content
    cache digests it once, not once per barrier."""

    rows: np.ndarray

    def piece(self, graph: Graph, i: int) -> Graph:
        del i
        return graph.subgraph_from_indices(self.rows)


def _rows_recipe(built: dict, i: int, rows_of) -> RowsRecipe:
    """Machine ``i``'s :class:`RowsRecipe` from ``built``, made on first
    use from ``rows_of(i)``."""
    recipe = built.get(i)
    if recipe is None:
        rows = rows_of(i)
        rows.setflags(write=False)
        recipe = built[i] = RowsRecipe(rows)
    return recipe


def random_k_partition(
    graph: Graph, k: int, rng: RandomState = None
) -> PartitionedGraph:
    """The paper's random k-partitioning: each edge goes to a uniformly
    random machine, independently.

    Given a seed (``None``, an int or a ``SeedSequence``) nothing is drawn
    until a piece or the assignment is asked for.  Given a live
    ``Generator``, the assignment is drawn at once, so the caller's stream
    advances exactly as by ``rng.integers(0, k, size=m)``; the partition
    keeps the generator's prior state as its draw.  ``k`` is at most
    2**32.
    """
    _check_k(k)
    if isinstance(rng, np.random.Generator):
        draw = _Draw(rng.bit_generator.state)
        assignment = np.empty(graph.n_edges, dtype=np.int64)
        _fill_live(rng, assignment, k)
        return PartitionedGraph(graph, k, assignment, draw=draw)
    if not isinstance(rng, np.random.SeedSequence):
        rng = np.random.SeedSequence(rng)
    return PartitionedGraph(graph, k, draw=_Draw(rng))


#: The round-0 placements of the MapReduce algorithm's input: consecutive
#: chunks of the edge list (an arbitrary ingest), or a uniformly random
#: machine per edge (an input that is already randomly placed).
PLACEMENTS = ("contiguous", "random")


def shuffled_k_partition(
    graph: Graph, k: int, rng: RandomState = None,
    placement: str = "contiguous",
) -> tuple[PartitionedGraph, np.ndarray]:
    """Round 1 of the paper's MapReduce algorithm (§1.1): the edges start
    on the k machines by ``placement`` (one of :data:`PLACEMENTS`), and
    every machine sends each edge it holds to a uniformly random machine,
    which turns any placement into a random k-partitioning.

    ``rng`` is coerced to a generator, which advances as by
    ``spawn_generators(rng, k)``, the machines' route streams, and then,
    for a random placement, as by drawing it.  Returns the partition, kept
    as its draw like :func:`random_k_partition`'s, and each edge's round-0
    machine.
    """
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown initial placement {placement!r}")
    _check_k(k)
    gen = as_generator(rng)
    routes = tuple(root_seed(gen).entropy)
    placed = None
    if placement == "random":
        placed = gen.bit_generator.state
        sources = np.empty(graph.n_edges, dtype=np.min_scalar_type(k - 1))
        _fill_live(gen, sources, k)
    else:
        sources = _placed(graph.n_edges, k, None)
    keys = _routed(sources, routes, k)
    draw = _ShuffleDraw((routes, placed))
    return PartitionedGraph(graph, k, keys, draw=draw), sources


def partition_by_assignment(
    graph: Graph, assignment: np.ndarray | Sequence[int], k: int | None = None
) -> PartitionedGraph:
    """Wrap an explicit edge→machine assignment (used by adversaries)."""
    a = np.asarray(assignment, dtype=np.int64)
    k = int(a.max()) + 1 if k is None else int(k)
    return PartitionedGraph(graph=graph, k=k, assignment=a)


# --------------------------------------------------------------------- #
# Adversarial partitionings (E7)
# --------------------------------------------------------------------- #
def adversarial_degree_partition(graph: Graph, k: int) -> PartitionedGraph:
    """A deterministic adversary that splits edges by endpoint locality.

    Edges are routed by ``min(u, v) mod k``, so each machine sees a vertex-
    disjoint-ish slice with heavily correlated structure — the opposite of
    the i.i.d. placement the coreset analysis needs.  Weaker than the
    decoy-gadget adversary of :mod:`repro.lowerbounds.adversary` but needs
    no knowledge of the optimum, mirroring the "data locality" sharding a
    real system might use by default.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if graph.n_edges == 0:
        return PartitionedGraph(graph=graph, k=k, assignment=np.zeros(0, np.int64))
    assignment = np.minimum(graph.edges[:, 0], graph.edges[:, 1]) % k
    return PartitionedGraph(graph=graph, k=k, assignment=assignment)


# --------------------------------------------------------------------- #
# Vertex partitioning (the [10] simultaneous model, §1.3)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class VertexPartitionedGraph:
    """A graph whose *vertices* are partitioned across k machines.

    This is the simultaneous model of [10] (Assadi–Khanna–Li–Yaroslavtsev)
    that the paper contrasts with in §1.3: machine ``i`` owns a vertex set
    ``V_i`` and sees **every edge incident on its vertices** — so an edge
    whose endpoints live on different machines is seen by both.  In that
    model even an O(√k)-approximation to matching needs more than Õ(n)
    communication per player; experiment E19 runs the edge-partition
    coresets here to chart the contrast on common workloads.

    ``vertex_assignment[v]`` is the owner machine of vertex ``v``.
    """

    graph: Graph
    k: int
    vertex_assignment: np.ndarray  # (n,) int64 machine ids

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        a = np.asarray(self.vertex_assignment, dtype=np.int64)
        if a.shape != (self.graph.n_vertices,):
            raise ValueError(
                f"vertex_assignment must have shape "
                f"({self.graph.n_vertices},), got {a.shape}"
            )
        if a.size and (a.min() < 0 or a.max() >= self.k):
            raise ValueError(f"machine ids must lie in [0, {self.k})")
        object.__setattr__(self, "vertex_assignment", a)

    def piece(self, i: int) -> Graph:
        """All edges incident on machine ``i``'s vertices (duplicated
        across machines for cross-machine edges, as the model specifies)."""
        return self.recipe(i).piece(self.graph, i)

    def recipe(self, i: int) -> RowsRecipe:
        """Machine ``i``'s piece as edge rows (see
        :meth:`PartitionedGraph.recipe`)."""
        return _rows_recipe(self._row_recipes, i, self._rows)

    @cached_property
    def _row_recipes(self) -> dict:
        return {}

    def _rows(self, i: int) -> np.ndarray:
        if not 0 <= i < self.k:
            raise IndexError(f"machine index {i} out of range [0, {self.k})")
        e = self.graph.edges
        owned = self.vertex_assignment == i
        return np.flatnonzero(owned[e[:, 0]] | owned[e[:, 1]])

    def pieces(self) -> Iterator[Graph]:
        for i in range(self.k):
            yield self.piece(i)

    def duplication_factor(self) -> float:
        """Average number of machines seeing each edge (1..2)."""
        if self.graph.n_edges == 0:
            return 0.0
        e = self.graph.edges
        dup = (
            self.vertex_assignment[e[:, 0]]
            != self.vertex_assignment[e[:, 1]]
        )
        return float(1.0 + dup.mean())


def random_vertex_partition(
    graph: Graph, k: int, rng: RandomState = None
) -> VertexPartitionedGraph:
    """Assign each vertex to a uniformly random machine."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    gen = as_generator(rng)
    assignment = gen.integers(0, k, size=graph.n_vertices, dtype=np.int64)
    return VertexPartitionedGraph(graph=graph, k=k, vertex_assignment=assignment)
