"""Randomness discipline.

Every stochastic function in this library takes an explicit source of
randomness.  We standardize on :class:`numpy.random.Generator` and use
:class:`numpy.random.SeedSequence` spawning to derive independent child
streams, following the NumPy best-practice for reproducible parallel (or
simulated-parallel) computations: a single user-facing seed deterministically
fans out into per-machine / per-trial generators with no correlation between
streams.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

#: An *explicit* source of randomness: a seed integer, a generator, or a
#: seed sequence.  Functions that require the caller to supply randomness
#: (no entropy default) annotate with this.
Seedable = Union[int, np.random.Generator, np.random.SeedSequence]

#: The library-wide randomness parameter type: any :data:`Seedable`, or
#: ``None`` for fresh OS entropy.  The ``Optional`` is spelled out so
#: every ``rng: RandomState = None`` default type-checks without
#: per-call-site ignores.
RandomState = Optional[Seedable]

__all__ = ["RandomState", "Seedable", "as_generator", "root_seed",
           "spawn_generators", "spawn_seeds"]


def as_generator(seed: RandomState = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh OS entropy), an ``int`` seed, a ``SeedSequence``,
    or an existing ``Generator`` (returned unchanged so callers can thread a
    single stream through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def root_seed(seed: RandomState) -> np.random.SeedSequence:
    """The seed sequence :func:`spawn_seeds` spawns its children from.

    If ``seed`` is a ``Generator`` we pull a fresh 128-bit entropy value from
    it, so that repeated calls with the same generator yield distinct (but
    reproducible) families of streams.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        entropy = seed.integers(0, 2**63 - 1, size=2, dtype=np.int64)
        return np.random.SeedSequence([int(e) for e in entropy])
    return np.random.SeedSequence(seed)


def spawn_seeds(seed: RandomState, n: int) -> list[np.random.SeedSequence]:
    """Derive ``n`` independent child seed sequences from ``seed`` (the
    children of :func:`root_seed`)."""
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of seeds: {n}")
    return root_seed(seed).spawn(n)


def spawn_generators(seed: RandomState, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent generators from ``seed`` (see `spawn_seeds`)."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, n)]


def random_permutation(
    n: int, rng: RandomState = None
) -> np.ndarray:  # pragma: no cover - thin wrapper
    """A uniformly random permutation of ``range(n)`` as an int64 array."""
    return as_generator(rng).permutation(n).astype(np.int64)


def sample_distinct_pairs(
    universe: Sequence[int] | np.ndarray, n_pairs: int, rng: RandomState = None
) -> np.ndarray:
    """Sample ``n_pairs`` ordered pairs of *distinct* elements of ``universe``.

    Used by generators that need random non-loop edges.  Returns an
    ``(n_pairs, 2)`` int64 array.  Sampling is with replacement across pairs
    (the same pair may repeat) but within each pair the two entries differ.
    """
    gen = as_generator(rng)
    universe = np.asarray(universe, dtype=np.int64)
    m = universe.shape[0]
    if m < 2:
        raise ValueError("need at least two elements to form distinct pairs")
    first = gen.integers(0, m, size=n_pairs)
    # Sample the second index from [0, m-1) and shift past the first index:
    # this yields a uniform draw over the m-1 values != first.
    second = gen.integers(0, m - 1, size=n_pairs)
    second = np.where(second >= first, second + 1, second)
    return np.stack([universe[first], universe[second]], axis=1)
