"""Deterministic random-number management.

Every stochastic component in the library (instance generation, the I1
construction heuristic, neighborhood sampling, the simulated cluster's
noise model, parameter perturbation in the multisearch variant) draws
from a :class:`numpy.random.Generator`.  To make whole experiments
reproducible from a single integer seed, generators are never created
ad hoc — they are *spawned* from a root :class:`numpy.random.SeedSequence`
through the helpers in this module.

The spawning discipline mirrors how the paper's processes would each own
an independent stream on the SGI Origin 3800: child sequences are
statistically independent, and the tree of spawns is a pure function of
the root seed, so re-running an experiment with the same seed replays
every decision, including the simulated message orderings.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

__all__ = [
    "RngFactory",
    "as_generator",
    "get_generator_state",
    "set_generator_state",
    "spawn_generators",
]


def get_generator_state(generator: np.random.Generator) -> dict:
    """Capture the exact bit-state of ``generator`` for a checkpoint.

    The returned dict is ``BitGenerator.state`` — for PCG64 it includes
    the 128-bit LCG state *and* the ``has_uint32``/``uinteger``
    half-word carry, so a generator captured at an iteration boundary
    fully determines every future draw.
    """
    bg = generator.bit_generator
    return {"class": type(bg).__name__, "state": bg.state}


def set_generator_state(generator: np.random.Generator, state: dict) -> None:
    """Restore a bit-state captured by :func:`get_generator_state`.

    Raises :class:`~repro.errors.CheckpointError` when the snapshot was
    taken from a different bit-generator class — silently continuing
    with a mismatched stream would break the resume guarantee in a way
    no test downstream could attribute.
    """
    from repro.errors import CheckpointError

    bg = generator.bit_generator
    if state.get("class") != type(bg).__name__:
        raise CheckpointError(
            f"RNG snapshot is for bit generator {state.get('class')!r}, "
            f"but the live generator uses {type(bg).__name__!r}"
        )
    bg.state = state["state"]


def as_generator(
    seed: int | np.random.SeedSequence | np.random.Generator | None,
) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an ``int``, a :class:`~numpy.random.SeedSequence`, an existing
    generator (returned unchanged, so callers can thread one RNG through
    a pipeline), or ``None`` for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generators(
    seed: int | np.random.SeedSequence | None, n: int
) -> list[np.random.Generator]:
    """Create ``n`` independent generators from one root seed.

    Used wherever the paper's algorithms need per-process streams, e.g.
    one stream per collaborative searcher.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(n)]


class RngFactory:
    """A reproducible, on-demand source of independent generators.

    The factory owns a root :class:`~numpy.random.SeedSequence` and hands
    out child generators one at a time.  Components receive the factory
    and spawn what they need; the order of spawning is part of the
    experiment definition and therefore deterministic.

    Examples
    --------
    >>> fac = RngFactory(42)
    >>> a, b = fac.generator(), fac.generator()
    >>> fac2 = RngFactory(42)
    >>> a2 = fac2.generator()
    >>> float(a.random()) == float(a2.random())
    True
    """

    def __init__(self, seed: int | np.random.SeedSequence | None = None) -> None:
        self._root = (
            seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        )
        self._spawned = 0

    @property
    def root_entropy(self) -> int | Sequence[int] | None:
        """The entropy of the root seed sequence (for provenance logging)."""
        return self._root.entropy

    @property
    def spawn_count(self) -> int:
        """How many children have been handed out so far."""
        return self._spawned

    def seed_sequence(self) -> np.random.SeedSequence:
        """Spawn and return the next child seed sequence."""
        child = self._root.spawn(1)[0]
        self._spawned += 1
        return child

    def generator(self) -> np.random.Generator:
        """Spawn and return the next child generator."""
        return np.random.default_rng(self.seed_sequence())

    def generators(self, n: int) -> list[np.random.Generator]:
        """Spawn ``n`` child generators at once."""
        if n < 0:
            raise ValueError(f"cannot spawn a negative number of generators: {n}")
        children = self._root.spawn(n)
        self._spawned += n
        return [np.random.default_rng(child) for child in children]

    def stream(self) -> Iterator[np.random.Generator]:
        """An endless iterator of fresh child generators."""
        while True:
            yield self.generator()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RngFactory(entropy={self._root.entropy!r}, spawned={self._spawned})"
