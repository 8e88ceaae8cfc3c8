"""Reproducible random-number stream management.

Every stochastic component of the simulator (schedule offsets, link loss
draws, protocol tie-breaking, topology synthesis) pulls from its own named
:class:`numpy.random.Generator` stream derived from a single root seed.
This guarantees two properties the experiment harness relies on:

* **Bit-for-bit reproducibility** — the same root seed always produces the
  same simulation trajectory, regardless of how many streams are consumed
  or in which order they are *created*.
* **Cross-configuration variance reduction** — two simulations that differ
  only in, say, the flooding protocol share identical schedule and loss
  streams, so protocol comparisons (Figs. 9-11) are paired rather than
  independent samples.

Streams are derived with :class:`numpy.random.SeedSequence` using the
stream name hashed into spawn keys, which is the NumPy-recommended way of
building independent generators.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, Optional

import numpy as np
# NumPy 2 loads numpy.random lazily: load it with the package rather
# than when the first run builds its streams.
import numpy.random  # noqa: F401

__all__ = [
    "RngStreams",
    "derive_seed",
    "replication_streams",
    "spawn_generator",
]


def derive_seed(root_seed: int, name: str) -> np.random.SeedSequence:
    """Derive a child :class:`~numpy.random.SeedSequence` for ``name``.

    The stream name is folded into the entropy pool through a stable CRC32
    hash so that the mapping ``(root_seed, name) -> stream`` does not depend
    on creation order or on Python's per-process string hashing.

    Parameters
    ----------
    root_seed:
        The experiment-level seed.
    name:
        A stable, human-readable stream identifier such as ``"schedule"``
        or ``"linkloss/run3"``.
    """
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.SeedSequence(entropy=root_seed, spawn_key=(tag,))


def spawn_generator(root_seed: int, name: str) -> np.random.Generator:
    """Create an independent generator for ``(root_seed, name)``."""
    return np.random.default_rng(derive_seed(root_seed, name))


def replication_streams(
    root_seed: int, kind: str, reps: Iterable[int]
) -> "list[np.random.Generator]":
    """One generator per replication, bit-identical to the serial runner's.

    The serial runner names its per-replication streams
    ``f"{kind}/{rep}"`` (e.g. ``"channel/3"``); the batched engine pulls
    the same decorrelated streams through this helper so that every
    replication extracted from an (R, …) batch replays the exact doubles
    its serial counterpart would have drawn.
    """
    return [spawn_generator(root_seed, f"{kind}/{int(rep)}") for rep in reps]


class RngStreams:
    """A lazily-populated registry of named random streams.

    Examples
    --------
    >>> streams = RngStreams(seed=7)
    >>> a = streams.get("schedule")
    >>> b = streams.get("linkloss")
    >>> a is streams.get("schedule")
    True
    >>> float(a.random()) != float(b.random())
    True
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was built from."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            gen = spawn_generator(self._seed, name)
            self._streams[name] = gen
        return gen

    def reset(self, names: Optional[Iterable[str]] = None) -> None:
        """Re-seed the named streams (or all streams) to their initial state.

        Useful when replaying a phase of an experiment without rebuilding
        the whole registry.
        """
        if names is None:
            names = list(self._streams)
        for name in names:
            self._streams[name] = spawn_generator(self._seed, name)

    def fork(self, suffix: str) -> "RngStreams":
        """Return a registry whose streams are independent of this one.

        ``fork`` is used by the experiment runner to give each replication
        its own universe of streams while keeping everything derivable from
        the experiment's root seed.
        """
        tag = zlib.crc32(suffix.encode("utf-8"))
        return RngStreams(seed=(self._seed * 1_000_003 + tag) % (2**63))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RngStreams(seed={self._seed}, streams={sorted(self._streams)})"
