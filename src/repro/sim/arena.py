"""Zero-counter stand-in for the retired scratch arena.

The engine allocates its per-slot temporaries with plain NumPy: pooling
them behind a scratch arena measured no end-to-end win and was removed.
This module remains only because the performance harness
(``perfbench/child.py``) imports :func:`global_arena` and reads its
``counters()`` on every run; its ``sim.arena.*`` rows therefore read 0.
The module goes when that harness stops reading it.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["global_arena"]


class _NoArena:
    """Counters of an arena that never borrows nor grows."""

    __slots__ = ()

    def counters(self) -> Tuple[int, int]:
        """``(borrows, grows)``: always ``(0, 0)``."""
        return 0, 0


_GLOBAL = _NoArena()


def global_arena() -> _NoArena:
    """The process-wide zero-counter object the harness meters."""
    return _GLOBAL
