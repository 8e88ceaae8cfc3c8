"""Time-varying link dynamics (Gilbert-Elliott bursty links).

The paper's model draws every transmission outcome independently (static
PRR). Real WSN links are *bursty* — the related work it cites ([23],
Alizai et al., "Bursty traffic over bursty links") shows losses cluster
in time. The Gilbert-Elliott two-state Markov model is the standard
abstraction: each link alternates between a GOOD state (nominal PRR) and
a BAD state (PRR suppressed by a factor), with geometric sojourn times.

Burstiness interacts badly with duty cycling: a bad period that spans a
receiver's wake slot costs a *full duty-cycle period* per loss, so
correlated losses inflate sleep latency far more than their long-run
average suggests. The ``abl-bursty`` experiment quantifies this.

The state only exists for actual links (sparse representation), so
per-slot stepping is cheap even on the 298-node trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .topology import Topology

__all__ = ["BatchGilbertElliott", "GeParams", "GilbertElliott"]

#: Row budget for :meth:`GilbertElliott.advance` block draws: one chunk
#: draws at most this many doubles, bounding peak memory on very long
#: idle spans. Equality with ``k`` sequential ``step()`` draws holds for
#: any positive value (tests shrink it to force the chunked path).
_ADVANCE_BLOCK_DRAWS = 4_000_000


@dataclass(frozen=True)
class GeParams:
    """Gilbert-Elliott transition probabilities and BAD-state PRR factor.

    Validated on construction, so a scenario can check its link-model
    parameters before any topology exists.
    """

    p_good_to_bad: float = 0.02
    p_bad_to_good: float = 0.1
    bad_factor: float = 0.1

    def __post_init__(self):
        for name in ("p_good_to_bad", "p_bad_to_good"):
            p = getattr(self, name)
            if not (0.0 < p <= 1.0):
                raise ValueError(f"{name} must be in (0, 1], got {p}")
        if not (0.0 <= self.bad_factor <= 1.0):
            raise ValueError(
                f"bad_factor must be in [0, 1], got {self.bad_factor}")

    @property
    def stationary_bad_fraction(self) -> float:
        return self.p_good_to_bad / (self.p_good_to_bad + self.p_bad_to_good)

    def long_run_prr_scale(self) -> float:
        """Expected PRR multiplier under the stationary distribution."""
        pb = self.stationary_bad_fraction
        return (1 - pb) + pb * self.bad_factor


def _step_bad(
    bad: np.ndarray, rng: np.random.Generator, p_gb: float, p_bg: float
) -> None:
    """One Markov step on a 1-D BAD-flag array, in place."""
    u = rng.random(bad.size)
    go_bad = ~bad & (u < p_gb)
    go_good = bad & (u < p_bg)
    bad ^= go_bad | go_good


def _advance_bad(
    bad: np.ndarray,
    rng: np.random.Generator,
    k: int,
    p_gb: float,
    p_bg: float,
) -> np.ndarray:
    """``k`` Markov steps on a 1-D BAD-flag array via chunked block draws.

    Bit-identical (state *and* stream) to ``k`` calls of :func:`_step_bad`
    on the same generator; see :meth:`GilbertElliott.advance` for why the
    closed form is exact. Returns the final flags (may be a new array).
    """
    lo, hi = min(p_gb, p_bg), max(p_gb, p_bg)
    forced_bad = p_gb > p_bg  # the forcing event lands on BAD
    n = bad.size
    # Chunk the block draw so a long idle span cannot balloon memory.
    chunk = max(1, _ADVANCE_BLOCK_DRAWS // n)
    done = 0
    link_ix = np.arange(n)
    while done < k:
        m = min(chunk, k - done)
        u = rng.random((m, n))
        toggle = u < lo
        n_toggles = toggle.sum(axis=0)
        if lo == hi:
            bad ^= (n_toggles & 1).astype(bool)
        else:
            force = (u < hi) & ~toggle
            any_force = force.any(axis=0)
            # Last forcing row per link; toggles strictly after it.
            last = (m - 1) - np.argmax(force[::-1], axis=0)
            cum = np.cumsum(toggle, axis=0)
            after = n_toggles - np.where(
                any_force, cum[last, link_ix], 0
            )
            base = np.where(any_force, forced_bad, bad)
            bad = base ^ (after & 1).astype(bool)
        done += m
    return bad


class GilbertElliott:
    """Two-state Markov link dynamics.

    Parameters
    ----------
    topo:
        The static topology whose links get dynamic state.
    p_good_to_bad, p_bad_to_good:
        Per-slot transition probabilities. Expected sojourns are their
        inverses; the stationary bad fraction is
        ``p_gb / (p_gb + p_bg)``.
    bad_factor:
        PRR multiplier while a link is BAD (0 = complete outage).
    rng:
        Stream for state transitions (independent of the loss draws so
        enabling dynamics does not reshuffle the channel stream).
    start_stationary:
        Draw initial states from the stationary distribution (else all
        links start GOOD).
    """

    def __init__(
        self,
        topo: Topology,
        p_good_to_bad: float = GeParams.p_good_to_bad,
        p_bad_to_good: float = GeParams.p_bad_to_good,
        bad_factor: float = GeParams.bad_factor,
        rng: Optional[np.random.Generator] = None,
        start_stationary: bool = True,
    ):
        self._params = GeParams(p_good_to_bad, p_bad_to_good, bad_factor)
        self._topo = topo
        self._rng = rng if rng is not None else np.random.default_rng(0)

        rows, cols = np.nonzero(topo.adjacency)
        self._rows = rows
        self._cols = cols
        #: Per-link BAD flags, indexed like rows/cols.
        n_links = rows.size
        if start_stationary:
            self._bad = (self._rng.random(n_links)
                         < self._params.stationary_bad_fraction)
        else:
            self._bad = np.zeros(n_links, dtype=bool)
        #: (sender, receiver) -> link index for O(1) lookups.
        self._index = {
            (int(s), int(r)): i
            for i, (s, r) in enumerate(zip(rows.tolist(), cols.tolist()))
        }

    @property
    def n_links(self) -> int:
        return int(self._rows.size)

    @property
    def stationary_bad_fraction(self) -> float:
        return self._params.stationary_bad_fraction

    def long_run_prr_scale(self) -> float:
        """Expected PRR multiplier under the stationary distribution."""
        return self._params.long_run_prr_scale()

    def bad_fraction(self) -> float:
        """Current fraction of links in the BAD state."""
        return float(self._bad.mean()) if self._bad.size else 0.0

    def fork(self, rng: np.random.Generator) -> "GilbertElliott":
        """Clone with the current link states but an independent stream.

        Used by the Fig. 9 probe floods: each probe starts from the
        channel conditions the parent flood is experiencing *now*, then
        evolves on its own randomness so probes stay i.i.d.
        """
        p = self._params
        clone = GilbertElliott(
            self._topo,
            p_good_to_bad=p.p_good_to_bad,
            p_bad_to_good=p.p_bad_to_good,
            bad_factor=p.bad_factor,
            rng=rng,
            start_stationary=False,
        )
        clone._bad = self._bad.copy()
        return clone

    def step(self) -> None:
        """Advance every link's state by one slot (vectorized)."""
        if self._bad.size == 0:
            return
        _step_bad(
            self._bad,
            self._rng,
            self._params.p_good_to_bad,
            self._params.p_bad_to_good,
        )

    def advance(self, k: int) -> None:
        """Advance every link by ``k`` slots, bit-identical to ``k`` steps.

        The engine's quiescence fast-forward must keep the RNG stream and
        the final link states exactly as if :meth:`step` had run ``k``
        times. NumPy generators fill multi-dimensional ``random`` output
        in C order, so ``random((m, n_links))`` consumes the same doubles
        as ``m`` sequential ``random(n_links)`` calls — one block draw per
        chunk replaces ``k`` per-slot draws.

        The per-row Markov recursion then collapses into a closed form.
        With thresholds ``lo = min(p_gb, p_bg)`` and ``hi = max(...)``,
        a draw ``u < lo`` flips the state no matter what it is (both
        transitions fire for their respective states), while
        ``lo <= u < hi`` *forces* the state whose exit probability is the
        larger threshold's complement: e.g. for ``p_gb < p_bg`` it sends
        BAD to GOOD and leaves GOOD alone — the row ends GOOD either way.
        A link's final state is therefore the last forcing row's outcome
        (or the initial state if none) flipped once per later toggle row,
        which five vectorized passes over the block compute exactly.
        """
        if k < 0:
            raise ValueError(f"cannot advance by a negative count, got {k}")
        if k == 0 or self._bad.size == 0:
            return
        self._bad = _advance_bad(
            self._bad,
            self._rng,
            k,
            self._params.p_good_to_bad,
            self._params.p_bad_to_good,
        )

    def gain(self, sender: int, receiver: int) -> float:
        """Current PRR multiplier of a directed link (1.0 when GOOD)."""
        idx = self._index.get((sender, receiver))
        if idx is None:
            return 0.0
        return self._params.bad_factor if self._bad[idx] else 1.0

    def effective_prr(self, sender: int, receiver: int) -> float:
        """Nominal PRR scaled by the current link state."""
        return self._topo.link_prr(sender, receiver) * self.gain(
            sender, receiver
        )


class BatchGilbertElliott:
    """R independent Gilbert-Elliott universes with a leading R axis.

    Each replication keeps its own generator and its own BAD-flag row of
    the ``(R, n_links)`` state matrix; stepping/advancing replication
    ``k`` consumes exactly the doubles a standalone
    :class:`GilbertElliott` seeded with the same stream would, so any row
    extracted from the batch is bit-identical to its serial twin.

    Build it with :meth:`from_instances` from the per-replication
    instances the serial runner would have constructed — their
    stationary-init draws have then already been consumed from the right
    streams.
    """

    def __init__(
        self,
        topo: Topology,
        params: GeParams,
        bad: np.ndarray,
        rngs: "list[np.random.Generator]",
    ):
        if bad.ndim != 2 or bad.shape[0] != len(rngs):
            raise ValueError(
                f"bad flags must be (R, n_links) matching {len(rngs)} rngs, "
                f"got shape {bad.shape}"
            )
        self._topo = topo
        self._params = params
        self._bad = bad
        self._rngs = rngs
        rows, cols = np.nonzero(topo.adjacency)
        self._rows = rows
        self._cols = cols
        n = topo.adjacency.shape[0]
        #: (sender, receiver) -> link column, -1 for non-links.
        self._pair_idx = np.full((n, n), -1, dtype=np.int64)
        self._pair_idx[rows, cols] = np.arange(rows.size)

    @classmethod
    def from_instances(
        cls, instances: "list[GilbertElliott]"
    ) -> "BatchGilbertElliott":
        """Stack per-replication instances into one (R, n_links) batch."""
        if not instances:
            raise ValueError("need at least one replication instance")
        first = instances[0]
        for inst in instances[1:]:
            if inst._params != first._params or inst._topo is not first._topo:
                raise ValueError(
                    "replications must share topology and parameters"
                )
        bad = np.stack([inst._bad for inst in instances], axis=0)
        return cls(
            first._topo,
            first._params,
            bad,
            [inst._rng for inst in instances],
        )

    def write_back(self, instances: "list[GilbertElliott]") -> None:
        """Copy each replication's link states into its source instance.

        The inverse of :meth:`from_instances` (which shares the
        streams already): afterwards every instance is exactly where a
        standalone run of its replication would have left it.
        """
        for k, inst in enumerate(instances):
            inst._bad[:] = self._bad[k]

    @property
    def n_reps(self) -> int:
        return len(self._rngs)

    @property
    def n_links(self) -> int:
        return int(self._rows.size)

    @property
    def bad_factor(self) -> float:
        return self._params.bad_factor

    def step_reps(self, rep_ids: np.ndarray) -> None:
        """One Markov step for each listed replication.

        Draws come from each replication's own stream (one call per
        replication, matching the serial consumption order); the state
        update itself is row-local so the loop is the only scalar part.
        """
        if self._bad.shape[1] == 0:
            return
        p = self._params
        for k in rep_ids:
            _step_bad(
                self._bad[int(k)], self._rngs[int(k)],
                p.p_good_to_bad, p.p_bad_to_good,
            )

    def advance_rep(self, rep: int, k: int) -> None:
        """Advance one replication by ``k`` slots (lazy catch-up)."""
        if k < 0:
            raise ValueError(f"cannot advance by a negative count, got {k}")
        if k == 0 or self._bad.shape[1] == 0:
            return
        p = self._params
        self._bad[int(rep)] = _advance_bad(
            self._bad[int(rep)], self._rngs[int(rep)], k,
            p.p_good_to_bad, p.p_bad_to_good,
        )

    def gain(self, rep: int, sender: int, receiver: int) -> float:
        """Current PRR multiplier of a link in one replication."""
        idx = self._pair_idx[sender, receiver]
        if idx < 0:
            return 0.0
        return (
            self._params.bad_factor if self._bad[rep, idx] else 1.0
        )

    def gains(
        self, kk: np.ndarray, ss: np.ndarray, rr: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`gain` over (replication, sender, receiver)."""
        idx = self._pair_idx[ss, rr]
        valid = idx >= 0
        out = np.zeros(len(kk), dtype=np.float64)
        if valid.any():
            vk = kk[valid]
            bad = self._bad[vk, idx[valid]]
            out[valid] = np.where(bad, self._params.bad_factor, 1.0)
        return out

    def rep_state(self, rep: int) -> np.ndarray:
        """Copy of one replication's BAD flags (tests/diagnostics)."""
        return self._bad[int(rep)].copy()
