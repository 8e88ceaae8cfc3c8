"""Impact of link loss on flooding delay (paper Sec. IV-B).

With homogeneous *k-class* links (a packet needs about ``k`` transmissions
to cross a link) and duty-cycle period ``T``, a failed transmission costs
a full sleep latency before the retry, so a copy spreads roughly every
``k*T`` original slots. The dissemination count then obeys the delayed
recurrence

    ``X(t+1) <= X(t) + X(t - kT)``        (paper Eq. (7))

whose characteristic (eigen) equation is

    ``lambda^(kT+1) = lambda^(kT) + 1``    (paper Eq. (8)).

The largest positive root ``lambda*`` is the asymptotic per-slot growth
factor; the flooding delay to cover ``1+N`` nodes is predicted by the
hitting time of the recurrence (computed exactly by iteration) or by the
asymptotic form ``log(1+N) / log(lambda*)``.

This module provides both, plus the Fig. 7/Fig. 10 series builders and
the pipeline-saturation test behind the paper's observation that high
loss destroys the bounded-blocking property of Corollary 1.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "growth_rate",
    "recurrence_hitting_time",
    "simulate_recurrence",
    "predicted_delay",
    "predicted_delay_asymptotic",
    "delay_vs_duty_cycle",
    "effective_k",
    "pipeline_saturated",
    "delay_inflation_factor",
]


def _characteristic_delay(k: float, period: int) -> int:
    """The recurrence lag ``round(k * T)`` in slots (>= 1)."""
    if k < 1.0:
        raise ValueError(f"k-class must be >= 1, got {k}")
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    return max(int(round(k * period)), 1)


def growth_rate(k: float, period: int) -> float:
    """Largest positive root of ``lambda^(kT+1) - lambda^(kT) - 1 = 0``.

    The root lies in ``(1, 2]``: at ``lambda = 1`` the polynomial is
    ``-1 < 0`` and at ``lambda = 2`` it is ``2^(kT) (2 - 1) - 1 >= 1 > 0``,
    so a Brent bracket on ``[1, 2]`` always converges. For ``kT = 1``
    (perfect links at 100% duty) the equation is ``lambda^2 = lambda + 1``
    with the golden-ratio root.

    >>> round(growth_rate(1.0, 1), 6)
    1.618034
    """
    # Imported here: only the theory figures solve Eq. (8), and
    # scipy.optimize would otherwise load with every simulation.
    from scipy.optimize import brentq

    lag = _characteristic_delay(k, period)

    def poly(lam: float) -> float:
        return lam ** (lag + 1) - lam**lag - 1.0

    return float(brentq(poly, 1.0 + 1e-12, 2.0, xtol=1e-12, rtol=1e-14))


def simulate_recurrence(
    k: float, period: int, n_slots: int, initial: float = 1.0
) -> np.ndarray:
    """Iterate ``X(t+1) = X(t) + X(t - kT)`` for ``n_slots`` slots.

    ``X(t) = initial`` for ``t <= kT`` (one copy — the source — until the
    first successful delivery lands). Returns the length-``n_slots + 1``
    trajectory. This is the *equality* version of the paper's inequality,
    i.e. the optimistic envelope used as the delay lower bound.
    """
    if n_slots < 0:
        raise ValueError("n_slots must be non-negative")
    if initial < 1.0:
        raise ValueError("initial population must be >= 1")
    lag = _characteristic_delay(k, period)
    x = np.empty(n_slots + 1, dtype=np.float64)
    x[: min(lag + 1, n_slots + 1)] = initial
    for t in range(lag, n_slots):
        x[t + 1] = x[t] + x[t - lag]
    return x


def recurrence_hitting_time(
    n_sensors: int, k: float, period: int, max_slots: Optional[int] = None
) -> int:
    """Exact hitting time: first ``t`` with ``X(t) >= 1 + N``.

    This is the Fig. 7 predictor — the minimum original-time flooding
    delay of one packet under k-class links at duty cycle ``1/T``.
    """
    if n_sensors < 1:
        raise ValueError(f"need at least one sensor, got {n_sensors}")
    lag = _characteristic_delay(k, period)
    if max_slots is None:
        # Generous cap: asymptotic estimate plus slack.
        lam = growth_rate(k, period)
        max_slots = int(4 * (lag + math.log(1 + n_sensors) / math.log(lam))) + 64
    target = 1 + n_sensors
    # Iterate lazily so huge targets stop early.
    history = [1.0] * (lag + 1)
    if history[0] >= target:
        return 0
    for t in range(lag, max_slots):
        nxt = history[t] + history[t - lag]
        history.append(nxt)
        if nxt >= target:
            return t + 1
    raise RuntimeError(
        f"population did not reach {target} within {max_slots} slots"
    )


def predicted_delay(n_sensors: int, k: float, period: int) -> int:
    """Paper Fig. 7 / Fig. 10 predicted flooding delay (original slots).

    Alias of :func:`recurrence_hitting_time`, named for discoverability.
    """
    return recurrence_hitting_time(n_sensors, k, period)


def predicted_delay_asymptotic(n_sensors: int, k: float, period: int) -> float:
    """Closed-form estimate ``log(1+N) / log(lambda*)``.

    Accurate for large ``N``; tests check it tracks the exact hitting
    time within the recurrence's warm-up transient (``~kT`` slots).
    """
    if n_sensors < 1:
        raise ValueError(f"need at least one sensor, got {n_sensors}")
    lam = growth_rate(k, period)
    return math.log(1 + n_sensors) / math.log(lam)


def delay_vs_duty_cycle(
    n_sensors: int,
    duty_cycles: Sequence[float],
    k_classes: Sequence[float],
) -> np.ndarray:
    """Fig. 7 series: predicted delay for each (k, duty-cycle) pair.

    Returns an ``(len(k_classes), len(duty_cycles))`` int array.
    """
    out = np.empty((len(k_classes), len(duty_cycles)), dtype=np.int64)
    for i, k in enumerate(k_classes):
        for j, duty in enumerate(duty_cycles):
            if not (0.0 < duty <= 1.0):
                raise ValueError(f"duty cycle must be in (0, 1], got {duty}")
            period = max(int(round(1.0 / duty)), 1)
            out[i, j] = recurrence_hitting_time(n_sensors, k, period)
    return out


def effective_k(prr_values: np.ndarray) -> float:
    """Network-effective k-class for the heterogeneous case.

    The paper extends the homogeneous analysis to heterogeneous networks
    by simulation; for the analytic lower bound we fold the link ensemble
    into one effective class, ``E[1/q]`` over usable links — the mean
    per-link expected transmission count.
    """
    prr = np.asarray(prr_values, dtype=np.float64)
    prr = prr[prr > 0.0]
    if prr.size == 0:
        raise ValueError("no usable links")
    if np.any(prr > 1.0):
        raise ValueError("PRR values must be <= 1")
    return float((1.0 / prr).mean())


def pipeline_saturated(
    n_sensors: int, k: float, period: int, generation_interval: int
) -> bool:
    """Whether per-packet service outpaces injection (blocking unbounded).

    The paper's negative result: when the time consumed flooding a single
    packet exceeds the source's generation gap, early packets block late
    ones without bound and the Corollary 1 window no longer applies. We
    compare the per-packet *service rate* of the pipeline (one packet
    drained per ``T`` slots once saturated, from Theorem 1's ``T/2 * M``
    term doubled to the semi-duplex worst case) against the injection
    rate.
    """
    if generation_interval < 0:
        raise ValueError("generation interval must be non-negative")
    # Once lossy, a packet's wave advances one compact step per ~kT slots,
    # and the pipeline drains one packet per ~kT slots in steady state.
    drain_per_packet = _characteristic_delay(k, period)
    return drain_per_packet > generation_interval


def delay_inflation_factor(k: float, period: int) -> float:
    """How much link loss magnifies the duty-cycle delay.

    Ratio of the lossy growth exponent to the lossless one at the same
    ``T``: ``log(lambda*(1, T)) / log(lambda*(k, T))``. Equals 1 for
    perfect links and grows without bound as ``k`` grows — the paper's
    "link loss significantly magnifies the negative impact of the duty
    cycle".
    """
    lossless = math.log(growth_rate(1.0, period))
    lossy = math.log(growth_rate(k, period))
    return lossless / lossy
