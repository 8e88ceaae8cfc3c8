"""Wireless link-quality models.

The paper abstracts a lossy link by its *k-class* (Sec. IV-B): a k-class
link delivers a packet within ``k`` transmissions with high probability.
For a link whose per-transmission packet-reception ratio (PRR) is ``q``,
the expected transmission count is ``1/q``, so the paper's legend pairs
"link quality 50% <-> k = 2", "60% <-> 1.67", "70% <-> 1.42", "80% <-> 1.25".

For the trace-driven substrate we additionally model the physical chain
that produces a PRR in a real deployment (GreenOrbs measures RSSI over six
months and converts it to link quality):

    distance --(log-distance path loss + shadowing)--> RSSI
    RSSI --(SNR)--> bit error rate --> packet reception ratio

The RSSI->PRR conversion uses the standard coherent-FSK/DSSS approximation
used throughout the WSN literature for CC2420-class radios, which yields
the familiar sharp sigmoid with a gray region of intermediate links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..special import erfc

__all__ = [
    "LinkQuality",
    "RadioParameters",
    "prr_to_k_class",
    "k_class_to_prr",
    "expected_transmissions",
    "path_loss_db",
    "rssi_dbm",
    "snr_to_prr",
    "rssi_to_prr",
    "distance_to_prr",
]

#: Thermal noise floor used for SNR computation (dBm), typical for 2.4 GHz
#: at CC2420 channel bandwidth.
NOISE_FLOOR_DBM = -98.0

#: Default payload size (bytes) for the PRR curve; the paper's one-packet
#: slots correspond to a full data frame.
DEFAULT_FRAME_BYTES = 50


def prr_to_k_class(prr: float) -> float:
    """Map a per-transmission reception ratio to the paper's ``k`` class.

    ``k`` is the expected number of transmissions: ``k = 1/q``.

    >>> round(prr_to_k_class(0.5), 2)
    2.0
    >>> round(prr_to_k_class(0.8), 2)
    1.25
    """
    if not (0.0 < prr <= 1.0):
        raise ValueError(f"PRR must be in (0, 1], got {prr}")
    return 1.0 / prr


def k_class_to_prr(k: float) -> float:
    """Inverse of :func:`prr_to_k_class`.

    >>> round(k_class_to_prr(1.67), 3)
    0.599
    """
    if k < 1.0:
        raise ValueError(f"k-class must be >= 1, got {k}")
    return 1.0 / k


def expected_transmissions(prr: float) -> float:
    """ETX of a link: expected transmissions until first success."""
    return prr_to_k_class(prr)


@dataclass(frozen=True)
class RadioParameters:
    """Physical-layer constants for the synthetic trace generator.

    The defaults describe a CC2420-class 2.4 GHz radio in a forest
    environment (heavy foliage -> large path-loss exponent and shadowing
    variance, matching GreenOrbs' reported link-quality spread).
    """

    tx_power_dbm: float = 0.0
    path_loss_exponent: float = 2.8
    reference_distance_m: float = 1.0
    reference_loss_db: float = 38.0
    shadowing_sigma_db: float = 4.0
    noise_floor_dbm: float = NOISE_FLOOR_DBM
    frame_bytes: int = DEFAULT_FRAME_BYTES

    def __post_init__(self):
        if self.path_loss_exponent <= 0:
            raise ValueError("path loss exponent must be positive")
        if self.reference_distance_m <= 0:
            raise ValueError("reference distance must be positive")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing sigma must be non-negative")
        if self.frame_bytes < 1:
            raise ValueError("frame must be at least one byte")


def path_loss_db(
    distance_m: np.ndarray | float, params: RadioParameters
) -> np.ndarray | float:
    """Log-distance path loss (no shadowing term).

    ``PL(d) = PL(d0) + 10 * eta * log10(d / d0)``.
    """
    d = np.maximum(np.asarray(distance_m, dtype=float), params.reference_distance_m)
    return params.reference_loss_db + 10.0 * params.path_loss_exponent * np.log10(
        d / params.reference_distance_m
    )


def rssi_dbm(
    distance_m: np.ndarray | float,
    params: RadioParameters,
    shadowing_db: np.ndarray | float = 0.0,
) -> np.ndarray | float:
    """Received signal strength for a given distance and shadowing sample."""
    return params.tx_power_dbm - path_loss_db(distance_m, params) + np.asarray(
        shadowing_db, dtype=float
    )


def snr_to_prr(
    snr_db: np.ndarray | float, frame_bytes: int = DEFAULT_FRAME_BYTES
) -> np.ndarray:
    """Packet reception ratio from SNR via the O-QPSK/DSSS BER approximation.

    ``BER = Q(sqrt(2 * SNR_linear))`` per-bit, then
    ``PRR = (1 - BER)^(8 * frame_bytes)``. The constant in front of the SNR
    folds in the DSSS processing gain; the resulting curve has the
    empirical shape: PRR ~ 0 below roughly -3 dB SNR, a steep gray region,
    and PRR ~ 1 above roughly 6 dB.
    """
    snr_lin = np.power(10.0, np.asarray(snr_db, dtype=float) / 10.0)
    # Q(x) = 0.5 * erfc(x / sqrt(2)).
    ber = 0.5 * erfc(np.sqrt(np.maximum(snr_lin, 0.0)))
    prr = np.power(1.0 - np.minimum(ber, 1.0), 8 * frame_bytes)
    return np.clip(prr, 0.0, 1.0)


def rssi_to_prr(
    rssi: np.ndarray | float, params: RadioParameters
) -> np.ndarray:
    """PRR of a link whose long-term mean RSSI is ``rssi`` dBm."""
    snr_db = np.asarray(rssi, dtype=float) - params.noise_floor_dbm - 5.0
    return snr_to_prr(snr_db, params.frame_bytes)


def distance_to_prr(
    distance_m: np.ndarray | float,
    params: RadioParameters,
    shadowing_db: np.ndarray | float = 0.0,
) -> np.ndarray:
    """End-to-end helper: geometry + shadowing -> PRR."""
    return rssi_to_prr(rssi_dbm(distance_m, params, shadowing_db), params)


@dataclass(frozen=True)
class LinkQuality:
    """Quality descriptor of a directed link.

    Attributes
    ----------
    prr:
        Per-transmission packet reception ratio in (0, 1].
    rssi_dbm:
        Long-term mean RSSI the PRR was derived from (NaN when the link was
        specified directly by PRR, e.g. in homogeneous k-class networks).
    """

    prr: float
    rssi_dbm: float = float("nan")

    def __post_init__(self):
        if not (0.0 < self.prr <= 1.0):
            raise ValueError(f"PRR must be in (0, 1], got {self.prr}")

    @property
    def k_class(self) -> float:
        """The paper's k-class of this link (expected transmission count)."""
        return prr_to_k_class(self.prr)

    @property
    def etx(self) -> float:
        """Expected transmission count (alias used by the OF tree builder)."""
        return prr_to_k_class(self.prr)

    @property
    def is_perfect(self) -> bool:
        """Whether the link is lossless (paper's k = 1 class)."""
        return math.isclose(self.prr, 1.0)

    @classmethod
    def from_k_class(cls, k: float) -> "LinkQuality":
        return cls(prr=k_class_to_prr(k))
