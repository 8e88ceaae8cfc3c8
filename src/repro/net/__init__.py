"""Network substrate: topologies, link models, schedules, packets, radio."""

from .generators import (
    binary_tree_topology,
    grid_topology,
    line_topology,
    positions_to_topology,
    random_geometric_topology,
    star_topology,
)
from .links import (
    LinkQuality,
    RadioParameters,
    distance_to_prr,
    expected_transmissions,
    k_class_to_prr,
    prr_to_k_class,
    rssi_to_prr,
)
from .packet import FloodWorkload, Packet
from .radio import (
    RadioModel,
    Reception,
    SlotOutcome,
    Transmission,
    TxBatch,
    resolve_slot,
)
from .schedule import ScheduleTable, duty_ratio_to_period
from .topology import SOURCE, Topology
from .trace import (
    GreenOrbsConfig,
    load_trace,
    save_trace,
    synthesize_greenorbs,
    trace_statistics,
)

__all__ = [
    "binary_tree_topology", "grid_topology", "line_topology",
    "positions_to_topology", "random_geometric_topology", "star_topology",
    "LinkQuality", "RadioParameters", "distance_to_prr",
    "expected_transmissions", "k_class_to_prr", "prr_to_k_class",
    "rssi_to_prr",
    "FloodWorkload", "Packet",
    "RadioModel", "Reception", "SlotOutcome", "Transmission", "TxBatch",
    "resolve_slot",
    "ScheduleTable", "duty_ratio_to_period",
    "SOURCE", "Topology",
    "GreenOrbsConfig", "load_trace", "save_trace", "synthesize_greenorbs",
    "trace_statistics",
]

from .dynamics import GilbertElliott

__all__.append("GilbertElliott")
