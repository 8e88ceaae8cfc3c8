"""Flooding protocols: the paper's three evaluation schemes plus baselines.

Importing this package registers every protocol with the name registry
(`make_protocol`): ``opt``, ``dbao``, ``of``, ``naive``, ``dca``,
``crosslayer``, ``flash``.
"""

from .base import (
    FloodingProtocol,
    RepSimView,
    available_protocols,
    make_protocol,
    register_protocol,
)
from .crosslayer import CrossLayerFlooding, recommended_configuration
from .dbao import Dbao
from .dca import DutyCycleAwareFlooding, build_delay_optimal_tree
from .flash import FlashFlooding
from .naive import NaiveFlooding
from .opt import OptOracle, opt_radio_model
from .oppflood import OpportunisticFlooding
from .tree import EtxTree, build_etx_tree, hop_delay_moments

__all__ = [
    "FloodingProtocol", "RepSimView", "available_protocols", "make_protocol",
    "register_protocol",
    "CrossLayerFlooding", "recommended_configuration",
    "Dbao",
    "DutyCycleAwareFlooding", "build_delay_optimal_tree",
    "FlashFlooding",
    "NaiveFlooding",
    "OptOracle", "opt_radio_model",
    "OpportunisticFlooding",
    "EtxTree", "build_etx_tree", "hop_delay_moments",
]
