"""Declarative scenario layer: one serializable spec from CLI to store.

The paper's study is a grid of scenarios — protocol x duty ratio x
packet count x link model, all over the same 298-node trace — and every
extension workload (schedule jitter, bursty links, multi-slot wake
budgets, homogenized twins) is a point in the same space. This module
makes that space a *data type*:

* :class:`Scenario` — a frozen, JSON-round-trippable description of one
  simulation configuration: topology source, schedule shape, protocol
  and its constructor kwargs, link-dynamics model, workload size,
  engine-config overrides, replication count and the root seed.
* :class:`TopologySpec` — a declarative topology source (generator kind,
  seed, parameters, optional transform) with a bounded build cache.
* :class:`ScenarioGrid` — a base scenario plus named sweep axes,
  expanding to the cartesian list of scenarios; the unit the experiment
  registry, the CLI (``repro run-scenario``) and the analysis helpers
  all exchange. :meth:`ScenarioGrid.shard` deterministically partitions
  a grid's cells into disjoint sub-grids that serialize to
  self-contained shard files (stamped with the parent grid's
  fingerprint), so one sweep can execute as independent processes or
  hosts and merge back through the result store.

Content addressing
------------------
``Scenario.fingerprint()`` hashes the *serialized* scenario (canonical
sorted-key JSON of :meth:`Scenario.to_dict`), never Python object
structure — so result-store keys survive refactors of the code that
built the spec, and a scenario loaded from a JSON file hits the same
cache entries as the identical scenario built by an experiment module.
The ``topology`` field is deliberately **excluded** from the
fingerprint: the result-store key already includes the fingerprint of
the *realized* :class:`~repro.net.topology.Topology`, so two scenario
files describing the same substrate differently (explicit parameters vs
a generator default) still share cache entries.

Seed derivation
---------------
A scenario's replication ``rep`` derives every random stream from
``(seed, rep)`` through name-keyed :class:`~repro.sim.rng.RngStreams`:
``schedule/{rep}`` draws the wake schedule, ``channel/{rep}`` the loss
randomness, ``dynamics/{rep}`` the link-dynamics transitions and
``jitter/{rep}`` the clock-skew draws. Streams are order-independent,
so replications are pure functions of the scenario — serial, parallel
and cached execution are bit-identical.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import itertools
import json
import numbers
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from .net.topology import Topology, ge_mean_matched, homogenized

__all__ = [
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioGrid",
    "TopologySpec",
    "ScenarioError",
    "build_topology",
    "load_scenario_file",
    "topology_cache_info",
]

#: Scenario-file schema; bump on incompatible layout changes.
SCHEMA_VERSION = 1

#: Link-dynamics models a scenario can name.
LINK_MODELS = ("static", "gilbert_elliott")

#: Keyword arguments :class:`~repro.net.dynamics.GilbertElliott` accepts
#: declaratively (the rng is derived from the scenario seed).
_LINK_KWARGS = ("p_good_to_bad", "p_bad_to_good", "bad_factor",
                "start_stationary")


class ScenarioError(ValueError):
    """A scenario (or scenario file) failed validation."""


def _json_default(obj: Any) -> Any:
    """Let numpy scalars (sweep axes often carry them) serialize as
    their Python equivalents; anything else is a spec bug."""
    import numpy as np

    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    raise TypeError(
        f"cannot serialize {type(obj).__name__!r} in a scenario; "
        f"scenario fields must be JSON-representable data"
    )


def _canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      default=_json_default)


def _reject_unknown(given, allowed, what: str) -> None:
    """Raise a helpful error naming the closest valid key."""
    for key in given:
        if key in allowed:
            continue
        hint = difflib.get_close_matches(str(key), [str(a) for a in allowed],
                                         n=1, cutoff=0.6)
        suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
        raise ScenarioError(
            f"unknown {what} {key!r}{suggestion} (valid: {sorted(allowed)})"
        )


#: Exclusive bound of the signed 64-bit integers the engine computes in.
_INT64_END = 2 ** 63


def _check_number(name: str, value: Any, kind: type) -> None:
    """Reject a ``value`` for field ``name`` that is not a ``kind``.

    ``kind`` is :class:`numbers.Integral` or :class:`numbers.Real`;
    booleans are refused either way, although Python counts them as
    integers. Integers must also fit the engine's signed 64-bit arrays.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a number"
        raise ScenarioError(f"{name} must be {noun}, got {value!r}")
    if kind is numbers.Integral and not -_INT64_END <= value < _INT64_END:
        raise ScenarioError(
            f"{name} must fit a signed 64-bit integer, got {value!r}")


def _check_seed(name: str, value: Any) -> None:
    """Reject a seed that NumPy's seed sequences cannot take."""
    _check_number(name, value, numbers.Integral)
    if value < 0:
        raise ScenarioError(f"{name} must be non-negative, got {value!r}")


def _check_flag(name: str, value: Any) -> None:
    """Reject a ``value`` for field ``name`` that is not a boolean."""
    if not isinstance(value, bool):
        raise ScenarioError(f"{name} must be true or false, got {value!r}")


def _check_object(name: str, value: Any) -> None:
    """Reject a ``value`` for field ``name`` that is not a JSON object."""
    if not isinstance(value, Mapping):
        raise ScenarioError(
            f"{name} must be an object, got {type(value).__name__}"
        )


# ---------------------------------------------------------------------------
# Topology sources
# ---------------------------------------------------------------------------

#: Per-kind allowed ``params`` keys (seed and rng are handled uniformly).
_TOPOLOGY_PARAMS: Dict[str, Tuple[str, ...]] = {
    "greenorbs": ("n_sensors", "area_m", "n_clusters", "cluster_sigma_m",
                  "background_fraction", "neighbor_threshold",
                  "coverage_target", "max_attempts"),
    "line": ("n_sensors", "prr"),
    "star": ("n_sensors", "prr"),
    "binary_tree": ("depth", "prr"),
    "grid": ("rows", "cols", "spacing_m", "perfect_links"),
    "random_geometric": ("n_nodes", "area_m", "neighbor_threshold"),
    "geometric": ("n_nodes", "area_m", "placement", "neighbor_threshold",
                  "tx_power_dbm", "path_loss_exponent",
                  "reference_distance_m", "reference_loss_db",
                  "shadowing_sigma_db", "noise_floor_dbm", "frame_bytes"),
}

#: Topology transforms: name -> function of the generated substrate.
_TRANSFORMS = {"homogenize": homogenized, "ge_mean_matched": ge_mean_matched}


@dataclass(frozen=True)
class TopologySpec:
    """Declarative topology source: generator kind, seed, parameters.

    ``transform`` optionally post-processes the generated substrate:
    ``"homogenize"`` (same adjacency, every link at the network-mean
    PRR; the Sec. IV-B heterogeneity twin) or ``"ge_mean_matched"``
    (every PRR scaled to the long-run mean of default Gilbert-Elliott
    dynamics; the static twin of the bursty-link ablation).
    """

    kind: str = "greenorbs"
    seed: int = 2011
    params: Dict[str, Any] = field(default_factory=dict)
    transform: Optional[str] = None

    def __post_init__(self):
        _check_seed("topology seed", self.seed)
        _reject_unknown((self.kind,), _TOPOLOGY_PARAMS, "topology kind")
        _reject_unknown(self.params, _TOPOLOGY_PARAMS[self.kind],
                        f"{self.kind!r} topology parameter")
        if self.transform is not None:
            _reject_unknown((self.transform,), _TRANSFORMS,
                            "topology transform")

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "seed": self.seed,
                "params": dict(self.params), "transform": self.transform}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        _check_object("topology", data)
        _reject_unknown(data, ("kind", "seed", "params", "transform"),
                        "topology field")
        params = data.get("params", {})
        _check_object("topology params", params)
        return cls(
            kind=data.get("kind", "greenorbs"),
            seed=data.get("seed", 2011),
            params=dict(params),
            transform=data.get("transform"),
        )

    def fingerprint(self) -> str:
        """Content hash of the *description* (not the realized topology)."""
        blob = _canonical_json(self.to_dict())
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def build(self) -> Topology:
        """Realize the topology (uncached; see :func:`build_topology`)."""
        import numpy as np

        p = dict(self.params)
        if self.kind == "greenorbs":
            from .net.trace import GreenOrbsConfig, synthesize_greenorbs

            n = p.pop("n_sensors", 298)
            if n != 298:
                # Shrink the plot so density (hence degree) stays
                # paper-like — the same derivation the experiment scales
                # use, so a scenario file reproduces ``get_trace`` bit
                # for bit.
                p.setdefault("area_m", 700.0 * (n / 298.0) ** 0.5)
                p.setdefault("n_clusters", max(3, int(10 * n / 298)))
                p.setdefault("cluster_sigma_m", 60.0)
            config = GreenOrbsConfig(n_sensors=n, **p) if (n != 298 or p) \
                else None
            topo = synthesize_greenorbs(seed=self.seed, config=config)
        elif self.kind == "line":
            from .net.generators import line_topology

            topo = line_topology(p.pop("n_sensors", 5), **p)
        elif self.kind == "star":
            from .net.generators import star_topology

            topo = star_topology(p.pop("n_sensors", 5), **p)
        elif self.kind == "binary_tree":
            from .net.generators import binary_tree_topology

            topo = binary_tree_topology(p.pop("depth", 3), **p)
        elif self.kind == "grid":
            from .net.generators import grid_topology

            topo = grid_topology(p.pop("rows", 4), p.pop("cols", 4),
                                 rng=np.random.default_rng(self.seed), **p)
        elif self.kind == "geometric":
            from .net.generators import geometric_topology
            from .net.links import RadioParameters

            radio_keys = {f.name for f in dataclasses.fields(RadioParameters)}
            radio_p = {k: p.pop(k) for k in list(p) if k in radio_keys}
            topo = geometric_topology(
                p.pop("n_nodes", 30), p.pop("area_m", 100.0),
                radio=RadioParameters(**radio_p) if radio_p else None,
                rng=np.random.default_rng(self.seed), **p,
            )
        else:  # random_geometric (kinds validated in __post_init__)
            from .net.generators import random_geometric_topology

            topo = random_geometric_topology(
                p.pop("n_nodes", 30), p.pop("area_m", 100.0),
                rng=np.random.default_rng(self.seed), **p,
            )
        if self.transform is not None:
            topo = _TRANSFORMS[self.transform](topo)
        return topo


#: Bounded FIFO memo for realized topologies, keyed by spec fingerprint.
#: Eight entries cover every scale x seed pair a session realistically
#: touches (the old ``lru_cache(maxsize=8)`` on ``get_trace``) while
#: bounding memory — a 298-node trace is a few MB of PRR/RSSI matrices.
_TOPOLOGY_CACHE_MAXSIZE = 8
_topology_cache: Dict[str, Topology] = {}


def build_topology(spec: TopologySpec) -> Topology:
    """Build (or fetch from the bounded cache) the topology of ``spec``.

    Repeated calls with an equal spec return the *same* object, so
    shared-memory broadcast and fingerprint memoization keep working
    across experiment invocations.
    """
    key = spec.fingerprint()
    topo = _topology_cache.get(key)
    if topo is None:
        topo = spec.build()
        if len(_topology_cache) >= _TOPOLOGY_CACHE_MAXSIZE:
            _topology_cache.pop(next(iter(_topology_cache)))
        _topology_cache[key] = topo
    return topo


def topology_cache_info() -> Tuple[int, int]:
    """``(entries, maxsize)`` of the topology build cache."""
    return len(_topology_cache), _TOPOLOGY_CACHE_MAXSIZE


# ---------------------------------------------------------------------------
# Engine-config overrides
# ---------------------------------------------------------------------------

def _default_radio(protocol: str):
    """The radio a protocol runs on by default.

    OPT plays on its collision-free oracle channel; the cross-layer
    sketch deliberately turns data overhearing on (the paper's
    future-work direction 2); everyone else gets the paper's defaults.
    """
    from .net.radio import RadioModel

    if protocol == "opt":
        from .protocols.opt import opt_radio_model

        return opt_radio_model()
    if protocol == "crosslayer":
        return RadioModel(overhearing=True)
    return RadioModel()


def _sim_override_fields() -> Tuple[Dict[str, str], Dict[str, str]]:
    """Type annotations of the allowed SimConfig and radio override keys."""
    from .net.radio import RadioModel
    from .sim.engine import SimConfig

    sim_fields = {f.name: f.type for f in dataclasses.fields(SimConfig)
                  if f.name != "coverage_target"}
    radio_fields = {f.name: f.type for f in dataclasses.fields(RadioModel)}
    return sim_fields, radio_fields


#: Value checks for the annotations of the engine-config override fields.
_OVERRIDE_KINDS = {"bool": bool, "int": numbers.Integral, "float": numbers.Real}


def _check_override(name: str, value: Any, annotation: str) -> None:
    """Reject an override ``value`` that its config field cannot hold."""
    if annotation.startswith("Optional["):
        if value is None:
            return
        annotation = annotation[len("Optional["):-1]
    kind = _OVERRIDE_KINDS[annotation]
    if kind is bool:
        _check_flag(name, value)
    else:
        _check_number(name, value, kind)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One serializable simulation configuration.

    Field groups, in paper terms:

    * **workload** — ``protocol`` (+ ``protocol_kwargs``), ``n_packets``
      (the paper's ``M``), ``generation_interval``;
    * **schedule** — ``duty_ratio`` (period
      ``T = round(wake_slots / duty_ratio)``), ``wake_slots`` (active
      slots per period; the paper's normalized analysis uses 1),
      ``schedule_jitter`` (per-period probability a node's true wake
      lands one slot off its advertised slot — residual synchronization
      error);
    * **channel** — ``link_model`` (``static`` or ``gilbert_elliott``)
      with ``link_kwargs``, plus ``sim`` overrides (``fast_forward``,
      ``max_slots``, ``track_events`` and a nested ``radio`` object of
      :class:`~repro.net.radio.RadioModel` switches);
    * **MAC** — ``mac`` (``ideal``, the paper's one-winner CSMA oracle,
      or ``csma_802154``, ContikiOS-style CSMA-CA) with ``mac_kwargs``
      (see :mod:`repro.net.mac`); the default ``ideal`` with no kwargs
      is fingerprint-invariant with pre-MAC scenarios;
    * **bookkeeping** — ``seed``, ``n_replications``,
      ``coverage_target``, ``measure_transmission_delay``;
    * **substrate** — an optional :class:`TopologySpec` naming where the
      network comes from (excluded from the fingerprint; see module
      docs).
    """

    protocol: str
    duty_ratio: float
    n_packets: int
    seed: int = 0
    n_replications: int = 1
    coverage_target: float = 0.99
    generation_interval: int = 0
    protocol_kwargs: Dict[str, Any] = field(default_factory=dict)
    wake_slots: int = 1
    schedule_jitter: float = 0.0
    link_model: str = "static"
    link_kwargs: Dict[str, Any] = field(default_factory=dict)
    mac: str = "ideal"
    mac_kwargs: Dict[str, Any] = field(default_factory=dict)
    sim: Dict[str, Any] = field(default_factory=dict)
    measure_transmission_delay: bool = False
    topology: Optional[TopologySpec] = None

    def __post_init__(self):
        from .net.dynamics import GeParams
        from .net.mac import MAC_PARAMS
        from .protocols import available_protocols, make_protocol

        if not self.protocol or not isinstance(self.protocol, str):
            raise ScenarioError(f"protocol must be a name, got {self.protocol!r}")
        _reject_unknown((self.protocol,), available_protocols(), "protocol")
        for name in ("n_packets", "n_replications", "generation_interval",
                     "wake_slots"):
            _check_number(name, getattr(self, name), numbers.Integral)
        _check_seed("seed", self.seed)
        for name in ("duty_ratio", "coverage_target", "schedule_jitter"):
            _check_number(name, getattr(self, name), numbers.Real)
        for name in ("protocol_kwargs", "link_kwargs", "mac_kwargs", "sim"):
            _check_object(name, getattr(self, name))
        _check_flag("measure_transmission_delay",
                    self.measure_transmission_delay)
        if not (0.0 < self.duty_ratio <= 1.0):
            raise ScenarioError(
                f"duty ratio must be in (0, 1], got {self.duty_ratio}"
            )
        if self.n_packets < 1:
            raise ScenarioError("need at least one packet")
        if self.n_replications < 1:
            raise ScenarioError("need at least one replication")
        if not (0.0 < self.coverage_target <= 1.0):
            raise ScenarioError(
                f"coverage target must be in (0, 1], got {self.coverage_target}"
            )
        if self.generation_interval < 0:
            raise ScenarioError("generation interval must be >= 0")
        if self.wake_slots < 1:
            raise ScenarioError("need at least one wake slot per period")
        if not self.wake_slots / self.duty_ratio < _INT64_END:
            raise ScenarioError(
                f"duty_ratio {self.duty_ratio} with {self.wake_slots} wake "
                "slot(s) gives a wake period beyond a signed 64-bit integer"
            )
        if not (0.0 <= self.schedule_jitter <= 1.0):
            raise ScenarioError(
                f"schedule jitter must be in [0, 1], got {self.schedule_jitter}"
            )
        if self.link_model not in LINK_MODELS:
            _reject_unknown((self.link_model,), LINK_MODELS, "link model")
        _reject_unknown(self.link_kwargs, _LINK_KWARGS,
                        "link-model parameter")
        if self.link_model == "static" and self.link_kwargs:
            raise ScenarioError(
                f"link-model parameters {sorted(self.link_kwargs)} need "
                f"link_model 'gilbert_elliott'; static links take none"
            )
        rates = {}
        for key, value in self.link_kwargs.items():
            if key == "start_stationary":
                _check_flag(f"link-model parameter {key!r}", value)
            else:
                _check_number(f"link-model parameter {key!r}", value,
                              numbers.Real)
                rates[key] = value
        # A tuple, not the dict: an unhashable mac must still get a
        # ScenarioError rather than a TypeError from the lookup.
        mac_kinds = tuple(MAC_PARAMS)
        if self.mac not in mac_kinds:
            _reject_unknown((self.mac,), mac_kinds, "mac kind")
        _reject_unknown(self.mac_kwargs, MAC_PARAMS[self.mac],
                        f"{self.mac!r} mac parameter")
        for key, value in self.mac_kwargs.items():
            _check_number(f"{self.mac!r} mac parameter {key!r}", value,
                          numbers.Integral)
        sim_fields, radio_fields = _sim_override_fields()
        _reject_unknown(self.sim, sim_fields, "sim override")
        for key, value in self.sim.items():
            if key != "radio":
                _check_override(f"sim override {key!r}", value,
                                sim_fields[key])
        radio = self.sim.get("radio", {})
        if not isinstance(radio, Mapping):
            raise ScenarioError(
                "sim override 'radio' must be an object of RadioModel fields"
            )
        _reject_unknown(radio, radio_fields, "radio override")
        for key, value in radio.items():
            _check_override(f"radio override {key!r}", value,
                            radio_fields[key])
        if self.topology is not None and not isinstance(self.topology,
                                                        TopologySpec):
            raise ScenarioError(
                "topology must be a TopologySpec (or an object in JSON)"
            )
        # Build what the runner builds, so a scenario that validates runs.
        builders = {
            f"protocol_kwargs for {self.protocol!r}": lambda: make_protocol(
                self.protocol, **self.protocol_kwargs),
            "link-model parameters": lambda: GeParams(**rates),
            f"{self.mac!r} mac parameters": self.make_link_model,
            "sim overrides": self.sim_config,
        }
        for what, build in builders.items():
            try:
                build()
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"invalid {what}: {exc}") from None

    # -- derived quantities -------------------------------------------

    @property
    def period(self) -> int:
        """Schedule period ``T``: ``wake_slots`` active slots per ``T``."""
        return max(int(round(self.wake_slots / self.duty_ratio)),
                   self.wake_slots)

    def sim_config(self):
        """The effective :class:`~repro.sim.engine.SimConfig`.

        Starts from the protocol's default configuration (OPT's oracle
        channel etc.) and applies the declarative ``sim`` overrides.
        """
        from .sim.engine import SimConfig

        radio = _default_radio(self.protocol)
        overrides = dict(self.sim)
        radio_overrides = overrides.pop("radio", None)
        if radio_overrides:
            radio = dataclasses.replace(radio, **radio_overrides)
        return SimConfig(coverage_target=self.coverage_target, radio=radio,
                         **overrides)

    def make_dynamics(self, topo: Topology, rng):
        """Instantiate the link-dynamics model (``None`` for static)."""
        if self.link_model == "static":
            return None
        from .net.dynamics import GilbertElliott

        return GilbertElliott(topo, rng=rng, **self.link_kwargs)

    def make_link_model(self):
        """Instantiate the :class:`~repro.net.mac.LinkModel` of ``mac``."""
        from .net.mac import make_link_model

        return make_link_model(self.mac, **self.mac_kwargs)

    # -- serialization ------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Complete JSON-serializable dict (defaults materialized)."""
        data = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "topology"
        }
        data["protocol_kwargs"] = dict(self.protocol_kwargs)
        data["link_kwargs"] = dict(self.link_kwargs)
        data["mac_kwargs"] = dict(self.mac_kwargs)
        data["sim"] = {k: (dict(v) if isinstance(v, Mapping) else v)
                       for k, v in self.sim.items()}
        data["topology"] = (None if self.topology is None
                            else self.topology.to_dict())
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Strict inverse of :meth:`to_dict`.

        Missing fields take their defaults; unknown or misspelled fields
        raise :class:`ScenarioError` with the closest valid name.
        """
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"scenario must be an object, got {type(data).__name__}"
            )
        names = {f.name for f in dataclasses.fields(cls)}
        _reject_unknown(data, names, "scenario field")
        if "protocol" not in data or "duty_ratio" not in data \
                or "n_packets" not in data:
            missing = [k for k in ("protocol", "duty_ratio", "n_packets")
                       if k not in data]
            raise ScenarioError(f"scenario is missing required fields {missing}")
        kwargs = dict(data)
        topo = kwargs.pop("topology", None)
        if topo is not None and not isinstance(topo, TopologySpec):
            topo = TopologySpec.from_dict(topo)
        return cls(topology=topo, **kwargs)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          default=_json_default)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    # -- content addressing -------------------------------------------

    def fingerprint(self) -> str:
        """Canonical content hash of the serialized scenario.

        Hashes sorted-key JSON of :meth:`to_dict` minus ``topology``
        (module docs explain why), so the digest is invariant to field
        order, construction path, and refactors of the code that built
        the scenario — only the *data* matters.
        """
        data = self.to_dict()
        data.pop("topology")
        if self.mac == "ideal" and not self.mac_kwargs:
            # The default MAC is the pre-layering engine bit for bit, so
            # default scenarios keep their historical fingerprints (and
            # store keys) from before the ``mac`` field existed.
            data.pop("mac")
            data.pop("mac_kwargs")
        blob = _canonical_json(data)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Scenario grids
# ---------------------------------------------------------------------------

def _freeze_axis_value(field_name: str, value: Any) -> Any:
    if field_name == "topology" and isinstance(value, Mapping) \
            and not isinstance(value, TopologySpec):
        return TopologySpec.from_dict(value)
    return value


@dataclass(frozen=True)
class ScenarioGrid:
    """A base :class:`Scenario` plus ordered sweep axes.

    ``axes`` maps scenario field names to value sequences; the grid
    expands to the cartesian product in axis order (last axis fastest),
    exactly like nested for-loops over the axes.

    Sharding
    --------
    :meth:`shard` partitions the expanded cells into ``count``
    deterministic, near-equal, disjoint subsets — the unit of multi-host
    execution. The partition orders cells by ``(fingerprint, expansion
    index)`` and deals sorted positions round-robin, so it depends only
    on the cells' *content*, never on Python hashing or axis authoring
    style; shard ``i`` then presents its cells in original expansion
    order. A sharded grid serializes to a **self-contained** grid JSON
    (full base + axes plus a ``shard`` stanza stamped with the parent
    grid's fingerprint), so a shard file can be shipped to another host
    and re-expanded there; the stamp makes editing a shard file's axes
    — or mixing shards of different grids — a load-time error instead
    of a silently wrong merge.
    """

    base: Scenario
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    name: Optional[str] = None
    sharding: Optional[Tuple[int, int]] = None

    def __init__(self, base: Scenario, axes: Any = (),
                 name: Optional[str] = None,
                 sharding: Optional[Tuple[int, int]] = None):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "name", name)
        if isinstance(axes, Mapping):
            axes = tuple(axes.items())
        frozen: List[Tuple[str, Tuple[Any, ...]]] = []
        fields = {f.name for f in dataclasses.fields(Scenario)}
        for field_name, values in axes:
            _reject_unknown((field_name,), fields, "sweep axis")
            values = tuple(_freeze_axis_value(field_name, v) for v in values)
            if not values:
                raise ScenarioError(f"axis {field_name!r} has no values")
            frozen.append((field_name, values))
        object.__setattr__(self, "axes", tuple(frozen))
        if sharding is not None:
            index, count = sharding
            _check_number("shard index", index, numbers.Integral)
            _check_number("shard count", count, numbers.Integral)
            if count < 1:
                raise ScenarioError(
                    f"shard count must be >= 1, got {count}"
                )
            if not (0 <= index < count):
                raise ScenarioError(
                    f"shard index must be in [0, {count}), got {index} "
                    f"(shard indices are 0-based)"
                )
            sharding = (int(index), int(count))
        object.__setattr__(self, "sharding", sharding)
        for scenario in self._full_scenarios():  # validate every cell eagerly
            assert isinstance(scenario, Scenario)

    # -- expansion -----------------------------------------------------

    def _full_combos(self) -> List[Tuple[Any, ...]]:
        """Every cell's axis-value tuple, ignoring any sharding."""
        if not self.axes:
            return [()]
        return list(itertools.product(*(v for _, v in self.axes)))

    def _full_scenarios(self) -> List[Scenario]:
        names = [n for n, _ in self.axes]
        return [
            dataclasses.replace(self.base,
                                **dict(zip(names, combo)))
            for combo in self._full_combos()
        ]

    def cell_indices(self) -> Tuple[int, ...]:
        """Indices (in full-grid expansion order) of this grid's cells.

        The whole determinism contract of sharding lives here: cells are
        ordered by ``(cell fingerprint, expansion index)`` — a pure
        function of the grid's content — and sorted position ``p`` goes
        to shard ``p % count`` (round-robin, so shard sizes differ by at
        most one). The selected indices are returned ascending, so a
        shard's cells keep their original expansion order.
        """
        full = self._full_scenarios()
        if self.sharding is None:
            return tuple(range(len(full)))
        index, count = self.sharding
        fps = [s.fingerprint() for s in full]
        order = sorted(range(len(full)), key=lambda j: (fps[j], j))
        return tuple(sorted(order[p] for p in range(len(full))
                            if p % count == index))

    def __len__(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        if self.sharding is None:
            return n
        return len(self.cell_indices())

    def combos(self) -> List[Tuple[Any, ...]]:
        """Axis-value tuples in expansion order (``()`` for no axes).

        On a sharded grid, only this shard's cells (original order).
        """
        full = self._full_combos()
        if self.sharding is None:
            return full
        return [full[i] for i in self.cell_indices()]

    def scenarios(self) -> List[Scenario]:
        """The expanded cartesian list of scenarios (this shard's cells)."""
        full = self._full_scenarios()
        if self.sharding is None:
            return full
        return [full[i] for i in self.cell_indices()]

    def items(self) -> Iterator[Tuple[Tuple[Any, ...], Scenario]]:
        return zip(self.combos(), self.scenarios())

    # -- sharding ------------------------------------------------------

    def shard(self, index: int, count: int) -> "ScenarioGrid":
        """Shard ``index`` (0-based) of ``count`` disjoint sub-grids.

        The union of ``grid.shard(0, k) .. grid.shard(k-1, k)`` is
        exactly the full grid; see :meth:`cell_indices` for the
        determinism contract. A shard with more shards than cells is
        legal and simply empty. Re-sharding a shard is refused — shards
        are stamped against the *parent* grid, and a shard-of-shard
        would silently change which grid the stamp refers to.
        """
        if self.sharding is not None:
            raise ScenarioError(
                f"grid is already shard {self.sharding[0]}/{self.sharding[1]}; "
                f"shard the full grid instead"
            )
        return ScenarioGrid(base=self.base, axes=self.axes, name=self.name,
                            sharding=(index, count))

    def shards(self, count: int) -> List["ScenarioGrid"]:
        """All ``count`` shards, in index order (``count`` >= 1)."""
        if count < 1:
            raise ScenarioError(f"shard count must be >= 1, got {count}")
        return [self.shard(i, count) for i in range(count)]

    # -- serialization ------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        axes: Dict[str, List[Any]] = {}
        for field_name, values in self.axes:
            axes[field_name] = [
                v.to_dict() if isinstance(v, TopologySpec) else v
                for v in values
            ]
        data: Dict[str, Any] = {"schema": SCHEMA_VERSION}
        if self.name:
            data["name"] = self.name
        data["scenario"] = self.base.to_dict()
        if axes:
            data["axes"] = axes
        if self.sharding is not None:
            # Self-contained shard file: the full grid definition plus
            # which slice this is, stamped with the *parent* grid's
            # fingerprint so shards of different grids can never be
            # silently mixed (the stamp is re-checked on load).
            data["shard"] = {
                "index": self.sharding[0],
                "count": self.sharding[1],
                "grid": self.grid_fingerprint(),
            }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioGrid":
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"scenario file must hold an object, got {type(data).__name__}"
            )
        _reject_unknown(data, ("schema", "name", "notes", "scenario", "axes",
                               "shard"),
                        "scenario-file field")
        schema = data.get("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ScenarioError(
                f"unsupported scenario schema {schema!r} "
                f"(this build reads schema {SCHEMA_VERSION})"
            )
        if "scenario" not in data:
            raise ScenarioError("scenario file is missing the 'scenario' object")
        base = Scenario.from_dict(data["scenario"])
        sharding = None
        stamp = None
        if data.get("shard") is not None:
            shard = data["shard"]
            if not isinstance(shard, Mapping):
                raise ScenarioError("'shard' must be an object")
            _reject_unknown(shard, ("index", "count", "grid"), "shard field")
            if "index" not in shard or "count" not in shard:
                raise ScenarioError("'shard' needs 'index' and 'count'")
            sharding = (shard["index"], shard["count"])
            stamp = shard.get("grid")
        axes = data.get("axes", {})
        _check_object("'axes'", axes)
        for field_name, values in axes.items():
            if not isinstance(values, list):
                raise ScenarioError(
                    f"axis {field_name!r} must be a list of values, got "
                    f"{type(values).__name__}"
                )
        grid = cls(base=base, axes=axes,
                   name=data.get("name"), sharding=sharding)
        if stamp is not None and stamp != grid.grid_fingerprint():
            raise ScenarioError(
                f"shard is stamped for grid {str(stamp)[:16]}… but this "
                f"file expands to grid {grid.grid_fingerprint()[:16]}… — "
                f"the base/axes were edited after sharding, or the stamp "
                f"belongs to a different grid; re-shard the full grid"
            )
        return grid

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False,
                          default=_json_default)

    def fingerprint(self) -> str:
        """Content hash over this grid's expanded cells (order-sensitive).

        On a shard, hashes only the shard's cells — shards of one grid
        get distinct fingerprints. :meth:`grid_fingerprint` identifies
        the parent grid shards share.
        """
        h = hashlib.sha256()
        for scenario in self.scenarios():
            h.update(scenario.fingerprint().encode())
        return h.hexdigest()

    def grid_fingerprint(self) -> str:
        """Content hash over *every* cell of the full grid.

        Invariant under sharding: every shard of a grid reports its
        parent's fingerprint (an unsharded grid reports its own, equal
        to :meth:`fingerprint`). This is the identity the shard stamp,
        the store manifests and ``repro store merge`` key on.
        """
        h = hashlib.sha256()
        for scenario in self._full_scenarios():
            h.update(scenario.fingerprint().encode())
        return h.hexdigest()


def load_scenario_file(path: os.PathLike) -> ScenarioGrid:
    """Load a scenario file: a grid object or a bare scenario.

    The file holds either ``{"schema": 1, "scenario": {...}, "axes":
    {...}}`` or a bare scenario object (no axes). Validation errors
    carry the offending key and the closest valid spelling.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: not valid JSON ({exc})") from None
    if isinstance(data, Mapping) and "scenario" in data:
        return ScenarioGrid.from_dict(data)
    return ScenarioGrid(base=Scenario.from_dict(data))
