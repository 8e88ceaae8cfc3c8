"""Golden-trajectory pins for the simulation engine.

These tests freeze the *exact* trajectories of small seeded floods — per
packet delays, every aggregate counter, per-node energy checksums, and a
content hash of the arrival matrix — across all registered protocols and
the engine's optional code paths (skew, bursty dynamics, event tracking,
probe floods, two wake slots per period, the 802.15.4 MAC), and floods
of 64, 65 and 70 packets, whose packet sets span one and two 64-bit
words. Event-log runs additionally pin a hash of the full event stream,
order included.

They are the safety net for engine refactors: any change that alters RNG
consumption order, channel resolution, or bookkeeping semantics trips
them immediately. A refactor that keeps them green is trajectory-
preserving and does NOT need an ``ENGINE_VERSION`` bump; a deliberate
semantic change must bump the version and regenerate the pins:

    PYTHONPATH=src python tests/sim/test_golden_trajectories.py

prints a fresh ``GOLDEN`` dict to paste below.
"""

import hashlib

import numpy as np
import pytest

from repro.net.dynamics import GilbertElliott
from repro.net.generators import random_geometric_topology
from repro.net.mac import make_link_model
from repro.net.packet import FloodWorkload
from repro.net.radio import RadioModel
from repro.net.schedule import ScheduleTable
from repro.net.sync import JitteredSchedules
from repro.protocols import available_protocols, make_protocol
from repro.protocols.opt import opt_radio_model
from repro.sim.batch import run_flood_batch
from repro.sim.energy import energy_summary
from repro.sim.engine import SimConfig, run_flood
from repro.sim.events import EventKind

M = 3
PERIOD = 5
MAX_SLOTS = 600


def _substrate(wake_slots=1):
    rng = np.random.default_rng(7)
    topo = random_geometric_topology(25, area_m=180.0, rng=rng)
    # Same duty ratio at every wake-slot count: ``wake_slots`` windows
    # per (proportionally longer) period.
    schedules = ScheduleTable.random(
        topo.n_nodes, PERIOD * wake_slots, np.random.default_rng(8),
        wake_slots)
    return topo, schedules


def _config(protocol: str, **kwargs) -> SimConfig:
    if protocol == "opt":
        kwargs.setdefault("radio", opt_radio_model())
    elif protocol == "crosslayer":
        kwargs.setdefault("radio", RadioModel(overhearing=True))
    kwargs.setdefault("max_slots", MAX_SLOTS)
    return SimConfig(**kwargs)


def _flood(protocol: str, *, track_events=False, probes=False, dynamics=None,
           skew=False, wake_slots=1, mac="ideal", kwargs=None, packets=M,
           max_slots=MAX_SLOTS):
    topo, schedules = _substrate(wake_slots)
    true_schedules = (
        JitteredSchedules(schedules, 0.3, seed=99) if skew else None
    )
    dyn = GilbertElliott(topo, rng=np.random.default_rng(123)) if dynamics else None
    return run_flood(
        topo,
        schedules,
        FloodWorkload(packets),
        make_protocol(protocol, **(kwargs or {})),
        np.random.default_rng(42),
        _config(protocol, track_events=track_events, max_slots=max_slots),
        measure_transmission_delay=probes,
        dynamics=dyn,
        true_schedules=true_schedules,
        link=make_link_model(mac),
    )


def _checksum(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _event_stream_sha(log) -> str:
    """Hash of the whole event log, record order included."""
    text = ";".join(
        f"{e.t},{e.kind.value},{e.packet},{e.sender},{e.receiver}"
        for e in log
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _observe(result) -> dict:
    m = result.metrics
    ledger = result.ledger
    n = ledger.n_nodes
    weights = np.arange(1, n + 1, dtype=np.int64)
    obs = {
        "completed": bool(result.completed),
        "delays": m.delays.total_delay().tolist(),
        "first_tx": m.delays.first_tx.tolist(),
        "completed_at": m.delays.completed.tolist(),
        "tx_attempts": m.tx_attempts,
        "tx_failures": m.tx_failures,
        "collisions": m.collisions,
        "duplicates": m.duplicates,
        "overhears": m.overhears,
        "sleep_misses": m.sleep_misses,
        "elapsed": m.elapsed_slots,
        "coverage": [round(c, 10) for c in m.coverage_per_packet.tolist()],
        "arrival_sha": _checksum(result.arrival),
        # Position-weighted ledger checksums catch any per-node
        # redistribution that sum-only pins would miss.
        "ledger_tx": [int(ledger.tx_attempts.sum()),
                      int(ledger.tx_attempts @ weights)],
        "ledger_failures": [int(ledger.tx_failures.sum()),
                            int(ledger.tx_failures @ weights)],
        "ledger_rx": [int(ledger.rx_successes.sum()),
                      int(ledger.rx_successes @ weights)],
        "energy_total": round(
            energy_summary(ledger, 1.0 / PERIOD)["total_energy"], 6
        ),
    }
    if result.events is not None:
        obs["event_counts"] = {
            kind.value: result.events.count(kind) for kind in EventKind
        }
        obs["n_events"] = len(result.events)
    if result.metrics.transmission_delay is not None:
        obs["transmission_delay"] = result.metrics.transmission_delay.tolist()
    if len(obs["delays"]) > M:
        # Wide floods pin their per-packet lists by checksum.
        for key in ("delays", "first_tx", "completed_at", "coverage"):
            obs[key] = hashlib.sha256(repr(obs[key]).encode()).hexdigest()[:16]
    return obs


SCENARIOS = {
    "opt": dict(protocol="opt"),
    "dbao": dict(protocol="dbao"),
    "of": dict(protocol="of"),
    "naive": dict(protocol="naive"),
    "dca": dict(protocol="dca"),
    "flash": dict(protocol="flash"),
    "crosslayer": dict(protocol="crosslayer"),
    "dbao-skew": dict(protocol="dbao", skew=True),
    "dbao-bursty": dict(protocol="dbao", dynamics=True),
    "opt-events": dict(protocol="opt", track_events=True),
    "of-probes": dict(protocol="of", probes=True),
    # Paths the serial engine alone covered before the batched engine
    # learned them; pinned from the serial engine's answers.
    **{f"{p}-2slot": dict(protocol=p, wake_slots=2)
       for p in ("opt", "dbao", "of", "naive", "dca", "flash", "crosslayer")},
    "dbao-csma": dict(protocol="dbao", mac="csma_802154"),
    "of-bursty-probes": dict(protocol="of", dynamics=True, probes=True),
    "dbao-skew-probes": dict(protocol="dbao", skew=True, probes=True),
    "dbao-events": dict(protocol="dbao", track_events=True),
    "opt-any": dict(protocol="opt", kwargs={"server_policy": "any"}),
    # Wide packet sets: M = 64 fills one 64-bit word, M = 65 and M = 70
    # need two (the paper's full-scale floods carry M = 100). The longer
    # horizon lets the last word's packets cross the network and some
    # buffers fill up.
    **{f"{p}-m70": dict(protocol=p, packets=70, max_slots=2 * MAX_SLOTS)
       for p in ("opt", "dbao", "of", "naive", "dca", "flash", "crosslayer")},
    **{f"{p}-m{m}": dict(protocol=p, packets=m, max_slots=2 * MAX_SLOTS)
       for p in ("dbao", "of") for m in (64, 65)},
}

#: Event-stream hashes (see :func:`_event_stream_sha`) of the
#: ``track_events`` scenarios.
EVENT_STREAMS = {'dbao-events': 'b8426f6c65f27fb0', 'opt-events': 'a957b90c3d0b8e5c'}

# Generated against the seed engine (pre-refactor) via the __main__ helper;
# the ``-2slot``, ``-csma``, ``-probes``, ``-events`` and ``-any``
# additions against the serial slot pipeline before the batched engine
# replaced it; the ``-m64``, ``-m65`` and ``-m70`` additions against the
# engine that still held packet sets of more than 64 packets as boolean
# arrays.
GOLDEN = {'crosslayer': {'arrival_sha': '412193f653f56f5d',
                'collisions': 6,
                'completed': True,
                'completed_at': [18, 30, 48],
                'coverage': [1.0, 1.0, 1.0],
                'delays': [19, 23, 36],
                'duplicates': 35,
                'elapsed': 49,
                'energy_total': 479.8,
                'first_tx': [0, 8, 13],
                'ledger_failures': [8, 117],
                'ledger_rx': [72, 972],
                'ledger_tx': [90, 1271],
                'overhears': 25,
                'sleep_misses': 0,
                'tx_attempts': 90,
                'tx_failures': 8},
 'crosslayer-2slot': {'arrival_sha': 'e9da0d820be7f14d',
                      'collisions': 8,
                      'completed': True,
                      'completed_at': [51, 61, 59],
                      'coverage': [1.0, 1.0, 1.0],
                      'delays': [51, 54, 48],
                      'duplicates': 37,
                      'elapsed': 62,
                      'energy_total': 567.4,
                      'first_tx': [1, 8, 12],
                      'ledger_failures': [10, 91],
                      'ledger_rx': [72, 972],
                      'ledger_tx': [98, 1326],
                      'overhears': 21,
                      'sleep_misses': 0,
                      'tx_attempts': 98,
                      'tx_failures': 10},
 'crosslayer-m70': {'arrival_sha': '53d0b510292d28c0',
                    'collisions': 204,
                    'completed': True,
                    'completed_at': '391fd5980e7d92cf',
                    'coverage': 'b14a6938ab102a0b',
                    'delays': 'bb124c2b68b42901',
                    'duplicates': 260,
                    'elapsed': 976,
                    'energy_total': 9455.2,
                    'first_tx': 'b984f29530f24820',
                    'ledger_failures': [286, 3689],
                    'ledger_rx': [1680, 22680],
                    'ledger_tx': [1752, 23828],
                    'overhears': 474,
                    'sleep_misses': 0,
                    'tx_attempts': 1752,
                    'tx_failures': 286},
 'dbao': {'arrival_sha': '354d15be16837900',
          'collisions': 10,
          'completed': True,
          'completed_at': [38, 70, 75],
          'coverage': [1.0, 1.0, 1.0],
          'delays': [39, 63, 63],
          'duplicates': 39,
          'elapsed': 76,
          'energy_total': 722.7,
          'first_tx': [0, 8, 13],
          'ledger_failures': [20, 323],
          'ledger_rx': [72, 972],
          'ledger_tx': [131, 1861],
          'overhears': 0,
          'sleep_misses': 0,
          'tx_attempts': 131,
          'tx_failures': 20},
 'dbao-2slot': {'arrival_sha': '97ca6352fb427c87',
                'collisions': 9,
                'completed': True,
                'completed_at': [51, 69, 79],
                'coverage': [1.0, 1.0, 1.0],
                'delays': [51, 62, 68],
                'duplicates': 43,
                'elapsed': 80,
                'energy_total': 756.0,
                'first_tx': [1, 8, 12],
                'ledger_failures': [21, 313],
                'ledger_rx': [72, 972],
                'ledger_tx': [136, 1960],
                'overhears': 0,
                'sleep_misses': 0,
                'tx_attempts': 136,
                'tx_failures': 21},
 'dbao-bursty': {'arrival_sha': '5c2f467119a72495',
                 'collisions': 7,
                 'completed': True,
                 'completed_at': [53, 61, 97],
                 'coverage': [1.0, 1.0, 1.0],
                 'delays': [54, 54, 85],
                 'duplicates': 38,
                 'elapsed': 98,
                 'energy_total': 942.1,
                 'first_tx': [0, 8, 13],
                 'ledger_failures': [63, 987],
                 'ledger_rx': [72, 972],
                 'ledger_tx': [173, 2517],
                 'overhears': 0,
                 'sleep_misses': 0,
                 'tx_attempts': 173,
                 'tx_failures': 63},
 'dbao-csma': {'arrival_sha': '731635dc9e02d1c5',
               'collisions': 0,
               'completed': True,
               'completed_at': [40, 65, 70],
               'coverage': [1.0, 1.0, 1.0],
               'delays': [41, 58, 58],
               'duplicates': 48,
               'elapsed': 71,
               'energy_total': 674.2,
               'first_tx': [0, 8, 13],
               'ledger_failures': [2, 39],
               'ledger_rx': [72, 972],
               'ledger_tx': [122, 1692],
               'overhears': 0,
               'sleep_misses': 0,
               'tx_attempts': 122,
               'tx_failures': 2},
 'dbao-events': {'arrival_sha': '354d15be16837900',
                 'collisions': 10,
                 'completed': True,
                 'completed_at': [38, 70, 75],
                 'coverage': [1.0, 1.0, 1.0],
                 'delays': [39, 63, 63],
                 'duplicates': 39,
                 'elapsed': 76,
                 'energy_total': 722.7,
                 'event_counts': {'collision': 10,
                                  'complete': 3,
                                  'deliver': 72,
                                  'duplicate': 39,
                                  'inject': 3,
                                  'loss': 0,
                                  'overhear': 0,
                                  'tx': 131},
                 'first_tx': [0, 8, 13],
                 'ledger_failures': [20, 323],
                 'ledger_rx': [72, 972],
                 'ledger_tx': [131, 1861],
                 'n_events': 258,
                 'overhears': 0,
                 'sleep_misses': 0,
                 'tx_attempts': 131,
                 'tx_failures': 20},
 'dbao-m64': {'arrival_sha': '1cd6e274c7193a7a',
              'collisions': 138,
              'completed': True,
              'completed_at': '8dee9dc3b0db96ef',
              'coverage': 'f536620d1905f923',
              'delays': 'd61a831d97cad023',
              'duplicates': 454,
              'elapsed': 1191,
              'energy_total': 11770.7,
              'first_tx': '083aac97521c0085',
              'ledger_failures': [241, 3893],
              'ledger_rx': [1536, 20736],
              'ledger_tx': [2231, 31575],
              'overhears': 0,
              'sleep_misses': 0,
              'tx_attempts': 2231,
              'tx_failures': 241},
 'dbao-m65': {'arrival_sha': 'cdb109f54ef6b9a9',
              'collisions': 145,
              'completed': False,
              'completed_at': '8a0c700bd186ed9f',
              'coverage': 'e1c18abf85683d39',
              'delays': 'dcd8fe75c3e57296',
              'duplicates': 463,
              'elapsed': 1200,
              'energy_total': 11950.0,
              'first_tx': '5facae1143a6a713',
              'ledger_failures': [264, 4071],
              'ledger_rx': [1557, 21027],
              'ledger_tx': [2284, 32285],
              'overhears': 0,
              'sleep_misses': 0,
              'tx_attempts': 2284,
              'tx_failures': 264},
 'dbao-m70': {'arrival_sha': '3d880fbd1ab852c4',
              'collisions': 178,
              'completed': False,
              'completed_at': 'e9e677bfa8bcb3a0',
              'coverage': '2cb30666bf13d06a',
              'delays': 'c7d21b7c5a7db91c',
              'duplicates': 454,
              'elapsed': 1200,
              'energy_total': 12127.5,
              'first_tx': 'b984f29530f24820',
              'ledger_failures': [286, 4295],
              'ledger_rx': [1615, 21931],
              'ledger_tx': [2355, 33054],
              'overhears': 0,
              'sleep_misses': 0,
              'tx_attempts': 2355,
              'tx_failures': 286},
 'dbao-skew': {'arrival_sha': '5f3ab6492dd8fb0b',
               'collisions': 10,
               'completed': True,
               'completed_at': [113, 118, 123],
               'coverage': [1.0, 1.0, 1.0],
               'delays': [114, 111, 111],
               'duplicates': 40,
               'elapsed': 124,
               'energy_total': 1122.3,
               'first_tx': [0, 8, 13],
               'ledger_failures': [79, 1076],
               'ledger_rx': [72, 972],
               'ledger_tx': [191, 2637],
               'overhears': 0,
               'sleep_misses': 55,
               'tx_attempts': 191,
               'tx_failures': 79},
 'dbao-skew-probes': {'arrival_sha': '5f3ab6492dd8fb0b',
                      'collisions': 10,
                      'completed': True,
                      'completed_at': [113, 118, 123],
                      'coverage': [1.0, 1.0, 1.0],
                      'delays': [114, 111, 111],
                      'duplicates': 40,
                      'elapsed': 124,
                      'energy_total': 1122.3,
                      'first_tx': [0, 8, 13],
                      'ledger_failures': [79, 1076],
                      'ledger_rx': [72, 972],
                      'ledger_tx': [191, 2637],
                      'overhears': 0,
                      'sleep_misses': 55,
                      'transmission_delay': [84, 79, 79],
                      'tx_attempts': 191,
                      'tx_failures': 79},
 'dca': {'arrival_sha': '5f25f99bd1046fc0',
         'collisions': 0,
         'completed': True,
         'completed_at': [201, 206, 211],
         'coverage': [1.0, 1.0, 1.0],
         'delays': [202, 202, 202],
         'duplicates': 0,
         'elapsed': 212,
         'energy_total': 1382.4,
         'first_tx': [0, 5, 10],
         'ledger_failures': [40, 161],
         'ledger_rx': [72, 972],
         'ledger_tx': [112, 749],
         'overhears': 0,
         'sleep_misses': 0,
         'tx_attempts': 112,
         'tx_failures': 40},
 'dca-2slot': {'arrival_sha': 'e9a8f11e3b459a58',
               'collisions': 0,
               'completed': True,
               'completed_at': [94, 125, 135],
               'coverage': [1.0, 1.0, 1.0],
               'delays': [95, 121, 122],
               'duplicates': 0,
               'elapsed': 136,
               'energy_total': 959.7,
               'first_tx': [0, 5, 14],
               'ledger_failures': [29, 93],
               'ledger_rx': [72, 972],
               'ledger_tx': [101, 519],
               'overhears': 0,
               'sleep_misses': 0,
               'tx_attempts': 101,
               'tx_failures': 29},
 'dca-m70': {'arrival_sha': 'f53627c7586b0868',
             'collisions': 0,
             'completed': False,
             'completed_at': 'be28d817c5c7fb77',
             'coverage': 'e81cce9b396510d3',
             'delays': 'be28d817c5c7fb77',
             'duplicates': 0,
             'elapsed': 1200,
             'energy_total': 9322.5,
             'first_tx': '36e9cd26b1260215',
             'ledger_failures': [469, 1398],
             'ledger_rx': [764, 8355],
             'ledger_tx': [1233, 4952],
             'overhears': 0,
             'sleep_misses': 0,
             'tx_attempts': 1233,
             'tx_failures': 469},
 'flash': {'arrival_sha': '52d2543d9d076245',
           'collisions': 2092,
           'completed': False,
           'completed_at': [-1, -1, -1],
           'coverage': [0.9166666667, 0.8333333333, 0.8333333333],
           'delays': [-1, -1, -1],
           'duplicates': 72,
           'elapsed': 600,
           'energy_total': 11412.5,
           'first_tx': [0, 5, 10],
           'ledger_failures': [3183, 39386],
           'ledger_rx': [62, 811],
           'ledger_tx': [3317, 41040],
           'overhears': 0,
           'sleep_misses': 0,
           'tx_attempts': 3317,
           'tx_failures': 3183},
 'flash-2slot': {'arrival_sha': '3dfd0ff390b10fa8',
                 'collisions': 2648,
                 'completed': False,
                 'completed_at': [518, 528, -1],
                 'coverage': [1.0, 1.0, 0.9583333333],
                 'delays': [519, 524, -1],
                 'duplicates': 130,
                 'elapsed': 600,
                 'energy_total': 12580.0,
                 'first_tx': [0, 5, 14],
                 'ledger_failures': [3583, 43963],
                 'ledger_rx': [71, 954],
                 'ledger_tx': [3784, 46808],
                 'overhears': 0,
                 'sleep_misses': 0,
                 'tx_attempts': 3784,
                 'tx_failures': 3583},
 'flash-m70': {'arrival_sha': '3e302d17eb70b46e',
               'collisions': 6917,
               'completed': False,
               'completed_at': 'be28d817c5c7fb77',
               'coverage': 'faf97cc92b988048',
               'delays': 'be28d817c5c7fb77',
               'duplicates': 410,
               'elapsed': 1200,
               'energy_total': 27600.0,
               'first_tx': '1348f0b28b162c21',
               'ledger_failures': [7230, 83093],
               'ledger_rx': [904, 11207],
               'ledger_tx': [8544, 98684],
               'overhears': 0,
               'sleep_misses': 0,
               'tx_attempts': 8544,
               'tx_failures': 7230},
 'naive': {'arrival_sha': '49aecb822125df6c',
           'collisions': 649,
           'completed': True,
           'completed_at': [163, 188, 496],
           'coverage': [1.0, 1.0, 1.0],
           'delays': [159, 174, 417],
           'duplicates': 220,
           'elapsed': 497,
           'energy_total': 5789.4,
           'first_tx': [5, 15, 80],
           'ledger_failures': [990, 12095],
           'ledger_rx': [72, 972],
           'ledger_tx': [1282, 16124],
           'overhears': 0,
           'sleep_misses': 0,
           'tx_attempts': 1282,
           'tx_failures': 990},
 'naive-2slot': {'arrival_sha': '3fbb3dabd5a8f62a',
                 'collisions': 703,
                 'completed': True,
                 'completed_at': [53, 202, 343],
                 'coverage': [1.0, 1.0, 1.0],
                 'delays': [50, 178, 225],
                 'duplicates': 200,
                 'elapsed': 344,
                 'energy_total': 5011.3,
                 'first_tx': [4, 25, 119],
                 'ledger_failures': [1017, 12366],
                 'ledger_rx': [72, 972],
                 'ledger_tx': [1289, 16223],
                 'overhears': 0,
                 'sleep_misses': 0,
                 'tx_attempts': 1289,
                 'tx_failures': 1017},
 'naive-m70': {'arrival_sha': '6a2987028efb465a',
               'collisions': 2075,
               'completed': False,
               'completed_at': '989f22f738f4713f',
               'coverage': 'e3ddc6f7dc0f799d',
               'delays': 'd41d78665ce8bc9e',
               'duplicates': 679,
               'elapsed': 1200,
               'energy_total': 17310.0,
               'first_tx': '4d186222e99891ef',
               'ledger_failures': [3238, 41114],
               'ledger_rx': [511, 6872],
               'ledger_tx': [4428, 57294],
               'overhears': 0,
               'sleep_misses': 0,
               'tx_attempts': 4428,
               'tx_failures': 3238},
 'of': {'arrival_sha': '446ba340b0f282fc',
        'collisions': 1,
        'completed': True,
        'completed_at': [109, 114, 119],
        'coverage': [1.0, 1.0, 1.0],
        'delays': [110, 110, 110],
        'duplicates': 6,
        'elapsed': 120,
        'energy_total': 831.5,
        'first_tx': [0, 5, 10],
        'ledger_failures': [5, 40],
        'ledger_rx': [72, 972],
        'ledger_tx': [83, 841],
        'overhears': 0,
        'sleep_misses': 0,
        'tx_attempts': 83,
        'tx_failures': 5},
 'of-2slot': {'arrival_sha': '2065dade8eaa0a12',
              'collisions': 1,
              'completed': True,
              'completed_at': [72, 82, 88],
              'coverage': [1.0, 1.0, 1.0],
              'delays': [72, 78, 74],
              'duplicates': 4,
              'elapsed': 89,
              'energy_total': 667.8,
              'first_tx': [1, 5, 15],
              'ledger_failures': [6, 6],
              'ledger_rx': [72, 972],
              'ledger_tx': [82, 750],
              'overhears': 0,
              'sleep_misses': 0,
              'tx_attempts': 82,
              'tx_failures': 6},
 'of-bursty-probes': {'arrival_sha': 'e9233086f626a07a',
                      'collisions': 2,
                      'completed': True,
                      'completed_at': [218, 223, 228],
                      'coverage': [1.0, 1.0, 1.0],
                      'delays': [219, 216, 206],
                      'duplicates': 3,
                      'elapsed': 229,
                      'energy_total': 1500.8,
                      'first_tx': [0, 8, 23],
                      'ledger_failures': [49, 197],
                      'ledger_rx': [72, 972],
                      'ledger_tx': [124, 937],
                      'overhears': 0,
                      'sleep_misses': 0,
                      'transmission_delay': [50, 95, 50],
                      'tx_attempts': 124,
                      'tx_failures': 49},
 'of-m64': {'arrival_sha': 'fed3a07250aec070',
            'collisions': 1,
            'completed': False,
            'completed_at': 'bad4b4b6f281fcc8',
            'coverage': '58b3b03d44be0d7d',
            'delays': 'bad4b4b6f281fcc8',
            'duplicates': 8,
            'elapsed': 1200,
            'energy_total': 8920.0,
            'first_tx': 'b12b1ff22135b346',
            'ledger_failures': [76, 284],
            'ledger_rx': [988, 12152],
            'ledger_tx': [1072, 7592],
            'overhears': 0,
            'sleep_misses': 0,
            'tx_attempts': 1072,
            'tx_failures': 76},
 'of-m65': {'arrival_sha': '25eadb17a7d5d1da',
            'collisions': 0,
            'completed': False,
            'completed_at': '1dce2df79201274c',
            'coverage': '621e30b273eb2170',
            'delays': '1dce2df79201274c',
            'duplicates': 4,
            'elapsed': 1200,
            'energy_total': 8957.5,
            'first_tx': '1796348536d7182f',
            'ledger_failures': [81, 384],
            'ledger_rx': [1002, 12268],
            'ledger_tx': [1087, 7662],
            'overhears': 0,
            'sleep_misses': 0,
            'tx_attempts': 1087,
            'tx_failures': 81},
 'of-m70': {'arrival_sha': '1b3888c241e5c390',
            'collisions': 1,
            'completed': False,
            'completed_at': 'be28d817c5c7fb77',
            'coverage': '2d6b9bf08acb0ecb',
            'delays': 'be28d817c5c7fb77',
            'duplicates': 1,
            'elapsed': 1200,
            'energy_total': 8945.0,
            'first_tx': '208190b8dfb76972',
            'ledger_failures': [86, 285],
            'ledger_rx': [995, 12050],
            'ledger_tx': [1082, 7196],
            'overhears': 0,
            'sleep_misses': 0,
            'tx_attempts': 1082,
            'tx_failures': 86},
 'of-probes': {'arrival_sha': '446ba340b0f282fc',
               'collisions': 1,
               'completed': True,
               'completed_at': [109, 114, 119],
               'coverage': [1.0, 1.0, 1.0],
               'delays': [110, 110, 110],
               'duplicates': 6,
               'elapsed': 120,
               'energy_total': 831.5,
               'first_tx': [0, 5, 10],
               'ledger_failures': [5, 40],
               'ledger_rx': [72, 972],
               'ledger_tx': [83, 841],
               'overhears': 0,
               'sleep_misses': 0,
               'transmission_delay': [50, 40, 50],
               'tx_attempts': 83,
               'tx_failures': 5},
 'opt': {'arrival_sha': '26659e4992609e87',
         'collisions': 0,
         'completed': True,
         'completed_at': [27, 38, 47],
         'coverage': [1.0, 1.0, 1.0],
         'delays': [25, 26, 25],
         'duplicates': 0,
         'elapsed': 48,
         'energy_total': 434.6,
         'first_tx': [3, 13, 23],
         'ledger_failures': [2, 44],
         'ledger_rx': [72, 972],
         'ledger_tx': [74, 1046],
         'overhears': 0,
         'sleep_misses': 0,
         'tx_attempts': 74,
         'tx_failures': 2},
 'opt-2slot': {'arrival_sha': '8e38bc4aae481f02',
               'collisions': 0,
               'completed': True,
               'completed_at': [28, 48, 58],
               'coverage': [1.0, 1.0, 1.0],
               'delays': [27, 41, 47],
               'duplicates': 0,
               'elapsed': 59,
               'energy_total': 489.3,
               'first_tx': [2, 8, 12],
               'ledger_failures': [1, 22],
               'ledger_rx': [72, 972],
               'ledger_tx': [73, 1024],
               'overhears': 0,
               'sleep_misses': 0,
               'tx_attempts': 73,
               'tx_failures': 1},
 'opt-any': {'arrival_sha': '77b237ce414347ab',
             'collisions': 0,
             'completed': True,
             'completed_at': [18, 23, 28],
             'coverage': [1.0, 1.0, 1.0],
             'delays': [19, 19, 19],
             'duplicates': 0,
             'elapsed': 29,
             'energy_total': 363.3,
             'first_tx': [0, 5, 10],
             'ledger_failures': [13, 108],
             'ledger_rx': [72, 972],
             'ledger_tx': [85, 975],
             'overhears': 0,
             'sleep_misses': 0,
             'tx_attempts': 85,
             'tx_failures': 13},
 'opt-events': {'arrival_sha': '26659e4992609e87',
                'collisions': 0,
                'completed': True,
                'completed_at': [27, 38, 47],
                'coverage': [1.0, 1.0, 1.0],
                'delays': [25, 26, 25],
                'duplicates': 0,
                'elapsed': 48,
                'energy_total': 434.6,
                'event_counts': {'collision': 0,
                                 'complete': 3,
                                 'deliver': 72,
                                 'duplicate': 0,
                                 'inject': 3,
                                 'loss': 0,
                                 'overhear': 0,
                                 'tx': 74},
                'first_tx': [3, 13, 23],
                'ledger_failures': [2, 44],
                'ledger_rx': [72, 972],
                'ledger_tx': [74, 1046],
                'n_events': 152,
                'overhears': 0,
                'sleep_misses': 0,
                'tx_attempts': 74,
                'tx_failures': 2},
 'opt-m70': {'arrival_sha': '2a42a8437dc8542b',
             'collisions': 0,
             'completed': True,
             'completed_at': 'f12b94bf2feb0035',
             'coverage': 'b14a6938ab102a0b',
             'delays': '259b26aa67e3d5c5',
             'duplicates': 0,
             'elapsed': 724,
             'energy_total': 8069.8,
             'first_tx': 'e4e526c47df80e66',
             'ledger_failures': [42, 922],
             'ledger_rx': [1680, 22680],
             'ledger_tx': [1722, 24302],
             'overhears': 0,
             'sleep_misses': 0,
             'tx_attempts': 1722,
             'tx_failures': 42}}


def test_all_registered_protocols_are_pinned():
    pinned = {spec["protocol"] for spec in SCENARIOS.values()}
    assert pinned == set(available_protocols())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trajectory(name):
    spec = dict(SCENARIOS[name])
    protocol = spec.pop("protocol")
    observed = _observe(_flood(protocol, **spec))
    assert name in GOLDEN, f"no golden pin for scenario {name!r}"
    expected = GOLDEN[name]
    # Compare key by key for a readable diff on failure.
    assert set(observed) == set(expected)
    for key in sorted(expected):
        assert observed[key] == expected[key], (
            f"{name}: {key} drifted\n  expected {expected[key]!r}\n"
            f"  observed {observed[key]!r}"
        )


@pytest.mark.parametrize("rep_index", [0, 2])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trajectory_extracted_from_batch(name, rep_index):
    """A replication extracted from an (R, ...) batch matches its golden
    pin bit for bit, regardless of its position in the batch.

    ``run_flood`` is the engine at R = 1; this is the R-wide half of the
    contract. Decoy replications seeded differently around the pinned
    one (channel, link dynamics and clock-skew streams) must not
    perturb its trajectory, its probes or its event stream.
    """
    spec = dict(SCENARIOS[name])
    protocol = spec.pop("protocol")
    topo, schedules = _substrate(spec.get("wake_slots", 1))
    n_reps = 3

    def _seed(rep, pinned, decoy_base):
        return pinned if rep == rep_index else decoy_base + rep

    dynamics_list = true_list = None
    if spec.get("dynamics"):
        dynamics_list = [
            GilbertElliott(topo, rng=np.random.default_rng(_seed(r, 123, 2000)))
            for r in range(n_reps)
        ]
    if spec.get("skew"):
        true_list = [
            JitteredSchedules(schedules, 0.3, seed=_seed(r, 99, 3000))
            for r in range(n_reps)
        ]
    results = run_flood_batch(
        topo,
        [schedules] * n_reps,
        FloodWorkload(spec.get("packets", M)),
        make_protocol(protocol, **spec.get("kwargs", {})),
        [np.random.default_rng(_seed(r, 42, 1000)) for r in range(n_reps)],
        _config(protocol, track_events=spec.get("track_events", False),
                max_slots=spec.get("max_slots", MAX_SLOTS)),
        dynamics_list=dynamics_list,
        link=make_link_model(spec.get("mac", "ideal")),
        true_schedules_list=true_list,
        measure_transmission_delay=spec.get("probes", False),
    )
    result = results[rep_index]
    observed = _observe(result)
    expected = GOLDEN[name]
    assert set(observed) == set(expected)
    for key in sorted(expected):
        assert observed[key] == expected[key], (
            f"{name}[rep {rep_index}]: {key} drifted\n"
            f"  expected {expected[key]!r}\n  observed {observed[key]!r}"
        )
    if name in EVENT_STREAMS:
        assert _event_stream_sha(result.events) == EVENT_STREAMS[name]


@pytest.mark.parametrize("name", sorted(EVENT_STREAMS))
def test_golden_event_stream(name):
    spec = dict(SCENARIOS[name])
    result = _flood(spec.pop("protocol"), **spec)
    assert _event_stream_sha(result.events) == EVENT_STREAMS[name]


def test_every_event_scenario_has_a_stream_pin():
    tracked = {name for name, spec in SCENARIOS.items()
               if spec.get("track_events")}
    assert tracked == set(EVENT_STREAMS)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import pprint

    fresh = {}
    streams = {}
    for name in sorted(SCENARIOS):
        spec = dict(SCENARIOS[name])
        result = _flood(spec.pop("protocol"), **spec)
        fresh[name] = _observe(result)
        if result.events is not None:
            streams[name] = _event_stream_sha(result.events)
    print("GOLDEN =", pprint.pformat(fresh, width=76, sort_dicts=True))
    print("EVENT_STREAMS =", pprint.pformat(streams, width=76))
