"""Tests for the serializable Scenario spec: round-trips, fingerprints,
validation with helpful errors."""

import json

import numpy as np
import pytest

from repro.scenario import Scenario, ScenarioError, ScenarioGrid, TopologySpec
from repro.sim.engine import SimConfig


def rich_scenario() -> Scenario:
    return Scenario(
        protocol="of",
        duty_ratio=0.05,
        n_packets=7,
        seed=42,
        n_replications=3,
        coverage_target=0.95,
        generation_interval=2,
        protocol_kwargs={"opp_quantile": 0.8},
        wake_slots=2,
        schedule_jitter=0.1,
        link_model="gilbert_elliott",
        link_kwargs={"p_good_to_bad": 0.02, "bad_factor": 0.3},
        mac="csma_802154",
        mac_kwargs={"max_frame_retries": 2},
        sim={"fast_forward": False, "radio": {"collisions": False}},
        measure_transmission_delay=True,
        topology=TopologySpec(kind="line", params={"n_sensors": 9, "prr": 0.8}),
    )


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        s = rich_scenario()
        assert Scenario.from_dict(s.to_dict()) == s

    def test_json_round_trip_is_identity(self):
        s = rich_scenario()
        assert Scenario.from_json(s.to_json()) == s

    def test_minimal_dict_gets_defaults(self):
        s = Scenario.from_dict(
            {"protocol": "of", "duty_ratio": 0.1, "n_packets": 2}
        )
        assert s == Scenario(protocol="of", duty_ratio=0.1, n_packets=2)
        assert s.n_replications == 1 and s.link_model == "static"

    def test_to_dict_materializes_every_field(self):
        data = rich_scenario().to_dict()
        assert set(data) == set(Scenario.__dataclass_fields__)

    def test_to_dict_copies_mutable_fields(self):
        s = rich_scenario()
        s.to_dict()["sim"]["max_slots"] = 1  # mutating the dict ...
        assert "max_slots" not in s.sim  # ... never leaks into the spec


class TestFingerprint:
    def test_stable_across_field_ordering(self):
        s = rich_scenario()
        shuffled = dict(reversed(list(s.to_dict().items())))
        assert Scenario.from_dict(shuffled).fingerprint() == s.fingerprint()

    def test_hashes_data_not_construction_path(self):
        built = Scenario(protocol="opt", duty_ratio=0.2, n_packets=3, seed=1)
        loaded = Scenario.from_json(
            json.dumps({"protocol": "opt", "duty_ratio": 0.2,
                        "n_packets": 3, "seed": 1})
        )
        assert built.fingerprint() == loaded.fingerprint()

    def test_excludes_topology(self):
        a = rich_scenario()
        b = Scenario.from_dict({**a.to_dict(), "topology": None})
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_every_other_field(self):
        base = rich_scenario()
        variants = {
            "protocol": "dbao", "duty_ratio": 0.2, "n_packets": 8, "seed": 43,
            "n_replications": 4, "coverage_target": 0.9,
            "generation_interval": 3, "protocol_kwargs": {},
            "wake_slots": 3, "schedule_jitter": 0.2, "link_model": "static",
            "sim": {}, "measure_transmission_delay": False,
        }
        for fname, value in variants.items():
            data = {**base.to_dict(), fname: value}
            if fname == "link_model":  # static takes no kwargs
                data["link_kwargs"] = {}
            if fname == "protocol":  # DBAO takes no opp_quantile
                data["protocol_kwargs"] = {}
            changed = Scenario.from_dict(data)
            assert changed.fingerprint() != base.fingerprint(), fname

    def test_numpy_scalars_serialize(self):
        s = Scenario(protocol="dbao", duty_ratio=np.float64(0.1),
                     n_packets=2, seed=np.int64(7))
        plain = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2, seed=7)
        assert s.fingerprint() == plain.fingerprint()
        assert Scenario.from_json(s.to_json()).fingerprint() == s.fingerprint()

    def test_unserializable_field_is_a_spec_bug(self):
        s = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                     protocol_kwargs={"overhearing": np.random.default_rng(0)})
        with pytest.raises(TypeError, match="JSON-representable"):
            s.fingerprint()


class TestValidation:
    def test_misspelled_field_suggests_correction(self):
        with pytest.raises(ScenarioError, match="duty_ratio"):
            Scenario.from_dict(
                {"protocol": "dbao", "duty_ration": 0.1, "n_packets": 2}
            )

    def test_unknown_field_lists_valid_names(self):
        with pytest.raises(ScenarioError, match="valid:"):
            Scenario.from_dict({"protocol": "dbao", "duty_ratio": 0.1,
                                "n_packets": 2, "zzz": 1})

    def test_missing_required_fields_named(self):
        with pytest.raises(ScenarioError, match="n_packets"):
            Scenario.from_dict({"protocol": "dbao", "duty_ratio": 0.1})

    def test_misspelled_sim_override_suggests(self):
        with pytest.raises(ScenarioError, match="fast_forward"):
            Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                     sim={"fast_foward": False})

    def test_unknown_radio_override_rejected(self):
        with pytest.raises(ScenarioError, match="radio override"):
            Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                     sim={"radio": {"lasers": True}})

    def test_unknown_link_model_rejected(self):
        with pytest.raises(ScenarioError, match="gilbert_elliott"):
            Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                     link_model="gilbert")

    def test_unknown_link_kwarg_rejected(self):
        with pytest.raises(ScenarioError, match="link-model parameter"):
            Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                     link_model="gilbert_elliott", link_kwargs={"p_bad": 0.1})

    @pytest.mark.parametrize("bad", [
        {"duty_ratio": 0.0}, {"duty_ratio": 1.5}, {"n_packets": 0},
        {"n_replications": 0}, {"coverage_target": 0.0},
        {"generation_interval": -1}, {"wake_slots": 0},
        {"schedule_jitter": -0.1}, {"schedule_jitter": 1.1},
    ])
    def test_out_of_range_values_rejected(self, bad):
        kwargs = {"protocol": "dbao", "duty_ratio": 0.1, "n_packets": 2}
        kwargs.update(bad)
        with pytest.raises(ScenarioError):
            Scenario(**kwargs)

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError, match="object"):
            Scenario.from_dict(["not", "a", "scenario"])


MINIMAL = {"protocol": "dbao", "duty_ratio": 0.05, "n_packets": 2}


class TestFieldTypes:
    """Malformed values fail with a ScenarioError naming the field."""

    @pytest.mark.parametrize("field, value", [
        ("n_packets", "2"),
        ("duty_ratio", "0.05"),
        ("duty_ratio", None),
        ("n_replications", "3"),
        ("wake_slots", "2"),
        ("n_packets", 2.5),
        ("n_packets", True),
        ("seed", "x"),
    ])
    def test_scenario_field_type_named(self, field, value):
        with pytest.raises(ScenarioError, match=f"^{field} must be"):
            Scenario.from_dict({**MINIMAL, field: value})

    @pytest.mark.parametrize("topology, match", [
        ({"seed": 2011.7}, "topology seed must be an integer"),
        ({"seed": "a"}, "topology seed must be an integer"),
        ({"params": [1]}, "topology params must be an object"),
    ], ids=["seed-float", "seed-str", "params-list"])
    def test_topology_field_type_named(self, topology, match):
        with pytest.raises(ScenarioError, match=match):
            Scenario.from_dict({**MINIMAL, "topology": topology})

    @pytest.mark.parametrize("axes, match", [
        ([1], "'axes' must be an object"),
        ({"duty_ratio": 0.05}, "axis 'duty_ratio' must be a list"),
    ], ids=["axes-list", "axis-scalar"])
    def test_grid_axes_shape_named(self, axes, match):
        with pytest.raises(ScenarioError, match=match):
            ScenarioGrid.from_dict({"scenario": MINIMAL, "axes": axes})

    @pytest.mark.parametrize("fields, match", [
        ({"protocol": "nope"}, "unknown protocol 'nope'"),
        ({"protocol_kwargs": {"bogus": 1}},
         "invalid protocol_kwargs for 'dbao'.*bogus"),
        ({"protocol_kwargs": [1]}, "protocol_kwargs must be an object"),
        ({"link_model": "gilbert_elliott",
          "link_kwargs": {"p_good_to_bad": "x"}},
         "link-model parameter 'p_good_to_bad' must be a number"),
        ({"link_model": "gilbert_elliott",
          "link_kwargs": {"p_good_to_bad": 5.0}},
         r"p_good_to_bad must be in \(0, 1\], got 5.0"),
        ({"link_kwargs": {"bad_factor": 0.3}},
         r"\['bad_factor'\] need link_model 'gilbert_elliott'"),
        ({"sim": {"max_slots": "x"}},
         "sim override 'max_slots' must be an integer"),
        ({"sim": {"max_slots": -3}}, "max_slots must be at least one slot"),
        ({"sim": {"radio": {"capture_ratio": "x"}}},
         "radio override 'capture_ratio' must be a number"),
        ({"mac": "csma_802154", "mac_kwargs": {"mac_min_be": "3"}},
         "mac parameter 'mac_min_be' must be an integer, got '3'"),
        ({"mac": "csma_802154", "mac_kwargs": {"mac_min_be": 3.7}},
         "mac parameter 'mac_min_be' must be an integer, got 3.7"),
        ({"mac": "csma_802154", "mac_kwargs": {"mac_min_be": True}},
         "mac parameter 'mac_min_be' must be an integer, got True"),
        ({"measure_transmission_delay": "yes"},
         "measure_transmission_delay must be true or false"),
    ], ids=["protocol", "protocol-kwarg", "protocol-kwargs-list",
            "ge-rate-str", "ge-rate-range", "static-link-kwargs",
            "max-slots-str", "max-slots-range", "capture-ratio-str",
            "mac-int-str", "mac-int-float", "mac-int-bool",
            "probe-flag-str"])
    def test_what_the_runner_builds_is_checked(self, fields, match):
        # Each value once validated and then failed (or ran coerced)
        # inside the engine; now the field is named up front.
        with pytest.raises(ScenarioError, match=match):
            Scenario.from_dict({**MINIMAL, **fields})

    @pytest.mark.parametrize("fields, match", [
        ({"seed": -1}, "^seed must be non-negative, got -1"),
        ({"topology": {"seed": -1}},
         "^topology seed must be non-negative, got -1"),
        ({"generation_interval": 10 ** 30},
         "^generation_interval must fit a signed 64-bit integer"),
        ({"n_packets": 2 ** 63}, "^n_packets must fit a signed 64-bit"),
        ({"sim": {"max_slots": 10 ** 30}},
         "^sim override 'max_slots' must fit a signed 64-bit integer"),
        ({"mac": "csma_802154", "mac_kwargs": {"mac_min_be": -2 ** 63 - 1}},
         "mac parameter 'mac_min_be' must fit a signed 64-bit integer"),
        ({"duty_ratio": 1e-30},
         r"^duty_ratio 1e-30 with 1 wake slot\(s\) gives a wake period "
         "beyond a signed 64-bit integer"),
        ({"duty_ratio": 5e-324}, "^duty_ratio 5e-324 with 1 wake slot"),
    ], ids=["seed-negative", "topology-seed-negative", "int-past-int64",
            "int-at-int64", "sim-int-past-int64", "mac-int-below-int64",
            "period-past-int64", "period-infinite"])
    def test_values_the_engine_cannot_hold_named(self, fields, match):
        # Each value once validated and then failed inside NumPy (a
        # negative seed, an integer past int64) or the schedule build (a
        # wake period past int64) without naming the field.
        with pytest.raises(ScenarioError, match=match):
            Scenario.from_dict({**MINIMAL, **fields})

    def test_int64_edges_still_validate(self):
        s = Scenario.from_dict({**MINIMAL, "seed": 0,
                                "sim": {"max_slots": 2 ** 63 - 1}})
        assert s.sim_config().max_slots == 2 ** 63 - 1
        assert Scenario.from_dict({**MINIMAL, "duty_ratio": 2.0 ** -62}) \
            .period == 2 ** 62

    def test_integral_values_fill_real_fields(self):
        s = Scenario.from_dict({**MINIMAL, "duty_ratio": 1,
                                "coverage_target": 1, "schedule_jitter": 0})
        assert s.period == 1


class TestMacValidation:
    def test_unknown_mac_kind_suggests_closest(self):
        with pytest.raises(ScenarioError, match="csma_802154"):
            Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                     mac="csma_80215")

    def test_unknown_mac_kwarg_suggests_closest(self):
        with pytest.raises(ScenarioError,
                           match="did you mean 'max_frame_retries'"):
            Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                     mac="csma_802154",
                     mac_kwargs={"max_frame_retrys": 2})

    def test_mac_kwargs_for_ideal_rejected(self):
        # The ideal link takes no parameters; passing any is a spec bug.
        with pytest.raises(ScenarioError, match="mac parameter"):
            Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                     mac_kwargs={"mac_min_be": 2})

    def test_bad_mac_parameter_values_rejected_eagerly(self):
        # Construction-time validation, not first-use: the constructor's
        # ValueError surfaces as a ScenarioError naming the MAC.
        with pytest.raises(ScenarioError, match="csma_802154"):
            Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                     mac="csma_802154",
                     mac_kwargs={"mac_min_be": 6, "mac_max_be": 5})

    def test_make_link_model_honours_kwargs(self):
        s = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                     mac="csma_802154",
                     mac_kwargs={"max_frame_retries": 1})
        link = s.make_link_model()
        assert link.kind == "csma_802154"
        assert link.max_frame_retries == 1

    def test_default_mac_fingerprint_unchanged(self):
        # Back-compat: the implicit ideal MAC must not perturb
        # fingerprints (pinned store keys and expected.json digests
        # predate the mac field).
        s = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2)
        data = s.to_dict()
        data.pop("mac")
        data.pop("mac_kwargs")
        legacy = Scenario.from_dict(data)
        assert legacy.fingerprint() == s.fingerprint()

    def test_mac_choice_changes_fingerprint(self):
        a = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2)
        b = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                     mac="csma_802154")
        c = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=2,
                     mac="csma_802154",
                     mac_kwargs={"max_frame_retries": 1})
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3


class TestDerived:
    def test_period_matches_schedule_helper(self):
        from repro.net.schedule import duty_ratio_to_period

        s = Scenario(protocol="dbao", duty_ratio=0.05, n_packets=1)
        assert s.period == duty_ratio_to_period(0.05)

    def test_multislot_period_scales_with_budget(self):
        s = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=1,
                     wake_slots=2)
        assert s.period == 20

    def test_sim_config_defaults_by_protocol(self):
        opt = Scenario(protocol="opt", duty_ratio=0.1, n_packets=1)
        assert not opt.sim_config().radio.collisions
        dbao = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=1)
        assert dbao.sim_config() == SimConfig()

    def test_sim_overrides_apply(self):
        s = Scenario(protocol="dbao", duty_ratio=0.1, n_packets=1,
                     coverage_target=0.9,
                     sim={"fast_forward": False,
                          "radio": {"overhearing": True}})
        config = s.sim_config()
        assert config.fast_forward is False
        assert config.radio.overhearing is True
        assert config.coverage_target == 0.9
