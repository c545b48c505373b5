"""Scenario config: strict schema, field-level diagnostics."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expmarket.config import (
    _MAX_STOPS,
    ConfigError,
    ScenarioConfig,
    bundled_scenario,
    load_scenario_config,
    parse_scenario_config,
)


def valid_doc():
    return bundled_scenario("shopping")


def test_bundled_scenarios_all_parse():
    for name in ("robustness", "scaling", "shopping"):
        cfg = parse_scenario_config(bundled_scenario(name))
        assert cfg.robots >= 2
        assert cfg.forays >= 1


def test_unknown_top_level_section_rejected():
    doc = valid_doc()
    doc["extra"] = {}
    with pytest.raises(ConfigError, match="unknown sections: extra"):
        parse_scenario_config(doc)


def test_unknown_key_named_in_diagnostic():
    doc = valid_doc()
    doc["network"]["bandwidht"] = 9
    with pytest.raises(ConfigError, match="network: unknown keys: bandwidht"):
        parse_scenario_config(doc)


def test_missing_section_named():
    doc = valid_doc()
    del doc["sim"]
    with pytest.raises(ConfigError, match="missing section 'sim'"):
        parse_scenario_config(doc)


def test_wrong_type_named():
    doc = valid_doc()
    doc["team"]["robots"] = "four"
    with pytest.raises(ConfigError, match="team.robots"):
        parse_scenario_config(doc)


def test_bad_enum_lists_options():
    doc = valid_doc()
    doc["strategies"]["trading"] = "SOMETIMES"
    with pytest.raises(ConfigError, match="strategies.trading"):
        parse_scenario_config(doc)


def test_quality_means_must_match_team_size():
    doc = valid_doc()
    doc["team"]["quality_inlier_means"] = [1, 2]
    with pytest.raises(ConfigError, match="quality_inlier_means"):
        parse_scenario_config(doc)


def test_latency_order_enforced():
    doc = valid_doc()
    doc["network"]["latency_low_ms"] = 900
    with pytest.raises(ConfigError, match="latency"):
        parse_scenario_config(doc)


def test_unknown_catalogue_name():
    doc = valid_doc()
    doc["world"]["catalogue"] = "atlantis"
    with pytest.raises(ConfigError, match="no bundled catalogue named 'atlantis'"):
        parse_scenario_config(doc)


def test_missing_config_file_diagnostic(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_scenario_config(tmp_path / "nope.json")


def test_catalogue_file_reference(tmp_path):
    cat = tmp_path / "tiny.catalogue"
    cat.write_text("A, street, 2, 100\nB, street, 2, 100\nC, street, 2, 100\n")
    doc = valid_doc()
    doc["world"]["catalogue"] = str(cat)
    doc["team"]["route_width"] = 2
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    cfg = load_scenario_config(cfg_path)
    assert len(cfg.catalogue) == 3


def test_asymmetric_choice_rejected_for_scenarios():
    doc = valid_doc()
    doc["strategies"]["choice"] = "lhs"
    with pytest.raises(ConfigError, match="pure policy"):
        parse_scenario_config(doc)


@pytest.mark.parametrize("section, key, value", [
    ("strategies", "window_radius", -1),
    ("strategies", "window_radius", 0),
    ("network", "latency_low_ms", float("nan")),
    ("network", "latency_high_ms", float("inf")),
    ("sim", "tau_loc", float("nan")),
    ("world", "drift_sigma", float("-inf")),
    ("team", "quality_inlier_means", [30, float("nan"), 40, 45]),
    ("team", "quality_fabmap_means", [0.5, 0.5, 0.5, 10**400]),
    ("team", "robots", 10**9),
    ("sim", "forays", 0),
    ("sim", "forays", 10_001),
    ("sim", "forays", 10**18),
    ("world", "descriptor_dim", 0),
    ("world", "descriptor_dim", 1025),
    ("world", "descriptor_dim", 10**12),
    ("world", "drift_sigma", -0.05),
    ("world", "noise_sigma", -0.01),
    ("world", "latent_scale", -1.0),
    ("world", "node_spacing_m", 1e-9),
    ("network", "latency_high_ms", 1.7e308),
])
def test_out_of_range_values_are_config_errors(section, key, value):
    doc = bundled_scenario("robustness")  # WINDOW shopping, four robots
    doc[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        parse_scenario_config(doc)


@pytest.mark.parametrize("section, key, value", [
    ("sim", "forays", 10_000),
    ("world", "descriptor_dim", 1024),
])
def test_largest_accepted_values_parse(section, key, value):
    doc = bundled_scenario("robustness")
    doc[section][key] = value
    cfg = parse_scenario_config(doc)
    assert (cfg.forays if key == "forays" else cfg.world.descriptor_dim) == value


def test_unreadable_json_is_a_config_error(tmp_path):
    for name, data in (("binary.json", b"\xff\xfe{"), ("deep.json", b"[" * 100000),
                       ("digits.json", b"1" * 5000)):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario_config(path)


def _json_values():
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=12))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(max_size=6), inner, max_size=4),
                        max_leaves=8)


_SCENARIOS = ("robustness", "scaling", "shopping")
# every section, every key any bundled scenario sets, and the keys none sets
_FIELDS = sorted({(section, key) for name in _SCENARIOS
                  for section, body in bundled_scenario(name).items()
                  for key in (None, *body)}
                 | {("world", "latent_scale"), ("team", "quality_fabmap_means"),
                    ("strategies", "central_id")}, key=str)


@settings(max_examples=600, deadline=None)
@given(name=st.sampled_from(_SCENARIOS), field=st.sampled_from(_FIELDS),
       value=_json_values())
def test_any_value_of_one_field_parses_or_is_a_config_error(name, field, value):
    doc = bundled_scenario(name)
    section, key = field
    if key is None:
        doc[section] = value
    else:
        doc[section][key] = value
    try:
        cfg = parse_scenario_config(doc)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)
    world, localiser = cfg.world, cfg.commutation.localiser
    numbers = [cfg.latency_low_ms, cfg.latency_high_ms, cfg.trading.exploit_fraction,
               world.node_spacing_m, world.latent_scale, world.drift_sigma, world.noise_sigma,
               localiser.tau_loc, localiser.tau_m,
               *cfg.quality_inlier_means, *cfg.quality_fabmap_means]
    assert all(math.isfinite(v) for v in numbers)
    assert min(world.latent_scale, world.drift_sigma, world.noise_sigma) >= 0
    assert cfg.catalogue.total_metres / world.node_spacing_m <= _MAX_STOPS
