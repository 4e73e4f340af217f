import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from restaurant_pomdp.config import (
    ConfigError,
    RestaurantConfig,
    RewardParams,
    SCENARIOS,
    apply_overrides,
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
    validate_config,
)


def base_cfg(**kwargs) -> RestaurantConfig:
    defaults = dict(
        n_tables=3,
        table_positions=((2, 2), (2, 8), (8, 5)),
        robot_start=(5, 5),
    )
    defaults.update(kwargs)
    return RestaurantConfig(**defaults)


def test_time_max_derived_from_tables_and_sat_max():
    cfg = validate_config(base_cfg())
    assert cfg.time_max == 3 * 5 == 15


def test_time_max_single_table():
    cfg = validate_config(
        base_cfg(n_tables=1, table_positions=((2, 2),))
    )
    assert cfg.time_max == 5


def test_time_max_explicit_override_kept():
    cfg = validate_config(base_cfg(time_max=7))
    assert cfg.time_max == 7


def test_unnormalized_prior_rejected():
    with pytest.raises(ConfigError, match="sums to"):
        validate_config(
            base_cfg(satisfaction_prior=(0.5, 0.5, 0.0, 0.0, 0.0, 0.1))
        )


def test_default_prior_is_point_mass_at_initial_satisfaction():
    cfg = validate_config(base_cfg(initial_satisfaction=3))
    assert cfg.satisfaction_prior == (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "bad",
    [
        dict(n_tables=0, table_positions=()),
        dict(table_positions=((2, 2), (2, 8), (11, 5))),  # off grid
        dict(table_positions=((2, 2), (2, 2), (8, 5))),  # duplicate
        dict(robot_start=(5, 11)),
        dict(gamma=0.0),
        dict(gamma=1.5),
        dict(horizon=-1),
        dict(sat_max=0),
        dict(satisfaction_prior=(0.5, 0.5)),  # wrong length
        dict(satisfaction_prior=(1.5, -0.5, 0.0, 0.0, 0.0, 0.0)),
        dict(reward=RewardParams(penalty_bases=(1.0, 1.7, 1.4))),
        dict(reward=RewardParams(time_cap=-1)),
        dict(duration_max_nav=0),
        # NaN fails every bound check and an infinity passes some: both are refused.
        dict(satisfaction_prior=(math.nan, 0.0, 0.0, 0.0, 0.0, 1.0)),
        dict(reward=RewardParams(penalty_bases=(math.inf, 1.7, 1.4))),
    ]
    + [dict(reward=RewardParams(**{name: value}))
       for name in ("serve_scale", "nav_divisor", "time_cap", "improvement_bonus")
       for value in (math.nan, math.inf, -math.inf)],
)
def test_invalid_configs_rejected(bad):
    with pytest.raises(ConfigError):
        validate_config(base_cfg(**bad))


def test_json_round_trip_is_identity():
    cfg = validate_config(base_cfg(seed=17, horizon=33))
    again = config_from_json(config_to_json(cfg))
    assert again == cfg


def test_unknown_top_level_key_rejected():
    doc = config_to_dict(validate_config(base_cfg()))
    doc["tip_multiplier"] = 2
    with pytest.raises(ConfigError, match="tip_multiplier"):
        config_from_dict(doc)


def test_unknown_reward_key_rejected():
    doc = config_to_dict(validate_config(base_cfg()))
    doc["reward"]["bribe"] = 1
    with pytest.raises(ConfigError, match="bribe"):
        config_from_dict(doc)


def test_missing_required_key_rejected():
    doc = config_to_dict(validate_config(base_cfg()))
    del doc["table_positions"]
    with pytest.raises(ConfigError, match="table_positions"):
        config_from_dict(doc)


def test_overrides_patch_declared_keys():
    doc = config_to_dict(validate_config(base_cfg()))
    patched = apply_overrides(doc, ["horizon=0", "gamma=0.9"])
    cfg = config_from_dict(patched)
    assert cfg.horizon == 0
    assert cfg.gamma == 0.9


def test_override_nested_reward():
    doc = config_to_dict(validate_config(base_cfg()))
    patched = apply_overrides(doc, ["reward.penalty_bases=[3.0,1.7,1.4]"])
    cfg = config_from_dict(patched)
    assert cfg.reward.penalty_bases == (3.0, 1.7, 1.4)


def test_override_unknown_key_rejected():
    doc = config_to_dict(validate_config(base_cfg()))
    with pytest.raises(ConfigError, match="unknown override key"):
        apply_overrides(doc, ["tables=9"])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_config_to_dict_is_a_fresh_copy_with_lists(name):
    cfg = SCENARIOS[name]()
    want = json.loads(json.dumps(dataclasses.asdict(cfg)))
    doc = config_to_dict(cfg)
    assert doc == want
    for key in ("table_positions", "robot_start", "satisfaction_prior"):
        doc[key].append(0)
    doc["table_positions"][0].append(0)
    doc["reward"]["penalty_bases"].append(3.0)
    doc["reward"]["serve_scale"] = 0.0
    assert config_to_dict(cfg) == want


def test_scenarios_all_validate():
    for name, build in SCENARIOS.items():
        cfg = build()
        assert cfg == validate_config(cfg), name


@given(
    n_tables=st.integers(1, 4),
    sat_max=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_over_generated_configs(n_tables, sat_max, seed):
    positions = tuple((i, 2 * i) for i in range(n_tables))
    cfg = validate_config(
        RestaurantConfig(
            n_tables=n_tables,
            table_positions=positions,
            robot_start=(0, 9),
            grid_width=10,
            grid_height=10,
            sat_max=sat_max,
            seed=seed,
        )
    )
    assert config_from_json(config_to_json(cfg)) == cfg
    assert cfg.time_max == n_tables * sat_max
    assert abs(sum(cfg.satisfaction_prior) - 1.0) < 1e-9


def test_validate_is_idempotent():
    cfg = validate_config(base_cfg())
    assert validate_config(cfg) == cfg
    assert dataclasses.replace(cfg) == cfg


def test_validate_returns_a_valid_config_itself():
    for name, build in SCENARIOS.items():
        cfg = build()
        assert validate_config(cfg) is cfg, name
    raw = base_cfg()
    cfg = validate_config(raw)
    assert cfg is not raw
    assert (cfg.time_max, cfg.initial_satisfaction) == (15, 5)
    assert cfg.satisfaction_prior == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)


def test_validate_converts_values_that_only_compare_equal():
    """An int prior or penalty base equals its float form, and is still converted."""
    cfg = validate_config(base_cfg())
    for loose in (
        dataclasses.replace(cfg, satisfaction_prior=(0, 0, 0, 0, 0, 1)),
        dataclasses.replace(cfg, reward=RewardParams(penalty_bases=(2, 1.7, 1.4))),
    ):
        assert loose == cfg
        out = validate_config(loose)
        assert out is not loose
        assert repr(out) == repr(cfg)


def test_validating_a_valid_config_again_builds_nothing(monkeypatch):
    """A config that validated to itself is found by id the next time: no
    replaced config is built, and normalizing and rejecting are unchanged."""
    from restaurant_pomdp import config as config_module

    built = []
    real_replace = config_module.replace

    def counting_replace(*args, **kwargs):
        built.append(args[0])
        return real_replace(*args, **kwargs)

    monkeypatch.setattr(config_module, "replace", counting_replace)
    cfg = dataclasses.replace(validate_config(base_cfg()), seed=23)  # a new object
    assert validate_config(cfg) is cfg
    assert built
    built.clear()
    assert validate_config(cfg) is cfg
    assert config_to_dict(cfg)["seed"] == 23
    assert built == []

    listed = dataclasses.replace(
        cfg, table_positions=[list(p) for p in cfg.table_positions], robot_start=[5, 5]
    )
    for _ in range(2):
        out = validate_config(listed)
        assert out is not listed
        assert out.table_positions == ((2, 2), (2, 8), (8, 5))
        assert out.robot_start == (5, 5)
        assert repr(out) == repr(cfg)
    for _ in range(2):
        with pytest.raises(ConfigError, match="gamma"):
            validate_config(dataclasses.replace(cfg, gamma=1.5))

    for seed in range(2 * config_module.VALID_MEMO_LIMIT):
        validate_config(dataclasses.replace(cfg, seed=seed))
    assert len(config_module._validated) <= config_module.VALID_MEMO_LIMIT
