import dataclasses
import functools
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
    cfg = base_cfg()
    assert cfg.time_max == 3 * 5 == 15


def test_time_max_single_table():
    cfg = base_cfg(n_tables=1, table_positions=((2, 2),))
    assert cfg.time_max == 5


def test_time_max_explicit_override_kept():
    cfg = base_cfg(time_max=7)
    assert cfg.time_max == 7


def test_unnormalized_prior_rejected():
    with pytest.raises(ConfigError, match="sums to"):
        base_cfg(satisfaction_prior=(0.5, 0.5, 0.0, 0.0, 0.0, 0.1))


def test_default_prior_is_point_mass_at_initial_satisfaction():
    cfg = base_cfg(initial_satisfaction=3)
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
        dict(reward=dict(penalty_bases=(1.0, 1.7, 1.4))),
        dict(reward=dict(time_cap=-1)),
        dict(duration_max_nav=0),
        # NaN fails every bound check and an infinity passes some: both are refused.
        dict(satisfaction_prior=(math.nan, 0.0, 0.0, 0.0, 0.0, 1.0)),
        dict(reward=dict(penalty_bases=(math.inf, 1.7, 1.4))),
    ]
    + [dict(reward={name: value})
       for name in ("serve_scale", "nav_divisor", "time_cap", "improvement_bonus")
       for value in (math.nan, math.inf, -math.inf)]
    # An int too large for a float is refused as well.
    + [dict(reward=dict(serve_scale=10**400)),
       dict(reward=dict(penalty_bases=(10**400, 1.7, 1.4))),
       dict(satisfaction_prior=(0, 0, 0, 0, 0, 10**400))],
)
def test_invalid_configs_rejected(bad):
    """A bad field is refused when a config is built and when a valid one is replaced."""
    for build in (base_cfg, functools.partial(dataclasses.replace, base_cfg())):
        with pytest.raises(ConfigError):
            build(**{k: RewardParams(**v) if k == "reward" else v for k, v in bad.items()})


def test_json_round_trip_is_identity():
    cfg = base_cfg(seed=17, horizon=33)
    again = config_from_json(config_to_json(cfg))
    assert again == cfg


def test_unknown_top_level_key_rejected():
    doc = config_to_dict(base_cfg())
    doc["tip_multiplier"] = 2
    with pytest.raises(ConfigError, match="tip_multiplier"):
        config_from_dict(doc)


def test_unknown_reward_key_rejected():
    doc = config_to_dict(base_cfg())
    doc["reward"]["bribe"] = 1
    with pytest.raises(ConfigError, match="bribe"):
        config_from_dict(doc)


def test_missing_required_key_rejected():
    doc = config_to_dict(base_cfg())
    del doc["table_positions"]
    with pytest.raises(ConfigError, match="table_positions"):
        config_from_dict(doc)


def test_overrides_patch_declared_keys():
    doc = config_to_dict(base_cfg())
    patched = apply_overrides(doc, ["horizon=0", "gamma=0.9"])
    cfg = config_from_dict(patched)
    assert cfg.horizon == 0
    assert cfg.gamma == 0.9


def test_override_nested_reward():
    doc = config_to_dict(base_cfg())
    patched = apply_overrides(doc, ["reward.penalty_bases=[3.0,1.7,1.4]"])
    cfg = config_from_dict(patched)
    assert cfg.reward.penalty_bases == (3.0, 1.7, 1.4)


def test_override_unknown_key_rejected():
    doc = config_to_dict(base_cfg())
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
        assert None not in (cfg.time_max, cfg.initial_satisfaction, cfg.satisfaction_prior), name


@given(
    n_tables=st.integers(1, 4),
    sat_max=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_over_generated_configs(n_tables, sat_max, seed):
    positions = tuple((i, 2 * i) for i in range(n_tables))
    cfg = RestaurantConfig(
        n_tables=n_tables,
        table_positions=positions,
        robot_start=(0, 9),
        grid_width=10,
        grid_height=10,
        sat_max=sat_max,
        seed=seed,
    )
    assert config_from_json(config_to_json(cfg)) == cfg
    assert cfg.time_max == n_tables * sat_max
    assert abs(sum(cfg.satisfaction_prior) - 1.0) < 1e-9


def test_validate_is_idempotent():
    """Rebuilding a built config gives it back, down to its repr."""
    for cfg in [base_cfg()] + [build() for build in SCENARIOS.values()]:
        again = dataclasses.replace(cfg)
        assert again == cfg
        assert repr(again) == repr(cfg)


def test_validate_converts_values_that_only_compare_equal():
    """An int prior, int penalty bases and list positions are stored in their
    normal forms once built: float and int tuples."""
    cfg = base_cfg()
    loose = base_cfg(
        table_positions=[[2, 2], [2, 8], [8, 5]],
        robot_start=[5, 5],
        satisfaction_prior=(0, 0, 0, 0, 0, 1),
        reward=RewardParams(penalty_bases=[2, 1.7, 1.4]),
    )
    assert repr(loose) == repr(cfg)
    assert hash(loose) == hash(cfg)
