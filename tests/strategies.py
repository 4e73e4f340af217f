"""Shared hypothesis strategies and random-state helpers for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from restaurant_pomdp.config import RestaurantConfig
from restaurant_pomdp.joint import step_joint
from restaurant_pomdp.model import (
    JointState,
    TableState,
    action_sort_key,
    all_done,
    initial_joint_state,
    legal_actions,
)


def table_states(cfg: RestaurantConfig) -> st.SearchStrategy[TableState]:
    """Arbitrary in-range table states (active, not necessarily reachable)."""
    tm = cfg.time_max
    return st.builds(
        TableState,
        satisfaction=st.integers(0, cfg.sat_max),
        food=st.integers(0, 3),
        water=st.integers(0, 3),
        cooking_status=st.integers(0, 2),
        current_request=st.integers(1, 8),
        hand_raise=st.just(1),
        t_since_served=st.integers(0, tm),
        t_since_food_ready=st.integers(0, tm),
        t_since_request=st.integers(0, tm),
    )


def small_configs() -> st.SearchStrategy[RestaurantConfig]:
    """Valid single-table configs with varied schedule constants."""

    def build(sat_max: int, time_max: int, gamma: float) -> RestaurantConfig:
        return RestaurantConfig(
            n_tables=1,
            table_positions=((2, 2),),
            robot_start=(0, 0),
            grid_width=5,
            grid_height=5,
            sat_max=sat_max,
            time_max=time_max,
            gamma=gamma,
        )

    return st.builds(
        build,
        sat_max=st.integers(1, 6),
        time_max=st.integers(2, 30),
        gamma=st.floats(0.5, 1.0, allow_nan=False),
    )


def random_walk_states(
    cfg: RestaurantConfig, n_states: int, seed: int, max_steps: int = 40
) -> list[JointState]:
    """Reachable joint states gathered from random-action walks."""
    rng = np.random.default_rng(seed)
    states: list[JointState] = []
    while len(states) < n_states:
        init_rng = np.random.default_rng(int(rng.integers(2**63)))
        js = initial_joint_state(cfg, init_rng)
        states.append(js)
        for _ in range(int(rng.integers(1, max_steps))):
            if all_done(js) or len(states) >= n_states:
                break
            acts = sorted(legal_actions(js, cfg), key=action_sort_key)
            action = acts[int(rng.integers(len(acts)))]
            js = step_joint(js, action, cfg, rng).next
            states.append(js)
    return states[:n_states]
