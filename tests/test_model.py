import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import restaurant_pomdp
from restaurant_pomdp.config import RestaurantConfig
from restaurant_pomdp.joint import step_joint
from restaurant_pomdp.model import (
    JointState,
    NOOP,
    RobotState,
    TableState,
    all_done,
    comm_food_not_ready,
    comm_will_return,
    fresh_table,
    go_to,
    initial_joint_state,
    legal_actions,
    serve,
)

from .strategies import random_walk_states


def test_initial_state_default_prior(paper_cfg):
    js = initial_joint_state(paper_cfg, np.random.default_rng(0))
    assert js.clock == 0
    assert js.robot == RobotState(5, 5)
    for ts in js.tables:
        assert ts.satisfaction == 5
        assert ts.current_request == 1
        assert (ts.food, ts.water, ts.cooking_status) == (0, 0, 0)
        assert (ts.t_since_served, ts.t_since_food_ready, ts.t_since_request) == (0, 0, 0)
        assert ts.hand_raise == 1


def test_initial_state_point_mass_prior(paper_cfg):
    import dataclasses

    cfg = dataclasses.replace(paper_cfg, initial_satisfaction=3, satisfaction_prior=None)
    js = initial_joint_state(cfg, np.random.default_rng(7))
    assert all(ts.satisfaction == 3 for ts in js.tables)


def test_initial_state_uniform_prior_seed_reproducible(paper_cfg):
    import dataclasses

    uniform = (1 / 6,) * 6
    cfg = dataclasses.replace(paper_cfg, satisfaction_prior=uniform)
    a = initial_joint_state(cfg, np.random.default_rng(42))
    b = initial_joint_state(cfg, np.random.default_rng(42))
    assert a == b
    draws = {
        initial_joint_state(cfg, np.random.default_rng(s)).tables[0].satisfaction
        for s in range(50)
    }
    assert len(draws) > 1  # the prior is actually sampled


def _expected_legal(js: JointState, cfg) -> set:
    """Independent statement of the legality rules, for cross-checking."""
    acts = {NOOP}
    for i, ts in enumerate(js.tables):
        if ts.hand_raise == 0:
            continue
        at = (js.robot.x, js.robot.y) == cfg.table_positions[i]
        blocked = ts.current_request == 3 and ts.cooking_status < 2
        if not at:
            acts.add(go_to(i))
        if at and not blocked:
            acts.add(serve(i))
        if blocked:
            acts.add(comm_food_not_ready(i))
        acts.add(comm_will_return(i))
    return acts


def test_serve_gating_over_all_request_cooking_pairs(paper_cfg):
    """Enumerates every (request, cooking) pair against the stated rule."""
    cfg = paper_cfg
    for request in range(1, 9):
        for cooking in range(3):
            ts = TableState(3, 0, 0, cooking, request, 1, 0, 0, 0)
            js = JointState(RobotState(2, 2), (ts,) + (fresh_table(5),) * 2, 0)
            acts = legal_actions(js, cfg)
            blocked = request == 3 and cooking < 2
            assert (serve(0) in acts) == (not blocked), (request, cooking)
            assert (comm_food_not_ready(0) in acts) == blocked, (request, cooking)
            assert go_to(0) not in acts  # robot already there
            assert comm_will_return(0) in acts
            assert acts == _expected_legal(js, cfg)


def test_all_done_leaves_only_noop(paper_cfg):
    done = TableState(0, 3, 3, 2, 8, 0, 0, 0, 0)
    js = JointState(RobotState(5, 5), (done,) * 3, 0)
    assert legal_actions(js, paper_cfg) == {NOOP}
    assert all_done(js)


def test_action_sets_of_distinct_tables_are_disjoint(paper_cfg):
    js = initial_joint_state(paper_cfg, np.random.default_rng(0))
    acts = legal_actions(js, paper_cfg)
    by_table = {}
    for a in acts:
        if a.table is not None:
            by_table.setdefault(a.table, set()).add(a)
    tables = list(by_table)
    for i in tables:
        for j in tables:
            if i != j:
                assert not (by_table[i] & by_table[j])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_legal_actions_nonempty_and_executable(two_cfg, seed):
    """Every action returned by legal_actions runs through step_joint."""
    rng = np.random.default_rng(seed)
    for js in random_walk_states(two_cfg, 60, seed):
        acts = legal_actions(js, two_cfg)
        assert NOOP in acts
        for a in acts:
            step_joint(js, a, two_cfg, rng)  # must not raise


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_positions_always_inside_grid(data):
    width = data.draw(st.integers(2, 12))
    height = data.draw(st.integers(2, 12))
    x = data.draw(st.integers(0, width - 1))
    y = data.draw(st.integers(0, height - 1))
    cfg = RestaurantConfig(
        n_tables=1,
        table_positions=((x, y),),
        robot_start=(0, 0),
        grid_width=width,
        grid_height=height,
    )
    assert cfg.table_positions[0] == (x, y)


def test_source_holds_no_assert():
    """Model invariants are explicit errors, so they still hold under ``python -O``."""
    package = Path(restaurant_pomdp.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
