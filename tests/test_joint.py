import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from restaurant_pomdp.belief import Belief, belief_predict, observe
from restaurant_pomdp.checks import check_marginal_consistency, random_joint_state
from restaurant_pomdp.config import RestaurantConfig
from restaurant_pomdp.dynamics import (
    action_duration,
    next_robot,
    tick_table,
    transition_distribution,
)
from restaurant_pomdp.joint import (
    SupportCapError,
    enumerate_joint_transitions,
    step_joint,
)
from restaurant_pomdp.model import (
    IllegalActionError,
    JointState,
    NOOP,
    RobotState,
    TableState,
    action_sort_key,
    all_done,
    fresh_table,
    go_to,
    initial_joint_state,
    legal_actions,
    serve,
)
from restaurant_pomdp.rewards import reward


DONE = TableState(0, 3, 3, 2, 8, 0, 0, 0, 0)


def test_noop_in_all_done_state(two_cfg):
    js = JointState(RobotState(5, 5), (DONE, DONE), 10)
    res = step_joint(js, NOOP, two_cfg, np.random.default_rng(0))
    assert res.next.tables == js.tables
    assert res.next.robot == js.robot
    assert res.reward == 0.0
    assert res.duration == 1
    assert res.next.clock == 11


def test_illegal_action_rejected(two_cfg):
    js = initial_joint_state(two_cfg, np.random.default_rng(0))
    with pytest.raises(IllegalActionError):
        step_joint(js, serve(0), two_cfg, np.random.default_rng(0))  # not co-located


def test_go_to_moves_robot_and_prices_navigation(two_cfg):
    # robot (5,5) -> table 0 at (2,2): distance 6, duration 1, nav reward -2
    js = initial_joint_state(two_cfg, np.random.default_rng(0))
    res = step_joint(js, go_to(0), two_cfg, np.random.default_rng(1))
    assert res.duration == 1
    assert res.next.robot == RobotState(2, 2)
    assert res.next.clock == 1
    assert res.table_rewards[0] == pytest.approx(-2.0, abs=1e-9)
    # the other table accrues its waiting term (zero here: fresh and satisfied)
    assert res.table_rewards[1] == 0.0
    assert res.next.tables[0].t_since_request == 1


def test_go_to_reward_at_distance_five(two_cfg):
    # robot (3,6) to table 0 at (2,2): distance 5, duration ceil(3*5/20) = 1
    cfg = dataclasses.replace(two_cfg, robot_start=(3, 6))
    js = initial_joint_state(cfg, np.random.default_rng(0))
    res = step_joint(js, go_to(0), cfg, np.random.default_rng(0))
    assert res.duration == 1
    assert res.table_rewards[0] == pytest.approx(-5 / 3, abs=1e-9)


def test_every_layer_moves_the_robot_by_next_robot(two_cfg):
    """A go_to ends on its target and anything else leaves the robot put,
    in the rule itself, the simulator, the enumeration and the filter."""
    rng = np.random.default_rng(45)
    checked = 0
    for _ in range(100):
        js = random_joint_state(rng, two_cfg)
        b = Belief(
            js.robot,
            tuple(observe(ts) for ts in js.tables),
            tuple(
                tuple(float(s == ts.satisfaction) for s in range(two_cfg.sat_max + 1))
                for ts in js.tables
            ),
        )
        for action in sorted(legal_actions(js, two_cfg), key=action_sort_key):
            robot = next_robot(js.robot, action, two_cfg)
            if action.kind.value == "go_to":
                assert robot == RobotState(*two_cfg.table_positions[action.table])
            else:
                assert robot == js.robot
            assert step_joint(js, action, two_cfg, rng).next.robot == robot
            for nxt, _, _ in enumerate_joint_transitions(js, action, two_cfg):
                assert nxt.robot == robot
            assert belief_predict(b, action, two_cfg)[0].robot == robot
            checked += 1
    assert checked > 300


def test_nonserve_transitions_are_deterministic(two_cfg):
    """Only a serve has more than one support point."""
    rng = np.random.default_rng(44)
    for _ in range(200):
        js = random_joint_state(rng, two_cfg)
        for action in legal_actions(js, two_cfg):
            duration = action_duration(js.robot, action, two_cfg)
            for i, ts in enumerate(js.tables):
                dist = transition_distribution(ts, action, duration, two_cfg, i)
                is_serve_target = (
                    action.kind.value == "serve" and action.table == i
                )
                if not is_serve_target:
                    assert len(dist) == 1


def test_go_to_duration_scales_with_distance(paper_cfg):
    js = initial_joint_state(paper_cfg, np.random.default_rng(0))
    far = dataclasses.replace(
        paper_cfg, robot_start=(0, 0), table_positions=((10, 10), (2, 8), (8, 5))
    )
    js = initial_joint_state(far, np.random.default_rng(0))
    res = step_joint(js, go_to(0), far, np.random.default_rng(1))
    assert res.duration == 3
    # unattended tables tick three times
    assert res.next.tables[1].t_since_request == 3
    assert res.next.clock == 3


def test_single_table_step_equals_direct_composition():
    """step_joint on one table == table dynamics + reward, state by state."""
    cfg = RestaurantConfig(
        n_tables=1,
        table_positions=((2, 2),),
        robot_start=(0, 0),
        grid_width=5,
        grid_height=5,
        sat_max=2,
        time_max=4,
    )
    rng = np.random.default_rng(77)
    oracle_rng = np.random.default_rng(77)
    js = initial_joint_state(cfg, rng)
    _ = initial_joint_state(cfg, oracle_rng)
    steps = 0
    while steps < 1000:
        if all_done(js):
            js = initial_joint_state(cfg, rng)
            _ = initial_joint_state(cfg, oracle_rng)
        acts = sorted(legal_actions(js, cfg), key=action_sort_key)
        pick_rng = np.random.default_rng(steps)
        action = acts[int(pick_rng.integers(len(acts)))]
        duration = action_duration(js.robot, action, cfg)
        res = step_joint(js, action, cfg, rng)

        ts = js.tables[0]
        # oracle: sample the same table transition from the same stream,
        # then recompute the reward by the stated accrual rule
        from restaurant_pomdp.dynamics import sample_transition

        expected_next = sample_transition(ts, action, duration, cfg, oracle_rng, 0)
        assert res.next.tables[0] == expected_next
        assert res.duration == duration
        if action.kind.value == "serve":
            want = cfg.reward.serve_scale * (cfg.sat_max - expected_next.satisfaction + 1)
        elif action.kind.value == "go_to":
            dist = abs(js.robot.x - 2) + abs(js.robot.y - 2)
            want = -dist / cfg.reward.nav_divisor
        elif ts.done:
            want = 0.0
        else:
            want = 0.0
            state = ts
            for k in range(duration):
                nxt = tick_table(state, cfg)
                want += cfg.gamma**k * reward(state, action, nxt, js.robot, cfg, 0)
                state = nxt
        assert res.reward == pytest.approx(want, abs=1e-9)
        js = res.next
        steps += 1


def test_enumeration_deterministic_action_single_entry(two_cfg):
    js = initial_joint_state(two_cfg, np.random.default_rng(0))
    entries = enumerate_joint_transitions(js, NOOP, two_cfg)
    assert len(entries) == 1
    assert entries[0][1] == 1.0


def test_enumeration_serve_split_with_idle_table(two_cfg):
    cfg = dataclasses.replace(two_cfg, robot_start=(2, 2))
    neutral = dataclasses.replace(fresh_table(3))
    js = JointState(RobotState(2, 2), (neutral, fresh_table(5)), 0)
    entries = enumerate_joint_transitions(js, serve(0), cfg)
    assert len(entries) == 2
    probs = sorted(p for _, p, _ in entries)
    assert probs == pytest.approx([0.4, 0.6], abs=1e-12)
    sats = {e[0].tables[0].satisfaction for e in entries}
    assert sats == {3, 4}
    # serve rewards: 0.6 branch ends at 4 -> 10, 0.4 branch stays 3 -> 15
    by_sat = {e[0].tables[0].satisfaction: e[2] for e in entries}
    assert by_sat[4] == pytest.approx(10.0, abs=1e-9)
    assert by_sat[3] == pytest.approx(15.0, abs=1e-9)


def test_joint_support_never_exceeds_two(two_cfg):
    """Only the served table is stochastic, so the product support is <= 2."""
    rng = np.random.default_rng(31)
    for _ in range(300):
        js = random_joint_state(rng, two_cfg)
        for action in legal_actions(js, two_cfg):
            entries = enumerate_joint_transitions(js, action, two_cfg)
            assert len(entries) <= 2
            total = math.fsum(p for _, p, _ in entries)
            assert total == pytest.approx(1.0, abs=1e-9)


def test_support_cap_enforced(two_cfg):
    js = initial_joint_state(two_cfg, np.random.default_rng(0))
    with pytest.raises(SupportCapError):
        enumerate_joint_transitions(js, NOOP, two_cfg, cap=0)


def test_enumeration_rejects_illegal_action(two_cfg):
    js = initial_joint_state(two_cfg, np.random.default_rng(0))
    with pytest.raises(IllegalActionError):
        enumerate_joint_transitions(js, serve(0), two_cfg)  # robot not at table


def test_per_table_marginals_match_table_dynamics(two_cfg):
    """Independence: joint marginals equal single-table distributions."""
    result = check_marginal_consistency(two_cfg, 200, 13)
    assert result.passed, result.detail


def test_sampled_steps_match_enumeration_chi_square(two_cfg):
    """step_joint sampling agrees with the enumerated distribution."""
    cfg = dataclasses.replace(two_cfg, robot_start=(2, 2))
    js = JointState(RobotState(2, 2), (fresh_table(2), fresh_table(5)), 0)
    entries = enumerate_joint_transitions(js, serve(0), cfg)
    keys = [e[0] for e in entries]
    expected = np.array([e[1] for e in entries])
    rng = np.random.default_rng(2024)
    n = 100_000
    counts = {k: 0 for k in keys}
    for _ in range(n):
        res = step_joint(js, serve(0), cfg, rng)
        counts[res.next] += 1
    observed = np.array([counts[k] for k in keys])
    _, p_value = stats.chisquare(observed, expected * n)
    assert p_value > 0.001


def test_observations_mirror_next_states(two_cfg):
    rng = np.random.default_rng(6)
    js = initial_joint_state(two_cfg, rng)
    for _ in range(60):
        if all_done(js):
            break
        acts = sorted(legal_actions(js, two_cfg), key=action_sort_key)
        res = step_joint(js, acts[int(rng.integers(len(acts)))], two_cfg, rng)
        assert res.obs == tuple(observe(ts) for ts in res.next.tables)
        js = res.next


def test_clock_advances_by_duration(two_cfg):
    rng = np.random.default_rng(14)
    js = initial_joint_state(two_cfg, rng)
    for _ in range(40):
        if all_done(js):
            break
        acts = sorted(legal_actions(js, two_cfg), key=action_sort_key)
        action = acts[int(rng.integers(len(acts)))]
        want = js.clock + action_duration(js.robot, action, two_cfg)
        js = step_joint(js, action, two_cfg, rng).next
        assert js.clock == want
