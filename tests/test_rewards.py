import dataclasses
import math

import pytest

from restaurant_pomdp.belief import Belief, belief_init, observe
from restaurant_pomdp.checks import REL_TOLERANCE, check_expected_reward_vs_enumeration
from restaurant_pomdp.config import SCENARIOS, RestaurantConfig
from restaurant_pomdp.dynamics import action_duration, tick_table
from restaurant_pomdp.model import (
    IllegalActionError,
    NOOP,
    RobotState,
    TableState,
    comm_will_return,
    fresh_table,
    go_to,
    serve,
)
from restaurant_pomdp.planners import sorted_legal_actions
from restaurant_pomdp.rewards import expected_reward, reward


def table(sat: int, t_req: int = 0) -> TableState:
    return TableState(sat, 0, 0, 0, 1, 1, 0, 0, t_req)


ROBOT = RobotState(5, 5)


def test_serve_reward_formula(paper_cfg):
    # 5 * (sat_max - sat' + 1) with sat' from the post-serve state
    assert reward(table(0), serve(0), table(0), ROBOT, paper_cfg, 0) == pytest.approx(30.0, abs=1e-9)
    assert reward(table(5), serve(0), table(5), ROBOT, paper_cfg, 0) == pytest.approx(5.0, abs=1e-9)
    assert reward(table(3), serve(0), table(4), ROBOT, paper_cfg, 0) == pytest.approx(10.0, abs=1e-9)


def test_go_to_reward_uses_pre_move_distance(paper_cfg):
    # robot at (4,6), table 0 at (2,2): distance 6 -> -2
    r = reward(table(3), go_to(0), table(3), RobotState(4, 6), paper_cfg, 0)
    assert r == pytest.approx(-2.0, abs=1e-9)


def test_waiting_penalty_cases(paper_cfg):
    assert reward(table(1, 3), NOOP, table(1, 4), ROBOT, paper_cfg, 0) == pytest.approx(
        -(1.7**3), abs=1e-9
    )
    assert reward(table(0, 2), NOOP, table(0, 3), ROBOT, paper_cfg, 0) == pytest.approx(
        -4.0, abs=1e-9
    )
    assert reward(table(2, 1), NOOP, table(2, 2), ROBOT, paper_cfg, 0) == pytest.approx(
        -1.4, abs=1e-9
    )


def test_improvement_bonus_and_otherwise_zero(paper_cfg):
    assert reward(table(3), NOOP, table(4), ROBOT, paper_cfg, 0) == pytest.approx(1.0, abs=1e-9)
    assert reward(table(3), NOOP, table(3), ROBOT, paper_cfg, 0) == 0.0
    assert reward(table(5), NOOP, table(5), ROBOT, paper_cfg, 0) == 0.0


def test_departed_table_contributes_nothing(paper_cfg):
    done = TableState(0, 3, 3, 2, 8, 0, 0, 0, 9)
    for a in (NOOP, serve(0), go_to(0)):
        assert reward(done, a, done, ROBOT, paper_cfg, 0) == 0.0


def test_non_targeted_table_gets_waiting_case(paper_cfg):
    # serve on table 1, viewed from table 0: waiting case applies
    r = reward(table(1, 3), serve(1), table(1, 4), ROBOT, paper_cfg, 0)
    assert r == pytest.approx(-(1.7**3), abs=1e-9)


def test_comm_action_on_own_table_is_waiting_case(paper_cfg):
    r = reward(table(2, 2), comm_will_return(0), table(2, 3), ROBOT, paper_cfg, 0)
    assert r == pytest.approx(-(1.4**2), abs=1e-9)


def test_serve_reward_strictly_decreasing_in_next_satisfaction(paper_cfg):
    values = [
        reward(table(0), serve(0), table(s), ROBOT, paper_cfg, 0) for s in range(6)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_penalty_magnitude_monotone_in_wait_and_severity(paper_cfg):
    cap = paper_cfg.reward.time_cap
    for sat in (0, 1, 2):
        mags = [
            -reward(table(sat, t), NOOP, table(sat, t + 1), ROBOT, paper_cfg, 0)
            for t in range(15)
        ]
        assert all(b >= a for a, b in zip(mags, mags[1:]))
        assert mags[cap] == mags[cap + 1] == mags[-1]  # capped
    for t in (1, 5, 10):
        by_severity = [
            -reward(table(s, t), NOOP, table(s, t + 1), ROBOT, paper_cfg, 0)
            for s in (2, 1, 0)
        ]
        assert by_severity[0] < by_severity[1] < by_severity[2]


# --- expected reward ------------------------------------------------------------


def one_table_cfg(robot=(2, 2)) -> RestaurantConfig:
    return RestaurantConfig(
        n_tables=1,
        table_positions=((2, 2),),
        robot_start=robot,
        grid_width=5,
        grid_height=5,
        sat_max=5,
        time_max=15,
    )


def belief_at(cfg, vec, obs=None) -> Belief:
    base = belief_init(cfg)
    obs = obs if obs is not None else base.observables[0]
    return Belief(robot=base.robot, observables=(obs,), satisfaction=(tuple(vec),))


def test_expected_reward_point_mass_equals_reward(paper_cfg):
    cfg = one_table_cfg()
    b = belief_at(cfg, (0, 0, 0, 0, 0, 1.0))
    ((out, _),) = [(o, p) for o, p in [(tick_table(fresh_table(5), cfg), 1.0)]]
    got = expected_reward(b, NOOP, cfg)
    want = reward(fresh_table(5), NOOP, out, b.robot, cfg, 0)
    assert got == pytest.approx(want, abs=1e-12)


def test_expected_reward_serve_at_neutral_is_twelve():
    cfg = one_table_cfg()
    b = belief_at(cfg, (0, 0, 0, 1.0, 0, 0))
    # 0.6 * 5*(5-4+1) + 0.4 * 5*(5-3+1) = 0.6*10 + 0.4*15 = 12
    assert expected_reward(b, serve(0), cfg) == pytest.approx(12.0, abs=1e-9)


def test_expected_reward_all_done_is_zero():
    cfg = one_table_cfg()
    done = TableState(0, 3, 3, 2, 8, 0, 0, 0, 0)
    b = Belief(
        robot=RobotState(2, 2),
        observables=(observe(done),),
        satisfaction=((1.0, 0, 0, 0, 0, 0),),
    )
    assert expected_reward(b, NOOP, cfg) == 0.0


def test_expected_reward_rejects_illegal_action():
    cfg = one_table_cfg(robot=(0, 0))
    obs = dataclasses.replace(observe(fresh_table(0)), current_request=3)
    b = belief_at(cfg, (0, 0, 0, 0, 0, 1.0), obs)
    with pytest.raises(IllegalActionError):
        expected_reward(b, serve(0), cfg)  # not co-located, food not cooked


def brute_force_expected_reward(b: Belief, action, cfg) -> float:
    """Independent accrual oracle built from tick_table and reward only."""
    from restaurant_pomdp.dynamics import apply_serve

    duration = action_duration(b.robot, action, cfg)
    total = 0.0
    for i, (obs, vec) in enumerate(zip(b.observables, b.satisfaction)):
        if obs.hand_raise == 0:
            continue
        for sat, p in enumerate(vec):
            if p == 0:
                continue
            ts = TableState(
                sat, obs.food, obs.water, obs.cooking_status, obs.current_request,
                obs.hand_raise, obs.t_since_served, obs.t_since_food_ready,
                obs.t_since_request,
            )
            if action.table == i and action.kind.value == "serve":
                for out, q in apply_serve(ts, cfg):
                    total += p * q * cfg.reward.serve_scale * (
                        cfg.sat_max - out.satisfaction + 1
                    )
            elif action.table == i and action.kind.value == "go_to":
                dist = abs(b.robot.x - cfg.table_positions[i][0]) + abs(
                    b.robot.y - cfg.table_positions[i][1]
                )
                total += p * (-dist / cfg.reward.nav_divisor)
            else:
                state = ts
                for k in range(duration):
                    nxt = tick_table(state, cfg)
                    total += (
                        p
                        * cfg.gamma**k
                        * reward(state, action, nxt, b.robot, cfg, i)
                    )
                    state = nxt
    return total


def test_expected_reward_matches_brute_force_on_small_instance(small_cfg):
    """Every (belief, action) pair on a grid of observable states and vectors."""
    vectors = [
        (1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0),
        (0.25, 0.5, 0.25),
        (1 / 3, 1 / 3, 1 / 3),
    ]
    base = belief_init(small_cfg)
    observables = [base.observables[0]]
    state = fresh_table(small_cfg.sat_max)
    for _ in range(4):
        state = tick_table(state, small_cfg)
        observables.append(observe(state))
    observables.append(
        dataclasses.replace(base.observables[0], current_request=3, cooking_status=1)
    )
    observables.append(
        dataclasses.replace(base.observables[0], current_request=4, t_since_request=2)
    )
    checked = 0
    for obs in observables:
        for vec in vectors:
            b = Belief(robot=base.robot, observables=(obs,), satisfaction=(vec,))
            for action in sorted_legal_actions(b, small_cfg):
                got = expected_reward(b, action, small_cfg)
                want = brute_force_expected_reward(b, action, small_cfg)
                assert got == pytest.approx(want, abs=1e-9), (obs, vec, action)
                checked += 1
    assert checked > 50


def test_joint_reward_is_sum_of_per_table_rewards(two_cfg):
    import numpy as np

    from restaurant_pomdp.joint import step_joint
    from restaurant_pomdp.model import (
        action_sort_key,
        all_done,
        initial_joint_state,
        legal_actions,
    )

    rng = np.random.default_rng(8)
    js = initial_joint_state(two_cfg, rng)
    for _ in range(200):
        if all_done(js):
            break
        acts = sorted(legal_actions(js, two_cfg), key=action_sort_key)
        res = step_joint(js, acts[int(rng.integers(len(acts)))], two_cfg, rng)
        assert res.reward == pytest.approx(math.fsum(res.table_rewards), abs=1e-12)
        js = res.next


@pytest.mark.parametrize(
    "scenario,episodes", [("two-tables", 20), ("paper-3tables", 10)]
)
def test_expected_reward_matches_joint_enumeration_on_many_tables(scenario, episodes):
    """The kernel's sum against the joint enumeration along seeded episodes.

    ``verify`` covers one table only (its reachable-state check stops at the
    cap on these scenarios), so the multi-table agreement is pinned here. The
    two sums differ only in order; the worst relative gap measured is 1.8e-15.
    """
    assert REL_TOLERANCE == 1e-12
    result = check_expected_reward_vs_enumeration(SCENARIOS[scenario](), episodes, seed=31)
    assert result.passed, result.detail
