"""The kernel's table edges and joint nodes against the model they come from.

Every cached edge must equal :func:`table_transition_outcomes` exactly
(``==``, not approximately), because greedy breaks exact ties between
actions and traces must stay byte-identical. Every joint edge must be
composed of those very table edges.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restaurant_pomdp import kernel as kernel_module, rewards
from restaurant_pomdp.checks import reachable_joint_states
from restaurant_pomdp.config import RewardParams
from restaurant_pomdp.belief import belief_init, belief_predict
from restaurant_pomdp.dynamics import action_duration, next_robot
from restaurant_pomdp.harness import replay_actions, run_episode
from restaurant_pomdp.joint import step_joint
from restaurant_pomdp.kernel import KERNEL_LIMIT, JointEdge, table_kernel
from restaurant_pomdp.model import (
    NOOP,
    ActionKind,
    IllegalActionError,
    JointState,
    ModelInvariantError,
    RobotState,
    action_sort_key,
    fresh_table,
    go_to,
    initial_joint_state,
    legal_actions,
    observe,
    serve,
    table_from_observation,
)
from restaurant_pomdp.planners import PolicySpec, make_policy
from restaurant_pomdp.rewards import expected_reward, table_transition_outcomes

from .strategies import random_walk_states, small_configs


def assert_edges_match_model(cfg, js: JointState, action) -> int:
    """Compare the edge of every table, at every satisfaction level."""
    kernel = table_kernel(cfg)
    duration = action_duration(js.robot, action, cfg)
    for i, ts in enumerate(js.tables):
        obs = observe(ts)
        edge = kernel.edge(obs, action, duration, js.robot, i)
        assert len(edge.rows) == cfg.sat_max + 1
        for sat in range(cfg.sat_max + 1):
            ref = table_transition_outcomes(
                table_from_observation(obs, sat), action, duration, js.robot, cfg, i
            )
            assert edge.rows[sat] == tuple((ns.satisfaction, p, r) for ns, p, r in ref)
            assert edge.expected[sat] == sum(q * r for _, q, r in ref)
            assert all(observe(ns) == edge.next_obs for ns, _, _ in ref)
    return len(js.tables)


def assert_all_legal_edges_match(cfg, states) -> int:
    checked = 0
    for js in states:
        for action in sorted(legal_actions(js, cfg), key=action_sort_key):
            checked += assert_edges_match_model(cfg, js, action)
    return checked


def test_every_reachable_edge_of_small_1table(small_cfg):
    states = reachable_joint_states(small_cfg)
    assert assert_all_legal_edges_match(small_cfg, states) > 100


@pytest.mark.parametrize("scenario", ["two-tables", "paper-3tables"])
@pytest.mark.parametrize("policy", ["random", "greedy"])
def test_edges_along_seeded_episodes(scenario, policy, request):
    cfg = request.getfixturevalue({"two-tables": "two_cfg", "paper-3tables": "paper_cfg"}[scenario])
    for seed in range(3):
        trace = run_episode(PolicySpec(policy), cfg, seed)
        visited = replay_actions(cfg, seed, [s.action for s in trace.steps])
        for js, step in zip(visited, trace.steps):
            assert_edges_match_model(cfg, js, step.action)
        assert_all_legal_edges_match(cfg, visited[:: max(1, len(visited) // 5)])


@settings(max_examples=25, deadline=None)
@given(cfg=small_configs(), seed=st.integers(0, 2**16))
def test_edges_match_model_on_small_configs(cfg, seed):
    states = random_walk_states(cfg, 12, seed)
    assert assert_all_legal_edges_match(cfg, states) > 0


def assert_joint_edges_compose_table_edges(cfg, states) -> int:
    """Each legal action's joint edge: its duration, next robot, serve target,
    table edges and its outcome at every joint satisfaction code. Two slots of
    one node hold one object exactly when all of those but the codes agree."""
    kernel = table_kernel(cfg)
    k = cfg.sat_max + 1
    checked = 0
    for js in states:
        observables = tuple(observe(ts) for ts in js.tables)
        node = kernel.node(js.robot, observables)
        assert kernel.actions(node) == tuple(sorted(legal_actions(js, cfg), key=action_sort_key))
        for action in node.actions:
            edge = kernel.step(js.robot, observables, action)
            assert isinstance(edge, JointEdge)
            assert edge.serve == (action.table if action.kind is ActionKind.SERVE else None)
            assert edge.duration == action_duration(js.robot, action, cfg)
            assert edge.next.robot == next_robot(js.robot, action, cfg)
            assert edge.next.observables == tuple(e.next_obs for e in edge.tables)
            for i, obs in enumerate(observables):
                assert edge.tables[i] is kernel.edge(obs, action, edge.duration, js.robot, i)
            for levels in itertools.product(range(k), repeat=len(observables)):
                assert_code_outcome(edge, levels, k)
            checked += 1
        for a, b in itertools.combinations(node.edges, 2):
            same_move = (
                a.duration == b.duration
                and (a.next.robot, a.next.observables) == (b.next.robot, b.next.observables)
                and all(x is y for x, y in zip(a.tables, b.tables))
                and a.serve == b.serve
            )
            assert (a is b) == same_move
    return checked


def encode(levels, k) -> int:
    return sum(s * k**i for i, s in enumerate(levels))


def assert_code_outcome(edge, levels, k) -> None:
    """``edge[code]`` against the tables' rows at the code's levels."""
    outcome = edge[encode(levels, k)]
    if edge.serve is None:
        # A deterministic edge draws nothing, so it needs no generator.
        sats, rewards = edge.sample(levels, None)
        next_code, reward = outcome
        assert next_code == encode(sats, k)
        assert reward.hex() == sum(rewards).hex()
        return
    j = edge.serve
    rows = edge.tables[j].rows[levels[j]]
    assert len(outcome) == len(rows)
    acc = 0.0
    for (cum, _, _), (_, p, _) in zip(outcome[:-1], rows):
        acc += p
        assert cum == acc
    assert outcome[-1][0] == math.inf


@settings(max_examples=25, deadline=None)
@given(cfg=small_configs(), seed=st.integers(0, 2**16))
def test_joint_edges_compose_table_edges_on_small_configs(cfg, seed):
    states = random_walk_states(cfg, 12, seed)
    assert assert_joint_edges_compose_table_edges(cfg, states) > 0


@pytest.mark.parametrize("scenario", ["two-tables", "paper-3tables"])
def test_joint_edges_compose_table_edges_on_seeded_states(scenario, request):
    cfg = request.getfixturevalue({"two-tables": "two_cfg", "paper-3tables": "paper_cfg"}[scenario])
    states = random_walk_states(cfg, 150, seed=41)
    assert assert_joint_edges_compose_table_edges(cfg, states) > 150


def test_every_joint_step_rejects_an_illegal_action(two_cfg):
    js = initial_joint_state(two_cfg, np.random.default_rng(0))
    b = belief_init(two_cfg)
    assert js.robot == b.robot and serve(0) not in legal_actions(js, two_cfg)
    with pytest.raises(IllegalActionError):
        expected_reward(b, serve(0), two_cfg)
    with pytest.raises(IllegalActionError):
        belief_predict(b, serve(0), two_cfg)
    with pytest.raises(IllegalActionError):
        step_joint(js, serve(0), two_cfg, np.random.default_rng(0))
    kernel = table_kernel(two_cfg)
    with pytest.raises(IllegalActionError):
        kernel.follow(kernel.node(b.robot, b.observables), serve(0))


def test_a_slot_is_filled_only_when_asked_for(two_cfg):
    """No-op and the communications share one edge object, but each slot
    stays empty until it is asked for; a go_to has its own edge."""
    cfg = dataclasses.replace(two_cfg, horizon=41)  # a config no other test uses
    kernel = table_kernel(cfg)
    b = belief_init(cfg)
    node = kernel.node(b.robot, b.observables)
    acts = kernel.actions(node)
    assert node.edges == [None] * len(acts)
    stays = [i for i, a in enumerate(acts) if a.kind in (ActionKind.NO_OP, ActionKind.COMM_WILL_RETURN)]
    assert len(stays) == 3
    first = kernel.follow(node, acts[stays[0]])
    assert [e is not None for e in node.edges] == [i == stays[0] for i in range(len(acts))]
    assert all(kernel.follow(node, acts[i]) is first for i in stays)
    assert kernel.follow(node, go_to(0)) is not first
    assert sum(e is not None for e in node.edges) == 4


def test_an_evicted_store_is_not_served_again(two_cfg, monkeypatch):
    """Equal configs share one live store even after the id shortcut was
    emptied and refilled around an eviction."""
    monkeypatch.setattr(kernel_module, "_kernels", {})
    monkeypatch.setattr(kernel_module, "_by_id", {})
    cfgs = [dataclasses.replace(two_cfg, horizon=100 + i) for i in range(KERNEL_LIMIT + 1)]
    for cfg in cfgs[: KERNEL_LIMIT - 1]:
        table_kernel(cfg)
    table_kernel(dataclasses.replace(cfgs[0]))
    table_kernel(cfgs[KERNEL_LIMIT - 1])  # the id shortcut is full: it is emptied
    table_kernel(cfgs[0])
    table_kernel(cfgs[KERNEL_LIMIT])  # evicts config 0's store
    assert table_kernel(cfgs[0]) is table_kernel(dataclasses.replace(cfgs[0]))
    assert len(kernel_module._kernels) == KERNEL_LIMIT
    live = [id(k) for k in kernel_module._kernels.values()]
    assert all(id(k) in live for _, k in kernel_module._by_id.values())


def test_follow_is_step_without_the_lookup(two_cfg):
    """Each edge is built once, even while its code table is empty (and so false)."""
    cfg = dataclasses.replace(two_cfg, horizon=31)  # a config no other test uses
    kernel = table_kernel(cfg)
    b = belief_init(cfg)
    node = kernel.node(b.robot, b.observables)
    for action in kernel.actions(node):
        edge = kernel.follow(node, action)
        assert not edge
        assert edge is kernel.step(b.robot, b.observables, action)


@pytest.mark.parametrize(
    "change",
    [
        {"gamma": 0.5},
        {"reward": RewardParams(penalty_bases=(3.0, 1.7, 1.4))},
    ],
    ids=["gamma", "penalty_bases"],
)
def test_configs_differing_in_one_parameter_share_no_entries(two_cfg, change):
    other = dataclasses.replace(two_cfg, **change)
    assert other != two_cfg
    assert table_kernel(other) is not table_kernel(two_cfg)
    # A long go_to accrues discounted waiting penalties on the other table.
    waiting = dataclasses.replace(fresh_table(0), t_since_request=3)
    js = JointState(robot=RobotState(0, 0), tables=(waiting, fresh_table(5)), clock=0)
    action = go_to(1)
    duration = action_duration(js.robot, action, two_cfg)
    assert duration > 1
    for cfg in (two_cfg, other):
        assert_edges_match_model(cfg, js, action)
    a = table_kernel(two_cfg).edge(observe(waiting), action, duration, js.robot, 0)
    b = table_kernel(other).edge(observe(waiting), action, duration, js.robot, 0)
    assert a is not b
    assert a.expected != b.expected


def test_equal_configs_share_one_table(two_cfg):
    copy = dataclasses.replace(two_cfg)
    assert copy is not two_cfg
    assert table_kernel(copy) is table_kernel(two_cfg)


def test_make_policy_fills_nothing(two_cfg):
    cfg = dataclasses.replace(two_cfg, horizon=17)  # a config no other test uses
    for kind in ("random", "fcfs", "greedy", "mcts", "expectimax"):
        make_policy(PolicySpec(kind), cfg)
    kernel = table_kernel(cfg)
    assert not kernel.edges and not kernel.nodes and not kernel.menus and not kernel.items


def test_fill_rejects_an_observation_that_depends_on_satisfaction(two_cfg, monkeypatch):
    cfg = dataclasses.replace(two_cfg, horizon=19)  # a config no other test uses
    real = rewards.table_transition_outcomes

    def leaky(ts, *args):
        return tuple(
            (dataclasses.replace(ns, t_since_served=ts.satisfaction), p, r)
            for ns, p, r in real(ts, *args)
        )

    monkeypatch.setattr(rewards, "table_transition_outcomes", leaky)
    obs = observe(fresh_table(0))
    with pytest.raises(ModelInvariantError, match="depends on satisfaction"):
        table_kernel(cfg).edge(obs, NOOP, 1, RobotState(*cfg.robot_start), 0)


def test_fill_rejects_a_second_outcome_on_a_deterministic_event(two_cfg, monkeypatch):
    cfg = dataclasses.replace(two_cfg, horizon=18)  # a config no other test uses
    real = rewards.table_transition_outcomes

    def split(ts, *args):
        ((ns, p, r),) = real(ts, *args)
        return ((ns, p / 2, r), (ns, p / 2, r))

    monkeypatch.setattr(rewards, "table_transition_outcomes", split)
    obs = observe(fresh_table(0))
    with pytest.raises(ModelInvariantError, match="expected one"):
        table_kernel(cfg).edge(obs, NOOP, 1, RobotState(*cfg.robot_start), 0)
