"""Per-table transition dynamics.

Everything but satisfaction moves deterministically on an integer clock, so a
table's one-step evolution is a plain function; the only stochastic element is
the satisfaction response to being served. Distributions are represented
explicitly as tuples of ``(state, probability)`` pairs to make exhaustive
enumeration (for the belief filter and the test oracles) trivial.

One tick applies, in order, to a table that is not done:

1. If nobody at the table is eating or drinking, the request wait timer goes
   up by one (saturating at ``time_max``); otherwise the served timer goes up
   instead, and food/water progress one level each time the served timer hits
   a multiple of ``time_max // 3``.
2. While an order is out (request stage 3) the kitchen advances: cooking
   status gains a level at each multiple of ``time_max // 3`` of the wait
   timer, and once fully cooked the food-ready timer starts counting.
3. Satisfaction drops by one each time the wait timer crosses a multiple of
   the decay period: ``time_max // (sat_max + 1)`` while waiting for food,
   ``time_max // sat_max`` otherwise (both floored, minimum 1).

A serve advances the request stage, zeroes the wait timer, delivers food or
drinks where relevant, and bumps satisfaction stochastically: +1 with
probability 0.3 from the lowest level, +1 with probability 0.6 from any
intermediate level, and no change at the top.
"""

from __future__ import annotations

import numpy as np

from .config import RestaurantConfig
from .model import (
    Action,
    ActionKind,
    IllegalActionError,
    REQUEST_CLEAN_TABLE,
    REQUEST_READY_TO_ORDER,
    REQUEST_WANT_DRINKS,
    REQUEST_WANT_FOOD,
    RobotState,
    TableState,
    manhattan,
    sample_outcome,
    serve_blocked,
)

# Distribution over next table states: ((state, probability), ...).
TransitionDistribution = tuple[tuple[TableState, float], ...]

SERVE_UP_PROB_LOW = 0.3
SERVE_UP_PROB_MID = 0.6


def navigation_duration(
    robot: RobotState, target: tuple[int, int], cfg: RestaurantConfig
) -> int:
    """Travel time in steps, scaling Manhattan distance onto [1, duration_max_nav]."""
    d_max = (cfg.grid_width - 1) + (cfg.grid_height - 1)
    if d_max <= 0:
        return 1
    dist = manhattan(robot.pos(), target)
    return max(1, -(-cfg.duration_max_nav * dist // d_max))


def action_duration(robot: RobotState, action: Action, cfg: RestaurantConfig) -> int:
    """Time steps an action consumes; only navigation is durative."""
    if action.kind is ActionKind.GO_TO:
        return navigation_duration(robot, cfg.table_positions[action.table], cfg)
    return 1


def next_robot(robot: RobotState, action: Action, cfg: RestaurantConfig) -> RobotState:
    """Robot after an action: a go_to ends at its target, anything else stays."""
    if action.kind is ActionKind.GO_TO:
        return RobotState(*cfg.table_positions[action.table])
    return robot


def meal_divisor(cfg: RestaurantConfig) -> int:
    """Steps between food/water/cooking level changes."""
    return max(1, cfg.time_max // 3)


def decay_divisor(cfg: RestaurantConfig, current_request: int) -> int:
    """Steps between satisfaction drops; faster while waiting for food."""
    if current_request == REQUEST_WANT_FOOD:
        return max(1, cfg.time_max // (cfg.sat_max + 1))
    return max(1, cfg.time_max // cfg.sat_max)


def tick_table(ts: TableState, cfg: RestaurantConfig) -> TableState:
    """One deterministic step of autonomous (unattended) table evolution."""
    if ts.done:
        raise ValueError("cannot tick a departed table")
    tm = cfg.time_max
    food, water = ts.food, ts.water
    cooking = ts.cooking_status
    sat = ts.satisfaction
    t_req = ts.t_since_request
    t_served = ts.t_since_served
    t_ready = ts.t_since_food_ready
    div = meal_divisor(cfg)

    eating = food in (1, 2)
    drinking = water in (1, 2)
    wait_advanced = False
    if eating or drinking:
        nxt = min(t_served + 1, tm)
        if nxt != t_served and nxt % div == 0:
            if eating:
                food = min(food + 1, 3)
            if drinking:
                water = min(water + 1, 3)
        t_served = nxt
    else:
        nxt = min(t_req + 1, tm)
        wait_advanced = nxt != t_req
        t_req = nxt

    if ts.current_request == REQUEST_WANT_FOOD and cooking < 2:
        # The kitchen clock coincides with the wait timer: it starts when the
        # order is taken and the table never eats or drinks at this stage.
        if wait_advanced and t_req % div == 0:
            cooking += 1
    if ts.current_request == REQUEST_WANT_FOOD and cooking == 2:
        t_ready = min(t_ready + 1, tm)

    if wait_advanced and t_req % decay_divisor(cfg, ts.current_request) == 0:
        sat = max(sat - 1, 0)

    return TableState(
        satisfaction=sat,
        food=food,
        water=water,
        cooking_status=cooking,
        current_request=ts.current_request,
        hand_raise=1,
        t_since_served=t_served,
        t_since_food_ready=t_ready,
        t_since_request=t_req,
    )


def apply_serve(ts: TableState, cfg: RestaurantConfig) -> TransitionDistribution:
    """Distribution over outcomes of serving this table's current request."""
    if ts.done:
        raise IllegalActionError("cannot serve a departed table")
    if serve_blocked(ts):
        raise IllegalActionError("cannot serve food before it is fully cooked")
    req = ts.current_request
    food, water, cooking = ts.food, ts.water, ts.cooking_status
    t_served, t_ready = ts.t_since_served, ts.t_since_food_ready
    if req == REQUEST_READY_TO_ORDER:
        cooking = 0
    elif req == REQUEST_WANT_FOOD:
        food, t_served, t_ready = 1, 0, 0
    elif req == REQUEST_WANT_DRINKS:
        water, t_served = 1, 0
    if req == REQUEST_CLEAN_TABLE:
        next_req, hand = req, 0
    else:
        next_req, hand = req + 1, 1

    def outcome(sat: int) -> TableState:
        return TableState(
            satisfaction=sat,
            food=food,
            water=water,
            cooking_status=cooking,
            current_request=next_req,
            hand_raise=hand,
            t_since_served=t_served,
            t_since_food_ready=t_ready,
            t_since_request=0,
        )

    sat = ts.satisfaction
    if sat == cfg.sat_max:
        return ((outcome(sat), 1.0),)
    if sat == 0:
        return ((outcome(1), SERVE_UP_PROB_LOW), (outcome(0), 1.0 - SERVE_UP_PROB_LOW))
    return ((outcome(sat + 1), SERVE_UP_PROB_MID), (outcome(sat), 1.0 - SERVE_UP_PROB_MID))


def transition_distribution(
    ts: TableState,
    action: Action,
    duration: int,
    cfg: RestaurantConfig,
    table_index: int,
) -> TransitionDistribution:
    """Next-state distribution for one table over a whole action execution.

    A serve targeting this table ticks ``duration - 1`` times and then serves
    (the serve itself is the final step). Every other case, including actions
    aimed at other tables, is ``duration`` autonomous ticks. Departed tables
    are absorbing.
    """
    if duration < 1:
        raise ValueError("duration must be >= 1")
    if ts.done:
        return ((ts, 1.0),)
    if action.kind is ActionKind.SERVE and action.table == table_index:
        state = ts
        for _ in range(duration - 1):
            state = tick_table(state, cfg)
        return apply_serve(state, cfg)
    state = ts
    for _ in range(duration):
        state = tick_table(state, cfg)
    return ((state, 1.0),)


def sample_transition(
    ts: TableState,
    action: Action,
    duration: int,
    cfg: RestaurantConfig,
    rng: np.random.Generator,
    table_index: int,
) -> TableState:
    """Draw one next state from :func:`transition_distribution`."""
    dist = transition_distribution(ts, action, duration, cfg, table_index)
    return sample_outcome(dist, rng)[0]
