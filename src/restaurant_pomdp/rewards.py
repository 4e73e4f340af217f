"""Reward function on table transitions, and its expectation under a belief.

Per table and per transition (s, a, s'):

* serving the table pays ``serve_scale * (sat_max - sat' + 1)``, so the less
  satisfied the table ends up, the more urgent serving it was;
* navigating to the table costs Manhattan distance (from the pre-move robot
  position) divided by ``nav_divisor``;
* any other case (communication, no-op, or an action aimed elsewhere) is a
  waiting term: an exponential penalty ``-base^min(wait, time_cap)`` keyed on
  the next satisfaction level while it is low, a small bonus when satisfaction
  improved into the comfortable range, and zero otherwise;
* departed tables contribute nothing.

The joint reward of an action is the sum of per-table terms. A durative
action accrues the waiting terms of unattended tables once per elapsed step,
each discounted at its own step inside the action.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .config import RestaurantConfig
from .dynamics import tick_table, transition_distribution
from .kernel import TableEdge, table_kernel
from .model import (
    Action,
    ActionKind,
    Observation,
    RobotState,
    TableState,
    manhattan,
)

if TYPE_CHECKING:
    from .belief import Belief


def reward(
    ts: TableState,
    action: Action,
    ts_next: TableState,
    robot: RobotState,
    cfg: RestaurantConfig,
    table_index: int,
) -> float:
    """Reward this table contributes on one transition under ``action``.

    Pure formula evaluation on the given (s, a, s') triple; feasibility of the
    pair is the caller's responsibility.
    """
    if ts.done:
        return 0.0
    params = cfg.reward
    targeted = action.table == table_index
    if targeted and action.kind is ActionKind.SERVE:
        return params.serve_scale * (cfg.sat_max - ts_next.satisfaction + 1)
    if targeted and action.kind is ActionKind.GO_TO:
        dist = manhattan(robot.pos(), cfg.table_positions[table_index])
        return -dist / params.nav_divisor
    wait = min(ts.t_since_request, params.time_cap)
    sat_next = ts_next.satisfaction
    if sat_next < len(params.penalty_bases):
        return -(params.penalty_bases[sat_next] ** wait)
    if sat_next > ts.satisfaction:
        return params.improvement_bonus
    return 0.0


def table_transition_outcomes(
    ts: TableState,
    action: Action,
    duration: int,
    robot: RobotState,
    cfg: RestaurantConfig,
    table_index: int,
) -> tuple[tuple[TableState, float, float], ...]:
    """Joint outcomes ``(next_state, probability, accrued_reward)`` for one table.

    The accrued reward covers the whole action: a single serve or navigation
    term for the targeted table, or per-step waiting terms discounted at their
    own step inside the action for everything else.
    """
    if ts.done:
        return ((ts, 1.0, 0.0),)
    targeted = action.table == table_index
    if targeted and action.kind is ActionKind.SERVE:
        dist = transition_distribution(ts, action, duration, cfg, table_index)
        return tuple(
            (ns, p, reward(ts, action, ns, robot, cfg, table_index)) for ns, p in dist
        )
    if targeted and action.kind is ActionKind.GO_TO:
        state = ts
        for _ in range(duration):
            state = tick_table(state, cfg)
        return ((state, 1.0, reward(ts, action, state, robot, cfg, table_index)),)
    total = 0.0
    state = ts
    discount = 1.0
    for _ in range(duration):
        nxt = tick_table(state, cfg)
        total += discount * reward(state, action, nxt, robot, cfg, table_index)
        state = nxt
        discount *= cfg.gamma
    return ((state, 1.0, total),)


def expected_reward(b: Belief, action: Action, cfg: RestaurantConfig) -> float:
    """Expected joint reward of ``action`` under the belief.

    Reads the action's joint edge from :mod:`.kernel`, which raises
    :class:`.model.IllegalActionError` on an illegal action, and sums it with
    :func:`edge_expected_reward`.
    """
    tables = table_kernel(cfg).step(b.robot, b.observables, action)[3]
    return edge_expected_reward(b.observables, b.satisfaction, tables)


def edge_expected_reward(
    observables: tuple[Observation, ...],
    satisfaction: tuple[tuple[float, ...], ...],
    tables: tuple[TableEdge, ...],
) -> float:
    """Expected reward of one joint edge under per-table satisfaction vectors.

    Sums, over tables and satisfaction values, the probability-weighted
    accrued rewards of every transition outcome of the tables' edges
    ``tables`` (a joint edge's last field); departed tables add nothing.
    """
    total = 0.0
    for obs, vec, edge in zip(observables, satisfaction, tables):
        if obs.hand_raise == 0:
            continue
        er = edge.expected
        for sat, p in enumerate(vec):
            if p == 0.0:
                continue
            total += p * er[sat]
    return total
