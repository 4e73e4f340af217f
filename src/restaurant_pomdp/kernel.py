"""Per-config table edge cache: one table's dynamics and rewards, filled lazily.

The tables are independent processes that share only the robot, so what
one action does to one table depends only on the table's observable state
and on an *event*:

* ``("s", duration)``: the table is the serve target;
* ``("g", duration, distance)``: the table is the go_to target and the robot
  travels ``distance`` Manhattan steps to reach it;
* ``("t", duration)``: anything else (no-op, communication, or an action
  aimed at another table).

An edge holds the next observation and, for each satisfaction level, the
rows ``((next_sat, prob, accrued_reward), ...)`` of
:func:`.rewards.table_transition_outcomes`. That function stays the only
definition of the model: an edge is filled on first use by calling it once
per satisfaction level, in the same row order, so everything computed from
an edge is bit-identical to computing it from the model directly. The
expected reward, the filter, the simulator and every planner (greedy, UCT
and expectimax) read the same edges; the oracles in :mod:`.checks`,
``checks.expected_reward_by_enumeration`` among them, and
``joint.enumerate_joint_transitions`` do not.

Tables are keyed by config value: ``validate_config`` returns a fresh but
equal config on every call, and equal configs share one table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import RestaurantConfig
from .model import (
    Action,
    ActionKind,
    JointState,
    ModelInvariantError,
    Observation,
    RobotState,
    action_sort_key,
    legal_actions,
    manhattan,
    observe,
    table_from_observation,
)

# Configs whose tables are kept; the oldest is dropped beyond this.
KERNEL_LIMIT = 32
# Memoized legal sets per table; the memo is emptied when it reaches this.
LEGAL_MEMO_LIMIT = 1 << 16


@dataclass(frozen=True, slots=True)
class TableEdge:
    """One table over one action: next observation and per-satisfaction rows.

    ``rows[sat]`` is ``((next_sat, prob, accrued_reward), ...)`` and
    ``expected[sat]`` is ``sum(prob * accrued_reward)`` over those rows.
    """

    next_obs: Observation
    rows: tuple[tuple[tuple[int, float, float], ...], ...]
    expected: tuple[float, ...]


class TableKernel:
    """Edges and legal sets of one config, each computed on first use."""

    __slots__ = ("cfg", "edges", "legal_sets")

    def __init__(self, cfg: RestaurantConfig) -> None:
        self.cfg = cfg
        self.edges: dict[tuple[Observation, tuple], TableEdge] = {}
        self.legal_sets: dict[tuple[RobotState, tuple[Observation, ...]], tuple[Action, ...]] = {}

    def edge(
        self,
        obs: Observation,
        action: Action,
        duration: int,
        robot: RobotState,
        index: int,
    ) -> TableEdge:
        """The edge of table ``index`` in state ``obs`` under ``action``.

        ``robot`` is the robot before the action and ``duration`` the
        action's duration, as for :func:`.rewards.table_transition_outcomes`.
        """
        if action.table == index and action.kind is ActionKind.SERVE:
            event: tuple = ("s", duration)
        elif action.table == index and action.kind is ActionKind.GO_TO:
            distance = manhattan(robot.pos(), self.cfg.table_positions[index])
            event = ("g", duration, distance)
        else:
            event = ("t", duration)
        key = (obs, event)
        edge = self.edges.get(key)
        if edge is None:
            edge = self._fill(obs, event, action, duration, robot, index)
            self.edges[key] = edge
        return edge

    def _fill(self, obs, event, action, duration, robot, index) -> TableEdge:
        # rewards.expected_reward reads this cache, so rewards is imported
        # on first fill rather than at module level.
        from .rewards import table_transition_outcomes

        next_obs: Observation | None = None
        rows = []
        for sat in range(self.cfg.sat_max + 1):
            outcomes = table_transition_outcomes(
                table_from_observation(obs, sat), action, duration, robot, self.cfg, index
            )
            if event[0] != "s" and len(outcomes) != 1:
                raise ModelInvariantError(
                    f"event {event} from {obs} has {len(outcomes)} outcomes, expected one"
                )
            for ns, _, _ in outcomes:
                o = observe(ns)
                if next_obs is None:
                    next_obs = o
                elif o != next_obs:
                    raise ModelInvariantError(
                        f"event {event} from {obs}: next observation depends on "
                        f"satisfaction ({o} vs {next_obs})"
                    )
            rows.append(tuple((ns.satisfaction, p, r) for ns, p, r in outcomes))
        expected = tuple(sum(q * r for _, q, r in sat_rows) for sat_rows in rows)
        return TableEdge(next_obs, tuple(rows), expected)

    def legal(
        self, robot: RobotState, observables: tuple[Observation, ...]
    ) -> tuple[Action, ...]:
        """:func:`sorted_legal`, memoized on ``(robot, observables)``."""
        key = (robot, observables)
        acts = self.legal_sets.get(key)
        if acts is None:
            if len(self.legal_sets) >= LEGAL_MEMO_LIMIT:
                self.legal_sets.clear()
            acts = self.legal_sets[key] = sorted_legal(robot, observables, self.cfg)
        return acts


def sorted_legal(
    robot: RobotState, observables: tuple[Observation, ...], cfg: RestaurantConfig
) -> tuple[Action, ...]:
    """Legal actions in the fixed tie-breaking order (see :mod:`.model`).

    Legality never depends on satisfaction, so the observables suffice.
    """
    tables = tuple(table_from_observation(o, 0) for o in observables)
    js = JointState(robot=robot, tables=tables, clock=0)
    return tuple(sorted(legal_actions(js, cfg), key=action_sort_key))


_kernels: dict[RestaurantConfig, TableKernel] = {}
# Shortcut from a config object to its table, so that a caller holding the
# same object does not hash the config again. Each entry keeps its config
# alive, so an id is never reused while it is here.
_by_id: dict[int, tuple[RestaurantConfig, TableKernel]] = {}


def table_kernel(cfg: RestaurantConfig) -> TableKernel:
    """The edge table of ``cfg`` (a validated config), shared by equal configs."""
    hit = _by_id.get(id(cfg))
    if hit is not None and hit[0] is cfg:
        return hit[1]
    kernel = _kernels.get(cfg)
    if kernel is None:
        if len(_kernels) >= KERNEL_LIMIT:
            del _kernels[next(iter(_kernels))]
        kernel = _kernels[cfg] = TableKernel(cfg)
    if len(_by_id) >= KERNEL_LIMIT:
        _by_id.clear()
    _by_id[id(cfg)] = (cfg, kernel)
    return kernel
