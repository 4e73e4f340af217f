"""Per-config store of the model: table edges and the joint-state graph.

The tables are independent processes that share only the robot, so what
one action does to one table depends only on the table's observable state
and on an *event*:

* ``("s", duration)``: the table is the serve target;
* ``("g", duration, distance)``: the table is the go_to target and the robot
  travels ``distance`` Manhattan steps to reach it;
* ``("t", duration)``: anything else (no-op, communication, or an action
  aimed at another table).

A table edge holds the next observation and, for each satisfaction level,
the rows ``((next_sat, prob, accrued_reward), ...)`` of
:func:`.rewards.table_transition_outcomes`. That function stays the only
definition of the model: an edge is filled on first use by calling it once
per satisfaction level, in the same row order, so everything computed from
an edge is bit-identical to computing it from the model directly.

Table edges compose into one graph of observable joint states. A
:class:`JointNode` is keyed by ``(robot, observables)`` and holds its sorted
legal actions and, per action, a joint edge ``(duration, next, outcomes,
tables)``: the next node, the tables' edges in table order and their
outcomes over joint satisfaction codes (see :meth:`TableKernel.joint_edge`),
each filled on first use. The expected reward, the filter and the
simulator, called one step at a time (``rewards.expected_reward``,
``belief.belief_predict``, ``joint.step_joint``), do one node lookup plus
one edge read with :meth:`TableKernel.step`. The episode loop of ``harness.run_episode`` and the
planners (greedy, UCT and expectimax) look up their start node once and
follow edges by pointer from there with :meth:`TableKernel.follow` or the
node's ``edges``; expectimax's last ply reads the edges the way greedy
does, for the expected reward only. The oracles in :mod:`.checks`,
``checks.expected_reward_by_enumeration`` among them, and
``joint.enumerate_joint_transitions`` do not read the store.

Stores are keyed by config value, so equal configs share one store; a
config object seen before is found by its id, as ``validate_config`` returns
a valid config unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import RestaurantConfig
from .dynamics import action_duration, next_robot
from .model import (
    Action,
    ActionKind,
    IllegalActionError,
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

# Configs whose stores are kept; the oldest is dropped beyond this.
KERNEL_LIMIT = 32
# Joint nodes per config; the node store is emptied when it reaches this.
NODE_LIMIT = 1 << 16


@dataclass(frozen=True, slots=True)
class TableEdge:
    """One table over one action: next observation and per-satisfaction rows.

    ``rows[sat]`` is ``((next_sat, prob, accrued_reward), ...)`` and
    ``expected[sat]`` is ``sum(prob * accrued_reward)`` over those rows.
    """

    next_obs: Observation
    rows: tuple[tuple[tuple[int, float, float], ...], ...]
    expected: tuple[float, ...]


class JointNode:
    """One observable joint state, shared by every reader of a config.

    ``actions`` (the legal set in the fixed tie-breaking order of
    :mod:`.model`) and ``edges`` are ``None`` until :meth:`TableKernel.actions`
    fills them, as many nodes are only ever reached, never left;
    ``edges[i]``, the joint edge of ``actions[i]``, is ``None`` until
    :meth:`TableKernel.joint_edge` builds it.
    """

    __slots__ = ("robot", "observables", "done", "actions", "edges")

    def __init__(self, robot: RobotState, observables: tuple[Observation, ...]) -> None:
        self.robot = robot
        self.observables = observables
        self.done = all(o.hand_raise == 0 for o in observables)
        self.actions: tuple[Action, ...] | None = None
        self.edges: list | None = None


# Joint satisfaction vectors are encoded little-endian into one integer; an
# edge's outcome table over these codes is filled on first use of each code.


class _LazyTable(dict):
    """One joint edge's outcome per joint satisfaction code, filled on demand.

    It is the joint edge's ``outcomes`` field, and ``j`` is the edge's serve
    target, ``None`` unless the action serves a table. With no serve target
    the outcome is ``(next_code, reward)``: every table then has one row per
    satisfaction level, as :meth:`TableKernel._fill` rejects a second outcome
    on any event but a serve. With one, the outcome
    is the sampling rows ``(cum, next_code, reward)``: the other tables' rows
    folded around the target's, whose probabilities become cumulative
    thresholds, the last forced to infinity so a uniform draw always selects
    a row.
    """

    __slots__ = ("edges", "k", "j")

    def __init__(self, edges: tuple[TableEdge, ...], k: int, j: int | None) -> None:
        super().__init__()
        self.edges = edges
        self.k = k
        self.j = j

    def __missing__(self, code: int):
        k = self.k
        next_code = 0
        reward = 0.0
        mult = 1
        c = code
        for i, e in enumerate(self.edges):
            c, s = c // k, c % k
            if i == self.j:
                j_mult, j_rows = mult, e.rows[s]
            else:
                s_next, _, r = e.rows[s][0]
                next_code += s_next * mult
                reward += r
            mult *= k
        if self.j is None:
            out = self[code] = (next_code, reward)
            return out
        rows = []
        acc = 0.0
        for s_next, p, r in j_rows:
            acc += p
            rows.append((acc, next_code + s_next * j_mult, reward + r))
        rows[-1] = (math.inf, *rows[-1][1:])
        out = self[code] = tuple(rows)
        return out


class TableKernel:
    """Table edges and joint nodes of one config, each computed on first use."""

    __slots__ = ("cfg", "edges", "nodes")

    def __init__(self, cfg: RestaurantConfig) -> None:
        self.cfg = cfg
        self.edges: dict[tuple[Observation, tuple], TableEdge] = {}
        self.nodes: dict[tuple[RobotState, tuple[Observation, ...]], JointNode] = {}

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

    def node(self, robot: RobotState, observables: tuple[Observation, ...]) -> JointNode:
        """The joint node of ``(robot, observables)``, created on first use."""
        key = (robot, observables)
        node = self.nodes.get(key)
        if node is None:
            if len(self.nodes) >= NODE_LIMIT:
                self.nodes.clear()
            node = self.nodes[key] = JointNode(robot, observables)
        return node

    def actions(self, node: JointNode) -> tuple[Action, ...]:
        """The node's legal actions, filled on first use."""
        if node.actions is None:
            # Legality never depends on satisfaction, so the observables suffice.
            tables = tuple(table_from_observation(o, 0) for o in node.observables)
            legal = legal_actions(JointState(robot=node.robot, tables=tables, clock=0), self.cfg)
            node.actions = tuple(sorted(legal, key=action_sort_key))
            node.edges = [None] * len(node.actions)
        return node.actions

    def joint_edge(self, node: JointNode, idx: int) -> tuple:
        """The joint edge of the node's ``idx``-th action, built on first use.

        The node's actions must have been filled.

        The edge is ``(duration, next, outcomes, tables)``: ``next`` is the
        next node, ``tables`` the tables' edges in table order and
        ``outcomes`` their :class:`_LazyTable` over satisfaction codes, whose
        ``j`` is the serve target (``None`` on a deterministic edge).
        """
        action = node.actions[idx]
        robot = node.robot
        duration = action_duration(robot, action, self.cfg)
        tables = tuple(
            self.edge(obs, action, duration, robot, i)
            for i, obs in enumerate(node.observables)
        )
        nxt = self.node(
            next_robot(robot, action, self.cfg), tuple(e.next_obs for e in tables)
        )
        j = action.table if action.kind is ActionKind.SERVE else None
        edge = (duration, nxt, _LazyTable(tables, self.cfg.sat_max + 1, j), tables)
        node.edges[idx] = edge
        return edge

    def follow(self, node: JointNode, action: Action) -> tuple:
        """The joint edge of ``action`` from ``node``, built on first use.

        Raises :class:`.model.IllegalActionError` if the action is not legal.
        """
        try:
            idx = (node.actions or self.actions(node)).index(action)
        except ValueError:
            raise IllegalActionError(f"{action} is not legal in this state") from None
        return node.edges[idx] or self.joint_edge(node, idx)

    def step(
        self, robot: RobotState, observables: tuple[Observation, ...], action: Action
    ) -> tuple:
        """The joint edge of ``action`` from ``(robot, observables)``.

        One node lookup, then :meth:`follow`.
        """
        return self.follow(self.node(robot, observables), action)


_kernels: dict[RestaurantConfig, TableKernel] = {}
# Shortcut from a config object to its store, so that a caller holding the
# same object does not hash the config again. Each entry keeps its config
# alive, so an id is never reused while it is here.
_by_id: dict[int, tuple[RestaurantConfig, TableKernel]] = {}


def table_kernel(cfg: RestaurantConfig) -> TableKernel:
    """The store of ``cfg`` (a validated config), shared by equal configs."""
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
