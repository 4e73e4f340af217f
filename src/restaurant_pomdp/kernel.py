"""Per-config store of the model: table edges and the joint-state graph.

The tables are independent processes that share only the robot, so what
one action does to one table depends only on the table's observable state
and on an *event*:

* ``("s", duration)``: the table is the serve target;
* ``("g", duration, distance)``: the table is the go_to target and the robot
  travels ``distance`` Manhattan steps to reach it;
* ``("t", duration)``: anything else (no-op, communication, or an action
  aimed at another table).

Observations and events are interned to ids, and a table edge, keyed by
``(observation id, event id)``, holds the next observation and, for each
satisfaction level, the rows ``((next_sat, prob, accrued_reward), ...)`` of
:func:`.rewards.table_transition_outcomes`. That function stays the only
definition of the model: an edge is filled on first use by calling it once
per satisfaction level, in the same row order, so everything computed from
an edge is bit-identical to computing it from the model directly.

Table edges compose into one graph of observable joint states. A
:class:`JointNode` is keyed by ``(robot, observables)`` and carries its
observation ids, its menu and, per action, a :class:`JointEdge` slot: the
next node, the tables' edges in table order and their outcomes over joint
satisfaction codes. Legality reads only the robot and which tables are
departed or serve-blocked, so nodes with those alike share one menu: the
sorted legal actions and each action's move (duration, next robot, served
table, per-table event ids). Actions of one node with equal moves, such as
no-op and every communication, share one edge object; a slot is filled when
asked for, from a sibling's edge if one is built, and the menu lists the
first action of each move for the scans of greedy and expectimax. Equal
outcomes over satisfaction codes are one object per store, as few values
recur across edges. The edge's methods are the
expected reward, the filter's propagation and the simulator; called one
step at a time (``rewards.expected_reward``, ``belief.belief_predict``,
``joint.step_joint``), they follow one node lookup with
:meth:`TableKernel.step`. The episode loop of ``harness.run_episode`` and
the planners look up their start node once and follow edges by pointer with
:meth:`TableKernel.follow` or the node's ``edges``.

The expected reward and the propagation take each table's ``(level, p)``
pairs: greedy and expectimax build those of the levels with mass once per
search node (:func:`mass_support`), and expectimax's actions share a
table's propagated vector where their edges share its table edge; a caller
that reads one edge once passes whole vectors (:func:`dense_support`). The
sums have the same terms in the same order either way. The oracles in
:mod:`.checks` and ``joint.enumerate_joint_transitions`` do not read the store.

Stores are keyed by config value, so equal configs share one store; a
config object seen before is found by its id, as a caller keeps passing the
config object it built.
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
    sample_outcome,
    serve_blocked,
    table_from_observation,
)

# Configs whose stores are kept; the oldest is dropped beyond this.
KERNEL_LIMIT = 32
# Joint nodes per config; the node store is emptied when it reaches this.
NODE_LIMIT = 1 << 16


@dataclass(frozen=True, slots=True)
class TableEdge:
    """One table over one action: next observation and per-satisfaction rows.

    ``next_id`` is the next observation's id in the store's id table.
    ``rows[sat]`` is ``((next_sat, prob, accrued_reward), ...)`` and
    ``expected[sat]`` is ``sum(prob * accrued_reward)`` over those rows.
    ``departed`` is true when the table had departed before the action; the
    joint edge's expected reward and prediction skip such a table.
    """

    next_obs: Observation
    next_id: int
    departed: bool
    rows: tuple[tuple[tuple[int, float, float], ...], ...]
    expected: tuple[float, ...]


class JointNode:
    """One observable joint state, shared by every reader of a config.

    ``ids`` are the observations' ids. ``menu`` (see :meth:`TableKernel.actions`),
    ``actions`` (the menu's legal actions, in the fixed tie-breaking order of
    :mod:`.model`) and ``edges`` are ``None`` until :meth:`TableKernel.actions`
    fills them, as many nodes are only ever reached, never left;
    ``edges[i]``, the joint edge of ``actions[i]``, is ``None`` until
    :meth:`TableKernel.joint_edge` builds it or takes a sibling's.
    """

    __slots__ = ("robot", "observables", "ids", "done", "menu", "actions", "edges")

    def __init__(self, robot: RobotState, observables: tuple[Observation, ...], ids: tuple) -> None:
        self.robot = robot
        self.observables = observables
        self.ids = ids
        self.done = all(o.hand_raise == 0 for o in observables)
        self.menu: tuple | None = None
        self.actions: tuple[Action, ...] | None = None
        self.edges: list | None = None


class JointEdge(dict):
    """One action from one joint node, composed of the tables' edges.

    ``duration`` is the action's, ``next`` the next node, ``tables`` the
    tables' edges in table order and ``serve`` the served table or ``None``.
    Its methods are the only readers of the table edges' rows. As a dict it
    maps a joint satisfaction code (levels little-endian) to its outcome,
    filled on first use: ``(next_code, reward)`` with no serve, as
    :meth:`TableKernel._fill` rejects a second row on any event but a serve;
    with one, the sampling rows ``(cum, next_code, reward)``, the other
    tables' rows folded around the served table's, whose probabilities become
    cumulative thresholds, the last forced to infinity so a uniform draw
    always selects a row. A filled outcome is the store's one object equal to
    it, from ``interned``, emptied with the store's nodes. Every sum starts at
    ``+0.0``, so no outcome holds ``-0.0`` and equal outcomes are the same
    bits. An edge with no code filled yet is false, so a node's edge slot is
    tested with ``is None``.
    """

    __slots__ = ("duration", "next", "tables", "serve", "interned")

    def __init__(
        self, duration: int, nxt: JointNode, tables: tuple, serve: int | None, interned: dict
    ) -> None:
        super().__init__()
        self.duration = duration
        self.next = nxt
        self.tables = tables
        self.serve = serve
        self.interned = interned

    def __missing__(self, code: int):
        k = len(self.tables[0].rows)
        next_code = 0
        reward = 0.0
        mult = 1
        c = code
        for i, e in enumerate(self.tables):
            c, s = c // k, c % k
            if i == self.serve:
                j_mult, j_rows = mult, e.rows[s]
            else:
                s_next, _, r = e.rows[s][0]
                next_code += s_next * mult
                reward += r
            mult *= k
        if self.serve is None:
            out = (next_code, reward)
        else:
            rows = []
            acc = 0.0
            for s_next, p, r in j_rows:
                acc += p
                rows.append((acc, next_code + s_next * j_mult, reward + r))
            rows[-1] = (math.inf, *rows[-1][1:])
            out = tuple(rows)
        out = self[code] = self.interned.setdefault(out, out)
        return out

    def expected_reward(self, support) -> float:
        """Expected reward under the tables' satisfaction levels.

        ``support`` yields ``(table, pairs)`` in table order, ``pairs`` the
        table's ``(level, p)`` in level order. Sums the active tables'
        expected rewards weighted by ``p``, skipping zero ``p``; departed
        tables add nothing. An active table with no mass raises
        :class:`.model.ModelInvariantError`.
        """
        total = 0.0
        tables = self.tables
        for i, pairs in support:
            edge = tables[i]
            if edge.departed:
                continue
            er = edge.expected
            has_mass = False
            for sat, p in pairs:
                if p == 0.0:
                    continue
                has_mass = True
                total += p * er[sat]
            if not has_mass:
                raise ModelInvariantError(f"table {i}: belief vector has no mass")
        return total

    def predict(
        self, satisfaction: tuple, support, shared: dict | None = None
    ) -> tuple[tuple[float, ...], ...]:
        """Per-table satisfaction vectors after the edge.

        ``support`` holds the pairs of ``satisfaction``, as for
        :meth:`expected_reward`. Each active table's pairs are propagated
        through its table edge's rows; a departed table's vector is kept. An
        active table with no mass raises :class:`.model.ModelInvariantError`.
        ``shared``, one dict per support, maps ``(table, id(table edge))`` to
        the vector propagated there, for the other edges of the node to reuse.
        """
        new_vecs = list(satisfaction)
        tables = self.tables
        for i, pairs in support:
            edge = tables[i]
            if edge.departed:
                continue
            if shared is not None:
                key = (i, id(edge))
                vec = shared.get(key)
                if vec is not None:
                    new_vecs[i] = vec
                    continue
            rows = edge.rows
            out = [0.0] * len(satisfaction[i])
            has_mass = False
            for sat, p in pairs:
                if p == 0.0:
                    continue
                has_mass = True
                for ns, q, _ in rows[sat]:
                    out[ns] += p * q
            if not has_mass:
                raise ModelInvariantError(f"table {i}: belief vector has no mass")
            vec = new_vecs[i] = tuple(out)
            if shared is not None:
                shared[key] = vec
        return tuple(new_vecs)

    def sample(self, satisfactions: tuple, rng) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Next satisfactions and per-table rewards along the edge.

        Each table draws from its table edge's rows at its satisfaction, in
        table order, with :func:`.model.sample_outcome`; only a table with
        more than one row consumes a draw from ``rng``.
        """
        sats: list[int] = []
        rewards: list[float] = []
        for edge, sat in zip(self.tables, satisfactions):
            ns, _, r = sample_outcome(edge.rows[sat], rng)
            sats.append(ns)
            rewards.append(r)
        return tuple(sats), tuple(rewards)


def mass_support(observables: tuple, satisfaction: tuple) -> list:
    """``(table, pairs)`` of each active table, ``pairs`` the ``(level, p)``
    of its vector's nonzero entries in level order.

    An active table whose vector has no mass raises
    :class:`.model.ModelInvariantError`.
    """
    support = []
    for i, (obs, vec) in enumerate(zip(observables, satisfaction)):
        if obs.hand_raise == 0:
            continue
        pairs = [(sat, p) for sat, p in enumerate(vec) if p != 0.0]
        if not pairs:
            raise ModelInvariantError(f"table {i}: belief vector has no mass")
        support.append((i, pairs))
    return support


def dense_support(satisfaction: tuple):
    """``(table, enumerate(vector))`` of every table, for one edge method call."""
    return enumerate(map(enumerate, satisfaction))


class TableKernel:
    """Table edges, menus and joint nodes of one config, each computed on first use.

    ``items`` lists every observation, event and robot cell seen (one object
    per cell, which the moves share) and ``ids`` maps each to its index there.
    ``interned`` maps each joint edge outcome to its one stored object.
    """

    __slots__ = ("cfg", "ids", "items", "edges", "menus", "nodes", "interned")

    def __init__(self, cfg: RestaurantConfig) -> None:
        self.cfg = cfg
        self.ids: dict = {}
        self.items: list = []
        self.edges: dict[tuple[int, int], TableEdge] = {}
        self.menus: dict[tuple, tuple] = {}
        self.nodes: dict[tuple[RobotState, tuple[Observation, ...]], JointNode] = {}
        self.interned: dict[tuple, tuple] = {}

    def _id(self, item) -> int:
        i = self.ids.get(item)
        if i is None:
            i = self.ids[item] = len(self.items)
            self.items.append(item)
        return i

    def _event(self, action: Action, duration: int, robot: RobotState, index: int) -> int:
        if action.table == index and action.kind is ActionKind.SERVE:
            return self._id(("s", duration))
        if action.table == index and action.kind is ActionKind.GO_TO:
            distance = manhattan(robot.pos(), self.cfg.table_positions[index])
            return self._id(("g", duration, distance))
        return self._id(("t", duration))

    def edge(
        self, obs: Observation, action: Action, duration: int, robot: RobotState, index: int
    ) -> TableEdge:
        """The edge of table ``index`` in state ``obs`` under ``action``.

        ``robot`` is the robot before the action and ``duration`` the
        action's duration, as for :func:`.rewards.table_transition_outcomes`.
        """
        key = (self._id(obs), self._event(action, duration, robot, index))
        return self.edges.get(key) or self._fill(key, action, duration, robot, index)

    def _fill(self, key, action, duration, robot, index) -> TableEdge:
        """Fills and stores the edge of ``key``, ``(observation id, event id)``."""
        # rewards.expected_reward reads this cache, so rewards is imported
        # on first fill rather than at module level.
        from .rewards import table_transition_outcomes

        obs, event = self.items[key[0]], self.items[key[1]]
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
        edge = TableEdge(next_obs, self._id(next_obs), obs.hand_raise == 0, tuple(rows), expected)
        self.edges[key] = edge
        return edge

    def node(
        self, robot: RobotState, observables: tuple[Observation, ...], ids: tuple | None = None
    ) -> JointNode:
        """The joint node of ``(robot, observables)``, created on first use.

        ``ids``, the observations' ids, are looked up if not given.
        """
        key = (robot, observables)
        node = self.nodes.get(key)
        if node is None:
            if len(self.nodes) >= NODE_LIMIT:
                self.nodes.clear()
                self.interned.clear()  # in place: the edges still alive hold it
            ids = tuple(map(self._id, observables)) if ids is None else ids
            node = self.nodes[key] = JointNode(robot, observables, ids)
        return node

    def actions(self, node: JointNode) -> tuple[Action, ...]:
        """The node's legal actions, filled on first use from its menu.

        A menu, ``(actions, moves, siblings, firsts)``, is keyed by the robot
        and each table's status: departed (0), serve-blocked (1) or open (2).
        ``moves[i]`` is ``actions[i]``'s ``(duration, next robot, served
        table or None, event ids)``; ``siblings[i]`` lists the equal moves
        and ``firsts`` the first index of each distinct move.
        """
        if node.actions is None:
            robot, observables = node.robot, node.observables
            signature = (robot, tuple(
                0 if o.hand_raise == 0 else 1 if serve_blocked(o) else 2 for o in observables
            ))
            menu = self.menus.get(signature)
            if menu is None:
                menu = self.menus[signature] = self._menu(robot, observables)
            node.menu = menu
            node.actions = menu[0]
            node.edges = [None] * len(menu[0])
        return node.actions

    def _menu(self, robot: RobotState, observables: tuple) -> tuple:
        cfg = self.cfg
        tables = tuple(table_from_observation(o, 0) for o in observables)
        legal = legal_actions(JointState(robot=robot, tables=tables, clock=0), cfg)
        actions = tuple(sorted(legal, key=action_sort_key))
        moves = []
        for action in actions:
            duration = action_duration(robot, action, cfg)
            moves.append((
                duration,
                self.items[self._id(next_robot(robot, action, cfg))],  # one object per cell
                action.table if action.kind is ActionKind.SERVE else None,
                tuple(self._event(action, duration, robot, i) for i in range(len(observables))),
            ))
        siblings = tuple(tuple(j for j, m in enumerate(moves) if m == move) for move in moves)
        firsts = tuple(j for j, same in enumerate(siblings) if same[0] == j)
        return actions, tuple(moves), siblings, firsts

    def joint_edge(self, node: JointNode, idx: int) -> JointEdge:
        """The :class:`JointEdge` of the node's ``idx``-th action, built on first use.

        A sibling's edge, if one is built, fills the slot instead. The node's
        actions must have been filled.
        """
        edges = node.edges
        _, moves, siblings, _ = node.menu
        for j in siblings[idx]:
            if edges[j] is not None:
                edge = edges[idx] = edges[j]
                return edge
        duration, robot, served, events = moves[idx]
        action, get = node.actions[idx], self.edges.get
        tables = tuple(
            get(key) or self._fill(key, action, duration, node.robot, i)
            for i, key in enumerate(zip(node.ids, events))
        )
        nxt = self.node(robot, tuple(e.next_obs for e in tables), tuple(e.next_id for e in tables))
        edge = edges[idx] = JointEdge(duration, nxt, tables, served, self.interned)
        return edge

    def follow(self, node: JointNode, action: Action) -> JointEdge:
        """The joint edge of ``action`` from ``node``, built on first use.

        Raises :class:`.model.IllegalActionError` if the action is not legal.
        """
        try:
            idx = (node.actions or self.actions(node)).index(action)
        except ValueError:
            raise IllegalActionError(f"{action} is not legal in this state") from None
        return self.joint_edge(node, idx) if node.edges[idx] is None else node.edges[idx]

    def step(
        self, robot: RobotState, observables: tuple[Observation, ...], action: Action
    ) -> JointEdge:
        """The joint edge of ``action`` from ``(robot, observables)``.

        One node lookup, then :meth:`follow`.
        """
        return self.follow(self.node(robot, observables), action)


_kernels: dict[RestaurantConfig, TableKernel] = {}
# Shortcut from a config object to its store, so that a caller passing the
# same object on every decision does not hash the config again. Each entry
# keeps its config alive, so an id is never reused while it is here.
_by_id: dict[int, tuple[RestaurantConfig, TableKernel]] = {}


def table_kernel(cfg: RestaurantConfig) -> TableKernel:
    """The store of ``cfg``, shared by equal configs."""
    hit = _by_id.get(id(cfg))
    if hit is not None and hit[0] is cfg:
        return hit[1]
    kernel = _kernels.get(cfg)
    if kernel is None:
        if len(_kernels) >= KERNEL_LIMIT:
            evicted = _kernels.pop(next(iter(_kernels)))
            for key in [key for key, hit in _by_id.items() if hit[1] is evicted]:
                del _by_id[key]
        kernel = _kernels[cfg] = TableKernel(cfg)
    if len(_by_id) >= KERNEL_LIMIT:
        _by_id.clear()
    _by_id[id(cfg)] = (cfg, kernel)
    return kernel
