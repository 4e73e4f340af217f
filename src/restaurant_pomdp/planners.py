"""Policies over belief states: three baselines, UCT search, and an exact
finite-horizon expectimax oracle for small instances.

All tie-breaking uses the fixed action ordering from :mod:`.model`, so every
policy is deterministic given its random stream.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .belief import (
    Belief,
    Observation,
    belief_predict,
    table_from_observation,
)
from .config import ConfigError, RestaurantConfig
from .dynamics import navigation_duration
from .joint import DEFAULT_SUPPORT_CAP, SupportCapError, enumerate_joint_transitions
from .kernel import sorted_legal, table_kernel
from .model import (
    Action,
    ActionKind,
    JointState,
    ModelInvariantError,
    NOOP,
    RobotState,
    action_sort_key,
    go_to,
    manhattan,
    serve,
    serve_blocked,
)
from .rewards import expected_reward

POLICY_KINDS = ("random", "fcfs", "greedy", "mcts", "expectimax")

DEFAULT_EXPLORATION = 20.0


@dataclass(frozen=True)
class PolicySpec:
    """Declarative policy selection; kind-specific fields are ignored by others."""

    kind: str
    budget: int = 1000
    exploration: float = DEFAULT_EXPLORATION
    max_depth: int = 10
    depth: int = 3


def validate_policy_spec(spec: PolicySpec) -> PolicySpec:
    if spec.kind not in POLICY_KINDS:
        raise ConfigError(f"unknown policy kind: {spec.kind!r}")
    if spec.budget < 1:
        raise ConfigError("budget must be >= 1")
    if spec.max_depth < 1 or spec.depth < 1:
        raise ConfigError("search depth must be >= 1")
    if spec.exploration < 0:
        raise ConfigError("exploration constant must be >= 0")
    return spec


def parse_policy_spec(text: str) -> PolicySpec:
    """Parse ``name[:key=value,...]``, e.g. ``mcts:budget=1000,max_depth=10``."""
    name, _, rest = text.partition(":")
    kwargs: dict[str, object] = {}
    if rest:
        for item in rest.split(","):
            key, sep, raw = item.partition("=")
            if not sep:
                raise ConfigError(f"bad policy parameter: {item!r}")
            if key in ("budget", "max_depth", "depth"):
                kwargs[key] = int(raw)
            elif key == "exploration":
                kwargs[key] = float(raw)
            else:
                raise ConfigError(f"unknown policy parameter: {key!r}")
    return validate_policy_spec(PolicySpec(kind=name, **kwargs))


def sorted_legal_actions(b: Belief, cfg: RestaurantConfig) -> tuple[Action, ...]:
    """Legal actions in the fixed tie-breaking order, memoized per config."""
    return table_kernel(cfg).legal(b.robot, b.observables)


# --- Baselines ---------------------------------------------------------------


def act_random(b: Belief, legal: set[Action], rng: np.random.Generator) -> Action:
    """Uniform draw over the legal set."""
    if not legal:
        raise ValueError("legal action set is empty")
    acts = sorted(legal, key=action_sort_key)
    return acts[int(rng.integers(len(acts)))]


def act_fcfs(b: Belief, cfg: RestaurantConfig) -> Action:
    """Serve (or head to) the serviceable table that has waited longest.

    Tables whose only pending need is food still being cooked are skipped;
    if nothing is serviceable the robot idles.
    """
    if all(o.hand_raise == 0 for o in b.observables):
        raise ValueError("all tables are done")
    candidates = [
        i
        for i, o in enumerate(b.observables)
        if o.hand_raise == 1 and not serve_blocked(table_from_observation(o, 0))
    ]
    if not candidates:
        return NOOP
    best = max(candidates, key=lambda i: (b.observables[i].t_since_request, -i))
    if b.robot.pos() == cfg.table_positions[best]:
        return serve(best)
    return go_to(best)


def act_greedy(b: Belief, cfg: RestaurantConfig) -> Action:
    """Myopic argmax of one-step expected reward under the belief."""
    best_action: Action | None = None
    best_value = -math.inf
    for a in sorted_legal_actions(b, cfg):
        value = expected_reward(b, a, cfg)
        if value > best_value:
            best_action, best_value = a, value
    assert best_action is not None
    return best_action


# --- Exact expectimax oracle -------------------------------------------------


def _expected_reward_enumerated(
    b: Belief, action: Action, cfg: RestaurantConfig, cap: int
) -> float:
    """One-step expected reward via exhaustive joint enumeration.

    Independent of :func:`.rewards.expected_reward`; used by the expectimax
    oracle so that depth-1 agreement with the greedy policy is a real check.
    """
    supports = [
        [(s, p) for s, p in enumerate(vec) if p > 0.0] for vec in b.satisfaction
    ]
    n_assignments = 1
    for sup in supports:
        n_assignments *= len(sup)
    if n_assignments > cap:
        raise SupportCapError(
            f"{n_assignments} satisfaction assignments exceed cap {cap}"
        )
    total = 0.0
    for combo in itertools.product(*supports):
        prob = 1.0
        for _, p in combo:
            prob *= p
        tables = tuple(
            table_from_observation(obs, s)
            for obs, (s, _) in zip(b.observables, combo)
        )
        js = JointState(robot=b.robot, tables=tables, clock=0)
        for _, q, r in enumerate_joint_transitions(js, action, cfg, cap):
            total += prob * q * r
    return total


def value_expectimax(
    b: Belief, depth: int, cfg: RestaurantConfig, cap: int = DEFAULT_SUPPORT_CAP
) -> tuple[Action | None, float]:
    """Exact depth-limited value of the belief-state process.

    ``value(b, d) = max_a [E(reward) + gamma^duration * value(b', d-1)]`` with
    terminal value zero. The belief transition is deterministic here because
    observations never disambiguate satisfaction. Returns the optimal root
    action (``None`` at depth 0 or when every table is done) and the value.
    """
    memo: dict[tuple[Belief, int], tuple[Action | None, float]] = {}

    def rec(belief: Belief, remaining: int) -> tuple[Action | None, float]:
        if remaining == 0 or all(o.hand_raise == 0 for o in belief.observables):
            return (None, 0.0)
        key = (belief, remaining)
        cached = memo.get(key)
        if cached is not None:
            return cached
        best_action: Action | None = None
        best_value = -math.inf
        for a in sorted_legal_actions(belief, cfg):
            er = _expected_reward_enumerated(belief, a, cfg, cap)
            nb, duration = belief_predict(belief, a, cfg)
            value = er + cfg.gamma**duration * rec(nb, remaining - 1)[1]
            if value > best_value:
                best_action, best_value = a, value
        memo[key] = (best_action, best_value)
        return (best_action, best_value)

    return rec(b, depth)


# --- Monte-Carlo tree search -------------------------------------------------
#
# Observations are deterministic copies of the observable variables, so the
# observable joint trajectory is a function of the action history alone and
# tree nodes are action histories. The dynamics and rewards along an edge
# depend on hidden satisfaction only through small per-table lookup tables,
# which are read from the shared edge table of :mod:`.kernel` and folded into
# sampling rows; a simulation then reduces to integer satisfaction
# bookkeeping plus one uniform draw per serve.

_DET = 0
_STOCH = 1

_TableKey = tuple[int, ...]
_JointKey = tuple[tuple[int, int], tuple[_TableKey, ...]]

_HAND_IDX = 4  # position of hand_raise in the observation tuple

# Joint satisfaction vectors are encoded little-endian into one integer; the
# per-edge tables over these codes are filled on first use of each code.


def _decode(code: int, n: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        code, s = divmod(code, k)
        out.append(s)
    return tuple(out)


def _stoch_row(entries, sats, j: int, k: int):
    """One sampling row: deterministic contributions folded around table ``j``.

    The final cumulative threshold is forced to infinity so a uniform draw
    always selects a row.
    """
    det_r = 0.0
    base = 0
    mult = 1
    j_mult = 1
    for i, e in enumerate(entries):
        if i == j:
            j_mult = mult
        else:
            det_r += e[2][sats[i]]
            base += e[1][sats[i]] * mult
        mult *= k
    rows = [
        (cum, base + s_next * j_mult, det_r + r)
        for cum, s_next, r in entries[j][1][sats[j]]
    ]
    last = rows[-1]
    rows[-1] = (math.inf, last[1], last[2])
    return tuple(rows)


class _LazyDet(dict):
    """``(next_code, reward)`` per code of a deterministic edge, on demand."""

    def __init__(self, entries, k: int) -> None:
        super().__init__()
        self._entries = entries
        self._k = k

    def __missing__(self, code: int) -> tuple[int, float]:
        k = self._k
        next_code = 0
        reward = 0.0
        mult = 1
        c = code
        for e in self._entries:
            c, s = c // k, c % k
            next_code += e[1][s] * mult
            reward += e[2][s]
            mult *= k
        out = self[code] = (next_code, reward)
        return out


class _LazyRows(dict):
    def __init__(self, entries, k: int, j: int) -> None:
        super().__init__()
        self._entries = entries
        self._k = k
        self._j = j

    def __missing__(self, code: int):
        sats = _decode(code, len(self._entries), self._k)
        row = _stoch_row(self._entries, sats, self._j, self._k)
        self[code] = row
        return row


def _obs_key(obs: Observation) -> _TableKey:
    return (
        obs.food,
        obs.water,
        obs.cooking_status,
        obs.current_request,
        obs.hand_raise,
        obs.t_since_served,
        obs.t_since_food_ready,
        obs.t_since_request,
    )


class MctsCaches:
    """Memoized observable dynamics shared across searches for one config."""

    __slots__ = ("table_edges", "joint_edges", "legal")

    def __init__(self) -> None:
        self.table_edges: dict = {}
        self.joint_edges: dict = {}
        self.legal: dict = {}


class _Node:
    __slots__ = (
        "key", "all_done", "actions", "edges", "children", "n", "na", "wa",
        "q", "inv_sqrt", "untried", "expanded",
    )

    def __init__(self, key: _JointKey) -> None:
        self.key = key
        self.all_done = all(t[_HAND_IDX] == 0 for t in key[1])
        self.actions: tuple[Action, ...] = ()
        self.edges: list = []
        self.children: list = []
        self.n = 0
        self.na: list[int] = []
        self.wa: list[float] = []
        self.q: list[float] = []       # wa / na, maintained incrementally
        self.inv_sqrt: list[float] = []  # 1 / sqrt(na), maintained incrementally
        self.untried = 0               # index of the first never-tried action
        self.expanded = False


class _Search:
    def __init__(
        self,
        cfg: RestaurantConfig,
        caches: MctsCaches,
        exploration: float,
        max_depth: int,
        rng: random.Random,
    ) -> None:
        self.cfg = cfg
        self.kernel = table_kernel(cfg)
        self.caches = caches
        self.c = exploration
        self.max_depth = max_depth
        self.rng = rng
        self.sat_values = cfg.sat_max + 1
        self.gamma_pow = {
            d: cfg.gamma**d for d in range(1, cfg.duration_max_nav + 1)
        }

    # -- cached model queries --

    def _legal(self, key: _JointKey) -> tuple[Action, ...]:
        cached = self.caches.legal.get(key)
        if cached is None:
            cached = sorted_legal(
                RobotState(*key[0]), tuple(Observation(*t) for t in key[1]), self.cfg
            )
            self.caches.legal[key] = cached
        return cached

    def _table_edge(self, tobs: _TableKey, action: Action, duration: int,
                    robot_pos: tuple[int, int], index: int):
        """Per-table lookup tables for one action execution.

        Returns ``(next_tobs, (_DET, sat_map, reward_vec))`` or
        ``(next_tobs, (_STOCH, outcomes_by_sat))`` with cumulative
        probabilities for sampling.
        """
        if tobs[_HAND_IDX] == 0:
            identity = tuple(range(self.sat_values))
            zeros = (0.0,) * self.sat_values
            return (tobs, (_DET, identity, zeros))
        targeted = action.table == index
        if targeted and action.kind is ActionKind.SERVE:
            cache_key = ("s", tobs)
        elif targeted and action.kind is ActionKind.GO_TO:
            dist = manhattan(robot_pos, self.cfg.table_positions[index])
            cache_key = ("g", duration, dist, tobs)
        else:
            cache_key = ("t", duration, tobs)
        cached = self.caches.table_edges.get(cache_key)
        if cached is not None:
            return cached

        edge = self.kernel.edge(
            Observation(*tobs), action, duration, RobotState(*robot_pos), index
        )
        next_tobs = _obs_key(edge.next_obs)
        if cache_key[0] == "s":
            by_sat = []
            for rows in edge.rows:
                acc = 0.0
                cum_rows = []
                for s_next, p, r in rows:
                    acc += p
                    cum_rows.append((acc, s_next, r))
                by_sat.append(tuple(cum_rows))
            entry = (next_tobs, (_STOCH, tuple(by_sat)))
        else:
            # The edge table guarantees one row per level for these events.
            sat_map = tuple(rows[0][0] for rows in edge.rows)
            reward_vec = tuple(rows[0][2] for rows in edge.rows)
            entry = (next_tobs, (_DET, sat_map, reward_vec))
        self.caches.table_edges[cache_key] = entry
        return entry

    def _edge(self, key: _JointKey, action: Action):
        """Cached joint transition for one action at one observable state.

        The per-table lookup tables are folded into one dict indexed by a
        single encoded satisfaction vector and filled per code on first use,
        so applying an edge during simulation is one lookup. The edge tuple is
        ``(duration, next_key, tag, table)``: tag 0 marks a fully
        deterministic edge whose table maps a code to ``(next_code, reward)``,
        tag 1 an edge whose serve outcome is sampled from the table's
        cumulative rows.
        """
        edge_key = (key, action)
        cached = self.caches.joint_edges.get(edge_key)
        if cached is not None:
            return cached
        robot_pos = key[0]
        if action.kind is ActionKind.GO_TO:
            assert action.table is not None
            duration = navigation_duration(
                RobotState(*robot_pos), self.cfg.table_positions[action.table],
                self.cfg,
            )
            next_robot = self.cfg.table_positions[action.table]
        else:
            duration = 1
            next_robot = robot_pos
        next_tobs = []
        entries = []
        for i, tobs in enumerate(key[1]):
            nt, entry = self._table_edge(tobs, action, duration, robot_pos, i)
            next_tobs.append(nt)
            entries.append(entry)
        next_key = (next_robot, tuple(next_tobs))

        k = self.sat_values
        stoch = [i for i, e in enumerate(entries) if e[0] == _STOCH]
        if len(stoch) > 1:
            raise ModelInvariantError(
                f"{action} makes {len(stoch)} tables transition stochastically"
            )
        if not stoch:
            edge = (duration, next_key, 0, _LazyDet(entries, k))
        else:
            edge = (duration, next_key, 1, _LazyRows(entries, k, stoch[0]))
        self.caches.joint_edges[edge_key] = edge
        return edge

    # -- simulation --

    def _rollout(self, key: _JointKey, code: int, steps: int) -> float:
        value = 0.0
        discount = 1.0
        rng = self.rng
        randrange = rng.randrange
        rand = rng.random
        gamma_pow = self.gamma_pow
        while steps > 0:
            if all(t[_HAND_IDX] == 0 for t in key[1]):
                break
            acts = self._legal(key)
            edge = self._edge(key, acts[randrange(len(acts))])
            if edge[2] == 0:
                code, r = edge[3][code]
                value += discount * r
            else:
                u = rand()
                for cum, next_code, r in edge[3][code]:
                    if u < cum:
                        value += discount * r
                        code = next_code
                        break
            discount *= gamma_pow[edge[0]]
            key = edge[1]
            steps -= 1
        return value

    def _expand(self, node: _Node) -> None:
        acts = self._legal(node.key)
        n = len(acts)
        node.actions = acts
        node.edges = [None] * n
        node.children = [None] * n
        node.na = [0] * n
        node.wa = [0.0] * n
        node.q = [0.0] * n
        node.inv_sqrt = [0.0] * n
        node.expanded = True

    def run(
        self, root_key: _JointKey, samplers, budget: int
    ) -> tuple[int, _Node]:
        root = _Node(root_key)
        rand = self.rng.random
        sqrt, log = math.sqrt, math.log
        c = self.c
        k_values = self.sat_values
        gamma_pow = self.gamma_pow
        max_depth = self.max_depth
        base_code: int | None = None
        if all(isinstance(s, int) for s in samplers):
            base_code = 0
            mult = 1
            for s in samplers:
                base_code += s * mult
                mult *= k_values
        for _ in range(budget):
            if base_code is not None:
                code = base_code
            else:
                code = 0
                mult = 1
                for s in samplers:
                    drawn = s if isinstance(s, int) else self._draw(s, rand())
                    code += drawn * mult
                    mult *= k_values
            node = root
            depth = 0
            path = []
            tail = 0.0
            while True:
                if node.all_done or depth == max_depth:
                    break
                if not node.expanded:
                    self._expand(node)
                    tail = self._rollout(node.key, code, max_depth - depth)
                    break
                na = node.na
                if node.untried < len(na):
                    idx = node.untried
                    node.untried += 1
                else:
                    bonus = c * sqrt(log(node.n))
                    q = node.q
                    inv = node.inv_sqrt
                    idx = 0
                    best_u = q[0] + bonus * inv[0]
                    for i in range(1, len(na)):
                        u = q[i] + bonus * inv[i]
                        if u > best_u:
                            idx, best_u = i, u
                edge = node.edges[idx]
                if edge is None:
                    edge = self._edge(node.key, node.actions[idx])
                    node.edges[idx] = edge
                if edge[2] == 0:
                    code, r = edge[3][code]
                else:
                    u = rand()
                    for cum, next_code, row_r in edge[3][code]:
                        if u < cum:
                            r = row_r
                            code = next_code
                            break
                child = node.children[idx]
                if child is None:
                    child = _Node(edge[1])
                    node.children[idx] = child
                path.append((node, idx, r, edge[0]))
                node = child
                depth += 1
            value = tail
            for nd, idx, r, duration in reversed(path):
                value = r + gamma_pow[duration] * value
                count = nd.na[idx] + 1
                nd.na[idx] = count
                nd.wa[idx] += value
                nd.q[idx] = nd.wa[idx] / count
                nd.inv_sqrt[idx] = 1.0 / sqrt(count)
                nd.n += 1
        if not root.expanded:
            self._expand(root)
        best = 0
        for i in range(1, len(root.na)):
            if root.na[i] > root.na[best]:
                best = i
        return best, root

    @staticmethod
    def _draw(cum: tuple[float, ...], u: float) -> int:
        for i, acc in enumerate(cum):
            if u < acc:
                return i
        return len(cum) - 1


def mcts_search(
    b: Belief,
    cfg: RestaurantConfig,
    budget: int,
    rng: np.random.Generator,
    *,
    exploration: float = DEFAULT_EXPLORATION,
    max_depth: int = 10,
    caches: MctsCaches | None = None,
) -> tuple[Action, float]:
    """UCT over the belief: returns the recommended action and its value estimate.

    Runs ``budget`` simulations, each starting from satisfaction values drawn
    from the belief, selecting tree actions by UCB1 and evaluating leaves by a
    uniform-random rollout truncated at ``max_depth`` actions. Recommendation
    is by visit count; ties break by the fixed action ordering.
    """
    if caches is None:
        caches = MctsCaches()
    internal = random.Random(int(rng.integers(2**63)))
    search = _Search(cfg, caches, exploration, max_depth, internal)
    root_key: _JointKey = (
        b.robot.pos(),
        tuple(_obs_key(o) for o in b.observables),
    )
    samplers: list = []
    for vec in b.satisfaction:
        support = [s for s, p in enumerate(vec) if p > 0.0]
        if len(support) == 1:
            samplers.append(support[0])
        else:
            acc = 0.0
            cum = []
            for p in vec:
                acc += p
                cum.append(acc)
            samplers.append(tuple(cum))
    best, root = search.run(root_key, samplers, budget)
    action = root.actions[best]
    visits = root.na[best]
    value = root.wa[best] / visits if visits else 0.0
    return action, value


def act_mcts(
    b: Belief,
    cfg: RestaurantConfig,
    budget: int,
    rng: np.random.Generator,
    *,
    exploration: float = DEFAULT_EXPLORATION,
    max_depth: int = 10,
    caches: MctsCaches | None = None,
) -> Action:
    return mcts_search(
        b, cfg, budget, rng, exploration=exploration, max_depth=max_depth,
        caches=caches,
    )[0]


# --- Policy objects for the harness ------------------------------------------


class RandomPolicy:
    def __init__(self, cfg: RestaurantConfig) -> None:
        self.cfg = cfg

    def act(self, b: Belief, rng: np.random.Generator) -> Action:
        return act_random(b, set(sorted_legal_actions(b, self.cfg)), rng)


class FcfsPolicy:
    def __init__(self, cfg: RestaurantConfig) -> None:
        self.cfg = cfg

    def act(self, b: Belief, rng: np.random.Generator) -> Action:
        return act_fcfs(b, self.cfg)


class GreedyPolicy:
    def __init__(self, cfg: RestaurantConfig) -> None:
        self.cfg = cfg

    def act(self, b: Belief, rng: np.random.Generator) -> Action:
        return act_greedy(b, self.cfg)


class MctsPolicy:
    def __init__(self, cfg: RestaurantConfig, spec: PolicySpec) -> None:
        self.cfg = cfg
        self.spec = spec
        self.caches = MctsCaches()

    def act(self, b: Belief, rng: np.random.Generator) -> Action:
        return act_mcts(
            b,
            self.cfg,
            self.spec.budget,
            rng,
            exploration=self.spec.exploration,
            max_depth=self.spec.max_depth,
            caches=self.caches,
        )


class ExpectimaxPolicy:
    def __init__(self, cfg: RestaurantConfig, spec: PolicySpec) -> None:
        self.cfg = cfg
        self.spec = spec

    def act(self, b: Belief, rng: np.random.Generator) -> Action:
        action, _ = value_expectimax(b, self.spec.depth, self.cfg)
        return action if action is not None else NOOP


def make_policy(spec: PolicySpec, cfg: RestaurantConfig):
    spec = validate_policy_spec(spec)
    if spec.kind == "random":
        return RandomPolicy(cfg)
    if spec.kind == "fcfs":
        return FcfsPolicy(cfg)
    if spec.kind == "greedy":
        return GreedyPolicy(cfg)
    if spec.kind == "mcts":
        return MctsPolicy(cfg, spec)
    return ExpectimaxPolicy(cfg, spec)
