"""Policies over belief states: three baselines, UCT search, and exact
finite-horizon expectimax.

All tie-breaking uses the fixed action ordering from :mod:`.model`, so every
policy is deterministic given its random stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .belief import Belief, edge_predict
from .config import ConfigError, RestaurantConfig
from .kernel import JointNode, TableEdge, table_kernel
from .model import (
    Action,
    NOOP,
    action_sort_key,
    go_to,
    serve,
    serve_blocked,
)
from .rewards import edge_expected_reward

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
    """Legal actions in the fixed tie-breaking order, from the kernel's node."""
    kernel = table_kernel(cfg)
    return kernel.actions(kernel.node(b.robot, b.observables))


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
        if o.hand_raise == 1 and not serve_blocked(o)
    ]
    if not candidates:
        return NOOP
    best = max(candidates, key=lambda i: (b.observables[i].t_since_request, -i))
    if b.robot.pos() == cfg.table_positions[best]:
        return serve(best)
    return go_to(best)


def act_greedy(b: Belief, cfg: RestaurantConfig) -> Action:
    """Myopic argmax of one-step expected reward under the belief.

    Scans the kernel node's joint edges in the fixed action order; the first
    strict maximum wins.
    """
    kernel = table_kernel(cfg)
    node = kernel.node(b.robot, b.observables)
    acts = node.actions or kernel.actions(node)
    edges = node.edges
    best_action = acts[0]
    best_value = -math.inf
    for idx, a in enumerate(acts):
        tables = (edges[idx] or kernel.joint_edge(node, idx))[4]
        value = edge_expected_reward(b.observables, b.satisfaction, tables)
        if value > best_value:
            best_action, best_value = a, value
    return best_action


# --- Exact expectimax --------------------------------------------------------


def value_expectimax(
    b: Belief, depth: int, cfg: RestaurantConfig
) -> tuple[Action | None, float]:
    """Exact depth-limited value of the belief-state process.

    ``value(b, d) = max_a [E(reward) + gamma^duration * value(b', d-1)]`` with
    terminal value zero. The belief transition is deterministic here because
    observations never disambiguate satisfaction, so a belief is a node of
    the kernel's joint-state graph plus its satisfaction vectors. The
    recursion looks up the root node once and then follows each action's
    joint edge to the next node: ``E(reward)`` is the edge's
    :func:`.rewards.edge_expected_reward`, the sum greedy maximizes, and the
    next vectors are its :func:`.belief.edge_predict`, the propagation of
    :func:`.belief.belief_predict`. Returns the optimal root action (``None``
    at depth 0 or when every table is done) and the value.
    """
    kernel = table_kernel(cfg)
    actions = kernel.actions
    joint_edge = kernel.joint_edge
    gamma = cfg.gamma
    memo: dict[tuple[JointNode, tuple, int], tuple[Action | None, float]] = {}

    def rec(node: JointNode, sat: tuple, remaining: int) -> tuple[Action | None, float]:
        if remaining == 0 or node.done:
            return (None, 0.0)
        key = (node, sat, remaining)
        cached = memo.get(key)
        if cached is not None:
            return cached
        observables = node.observables
        acts = node.actions or actions(node)
        edges = node.edges
        best_action: Action | None = None
        best_value = -math.inf
        for idx, a in enumerate(acts):
            edge = edges[idx] or joint_edge(node, idx)
            tables = edge[4]
            er = edge_expected_reward(observables, sat, tables)
            next_sat = edge_predict(observables, sat, tables)
            value = er + gamma ** edge[0] * rec(edge[1], next_sat, remaining - 1)[1]
            if value > best_value:
                best_action, best_value = a, value
        memo[key] = (best_action, best_value)
        return (best_action, best_value)

    return rec(kernel.node(b.robot, b.observables), b.satisfaction, depth)


# --- Monte-Carlo tree search -------------------------------------------------
#
# Observations are deterministic copies of the observable variables, so the
# observable joint trajectory is a function of the action history alone. The
# search walks the joint-state graph of :mod:`.kernel`, shared by every reader
# of a config: each node holds its legal actions and, per action, a joint edge
# built from the tables' edges. The dynamics and rewards along an edge depend
# on hidden satisfaction only through those edges' rows, which the edge folds
# into one lookup per joint satisfaction code; a simulation then reduces to
# integer satisfaction bookkeeping plus one uniform draw per serve. The search
# itself keeps only its tree statistics.


class _StoreView:
    """Read-only views of the kernel's joint-state store for one config."""

    __slots__ = ("cfg",)

    def __init__(self, cfg: RestaurantConfig) -> None:
        self.cfg = cfg

    @property
    def legal(self) -> dict:
        """Sorted legal actions of every stored node left at least once."""
        return {
            key: node.actions
            for key, node in table_kernel(self.cfg).nodes.items()
            if node.actions is not None
        }

    @property
    def joint_edges(self) -> dict:
        """Built joint edges, keyed by (node key, action)."""
        return {
            (key, node.actions[i]): edge
            for key, node in table_kernel(self.cfg).nodes.items()
            if node.edges is not None
            for i, edge in enumerate(node.edges)
            if edge is not None
        }

    @property
    def table_edges(self) -> list[TableEdge]:
        """The distinct table edges the built joint edges are made of."""
        distinct = {id(e): e for edge in self.joint_edges.values() for e in edge[4]}
        return list(distinct.values())


class _Node:
    """Per-tree visit statistics at one kernel node."""

    __slots__ = (
        "state", "children", "n", "na", "wa", "q", "inv_sqrt", "untried", "expanded",
    )

    def __init__(self, state: JointNode) -> None:
        self.state = state
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
        exploration: float,
        max_depth: int,
        rng: random.Random,
    ) -> None:
        self.kernel = table_kernel(cfg)
        self.c = exploration
        self.max_depth = max_depth
        self.rng = rng
        self.sat_values = cfg.sat_max + 1
        self.gamma_pow = {
            d: cfg.gamma**d for d in range(1, cfg.duration_max_nav + 1)
        }

    # -- simulation --

    def _rollout(self, st: JointNode, code: int, steps: int) -> float:
        value = 0.0
        discount = 1.0
        rng = self.rng
        randrange = rng.randrange
        rand = rng.random
        gamma_pow = self.gamma_pow
        actions = self.kernel.actions
        joint_edge = self.kernel.joint_edge
        while steps > 0 and not st.done:
            acts = st.actions or actions(st)
            idx = randrange(len(acts))
            edge = st.edges[idx] or joint_edge(st, idx)
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
            st = edge[1]
            steps -= 1
        return value

    def _expand(self, node: _Node) -> None:
        n = len(self.kernel.actions(node.state))
        node.children = [None] * n
        node.na = [0] * n
        node.wa = [0.0] * n
        node.q = [0.0] * n
        node.inv_sqrt = [0.0] * n
        node.expanded = True

    def run(self, root_state: JointNode, samplers, budget: int) -> tuple[int, _Node]:
        root = _Node(root_state)
        rand = self.rng.random
        joint_edge = self.kernel.joint_edge
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
                if node.state.done or depth == max_depth:
                    break
                if not node.expanded:
                    self._expand(node)
                    tail = self._rollout(node.state, code, max_depth - depth)
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
                edge = node.state.edges[idx] or joint_edge(node.state, idx)
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
) -> tuple[Action, float]:
    """UCT over the belief: returns the recommended action and its value estimate.

    Runs ``budget`` simulations, each starting from satisfaction values drawn
    from the belief, selecting tree actions by UCB1 and evaluating leaves by a
    uniform-random rollout truncated at ``max_depth`` actions. Recommendation
    is by visit count; ties break by the fixed action ordering.
    """
    internal = random.Random(int(rng.integers(2**63)))
    search = _Search(cfg, exploration, max_depth, internal)
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
    best, root = search.run(search.kernel.node(b.robot, b.observables), samplers, budget)
    action = root.state.actions[best]
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
) -> Action:
    return mcts_search(b, cfg, budget, rng, exploration=exploration, max_depth=max_depth)[0]


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
        self.caches = _StoreView(cfg)

    def act(self, b: Belief, rng: np.random.Generator) -> Action:
        return act_mcts(
            b,
            self.cfg,
            self.spec.budget,
            rng,
            exploration=self.spec.exploration,
            max_depth=self.spec.max_depth,
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
