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
from .kernel import JointNode, TableEdge, TableKernel, table_kernel
from .model import (
    Action,
    ModelInvariantError,
    NOOP,
    action_sort_key,
    go_to,
    sample_outcome,
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
    if not (math.isfinite(spec.exploration) and spec.exploration >= 0):
        raise ConfigError("exploration constant must be finite and >= 0")
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
            if key in kwargs:
                raise ConfigError(f"repeated policy parameter: {key!r}")
            if key in ("budget", "max_depth", "depth"):
                convert = int
            elif key == "exploration":
                convert = float
            else:
                raise ConfigError(f"unknown policy parameter: {key!r}")
            try:
                kwargs[key] = convert(raw)
            except ValueError:
                raise ConfigError(
                    f"policy parameter {key} must be {convert.__name__}, got {raw!r}"
                ) from None
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
    """Myopic argmax of one-step expected reward under the belief."""
    kernel = table_kernel(cfg)
    return _greedy_scan(kernel, kernel.node(b.robot, b.observables), b.satisfaction)[0]


def _greedy_scan(kernel: TableKernel, node: JointNode, sat: tuple) -> tuple[Action, float]:
    """First strict argmax of :func:`.rewards.edge_expected_reward` and its value.

    Scans the node's joint edges in the fixed action order.
    """
    observables = node.observables
    acts = node.actions or kernel.actions(node)
    edges = node.edges
    best_action = acts[0]
    best_value = -math.inf
    for idx, a in enumerate(acts):
        tables = (edges[idx] or kernel.joint_edge(node, idx))[3]
        value = edge_expected_reward(observables, sat, tables)
        if value > best_value:
            best_action, best_value = a, value
    return best_action, best_value


# --- Exact expectimax --------------------------------------------------------


def _require_mass(node: JointNode, sat: tuple) -> None:
    """Raise as :func:`.belief.edge_predict` does on an active table's massless vector."""
    for i, (obs, vec) in enumerate(zip(node.observables, sat)):
        if obs.hand_raise != 0 and not any(vec):
            raise ModelInvariantError(f"table {i}: belief vector has no mass")


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
    :func:`.belief.belief_predict`. With one ply left the next value is zero,
    so the last ply is greedy's scan: it propagates no belief, and depth-1
    expectimax returns greedy's action and its expected reward bit for bit.
    A last-ply belief is still checked for an active table's massless
    vector, which :func:`.belief.edge_predict` would have rejected. Returns
    the optimal root action (``None`` at depth 0 or when every table is done)
    and the value.
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
        if remaining == 1:
            _require_mass(node, sat)
            memo[key] = result = _greedy_scan(kernel, node, sat)
            return result
        observables = node.observables
        acts = node.actions or actions(node)
        edges = node.edges
        best_action: Action | None = None
        best_value = -math.inf
        for idx, a in enumerate(acts):
            edge = edges[idx] or joint_edge(node, idx)
            tables = edge[3]
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
        distinct = {id(e): e for edge in self.joint_edges.values() for e in edge[3]}
        return list(distinct.values())


class _Node:
    """Per-tree visit statistics at one kernel node.

    A node is expanded exactly when ``na`` is non-empty, as NOOP is always legal.
    """

    __slots__ = ("children", "n", "na", "wa", "q", "inv_sqrt", "untried")

    def __init__(self) -> None:
        self.children: list = []
        self.n = 0
        self.na: list[int] = []
        self.wa: list[float] = []
        self.q: list[float] = []       # wa / na, maintained incrementally
        self.inv_sqrt: list[float] = []  # 1 / sqrt(na), maintained incrementally
        self.untried = 0               # index of the first never-tried action

    def expand(self, n: int) -> None:
        self.children = [None] * n
        self.na = [0] * n
        self.wa = [0.0] * n
        self.q = [0.0] * n
        self.inv_sqrt = [0.0] * n


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

    Runs ``budget`` simulations. Each draws every table's satisfaction from
    its belief vector with :func:`.model.sample_outcome`, then takes up to
    ``max_depth`` actions: by UCB1 while in the tree, and uniformly at random
    (the rollout) from the first node not yet expanded, which it expands.
    Recommendation is by visit count; ties break by the fixed action ordering.
    An active table's massless vector raises :class:`.model.ModelInvariantError`.
    """
    internal = random.Random(int(rng.integers(2**63)))
    rand = internal.random
    randrange = internal.randrange
    kernel = table_kernel(cfg)
    actions = kernel.actions
    joint_edge = kernel.joint_edge
    sqrt, log = math.sqrt, math.log
    k = cfg.sat_max + 1
    gamma_pow = {d: cfg.gamma**d for d in range(1, cfg.duration_max_nav + 1)}
    supports = [tuple((s, p) for s, p in enumerate(vec) if p > 0.0) for vec in b.satisfaction]
    root_state = kernel.node(b.robot, b.observables)
    _require_mass(root_state, b.satisfaction)
    root = _Node()
    for _ in range(budget):
        code = 0
        mult = 1
        for support in supports:
            code += sample_outcome(support, internal)[0] * mult
            mult *= k
        node: _Node | None = root
        state = root_state
        path = []
        tail = 0.0
        discount = 1.0
        for _ in range(max_depth):
            if state.done:
                break
            if node is not None and node.na:
                na = node.na
                if node.untried < len(na):
                    idx = node.untried
                    node.untried += 1
                else:
                    bonus = exploration * sqrt(log(node.n))
                    q = node.q
                    inv = node.inv_sqrt
                    idx = 0
                    best_u = q[0] + bonus * inv[0]
                    for i in range(1, len(na)):
                        u = q[i] + bonus * inv[i]
                        if u > best_u:
                            idx, best_u = i, u
            else:
                n_acts = len(state.actions or actions(state))
                if node is not None:
                    node.expand(n_acts)
                    node = None
                idx = randrange(n_acts)
            edge = state.edges[idx] or joint_edge(state, idx)
            outcomes = edge[2]
            if outcomes.j is None:
                code, r = outcomes[code]
            else:
                u = rand()
                for cum, next_code, r in outcomes[code]:
                    if u < cum:
                        break
                code = next_code
            if node is None:
                tail += discount * r
                discount *= gamma_pow[edge[0]]
            else:
                child = node.children[idx]
                if child is None:
                    child = node.children[idx] = _Node()
                path.append((node, idx, r, edge[0]))
                node = child
            state = edge[1]
        value = tail
        for nd, idx, r, duration in reversed(path):
            value = r + gamma_pow[duration] * value
            count = nd.na[idx] + 1
            nd.na[idx] = count
            nd.wa[idx] += value
            nd.q[idx] = nd.wa[idx] / count
            nd.inv_sqrt[idx] = 1.0 / sqrt(count)
            nd.n += 1
    acts = root_state.actions or actions(root_state)
    visits = root.na or [0] * len(acts)  # a done root is never expanded
    best = max(range(len(acts)), key=visits.__getitem__)
    return acts[best], (root.wa[best] / visits[best] if visits[best] else 0.0)


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
