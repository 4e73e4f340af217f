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

from .belief import Belief
from .config import ConfigError, RestaurantConfig, _require_int, _require_number
from .kernel import JointNode, TableEdge, TableKernel, mass_support, table_kernel
from .model import (
    Action,
    NOOP,
    action_sort_key,
    go_to,
    sample_outcome,
    serve,
    serve_blocked,
)

POLICY_KINDS = ("random", "fcfs", "greedy", "mcts", "expectimax")

DEFAULT_EXPLORATION = 20.0


@dataclass(frozen=True)
class PolicySpec:
    """Declarative policy selection, checked when built: an invalid field
    raises :class:`.config.ConfigError`. Kind-specific fields are ignored by
    other kinds."""

    kind: str
    budget: int = 1000
    exploration: float = DEFAULT_EXPLORATION
    max_depth: int = 10
    depth: int = 3

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind: {self.kind!r}")
        if _require_int("budget", self.budget) < 1:
            raise ConfigError("budget must be >= 1")
        if _require_int("max_depth", self.max_depth) < 1 or _require_int("depth", self.depth) < 1:
            raise ConfigError("search depth must be >= 1")
        if _require_number("exploration", self.exploration) < 0:
            raise ConfigError("exploration constant must be >= 0")


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
    return PolicySpec(kind=name, **kwargs)


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
    support = mass_support(b.observables, b.satisfaction)
    return _greedy_scan(kernel, kernel.node(b.robot, b.observables), support)[0]


def _greedy_scan(kernel: TableKernel, node: JointNode, support: list) -> tuple[Action, float]:
    """First strict argmax of the joint edges' expected reward, and its value.

    Scans the node's joint edges in the fixed action order, scoring each with
    :meth:`.kernel.JointEdge.expected_reward` on the node's
    :func:`.kernel.mass_support`.
    """
    acts = node.actions or kernel.actions(node)
    edges = node.edges
    best_action = acts[0]
    best_value = -math.inf
    for idx, a in enumerate(acts):
        edge = kernel.joint_edge(node, idx) if edges[idx] is None else edges[idx]
        value = edge.expected_reward(support)
        if value > best_value:
            best_action, best_value = a, value
    return best_action, best_value


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
    :meth:`~.kernel.JointEdge.expected_reward`, the sum greedy maximizes, and
    the next vectors are its :meth:`~.kernel.JointEdge.predict`, the
    propagation of :func:`.belief.belief_predict`, both on the node's
    :func:`.kernel.mass_support`, built once per search node; actions whose
    edges share a table's edge share its propagated vector. With one ply
    left the next value is zero, so the last ply is greedy's scan: it
    propagates no belief, and depth-1 expectimax returns greedy's action and
    its expected reward bit for bit. Returns the optimal root action
    (``None`` at depth 0 or when every table is done) and the value.
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
        support = mass_support(node.observables, sat)
        if remaining == 1:
            memo[key] = result = _greedy_scan(kernel, node, support)
            return result
        acts = node.actions or actions(node)
        edges = node.edges
        shared: dict = {}
        best_action: Action | None = None
        best_value = -math.inf
        for idx, a in enumerate(acts):
            edge = joint_edge(node, idx) if edges[idx] is None else edges[idx]
            er = edge.expected_reward(support)
            next_sat = edge.predict(sat, support, shared)
            value = er + gamma**edge.duration * rec(edge.next, next_sat, remaining - 1)[1]
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
# itself keeps only its tree statistics. What depends only on the root belief
# or on integers is computed once per search: tables whose support has one
# level are folded into a base satisfaction code and the others' levels are
# pre-scaled by their place values, and UCB1's exploration bonus by node
# visits and inverse square root by action visits are tabulated as the
# simulations need them, with the same float expressions a step would use.
#
# A node rescans its actions only when its last choice could have lost. UCB1
# hardly explores here, as returns span thousands and the bonus is small beside
# them, so a node nearly always picks what it picked on its last visit. After
# a scan at bonus B0 picks action c, the node keeps c and a floor
# M0 - B0 + slack, where M0 is the best UCB1 value q_i + B0 * s_i among the
# other actions, q_i = wa[i] / na[i] and s_i = 1 / sqrt(na[i]) <= 1. Until the
# next scan only c is selected there, so only c's statistics change, and at a
# later bonus B each other action's value has grown by (B - B0) * s_i, at most
# B - B0. So q_c + B * s_c - B > floor proves that c is the strict argmax and
# that the scan would return it; otherwise the node scans and renews c and its
# floor. The bound needs B >= B0: a node's visit count only grows, and
# bonus_of is non-decreasing in it. A node with one action has no runner-up
# and keeps the floor -inf. The slack covers rounding. Each value read is a few
# roundings, a few 1e-16 relative, from its exact value, on magnitudes near
# |M0| + B for any action that can compete with c. A node with two actions or
# more has n >= 2 when it scans, so B / B0 <= sqrt(log(budget) / log(2)),
# under 5 for any budget below 1e7. The slack, 1e-9 * (|M0| + B0 + 1), thus
# exceeds the rounding error more than 1e5-fold. A tie never passes the strict
# check, so ties still go to the lowest index, and the tree is the one a scan
# at every visit grows. q_i and s_i are computed where they are read, from wa,
# na and inv_of: the floats ``w / count`` and ``inv_of[count]`` that a backup
# would otherwise store.


class _Node:
    """Per-tree visit statistics at one kernel node.

    A node is expanded exactly when ``na`` is non-empty, as NOOP is always legal.
    ``choice`` is the action its last UCB1 scan picked and ``floor`` the bound
    that certifies it until the next scan (see :func:`mcts_search`); a node with
    one action has no runner-up, so its floor is ``-inf`` and it never scans.
    """

    __slots__ = ("children", "n", "na", "wa", "untried", "choice", "floor")

    def __init__(self) -> None:
        self.children: list = []
        self.n = 0
        self.na: list[int] = []
        self.wa: list[float] = []
        self.untried = 0               # index of the first never-tried action
        self.choice = 0
        self.floor = math.inf          # fails every check: the first choice scans

    def expand(self, n: int) -> None:
        self.children = [None] * n
        self.na = [0] * n
        self.wa = [0.0] * n
        if n == 1:
            self.floor = -math.inf


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
    A fully tried node keeps its last UCB1 choice while a per-node certificate
    proves that a scan of its actions would return it again, which leaves the
    tree, the value and the random stream those of a scan at every visit.
    An active table's massless vector raises :class:`.model.ModelInvariantError`,
    as :func:`.kernel.mass_support` does; a departed table's is searched as a
    point mass, which never draws.
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
    root_state = kernel.node(b.robot, b.observables)
    mass_support(root_state.observables, b.satisfaction)
    # A table's level enters the joint code times its place value k**i. A
    # one-level support never draws, so it is folded into ``base``; the others
    # carry their levels pre-scaled. A departed table's edges keep every level
    # and pay 0: a massless one takes level 0.
    base = 0
    draws = []
    place = 1
    for vec in b.satisfaction:
        support = tuple((s * place, p) for s, p in enumerate(vec) if p > 0.0) or ((0, 1.0),)
        if len(support) == 1:
            base += support[0][0]
        else:
            draws.append(support)
        place *= k
    # UCB1 terms by integer: bonus_of[n] = exploration * sqrt(log(n)) for a
    # node visited n times, inv_of[c] = 1 / sqrt(c) for an action taken c
    # times. Simulation s can read at most n = s - 1 and write c = s, so each
    # simulation appends one entry to each; entry 0 is never read.
    bonus_of = [0.0]
    inv_of = [0.0]
    root = _Node()
    for sim in range(1, budget + 1):
        bonus_of.append(exploration * sqrt(log(sim)))
        inv_of.append(1.0 / sqrt(sim))
        code = base
        for support in draws:
            code += sample_outcome(support, internal)[0]
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
                untried = node.untried
                if untried < len(na):
                    idx = untried
                    node.untried = untried + 1
                else:
                    bonus = bonus_of[node.n]
                    wa = node.wa
                    idx = node.choice
                    count = na[idx]
                    # The certificate: see the comment above _Node. A NaN
                    # anywhere fails it, and the scan is always exact.
                    if not wa[idx] / count + bonus * inv_of[count] - bonus > node.floor:
                        idx = 0
                        best_u = wa[0] / na[0] + bonus * inv_of[na[0]]
                        runner_up = -math.inf
                        for i in range(1, len(na)):
                            count = na[i]
                            u = wa[i] / count + bonus * inv_of[count]
                            if u > best_u:
                                idx, best_u, runner_up = i, u, best_u
                            elif u > runner_up:
                                runner_up = u
                        node.choice = idx
                        node.floor = runner_up - bonus + 1e-9 * (abs(runner_up) + bonus + 1.0)
            else:
                n_acts = len(state.actions or actions(state))
                if node is not None:
                    node.expand(n_acts)
                    node = None
                idx = randrange(n_acts)
            edge = state.edges[idx]
            if edge is None:
                edge = joint_edge(state, idx)
            if edge.serve is None:
                code, r = edge[code]
            else:
                u = rand()
                for cum, next_code, r in edge[code]:
                    if u < cum:
                        break
                code = next_code
            if node is None:
                tail += discount * r
                discount *= gamma_pow[edge.duration]
            else:
                child = node.children[idx]
                if child is None:
                    child = node.children[idx] = _Node()
                path.append((node, idx, r, gamma_pow[edge.duration]))
                node = child
            state = edge.next
        value = tail
        for nd, idx, r, g in reversed(path):
            value = r + g * value
            nd.na[idx] += 1
            nd.wa[idx] += value
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
        """Filled edge slots, keyed by (node key, action): sibling slots that
        share one :class:`.kernel.JointEdge` count once each."""
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
        distinct = {id(e): e for edge in self.joint_edges.values() for e in edge.tables}
        return list(distinct.values())


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
    if spec.kind == "random":
        return RandomPolicy(cfg)
    if spec.kind == "fcfs":
        return FcfsPolicy(cfg)
    if spec.kind == "greedy":
        return GreedyPolicy(cfg)
    if spec.kind == "mcts":
        return MctsPolicy(cfg, spec)
    return ExpectimaxPolicy(cfg, spec)
