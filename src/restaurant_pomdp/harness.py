"""Seeded episode runner, trace recording, and policy evaluation.

One root seed is split into three independent named streams (initial state,
dynamics, policy) so that swapping the policy never perturbs the environment's
randomness. Episodes are therefore reproducible bit-for-bit, and evaluation
over a seed range gives identical results whether episodes run sequentially
or on parallel workers.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass, fields

import numpy as np

from .belief import (
    Belief,
    Observation,
    ObservationMismatchError,
    belief_init,
    condition,
)
from .config import ConfigError, RestaurantConfig, config_to_dict
from .joint import step_joint
from .kernel import dense_support, table_kernel
from .model import Action, ActionKind, JointState, initial_joint_state, observe
from .planners import PolicySpec, make_policy

TRACE_SCHEMA_VERSION = 1
METRICS_SCHEMA_VERSION = 1


def seed_streams(seed: int) -> tuple[np.random.Generator, ...]:
    """Independent (initial-state, dynamics, policy) generators for one seed."""
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.Generator(np.random.PCG64(c)) for c in children)


@dataclass(frozen=True)
class StepRecord:
    index: int
    clock: int
    action: Action
    duration: int
    observations: tuple[Observation, ...]
    satisfactions: tuple[int, ...]
    belief: tuple[tuple[float, ...], ...]
    table_rewards: tuple[float, ...]
    reward: float
    discounted_return: float


@dataclass(frozen=True)
class EpisodeTrace:
    seed: int
    policy: str
    config: RestaurantConfig
    initial_satisfactions: tuple[int, ...]
    steps: tuple[StepRecord, ...]
    discounted_return: float


@dataclass(frozen=True)
class EpisodeSummary:
    seed: int
    discounted_return: float
    final_satisfactions: tuple[int, ...]
    max_wait: int
    tables_done: tuple[bool, ...]
    n_steps: int


@dataclass(frozen=True)
class Metrics:
    episodes: int
    mean_return: float
    stddev_return: float
    mean_final_satisfaction: tuple[float, ...]
    mean_max_wait: float
    completion_rate: float


def run_episode(policy, cfg: RestaurantConfig, seed: int) -> EpisodeTrace:
    """One seeded episode; ends at the horizon or when every table is done.

    ``policy`` is either a :class:`PolicySpec` or an object with an
    ``act(belief, rng) -> Action`` method.

    The loop keeps its place in the kernel's joint-state graph: each step
    follows the action's joint edge from the current node (raising
    :class:`.model.IllegalActionError` on an illegal action), and the
    simulator (the edge's :meth:`~.kernel.JointEdge.sample`) and the filter
    (its :meth:`~.kernel.JointEdge.predict`, then :func:`.belief.condition`)
    both read that edge. The states and beliefs are those of :func:`.joint.step_joint`
    and :func:`.belief.belief_step`, draw for draw.
    """
    if isinstance(policy, PolicySpec):
        label = policy.kind
        policy = make_policy(policy, cfg)
    else:
        label = type(policy).__name__
    kernel = table_kernel(cfg)
    init_rng, dyn_rng, pol_rng = seed_streams(seed)
    js = initial_joint_state(cfg, init_rng)
    initial_sats = sats = tuple(ts.satisfaction for ts in js.tables)
    node = kernel.node(js.robot, tuple(observe(ts) for ts in js.tables))
    belief = belief_init(cfg)
    if belief.robot != node.robot or belief.observables != node.observables:
        raise ObservationMismatchError(
            f"initial belief ({belief.robot}, {belief.observables}) does not match "
            f"the initial state ({node.robot}, {node.observables})"
        )
    # The belief's observables stay the node's: both follow the same edge.
    steps: list[StepRecord] = []
    clock = js.clock
    ret = 0.0
    while clock < cfg.horizon and not node.done:
        action = policy.act(belief, pol_rng)
        edge = kernel.follow(node, action)
        duration, nxt = edge.duration, edge.next
        sats, table_rewards = edge.sample(sats, dyn_rng)
        reward = math.fsum(table_rewards)
        vecs = belief.satisfaction
        predicted = edge.predict(vecs, dense_support(vecs))
        belief = condition(Belief(nxt.robot, nxt.observables, predicted), nxt.observables)
        ret += cfg.gamma**clock * reward
        clock += duration
        node = nxt
        steps.append(
            StepRecord(
                index=len(steps),
                clock=clock,
                action=action,
                duration=duration,
                observations=nxt.observables,
                satisfactions=sats,
                belief=belief.satisfaction,
                table_rewards=table_rewards,
                reward=reward,
                discounted_return=ret,
            )
        )
    return EpisodeTrace(
        seed=seed,
        policy=label,
        config=cfg,
        initial_satisfactions=initial_sats,
        steps=tuple(steps),
        discounted_return=ret,
    )


def expected_return(spec: PolicySpec, cfg: RestaurantConfig) -> float:
    """Exact expected discounted return of a deterministic policy.

    Observations carry no evidence about satisfaction, so the belief process
    is deterministic and a policy that draws nothing plays one belief path,
    whatever the seed. The walk follows it from the initial belief, adding
    ``gamma**clock`` times the edge's :meth:`~.kernel.JointEdge.expected_reward`
    at each step and moving the vectors with its
    :meth:`~.kernel.JointEdge.predict`, as :func:`run_episode`'s filter does;
    it stops at the horizon or when every table is done. ``random`` and
    ``mcts`` draw from their random stream and raise :class:`.config.ConfigError`.
    """
    if spec.kind in ("random", "mcts"):
        raise ConfigError(
            f"expected_return needs a policy that draws nothing; {spec.kind} draws "
            "from its random stream"
        )
    policy = make_policy(spec, cfg)
    kernel = table_kernel(cfg)
    belief = belief_init(cfg)
    node = kernel.node(belief.robot, belief.observables)
    clock = 0
    total = 0.0
    while clock < cfg.horizon and not node.done:
        edge = kernel.follow(node, policy.act(belief, None))
        vecs = belief.satisfaction
        total += cfg.gamma**clock * edge.expected_reward(dense_support(vecs))
        node = edge.next
        belief = Belief(node.robot, node.observables, edge.predict(vecs, dense_support(vecs)))
        clock += edge.duration
    return total


def replay_actions(
    cfg: RestaurantConfig, seed: int, actions: list[Action]
) -> list[JointState]:
    """Re-simulate a recorded action sequence under the same seed.

    Only the initial-state and dynamics streams are consumed, exactly as in
    :func:`run_episode`, so the visited states match the original episode.
    """
    init_rng, dyn_rng, _ = seed_streams(seed)
    js = initial_joint_state(cfg, init_rng)
    visited = [js]
    for action in actions:
        js = step_joint(js, action, cfg, dyn_rng).next
        visited.append(js)
    return visited


def summarize(trace: EpisodeTrace) -> EpisodeSummary:
    if trace.steps:
        last = trace.steps[-1]
        finals = last.satisfactions
        dones = tuple(o.hand_raise == 0 for o in last.observations)
        max_wait = max(
            (o.t_since_request for s in trace.steps for o in s.observations),
            default=0,
        )
    else:
        finals = trace.initial_satisfactions
        dones = tuple(False for _ in range(trace.config.n_tables))
        max_wait = 0
    return EpisodeSummary(
        seed=trace.seed,
        discounted_return=trace.discounted_return,
        final_satisfactions=finals,
        max_wait=max_wait,
        tables_done=dones,
        n_steps=len(trace.steps),
    )


def aggregate(summaries: list[EpisodeSummary], n_tables: int) -> Metrics:
    n = len(summaries)
    returns = [s.discounted_return for s in summaries]
    mean = math.fsum(returns) / n
    if n > 1:
        var = math.fsum((r - mean) ** 2 for r in returns) / (n - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    per_table = tuple(
        math.fsum(s.final_satisfactions[i] for s in summaries) / n
        for i in range(n_tables)
    )
    mean_wait = math.fsum(s.max_wait for s in summaries) / n
    done_count = sum(sum(s.tables_done) for s in summaries)
    return Metrics(
        episodes=n,
        mean_return=mean,
        stddev_return=std,
        mean_final_satisfaction=per_table,
        mean_max_wait=mean_wait,
        completion_rate=done_count / (n * n_tables),
    )


def _episode_summary(args) -> EpisodeSummary:
    spec, cfg, seed = args
    return summarize(run_episode(spec, cfg, seed))


def run_batch(
    spec: PolicySpec,
    cfg: RestaurantConfig,
    episodes: int,
    base_seed: int,
    workers: int = 1,
) -> list[EpisodeSummary]:
    """Summaries for episodes seeded ``base_seed .. base_seed + episodes - 1``."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    jobs = [(spec, cfg, seed) for seed in range(base_seed, base_seed + episodes)]
    if workers == 1:
        return [_episode_summary(job) for job in jobs]
    # Imported here: it loads multiprocessing, which a serial run never needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_episode_summary, jobs, chunksize=8))


def evaluate(
    spec: PolicySpec,
    cfg: RestaurantConfig,
    episodes: int,
    base_seed: int,
    workers: int = 1,
) -> Metrics:
    """Aggregate metrics over a seed range; order-independent reduction."""
    return aggregate(run_batch(spec, cfg, episodes, base_seed, workers), cfg.n_tables)


def paired_difference(a: list[float], b: list[float]) -> tuple[float, float]:
    """Mean of ``a[i] - b[i]`` over shared seeds and its standard error.

    The standard error is 0.0 for a single pair.
    """
    diffs = [x - y for x, y in zip(a, b, strict=True)]
    n = len(diffs)
    mean = math.fsum(diffs) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((d - mean) ** 2 for d in diffs) / (n - 1)
    return mean, math.sqrt(var / n)


# --- Trace serialization (JSON lines, one step per line) ----------------------


def _action_from_doc(doc: dict) -> Action:
    return Action(ActionKind(doc["kind"]), doc.get("table"))


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# Step lines are formatted from text templates with the keys in sorted order,
# so they read as ``_dumps`` of the step's dict would, byte for byte.
_OBSERVATION_FIELDS = tuple(sorted(f.name for f in fields(Observation)))
_OBSERVATION_TEXT = "{" + ",".join(f'"{name}":%r' for name in _OBSERVATION_FIELDS) + "}"
_observation_values = operator.attrgetter(*_OBSERVATION_FIELDS)
_STEP_TEXT = (
    '{"action":%s,"belief":%s,"clock":%r,"discounted_return":%s,"duration":%r,'
    '"index":%r,"kind":"step","observations":[%s],"reward":%s,'
    '"satisfactions":%s,"table_rewards":%s}'
)


def _numbers_text(value) -> str:
    """JSON text of a number, a list of numbers or a list of such lists.

    For ints and finite floats it is Python's repr without spaces. Only the
    reprs of ``nan`` and ``inf`` hold an ``n``; json spells those ``NaN`` and
    ``Infinity``.
    """
    text = repr(value).replace(" ", "")
    return json.dumps(value, separators=(",", ":")) if "n" in text else text


def _action_text(action: Action) -> str:
    if action.table is None:
        return '{"kind":"%s"}' % action.kind.value
    return '{"kind":"%s","table":%r}' % (action.kind.value, action.table)


def write_trace_jsonl(trace: EpisodeTrace, path: str) -> None:
    header = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "kind": "header",
        "seed": trace.seed,
        "policy": trace.policy,
        "config": config_to_dict(trace.config),
        "initial_satisfactions": list(trace.initial_satisfactions),
        "discounted_return": trace.discounted_return,
    }
    lines = [_dumps(header)]
    for step in trace.steps:
        observations = ",".join(
            _OBSERVATION_TEXT % _observation_values(o) for o in step.observations
        )
        lines.append(
            _STEP_TEXT
            % (
                _action_text(step.action),
                _numbers_text([list(v) for v in step.belief]),
                step.clock,
                _numbers_text(step.discounted_return),
                step.duration,
                step.index,
                observations,
                _numbers_text(step.reward),
                _numbers_text(list(step.satisfactions)),
                _numbers_text(list(step.table_rewards)),
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_actions(path: str) -> tuple[int, list[Action]]:
    """Seed and action sequence of a stored trace (enough to replay it).

    Raises ``ValueError`` naming ``path`` unless the first line is a trace
    header of schema version :data:`TRACE_SCHEMA_VERSION`.
    """
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise ValueError(f"{path}: the first line is not a trace header")
        version = header.get("schema_version")
        if version != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: trace schema_version {version!r}, expected {TRACE_SCHEMA_VERSION}"
            )
        actions = [json.loads(line)["action"] for line in fh if line.strip()]
    return header["seed"], [_action_from_doc(a) for a in actions]


# --- Metrics serialization (CSV) ----------------------------------------------

METRICS_COLUMNS = (
    "schema_version",
    "policy",
    "episodes",
    "base_seed",
    "mean_return",
    "stddev_return",
    "mean_final_satisfaction",
    "mean_max_wait",
    "completion_rate",
)


def metrics_csv_row(policy_label: str, base_seed: int, metrics: Metrics) -> str:
    sat = "|".join(repr(v) for v in metrics.mean_final_satisfaction)
    values = (
        str(METRICS_SCHEMA_VERSION),
        policy_label,
        str(metrics.episodes),
        str(base_seed),
        repr(metrics.mean_return),
        repr(metrics.stddev_return),
        sat,
        repr(metrics.mean_max_wait),
        repr(metrics.completion_rate),
    )
    return ",".join(values)


def append_metrics_csv(path: str, policy_label: str, base_seed: int, metrics: Metrics) -> None:
    new_file = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a") as fh:
        if new_file:
            fh.write(",".join(METRICS_COLUMNS) + "\n")
        fh.write(metrics_csv_row(policy_label, base_seed, metrics) + "\n")
