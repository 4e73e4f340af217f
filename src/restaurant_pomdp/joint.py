"""Composition of the per-table processes into one joint model.

The tables share only the robot: executing an action on table *i* lets every
other table evolve as if under no-op for the action's duration, and the joint
reward is the sum of per-table rewards. Because at most one table (the serve
target) transitions stochastically per action, exhaustive enumeration of the
joint next-state distribution always has support size at most two.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import RestaurantConfig
from .dynamics import action_duration, next_robot
from .kernel import table_kernel
from .model import (
    Action,
    IllegalActionError,
    JointState,
    Observation,
    legal_actions,
    observe,
    table_from_observation,
)
from .rewards import table_transition_outcomes

DEFAULT_SUPPORT_CAP = 100_000


class SupportCapError(ValueError):
    """Exhaustive enumeration would exceed the configured support cap."""


@dataclass(frozen=True, slots=True)
class JointStepResult:
    next: JointState
    obs: tuple[Observation, ...]
    reward: float
    duration: int
    table_rewards: tuple[float, ...]


def _check_legal(js: JointState, action: Action, cfg: RestaurantConfig) -> None:
    if action not in legal_actions(js, cfg):
        raise IllegalActionError(f"{action} is not legal in the current state")


def step_joint(
    js: JointState, action: Action, cfg: RestaurantConfig, rng: np.random.Generator
) -> JointStepResult:
    """Execute one action on the joint state, sampling the serve outcome.

    Observes the tables, reads the action's joint edge from :mod:`.kernel`
    (one node lookup, which raises :class:`.model.IllegalActionError` on an
    illegal action) and samples it with its ``sample``; the robot and
    observations are the next node's. ``harness.run_episode`` runs the same
    step on a node it already holds, without the lookup or the states.
    """
    observables = tuple(observe(ts) for ts in js.tables)
    edge = table_kernel(cfg).step(js.robot, observables, action)
    nxt = edge.next
    sats, rewards = edge.sample(tuple(ts.satisfaction for ts in js.tables), rng)
    tables = tuple(table_from_observation(o, s) for o, s in zip(nxt.observables, sats))
    return JointStepResult(
        next=JointState(robot=nxt.robot, tables=tables, clock=js.clock + edge.duration),
        obs=nxt.observables,
        reward=float(math.fsum(rewards)),
        duration=edge.duration,
        table_rewards=rewards,
    )


def enumerate_joint_transitions(
    js: JointState,
    action: Action,
    cfg: RestaurantConfig,
    cap: int = DEFAULT_SUPPORT_CAP,
) -> list[tuple[JointState, float, float]]:
    """Exact joint distribution ``[(next_state, probability, reward), ...]``.

    The joint distribution is the product of the independent per-table
    distributions; probabilities sum to one.
    """
    _check_legal(js, action, cfg)
    duration = action_duration(js.robot, action, cfg)
    robot = next_robot(js.robot, action, cfg)
    per_table = [
        table_transition_outcomes(ts, action, duration, js.robot, cfg, i)
        for i, ts in enumerate(js.tables)
    ]
    support = 1
    for outcomes in per_table:
        support *= len(outcomes)
    if support > cap:
        raise SupportCapError(f"joint support {support} exceeds cap {cap}")
    result = []
    for combo in itertools.product(*per_table):
        prob = 1.0
        total = 0.0
        for _, p, r in combo:
            prob *= p
            total += r
        next_js = JointState(
            robot=robot,
            tables=tuple(ns for ns, _, _ in combo),
            clock=js.clock + duration,
        )
        result.append((next_js, prob, total))
    return result
