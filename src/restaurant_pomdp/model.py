"""Core state and action types for the one-robot, N-table service domain.

The joint state factors into a shared robot position and one independently
evolving state per table. A table's satisfaction is the only hidden variable;
everything else is observable. Tables are value types: all operations return
new instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import RestaurantConfig


class IllegalActionError(ValueError):
    """An action was applied in a state where it is not legal."""


class ModelInvariantError(RuntimeError):
    """A structural property of the model failed to hold.

    Raised instead of ``assert`` so the check survives ``python -O``: a
    belief that no longer sums to one, an observable prediction that depends
    on satisfaction, or a cached edge of the wrong shape.
    """


class ActionKind(str, Enum):
    GO_TO = "go_to"
    SERVE = "serve"
    COMM_FOOD_NOT_READY = "comm_food_not_ready"
    COMM_WILL_RETURN = "comm_will_return"
    NO_OP = "noop"


@dataclass(frozen=True, slots=True)
class Action:
    """A robot action, tagged with its target table (``None`` for no-op)."""

    kind: ActionKind
    table: int | None = None


def go_to(table: int) -> Action:
    return Action(ActionKind.GO_TO, table)


def serve(table: int) -> Action:
    return Action(ActionKind.SERVE, table)


def comm_food_not_ready(table: int) -> Action:
    return Action(ActionKind.COMM_FOOD_NOT_READY, table)


def comm_will_return(table: int) -> Action:
    return Action(ActionKind.COMM_WILL_RETURN, table)


NOOP = Action(ActionKind.NO_OP)

# Fixed total ordering used for deterministic tie-breaking everywhere.
KIND_ORDER = {
    ActionKind.SERVE: 0,
    ActionKind.GO_TO: 1,
    ActionKind.COMM_FOOD_NOT_READY: 2,
    ActionKind.COMM_WILL_RETURN: 3,
    ActionKind.NO_OP: 4,
}


def action_sort_key(action: Action) -> tuple[int, int]:
    return (KIND_ORDER[action.kind], -1 if action.table is None else action.table)


@dataclass(frozen=True, slots=True)
class RobotState:
    x: int
    y: int

    def pos(self) -> tuple[int, int]:
        return (self.x, self.y)


# Request stages, in the order every table walks through them.
REQUEST_WANT_MENU = 1
REQUEST_READY_TO_ORDER = 2
REQUEST_WANT_FOOD = 3
REQUEST_WANT_DRINKS = 4
REQUEST_WANT_BILL = 5
REQUEST_CASH_READY = 6
REQUEST_CASH_COLLECTED = 7
REQUEST_CLEAN_TABLE = 8


@dataclass(frozen=True, slots=True)
class TableState:
    """One table's state: hidden satisfaction plus eight observable variables."""

    satisfaction: int
    food: int
    water: int
    cooking_status: int
    current_request: int
    hand_raise: int
    t_since_served: int
    t_since_food_ready: int
    t_since_request: int

    @property
    def done(self) -> bool:
        return self.hand_raise == 0


@dataclass(frozen=True, slots=True)
class Observation:
    """The eight observable variables of one table (satisfaction excluded)."""

    food: int
    water: int
    cooking_status: int
    current_request: int
    hand_raise: int
    t_since_served: int
    t_since_food_ready: int
    t_since_request: int


def observe(ts_next: TableState) -> Observation:
    """Deterministic observation of a table: everything except satisfaction."""
    return Observation(
        food=ts_next.food,
        water=ts_next.water,
        cooking_status=ts_next.cooking_status,
        current_request=ts_next.current_request,
        hand_raise=ts_next.hand_raise,
        t_since_served=ts_next.t_since_served,
        t_since_food_ready=ts_next.t_since_food_ready,
        t_since_request=ts_next.t_since_request,
    )


def table_from_observation(obs: Observation, satisfaction: int) -> TableState:
    return TableState(
        satisfaction=satisfaction,
        food=obs.food,
        water=obs.water,
        cooking_status=obs.cooking_status,
        current_request=obs.current_request,
        hand_raise=obs.hand_raise,
        t_since_served=obs.t_since_served,
        t_since_food_ready=obs.t_since_food_ready,
        t_since_request=obs.t_since_request,
    )


def fresh_table(satisfaction: int) -> TableState:
    """A table at the start of its dining process (wants the menu)."""
    return TableState(
        satisfaction=satisfaction,
        food=0,
        water=0,
        cooking_status=0,
        current_request=REQUEST_WANT_MENU,
        hand_raise=1,
        t_since_served=0,
        t_since_food_ready=0,
        t_since_request=0,
    )


@dataclass(frozen=True, slots=True)
class JointState:
    robot: RobotState
    tables: tuple[TableState, ...]
    clock: int


def manhattan(a: tuple[int, int], b: tuple[int, int]) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def all_done(js: JointState) -> bool:
    return all(ts.done for ts in js.tables)


def sample_outcome(outcomes, rng):
    """One entry of ``outcomes``, tuples whose second item is a probability.

    ``rng`` is any generator with a ``random()`` method, a NumPy
    ``Generator`` or a ``random.Random``. It draws a uniform only when there
    is more than one outcome, so a deterministic transition leaves the random
    stream untouched; a uniform at or above the probabilities' float sum
    selects the last outcome.
    """
    if len(outcomes) == 1:
        return outcomes[0]
    u = rng.random()
    acc = 0.0
    for outcome in outcomes:
        acc += outcome[1]
        if u < acc:
            return outcome
    return outcomes[-1]


def initial_joint_state(cfg: RestaurantConfig, rng: np.random.Generator) -> JointState:
    """Fresh restaurant: robot at its start cell, every table wanting the menu.

    Each table's satisfaction is drawn independently from the configured
    prior, so identical seeds give identical initial states.
    """
    levels = tuple(enumerate(cfg.satisfaction_prior))
    tables = tuple(
        fresh_table(sample_outcome(levels, rng)[0]) for _ in range(cfg.n_tables)
    )
    return JointState(robot=RobotState(*cfg.robot_start), tables=tables, clock=0)


def serve_blocked(ts: TableState | Observation) -> bool:
    """Serving is gated only while the table waits for food that is not ready.

    Reads only observable variables, so a table's observation will do.
    """
    return ts.current_request == REQUEST_WANT_FOOD and ts.cooking_status < 2


def legal_actions(js: JointState, cfg: RestaurantConfig) -> set[Action]:
    """Actions available in ``js``; never empty because no-op is always legal."""
    acts = {NOOP}
    robot_pos = js.robot.pos()
    for i, ts in enumerate(js.tables):
        if ts.done:
            continue
        at_table = robot_pos == cfg.table_positions[i]
        if not at_table:
            acts.add(go_to(i))
        blocked = serve_blocked(ts)
        if at_table and not blocked:
            acts.add(serve(i))
        if blocked:
            acts.add(comm_food_not_ready(i))
        acts.add(comm_will_return(i))
    return acts
