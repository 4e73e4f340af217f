"""Observations and the exact satisfaction filter.

Satisfaction is the single hidden variable, so the belief is an exact
categorical vector per table plus the fully observed rest of the state.
Observations are deterministic copies of the observable variables and carry
no evidence about satisfaction, which means the Bayes update reduces to the
prediction step; the conditioning step is checked to be a no-op.
``Observation``, ``observe`` and ``table_from_observation`` live in
:mod:`.model` and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ConfigError, RestaurantConfig
from .kernel import TableEdge, table_kernel
from .model import (
    Action,
    ModelInvariantError,
    Observation,
    RobotState,
    fresh_table,
    observe,
    table_from_observation,
)

BELIEF_SUM_TOLERANCE = 1e-9


class ObservationMismatchError(ValueError):
    """An observation disagreed with the deterministic observable prediction.

    In this domain the observable variables evolve deterministically, so any
    mismatch indicates a model/simulator bug, never noise.
    """


@dataclass(frozen=True, slots=True)
class Belief:
    """Robot state, per-table observables, and per-table satisfaction vectors."""

    robot: RobotState
    observables: tuple[Observation, ...]
    satisfaction: tuple[tuple[float, ...], ...]


def belief_init(cfg: RestaurantConfig) -> Belief:
    """Initial belief: configured prior per table, fresh observable state."""
    prior = cfg.satisfaction_prior
    if prior is None:
        raise ConfigError("config must be validated first: satisfaction_prior is unset")
    obs = observe(fresh_table(0))
    return Belief(
        robot=RobotState(*cfg.robot_start),
        observables=(obs,) * cfg.n_tables,
        satisfaction=(tuple(prior),) * cfg.n_tables,
    )


def belief_predict(b: Belief, action: Action, cfg: RestaurantConfig) -> tuple[Belief, int]:
    """Push the belief through the action's dynamics; returns (belief, duration).

    Reads the action's joint edge from :mod:`.kernel`, which raises
    :class:`.model.IllegalActionError` on an illegal action, and propagates
    the satisfaction vectors with :func:`edge_predict`. The observable part
    advances deterministically and identically for every satisfaction value,
    which the kernel checks when it fills an edge, so the next observables
    are the next node's.
    """
    duration, nxt, _, tables = table_kernel(cfg).step(b.robot, b.observables, action)
    return (
        Belief(
            robot=nxt.robot,
            observables=nxt.observables,
            satisfaction=edge_predict(b.observables, b.satisfaction, tables),
        ),
        duration,
    )


def edge_predict(
    observables: tuple[Observation, ...],
    satisfaction: tuple[tuple[float, ...], ...],
    tables: tuple[TableEdge, ...],
) -> tuple[tuple[float, ...], ...]:
    """Per-table satisfaction vectors after one joint edge.

    Each active table's vector is propagated through the satisfaction rows of
    its table edge in ``tables`` (a joint edge's last field); a departed
    table's vector is kept as it is. An active table whose vector has no mass
    raises :class:`.model.ModelInvariantError`.
    """
    new_vecs: list[tuple[float, ...]] = []
    for i, (obs, vec, edge) in enumerate(zip(observables, satisfaction, tables)):
        if obs.hand_raise == 0:
            new_vecs.append(vec)
            continue
        rows = edge.rows
        out = [0.0] * len(vec)
        has_mass = False
        for sat, p in enumerate(vec):
            if p == 0.0:
                continue
            has_mass = True
            for ns, q, _ in rows[sat]:
                out[ns] += p * q
        if not has_mass:
            raise ModelInvariantError(f"table {i}: belief vector has no mass")
        new_vecs.append(tuple(out))
    return tuple(new_vecs)


def belief_step(
    b: Belief,
    action: Action,
    duration: int,
    z: tuple[Observation, ...],
    cfg: RestaurantConfig,
) -> Belief:
    """Exact filter step: predict through the dynamics, then condition on ``z``.

    Predicts with :func:`belief_predict` (one node lookup), checks that
    ``duration`` is the action's, then applies :func:`condition`.
    ``harness.run_episode`` runs the same step on the joint edge it already
    holds, as :func:`edge_predict` followed by :func:`condition`.
    """
    predicted, d = belief_predict(b, action, cfg)
    if duration != d:
        raise ValueError(f"duration {duration} does not match action duration {d}")
    return condition(predicted, z)


def condition(predicted: Belief, z: tuple[Observation, ...]) -> Belief:
    """Condition a predicted belief on the observations ``z``.

    ``z`` must equal the predicted observables, or
    :class:`ObservationMismatchError` is raised. The observation likelihood is
    an indicator on the observable variables and is constant in
    satisfaction, so conditioning must leave the satisfaction marginal
    untouched; a vector that no longer sums to one raises
    :class:`.model.ModelInvariantError` rather than being renormalized.
    """
    if z != predicted.observables:
        if len(z) != len(predicted.observables):
            raise ObservationMismatchError(
                f"expected {len(predicted.observables)} observations, got {len(z)}"
            )
        for i, (zi, oi) in enumerate(zip(z, predicted.observables)):
            if zi != oi:
                raise ObservationMismatchError(
                    f"table {i}: observed {zi}, predicted {oi}"
                )
    # Conditioning on a satisfaction-independent likelihood is the identity.
    for i, vec in enumerate(predicted.satisfaction):
        total = sum(vec)
        if not abs(total - 1.0) < BELIEF_SUM_TOLERANCE:
            raise ModelInvariantError(f"table {i}: belief vector drifted, sums to {total}")
    return predicted
