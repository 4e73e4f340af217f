"""Self-contained verification oracles for a small, enumerable instance.

These are the checks behind the CLI ``verify`` subcommand: exhaustive
transition row sums over the reachable state space, the exact filter against
brute-force forward enumeration, a fixed reward spot table, per-table
marginal consistency of the joint model, and the expected reward every
planner reads from :mod:`.kernel` against an enumeration of joint
satisfaction assignments. The unit and acceptance suites call these same
functions, so ``verify`` re-validates a built artifact in the field with
exactly the oracles the tests use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .belief import Belief, belief_init, belief_step, observe
from .config import RestaurantConfig, validate_config
from .dynamics import action_duration, transition_distribution
from .joint import (
    DEFAULT_SUPPORT_CAP,
    SupportCapError,
    enumerate_joint_transitions,
    step_joint,
)
from .model import (
    Action,
    JointState,
    NOOP,
    RobotState,
    TableState,
    action_sort_key,
    all_done,
    fresh_table,
    go_to,
    initial_joint_state,
    legal_actions,
    serve,
    table_from_observation,
)
from .rewards import expected_reward, reward

DEFAULT_STATE_CAP = 200_000
TOLERANCE = 1e-9
# Relative, for two summation orders of the same expected reward.
REL_TOLERANCE = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _canonical(js: JointState) -> JointState:
    return JointState(robot=js.robot, tables=js.tables, clock=0)


def reachable_joint_states(
    cfg: RestaurantConfig, cap: int = DEFAULT_STATE_CAP
) -> list[JointState]:
    """All clock-stripped joint states reachable from the initial states.

    Explores every legal action and every stochastic outcome. Raises
    :class:`SupportCapError` once more than ``cap`` distinct states are seen.
    """
    cfg = validate_config(cfg)
    prior = cfg.satisfaction_prior
    assert prior is not None
    support = [s for s, p in enumerate(prior) if p > 0.0]
    robot = RobotState(*cfg.robot_start)

    frontier: list[JointState] = []
    seen: set[JointState] = set()
    for combo in itertools.product(support, repeat=cfg.n_tables):
        js = JointState(
            robot=robot, tables=tuple(fresh_table(s) for s in combo), clock=0
        )
        frontier.append(js)
        seen.add(js)
    while frontier:
        js = frontier.pop()
        for action in legal_actions(js, cfg):
            for nxt, p, _ in enumerate_joint_transitions(js, action, cfg):
                if p == 0.0:
                    continue
                canon = _canonical(nxt)
                if canon not in seen:
                    seen.add(canon)
                    if len(seen) > cap:
                        raise SupportCapError(
                            f"reachable state count exceeds cap {cap}"
                        )
                    frontier.append(canon)
    return sorted(
        seen,
        key=lambda s: (s.robot.x, s.robot.y, tuple(map(astuple, s.tables))),
    )


def check_transition_row_sums(
    cfg: RestaurantConfig, cap: int = DEFAULT_STATE_CAP
) -> CheckResult:
    """Every reachable (state, action) row of the joint model sums to one."""
    cfg = validate_config(cfg)
    states = reachable_joint_states(cfg, cap)
    worst = 0.0
    rows = 0
    for js in states:
        for action in legal_actions(js, cfg):
            entries = enumerate_joint_transitions(js, action, cfg)
            total = math.fsum(p for _, p, _ in entries)
            worst = max(worst, abs(total - 1.0))
            rows += 1
            if abs(total - 1.0) > TOLERANCE:
                return CheckResult(
                    "transition_row_sums",
                    False,
                    f"row sum {total} for {action} in state {js}",
                )
    return CheckResult(
        "transition_row_sums",
        True,
        f"{rows} rows over {len(states)} states, worst deviation {worst:.2e}",
    )


def check_reward_spot_table(cfg: RestaurantConfig) -> CheckResult:
    """Five fixed-value reward probes on a single-table, sat_max=5 instance.

    Uses the candidate config's reward parameters, so tampering with them is
    detected against the frozen expected values.
    """
    cfg = validate_config(cfg)
    probe_cfg = validate_config(
        RestaurantConfig(
            n_tables=1,
            table_positions=((2, 2),),
            robot_start=(0, 0),
            sat_max=5,
            reward=cfg.reward,
        )
    )

    def table(sat: int, t_req: int = 0) -> TableState:
        return TableState(sat, 0, 0, 0, 1, 1, 0, 0, t_req)

    robot = RobotState(4, 4)
    cases = [
        (
            "serve ending very unsatisfied",
            reward(table(0), serve(0), table(0), robot, probe_cfg, 0),
            30.0,
        ),
        (
            "go-to from distance 6",
            reward(table(3), go_to(0), table(3), RobotState(4, 6), probe_cfg, 0),
            -2.0,
        ),
        (
            "waiting, next satisfaction 1, wait 3",
            reward(table(1, t_req=3), NOOP, table(1, t_req=4), robot, probe_cfg, 0),
            -(1.7**3),
        ),
        (
            "improvement into comfortable range",
            reward(table(3), NOOP, table(4), robot, probe_cfg, 0),
            1.0,
        ),
        (
            "comfortable and unchanged",
            reward(table(3), NOOP, table(3), robot, probe_cfg, 0),
            0.0,
        ),
    ]
    for name, got, want in cases:
        if abs(got - want) > TOLERANCE:
            return CheckResult(
                "reward_spot_table", False, f"{name}: got {got}, expected {want}"
            )
    return CheckResult("reward_spot_table", True, f"{len(cases)} probes matched")


def _forward_enumeration_step(
    dist: dict[tuple[TableState, ...], float],
    action: Action,
    duration: int,
    cfg: RestaurantConfig,
) -> dict[tuple[TableState, ...], float]:
    """Push an exact distribution over full table tuples through one action."""
    out: dict[tuple[TableState, ...], float] = {}
    for tables, p in dist.items():
        per_table = [
            transition_distribution(ts, action, duration, cfg, i)
            for i, ts in enumerate(tables)
        ]
        for combo in itertools.product(*per_table):
            q = p
            for _, pq in combo:
                q *= pq
            key = tuple(ns for ns, _ in combo)
            out[key] = out.get(key, 0.0) + q
    return out


def check_filter_vs_enumeration(
    cfg: RestaurantConfig,
    sequences: int = 20,
    length: int = 20,
    seed: int = 20240901,
) -> CheckResult:
    """The exact filter equals brute-force forward enumeration of full states.

    Follows random simulated trajectories; at each step the filter's
    satisfaction marginal must match the enumerated joint distribution's
    marginal to within 1e-9 after conditioning on the actual observation.
    """
    cfg = validate_config(cfg)
    prior = cfg.satisfaction_prior
    assert prior is not None
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(sequences):
        init_rng = np.random.default_rng(int(rng.integers(2**63)))
        js = initial_joint_state(cfg, init_rng)
        belief = belief_init(cfg)
        dist: dict[tuple[TableState, ...], float] = {}
        support = [(s, p) for s, p in enumerate(prior) if p > 0.0]
        for combo in itertools.product(support, repeat=cfg.n_tables):
            prob = 1.0
            for _, p in combo:
                prob *= p
            dist[tuple(fresh_table(s) for s, _ in combo)] = prob
        for _ in range(length):
            if all_done(js):
                break
            acts = sorted(legal_actions(js, cfg), key=action_sort_key)
            action = acts[int(rng.integers(len(acts)))]
            result = step_joint(js, action, cfg, rng)
            belief = belief_step(belief, action, result.duration, result.obs, cfg)
            dist = _forward_enumeration_step(dist, action, result.duration, cfg)
            conditioned = {
                tables: p
                for tables, p in dist.items()
                if tuple(observe(ts) for ts in tables) == result.obs
            }
            total = math.fsum(conditioned.values())
            if total <= 0.0:
                return CheckResult(
                    "filter_vs_enumeration", False, "observation outside support"
                )
            dist = {k: v / total for k, v in conditioned.items()}
            for i in range(cfg.n_tables):
                marginal = [0.0] * (cfg.sat_max + 1)
                for tables, p in dist.items():
                    marginal[tables[i].satisfaction] += p
                for s, (a, b) in enumerate(zip(marginal, belief.satisfaction[i])):
                    worst = max(worst, abs(a - b))
                    if abs(a - b) > TOLERANCE:
                        return CheckResult(
                            "filter_vs_enumeration",
                            False,
                            f"table {i} sat {s}: filter {b}, enumeration {a}",
                        )
            js = result.next
    return CheckResult(
        "filter_vs_enumeration",
        True,
        f"{sequences} trajectories of {length} actions, worst gap {worst:.2e}",
    )


def _random_table_state(rng: np.random.Generator, cfg: RestaurantConfig) -> TableState:
    tm = cfg.time_max
    assert tm is not None
    if rng.random() < 0.08:
        # Occasionally a departed (absorbing) table.
        return TableState(
            int(rng.integers(cfg.sat_max + 1)), 3, 3, 2, 8, 0,
            int(rng.integers(tm + 1)), int(rng.integers(tm + 1)),
            int(rng.integers(tm + 1)),
        )
    return TableState(
        satisfaction=int(rng.integers(cfg.sat_max + 1)),
        food=int(rng.integers(4)),
        water=int(rng.integers(4)),
        cooking_status=int(rng.integers(3)),
        current_request=int(rng.integers(1, 9)),
        hand_raise=1,
        t_since_served=int(rng.integers(tm + 1)),
        t_since_food_ready=int(rng.integers(tm + 1)),
        t_since_request=int(rng.integers(tm + 1)),
    )


def random_joint_state(rng: np.random.Generator, cfg: RestaurantConfig) -> JointState:
    """A uniformly scrambled (not necessarily reachable) valid joint state."""
    cfg = validate_config(cfg)
    positions = list(cfg.table_positions) + [cfg.robot_start]
    robot = positions[int(rng.integers(len(positions)))]
    tables = tuple(_random_table_state(rng, cfg) for _ in range(cfg.n_tables))
    return JointState(robot=RobotState(*robot), tables=tables, clock=0)


def check_marginal_consistency(
    cfg: RestaurantConfig, pairs: int = 500, seed: int = 20240902
) -> CheckResult:
    """Per-table marginals of the joint enumeration match the table dynamics."""
    cfg = validate_config(cfg)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        js = random_joint_state(rng, cfg)
        acts = sorted(legal_actions(js, cfg), key=action_sort_key)
        action = acts[int(rng.integers(len(acts)))]
        duration = action_duration(js.robot, action, cfg)
        joint = enumerate_joint_transitions(js, action, cfg)
        for i, ts in enumerate(js.tables):
            marginal: dict[TableState, float] = {}
            for nxt, p, _ in joint:
                key = nxt.tables[i]
                marginal[key] = marginal.get(key, 0.0) + p
            expected: dict[TableState, float] = {}
            for ns, p in transition_distribution(ts, action, duration, cfg, i):
                expected[ns] = expected.get(ns, 0.0) + p
            if set(marginal) != set(expected):
                return CheckResult(
                    "marginal_consistency", False,
                    f"support mismatch for table {i} under {action}",
                )
            for ns, p in expected.items():
                gap = abs(marginal[ns] - p)
                worst = max(worst, gap)
                if gap > TOLERANCE:
                    return CheckResult(
                        "marginal_consistency", False,
                        f"table {i} prob gap {gap} under {action}",
                    )
    return CheckResult(
        "marginal_consistency", True,
        f"{pairs} random (state, action) pairs, worst gap {worst:.2e}",
    )


def expected_reward_by_enumeration(
    b: Belief, action: Action, cfg: RestaurantConfig, cap: int = DEFAULT_SUPPORT_CAP
) -> float:
    """One-step expected reward via exhaustive joint enumeration.

    Sums ``enumerate_joint_transitions`` over every joint satisfaction
    assignment the belief supports, weighted by its probability. It shares no
    code with :func:`.rewards.expected_reward` past the per-table model, so
    agreement between the two is a real check of the kernel's edges. Raises
    :class:`SupportCapError` beyond ``cap`` assignments.
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


def check_expected_reward_vs_enumeration(
    cfg: RestaurantConfig, episodes: int = 20, seed: int = 20240903
) -> CheckResult:
    """The kernel's expected reward equals the joint enumeration's.

    Follows random simulated episodes to the horizon; at every step each
    legal action's :func:`.rewards.expected_reward` under the exact belief
    must match :func:`expected_reward_by_enumeration` to within
    ``REL_TOLERANCE`` of the larger magnitude.
    """
    cfg = validate_config(cfg)
    rng = np.random.default_rng(seed)
    worst = 0.0
    pairs = 0
    for _ in range(episodes):
        js = initial_joint_state(cfg, np.random.default_rng(int(rng.integers(2**63))))
        belief = belief_init(cfg)
        while js.clock < cfg.horizon and not all_done(js):
            acts = sorted(legal_actions(js, cfg), key=action_sort_key)
            for action in acts:
                got = expected_reward(belief, action, cfg)
                want = expected_reward_by_enumeration(belief, action, cfg)
                scale = max(abs(got), abs(want))
                gap = abs(got - want) / scale if scale > 0.0 else 0.0
                worst = max(worst, gap)
                pairs += 1
                if gap > REL_TOLERANCE:
                    return CheckResult(
                        "expected_reward_vs_enumeration",
                        False,
                        f"{action} under {belief}: kernel {got}, enumeration {want}",
                    )
            action = acts[int(rng.integers(len(acts)))]
            result = step_joint(js, action, cfg, rng)
            belief = belief_step(belief, action, result.duration, result.obs, cfg)
            js = result.next
    return CheckResult(
        "expected_reward_vs_enumeration",
        True,
        f"{pairs} (belief, action) pairs over {episodes} episodes, "
        f"worst relative gap {worst:.2e}",
    )


def run_verify(cfg: RestaurantConfig, cap: int = DEFAULT_STATE_CAP) -> list[CheckResult]:
    """All verification checks, in a fixed order."""
    return [
        check_transition_row_sums(cfg, cap),
        check_filter_vs_enumeration(cfg),
        check_reward_spot_table(cfg),
        check_marginal_consistency(cfg),
        check_expected_reward_vs_enumeration(cfg),
    ]
