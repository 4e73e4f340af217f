import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from restaurant_pomdp import harness
from restaurant_pomdp.belief import ObservationMismatchError, belief_init, belief_step
from restaurant_pomdp.config import SCENARIOS, RestaurantConfig, validate_config
from restaurant_pomdp.harness import (
    EpisodeTrace,
    StepRecord,
    aggregate,
    evaluate,
    paired_difference,
    read_trace_actions,
    replay_actions,
    run_batch,
    run_episode,
    seed_streams,
    summarize,
    write_trace_jsonl,
)
from restaurant_pomdp.kernel import table_kernel
from restaurant_pomdp.model import (
    IllegalActionError,
    JointState,
    RobotState,
    all_done,
    go_to,
    initial_joint_state,
    observe,
    sample_outcome,
    serve,
    table_from_observation,
)
from restaurant_pomdp.planners import (
    PolicySpec,
    make_policy,
    parse_policy_spec,
    value_expectimax,
)

from .strategies import small_configs


def test_horizon_zero_gives_empty_trace(two_cfg):
    cfg = validate_config(dataclasses.replace(two_cfg, horizon=0))
    trace = run_episode(PolicySpec(kind="random"), cfg, 3)
    assert trace.steps == ()
    assert trace.discounted_return == 0.0


def test_same_seed_gives_identical_traces(two_cfg):
    a = run_episode(PolicySpec(kind="random"), two_cfg, 11)
    b = run_episode(PolicySpec(kind="random"), two_cfg, 11)
    assert a == b  # every recorded field, bit for bit


def test_different_seeds_differ(two_cfg):
    a = run_episode(PolicySpec(kind="random"), two_cfg, 1)
    b = run_episode(PolicySpec(kind="random"), two_cfg, 2)
    assert a.steps != b.steps


def test_policy_choice_does_not_perturb_environment_streams(two_cfg):
    """Initial satisfactions depend only on the seed, not on the policy."""
    uniform = validate_config(
        dataclasses.replace(two_cfg, satisfaction_prior=(1 / 6,) * 6)
    )
    for seed in range(10):
        a = run_episode(PolicySpec(kind="random"), uniform, seed)
        b = run_episode(PolicySpec(kind="greedy"), uniform, seed)
        assert a.initial_satisfactions == b.initial_satisfactions


def test_seed_streams_are_reproducible_and_distinct():
    a = seed_streams(7)
    b = seed_streams(7)
    seq_a = [g.random() for g in a]
    seq_b = [g.random() for g in b]
    assert seq_a == seq_b
    assert len(set(seq_a)) == 3


def test_clock_strictly_increases_by_duration(two_cfg):
    trace = run_episode(PolicySpec(kind="random"), two_cfg, 5)
    clock = 0
    for step in trace.steps:
        assert step.clock == clock + step.duration
        clock = step.clock


def test_replay_reproduces_recorded_states(two_cfg):
    trace = run_episode(PolicySpec(kind="random"), two_cfg, 21)
    actions = [s.action for s in trace.steps]
    visited = replay_actions(two_cfg, trace.seed, actions)
    assert tuple(ts.satisfaction for ts in visited[0].tables) == trace.initial_satisfactions
    for step, js in zip(trace.steps, visited[1:]):
        assert step.satisfactions == tuple(ts.satisfaction for ts in js.tables)
        assert step.clock == js.clock
        from restaurant_pomdp.belief import observe

        assert step.observations == tuple(observe(ts) for ts in js.tables)


def test_recorded_beliefs_match_offline_filter_rerun(two_cfg):
    trace = run_episode(PolicySpec(kind="random"), two_cfg, 33)
    b = belief_init(two_cfg)
    for step in trace.steps:
        b = belief_step(b, step.action, step.duration, step.observations, two_cfg)
        for got, want in zip(step.belief, b.satisfaction):
            assert all(abs(x - y) < 1e-9 for x, y in zip(got, want))


def test_discounted_return_recomputable_from_step_rewards(two_cfg):
    trace = run_episode(PolicySpec(kind="fcfs"), two_cfg, 2)
    total = 0.0
    clock = 0
    for step in trace.steps:
        total += two_cfg.gamma**clock * step.reward
        clock = step.clock
        assert abs(step.discounted_return - total) < 1e-9
    assert abs(trace.discounted_return - total) < 1e-9


class Script:
    def __init__(self, actions):
        self.actions = list(actions)

    def act(self, b, rng):
        return self.actions.pop(0)


def test_scripted_optimal_policy_matches_expectimax_value():
    """On a deterministic tiny instance the realized return is the exact value.

    Serving twice at top satisfaction never branches stochastically, and the
    depth-2 expectimax confirms it is optimal, so episode return == value.
    """
    cfg = validate_config(
        RestaurantConfig(
            n_tables=1,
            table_positions=((2, 2),),
            robot_start=(2, 2),
            grid_width=5,
            grid_height=5,
            sat_max=5,
            horizon=2,
        )
    )
    _, v_star = value_expectimax(belief_init(cfg), 2, cfg)

    trace = run_episode(Script([serve(0), serve(0)]), cfg, 0)
    assert trace.discounted_return == pytest.approx(v_star, abs=1e-9)
    assert trace.discounted_return == pytest.approx(5 + 5 * cfg.gamma, abs=1e-9)


# --- the episode loop against a per-state reference ---------------------------------


def reference_episode(spec: PolicySpec, cfg: RestaurantConfig, seed: int) -> EpisodeTrace:
    """The episode loop on joint states, one node lookup per step.

    Each step observes the true state, looks up the action's joint edge, samples
    every table from its edge's rows at its satisfaction and filters with
    ``belief_step``; ``run_episode`` must record exactly this.
    """
    cfg = validate_config(cfg)
    policy = make_policy(spec, cfg)
    init_rng, dyn_rng, pol_rng = harness.seed_streams(seed)
    js = initial_joint_state(cfg, init_rng)
    initial_sats = tuple(ts.satisfaction for ts in js.tables)
    belief = belief_init(cfg)
    steps = []
    ret = 0.0
    while js.clock < cfg.horizon and not all_done(js):
        action = policy.act(belief, pol_rng)
        observables = tuple(observe(ts) for ts in js.tables)
        duration, nxt, _, edges = table_kernel(cfg).step(js.robot, observables, action)
        tables, rewards = [], []
        for ts, edge, obs in zip(js.tables, edges, nxt.observables):
            ns, _, r = sample_outcome(edge.rows[ts.satisfaction], dyn_rng)
            tables.append(table_from_observation(obs, ns))
            rewards.append(r)
        reward = float(math.fsum(rewards))
        belief = belief_step(belief, action, duration, nxt.observables, cfg)
        ret += cfg.gamma**js.clock * reward
        js = JointState(robot=nxt.robot, tables=tuple(tables), clock=js.clock + duration)
        steps.append(
            StepRecord(
                index=len(steps),
                clock=js.clock,
                action=action,
                duration=duration,
                observations=nxt.observables,
                satisfactions=tuple(ts.satisfaction for ts in js.tables),
                belief=belief.satisfaction,
                table_rewards=tuple(rewards),
                reward=reward,
                discounted_return=ret,
            )
        )
    return EpisodeTrace(
        seed=seed,
        policy=spec.kind,
        config=cfg,
        initial_satisfactions=initial_sats,
        steps=tuple(steps),
        discounted_return=ret,
    )


@pytest.mark.parametrize(
    "policy", ["random", "fcfs", "greedy", "expectimax:depth=2", "mcts:budget=60,max_depth=3"]
)
@pytest.mark.parametrize("scenario", ["small-1table", "two-tables", "paper-3tables"])
def test_episode_loop_equals_per_state_reference(scenario, policy):
    spec = parse_policy_spec(policy)
    cfg = SCENARIOS[scenario]()
    for seed in range(5):
        assert run_episode(spec, cfg, seed) == reference_episode(spec, cfg, seed)


@settings(max_examples=25, deadline=None)
@given(cfg=small_configs(), seed=st.integers(0, 2**16))
def test_episode_loop_equals_per_state_reference_on_small_configs(cfg, seed):
    spec = PolicySpec(kind="random")
    assert run_episode(spec, cfg, seed) == reference_episode(spec, cfg, seed)


@pytest.mark.parametrize(
    "actions",
    [[serve(0)], [go_to(0), go_to(0)]],
    ids=["at-the-start", "after-a-step"],
)
def test_an_illegal_action_from_the_policy_raises(two_cfg, actions):
    assert belief_init(two_cfg).robot.pos() != two_cfg.table_positions[0]
    with pytest.raises(IllegalActionError):
        run_episode(Script(actions), two_cfg, 0)


@pytest.mark.parametrize("field", ["robot", "observables"])
def test_an_initial_belief_off_the_true_state_raises(two_cfg, monkeypatch, field):
    def shifted(cfg):
        b = belief_init(cfg)
        if field == "robot":
            return dataclasses.replace(b, robot=RobotState(b.robot.x + 1, b.robot.y))
        moved = dataclasses.replace(b.observables[1], t_since_request=1)
        return dataclasses.replace(b, observables=(b.observables[0], moved))

    monkeypatch.setattr(harness, "belief_init", shifted)
    with pytest.raises(ObservationMismatchError):
        run_episode(PolicySpec(kind="greedy"), two_cfg, 0)


# --- evaluation --------------------------------------------------------------------


def test_metrics_single_episode_consistent_with_trace(two_cfg):
    trace = run_episode(PolicySpec(kind="greedy"), two_cfg, 4)
    metrics = evaluate(PolicySpec(kind="greedy"), two_cfg, 1, 4)
    assert metrics.episodes == 1
    assert metrics.mean_return == pytest.approx(trace.discounted_return, abs=1e-9)
    assert metrics.stddev_return == 0.0
    assert metrics.mean_final_satisfaction == pytest.approx(
        tuple(float(s) for s in trace.steps[-1].satisfactions)
    )


def test_parallel_evaluation_equals_sequential(two_cfg):
    spec = PolicySpec(kind="fcfs")
    seq = evaluate(spec, two_cfg, 12, 100, workers=1)
    par = evaluate(spec, two_cfg, 12, 100, workers=2)
    assert seq == par


def test_metrics_conservation_mean_of_per_trace_returns(two_cfg):
    spec = PolicySpec(kind="random")
    summaries = run_batch(spec, two_cfg, 25, 7)
    metrics = aggregate(summaries, two_cfg.n_tables)
    mean = math.fsum(s.discounted_return for s in summaries) / len(summaries)
    assert metrics.mean_return == pytest.approx(mean, abs=1e-9)
    recomputed = [
        run_episode(spec, two_cfg, seed).discounted_return
        for seed in range(7, 7 + 25)
    ]
    assert metrics.mean_return == pytest.approx(
        math.fsum(recomputed) / 25, abs=1e-9
    )


def test_completion_rate_and_max_wait_ranges(two_cfg):
    metrics = evaluate(PolicySpec(kind="greedy"), two_cfg, 10, 0)
    assert 0.0 <= metrics.completion_rate <= 1.0
    assert metrics.stddev_return >= 0.0
    assert 0 <= metrics.mean_max_wait <= two_cfg.time_max


def test_summarize_empty_trace(two_cfg):
    cfg = validate_config(dataclasses.replace(two_cfg, horizon=0))
    trace = run_episode(PolicySpec(kind="random"), cfg, 0)
    s = summarize(trace)
    assert s.n_steps == 0
    assert s.discounted_return == 0.0
    assert s.final_satisfactions == trace.initial_satisfactions
    assert s.tables_done == (False, False)


def test_paired_difference_mean_and_standard_error():
    mean, se = paired_difference([3.0, 5.0, 7.0], [2.0, 3.0, 4.0])
    assert mean == 2.0
    assert se == pytest.approx(1 / math.sqrt(3), abs=1e-15)
    assert paired_difference([4.0], [1.5]) == (2.5, 0.0)


def test_evaluate_requires_at_least_one_episode(two_cfg):
    with pytest.raises(ValueError):
        evaluate(PolicySpec(kind="random"), two_cfg, 0, 0)


# --- trace serialization -------------------------------------------------------------


def test_trace_jsonl_round_trip_and_byte_identity(two_cfg, tmp_path):
    trace = run_episode(PolicySpec(kind="fcfs"), two_cfg, 9)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_trace_jsonl(trace, str(p1))
    write_trace_jsonl(trace, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    seed, actions = read_trace_actions(str(p1))
    assert seed == 9
    assert actions == [s.action for s in trace.steps]
    # replayability from the file alone
    visited = replay_actions(two_cfg, seed, actions)
    assert tuple(ts.satisfaction for ts in visited[-1].tables) == trace.steps[-1].satisfactions


@pytest.mark.parametrize("policy", ["random", "fcfs"])
def test_written_observations_equal_asdict(two_cfg, tmp_path, policy):
    for seed in range(3):
        trace = run_episode(PolicySpec(kind=policy), two_cfg, seed)
        path = tmp_path / f"{seed}.jsonl"
        write_trace_jsonl(trace, str(path))
        docs = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert len(docs) == len(trace.steps) > 0
        for doc, step in zip(docs, trace.steps):
            assert doc["observations"] == [dataclasses.asdict(o) for o in step.observations]


def test_trace_header_carries_config_and_schema(two_cfg, tmp_path):
    trace = run_episode(PolicySpec(kind="random"), two_cfg, 0)
    path = tmp_path / "t.jsonl"
    write_trace_jsonl(trace, str(path))
    header = json.loads(path.read_text().splitlines()[0])
    assert header["schema_version"] == 1
    assert header["kind"] == "header"
    assert header["config"]["n_tables"] == 2
    assert header["policy"] == "random"
