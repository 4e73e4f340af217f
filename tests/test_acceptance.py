"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. The statistical criteria use fixed seeds.
"""

import math
import statistics
import time

import numpy as np

from restaurant_pomdp.checks import (
    check_filter_vs_enumeration,
    check_marginal_consistency,
    check_reward_spot_table,
    reachable_joint_states,
)
from restaurant_pomdp.belief import belief_init
from restaurant_pomdp.cli import main
from restaurant_pomdp.config import (
    scenario_paper_3tables,
    scenario_small_1table,
    scenario_two_tables,
)
from restaurant_pomdp.dynamics import (
    action_duration,
    sample_transition,
    tick_table,
    transition_distribution,
)
from restaurant_pomdp.harness import paired_difference, run_batch
from restaurant_pomdp.joint import enumerate_joint_transitions
from restaurant_pomdp.model import fresh_table, legal_actions, serve
from restaurant_pomdp.planners import (
    PolicySpec,
    mcts_search,
    value_expectimax,
)

from .conftest import ACCEPTANCE_REPORTS

TOL = 1e-9


def report(num: int, name: str, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {name}: PASS ({detail})"
    print(line)
    ACCEPTANCE_REPORTS.append(line)  # re-printed in the terminal summary


def test_criterion_1_reward_spot_table():
    started = time.time()
    result = check_reward_spot_table(scenario_paper_3tables())
    assert result.passed, result.detail
    elapsed = time.time() - started
    assert elapsed < 1.0
    report(1, "reward spot table", f"{result.detail}, {elapsed:.2f}s")


def test_criterion_2_stochastic_matrix_soundness():
    started = time.time()
    cfg = scenario_small_1table()
    states = reachable_joint_states(cfg)
    rows = 0
    for js in states:
        for action in legal_actions(js, cfg):
            duration = action_duration(js.robot, action, cfg)
            joint = enumerate_joint_transitions(js, action, cfg)
            assert abs(math.fsum(p for _, p, _ in joint) - 1.0) < TOL
            for i, ts in enumerate(js.tables):
                dist = transition_distribution(ts, action, duration, cfg, i)
                assert abs(math.fsum(p for _, p in dist) - 1.0) < TOL
                assert all(p >= 0 for _, p in dist)
            rows += 1
    elapsed = time.time() - started
    assert elapsed < 10.0
    report(
        2,
        "stochastic-matrix soundness",
        f"{rows} rows over {len(states)} reachable states, {elapsed:.2f}s",
    )


def test_criterion_3_serve_response_split():
    started = time.time()
    cfg = scenario_paper_3tables()
    n = 100_000
    rng = np.random.default_rng(7)
    ups_mid = sum(
        sample_transition(fresh_table(3), serve(0), 1, cfg, rng, 0).satisfaction == 4
        for _ in range(n)
    )
    ups_low = sum(
        sample_transition(fresh_table(0), serve(0), 1, cfg, rng, 0).satisfaction == 1
        for _ in range(n)
    )
    p_mid = ups_mid / n
    p_low = ups_low / n
    assert abs(p_mid - 0.6) < 0.01
    assert abs(p_low - 0.3) < 0.01
    elapsed = time.time() - started
    assert elapsed < 5.0
    report(
        3,
        "serve-response split",
        f"P(up|mid)={p_mid:.4f}, P(up|low)={p_low:.4f}, {elapsed:.2f}s",
    )


def test_criterion_4_decay_endpoint():
    started = time.time()
    cfg = scenario_paper_3tables()
    assert cfg.time_max == 15
    ts = fresh_table(5)
    hit_zero_at = None
    for _ in range(15):
        ts = tick_table(ts, cfg)
        if ts.satisfaction == 0 and hit_zero_at is None:
            hit_zero_at = ts.t_since_request
    assert hit_zero_at == 15
    assert ts.t_since_request == 15
    elapsed = time.time() - started
    assert elapsed < 1.0
    report(4, "decay endpoint", f"satisfaction hits 0 at wait 15 exactly, {elapsed:.2f}s")


def test_criterion_5_filter_oracle_equivalence():
    started = time.time()
    result = check_filter_vs_enumeration(
        scenario_small_1table(), sequences=100, length=20, seed=501
    )
    assert result.passed, result.detail
    elapsed = time.time() - started
    assert elapsed < 30.0
    report(5, "filter-oracle equivalence", f"{result.detail}, {elapsed:.1f}s")


def test_criterion_6_joint_independence():
    started = time.time()
    result = check_marginal_consistency(scenario_small_1table(), pairs=500, seed=601)
    assert result.passed, result.detail
    elapsed = time.time() - started
    assert elapsed < 30.0
    report(6, "joint independence", f"{result.detail}, {elapsed:.1f}s")


def test_criterion_7_planner_sanity():
    started = time.time()
    cfg = scenario_two_tables()
    assert cfg.horizon == 60 and cfg.gamma == 0.95 and cfg.n_tables == 2
    episodes, base_seed = 500, 0

    def returns(spec, workers=1):
        return [
            s.discounted_return
            for s in run_batch(spec, cfg, episodes, base_seed, workers=workers)
        ]

    random_returns = returns(PolicySpec(kind="random"))
    greedy_returns = returns(PolicySpec(kind="greedy"))
    mcts_returns = returns(
        PolicySpec(kind="mcts", budget=1000, max_depth=10), workers=2
    )

    g_mean, g_se = paired_difference(greedy_returns, random_returns)
    m_mean, m_se = paired_difference(mcts_returns, random_returns)
    g_z, m_z = g_mean / g_se, m_mean / m_se
    assert g_z > 2.0, (g_mean, g_se)
    assert m_z > 2.0, (m_mean, m_se)
    elapsed = time.time() - started
    assert elapsed < 300.0
    report(
        7,
        "planner sanity",
        f"greedy-random z={g_z:.1f}, mcts-random z={m_z:.1f}, {elapsed:.0f}s",
    )


def test_criterion_8_mcts_expectimax_agreement():
    started = time.time()
    cfg = scenario_small_1table()
    belief = belief_init(cfg)
    _, v_star = value_expectimax(belief, 3, cfg)
    rel_errors = []
    for seed in range(20):
        rng = np.random.default_rng(800 + seed)
        _, v = mcts_search(belief, cfg, 100_000, rng, max_depth=3)
        rel_errors.append(abs(v - v_star) / abs(v_star))
    median_err = statistics.median(rel_errors)
    assert median_err < 0.05
    elapsed = time.time() - started
    assert elapsed < 300.0
    report(
        8,
        "mcts-expectimax agreement",
        f"value {v_star:.4f}, median rel err {median_err:.4f} over 20 seeds, {elapsed:.0f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    started = time.time()
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    args = [
        "run", "--scenario", "paper-3tables", "--policy", "greedy", "--seed", "42",
    ]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    elapsed = time.time() - started
    assert elapsed < 5.0
    report(9, "cli determinism", f"byte-identical traces, {elapsed:.2f}s")
