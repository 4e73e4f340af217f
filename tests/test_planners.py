import dataclasses
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restaurant_pomdp import planners
from restaurant_pomdp.belief import Belief, belief_init, belief_predict, edge_predict, observe
from restaurant_pomdp.config import SCENARIOS, ConfigError, validate_config
from restaurant_pomdp.harness import run_episode
from restaurant_pomdp.kernel import table_kernel
from restaurant_pomdp.model import (
    ActionKind,
    JointState,
    ModelInvariantError,
    NOOP,
    action_sort_key,
    all_done,
    fresh_table,
    go_to,
    legal_actions,
    serve,
)
from restaurant_pomdp.planners import (
    PolicySpec,
    act_fcfs,
    act_greedy,
    act_mcts,
    act_random,
    make_policy,
    mcts_search,
    parse_policy_spec,
    sorted_legal_actions,
    validate_policy_spec,
    value_expectimax,
)
from restaurant_pomdp.rewards import expected_reward

from .strategies import random_walk_states, small_configs


def belief_from_state(js: JointState, cfg) -> Belief:
    k = cfg.sat_max + 1
    return Belief(
        robot=js.robot,
        observables=tuple(observe(ts) for ts in js.tables),
        satisfaction=tuple(
            tuple(1.0 if s == ts.satisfaction else 0.0 for s in range(k))
            for ts in js.tables
        ),
    )


def waiting_belief(cfg, waits, requests=None, cookings=None, robot=None) -> Belief:
    base = belief_init(cfg)
    obs = []
    for i, w in enumerate(waits):
        o = dataclasses.replace(
            base.observables[i],
            t_since_request=w,
            current_request=(requests or [1] * len(waits))[i],
            cooking_status=(cookings or [0] * len(waits))[i],
        )
        obs.append(o)
    return Belief(
        robot=robot if robot is not None else base.robot,
        observables=tuple(obs),
        satisfaction=base.satisfaction,
    )


def reference_expectimax(b: Belief, depth: int, cfg) -> tuple:
    """The belief-level recursion: each (belief, action) pair is scored with
    ``expected_reward`` and stepped with ``belief_predict``, unmemoized."""
    if depth == 0 or all(o.hand_raise == 0 for o in b.observables):
        return (None, 0.0)
    best_action, best_value = None, -math.inf
    for a in sorted_legal_actions(b, cfg):
        er = expected_reward(b, a, cfg)
        nb, duration = belief_predict(b, a, cfg)
        value = er + cfg.gamma**duration * reference_expectimax(nb, depth - 1, cfg)[1]
        if value > best_value:
            best_action, best_value = a, value
    return (best_action, best_value)


def reference_greedy(b: Belief, cfg):
    """First strict argmax of ``expected_reward`` in the fixed action order."""
    best_action, best_value = None, -math.inf
    for a in sorted_legal_actions(b, cfg):
        value = expected_reward(b, a, cfg)
        if value > best_value:
            best_action, best_value = a, value
    return best_action


def greedy_choice(b: Belief, cfg) -> tuple:
    """Greedy's action and the expected reward of its joint edge."""
    action = act_greedy(b, cfg)
    return (action, expected_reward(b, action, cfg))


class RecordingPolicy:
    """Plays ``spec`` and keeps every belief it is asked to act on."""

    def __init__(self, spec: PolicySpec, cfg) -> None:
        self.policy = make_policy(spec, cfg)
        self.beliefs: list[Belief] = []

    def act(self, b, rng):
        self.beliefs.append(b)
        return self.policy.act(b, rng)


def episode_beliefs(cfg, kind: str, seeds) -> list[Belief]:
    recorder = RecordingPolicy(PolicySpec(kind=kind), cfg)
    for seed in seeds:
        run_episode(recorder, cfg, seed)
    return recorder.beliefs


# --- policy spec -----------------------------------------------------------------


def test_parse_policy_spec_round_trip():
    spec = parse_policy_spec("mcts:budget=500,max_depth=7,exploration=12.5")
    assert spec.kind == "mcts"
    assert (spec.budget, spec.max_depth, spec.exploration) == (500, 7, 12.5)
    assert parse_policy_spec("greedy").kind == "greedy"


@pytest.mark.parametrize(
    "bad",
    ["nosuch", "mcts:budget=0", "mcts:depth=0", "mcts:exploration=-1",
     "mcts:rollout=fancy", "mcts:oops=1", "mcts:budget=1.5", "expectimax:depth=x",
     "mcts:exploration=nan", "mcts:exploration=inf", "mcts:budget=5,budget=10"],
)
def test_bad_policy_specs_rejected(bad):
    with pytest.raises(ConfigError):
        parse_policy_spec(bad)


def test_validate_policy_spec_bounds():
    with pytest.raises(ConfigError):
        validate_policy_spec(PolicySpec(kind="expectimax", depth=0))


# --- random ----------------------------------------------------------------------


def test_random_singleton_legal_set(two_cfg):
    b = belief_init(two_cfg)
    only = {NOOP}
    assert act_random(b, only, np.random.default_rng(0)) == NOOP


def test_random_empty_set_raises(two_cfg):
    with pytest.raises(ValueError):
        act_random(belief_init(two_cfg), set(), np.random.default_rng(0))


def test_random_fixed_seed_deterministic(two_cfg):
    b = belief_init(two_cfg)
    legal = set(sorted_legal_actions(b, two_cfg))
    seq_a = [act_random(b, legal, np.random.default_rng(4)) for _ in range(20)]
    seq_b = [act_random(b, legal, np.random.default_rng(4)) for _ in range(20)]
    assert seq_a == seq_b


def test_random_is_uniform_over_four_actions(small_cfg):
    """Single table waiting for uncooked food: exactly four legal actions."""
    b = waiting_belief(small_cfg, [1], requests=[3], cookings=[0])
    legal = set(sorted_legal_actions(b, small_cfg))
    assert len(legal) == 4
    rng = np.random.default_rng(99)
    counts = {a: 0 for a in legal}
    n = 10_000
    for _ in range(n):
        counts[act_random(b, legal, rng)] += 1
    for a, c in counts.items():
        assert abs(c / n - 0.25) < 0.02, (a, c)


# --- fcfs ------------------------------------------------------------------------


def test_fcfs_goes_to_longest_waiting_table(paper_cfg):
    b = waiting_belief(paper_cfg, [7, 2, 4])
    assert act_fcfs(b, paper_cfg) == go_to(0)


def test_fcfs_serves_when_co_located(paper_cfg):
    from restaurant_pomdp.model import RobotState

    b = waiting_belief(paper_cfg, [7, 2, 4], robot=RobotState(2, 2))
    assert act_fcfs(b, paper_cfg) == serve(0)


def test_fcfs_tie_breaks_to_lowest_index(paper_cfg):
    b = waiting_belief(paper_cfg, [4, 4, 4])
    assert act_fcfs(b, paper_cfg) == go_to(0)


def test_fcfs_skips_tables_waiting_on_the_kitchen(paper_cfg):
    # table 0 waits longest but its food is not cooked; table 2 is servable
    b = waiting_belief(paper_cfg, [9, 2, 4], requests=[3, 1, 1])
    assert act_fcfs(b, paper_cfg) == go_to(2)


def test_fcfs_noop_when_nothing_is_serviceable(small_cfg):
    """Rule table: the only table wants food that is still cooking."""
    for cooking in (0, 1):
        b = waiting_belief(small_cfg, [3], requests=[3], cookings=[cooking])
        assert act_fcfs(b, small_cfg) == NOOP
    b = waiting_belief(small_cfg, [3], requests=[3], cookings=[2])
    assert act_fcfs(b, small_cfg) == go_to(0)


def test_fcfs_all_done_raises(small_cfg):
    done = dataclasses.replace(
        belief_init(small_cfg).observables[0], hand_raise=0
    )
    b = Belief(
        robot=belief_init(small_cfg).robot,
        observables=(done,),
        satisfaction=((1.0, 0, 0),),
    )
    with pytest.raises(ValueError):
        act_fcfs(b, small_cfg)


# --- greedy ----------------------------------------------------------------------


def test_greedy_single_legal_action(small_cfg):
    done_like = waiting_belief(small_cfg, [0])
    # craft a belief where only noop and table actions exist; greedy returns argmax
    a = act_greedy(done_like, small_cfg)
    assert a in set(sorted_legal_actions(done_like, small_cfg))


def test_greedy_serves_neutral_table_when_co_located(paper_cfg):
    cfg = validate_config(
        dataclasses.replace(
            paper_cfg, n_tables=1, table_positions=((2, 2),), robot_start=(2, 2),
            time_max=15,
        )
    )
    base = belief_init(cfg)
    b = Belief(
        robot=base.robot,
        observables=base.observables,
        satisfaction=((0.0, 0.0, 0.0, 1.0, 0.0, 0.0),),
    )
    assert act_greedy(b, cfg) == serve(0)
    # oracle: serve's one-step expectation (12) beats every alternative
    values = {a: expected_reward(b, a, cfg) for a in sorted_legal_actions(b, cfg)}
    assert values[serve(0)] == pytest.approx(12.0, abs=1e-9)
    assert all(v < 12 for a, v in values.items() if a != serve(0))


def test_greedy_argmax_invariant_to_positive_scaling(two_cfg):
    b = waiting_belief(two_cfg, [5, 2])
    acts = sorted_legal_actions(b, two_cfg)
    values = [expected_reward(b, a, two_cfg) for a in acts]
    argmax = max(range(len(acts)), key=lambda i: values[i])
    scaled = [3.0 * v for v in values]
    assert max(range(len(acts)), key=lambda i: scaled[i]) == argmax


def test_greedy_matches_manual_argmax_with_tie_ordering(two_cfg):
    b = waiting_belief(two_cfg, [5, 2])
    assert act_greedy(b, two_cfg) == reference_greedy(b, two_cfg)


# --- expectimax --------------------------------------------------------------------


def test_expectimax_depth_zero_and_all_done(small_cfg):
    assert value_expectimax(belief_init(small_cfg), 0, small_cfg) == (None, 0.0)
    done = dataclasses.replace(belief_init(small_cfg).observables[0], hand_raise=0)
    b = Belief(belief_init(small_cfg).robot, (done,), ((1.0, 0, 0),))
    assert value_expectimax(b, 4, small_cfg) == (None, 0.0)


def test_expectimax_depth_one_equals_greedy(small_cfg):
    """Depth 1 is definitionally the myopic argmax and value."""
    rng = np.random.default_rng(17)
    for js in random_walk_states(small_cfg, 40, 17):
        if all_done(js):
            continue
        b = belief_from_state(js, small_cfg)
        assert value_expectimax(b, 1, small_cfg) == greedy_choice(b, small_cfg)


def test_expectimax_last_ply_propagates_no_belief(two_cfg, monkeypatch):
    """Only plies with a next value propagate beliefs: none at depth 1, one
    per root action at depth 2."""
    calls = []

    def counting_edge_predict(*args):
        calls.append(args)
        return edge_predict(*args)

    monkeypatch.setattr(planners, "edge_predict", counting_edge_predict)
    b = belief_init(two_cfg)
    value_expectimax(b, 1, two_cfg)
    assert calls == []
    value_expectimax(b, 2, two_cfg)
    assert len(calls) == len(sorted_legal_actions(b, two_cfg))


def test_expectimax_support_cap(small_cfg):
    from restaurant_pomdp.checks import expected_reward_by_enumeration
    from restaurant_pomdp.joint import SupportCapError

    with pytest.raises(SupportCapError):
        expected_reward_by_enumeration(belief_init(small_cfg), NOOP, small_cfg, cap=0)


def test_expectimax_value_nondecreasing_with_optional_waiting(small_cfg):
    # deeper search can only find weakly more reward from the fresh state
    b = belief_init(small_cfg)
    v1 = value_expectimax(b, 1, small_cfg)[1]
    v2 = value_expectimax(b, 2, small_cfg)[1]
    v3 = value_expectimax(b, 3, small_cfg)[1]
    assert v2 >= v1 - 1e-9
    assert v3 >= v2 - 1e-9


@pytest.mark.parametrize(
    "scenario, max_depth, n_beliefs",
    [("small-1table", 3, None), ("two-tables", 3, None), ("paper-3tables", 2, 40)],
)
@pytest.mark.parametrize("kind", ["greedy", "random"])
def test_expectimax_and_greedy_equal_the_belief_recursion(scenario, max_depth, n_beliefs, kind):
    """Walking the kernel's nodes gives the belief-level algorithm's exact
    results, and depth-1 expectimax is greedy's scan bit for bit."""
    cfg = SCENARIOS[scenario]()
    beliefs = episode_beliefs(cfg, kind, range(2))[:n_beliefs]
    assert beliefs
    for b in beliefs:
        assert act_greedy(b, cfg) == reference_greedy(b, cfg)
        assert value_expectimax(b, 1, cfg) == greedy_choice(b, cfg)
        for depth in range(1, max_depth + 1):
            action, value = value_expectimax(b, depth, cfg)
            ref_action, ref_value = reference_expectimax(b, depth, cfg)
            assert action == ref_action
            assert value == ref_value


@settings(max_examples=25, deadline=None)
@given(cfg=small_configs(), seed=st.integers(0, 2**16))
def test_expectimax_and_greedy_equal_the_belief_recursion_on_small_configs(cfg, seed):
    for b in episode_beliefs(cfg, "random", [seed])[:8]:
        assert act_greedy(b, cfg) == reference_greedy(b, cfg)
        assert value_expectimax(b, 1, cfg) == greedy_choice(b, cfg)
        for depth in (1, 2, 3):
            assert value_expectimax(b, depth, cfg) == reference_expectimax(b, depth, cfg)


def test_expectimax_and_greedy_are_independent_of_the_store(two_cfg, monkeypatch):
    """Emptying the node store mid-decision changes no action and no value bit."""
    from restaurant_pomdp import kernel as kernel_module

    class CountingDict(dict):
        clears = 0

        def clear(self):
            self.clears += 1
            super().clear()

    cfg = dataclasses.replace(two_cfg, horizon=29)  # a config no other test uses
    beliefs = episode_beliefs(two_cfg, "greedy", [0])[:10]
    kernel = table_kernel(cfg)
    assert not kernel.nodes
    cold = [(value_expectimax(b, 3, cfg), act_greedy(b, cfg)) for b in beliefs]
    grown = len(kernel.nodes)
    kernel.nodes = CountingDict()
    monkeypatch.setattr(kernel_module, "NODE_LIMIT", 3)
    limited = [(value_expectimax(b, 3, cfg), act_greedy(b, cfg)) for b in beliefs]
    assert kernel.nodes.clears >= grown // 3
    for ((a, v), g), ((la, lv), lg) in zip(cold, limited):
        assert (a, g) == (la, lg)
        assert v.hex() == lv.hex()


def test_expectimax_rejects_a_massless_belief(two_cfg):
    base = belief_init(two_cfg)
    massless = tuple(0.0 for _ in base.satisfaction[1])
    b = Belief(base.robot, base.observables, (base.satisfaction[0], massless))
    with pytest.raises(ModelInvariantError, match="no mass"):
        value_expectimax(b, 1, two_cfg)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_expectimax_rejects_a_massless_vector_at_every_depth(scenario, depth):
    """An active table's massless vector raises whether or not its belief is
    propagated, naming that table."""
    cfg = SCENARIOS[scenario]()
    b = episode_beliefs(cfg, "greedy", [0])[1]
    last = cfg.n_tables - 1
    assert b.observables[last].hand_raise != 0
    sat = b.satisfaction[:last] + (tuple(0.0 for _ in b.satisfaction[last]),)
    massless = Belief(b.robot, b.observables, sat)
    with pytest.raises(ModelInvariantError, match=f"table {last}: belief vector has no mass"):
        value_expectimax(massless, depth, cfg)


# --- mcts -------------------------------------------------------------------------


def test_mcts_budget_one_returns_legal_action(small_cfg):
    b = belief_init(small_cfg)
    a = act_mcts(b, small_cfg, 1, np.random.default_rng(0), max_depth=3)
    assert a in set(sorted_legal_actions(b, small_cfg))


def test_mcts_fixed_seed_deterministic(small_cfg):
    b = belief_init(small_cfg)
    runs = [
        act_mcts(b, small_cfg, 300, np.random.default_rng(5), max_depth=5)
        for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]


def test_mcts_depth_one_matches_greedy_argmax(paper_cfg):
    """With a dominant one-step action, depth-1 search recovers the greedy pick."""
    cfg = validate_config(
        dataclasses.replace(
            paper_cfg, n_tables=1, table_positions=((2, 2),), robot_start=(2, 2),
            time_max=15,
        )
    )
    base = belief_init(cfg)
    b = Belief(base.robot, base.observables, ((0.0, 0.0, 0.0, 1.0, 0.0, 0.0),))
    greedy_pick = act_greedy(b, cfg)
    values = sorted(
        (expected_reward(b, a, cfg) for a in sorted_legal_actions(b, cfg)),
        reverse=True,
    )
    # serve outcome noise: std 2.45 per sample; the 12-point gap dwarfs 3 SE
    assert values[0] - values[1] > 3 * 2.45 / (2000 / 4) ** 0.5
    for seed in range(5):
        pick = act_mcts(b, cfg, 2000, np.random.default_rng(seed), max_depth=1)
        assert pick == greedy_pick


def test_mcts_reads_table_edges_only_from_the_kernel(two_cfg):
    """The search walks the kernel's nodes, whose edges hold the kernel's own table edges."""
    policy = make_policy(PolicySpec(kind="mcts"), two_cfg)
    mcts_search(belief_init(two_cfg), two_cfg, 200, np.random.default_rng(0))
    caches = policy.caches
    assert len(caches.joint_edges) > 0
    assert len(caches.table_edges) > 0
    assert len(caches.legal) > 0
    kernel = table_kernel(two_cfg)
    kernel_edges = {id(e) for e in kernel.edges.values()}
    assert all(id(e) in kernel_edges for e in caches.table_edges)
    nodes = {id(node) for node in kernel.nodes.values()}
    assert all(id(edge[1]) in nodes for edge in caches.joint_edges.values())


def test_mcts_is_independent_of_the_store(two_cfg, monkeypatch):
    """Cold, warm, and emptied mid-search: the same action and the same value bits."""
    from restaurant_pomdp import kernel as kernel_module

    class CountingDict(dict):
        clears = 0

        def clear(self):
            self.clears += 1
            super().clear()

    cfg = dataclasses.replace(two_cfg, horizon=23)  # a config no other test uses
    b = belief_init(cfg)
    kernel = table_kernel(cfg)
    assert not kernel.nodes
    cold = mcts_search(b, cfg, 300, np.random.default_rng(3))
    grown = len(kernel.nodes)
    warm = mcts_search(b, cfg, 300, np.random.default_rng(3))
    assert len(kernel.nodes) == grown
    kernel.nodes = CountingDict()
    monkeypatch.setattr(kernel_module, "NODE_LIMIT", grown // 4)
    limited = mcts_search(b, cfg, 300, np.random.default_rng(3))
    assert kernel.nodes.clears >= 1
    assert cold[0] == warm[0] == limited[0]
    assert cold[1].hex() == warm[1].hex() == limited[1].hex()


def test_mcts_root_draw_at_the_float_sum_takes_the_last_level_with_mass(two_cfg, monkeypatch):
    """A uniform at or above a vector's float sum picks its last massive level, never beyond."""

    class TopRandom(planners.random.Random):
        def random(self):
            return 1.0 - 2.0**-53

        # Overriding random() alone would make randrange reject every draw.
        def getrandbits(self, k):
            return super().getrandbits(k)

    monkeypatch.setattr(planners.random, "Random", TopRandom)
    base = belief_init(two_cfg)
    split = (0.7, 0.2, 0.1, 0.0, 0.0, 0.0)
    assert math.fsum(split) == 1.0 and sum(split) == 1.0 - 2.0**-53
    point = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    searches = [
        mcts_search(
            Belief(base.robot, base.observables, (vec, base.satisfaction[1])),
            two_cfg, 50, np.random.default_rng(0), max_depth=3,
        )
        for vec in (split, point)
    ]
    assert searches[0] == searches[1]


def test_mcts_rejects_a_massless_belief(two_cfg):
    base = belief_init(two_cfg)
    massless = tuple(0.0 for _ in base.satisfaction[0])
    b = Belief(base.robot, base.observables, (massless, base.satisfaction[1]))
    with pytest.raises(ModelInvariantError, match="table 0: belief vector has no mass"):
        mcts_search(b, two_cfg, 20, np.random.default_rng(0), max_depth=3)


def test_mcts_error_decreases_with_budget(small_cfg):
    """Median gap to the exact depth-3 value shrinks across budgets."""
    b = belief_init(small_cfg)
    _, v_star = value_expectimax(b, 3, small_cfg)
    medians = []
    for budget in (100, 1000, 10_000):
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            _, v = mcts_search(b, small_cfg, budget, rng, max_depth=3)
            errs.append(abs(v - v_star))
        medians.append(statistics.median(errs))
    assert medians[0] > medians[1] > medians[2]


def test_mcts_runs_on_large_joint_satisfaction_space():
    """Five tables: 6**5 joint satisfaction codes, filled only where visited."""
    from restaurant_pomdp.config import RestaurantConfig

    cfg = validate_config(
        RestaurantConfig(
            n_tables=5,
            table_positions=((0, 0), (0, 4), (4, 0), (4, 4), (2, 2)),
            robot_start=(1, 1),
            grid_width=5,
            grid_height=5,
            horizon=12,
        )
    )
    b = belief_init(cfg)
    a = act_mcts(b, cfg, 50, np.random.default_rng(0), max_depth=4)
    assert a in set(sorted_legal_actions(b, cfg))


def test_mcts_value_close_to_expectimax(small_cfg):
    b = belief_init(small_cfg)
    _, v_star = value_expectimax(b, 3, small_cfg)
    rels = []
    for seed in range(5):
        _, v = mcts_search(b, small_cfg, 20_000, np.random.default_rng(seed), max_depth=3)
        rels.append(abs(v - v_star) / abs(v_star))
    assert statistics.median(rels) < 0.05


# --- cross-cutting -----------------------------------------------------------------


def test_every_policy_returns_legal_actions_on_reachable_states(small_cfg):
    states = random_walk_states(small_cfg, 10_000, seed=2)
    policies = {
        "random": make_policy(PolicySpec(kind="random"), small_cfg),
        "fcfs": make_policy(PolicySpec(kind="fcfs"), small_cfg),
        "greedy": make_policy(PolicySpec(kind="greedy"), small_cfg),
        "mcts": make_policy(
            PolicySpec(kind="mcts", budget=2, max_depth=2), small_cfg
        ),
        "expectimax": make_policy(PolicySpec(kind="expectimax", depth=1), small_cfg),
    }
    rng = np.random.default_rng(0)
    for js in states:
        if all_done(js):
            continue
        legal = legal_actions(js, small_cfg)
        b = belief_from_state(js, small_cfg)
        for name, policy in policies.items():
            assert policy.act(b, rng) in legal, name


def test_action_ordering_is_total_and_stable(two_cfg):
    b = belief_init(two_cfg)
    acts = sorted_legal_actions(b, two_cfg)
    assert list(acts) == sorted(acts, key=action_sort_key)
    kinds = [a.kind for a in acts]
    assert kinds.index(ActionKind.NO_OP) == len(kinds) - 1
