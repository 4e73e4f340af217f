import dataclasses
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restaurant_pomdp import kernel as kernel_module, planners
from restaurant_pomdp.belief import Belief, belief_init, belief_predict, observe
from restaurant_pomdp.config import SCENARIOS, ConfigError, RestaurantConfig
from restaurant_pomdp.harness import run_episode
from restaurant_pomdp.kernel import JointEdge, JointNode, mass_support, table_kernel
from restaurant_pomdp.model import (
    Action,
    ActionKind,
    JointState,
    ModelInvariantError,
    NOOP,
    action_sort_key,
    all_done,
    go_to,
    legal_actions,
    sample_outcome,
    serve,
)
from restaurant_pomdp.planners import (
    DEFAULT_EXPLORATION,
    MAX_EXPECTIMAX_DEPTH,
    PolicySpec,
    act_fcfs,
    act_greedy,
    act_mcts,
    act_random,
    make_policy,
    mcts_search,
    parse_policy_spec,
    sorted_legal_actions,
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


def greedy_choice(b: Belief, cfg) -> tuple:
    """Greedy's action and the expected reward of its joint edge."""
    action = act_greedy(b, cfg)
    return (action, expected_reward(b, action, cfg))


def outcome(fn, *args):
    """``fn``'s result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except ModelInvariantError as exc:
        return (type(exc), str(exc))


def assert_equal_the_recursion(b: Belief, cfg, max_depth: int) -> None:
    """Expectimax's action and value at depths 1 to ``max_depth`` are the
    belief recursion's, or raise its error, and greedy's choice is depth 1's."""
    assert outcome(greedy_choice, b, cfg) == outcome(value_expectimax, b, 1, cfg)
    for depth in range(1, max_depth + 1):
        want = outcome(reference_expectimax, b, depth, cfg)
        assert outcome(value_expectimax, b, depth, cfg) == want


class CountingDict(dict):
    """A node store that counts how often it is emptied."""

    clears = 0

    def clear(self):
        self.clears += 1
        super().clear()


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
     "mcts:exploration=nan", "mcts:exploration=inf", "mcts:budget=5,budget=10",
     "expectimax:depth=1200", f"expectimax:depth={MAX_EXPECTIMAX_DEPTH + 1}"]
    # Only ints (bools excluded) as budget and depths, only numbers as exploration.
    + [pytest.param({key: value}, id=f"spec-{key}={value!r}")
       for key, values in [("budget", [1.5, True, "3", None]),
                           ("max_depth", [2.0, False]),
                           ("depth", ["3", True]),
                           ("exploration", ["5", None, True])]
       for value in values]
    + [pytest.param({"exploration": 10**400}, id="spec-exploration=10**400")],
)
def test_bad_policy_specs_rejected(bad):
    with pytest.raises(ConfigError):
        if isinstance(bad, str):
            parse_policy_spec(bad)
        else:
            PolicySpec(kind="mcts", **bad)


def test_policy_spec_bounds():
    with pytest.raises(ConfigError):
        PolicySpec(kind="expectimax", depth=0)
    assert PolicySpec(kind="expectimax", depth=MAX_EXPECTIMAX_DEPTH).depth == MAX_EXPECTIMAX_DEPTH
    assert PolicySpec(kind="mcts", exploration=5).exploration == 5


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


def neutral_co_located(paper_cfg) -> tuple:
    """One table at the robot's cell, its satisfaction surely 3: a config and belief."""
    cfg = dataclasses.replace(
        paper_cfg, n_tables=1, table_positions=((2, 2),), robot_start=(2, 2),
        time_max=15,
    )
    base = belief_init(cfg)
    return cfg, Belief(base.robot, base.observables, ((0.0, 0.0, 0.0, 1.0, 0.0, 0.0),))


def test_greedy_serves_neutral_table_when_co_located(paper_cfg):
    cfg, b = neutral_co_located(paper_cfg)
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
    assert act_greedy(b, two_cfg) == reference_expectimax(b, 1, two_cfg)[0]


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
    per distinct root move at depth 2, which is fewer than one per action."""
    calls = []
    predict = JointEdge.predict

    def counting_predict(*args):
        calls.append(args)
        return predict(*args)

    monkeypatch.setattr(JointEdge, "predict", counting_predict)
    b = belief_init(two_cfg)
    value_expectimax(b, 1, two_cfg)
    assert calls == []
    value_expectimax(b, 2, two_cfg)
    kernel = table_kernel(two_cfg)
    node = kernel.node(b.robot, b.observables)
    moves = {id(kernel.follow(node, a)) for a in sorted_legal_actions(b, two_cfg)}
    assert {id(edge) for edge, *_ in calls} == moves
    assert len(calls) == len(moves) < len(node.actions)


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
    [("small-1table", 3, None), ("two-tables", 3, None), ("paper-3tables", 2, 40),
     ("small-1table", 4, None), ("two-tables", 4, None), ("paper-3tables", 4, 12)],
)
@pytest.mark.parametrize("kind", ["greedy", "random"])
def test_expectimax_and_greedy_equal_the_belief_recursion(scenario, max_depth, n_beliefs, kind):
    """Walking the kernel's nodes gives the belief-level algorithm's exact
    results, and depth-1 expectimax is greedy's scan bit for bit."""
    cfg = SCENARIOS[scenario]()
    beliefs = episode_beliefs(cfg, kind, range(2))[:n_beliefs]
    assert beliefs
    for b in beliefs:
        assert_equal_the_recursion(b, cfg, max_depth)


@settings(max_examples=25, deadline=None)
@given(cfg=small_configs(), seed=st.integers(0, 2**16))
def test_expectimax_and_greedy_equal_the_belief_recursion_on_small_configs(cfg, seed):
    for b in episode_beliefs(cfg, "random", [seed])[:8]:
        assert_equal_the_recursion(b, cfg, 3)


@pytest.mark.parametrize("scenario", ["two-tables", "paper-3tables"])
def test_expectimax_and_greedy_equal_the_belief_recursion_on_tiny_departed_and_massless_vectors(
    scenario,
):
    """A 5e-324 entry is a level with mass; a departed table is skipped, with
    or without mass; an active massless one raises the recursion's error."""
    cfg = SCENARIOS[scenario]()
    k, last = cfg.sat_max + 1, cfg.n_tables - 1
    massless = (0.0,) * k
    tiny = (5e-324,) + (0.0,) * (k - 3) + (0.25, 0.75 - 5e-324)
    for b in episode_beliefs(cfg, "greedy", [0])[1:8:3]:
        departed = b.observables[:last] + (dataclasses.replace(b.observables[last], hand_raise=0),)
        for observables, sat in [
            (b.observables, (tiny,) + b.satisfaction[1:]),
            (b.observables, b.satisfaction[:last] + ((0.0,) * (k - 1) + (5e-324,),)),
            (departed, b.satisfaction),
            (departed, b.satisfaction[:last] + (massless,)),
            (departed, (tiny,) * last + (massless,)),
            (b.observables, b.satisfaction[:last] + (massless,)),
            (b.observables, (massless,) * cfg.n_tables),
        ]:
            assert_equal_the_recursion(Belief(b.robot, observables, sat), cfg, 3)


def test_expectimax_and_greedy_are_independent_of_the_store(two_cfg, monkeypatch):
    """Emptying the node store mid-decision changes no action and no value bit."""
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


def test_expectimax_propagates_each_table_edge_once_per_node(two_cfg, monkeypatch):
    """At depth 2 only the root propagates: once per distinct move, in action
    order, and once per distinct (table, table edge) over those moves' active
    tables, as the edges that share a table's edge share that table's vector."""
    outputs = []
    predict = JointEdge.predict

    def recording_predict(edge, satisfaction, support, shared=None):
        out = predict(edge, satisfaction, support, shared)
        outputs.append((edge, out))
        return out

    monkeypatch.setattr(JointEdge, "predict", recording_predict)
    b = belief_init(two_cfg)
    value_expectimax(b, 2, two_cfg)
    kernel = table_kernel(two_cfg)
    node = kernel.node(b.robot, b.observables)
    edges = [kernel.follow(node, a) for a in node.actions]
    firsts = [i for i, e in enumerate(edges) if all(e is not f for f in edges[:i])]
    assert len(outputs) == len(firsts) < len(edges)
    assert all(edge is edges[i] for (edge, _), i in zip(outputs, firsts))
    active = [i for i, o in enumerate(b.observables) if o.hand_raise != 0]
    assert active
    distinct_edges = {(i, id(edge.tables[i])) for edge in edges for i in active}
    propagated = {id(out[i]) for _, out in outputs for i in active}
    assert len(propagated) == len(distinct_edges) < len(edges) * len(active)
    # Over a copy: belief_predict calls the recording predict, which appends.
    for i, (_, out) in zip(firsts, list(outputs)):
        assert out == belief_predict(b, node.actions[i], two_cfg)[0].satisfaction


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_belief_reader_rejects_an_active_massless_vector(scenario):
    """Greedy, the one-step expected reward and the filter raise on an active
    table's massless vector as expectimax and UCT do; a departed table's
    massless vector is accepted by all of them and kept as it is."""
    cfg = SCENARIOS[scenario]()
    base = belief_init(cfg)
    sat = ((0.0,) * (cfg.sat_max + 1),) + base.satisfaction[1:]
    departed = (dataclasses.replace(base.observables[0], hand_raise=0),) + base.observables[1:]
    readers = [
        lambda b: act_greedy(b, cfg),
        lambda b: expected_reward(b, NOOP, cfg),
        lambda b: belief_predict(b, NOOP, cfg),
        lambda b: value_expectimax(b, 2, cfg),
        lambda b: mcts_search(b, cfg, 20, np.random.default_rng(0), max_depth=3),
    ]
    for read in readers:
        with pytest.raises(ModelInvariantError, match="^table 0: belief vector has no mass$"):
            read(Belief(base.robot, base.observables, sat))
    for read in readers:
        read(Belief(base.robot, departed, sat))
    predicted, _ = belief_predict(Belief(base.robot, departed, sat), NOOP, cfg)
    assert predicted.satisfaction[0] is sat[0]


# --- mcts -------------------------------------------------------------------------

# The search as it was before its UCB1 terms were tabulated, its backup
# thinned and its root draws pre-scaled, copied unchanged. The search must
# match it bit for bit: same action, same value, same random stream.


class _ReferenceNode:
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


def reference_mcts_search(
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
    An active table's massless vector raises :class:`.model.ModelInvariantError`;
    a departed table's is searched as a point mass, which never draws.
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
    # A departed table's edges keep every level and pay 0: a massless one takes level 0.
    supports = [
        tuple((s, p) for s, p in enumerate(vec) if p > 0.0) or ((0, 1.0),)
        for vec in b.satisfaction
    ]
    root = _ReferenceNode()
    for _ in range(budget):
        code = 0
        mult = 1
        for support in supports:
            code += sample_outcome(support, internal)[0] * mult
            mult *= k
        node: _ReferenceNode | None = root
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
                    child = node.children[idx] = _ReferenceNode()
                path.append((node, idx, r, edge.duration))
                node = child
            state = edge.next
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


class RecordingRandom(random.Random):
    """Keeps the last generator made, so a search's internal stream can be read after it."""

    last = None

    def __init__(self, *args) -> None:
        super().__init__(*args)
        RecordingRandom.last = self


def search_and_stream(search, b, cfg, budget, seed, **kwargs) -> tuple:
    """``(action, value.hex())`` of one search and its internal generator's final state."""
    action, value = search(b, cfg, budget, np.random.default_rng(seed), **kwargs)
    return action, value.hex(), RecordingRandom.last.getstate()


def assert_matches_reference(monkeypatch, b, cfg, budget, seed=0, **kwargs) -> None:
    monkeypatch.setattr(planners.random, "Random", RecordingRandom)
    got = search_and_stream(mcts_search, b, cfg, budget, seed, **kwargs)
    want = search_and_stream(reference_mcts_search, b, cfg, budget, seed, **kwargs)
    assert got == want


@pytest.mark.parametrize("exploration", [0.0, 5.0, 20.0])
@pytest.mark.parametrize("max_depth", [1, 3, 10])
@pytest.mark.parametrize("budget", [1, 60, 1000])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_mcts_equals_the_reference_search(scenario, budget, max_depth, exploration, monkeypatch):
    cfg = SCENARIOS[scenario]()
    beliefs = episode_beliefs(cfg, "greedy", [0])
    for b in (beliefs[0], beliefs[len(beliefs) // 2]):
        assert_matches_reference(
            monkeypatch, b, cfg, budget, exploration=exploration, max_depth=max_depth
        )


@pytest.mark.parametrize("budget,max_depth", [(60, 3), (1000, 10)])
@pytest.mark.parametrize("scenario", ["two-tables", "paper-3tables"])
def test_mcts_equals_the_reference_on_point_mass_and_departed_tables(
    scenario, budget, max_depth, monkeypatch
):
    """One-level supports, which the search folds into its base code, at
    nonzero levels and on every table, active or departed, with or without mass."""
    cfg = SCENARIOS[scenario]()
    b = episode_beliefs(cfg, "greedy", [0])[3]
    k = cfg.sat_max + 1
    last = cfg.n_tables - 1
    point = tuple(float(s == k - 2) for s in range(k))
    massless = (0.0,) * k
    departed = b.observables[:last] + (dataclasses.replace(b.observables[last], hand_raise=0),)
    variants = [
        (b.observables, (point,) + b.satisfaction[1:]),
        (b.observables, b.satisfaction[:last] + (point,)),
        (b.observables, (point,) * cfg.n_tables),
        (departed, b.satisfaction),
        (departed, b.satisfaction[:last] + (massless,)),
        (departed, (point,) * last + (massless,)),
    ]
    for observables, sat in variants:
        assert_matches_reference(
            monkeypatch, Belief(b.robot, observables, sat), cfg, budget, max_depth=max_depth
        )


@settings(max_examples=25, deadline=None)
@given(
    cfg=small_configs(),
    seed=st.integers(0, 2**16),
    budget=st.integers(1, 300),
    max_depth=st.integers(1, 10),
    exploration=st.floats(0.0, 50.0),
)
def test_mcts_equals_the_reference_search_on_small_configs(
    cfg, seed, budget, max_depth, exploration
):
    with pytest.MonkeyPatch.context() as mp:
        for b in episode_beliefs(cfg, "random", [seed])[:4]:
            assert_matches_reference(
                mp, b, cfg, budget, seed, exploration=exploration, max_depth=max_depth
            )


# A node keeps its last UCB1 choice while a certificate proves a scan would
# return it. It is weakest where the bonus is large beside the returns: at
# 1e15 the bonus dominates and UCB1 values tie at float precision.


@pytest.mark.parametrize("exploration", [1e3, 1e15])
@pytest.mark.parametrize("max_depth", [1, 10])
@pytest.mark.parametrize("budget", [60, 1000])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_mcts_equals_the_reference_at_large_exploration(
    scenario, budget, max_depth, exploration, monkeypatch
):
    cfg = SCENARIOS[scenario]()
    beliefs = episode_beliefs(cfg, "greedy", [0])
    for b in (beliefs[0], beliefs[len(beliefs) // 2]):
        assert_matches_reference(
            monkeypatch, b, cfg, budget, exploration=exploration, max_depth=max_depth
        )


@settings(max_examples=25, deadline=None)
@given(
    cfg=small_configs(),
    seed=st.integers(0, 2**16),
    budget=st.integers(1, 300),
    max_depth=st.integers(1, 10),
    exploration=st.floats(0.0, 1e6),
)
def test_mcts_equals_the_reference_at_large_exploration_on_small_configs(
    cfg, seed, budget, max_depth, exploration
):
    with pytest.MonkeyPatch.context() as mp:
        for b in episode_beliefs(cfg, "random", [seed])[:4]:
            assert_matches_reference(
                mp, b, cfg, budget, seed, exploration=exploration, max_depth=max_depth
            )


def test_mcts_equals_the_reference_on_exact_ties(monkeypatch):
    """With no bonus, no discount and one ply, actions' values tie exactly;
    the kept choice must yield to the lowest tied index as a scan does."""
    cfg = RestaurantConfig(
        n_tables=1,
        table_positions=((2, 2),),
        robot_start=(0, 0),
        grid_width=5,
        grid_height=5,
        sat_max=4,
        time_max=2,
        gamma=1.0,
    )
    for b in episode_beliefs(cfg, "random", [4])[:4]:
        assert_matches_reference(monkeypatch, b, cfg, 7, 4, exploration=0.0, max_depth=1)


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
    cfg, b = neutral_co_located(paper_cfg)
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
    assert all(id(edge.next) in nodes for edge in caches.joint_edges.values())


def test_mcts_is_independent_of_the_store(two_cfg, monkeypatch):
    """Cold, warm, and emptied mid-search: the same action and the same value bits."""
    cfg = dataclasses.replace(two_cfg, horizon=23)  # a config no other test uses
    b = belief_init(cfg)
    kernel = table_kernel(cfg)
    assert not kernel.nodes
    cold = mcts_search(b, cfg, 300, np.random.default_rng(3))
    grown = len(kernel.nodes)
    warm = mcts_search(b, cfg, 300, np.random.default_rng(3))
    assert len(kernel.nodes) == grown
    kernel.nodes = CountingDict()
    kernel.interned = CountingDict()
    monkeypatch.setattr(kernel_module, "NODE_LIMIT", grown // 4)
    limited = mcts_search(b, cfg, 300, np.random.default_rng(3))
    assert kernel.nodes.clears >= 1
    # The interned outcomes are emptied with the nodes, in place: every edge
    # built since holds the kernel's one dict.
    assert kernel.interned.clears == kernel.nodes.clears
    assert all(
        edge.interned is kernel.interned
        for node in kernel.nodes.values() for edge in node.edges or () if edge is not None
    )
    assert cold[0] == warm[0] == limited[0]
    assert cold[1].hex() == warm[1].hex() == limited[1].hex()
    # What outlives a clear holds no node and no edge.
    stack = [kernel.menus, kernel.ids, kernel.items, kernel.interned]
    while stack:
        item = stack.pop()
        assert not isinstance(item, (JointNode, JointEdge))
        if isinstance(item, dict):
            stack += [*item.keys(), *item.values()]
        elif isinstance(item, (tuple, list)):
            stack += item


def test_mcts_store_shape(two_cfg):
    """One seeded search fills the nodes, slots and table edges it filled when
    every slot held its own edge; slots of equal moves share, so 265 slots
    hold 199 edge objects, and equal outcomes share, so their 228 filled codes
    hold 155 outcome objects, those of the intern dict."""
    cfg = dataclasses.replace(two_cfg, horizon=43)  # a config no other test uses
    kernel = table_kernel(cfg)
    assert not kernel.nodes
    caches = make_policy(PolicySpec(kind="mcts"), cfg).caches
    mcts_search(belief_init(cfg), cfg, 300, np.random.default_rng(3))
    slots = caches.joint_edges.values()
    shape = (len(kernel.nodes), len(slots), len({id(e) for e in slots}), len(kernel.edges))
    assert shape == (145, 265, 199, 85)
    assert len(caches.table_edges) == len(kernel.edges)
    assert len(kernel.menus) == 7
    edges = {id(e): e for e in slots}.values()
    outcomes = {id(o): o for edge in edges for o in edge.values()}
    assert (sum(map(len, edges)), len(outcomes), len(kernel.interned)) == (228, 155, 155)
    assert all(kernel.interned[o] is o for o in outcomes.values())


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


@pytest.mark.parametrize("budget,max_depth", [(60, 3), (200, 10)])
def test_mcts_searches_a_departed_massless_table_as_a_point_mass(two_cfg, budget, max_depth):
    """A departed table's edges keep every level and pay 0: a massless vector
    there searches like a point mass at any level, and draws nothing more."""
    base = belief_init(two_cfg)
    departed = dataclasses.replace(base.observables[0], hand_raise=0)
    observables = (departed, base.observables[1])

    def search(vec):
        b = Belief(base.robot, observables, (vec, base.satisfaction[1]))
        return mcts_search(b, two_cfg, budget, np.random.default_rng(5), max_depth=max_depth)

    k = two_cfg.sat_max + 1
    massless = search((0.0,) * k)
    for level in (0, k - 1):
        assert search(tuple(float(s == level) for s in range(k))) == massless


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

    cfg = RestaurantConfig(
        n_tables=5,
        table_positions=((0, 0), (0, 4), (4, 0), (4, 4), (2, 2)),
        robot_start=(1, 1),
        grid_width=5,
        grid_height=5,
        horizon=12,
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
