import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restaurant_pomdp.dynamics import (
    apply_serve,
    navigation_duration,
    sample_transition,
    tick_table,
    transition_distribution,
)
from restaurant_pomdp.model import (
    NOOP,
    RobotState,
    TableState,
    fresh_table,
    go_to,
    initial_joint_state,
    sample_outcome,
    serve,
)

from .strategies import small_configs, table_states


# --- navigation ---------------------------------------------------------------


@pytest.mark.parametrize(
    "frm,to,expected",
    [
        ((5, 5), (5, 5), 1),
        ((0, 0), (10, 10), 3),
        ((5, 5), (5, 10), 1),   # distance 5: ceil(3*5/20) = 1
        ((0, 0), (10, 3), 2),   # distance 13: ceil(3*13/20) = 2
        ((0, 0), (10, 4), 3),   # distance 14: ceil(3*14/20) = 3
    ],
)
def test_navigation_duration_mapping(paper_cfg, frm, to, expected):
    assert navigation_duration(RobotState(*frm), to, paper_cfg) == expected


def test_navigation_duration_bounds(paper_cfg):
    for x in range(11):
        for y in range(11):
            d = navigation_duration(RobotState(x, y), (10, 10), paper_cfg)
            assert 1 <= d <= paper_cfg.duration_max_nav


# --- tick ----------------------------------------------------------------------


def test_tick_increments_wait_timer(paper_cfg):
    ts = dataclasses.replace(fresh_table(5), t_since_request=1)
    out = tick_table(ts, paper_cfg)
    assert out.t_since_request == 2
    assert out == dataclasses.replace(ts, t_since_request=2)


def test_tick_decay_crossing(paper_cfg):
    # time_max 15, waiting for anything but food: drop every 3 steps
    ts = dataclasses.replace(fresh_table(5), t_since_request=2)
    out = tick_table(ts, paper_cfg)
    assert out.t_since_request == 3
    assert out.satisfaction == 4


def test_tick_eating_freezes_wait_and_progresses_food(paper_cfg):
    ts = TableState(5, 1, 0, 2, 4, 1, 4, 0, 0)
    out = tick_table(ts, paper_cfg)
    assert out.t_since_served == 5
    assert out.food == 2  # crossed floor(15/3) = 5
    assert out.t_since_request == ts.t_since_request


def test_decay_endpoint_reaches_zero_exactly_at_time_max(paper_cfg):
    """Unserved fresh table: very satisfied decays to very unsatisfied at 15."""
    ts = fresh_table(5)
    for step in range(1, 16):
        ts = tick_table(ts, paper_cfg)
        expected_sat = 5 - step // 3
        assert ts.t_since_request == step
        assert ts.satisfaction == expected_sat, (step, ts)
    assert ts.satisfaction == 0
    assert ts.t_since_request == 15
    for _ in range(5):  # timers saturate, nothing wraps
        ts = tick_table(ts, paper_cfg)
        assert ts.t_since_request == 15
        assert ts.satisfaction == 0


def test_cooking_schedule_and_food_ready_timer(paper_cfg):
    ts = dataclasses.replace(fresh_table(5), current_request=3)
    trace = []
    for _ in range(12):
        ts = tick_table(ts, paper_cfg)
        trace.append((ts.t_since_request, ts.cooking_status, ts.t_since_food_ready))
    # kitchen: one level per floor(15/3)=5 steps; ready timer runs from the
    # completion tick onward
    assert trace[4] == (5, 1, 0)
    assert trace[9] == (10, 2, 1)
    assert trace[11] == (12, 2, 3)


def test_tick_on_done_table_raises(paper_cfg):
    done = TableState(0, 3, 3, 2, 8, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        tick_table(done, paper_cfg)


def test_sample_outcome_draws_only_for_a_split():
    rng = np.random.default_rng(3)
    untouched = np.random.default_rng(3)
    assert sample_outcome((("only", 1.0),), rng) == ("only", 1.0)
    assert rng.random() == untouched.random()
    split = (("up", 0.6, 1.0), ("same", 0.4, 2.0))
    u = untouched.random()
    assert sample_outcome(split, rng) == (split[0] if u < 0.6 else split[1])
    assert rng.random() == untouched.random()


def test_faster_decay_while_waiting_for_food(paper_cfg):
    # divisor floor(15/6)=2 instead of floor(15/5)=3
    ts = dataclasses.replace(fresh_table(5), current_request=3)
    ts = tick_table(tick_table(ts, paper_cfg), paper_cfg)
    assert ts.t_since_request == 2
    assert ts.satisfaction == 4


# --- serve ----------------------------------------------------------------------


def serve_probability_oracle(sat: int, sat_max: int) -> dict[int, float]:
    """Literal restatement of the stochastic serve response."""
    if sat == sat_max:
        return {sat: 1.0}
    if sat == 0:
        return {1: 0.3, 0: 0.7}
    return {sat + 1: 0.6, sat: 0.4}


def test_apply_serve_satisfaction_splits(paper_cfg):
    for sat in range(6):
        dist = apply_serve(fresh_table(sat), paper_cfg)
        got = {o.satisfaction: p for o, p in dist}
        assert got == serve_probability_oracle(sat, 5)


def test_apply_serve_advances_request_and_resets_wait(paper_cfg):
    ts = dataclasses.replace(fresh_table(3), t_since_request=9)
    dist = apply_serve(ts, paper_cfg)
    assert {(o.satisfaction, o.current_request, o.t_since_request) for o, _ in dist} == {
        (4, 2, 0),
        (3, 2, 0),
    }
    probs = {o.satisfaction: p for o, p in dist}
    assert probs == {4: 0.6, 3: 0.4}


def test_apply_serve_food_delivery(paper_cfg):
    ts = TableState(5, 0, 0, 2, 3, 1, 3, 4, 9)
    ((out, p),) = apply_serve(ts, paper_cfg)
    assert p == 1.0
    assert out.food == 1
    assert out.current_request == 4
    assert out.t_since_served == 0
    assert out.t_since_food_ready == 0
    assert out.t_since_request == 0


def test_apply_serve_drinks_delivery(paper_cfg):
    ts = TableState(5, 2, 0, 2, 4, 1, 6, 0, 2)
    ((out, _),) = apply_serve(ts, paper_cfg)
    assert out.water == 1
    assert out.t_since_served == 0
    assert out.current_request == 5
    assert out.food == 2  # untouched


def test_apply_serve_final_request_departs(paper_cfg):
    ts = TableState(5, 3, 3, 2, 8, 1, 0, 0, 4)
    ((out, _),) = apply_serve(ts, paper_cfg)
    assert out.hand_raise == 0
    assert out.done
    assert out.current_request == 8


def test_apply_serve_uncooked_food_rejected(paper_cfg):
    ts = dataclasses.replace(fresh_table(5), current_request=3, cooking_status=1)
    with pytest.raises(ValueError):
        apply_serve(ts, paper_cfg)


def test_apply_serve_on_departed_table_rejected(paper_cfg):
    done = TableState(0, 3, 3, 2, 8, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        apply_serve(done, paper_cfg)


def test_transition_duration_must_be_positive(paper_cfg):
    with pytest.raises(ValueError):
        transition_distribution(fresh_table(5), NOOP, 0, paper_cfg, 0)


# --- composed transitions --------------------------------------------------------


def test_done_table_is_absorbing(paper_cfg):
    done = TableState(2, 3, 3, 2, 8, 0, 1, 2, 3)
    for action in (NOOP, serve(0), go_to(0)):
        dist = transition_distribution(done, action, 3, paper_cfg, 0)
        assert dist == ((done, 1.0),)


def test_noop_duration_one_is_tick(paper_cfg):
    ts = dataclasses.replace(fresh_table(5), t_since_request=4)
    ((out, p),) = transition_distribution(ts, NOOP, 1, paper_cfg, 0)
    assert p == 1.0
    assert out == tick_table(ts, paper_cfg)


def test_serve_transition_matches_serve_oracle(paper_cfg):
    """Serve with duration 1 is exactly the serve response on the chain."""
    for sat in range(6):
        ts = fresh_table(sat)
        dist = transition_distribution(ts, serve(0), 1, paper_cfg, 0)
        got = {o.satisfaction: p for o, p in dist}
        assert got == serve_probability_oracle(sat, 5)


def test_actions_on_other_tables_tick_this_one(paper_cfg):
    ts = dataclasses.replace(fresh_table(5), t_since_request=1)
    for action in (serve(1), go_to(2), NOOP):
        ((out, _),) = transition_distribution(ts, action, 2, paper_cfg, 0)
        assert out == tick_table(tick_table(ts, paper_cfg), paper_cfg)


def test_communication_actions_only_advance_time(paper_cfg):
    from restaurant_pomdp.model import comm_food_not_ready, comm_will_return

    ts = dataclasses.replace(fresh_table(5), current_request=3, cooking_status=0)
    for action in (comm_food_not_ready(0), comm_will_return(0)):
        ((out, _),) = transition_distribution(ts, action, 1, paper_cfg, 0)
        assert out == tick_table(ts, paper_cfg)


@given(cfg=small_configs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_distribution_rows_sum_to_one(cfg, data):
    ts = data.draw(table_states(cfg))
    for action, duration in ((NOOP, 1), (NOOP, 3), (serve(0), 1)):
        if action.kind.value == "serve" and ts.current_request == 3 and ts.cooking_status < 2:
            continue
        dist = transition_distribution(ts, action, duration, cfg, 0)
        assert abs(math.fsum(p for _, p in dist) - 1.0) < 1e-9
        assert all(p >= 0 for _, p in dist)
        states = [s for s, _ in dist]
        assert len(states) == len(set(states))


@given(cfg=small_configs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_tick_never_raises_satisfaction_serve_never_lowers(cfg, data):
    ts = data.draw(table_states(cfg))
    assert tick_table(ts, cfg).satisfaction <= ts.satisfaction
    if not (ts.current_request == 3 and ts.cooking_status < 2):
        for out, _ in apply_serve(ts, cfg):
            assert out.satisfaction >= ts.satisfaction


@given(cfg=small_configs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_noop_composition(cfg, data):
    """d ticks in one call equal d one-step calls composed."""
    ts = data.draw(table_states(cfg))
    for d in (2, 3, 4):
        ((direct, _),) = transition_distribution(ts, NOOP, d, cfg, 0)
        state = ts
        for _ in range(d):
            ((state, _),) = transition_distribution(state, NOOP, 1, cfg, 0)
        assert direct == state


@given(cfg=small_configs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_all_fields_stay_in_range_after_tick(cfg, data):
    ts = data.draw(table_states(cfg))
    out = tick_table(ts, cfg)
    tm = cfg.time_max
    assert 0 <= out.satisfaction <= cfg.sat_max
    assert 0 <= out.food <= 3 and 0 <= out.water <= 3
    assert 0 <= out.cooking_status <= 2
    assert 1 <= out.current_request <= 8
    assert out.hand_raise in (0, 1)
    assert 0 <= out.t_since_served <= tm
    assert 0 <= out.t_since_food_ready <= tm
    assert 0 <= out.t_since_request <= tm


def test_fields_in_range_after_long_random_action_walk(small_cfg):
    """1000 random legal actions keep every counter inside its range."""
    from restaurant_pomdp.joint import step_joint
    from restaurant_pomdp.model import (
        JointState,
        action_sort_key,
        all_done,
        initial_joint_state,
        legal_actions,
    )

    rng = np.random.default_rng(3)
    js = initial_joint_state(small_cfg, rng)
    tm = small_cfg.time_max
    for _ in range(1000):
        if all_done(js):
            js = initial_joint_state(small_cfg, rng)
        acts = sorted(legal_actions(js, small_cfg), key=action_sort_key)
        js = step_joint(js, acts[int(rng.integers(len(acts)))], small_cfg, rng).next
        for ts in js.tables:
            assert 0 <= ts.satisfaction <= small_cfg.sat_max
            assert 0 <= ts.t_since_request <= tm
            assert 0 <= ts.t_since_served <= tm
            assert 0 <= ts.t_since_food_ready <= tm
            assert 0 <= ts.food <= 3 and 0 <= ts.water <= 3
            assert 0 <= ts.cooking_status <= 2
            assert 1 <= ts.current_request <= 8


# --- sampling ---------------------------------------------------------------------


def test_sample_deterministic_distribution(paper_cfg):
    ts = fresh_table(5)
    rng = np.random.default_rng(0)
    out = sample_transition(ts, NOOP, 1, paper_cfg, rng, 0)
    assert out == tick_table(ts, paper_cfg)


def test_sample_serve_split_frequencies(paper_cfg):
    rng = np.random.default_rng(12345)
    ts = fresh_table(3)
    n = 100_000
    ups = sum(
        sample_transition(ts, serve(0), 1, paper_cfg, rng, 0).satisfaction == 4
        for _ in range(n)
    )
    assert abs(ups / n - 0.6) < 0.01


def test_sample_fixed_seed_reproducible(paper_cfg):
    ts = fresh_table(2)
    a = sample_transition(ts, serve(0), 1, paper_cfg, np.random.default_rng(9), 0)
    b = sample_transition(ts, serve(0), 1, paper_cfg, np.random.default_rng(9), 0)
    assert a == b
