import dataclasses
import math

import numpy as np
import pytest

from restaurant_pomdp.belief import (
    Belief,
    ObservationMismatchError,
    belief_init,
    belief_predict,
    belief_step,
    observe,
    table_from_observation,
)
from restaurant_pomdp.checks import check_filter_vs_enumeration
from restaurant_pomdp.joint import step_joint
from restaurant_pomdp.model import (
    NOOP,
    ModelInvariantError,
    TableState,
    action_sort_key,
    all_done,
    fresh_table,
    initial_joint_state,
    legal_actions,
    serve,
)


def test_observation_copies_the_eight_observable_variables():
    ts = TableState(2, 1, 0, 2, 4, 1, 3, 5, 7)
    obs = observe(ts)
    assert (obs.food, obs.water, obs.cooking_status, obs.current_request) == (1, 0, 2, 4)
    assert (obs.hand_raise, obs.t_since_served, obs.t_since_food_ready, obs.t_since_request) == (1, 3, 5, 7)
    assert not hasattr(obs, "satisfaction")


def test_states_differing_only_in_satisfaction_observe_identically():
    a = TableState(0, 1, 2, 2, 4, 1, 3, 5, 7)
    b = dataclasses.replace(a, satisfaction=5)
    assert observe(a) == observe(b)


def test_departed_table_observes_no_hand_raise():
    done = TableState(1, 3, 3, 2, 8, 0, 0, 0, 0)
    assert observe(done).hand_raise == 0


def test_observation_round_trip():
    ts = TableState(4, 1, 2, 1, 5, 1, 2, 0, 6)
    assert table_from_observation(observe(ts), 4) == ts


def test_belief_init_default_point_mass(paper_cfg):
    b = belief_init(paper_cfg)
    assert len(b.satisfaction) == 3
    assert all(vec == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0) for vec in b.satisfaction)
    assert all(o == observe(fresh_table(0)) for o in b.observables)


def test_belief_init_uniform_prior(paper_cfg):
    uniform = (1 / 6,) * 6
    cfg = dataclasses.replace(paper_cfg, satisfaction_prior=uniform)
    b = belief_init(cfg)
    assert all(vec == uniform for vec in b.satisfaction)


def test_belief_init_shape_matches_table_count(small_cfg, two_cfg, paper_cfg):
    for cfg in (small_cfg, two_cfg, paper_cfg):
        b = belief_init(cfg)
        assert len(b.satisfaction) == cfg.n_tables
        assert len(b.observables) == cfg.n_tables
        assert all(len(v) == cfg.sat_max + 1 for v in b.satisfaction)


def _single_table_belief(cfg, vec, obs=None) -> Belief:
    obs = obs if obs is not None else observe(fresh_table(0))
    return Belief(
        robot=belief_init(cfg).robot,
        observables=(obs,),
        satisfaction=(tuple(vec),),
    )


def test_serve_at_top_keeps_point_mass(paper_cfg):
    cfg = dataclasses.replace(paper_cfg, n_tables=1, table_positions=((2, 2),),
                              robot_start=(2, 2), time_max=15)
    b = _single_table_belief(cfg, (0, 0, 0, 0, 0, 1.0))
    predicted, duration = belief_predict(b, serve(0), cfg)
    assert duration == 1
    assert predicted.satisfaction[0] == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)


def test_serve_pushes_point_mass_through_the_split(paper_cfg):
    cfg = dataclasses.replace(paper_cfg, n_tables=1, table_positions=((2, 2),),
                              robot_start=(2, 2), time_max=15)
    b = _single_table_belief(cfg, (0, 0, 0, 1.0, 0, 0))
    predicted, _ = belief_predict(b, serve(0), cfg)
    vec = predicted.satisfaction[0]
    assert vec[4] == pytest.approx(0.6, abs=1e-12)
    assert vec[3] == pytest.approx(0.4, abs=1e-12)
    assert sum(vec) == pytest.approx(1.0, abs=1e-12)


def test_noop_without_decay_crossing_is_identity_on_satisfaction(paper_cfg):
    cfg = dataclasses.replace(paper_cfg, n_tables=1, table_positions=((2, 2),),
                              robot_start=(2, 2), time_max=15)
    uniform = (1 / 6,) * 6
    b = _single_table_belief(cfg, uniform)  # wait 0 -> 1 crosses nothing
    predicted, _ = belief_predict(b, NOOP, cfg)
    assert predicted.satisfaction[0] == uniform
    assert predicted.observables[0].t_since_request == 1


def test_noop_with_decay_crossing_shifts_mass_down(paper_cfg):
    cfg = dataclasses.replace(paper_cfg, n_tables=1, table_positions=((2, 2),),
                              robot_start=(2, 2), time_max=15)
    obs = dataclasses.replace(observe(fresh_table(0)), t_since_request=2)
    uniform = (1 / 6,) * 6
    b = _single_table_belief(cfg, uniform, obs)
    predicted, _ = belief_predict(b, NOOP, cfg)  # wait 2 -> 3 crosses divisor 3
    vec = predicted.satisfaction[0]
    assert vec[0] == pytest.approx(2 / 6)
    assert vec[5] == 0.0
    assert vec[1:5] == tuple([1 / 6] * 4)


def test_belief_step_rejects_inconsistent_observation(small_cfg):
    b = belief_init(small_cfg)
    predicted, duration = belief_predict(b, NOOP, small_cfg)
    wrong = (dataclasses.replace(predicted.observables[0], t_since_request=9),)
    with pytest.raises(ObservationMismatchError):
        belief_step(b, NOOP, duration, wrong, small_cfg)


def test_belief_step_rejects_wrong_duration(small_cfg):
    b = belief_init(small_cfg)
    predicted, duration = belief_predict(b, NOOP, small_cfg)
    with pytest.raises(ValueError):
        belief_step(b, NOOP, duration + 1, predicted.observables, small_cfg)


def test_belief_step_rejects_a_vector_that_does_not_sum_to_one(small_cfg):
    b = belief_init(small_cfg)
    drifted = dataclasses.replace(b, satisfaction=((0.0, 0.0, 0.9),))
    predicted, duration = belief_predict(drifted, NOOP, small_cfg)
    with pytest.raises(ModelInvariantError, match="sums to 0.9"):
        belief_step(drifted, NOOP, duration, predicted.observables, small_cfg)


def test_belief_step_rejects_drift_on_a_departed_table(small_cfg):
    b = belief_init(small_cfg)
    done = dataclasses.replace(b.observables[0], hand_raise=0)
    drifted = Belief(robot=b.robot, observables=(done,), satisfaction=((0.3, 0.3, 0.3),))
    with pytest.raises(ModelInvariantError):
        belief_step(drifted, NOOP, 1, (done,), small_cfg)


def test_belief_predict_rejects_a_vector_without_mass(small_cfg):
    b = belief_init(small_cfg)
    empty = dataclasses.replace(b, satisfaction=((0.0, 0.0, 0.0),))
    with pytest.raises(ModelInvariantError, match="no mass"):
        belief_predict(empty, NOOP, small_cfg)


def test_posterior_equals_prediction_information_neutrality(small_cfg):
    """Observations never sharpen the satisfaction belief in this domain."""
    rng = np.random.default_rng(5)
    js = initial_joint_state(small_cfg, rng)
    b = belief_init(small_cfg)
    for _ in range(30):
        if all_done(js):
            break
        acts = sorted(legal_actions(js, small_cfg), key=action_sort_key)
        action = acts[int(rng.integers(len(acts)))]
        result = step_joint(js, action, small_cfg, rng)
        predicted, _ = belief_predict(b, action, small_cfg)
        posterior = belief_step(b, action, result.duration, result.obs, small_cfg)
        assert posterior.satisfaction == predicted.satisfaction
        b = posterior
        js = result.next


def test_observable_part_tracks_simulator(two_cfg):
    rng = np.random.default_rng(11)
    js = initial_joint_state(two_cfg, rng)
    b = belief_init(two_cfg)
    for _ in range(50):
        if all_done(js):
            break
        acts = sorted(legal_actions(js, two_cfg), key=action_sort_key)
        action = acts[int(rng.integers(len(acts)))]
        result = step_joint(js, action, two_cfg, rng)
        b = belief_step(b, action, result.duration, result.obs, two_cfg)
        js = result.next
        assert b.observables == tuple(observe(ts) for ts in js.tables)
        assert b.robot == js.robot


def test_normalization_preserved_over_long_random_run(two_cfg):
    rng = np.random.default_rng(23)
    js = initial_joint_state(two_cfg, rng)
    b = belief_init(two_cfg)
    steps = 0
    while steps < 1000:
        if all_done(js):
            js = initial_joint_state(two_cfg, rng)
            b = belief_init(two_cfg)
        acts = sorted(legal_actions(js, two_cfg), key=action_sort_key)
        action = acts[int(rng.integers(len(acts)))]
        result = step_joint(js, action, two_cfg, rng)
        b = belief_step(b, action, result.duration, result.obs, two_cfg)
        js = result.next
        steps += 1
        for vec in b.satisfaction:
            assert abs(math.fsum(vec) - 1.0) < 1e-9
            assert all(p >= 0 for p in vec)


def test_filter_matches_exhaustive_forward_enumeration(small_cfg):
    """Exact filter vs brute-force distribution over full table states."""
    result = check_filter_vs_enumeration(small_cfg, 10, 20, 1000)
    assert result.passed, result.detail
