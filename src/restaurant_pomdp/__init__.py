"""Simulator, exact belief filter, and planning benchmark for a robot
servicing N independently evolving restaurant tables."""

from .belief import (
    Belief,
    Observation,
    ObservationMismatchError,
    belief_init,
    belief_predict,
    belief_step,
    observe,
    table_from_observation,
)
from .config import (
    ConfigError,
    RestaurantConfig,
    RewardParams,
    SCENARIOS,
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
)
from .dynamics import (
    TransitionDistribution,
    action_duration,
    apply_serve,
    navigation_duration,
    sample_transition,
    tick_table,
    transition_distribution,
)
from .harness import (
    EpisodeSummary,
    EpisodeTrace,
    Metrics,
    StepRecord,
    evaluate,
    expected_return,
    replay_actions,
    run_batch,
    run_episode,
    seed_streams,
    summarize,
    write_trace_jsonl,
)
from .joint import (
    JointStepResult,
    SupportCapError,
    enumerate_joint_transitions,
    step_joint,
)
from .model import (
    Action,
    ActionKind,
    IllegalActionError,
    JointState,
    NOOP,
    RobotState,
    TableState,
    all_done,
    comm_food_not_ready,
    comm_will_return,
    fresh_table,
    go_to,
    initial_joint_state,
    legal_actions,
    serve,
)
from .planners import (
    PolicySpec,
    act_fcfs,
    act_greedy,
    act_mcts,
    act_random,
    make_policy,
    mcts_search,
    parse_policy_spec,
    value_expectimax,
)
from .rewards import expected_reward, reward, table_transition_outcomes

__version__ = "0.1.0"
