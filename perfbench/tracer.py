"""In-memory span tracer for one traced benchmark run.

The tracer rebinds each traced function in every ``restaurant_pomdp`` module
that holds a reference to it, so calls made inside the package are recorded
too; nothing under ``src/`` changes. Each call records a span (function,
parent span, start, end) in flat arrays that stay in memory until the run
ends. A span's self time is its duration minus the time its direct children
cover.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

PACKAGE = "restaurant_pomdp"

# Module-level functions rebound in place, as "<module>.<function>".
MODULE_FUNCTIONS = (
    "model.legal_actions",
    "dynamics.tick_table",
    "dynamics.transition_distribution",
    "rewards.expected_reward",
    "rewards.table_transition_outcomes",
    "joint.step_joint",
    "joint.enumerate_joint_transitions",
    "belief.belief_step",
    "belief.belief_predict",
    "planners.mcts_search",
    "planners.value_expectimax",
    "harness.run_episode",
    "harness.write_trace_jsonl",
)
# ``act`` is a method of every policy class; it is wrapped on the policy object.
POLICY_ACT = "planners.act"
TRACED = MODULE_FUNCTIONS + (POLICY_ACT,)


class Tracer:
    def __init__(self) -> None:
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        fid_of = TRACED.index(name)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid_of)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced module function wherever the package imported it."""
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name in MODULE_FUNCTIONS:
            module, func = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], func)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def trace_policy(self, policy) -> None:
        policy.act = self.wrap(POLICY_ACT, policy.act)

    def breakdown(self) -> dict:
        """Per traced function: calls, inclusive seconds and self seconds.

        Also returns ``expectimax_nodes``: ``belief_predict`` calls made
        directly by ``value_expectimax``.
        """
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(fid))
        self_time = dur - child
        calls = np.bincount(fid, minlength=len(TRACED))
        inclusive = np.bincount(fid, weights=dur, minlength=len(TRACED))
        own = np.bincount(fid, weights=self_time, minlength=len(TRACED))
        predict = fid == TRACED.index("belief.belief_predict")
        parent_fid = np.where(has_parent, fid[np.maximum(parent, 0)], -1)
        nodes = int(np.count_nonzero(predict & (parent_fid == TRACED.index("planners.value_expectimax"))))
        return {
            "functions": {
                name: {"calls": int(calls[i]), "inclusive_s": float(inclusive[i]), "self_s": float(own[i])}
                for i, name in enumerate(TRACED)
            },
            "expectimax_nodes": nodes,
        }
