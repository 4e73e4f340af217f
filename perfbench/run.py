"""Closed-loop planning benchmark for restaurant-pomdp.

Usage, from the repository root:

    python3 perfbench/run.py                      # every workload, both modes
    python3 perfbench/run.py --workload mcts-2tables --seed 3 --seconds 20 --trace 0

With ``--workload`` the run measures one workload in this process and prints
a report whose last line is one JSON object: ``correct``, ``attempted``,
``failed`` (episodes) and ``metrics``. ``--trace 0`` gives the end-to-end
metrics, measured with tracing off; ``--trace 1`` plays the same episodes
once untraced and once traced and gives the per-layer metrics. Without
``--workload`` every workload runs in its own fresh process, once per mode,
and a table of every metric follows. Reports and per-layer breakdowns are
written to ``perfbench-out/`` as JSON.

Every workload is a closed loop with one client: episodes run one after
another and the environment steps only after a decision completes. A run
does a fixed amount of work, sized from ``--seconds``, so a given seed always
plays the same episodes and a faster program simply finishes sooner. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench-out"

sys.path.insert(0, str(BENCH_DIR))
from probe import probe_s, scale  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    scenario: str
    policy: str
    # Episodes a run plays per second of --seconds. It only sizes a run: a
    # faster program finishes the same episodes sooner instead of playing
    # different ones. On the reference machine (2 shared cores, Python 3.11)
    # a run's timed part takes about --seconds, except on mcts-2tables. Its
    # growing caches cause about a dozen garbage-collector pauses per run, so
    # it plays about 2.5 times longer: its p99 then rests on ~1900 decisions
    # and falls beyond those pauses instead of among them.
    episodes_per_run_s: float
    write_traces: bool = False


WORKLOADS = {
    "greedy-3tables": Workload("paper-3tables", "greedy", 20.0),
    "mcts-2tables": Workload("two-tables", "mcts:budget=1000,max_depth=10", 2.5),
    "expectimax-2tables": Workload("two-tables", "expectimax", 2.1),
    "fcfs-trace-3tables": Workload("paper-3tables", "fcfs", 50.0, write_traces=True),
}

# Mean return is taken over these shared episode seeds, 0 .. n-1, identical
# for every --seed, so it compares like with like across runs and commits.
QUALITY_SEEDS_MAX = 20
SETUP_REPEATS = 9
# Timed intervals are rescaled to reference seconds in blocks of about this
# many seconds (see Pass and probe.py).
PROBE_INTERVAL_S = 0.25
BELIEF_SUM_TOLERANCE = 1e-9

END_TO_END_UNITS = {
    "decisions_per_s": "1/s",
    "episodes_per_s": "1/s",
    "decision_ms_p50": "ms",
    "decision_ms_p99": "ms",
    "return_over_idle": "return",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# numpy is imported before the timer starts: no change to this repository can
# move its import time, and loading its shared libraries is the noisiest part
# of a fresh start on the reference machine.
SETUP_CODE = """
import sys, time
sys.path[:0] = [sys.argv[3], sys.argv[4]]
import numpy
from probe import probe_s
probe_s()  # the first probe in a fresh interpreter runs cold
before = probe_s()
t0 = time.perf_counter()
from restaurant_pomdp import SCENARIOS, make_policy, parse_policy_spec
cfg = SCENARIOS[sys.argv[1]]()
make_policy(parse_policy_spec(sys.argv[2]), cfg)
elapsed = time.perf_counter() - t0
print(repr(elapsed), repr(before), repr(probe_s()))
"""


def import_package():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "restaurant_pomdp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no restaurant_pomdp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import restaurant_pomdp
    from restaurant_pomdp import harness

    if Path(restaurant_pomdp.__file__).resolve().parent != SRC / "restaurant_pomdp":
        raise SystemExit(f"perfbench: imported restaurant_pomdp from {restaurant_pomdp.__file__}")
    return restaurant_pomdp, harness


def measure_setup(wl: Workload) -> list[float]:
    """Import, config validation and policy construction, each in a fresh
    process, in reference seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, wl.scenario, wl.policy, str(SRC), str(BENCH_DIR)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, before, after = map(float, out.stdout.split())
        times.append(elapsed * scale(before, after))
    return times


def episode_seeds(wl: Workload, seed: int, seconds: float) -> tuple[list[int], int]:
    """The run's episode seeds: the shared quality seeds, then seeds from ``seed``."""
    total = max(2, round(seconds * wl.episodes_per_run_s))
    n_quality = min(QUALITY_SEEDS_MAX, total // 2)
    derived = np.random.SeedSequence(seed).generate_state(total - n_quality, dtype=np.uint32)
    return list(range(n_quality)) + [int(s) for s in derived], n_quality


# --- output checks -------------------------------------------------------------


def check_belief(trace) -> tuple[list[str], float, int]:
    """Belief vectors sum to one and give the true satisfaction positive mass.

    Returns the problems found and the summed log-likelihood of the true
    satisfaction under the belief, with its sample count.
    """
    problems = []
    loglik = 0.0
    n = 0
    for step in trace.steps:
        for i, (sat, vec) in enumerate(zip(step.satisfactions, step.belief)):
            total = math.fsum(vec)
            if abs(total - 1.0) > BELIEF_SUM_TOLERANCE:
                problems.append(f"step {step.index} table {i}: belief sums to {total!r}")
            if not vec[sat] > 0.0:
                problems.append(f"step {step.index} table {i}: true satisfaction {sat} has no belief mass")
                continue
            loglik += math.log(vec[sat])
            n += 1
    return problems, loglik, n


def check_roundtrip(harness, cfg, trace, path: str) -> list[str]:
    """A written trace replays to the states it records."""
    from restaurant_pomdp import observe

    seed, actions = harness.read_trace_actions(path)
    if seed != trace.seed or actions != [s.action for s in trace.steps]:
        return [f"trace of seed {trace.seed}: header seed or actions differ from the episode"]
    with open(path) as fh:
        docs = [json.loads(line) for line in fh if line.strip()][1:]
    states = harness.replay_actions(cfg, seed, actions)[1:]
    for doc, js in zip(docs, states):
        if (
            doc["clock"] != js.clock
            or doc["satisfactions"] != [ts.satisfaction for ts in js.tables]
            or doc["observations"] != [asdict(observe(ts)) for ts in js.tables]
        ):
            return [f"trace of seed {trace.seed}: replay differs at step {doc['index']}"]
    if len(docs) != len(states):
        return [f"trace of seed {trace.seed}: {len(docs)} steps written, {len(states)} replayed"]
    return []


# --- one pass over the episode list ---------------------------------------------


@dataclass
class Pass:
    """One pass over the episode list, with times in reference seconds.

    The timed intervals are grouped into blocks of about
    ``PROBE_INTERVAL_S``. The speed probe runs between blocks, outside the
    timed intervals, and each block's times, its decision latencies
    included, are rescaled by the probes on either side of it. The unscaled
    sum is kept in ``raw_busy_s``.
    """

    policy: object
    returns: dict[int, float] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    decisions: int = 0
    episode_s: float = 0.0
    write_s: float = 0.0
    raw_busy_s: float = 0.0
    scales: list[float] = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)
    loglik: float = 0.0
    loglik_n: int = 0
    trace_bytes: int = 0
    _block: list[float] = field(default_factory=lambda: [0.0, 0.0], init=False)
    _block_start: float = field(default_factory=time.perf_counter, init=False)
    _block_probe: float = field(default_factory=probe_s, init=False)
    _block_latencies: int = field(default=0, init=False)

    @property
    def busy_s(self) -> float:
        return self.episode_s + self.write_s

    def add(self, episode_s: float, write_s: float) -> None:
        self._block[0] += episode_s
        self._block[1] += write_s
        self.raw_busy_s += episode_s + write_s
        if time.perf_counter() - self._block_start >= PROBE_INTERVAL_S:
            self.end_block()

    def end_block(self) -> None:
        probe = probe_s()
        factor = scale(self._block_probe, probe)
        self.episode_s += self._block[0] * factor
        self.write_s += self._block[1] * factor
        for i in range(self._block_latencies, len(self.latencies)):
            self.latencies[i] *= factor
        self.scales.append(factor)
        self._block = [0.0, 0.0]
        self._block_start = time.perf_counter()
        self._block_probe = probe
        self._block_latencies = len(self.latencies)


def timed(act, samples: list[float]):
    clock = time.perf_counter

    def act_timed(belief, rng):
        t0 = clock()
        action = act(belief, rng)
        samples.append(clock() - t0)
        return action

    return act_timed


def play(pkg, harness, wl: Workload, cfg, spec, seeds: list[int], tmp: str, tracer: Tracer | None = None) -> Pass:
    """Play every seed's episode in turn with one policy object.

    Only ``run_episode`` and ``write_trace_jsonl`` are timed, and only they
    are traced; the output checks run between episodes, outside both.
    """
    run = Pass(policy=pkg.make_policy(spec, cfg))
    if tracer is None:
        run.policy.act = timed(run.policy.act, run.latencies)
    else:
        tracer.trace_policy(run.policy)
    path = os.path.join(tmp, "episode.jsonl")
    clock = time.perf_counter
    for seed in seeds:
        if tracer is not None:
            tracer.install()
        try:
            t0 = clock()
            trace = harness.run_episode(run.policy, cfg, seed)
            t1 = clock()
            if wl.write_traces:
                harness.write_trace_jsonl(trace, path)
            t2 = clock()
        except Exception:
            run.failures[seed] = traceback.format_exc()
            continue
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems, loglik, n = check_belief(trace)
        if wl.write_traces:
            problems += check_roundtrip(harness, cfg, trace, path)
            run.trace_bytes += os.path.getsize(path)
        if problems:
            run.failures[seed] = "; ".join(problems[:3])
            continue
        run.add(t1 - t0, t2 - t1)
        run.decisions += len(trace.steps)
        run.returns[seed] = trace.discounted_return
        run.loglik += loglik
        run.loglik_n += n
    run.end_block()
    return run


# --- metrics -------------------------------------------------------------------


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """The value at the highest percentile (at most the 99th) with at least
    ten samples beyond it, and that percentile. Below 11 samples: the maximum."""
    s = sorted(samples)
    n = len(s)
    idx = n - 1 if n < 11 else min(math.ceil(0.99 * n) - 1, n - 11)
    return s[idx], 100.0 * (idx + 1) / n


def paired(diffs: list[float]) -> tuple[float, float]:
    mean = statistics.fmean(diffs)
    se = statistics.stdev(diffs) / math.sqrt(len(diffs)) if len(diffs) > 1 else 0.0
    return mean, se


class IdlePolicy:
    """Never acts; the floor ``return_over_idle`` is measured from.

    Its return involves no policy randomness, so the floor moves only when
    the model does.
    """

    def __init__(self, noop) -> None:
        self.noop = noop

    def act(self, belief, rng):
        return self.noop


def quality(pkg, harness, wl: Workload, cfg, run: Pass, quality_seeds: list[int]) -> dict:
    """Return on the shared seeds, against idling and greedy on the same seeds."""
    seeds = [s for s in quality_seeds if s in run.returns]
    own = [run.returns[s] for s in seeds]

    def returns(policy) -> list[float]:
        return [harness.run_episode(policy, cfg, s).discounted_return for s in seeds]

    greedy = own if wl.policy == "greedy" else returns(pkg.make_policy(pkg.parse_policy_spec("greedy"), cfg))
    diff, se = paired([a - b for a, b in zip(own, greedy)])
    return {
        "seeds": len(seeds),
        "mean_return": statistics.fmean(own),
        "idle_mean_return": statistics.fmean(returns(IdlePolicy(pkg.NOOP))),
        "diff_vs_greedy": diff,
        "diff_vs_greedy_se": se,
    }


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def lines(sub: str) -> int:
        return sum(len(p.read_bytes().splitlines()) for p in (ROOT / sub).rglob("*.py"))

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "lines": {sub: lines(sub) for sub in ("src", "tests", "scripts")},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = WORKLOADS[name]
    pkg, harness = import_package()
    setup_times = measure_setup(wl)
    cfg = pkg.SCENARIOS[wl.scenario]()
    spec = pkg.parse_policy_spec(wl.policy)
    # A traced run plays each episode twice, so it is sized for half the time.
    seeds, n_quality = episode_seeds(wl, seed, seconds / 2 if trace else seconds)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        run = play(pkg, harness, wl, cfg, spec, seeds, tmp)
        failures = dict(run.failures)
        if trace:
            tracer = Tracer()
            traced = play(pkg, harness, wl, cfg, spec, seeds, tmp, tracer)
            failures.update(traced.failures)
            for s, ret in run.returns.items():
                if s not in failures and traced.returns.get(s) != ret:
                    failures[s] = f"traced return {traced.returns.get(s)!r} differs from untraced {ret!r}"
    q = quality(pkg, harness, wl, cfg, run, seeds[:n_quality])
    env = environment()
    n_ok = len(run.returns)

    if not trace:
        p99, p99_pct = tail_latency(run.latencies)
        metrics = {
            "decisions_per_s": run.decisions / run.episode_s,
            "episodes_per_s": n_ok / run.busy_s,
            "decision_ms_p50": 1e3 * statistics.median(run.latencies),
            "decision_ms_p99": 1e3 * p99,
            "return_over_idle": q["mean_return"] - q["idle_mean_return"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
        metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        details = {
            "decision_samples": len(run.latencies),
            "decision_p99_percentile": p99_pct,
            "setup_s_samples": setup_times,
            "raw_episodes_per_s": n_ok / run.raw_busy_s,
            "speed_scale_median": statistics.median(run.scales),
        }
    else:
        metrics, details = layer_metrics(wl, spec, run, traced, tracer.breakdown(), q, env)

    result = {
        "correct": not failures,
        "attempted": len(seeds),
        "failed": len(failures),
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "scenario": wl.scenario,
        "policy": wl.policy,
        "shape": "closed loop, 1 client, workers=1",
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "episodes": len(seeds),
        "quality_seeds": n_quality,
        "decisions": run.decisions,
        "error_rate": result["failed"] / result["attempted"],
        "failures": [f"seed {s}: {msg}" for s, msg in sorted(failures.items())[:20]],
        "quality": q,
        "environment": env,
        "details": details,
        "result": result,
    }
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=2) + "\n")
    print_report(report)
    return result


def layer_metrics(wl, spec, run: Pass, traced: Pass, bd: dict, q: dict, env: dict) -> tuple[dict, dict]:
    funcs = bd["functions"]
    # Spans are unscaled, so shares are taken of the unscaled busy time.
    busy = traced.raw_busy_s
    m: dict[str, dict] = {}
    self_total = 0.0
    for name in TRACED:
        f = funcs[name]
        self_total += f["self_s"]
        m[f"{name}.calls"] = metric(f["calls"], "count")
        m[f"{name}.us_per_call"] = metric(1e6 * f["inclusive_s"] / f["calls"] if f["calls"] else 0.0, "us")
        m[f"{name}.self_share"] = metric(f["self_s"] / busy, "share")
    search = funcs["planners.mcts_search"]
    caches = getattr(traced.policy, "caches", None)
    joint_edges = len(caches.joint_edges) if caches else 0
    m["planners.mcts.simulations_per_s"] = metric(
        search["calls"] * spec.budget / search["inclusive_s"] if search["calls"] else 0.0, "1/s")
    m["planners.mcts.joint_edges"] = metric(joint_edges, "count")
    m["planners.mcts.table_edges"] = metric(len(caches.table_edges) if caches else 0, "count")
    m["planners.mcts.legal_entries"] = metric(len(caches.legal) if caches else 0, "count")
    m["planners.mcts.new_edges_per_decision"] = metric(joint_edges / traced.decisions, "count")
    expectimax = funcs["planners.value_expectimax"]
    m["planners.expectimax.nodes_per_s"] = metric(
        bd["expectimax_nodes"] / expectimax["inclusive_s"] if expectimax["calls"] else 0.0, "1/s")
    m["harness.trace_bytes_per_episode"] = metric(traced.trace_bytes / len(traced.returns), "B")
    m["belief.true_sat_loglik"] = metric(traced.loglik / traced.loglik_n, "nats")
    m["trace.overhead"] = metric(traced.busy_s / run.busy_s - 1.0, "ratio")
    m["trace.unexplained_share"] = metric((busy - self_total) / busy, "share")
    m["quality.mean_return"] = metric(q["mean_return"], "return")
    m["quality.return_diff_vs_greedy"] = metric(q["diff_vs_greedy"], "return")
    m["quality.return_diff_vs_greedy_se"] = metric(q["diff_vs_greedy_se"], "return")
    for sub, count in env["lines"].items():
        m[f"size.{sub}_lines"] = metric(count, "lines")
    details = {
        "spans": sum(f["calls"] for f in funcs.values()),
        "traced_busy_s": traced.busy_s,
        "untraced_busy_s": run.busy_s,
        "traced_raw_busy_s": busy,
        "functions": funcs,
    }
    return m, details


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']}: {report['policy']} on {report['scenario']}, {report['shape']}")
    print(f"  seed {report['seed']}, {report['episodes']} episodes ({report['quality_seeds']} shared quality seeds), "
          f"{report['decisions']} decisions, trace={report['trace']}")
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, cpu {env['cpu_model']}")
    print("  lines: " + ", ".join(f"{k} {v}" for k, v in env["lines"].items()))
    q = report["quality"]
    print(f"  quality over {q['seeds']} shared seeds: mean return {q['mean_return']:.3f}, idle {q['idle_mean_return']:.3f}, "
          f"paired diff vs greedy {q['diff_vs_greedy']:+.3f} (se {q['diff_vs_greedy_se']:.3f})")
    d = report["details"]
    if "decision_samples" in d:
        print(f"  decision_ms_p99 is the p{d['decision_p99_percentile']:.2f} of {d['decision_samples']} decisions")
        print(f"  times are in reference seconds: median speed scale {d['speed_scale_median']:.4f}, "
              f"unscaled episodes_per_s {d['raw_episodes_per_s']:.6g}")
    print(f"  error_rate {report['error_rate']:.4g} ({report['result']['failed']} of {report['result']['attempted']} episodes)")
    for failure in report["failures"]:
        print("  FAILED " + failure.strip().replace("\n", "\n    "))
    for name, m in report["result"]["metrics"].items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")


def run_all(seed: int, seconds: int) -> dict:
    """Every workload in a fresh process, end-to-end then traced."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if out.returncode != 0 or not lines:
                sys.stderr.write(out.stderr)
                raise SystemExit(f"perfbench: {name} trace={trace} exited with {out.returncode}")
            results[(name, trace)] = json.loads(lines[-1])
    print("\nsummary")
    for (name, trace), r in results.items():
        if trace == 0:
            for mname, m in r["metrics"].items():
                print(f"  {name:20s} {mname:20s} {m['value']:>14.6g} {m['unit']}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{mname}": m for (name, _), r in results.items() for mname, m in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload is None:
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
