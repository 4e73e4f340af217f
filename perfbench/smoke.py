"""Smoke check of the benchmark: every workload, a few episodes, both modes.

    python3 perfbench/smoke.py

Each workload runs with ``--seconds 1``, once with ``--trace 0`` and once with
``--trace 1``. The check fails unless every run exits 0, reports
``correct`` with no failed episode, and emits exactly the metrics that
``BENCHMARK.json`` lists for its mode, each with the listed unit and a
finite value.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

sys.path.insert(0, str(BENCH_DIR))
from run import WORKLOADS  # noqa: E402


def check_run(name: str, trace: int, expected: dict[str, str]) -> list[str]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    where = f"{name} trace={trace}"
    if out.returncode != 0:
        return [f"{where}: exit code {out.returncode}\n{out.stderr}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    for missing in sorted(set(expected) - set(metrics)):
        problems.append(f"{where}: metric {missing} not emitted")
    for extra in sorted(set(metrics) - set(expected)):
        problems.append(f"{where}: metric {extra} not listed in BENCHMARK.json")
    for metric, unit in expected.items():
        m = metrics.get(metric)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{where}: {metric} has unit {m.get('unit')!r}, expected {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {metric} has value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} differ from run.py's {sorted(WORKLOADS)}")
    for name in names:
        for trace in (0, 1):
            found = check_run(name, trace, expected[trace])
            print(f"{name} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
