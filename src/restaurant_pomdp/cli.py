"""Command-line entry point: run, evaluate, compare, verify.

Exit codes: 0 success, 1 internal error or failed verification, 2 bad
configuration or usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager

from .checks import DEFAULT_STATE_CAP, run_verify
from .config import (
    ConfigError,
    RestaurantConfig,
    SCENARIOS,
    apply_overrides,
    config_from_dict,
    config_to_dict,
)
from .harness import (
    aggregate,
    append_metrics_csv,
    evaluate,
    metrics_csv_row,
    METRICS_COLUMNS,
    paired_difference,
    run_batch,
    run_episode,
    write_trace_jsonl,
)
from .joint import SupportCapError
from .planners import parse_policy_spec

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a config JSON file")
    p.add_argument("--scenario", choices=sorted(SCENARIOS), help="built-in scenario")
    p.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config patch, repeatable; values parsed as JSON",
    )
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restaurant-pomdp",
        description="Simulator, exact belief filter, and planning benchmark "
        "for a robot waiting tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single episode and write its trace")
    _add_config_args(p_run)
    p_run.add_argument("--policy", default="greedy", help="policy spec NAME[:k=v,...]")
    p_run.add_argument("--out", default="trace.jsonl", help="trace output path")

    p_eval = sub.add_parser("evaluate", help="evaluate one policy over many episodes")
    _add_config_args(p_eval)
    p_eval.add_argument("--policy", default="greedy")
    p_eval.add_argument("--episodes", type=int, default=100)
    p_eval.add_argument("--workers", type=int, default=1)
    p_eval.add_argument("--out", default="metrics.csv", help="metrics CSV (appended)")

    p_cmp = sub.add_parser("compare", help="compare policies under shared seeds")
    _add_config_args(p_cmp)
    p_cmp.add_argument(
        "--policy", action="append", default=[], help="repeatable policy spec"
    )
    p_cmp.add_argument("--episodes", type=int, default=100)
    p_cmp.add_argument("--workers", type=int, default=1)
    p_cmp.add_argument("--out", default="compare.csv")

    p_ver = sub.add_parser("verify", help="run the built-in model checks")
    _add_config_args(p_ver)
    p_ver.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP)

    return parser


def resolve_config(args: argparse.Namespace) -> RestaurantConfig:
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {args.config} must be a JSON object")
    elif args.scenario:
        doc = config_to_dict(SCENARIOS[args.scenario]())
    else:
        raise ConfigError("one of --config or --scenario is required")
    if args.override:
        doc = apply_overrides(doc, args.override)
    if args.seed is not None:
        doc["seed"] = args.seed
    return config_from_dict(doc)


@contextmanager
def _writing(path: str):
    """Report a failure to write ``path`` as a config error, as for ``--config``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _check_writable(path: str) -> None:
    """Fail before any episode runs if ``path`` cannot be written, leaving it as it was.

    Opening for append neither truncates nor changes an existing file; a file
    the probe creates is removed again.
    """
    existed = os.path.lexists(path)
    with _writing(path):
        open(path, "a").close()
        if not existed:
            os.remove(path)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    spec = parse_policy_spec(args.policy)
    _check_writable(args.out)
    trace = run_episode(spec, cfg, cfg.seed)
    with _writing(args.out):
        write_trace_jsonl(trace, args.out)
    print(f"episode seed={cfg.seed} steps={len(trace.steps)}")
    print(f"discounted_return={trace.discounted_return!r}")
    print(f"trace written to {args.out}")
    return EXIT_OK


def _check_counts(args: argparse.Namespace) -> None:
    for flag, value in (("--episodes", args.episodes), ("--workers", args.workers)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    _check_counts(args)
    spec = parse_policy_spec(args.policy)
    _check_writable(args.out)
    metrics = evaluate(spec, cfg, args.episodes, cfg.seed, workers=args.workers)
    with _writing(args.out):
        append_metrics_csv(args.out, args.policy, cfg.seed, metrics)
    print(",".join(METRICS_COLUMNS))
    print(metrics_csv_row(args.policy, cfg.seed, metrics))
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    _check_counts(args)
    if not args.policy:
        raise ConfigError("compare requires at least one --policy")
    specs = [(label, parse_policy_spec(label)) for label in args.policy]
    _check_writable(args.out)
    results = []
    for label, spec in specs:
        summaries = run_batch(spec, cfg, args.episodes, cfg.seed, workers=args.workers)
        returns = [s.discounted_return for s in summaries]
        results.append((label, aggregate(summaries, cfg.n_tables), returns))
    results.sort(key=lambda item: -item[1].mean_return)
    with _writing(args.out), open(args.out, "w") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")
        for label, metrics, _ in results:
            fh.write(metrics_csv_row(label, cfg.seed, metrics) + "\n")
    print(f"{args.episodes} shared-seed episodes per policy (base seed {cfg.seed})")
    for label, metrics, returns in results:
        se = metrics.stddev_return / math.sqrt(len(returns))
        print(f"{label}: mean_return={metrics.mean_return:.4f} se={se:.4f}")
    for (la, _, ra), (lb, _, rb) in zip(results, results[1:]):
        mean, se = paired_difference(ra, rb)
        z = mean / se if se > 0 else math.copysign(math.inf, mean) if mean else 0.0
        print(f"{la} - {lb}: paired_diff={mean:.4f} se={se:.4f} z={z:.2f}")
    print(f"comparison written to {args.out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if not args.config and not args.scenario:
        args.scenario = "small-1table"
    cfg = resolve_config(args)
    results = run_verify(cfg, cap=args.cap)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
    if failed:
        print(f"verification failed: {failed[0].name}")
        return EXIT_INTERNAL
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "evaluate": cmd_evaluate,
        "compare": cmd_compare,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SupportCapError as exc:
        print(f"enumeration cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
