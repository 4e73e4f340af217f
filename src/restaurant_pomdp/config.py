"""Configuration for the one-robot, N-table restaurant service benchmark.

A scenario is fully described by a ``RestaurantConfig``, which checks itself
when built: an invalid value raises :class:`ConfigError`, so every config that
exists is valid. Derived fields (``time_max``, ``initial_satisfaction``,
``satisfaction_prior``) may be left as ``None`` and are filled in then.
Configs round-trip through JSON with a strict schema: unknown keys are
rejected so that typos in schedule-critical fields cannot silently corrupt an
experiment.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Any


class ConfigError(ValueError):
    """Invalid configuration value or malformed config document."""


PRIOR_TOLERANCE = 1e-9


def _require_int(name: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _require_number(name: str, value: Any) -> Any:
    """``value`` as given, if it is a real number, not a bool, and finite as a float.

    NaN fails every comparison, so a bound written as ``x < 0`` lets it
    through, and ``json.loads`` reads ``NaN`` and ``Infinity`` in an
    override. The model computes in floats, so an int too large for one,
    which :func:`math.isfinite` cannot convert, is refused as well.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def _require_sequence(name: str, value: Any) -> tuple | list:
    if not isinstance(value, (tuple, list)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return value


def _require_position(name: str, value: Any, width: int, height: int) -> tuple[int, int]:
    if not (isinstance(value, (tuple, list)) and len(value) == 2):
        raise ConfigError(f"{name} must be an (x, y) pair, got {value!r}")
    x = _require_int(f"{name}.x", value[0])
    y = _require_int(f"{name}.y", value[1])
    if not (0 <= x < width and 0 <= y < height):
        raise ConfigError(f"{name}={value!r} lies outside the {width}x{height} grid")
    return (x, y)


@dataclass(frozen=True)
class RewardParams:
    """Parameters of the reward function, checked when built.

    ``penalty_bases[k]`` is the exponential base of the waiting penalty when
    the table's next satisfaction equals ``k``; satisfaction values beyond the
    tuple fall into the bonus/zero regime. An invalid value raises
    :class:`ConfigError`; the bases are stored as a tuple of floats.
    """

    serve_scale: float = 5.0
    nav_divisor: float = 3.0
    penalty_bases: tuple[float, ...] = (2.0, 1.7, 1.4)
    time_cap: int = 10
    improvement_bonus: float = 1.0

    def __post_init__(self) -> None:
        for name in ("serve_scale", "nav_divisor", "time_cap", "improvement_bonus"):
            _require_number(f"reward.{name}", getattr(self, name))
        if not _require_sequence("reward.penalty_bases", self.penalty_bases):
            raise ConfigError("penalty_bases must not be empty")
        bases = tuple(
            float(_require_number(f"reward.penalty_bases[{i}]", b))
            for i, b in enumerate(self.penalty_bases)
        )
        for b in bases:
            if not b > 1.0:
                raise ConfigError(f"penalty base {b} must be > 1")
        if self.time_cap < 0:
            raise ConfigError("time_cap must be >= 0")
        if not self.nav_divisor > 0:
            raise ConfigError("nav_divisor must be > 0")
        object.__setattr__(self, "penalty_bases", bases)


@dataclass(frozen=True)
class RestaurantConfig:
    """One scenario, checked when built.

    An invalid field raises :class:`ConfigError` (positions off-grid,
    duplicate tables, unnormalized prior, ...). A built config always carries
    concrete ``time_max``, ``initial_satisfaction`` and
    ``satisfaction_prior``, its positions as int tuples and its prior as a
    tuple of floats. ``dataclasses.replace`` builds, and so checks, anew.
    """

    n_tables: int
    table_positions: tuple[tuple[int, int], ...]
    robot_start: tuple[int, int]
    grid_width: int = 11
    grid_height: int = 11
    sat_max: int = 5
    time_max: int | None = None
    gamma: float = 0.95
    horizon: int = 60
    seed: int = 0
    duration_max_nav: int = 3
    initial_satisfaction: int | None = None
    satisfaction_prior: tuple[float, ...] | None = None
    reward: RewardParams = field(default_factory=RewardParams)

    def __post_init__(self) -> None:
        n = _require_int("n_tables", self.n_tables)
        if n < 1:
            raise ConfigError("n_tables must be >= 1")
        width = _require_int("grid_width", self.grid_width)
        height = _require_int("grid_height", self.grid_height)
        if width < 1 or height < 1:
            raise ConfigError("grid dimensions must be >= 1")

        if len(_require_sequence("table_positions", self.table_positions)) != n:
            raise ConfigError(
                f"expected {n} table_positions, got {len(self.table_positions)}"
            )
        positions = tuple(
            _require_position(f"table_positions[{i}]", p, width, height)
            for i, p in enumerate(self.table_positions)
        )
        if len(set(positions)) != len(positions):
            raise ConfigError("table_positions must be pairwise distinct")
        robot_start = _require_position("robot_start", self.robot_start, width, height)

        sat_max = _require_int("sat_max", self.sat_max)
        if sat_max < 1:
            raise ConfigError("sat_max must be >= 1")

        time_max = self.time_max
        if time_max is None:
            time_max = n * sat_max
        else:
            time_max = _require_int("time_max", time_max)
            if time_max < 1:
                raise ConfigError("time_max must be >= 1")

        if not (0.0 < _require_number("gamma", self.gamma) <= 1.0):
            raise ConfigError(f"gamma={self.gamma} must lie in (0, 1]")
        horizon = _require_int("horizon", self.horizon)
        if horizon < 0:
            raise ConfigError("horizon must be >= 0")
        seed = _require_int("seed", self.seed)
        if seed < 0:
            raise ConfigError("seed must be >= 0")
        dmax = _require_int("duration_max_nav", self.duration_max_nav)
        if dmax < 1:
            raise ConfigError("duration_max_nav must be >= 1")

        init_sat = self.initial_satisfaction
        if init_sat is None:
            init_sat = sat_max
        else:
            init_sat = _require_int("initial_satisfaction", init_sat)
            if not (0 <= init_sat <= sat_max):
                raise ConfigError(
                    f"initial_satisfaction={init_sat} outside [0, {sat_max}]"
                )

        prior = self.satisfaction_prior
        if prior is None:
            prior = tuple(1.0 if s == init_sat else 0.0 for s in range(sat_max + 1))
        else:
            prior = tuple(
                float(_require_number(f"satisfaction_prior[{i}]", p))
                for i, p in enumerate(_require_sequence("satisfaction_prior", prior))
            )
            if len(prior) != sat_max + 1:
                raise ConfigError(
                    f"satisfaction_prior must have length {sat_max + 1}, got {len(prior)}"
                )
            if any(p < 0 for p in prior):
                raise ConfigError("satisfaction_prior entries must be nonnegative")
            total = sum(prior)
            if abs(total - 1.0) > PRIOR_TOLERANCE:
                raise ConfigError(f"satisfaction_prior sums to {total}, expected 1")

        if not isinstance(self.reward, RewardParams):
            raise ConfigError(f"reward must be RewardParams, got {self.reward!r}")

        for name, value in (
            ("table_positions", positions),
            ("robot_start", robot_start),
            ("time_max", time_max),
            ("initial_satisfaction", init_sat),
            ("satisfaction_prior", prior),
        ):
            object.__setattr__(self, name, value)


# --- JSON round-trip ---------------------------------------------------------

_CONFIG_KEYS = tuple(f.name for f in fields(RestaurantConfig))
_REWARD_KEYS = tuple(f.name for f in fields(RewardParams))


def config_from_dict(doc: dict[str, Any]) -> RestaurantConfig:
    """Build a config from a plain dict; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for required in ("n_tables", "table_positions", "robot_start"):
        if required not in doc:
            raise ConfigError(f"missing required config key: {required}")

    kwargs: dict[str, Any] = dict(doc)
    reward_doc = doc.get("reward")
    if reward_doc is not None:
        if not isinstance(reward_doc, dict):
            raise ConfigError("reward must be an object")
        unknown = sorted(set(reward_doc) - set(_REWARD_KEYS))
        if unknown:
            raise ConfigError(f"unknown reward keys: {', '.join(unknown)}")
        kwargs["reward"] = RewardParams(**reward_doc)

    try:
        return RestaurantConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(cfg: RestaurantConfig) -> dict[str, Any]:
    """A fresh plain dict of ``cfg``, its tuples as new lists.

    Built field by field: ``dataclasses.asdict`` recurses and deep-copies.
    """
    doc = {key: getattr(cfg, key) for key in _CONFIG_KEYS}
    doc["table_positions"] = [list(p) for p in cfg.table_positions]
    doc["robot_start"] = list(cfg.robot_start)
    doc["satisfaction_prior"] = list(cfg.satisfaction_prior)
    doc["reward"] = {key: getattr(cfg.reward, key) for key in _REWARD_KEYS}
    doc["reward"]["penalty_bases"] = list(cfg.reward.penalty_bases)
    return doc


def config_from_json(text: str) -> RestaurantConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def config_to_json(cfg: RestaurantConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)


def apply_overrides(doc: dict[str, Any], overrides: list[str]) -> dict[str, Any]:
    """Apply ``key=value`` patches (values parsed as JSON) to a config dict.

    Dotted keys reach into the nested reward object, e.g.
    ``reward.penalty_bases=[3.0,1.7,1.4]``. Only declared keys are accepted.
    """
    patched = dict(doc)
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings allowed, e.g. policy names
        head, dot, tail = key.partition(".")
        if dot:
            if head != "reward" or tail not in _REWARD_KEYS:
                raise ConfigError(f"unknown override key: {key}")
            reward_doc = dict(patched.get("reward") or {})
            reward_doc[tail] = value
            patched["reward"] = reward_doc
        else:
            if head not in _CONFIG_KEYS:
                raise ConfigError(f"unknown override key: {key}")
            patched[head] = value
    return patched


# --- Built-in scenarios ------------------------------------------------------


def scenario_paper_3tables() -> RestaurantConfig:
    """Reference three-table scenario: 11x11 grid, sat_max 5, time_max 15."""
    return RestaurantConfig(
        n_tables=3,
        table_positions=((2, 2), (2, 8), (8, 5)),
        robot_start=(5, 5),
    )


def scenario_small_1table() -> RestaurantConfig:
    """Tiny instance used by the verification oracles: exhaustively enumerable."""
    return RestaurantConfig(
        n_tables=1,
        table_positions=((2, 2),),
        robot_start=(0, 0),
        grid_width=5,
        grid_height=5,
        sat_max=2,
        time_max=4,
        horizon=20,
    )


def scenario_two_tables() -> RestaurantConfig:
    """Two-table evaluation scenario for policy comparisons."""
    return RestaurantConfig(
        n_tables=2,
        table_positions=((2, 2), (8, 8)),
        robot_start=(5, 5),
        horizon=60,
    )


SCENARIOS = {
    "paper-3tables": scenario_paper_3tables,
    "small-1table": scenario_small_1table,
    "two-tables": scenario_two_tables,
}
